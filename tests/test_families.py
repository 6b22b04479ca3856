import itertools
import re
from pathlib import Path

import pytest

from hyperres import (
    GeneratorSpec,
    HypothesisNotMet,
    InvalidSpec,
    analyze_structure,
    classify_family,
    generate,
    metric_dimension,
    partition_dimension,
    predicted_dim,
    predicted_pd,
)
from oracles import oracle_certificate


# ---------------------------------------------------------------------------
# generate


@pytest.mark.parametrize(
    "spec,m",
    [
        (GeneratorSpec("hypercycle", 4, 3), 8),
        (GeneratorSpec("hyperstar", 3, 3), 7),
        (GeneratorSpec("hyperpath", 2, 3), 5),
        (GeneratorSpec("hyperpath", 1, 4), 4),
        (GeneratorSpec("hypercycle", 3, 2), 3),
    ],
)
def test_generated_sizes(spec, m):
    assert generate(spec).m == m


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("hyperpath", 4, 3),
        GeneratorSpec("hypercycle", 5, 4),
        GeneratorSpec("hyperstar", 4, 3),
        GeneratorSpec("hypertree", 5, 3, seed=3),
    ],
)
def test_generated_structure(spec):
    report = analyze_structure(generate(spec))
    assert report.connected and report.sperner and report.linear
    assert report.uniform == spec.n


def test_consecutive_edges_overlap_in_one_vertex():
    H = generate(GeneratorSpec("hyperpath", 4, 4))
    for i in range(H.k - 1):
        assert len(H.edges[i] & H.edges[i + 1]) == 1
    C = generate(GeneratorSpec("hypercycle", 5, 3))
    for i in range(C.k):
        assert len(C.edges[i] & C.edges[(i + 1) % C.k]) == 1


def test_hyperstar_edges_share_exactly_the_center():
    H = generate(GeneratorSpec("hyperstar", 4, 3))
    center = H.id_of["v1"]
    for a, b in itertools.combinations(H.edges, 2):
        assert a & b == {center}


def test_hypertree_seed_reproducibility():
    spec = GeneratorSpec("hypertree", 6, 3, seed=11)
    assert generate(spec) == generate(spec)
    other = generate(GeneratorSpec("hypertree", 6, 3, seed=12))
    assert generate(spec).edges != other.edges


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("hypercycle", 2, 3),
        GeneratorSpec("hyperstar", 1, 3),
        GeneratorSpec("hyperpath", 0, 3),
        GeneratorSpec("hyperpath", 2, 1),
        GeneratorSpec("nonsense", 3, 3),
        GeneratorSpec("hyperstar", 3, 3, center_size=2),
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(InvalidSpec):
        generate(spec)


def test_roundtrip_classification():
    for spec in (
        GeneratorSpec("hyperpath", 3, 3),
        GeneratorSpec("hypercycle", 4, 3),
        GeneratorSpec("hyperstar", 3, 4),
        GeneratorSpec("hypertree", 5, 3, seed=2),
        GeneratorSpec("hypertree", 5, 3, seed=9),
    ):
        assert spec.kind in classify_family(generate(spec)).flags


# ---------------------------------------------------------------------------
# predicted_dim


@pytest.mark.parametrize(
    "spec,value",
    [
        (GeneratorSpec("hypercycle", 5, 3), 3),
        (GeneratorSpec("hypercycle", 3, 4), 3),
        (GeneratorSpec("hyperstar", 4, 3), 4),
        (GeneratorSpec("hyperpath", 2, 3), 2),
        (GeneratorSpec("hyperpath", 4, 5), 10),
    ],
)
def test_predicted_dim_values(spec, value):
    assert predicted_dim(spec) == value


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("hyperpath", 3, 2),
        GeneratorSpec("hyperstar", 2, 3),
        GeneratorSpec("hyperstar", 3, 2),
        GeneratorSpec("hypercycle", 4, 2),
    ],
)
def test_predicted_dim_hypothesis_not_met(spec):
    with pytest.raises(HypothesisNotMet):
        predicted_dim(spec)


def test_predicted_dim_hypertrees_match_solver():
    for seed in range(6):
        spec = GeneratorSpec("hypertree", 4, 3, seed=seed)
        assert predicted_dim(spec) == metric_dimension(generate(spec))[0]


def test_predicted_dim_hypertree_rejects_bare_leaves():
    # 2-uniform trees have pendant edges without spare exclusive vertices
    with pytest.raises(HypothesisNotMet):
        predicted_dim(GeneratorSpec("hypertree", 4, 2, seed=0))


# ---------------------------------------------------------------------------
# predicted_pd


@pytest.mark.parametrize(
    "spec,value",
    [
        (GeneratorSpec("hypercycle", 4, 3), 3),
        (GeneratorSpec("hypercycle", 3, 4), 5),
        (GeneratorSpec("hyperpath", 3, 3), 3),
        (GeneratorSpec("hypercycle", 4, 2), 3),
    ],
)
def test_predicted_pd_values(spec, value):
    assert predicted_pd(spec) == value


def test_predicted_pd_undefined_families():
    with pytest.raises(HypothesisNotMet):
        predicted_pd(GeneratorSpec("hyperstar", 3, 3))
    with pytest.raises(HypothesisNotMet):
        predicted_pd(GeneratorSpec("hypertree", 3, 3))


# ---------------------------------------------------------------------------
# closed forms against the exact solvers (the cases that hold; the
# falsified hypercycle pd rows are exercised by the acceptance gate)


def test_dim_closed_forms_match_solver_small_grid():
    specs = [GeneratorSpec("hypercycle", k, 3) for k in (3, 4, 5, 6)]
    specs += [GeneratorSpec("hypercycle", 3, n) for n in (4, 5)]
    specs += [GeneratorSpec("hyperstar", k, n) for k in (3, 4) for n in (3, 4)]
    specs += [GeneratorSpec("hyperpath", k, n) for k in (2, 3) for n in (3, 4)]
    for spec in specs:
        assert predicted_dim(spec) == metric_dimension(generate(spec))[0], spec


def test_pd_closed_forms_match_solver_hyperpaths():
    for k in (2, 3, 4):
        for n in (2, 3, 4):
            spec = GeneratorSpec("hyperpath", k, n)
            assert predicted_pd(spec) == partition_dimension(generate(spec))[0]


# ---------------------------------------------------------------------------
# the README's known-incorrect hypercycle rows

README = Path(__file__).resolve().parent.parent / "README.md"
KNOWN_INCORRECT_ROW = re.compile(
    r"^\| (\d+) edges, size (\d+) \| (\d+) \| (\d+) \| (.+) \|$", re.M
)


def test_known_incorrect_hypercycle_rows_are_certified():
    rows = KNOWN_INCORRECT_ROW.findall(README.read_text())
    assert len(rows) == 8
    for k, n, stated, true, witness in rows:
        spec = GeneratorSpec("hypercycle", int(k), int(n))
        H = generate(spec)
        ids = {label: v for v, label in enumerate(H.labels)}
        classes = [
            {ids[label] for label in cls.split(",")}
            for cls in re.findall(r"\{([^}]*)\}", witness)
        ]
        assert sorted(v for cls in classes for v in cls) == list(range(H.m))
        assert oracle_certificate(H, classes)[1] is None, (k, n)
        assert len(classes) == int(true) == partition_dimension(H)[0]
        assert int(true) < int(stated) == predicted_pd(spec)
