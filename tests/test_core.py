from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperres import (
    CapExceeded,
    EmptyEdge,
    EmptyFamily,
    GeneratorSpec,
    SpernerViolation,
    analyze_structure,
    build_hypergraph,
    classify_family,
    count_minimum_bases,
    distance_matrix,
    format_hypergraph,
    generate,
    is_sperner,
    partition_dimension,
    twin_classes,
    vertex_adjacency,
)
from hyperres import core, metric
from hyperres.cli import main
from instances import cover6, overlap4


def ids(H, *labels):
    return [H.id_of[x] for x in labels]


# ---------------------------------------------------------------------------
# build_hypergraph


def test_build_two_edge_example():
    H = overlap4()
    assert H.m == 4 and H.k == 2
    assert H.labels == ("v1", "v2", "v3", "v4")
    assert H.edges == (frozenset({0, 1, 2}), frozenset({2, 3}))


def test_build_minimal():
    H = build_hypergraph([["a"]])
    assert H.m == 1 and H.k == 1


def test_build_rejects_contained_edge():
    with pytest.raises(SpernerViolation) as exc:
        build_hypergraph([["a", "b", "c"], ["a", "b"]])
    assert exc.value.inner == 1 and exc.value.outer == 0


def test_build_gate_off_accepts_duplicates():
    H = build_hypergraph([["a", "b"], ["a", "b"]], allow_non_sperner=True)
    assert H.k == 2 and not is_sperner(H)


def test_build_rejects_empty_inputs():
    with pytest.raises(EmptyFamily):
        build_hypergraph([])
    with pytest.raises(EmptyEdge):
        build_hypergraph([["a"], []])


# ---------------------------------------------------------------------------
# analyze_structure


def test_analyze_two_edge_example():
    report = analyze_structure(overlap4())
    assert report.connected and report.sperner and report.linear
    assert report.rank == 3
    assert report.uniform is None
    assert report.degrees == (1, 1, 2, 1)


def test_analyze_hypercycle_4_3():
    report = analyze_structure(generate(GeneratorSpec("hypercycle", 4, 3)))
    assert report.uniform == 3 and report.linear
    assert report.pendant_edges == frozenset()


def test_analyze_single_edge():
    report = analyze_structure(build_hypergraph([["a", "b", "c"]]))
    assert report.rank == 3 and report.uniform == 3 and report.regular == 1
    assert report.pendant_edges == {0}
    assert report.vacuous_pendant_edges == {0}


def test_analyze_reports_disconnected():
    H = build_hypergraph([["a", "b"], ["c", "d"]])
    report = analyze_structure(H)
    assert not report.connected
    assert report.families == frozenset()


def test_branches_of_hyperpath():
    report = analyze_structure(generate(GeneratorSpec("hyperpath", 3, 3)))
    got = {(tuple(sorted(s)), j) for s, j in report.branches}
    assert got == {((0,), 0), ((2,), 2), ((0, 1), 1), ((1, 2), 1)}
    assert report.pendant_edges == {0, 2}


def test_no_branches_in_hypercycle():
    report = analyze_structure(generate(GeneratorSpec("hypercycle", 4, 3)))
    assert report.branches == ()


# ---------------------------------------------------------------------------
# twin_classes


def test_twins_two_edge_example():
    H = overlap4()
    tw = twin_classes(H)
    assert tw.classes == {
        (0,): frozenset(ids(H, "v1", "v2")),
        (0, 1): frozenset(ids(H, "v3")),
        (1,): frozenset(ids(H, "v4")),
    }
    assert tw.representatives == {(0,): 0, (0, 1): 2, (1,): 3}
    assert tw.forced == frozenset(ids(H, "v2"))


def test_twins_three_edge_example():
    tw = twin_classes(cover6())
    assert tw.excess == {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    assert sum(tw.excess.values()) == 3


def test_twins_single_edge():
    tw = twin_classes(build_hypergraph([[f"v{i}" for i in range(5)]]))
    assert tw.classes == {(0,): frozenset(range(5))}
    assert tw.excess[(0,)] == 4


# ---------------------------------------------------------------------------
# classify_family


def test_classify_two_edge_path():
    desc = classify_family(generate(GeneratorSpec("hyperpath", 2, 3)))
    assert {"hyperpath", "hyperstar", "hypertree"} <= desc.flags
    assert desc.kind == "hyperpath"


def test_classify_hypercycle():
    desc = classify_family(generate(GeneratorSpec("hypercycle", 4, 3)))
    assert desc.kind == "hypercycle" and desc.k == 4 and desc.n == 3
    assert desc.edge_order is not None and len(desc.edge_order) == 4


def test_classify_hyperstar():
    H = generate(GeneratorSpec("hyperstar", 3, 3))
    desc = classify_family(H)
    assert desc.kind == "hyperstar"
    assert desc.center == frozenset({H.id_of["v1"]})
    # three edges through one shared vertex admit no closed walk with
    # distinct connectors, so the cycle flag must stay off
    assert "hypercycle" not in desc.flags
    assert "hypertree" in desc.flags


def test_classify_single_edge():
    desc = classify_family(build_hypergraph([["a", "b"]]))
    assert desc.kind == "single-edge"
    assert {"hyperpath", "hypertree"} <= desc.flags


def test_classify_cap():
    H = generate(GeneratorSpec("hyperstar", 12, 3))
    with pytest.raises(CapExceeded):
        classify_family(H)
    assert classify_family(H, recognition_cap=12).kind == "hyperstar"


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("hyperpath", 1, 4),
        GeneratorSpec("hyperpath", 4, 2),
        GeneratorSpec("hyperpath", 3, 5),
        GeneratorSpec("hypercycle", 3, 3),
        GeneratorSpec("hypercycle", 5, 2),
        GeneratorSpec("hypercycle", 6, 4),
        GeneratorSpec("hyperstar", 2, 4),
        GeneratorSpec("hyperstar", 5, 3),
        GeneratorSpec("hypertree", 4, 3, seed=7),
        GeneratorSpec("hypertree", 6, 3, seed=1),
    ],
)
def test_classify_roundtrip(spec):
    assert spec.kind in classify_family(generate(spec)).flags


# ---------------------------------------------------------------------------
# properties

# random covering hypergraphs as label-edge lists over a small alphabet
edge_strategy = st.lists(
    st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
    min_size=1,
    max_size=5,
)


@given(edge_strategy)
@settings(max_examples=60)
def test_twin_rows_equal(edge_list):
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    tw = twin_classes(H)
    D = distance_matrix(H)
    for members in tw.classes.values():
        vs = sorted(members)
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                for w in range(H.m):
                    if w not in (u, v):
                        assert D.get(u, w) == D.get(v, w)


@given(edge_strategy)
@settings(max_examples=60)
def test_twin_class_counts(edge_list):
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    tw = twin_classes(H)
    assert sum(len(c) for c in tw.classes.values()) == H.m
    assert sum(tw.excess.values()) == H.m - len(tw.representative_set)
    for sig, members in tw.classes.items():
        assert tw.representatives[sig] in members


@given(edge_strategy)
@settings(max_examples=60)
def test_sperner_flag_matches_gate(edge_list):
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    if analyze_structure(H).sperner:
        rebuilt = build_hypergraph(
            [[H.labels[v] for v in sorted(e)] for e in H.edges]
        )
        assert rebuilt.edges == H.edges



# ---------------------------------------------------------------------------
# analysis context: computed once per hypergraph


@given(edge_strategy)
@settings(max_examples=60)
def test_context_matches_direct_computation(edge_list):
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    assert H.incidence == tuple(
        tuple(i for i, edge in enumerate(H.edges) if v in edge)
        for v in range(H.m)
    )
    assert H.adjacency == vertex_adjacency(H)
    assert H.twins == twin_classes(H)
    assert H.distances == distance_matrix(H)
    assert H.distances is H.distances


@pytest.fixture
def computations(monkeypatch):
    """Counts each run of the public BFS and twin functions, per
    hypergraph, by replacing them where the analysis context calls them."""
    counts = Counter()
    for module, name in ((core, "vertex_adjacency"), (core, "twin_classes"),
                         (metric, "distance_matrix")):
        def counting(H, original=getattr(module, name), name=name):
            counts[name, id(H)] += 1
            return original(H)

        monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("solve", [count_minimum_bases, partition_dimension])
def test_solvers_compute_context_once(computations, solve):
    H = generate(GeneratorSpec("hypercycle", 4, 3))
    solve(H)
    assert computations == {
        (name, id(H)): 1
        for name in ("vertex_adjacency", "twin_classes", "distance_matrix")
    }


@pytest.mark.parametrize("command", ["dim", "pd", "bounds", "analyze"])
def test_commands_compute_context_once(computations, command, tmp_path):
    path = tmp_path / "c43.hg"
    path.write_text(format_hypergraph(generate(GeneratorSpec("hypercycle", 4, 3))))
    assert main([command, "--json", str(path)]) == 0
    assert computations and set(computations.values()) == {1}
