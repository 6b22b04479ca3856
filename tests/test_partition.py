import itertools
import random
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperres import (
    CapExceeded,
    Disconnected,
    GeneratorSpec,
    NotAPartition,
    NotSperner,
    analyze_structure,
    build_hypergraph,
    dual,
    generate,
    is_resolving_partition,
    metric_dimension,
    partition_dimension,
    pd_lower_bound,
)
from hyperres.errors import DEFAULT_BUDGET
from hyperres.partition import _resolving_assignments
from instances import (
    random_connected_sperner,
    random_twin_free_3uniform,
    twoblock11,
)
from oracles import (
    oracle_certificate,
    oracle_distances,
    oracle_partition_dimension,
    oracle_twin_class_ids,
    reference_first_resolving_partition,
    reference_resolving_assignments,
)


def single_edge(m):
    return build_hypergraph([[f"v{i}" for i in range(m)]])


# ---------------------------------------------------------------------------
# is_resolving_partition


def test_singletons_always_resolve():
    H = generate(GeneratorSpec("hypercycle", 3, 3))
    cert = is_resolving_partition(H, [{v} for v in range(H.m)])
    assert cert.valid


def test_paired_partition_resolves_twoblock11():
    H = twoblock11()
    classes = [{i, i + 5} for i in range(5)] + [{10}]
    cert = is_resolving_partition(H, classes)
    assert cert.valid


def test_no_two_class_partition_resolves_hypercycle_4_3():
    # exhaustive over all 2^7 - 1 bipartitions (vertex 0 fixed in class one)
    H = generate(GeneratorSpec("hypercycle", 4, 3))
    others = range(1, H.m)
    for size in range(1, H.m):
        for chosen in itertools.combinations(others, size):
            second = set(chosen)
            first = set(range(H.m)) - second
            assert not is_resolving_partition(H, [first, second]).valid


def test_partition_validation_errors():
    H = single_edge(4)
    with pytest.raises(NotAPartition):
        is_resolving_partition(H, [{0, 1}, {1, 2, 3}])
    with pytest.raises(NotAPartition):
        is_resolving_partition(H, [{0, 1}, {2}])
    with pytest.raises(NotAPartition):
        is_resolving_partition(H, [{0, 1, 2, 3}, set()])
    with pytest.raises(Disconnected):
        is_resolving_partition(
            build_hypergraph([["a", "b"], ["c", "d"]]), [{0, 1}, {2, 3}]
        )


def test_conflict_pair_reported():
    H = single_edge(4)
    cert = is_resolving_partition(H, [{0, 1, 2}, {3}])
    assert not cert.valid
    assert cert.conflict == (0, 1)


# ---------------------------------------------------------------------------
# pd_lower_bound


def test_pd_bound_twoblock11():
    assert pd_lower_bound(twoblock11()) == 6


@pytest.mark.parametrize("k,n", [(3, 3), (4, 3), (3, 4), (4, 5)])
def test_pd_bound_hypercycles(k, n):
    assert pd_lower_bound(generate(GeneratorSpec("hypercycle", k, n))) == n - 1


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_pd_bound_single_edge_matches_oracle(m):
    H = single_edge(m)
    assert pd_lower_bound(H) == m
    assert oracle_partition_dimension(H) == m


def test_pd_bound_refuses_non_sperner():
    H = dual(generate(GeneratorSpec("hyperpath", 2, 3)))
    with pytest.raises(NotSperner):
        pd_lower_bound(H)


# ---------------------------------------------------------------------------
# partition_dimension


def test_pd_twoblock11():
    value, cert = partition_dimension(twoblock11())
    assert value == 6 and cert.valid


def test_pd_hyperpath_2_3():
    assert partition_dimension(generate(GeneratorSpec("hyperpath", 2, 3)))[0] == 3


def test_pd_hypercycle_5_3():
    # the odd-k closed form says 4 here, but exhaustive enumeration finds
    # resolving 3-partitions (see the verify harness's failing rows); the
    # solver and the unpruned oracle agree on 3
    H = generate(GeneratorSpec("hypercycle", 5, 3))
    value, cert = partition_dimension(H)
    assert value == 3 and cert.valid
    assert oracle_partition_dimension(H) == 3


def test_pd_solver_handles_non_sperner_duals():
    Hd = dual(generate(GeneratorSpec("hyperpath", 3, 3)))
    assert partition_dimension(Hd)[0] == 2


def test_pd_cap_and_disconnected():
    # twin classes of two vertices give pd >= 3 before any search
    with pytest.raises(CapExceeded, match=r"pd >= 3$"):
        partition_dimension(generate(GeneratorSpec("hypercycle", 6, 4)), budget=10)
    with pytest.raises(Disconnected):
        partition_dimension(build_hypergraph([["a", "b"], ["c", "d"]]))


def test_pd_cap_override():
    H = generate(GeneratorSpec("hypercycle", 6, 4))  # 18 vertices
    with pytest.raises(CapExceeded):
        partition_dimension(H, budget=1000)
    value, cert = partition_dimension(H, budget=10**6)
    assert value == 4 and cert.valid


def test_pd_matches_unpruned_oracle():
    instances = [random_connected_sperner(s, m_lo=4, m_hi=9) for s in range(8)]
    instances.append(random_connected_sperner(999, m_lo=10, m_hi=10))
    for H in instances:
        assert partition_dimension(H)[0] == oracle_partition_dimension(H)


def test_resolving_invariant_under_class_shuffle():
    rng = random.Random(7)
    for seed in range(6):
        H = random_connected_sperner(seed, m_lo=4, m_hi=9)
        _, cert = partition_dimension(H)
        classes = list(cert.classes)
        rng.shuffle(classes)
        assert is_resolving_partition(H, classes).valid


def test_pd_bounds_chain():
    for seed in range(10):
        H = random_connected_sperner(seed, m_lo=4, m_hi=9)
        pd, _ = partition_dimension(H)
        dim, _ = metric_dimension(H)
        assert pd_lower_bound(H) <= pd <= dim + 1


def test_rank_is_not_a_pd_lower_bound():
    H = twoblock11()
    assert analyze_structure(H).rank == 7
    assert partition_dimension(H)[0] == 6


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate(GeneratorSpec("hypercycle", 4, 4)),
        lambda: generate(GeneratorSpec("hypercycle", 3, 5)),
        lambda: generate(GeneratorSpec("hyperstar", 5, 3)),
        lambda: generate(GeneratorSpec("hyperstar", 6, 3)),
        twoblock11,
    ],
    ids=["C(4,4)", "C(3,5)", "star(5,3)", "star(6,3)", "twoblock11"],
)
def test_certificate_matches_reference_on_twin_heavy_families(make):
    H = make()
    _, cert = partition_dimension(H)
    assert list(cert.classes) == reference_first_resolving_partition(H)


def test_certificate_matches_reference_on_random_instances():
    for seed in range(50):
        H = random_connected_sperner(seed, m_lo=4, m_hi=11)
        _, cert = partition_dimension(H)
        assert list(cert.classes) == reference_first_resolving_partition(H), seed


def test_certificate_matches_reference_on_twin_free_instances():
    # no twins, so twin order cuts nothing and every cut is a dead pair
    for seed in range(50):
        H = random_twin_free_3uniform(seed, 4 + seed % 8)
        _, cert = partition_dimension(H)
        assert list(cert.classes) == reference_first_resolving_partition(H), seed


def test_twin_free_16_vertices_is_fast():
    # the walk without the dead-pair cut took about two minutes here
    H = random_twin_free_3uniform(0, 16)
    began = time.perf_counter()
    value, cert = partition_dimension(H)
    assert time.perf_counter() - began < 20
    reps, conflict = oracle_certificate(H, cert.classes)
    assert conflict is None and reps == cert.representations
    assert value == len(cert.classes) == 4


def _renormalized(assign):
    """Relabel blocks in order of first appearance."""
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(b, len(labels)) for b in assign)


def _twin_images(assign, class_id):
    """Every assignment obtained by permuting vertices within twin classes."""
    members = [
        [v for v, c in enumerate(class_id) if c == cid] for cid in set(class_id)
    ]
    for perms in itertools.product(*(itertools.permutations(ms) for ms in members)):
        image = [0] * len(assign)
        for ms, perm in zip(members, perms):
            for x, y in zip(ms, perm):
                image[y] = assign[x]
        yield _renormalized(image)


# up to 8 vertices; few, large or nested edges give twins and non-Sperner
# inputs
small_hypergraphs = st.lists(
    st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=6
).map(
    lambda edges: build_hypergraph(
        [sorted(e) for e in edges], allow_non_sperner=True
    )
)


def _walk(H, t):
    """The solver's walk, fed the oracle's distances and twin ids."""
    walk = _resolving_assignments(
        oracle_distances(H), t, oracle_twin_class_ids(H), [DEFAULT_BUDGET]
    )
    return [tuple(a) for a in walk]


@given(small_hypergraphs)
@settings(max_examples=80, deadline=None)
def test_walk_yields_exactly_the_resolving_twin_ordered_assignments(H):
    assume(H.distances.connected)
    for t in range(1, H.m + 1):
        assert _walk(H, t) == [
            tuple(a) for a in reference_resolving_assignments(H, t, twin_order=True)
        ]


@given(small_hypergraphs)
@settings(max_examples=60, deadline=None)
def test_twin_order_keeps_every_orbit(H):
    assume(H.distances.connected)
    class_id = oracle_twin_class_ids(H)
    for t in range(1, H.m + 1):
        kept = set(_walk(H, t))
        for a in reference_resolving_assignments(H, t, twin_order=False):
            assert any(image in kept for image in _twin_images(a, class_id)), a


def _frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_rgs_enumeration_is_not_bounded_by_recursion_depth():
    # a 400-vertex path under a recursion limit 100 frames above the
    # current depth: a walk that recursed once per vertex would fail
    m = 400
    H = generate(GeneratorSpec("hyperpath", m - 1, 2))
    rows = H.distances.entries
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        walk = _resolving_assignments(rows, 2, list(range(m)), [DEFAULT_BUDGET])
        first = next(walk)
    finally:
        sys.setrecursionlimit(limit)
    assert first[:-1] == [0] * (m - 1) and first[-1] == 1
