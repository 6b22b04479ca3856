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
    Hypergraph,
    NotAPartition,
    analyze_structure,
    build_hypergraph,
    dual,
    generate,
    is_resolving_partition,
    is_sperner,
    metric_dimension,
    partition_dimension,
    pd_lower_bound,
)
from hyperres.errors import DEFAULT_BUDGET, _Budget
from hyperres.partition import _has_dead_pair, _resolving_assignments, _search_start
from instances import (
    random_connected_sperner,
    random_twin_free_3uniform,
    small_hypergraphs,
    twoblock11,
)
from oracles import (
    oracle_certificate,
    oracle_distances,
    oracle_partition_dimension,
    oracle_twin_class_ids,
    reference_dead_pair,
    reference_first_resolving_partition,
    reference_resolving_assignments,
)


def single_edge(m):
    return build_hypergraph([[f"v{i}" for i in range(m)]])


def _work(units=DEFAULT_BUDGET):
    """A budget record for driving the partition walk directly."""
    return _Budget(units, "partition", "pd")


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
    # 1.5 is no id, and nor is 1.0, though it equals the id 1
    for v in (1.5, 1.0):
        with pytest.raises(NotAPartition,
                           match="^classes must partition the vertex set exactly$"):
            is_resolving_partition(H, [[0, v], [2, 3]])
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


def test_pd_bound_on_non_sperner_dual():
    # the dual's edges {E1} and {E1, E2} are nested; no two vertices are
    # twins, so the bound is 2, the pd of any two adjacent vertices
    H = dual(generate(GeneratorSpec("hyperpath", 2, 3)))
    assert not is_sperner(H)
    assert pd_lower_bound(H) == 2 == oracle_partition_dimension(H)


# ---------------------------------------------------------------------------
# the search start: family bounds that skip refutations


def _family(kind, k, n):
    return generate(GeneratorSpec(kind, k, n))


# the hypercycles with k >= n >= 4 and the hyperstars whose walk from the
# twin bound finishes in under a second
BOUNDED_FAMILIES = (
    [("hypercycle", k, 4) for k in range(4, 13)]
    + [("hypercycle", k, 5) for k in range(5, 11)]
    + [("hyperstar", k, 3) for k in range(2, 11)]
    + [("hyperstar", k, 4) for k in range(2, 9)]
    + [("hyperstar", k, 5) for k in range(2, 7)]
)


@pytest.mark.parametrize(
    "kind,k,n", BOUNDED_FAMILIES, ids=[f"{f}({k},{n})" for f, k, n in BOUNDED_FAMILIES]
)
def test_every_t_below_the_search_start_is_refuted(kind, k, n):
    # the walk from the twin bound, run to the end, finds nothing below the
    # start; the walk at the start succeeds, so the bound is exact here
    H = _family(kind, k, n)
    start = _search_start(H)
    for t in range(pd_lower_bound(H), start):
        walk = _resolving_assignments(H.distances, t, H.incidence, _work())
        # an exhausted budget raises out of next(), so None is a refutation
        assert next(walk, None) is None, t
    assert partition_dimension(H)[0] == start


# every node of a walk is charged (i + 1) * m units, so the units a walk
# charges up to its first yield pin its nodes: a faster dead-pair test must
# leave them as they are
PINNED_WALKS = [
    ("hyperstar", 50, 3, 11, 9_991_930),
    ("hypercycle", 120, 4, 4, 23_458_680),
]


@pytest.mark.parametrize(
    "kind,k,n,t,units",
    PINNED_WALKS,
    ids=[f"{f}({k},{n})" for f, k, n, _, _ in PINNED_WALKS],
)
def test_units_to_the_first_yield_are_pinned(kind, k, n, t, units):
    H = _family(kind, k, n)
    work = _work()
    assert next(_resolving_assignments(H.distances, t, H.incidence, work))
    assert work.units - work.left == units


def test_walk_raises_when_its_budget_runs_out():
    # the record stops the walk by raising, with the bound its caller set,
    # instead of ending it as if t were refuted
    H = generate(GeneratorSpec("hypercycle", 6, 4))
    work = _work(10)
    work.proved = 4
    walk = _resolving_assignments(H.distances, 4, H.incidence, work)
    with pytest.raises(CapExceeded, match=r"pd >= 4$"):
        next(walk, None)


SHUFFLED_FAMILIES = (
    [("hyperstar", k, n) for n in (2, 3, 4, 5) for k in range(2, 7)]
    + [("hypercycle", k, n) for n in (3, 4, 5) for k in range(3, 8)]
)


@given(st.sampled_from(SHUFFLED_FAMILIES), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_search_start_ignores_edge_and_label_order(spec, rng):
    # recognition reads the structure only, so relabelling and reordering
    # keep the start that the refutation test above checks; where the
    # oracle is cheap the start is checked against pd directly
    H = _family(*spec)
    names = [f"x{i}" for i in rng.sample(range(H.m), H.m)]
    edges = [[names[v] for v in edge] for edge in H.edges]
    for edge in edges:
        rng.shuffle(edge)
    rng.shuffle(edges)
    shuffled = build_hypergraph(edges)
    assert _search_start(shuffled) == _search_start(H)
    if shuffled.m <= 9:
        assert _search_start(shuffled) <= oracle_partition_dimension(shuffled)


@pytest.mark.parametrize(
    "make",
    [
        # two-vertex center
        lambda: build_hypergraph(
            [["c", "d", "a1", "a2"], ["c", "d", "b1", "b2"], ["c", "d", "e1", "e2"]]
        ),
        # a 4-edge cycle with edges of sizes 4, 4, 3 and 3
        lambda: build_hypergraph(
            [["a", "p1", "p2", "b"], ["b", "q1", "q2", "c"], ["c", "r1", "d"],
             ["d", "s1", "a"]]
        ),
        # k < n: pd(C(3,4)) = 3 = n - 1
        lambda: _family("hypercycle", 3, 4),
        lambda: _family("hypercycle", 3, 5),
        # n = 2: the graph star K_{1,4}
        lambda: _family("hyperstar", 4, 2),
    ],
    ids=["star-2-center", "cycle-4433", "C(3,4)", "C(3,5)", "star(4,2)"],
)
def test_near_misses_keep_the_generic_start(make):
    # outside the hypotheses only the non-path bound applies
    H = make()
    assert _search_start(H) == 3
    if H.m <= 10:
        assert partition_dimension(H)[0] == oracle_partition_dimension(H)


@pytest.mark.parametrize(
    "make, start",
    [(lambda: build_hypergraph([["a"]]), 1),
     (lambda: build_hypergraph([["a", "b"]]), 2),
     (lambda: build_hypergraph([["a", "b"], ["b", "c"], ["c", "d"]]), 2),
     (lambda: build_hypergraph([["a", "b", "c"]]), 3),
     (lambda: build_hypergraph([["a", "b"], ["b", "c"], ["c", "a"]]), 3),
     (lambda: Hypergraph(("a",), ()), 1),
     (lambda: _family("hypercycle", 30, 4), 4),
     (lambda: build_hypergraph([[f"a{i}" for i in range(400)],
                                [f"a{i}" for i in range(398, 798)]]), 3)],
    ids=["one-vertex", "P2", "P4", "K3-edge", "K3", "no-edge", "C(30,4)",
         "two-400"],
)
def test_search_start_on_paths_and_non_paths(make, start):
    # a middle-graph degree is the size of the union of a vertex's edges,
    # less the vertex (0 for a vertex in no edge), so no bound builds the
    # distance matrix
    H = make()
    assert _search_start(H) == start
    assert "distances" not in H.__dict__


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
    # the hypercycle bound gives pd >= 4 before any search
    with pytest.raises(CapExceeded, match=r"pd >= 4$"):
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
        classes = list(cert.landmarks)
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
    assert list(cert.landmarks) == reference_first_resolving_partition(H)


def test_certificate_matches_reference_on_random_instances():
    for seed in range(50):
        H = random_connected_sperner(seed, m_lo=4, m_hi=11)
        _, cert = partition_dimension(H)
        assert list(cert.landmarks) == reference_first_resolving_partition(H), seed


def test_certificate_matches_reference_on_twin_free_instances():
    # no twins, so twin order cuts nothing and every cut is a dead pair
    for seed in range(50):
        H = random_twin_free_3uniform(seed, 4 + seed % 8)
        _, cert = partition_dimension(H)
        assert list(cert.landmarks) == reference_first_resolving_partition(H), seed


def test_twin_free_16_vertices_is_fast():
    # the walk without the dead-pair cut took about two minutes here
    H = random_twin_free_3uniform(0, 16)
    began = time.perf_counter()
    value, cert = partition_dimension(H)
    assert time.perf_counter() - began < 20
    reps, conflict = oracle_certificate(H, cert.landmarks)
    assert conflict is None and reps == cert.representations
    assert value == len(cert.landmarks) == 4


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


def _walk(H, t):
    """The solver's walk, fed the oracle's distances and twin ids."""
    walk = _resolving_assignments(
        oracle_distances(H), t, oracle_twin_class_ids(H), _work()
    )
    return [tuple(a) for a in walk]


@given(small_hypergraphs)
@settings(max_examples=80, deadline=None)
def test_walk_yields_exactly_the_resolving_twin_ordered_assignments(H):
    assume(H.connected)
    for t in range(1, H.m + 1):
        assert _walk(H, t) == [
            tuple(a) for a in reference_resolving_assignments(H, t, twin_order=True)
        ]


@given(small_hypergraphs)
@settings(max_examples=60, deadline=None)
def test_twin_order_keeps_every_orbit(H):
    assume(H.connected)
    class_id = oracle_twin_class_ids(H)
    for t in range(1, H.m + 1):
        kept = set(_walk(H, t))
        for a in reference_resolving_assignments(H, t, twin_order=False):
            assert any(image in kept for image in _twin_images(a, class_id)), a


@st.composite
def long_hypergraphs(draw):
    """Connected hypergraphs on up to 17 vertices with small edges, each
    meeting an earlier one, so distances reach well past those of
    ``small_hypergraphs`` and capped suffixes differ from plain ones."""
    m, edges = 1, []
    for _ in range(draw(st.integers(1, 8))):
        old = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=2)))
        new = draw(st.integers(2 - len(old), 2))
        edges.append(old + list(range(m, m + new)))
        m += new
    return build_hypergraph(edges, allow_non_sperner=True)


@given(st.one_of(small_hypergraphs, long_hypergraphs()), st.data())
@settings(max_examples=150, deadline=None)
def test_dead_pair_test_matches_the_key_set_definition(H, data):
    # random restricted-growth prefixes of one H; a prefix with b blocks is
    # a node of the walk at t = b, all blocks open, and at every t > b, some
    # unopened, so each is tested both ways. One tail memo serves them all,
    # as it serves every node of a walk.
    assume(H.connected)
    rows = oracle_distances(H)
    tails = {}
    for _ in range(data.draw(st.integers(1, 20))):
        i = data.draw(st.integers(0, H.m - 1))
        most = data.draw(st.integers(1, i + 1))
        assign, columns = [], []
        for v in range(i + 1):
            b = data.draw(st.integers(0, min(len(columns), most - 1)))
            if b == len(columns):
                columns.append(rows[v])
            else:
                columns[b] = list(map(min, columns[b], rows[v]))
            assign.append(b)
        for all_open in (True, False):
            assert _has_dead_pair(rows, columns, i, all_open, tails) == (
                reference_dead_pair(rows, columns, i, all_open)
            ), (assign, all_open)


@given(small_hypergraphs)
@settings(max_examples=80, deadline=None)
def test_search_start_never_exceeds_pd(H):
    assume(H.connected)
    assert _search_start(H) <= oracle_partition_dimension(H)


@given(small_hypergraphs)
@settings(max_examples=100, deadline=None)
def test_pd_bound_never_exceeds_pd(H):
    # Sperner or not: the +1 needs only connectivity and a twin class
    # other than V
    assume(H.connected)
    bound = pd_lower_bound(H)
    assert bound <= oracle_partition_dimension(H)
    if H.twins.largest_class_size() == H.m:
        assert bound == H.m


@given(small_hypergraphs)
@settings(max_examples=60, deadline=None)
def test_certificate_matches_reference_on_non_sperner_instances(H):
    assume(H.connected and not is_sperner(H))
    _, cert = partition_dimension(H)
    assert list(cert.landmarks) == reference_first_resolving_partition(H)


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
    rows = H.distances
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        walk = _resolving_assignments(rows, 2, list(range(m)), _work())
        first = next(walk)
    finally:
        sys.setrecursionlimit(limit)
    assert first[:-1] == [0] * (m - 1) and first[-1] == 1
