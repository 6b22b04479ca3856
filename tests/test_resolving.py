import itertools
import re
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperres import (
    CapExceeded,
    Disconnected,
    GeneratorSpec,
    VertexOutOfRange,
    build_hypergraph,
    count_minimum_bases,
    dim_lower_bound,
    distance_matrix,
    generate,
    is_resolving_set,
    metric_dimension,
    partition_dimension,
    predicted_dim,
    twin_classes,
)
from hyperres.errors import DEFAULT_BUDGET, _Budget
from hyperres.resolving import _minimum_picks, _unresolved_masks
from instances import (
    cover6,
    overlap4,
    random_connected_sperner,
    random_gnp,
    random_private_vertex_instance,
    random_twin_free_3uniform,
    small_hypergraphs,
)
from oracles import (
    oracle_count_minimum_bases,
    oracle_distances,
    oracle_metric_dimension,
    oracle_partition_dimension,
    reference_certificate,
    reference_count_minimum_bases,
    reference_metric_dimension,
    reference_minimum_extras,
    reference_unresolved_masks,
)


# ---------------------------------------------------------------------------
# is_resolving_set


def test_single_forced_vertex_does_not_resolve_overlap4():
    H = overlap4()
    cert = is_resolving_set(H, [H.labels.index("v2")])
    assert not cert.valid
    assert cert.conflict == (H.labels.index("v1"), H.labels.index("v3"))


def test_all_but_one_always_resolves():
    H = cover6()
    for x in range(H.m):
        W = [v for v in range(H.m) if v != x]
        assert is_resolving_set(H, W).valid


def test_interior_pair_resolves_hypercycle_4_3():
    H = generate(GeneratorSpec("hypercycle", 4, 3))
    cert = is_resolving_set(H, [H.labels.index("v2"), H.labels.index("v4")])
    assert cert.valid


def test_resolving_set_errors():
    for v in (9, -1, 1.5, 1.0, "x", None):
        with pytest.raises(VertexOutOfRange, match=f"^vertex id {re.escape(str(v))}$"):
            is_resolving_set(overlap4(), [0, v])
    with pytest.raises(Disconnected):
        is_resolving_set(build_hypergraph([["a", "b"], ["c", "d"]]), [0])


def test_resolving_set_reads_any_iterable_and_drops_repeats():
    H = overlap4()
    cert = is_resolving_set(H, (v for v in [3, 0, 3, 0]))
    assert cert.landmarks == (frozenset({3}), frozenset({0}))
    assert cert == is_resolving_set(H, [3, 0])
    # the ids are checked before any is hashed: an unhashable id after a
    # good one is out of range, not a TypeError
    with pytest.raises(VertexOutOfRange, match=r"^vertex id \[1\]$"):
        is_resolving_set(H, iter([0, 0, [1], 2]))


# twin-free 3-uniform hypercycles, twin-light 3-uniform paths and stars,
# and twin-heavy ones with edges of 4-5 vertices
named_families = st.builds(
    lambda kind, k, n: generate(GeneratorSpec(kind, k, n)),
    st.sampled_from(["hyperstar", "hyperpath", "hypercycle"]),
    st.integers(3, 8),
    st.integers(3, 5),
)


@given(st.one_of(small_hypergraphs, named_families), st.data())
@example(build_hypergraph([["a"]]), None)
@settings(max_examples=200, deadline=None)
def test_basis_certificates_are_those_of_the_matrix(H, data):
    # small_hypergraphs draws twins and nested edges (allow_non_sperner);
    # the certificates, which expand only their landmarks' rows from the
    # class rows, must equal those read off the full matrix
    assume(H.connected)
    cert = metric_dimension(H)[1]
    count_minimum_bases(H)
    basis = [w for (w,) in cert.landmarks]
    W = basis if data is None else data.draw(
        st.lists(st.integers(0, H.m - 1), max_size=H.m + 1))
    check = is_resolving_set(H, W)
    rows = distance_matrix(H)
    assert cert == is_resolving_set(H, basis) == reference_certificate(
        rows, [(w,) for w in basis])
    assert check == reference_certificate(rows, [(w,) for w in dict.fromkeys(W)])


def test_certificate_covers_every_vertex():
    H = overlap4()
    cert = is_resolving_set(H, [0, 3])
    assert set(cert.representations) == set(range(H.m))
    assert cert.representations[0] == (0, 2)


# ---------------------------------------------------------------------------
# dim_lower_bound


def test_lower_bound_pinned_examples():
    assert dim_lower_bound(overlap4()) == 1
    assert dim_lower_bound(cover6()) == 3


def test_lower_bound_vanishes_on_3uniform_hypercycles():
    for k in (3, 4, 5):
        assert dim_lower_bound(generate(GeneratorSpec("hypercycle", k, 3))) == 0


# ---------------------------------------------------------------------------
# metric_dimension


def test_dim_pinned_examples():
    assert metric_dimension(overlap4())[0] == 2
    assert metric_dimension(cover6())[0] == 5


def test_dim_hyperstar_3_3():
    assert metric_dimension(generate(GeneratorSpec("hyperstar", 3, 3)))[0] == 3


def test_dim_rejects_disconnected():
    with pytest.raises(Disconnected):
        metric_dimension(build_hypergraph([["a", "b"], ["c", "d"]]))


def test_dim_cap():
    # 8 vertices at diameter 3, and 3**1 + 1 < 8, so the diameter bound
    # refutes sizes 0 and 1 without a walk; the 28 open pairs at size 2
    # alone cost more than 4 units, so the search proved dim >= 2
    H = generate(GeneratorSpec("hypercycle", 4, 3))
    with pytest.raises(CapExceeded, match=r"dim >= 2$"):
        metric_dimension(H, budget=4)


def test_returned_certificate_is_valid_and_minimal():
    for seed in range(10):
        H = random_connected_sperner(seed, m_lo=4, m_hi=9)
        dim, cert = metric_dimension(H)
        assert cert.valid and len(cert.landmarks) == dim
        assert is_resolving_set(H, [w for (w,) in cert.landmarks]).valid
        # no smaller set in the reduced family resolves
        tw = twin_classes(H)
        forced = sorted(v for vs in tw.members for v in vs[1:])
        reps = [vs[0] for vs in tw.members]
        smaller = dim - len(forced) - 1
        if smaller >= 0:
            for extra in itertools.combinations(reps, smaller):
                W = sorted(forced + list(extra))
                assert not is_resolving_set(H, W).valid


def test_swap_property_on_basis():
    for seed in range(6):
        H = random_connected_sperner(seed, m_lo=4, m_hi=9)
        dim, cert = metric_dimension(H)
        basis = {w for (w,) in cert.landmarks}
        tw = twin_classes(H)
        for members in map(set, tw.members):
            inside = sorted(basis & members)
            outside = sorted(members - basis)
            for u in inside:
                for v in outside:
                    swapped = (basis - {u}) | {v}
                    assert is_resolving_set(H, sorted(swapped)).valid


def test_dim_bounds_chain():
    for seed in range(15):
        H = random_connected_sperner(seed, m_lo=4, m_hi=9)
        dim, _ = metric_dimension(H)
        assert dim_lower_bound(H) <= dim <= H.m - 1


def test_dim_matches_unreduced_oracle_up_to_12_vertices():
    instances = [overlap4(), cover6(), generate(GeneratorSpec("hypercycle", 5, 3))]
    instances += [random_connected_sperner(s, m_lo=4, m_hi=12) for s in range(6)]
    for H in instances:
        assert metric_dimension(H)[0] == oracle_metric_dimension(H)


def test_private_vertex_instances_meet_lower_bound_with_product_count():
    # every edge keeps spare exclusive vertices, so the twin bound is tight
    # and the basis count is the product of class sizes
    for seed in range(5):
        H = random_private_vertex_instance(seed)
        tw = twin_classes(H)
        dim, _ = metric_dimension(H)
        assert dim == sum(len(vs) - 1 for vs in tw.members)
        expected = 1
        for vs in tw.members:
            expected *= len(vs)
        assert count_minimum_bases(H) == expected


# ---------------------------------------------------------------------------
# count_minimum_bases


def test_count_single_edge():
    assert count_minimum_bases(build_hypergraph([["a", "b", "c"]])) == 3


def test_count_hyperpath_2_3():
    assert count_minimum_bases(generate(GeneratorSpec("hyperpath", 2, 3))) == 4


def test_count_overlap4():
    # five of the six 2-subsets resolve; {v3,v4} leaves v1, v2 identical
    assert count_minimum_bases(overlap4()) == 5


def test_count_matches_oracle():
    instances = [overlap4(), generate(GeneratorSpec("hypercycle", 3, 3))]
    instances += [random_connected_sperner(s, m_lo=4, m_hi=8) for s in range(4)]
    for H in instances:
        assert count_minimum_bases(H) == oracle_count_minimum_bases(H)


def test_count_cap():
    # 10 vertices at diameter 3, and 3**1 + 1 < 10: the walk starts at size
    # 2, and its 45 open pairs cost more than 3 units
    H = generate(GeneratorSpec("hypercycle", 5, 3))
    with pytest.raises(CapExceeded, match=r"dim >= 2$"):
        count_minimum_bases(H, budget=3)


# ---------------------------------------------------------------------------
# the work budget


def _smallest_budget(solve):
    """The least budget under which ``solve(budget)`` returns: the charges
    of a search do not depend on its budget, so success is monotone."""
    lo, hi = 0, DEFAULT_BUDGET
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            solve(mid)
            hi = mid
        except CapExceeded:
            lo = mid + 1
    return lo


@pytest.mark.parametrize(
    "solve, name, oracle",
    [
        (metric_dimension, "dim", oracle_metric_dimension),
        (count_minimum_bases, "dim", oracle_metric_dimension),
        (partition_dimension, "pd", oracle_partition_dimension),
    ],
    ids=["dim", "count", "pd"],
)
def test_one_unit_short_of_the_smallest_budget_raises_a_true_bound(
    solve, name, oracle
):
    instances = [overlap4(), cover6(), generate(GeneratorSpec("hypercycle", 4, 3))]
    instances += [random_connected_sperner(s, m_lo=4, m_hi=9) for s in range(6)]
    for H in instances:
        value = oracle(H)
        smallest = _smallest_budget(lambda b: solve(H, budget=b))
        if smallest == 0:
            continue  # the forced set resolves: nothing was searched
        for budget in (smallest // 2, smallest - 1):
            with pytest.raises(CapExceeded) as exc:
                solve(H, budget=budget)
            bound = int(re.search(rf"{name} >= (\d+)$", str(exc.value))[1])
            assert bound <= value
        # the last unit is charged in the search that finds the minimum
        assert bound == value


def test_default_budget_admits_inputs_the_old_caps_refused():
    # 18 vertices, 30 representatives and 4**12 bases: past the vertex,
    # representative and enumeration caps that the budget replaced
    assert partition_dimension(generate(GeneratorSpec("hypercycle", 6, 4)))[0] == 4
    H = random_gnp(0, 30)
    assert len(twin_classes(H).members) == 30
    dim, cert = metric_dimension(H)
    assert cert.valid and dim == 6
    star = generate(GeneratorSpec("hyperstar", 12, 5))
    assert count_minimum_bases(star) == 4**12


@pytest.mark.parametrize(
    "make, dim_units, count_units",
    [
        # the walks start at the diameter bound L, the least k with
        # D**k + k >= m: size 15 on K16 (D = 1), 3 on gnp22-seed0 (D = 3)
        # and 2 on C(10,3) (D = 6)
        (lambda: complete_graph(16), 695, 7023),
        (lambda: random_gnp(0, 22), 94277, 261272),
        (lambda: generate(GeneratorSpec("hypercycle", 10, 3)), 436, 2807),
        # forced sets: cover6's leaves three vertices to search, and its
        # walk starts at L - |F| = 5 - 3 = 2 (D = 1); star(5,3)'s resolves
        # by itself
        (cover6, 6, 16),
        (lambda: generate(GeneratorSpec("hyperstar", 5, 3)), 0, 0),
    ],
    ids=["K16", "gnp22-seed0", "C(10,3)", "cover6", "star(5,3)"],
)
def test_smallest_budget_is_pinned(make, dim_units, count_units):
    # the units a search charges fix where --cap and HYPERRES_CAP stop it
    # (exit 3) and the bound its message states, so they must not drift
    H = make()
    assert _smallest_budget(lambda b: metric_dimension(H, budget=b)) == dim_units
    assert _smallest_budget(lambda b: count_minimum_bases(H, budget=b)) == count_units


@pytest.mark.parametrize(
    "solve", [metric_dimension, count_minimum_bases, partition_dimension]
)
@pytest.mark.parametrize(
    "make",
    [
        lambda: generate(GeneratorSpec("hypertree", 5, 3)),
        lambda: build_hypergraph([["a"]]),
    ],
    ids=["tree(5,3)", "one-vertex"],
)
def test_negative_budget_is_rejected(solve, make):
    # dim searches nothing on either input (the tree's forced set resolves
    # it), so without the check it returned under a budget of -1 where
    # count raised CapExceeded; pd returned on the one vertex
    with pytest.raises(ValueError, match="budget must be >= 0"):
        solve(make(), budget=-1)


@pytest.mark.parametrize(
    "solve, cycle, message",
    [
        (
            partition_dimension,
            (6, 4),
            "the partition search used up its work budget of 10 units; "
            "it proved pd >= 4",
        ),
        (
            metric_dimension,
            (4, 3),
            "the resolving-set search used up its work budget of 10 units; "
            "it proved dim >= 2",
        ),
        (
            count_minimum_bases,
            (4, 3),
            "the resolving-set search used up its work budget of 10 units; "
            "it proved dim >= 2",
        ),
    ],
    ids=["pd", "dim", "count"],
)
def test_cap_exceeded_message_is_pinned(solve, cycle, message):
    # the CLI prints this line on stderr with exit 3, so its whole text,
    # not only the bound, is output
    with pytest.raises(CapExceeded) as exc:
        solve(generate(GeneratorSpec("hypercycle", *cycle)), budget=10)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "make, pd_units",
    [
        (lambda: complete_graph(8), 4208),
        (lambda: generate(GeneratorSpec("hypercycle", 10, 3)), 4440),
        (lambda: generate(GeneratorSpec("hypercycle", 6, 4)), 3294),
        (cover6, 660),
        (lambda: generate(GeneratorSpec("hyperstar", 5, 3)), 1914),
        (lambda: random_twin_free_3uniform(0, 12), 122232),
        # one vertex returns before the walk
        (lambda: build_hypergraph([["a"]]), 0),
    ],
    ids=[
        "K8", "C(10,3)", "C(6,4)", "cover6", "star(5,3)", "twin-free12-seed0",
        "one-vertex",
    ],
)
def test_smallest_pd_budget_is_pinned(make, pd_units):
    # equal units mean the partition walk places the same vertices in the
    # same order, so a change to its state keeps its nodes and its cuts
    H = make()
    assert _smallest_budget(lambda b: partition_dimension(H, budget=b)) == pd_units


# ---------------------------------------------------------------------------
# the pruned search against the unpruned reference search


def complete_graph(n):
    return build_hypergraph([[u, v] for u, v in itertools.combinations(range(n), 2)])


def _minimum_extras(H, budget):
    """Yield, as a tuple of vertex ids, every set S of representatives of
    the smallest size such that F union S resolves H, lexicographic: the
    walk ``metric_dimension`` runs, on ``H.class_rows``."""
    work = _Budget(budget, "resolving-set", "dim")
    members = H.twins.members
    for picks in _minimum_picks(list(map(len, members)), H.class_rows, work):
        yield tuple(members[j][0] for j in picks)


def _assert_matches_reference(H):
    basis = reference_metric_dimension(H)
    assert metric_dimension(H)[1].landmarks == tuple({w} for w in basis)
    assert count_minimum_bases(H) == reference_count_minimum_bases(H)
    found = _minimum_extras(H, DEFAULT_BUDGET)
    assert list(found) == reference_minimum_extras(H)


@pytest.mark.parametrize("n", range(2, 17))
def test_complete_graphs_match_reference(n):
    # from n = 3 on the diameter bound n - 1 beats the twin bound 0, and
    # the walk starts at the answer
    _assert_matches_reference(complete_graph(n))


@pytest.mark.parametrize("n", range(3, 13))
def test_random_gnp_graphs_match_reference(n):
    for seed in range(3):
        _assert_matches_reference(random_gnp(seed, n))


@pytest.mark.parametrize(
    "kind, k, n",
    [
        # the n = 3 cases keep the ids they had before n = 4, 5 joined
        pytest.param(kind, k, n, id=f"{k}-{kind}" + (f"-n{n}" if n != 3 else ""))
        for n in (3, 4, 5)
        for k in range(3, 8)
        for kind in ("hypercycle", "hyperstar", "hyperpath")
    ],
)
def test_named_families_match_reference(kind, k, n):
    _assert_matches_reference(generate(GeneratorSpec(kind, k, n)))


def test_random_instances_match_reference():
    for seed in range(50):
        _assert_matches_reference(random_connected_sperner(seed, m_lo=4, m_hi=12))


@given(
    st.lists(
        st.sets(st.integers(0, 8), min_size=1, max_size=5), min_size=1, max_size=7
    )
)
@settings(max_examples=80, deadline=None)
def test_search_matches_reference_on_small_hypergraphs(edge_list):
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    assume(H.connected)
    _assert_matches_reference(H)


# ---------------------------------------------------------------------------
# the diameter-bound start


def _diameter_bound(H):
    """The least k with D**k + k >= m, from the oracle's distances."""
    diameter = max(map(max, oracle_distances(H)))
    k = 0
    while diameter**k + k < H.m:
        k += 1
    return k


@given(small_hypergraphs)
@settings(max_examples=120, deadline=None)
def test_diameter_bound_is_a_lower_bound(H):
    assume(H.connected)
    least, dim = _diameter_bound(H), oracle_metric_dimension(H)
    assert least <= dim
    # a budget of 0 walks nothing: the search returns at its start, or
    # states a bound from its start on
    start = max(least, dim_lower_bound(H))
    try:
        assert metric_dimension(H, budget=0)[0] == start
    except CapExceeded as exc:
        assert start <= int(re.search(r"dim >= (\d+)$", str(exc))[1]) <= dim


def test_diameter_two_gnp_draws_match_reference():
    # the draws of G(n, 1/2) with D = 2 on which the diameter bound beats
    # the twin bound, 2-4 against 0
    draws = [random_gnp(seed, n) for n in range(4, 17) for seed in range(3)]
    beaten = [
        H for H in draws
        if max(map(max, oracle_distances(H))) == 2
        and _diameter_bound(H) > dim_lower_bound(H)
    ]
    assert len(beaten) == 10
    for H in beaten:
        _assert_matches_reference(H)


def test_diameter_one_with_twins_matches_reference():
    # a and b are twins, and every pair shares an edge: L = 3 beats the
    # twin bound 1, so the walk starts at size 3 - |F| = 2
    H = build_hypergraph([["a", "b", "c"], ["a", "b", "d"], ["c", "d"]])
    assert (_diameter_bound(H), dim_lower_bound(H)) == (3, 1)
    _assert_matches_reference(H)
    assert metric_dimension(H)[0] == 3 and count_minimum_bases(H) == 4


@pytest.mark.parametrize(
    "make, bound",
    [(lambda: complete_graph(16), 15), (lambda: random_gnp(0, 40), 6)],
    ids=["K16", "gnp40-seed0"],
)
def test_diameter_bound_is_proved_before_any_unit(make, bound):
    with pytest.raises(CapExceeded, match=rf"dim >= {bound}$"):
        metric_dimension(make(), budget=0)


def test_complete_graph_at_the_default_cap_is_fast():
    # 24 representatives: the unpruned search tests 2^24 candidates here
    H = complete_graph(24)
    assert metric_dimension(H)[0] == 23
    assert count_minimum_bases(H) == 24


def test_hypercycle_with_200_edges_is_fast():
    # 400 representatives and 79,800 open pairs: the masks are built from
    # one bucket per distance, not from a test per (pair, representative)
    H = generate(GeneratorSpec("hypercycle", 200, 3))
    began = time.perf_counter()
    dim, cert = metric_dimension(H)
    assert time.perf_counter() - began < 10
    assert dim == 2 and cert.landmarks == ({1}, {199})
    assert [H.labels[v] for (v,) in cert.landmarks] == ["v2", "v200"]


def test_two_big_edges_are_fast():
    # 798 vertices in three twin classes: the matrix takes three searches
    # over the classes, not 798 over a middle graph with 319k adjacencies
    H = build_hypergraph([range(400), range(398, 798)])
    began = time.perf_counter()
    dim, cert = metric_dimension(H)
    assert time.perf_counter() - began < 2
    assert dim == 795 and cert.valid
    D = distance_matrix(H)
    assert D[0][1] == D[0][399] == D[398][797] == D[399][400] == 1
    assert D[0][400] == D[0][797] == D[397][400] == 2
    assert D[5][5] == 0


def test_hyperstar_with_big_edges_meets_its_closed_form():
    spec = GeneratorSpec("hyperstar", 50, 20)
    dim, cert = metric_dimension(generate(spec))
    assert dim == predicted_dim(spec) == 900 and cert.valid


# ---------------------------------------------------------------------------
# edge cases of the mask build


def _open_group_sizes(H):
    """Sizes of the groups of two or more vertices with equal distances to
    the forced set: the pairs inside them are the open pairs."""
    forced = sorted(v for vs in twin_classes(H).members for v in vs[1:])
    groups = Counter(tuple(row[f] for f in forced) for row in distance_matrix(H))
    return sorted(n for n in groups.values() if n > 1)


# stars, paths and cycles with edges of 4-5 vertices: each edge holds a
# class of 2-4 twins
twin_heavy = st.builds(
    lambda kind, k, n: generate(GeneratorSpec(kind, k, n)),
    st.sampled_from(["hyperstar", "hyperpath", "hypercycle"]),
    st.integers(3, 8),
    st.integers(4, 5),
)


@given(st.one_of(small_hypergraphs, twin_heavy))
@settings(max_examples=200, deadline=None)
def test_masks_from_class_rows_are_the_vertex_level_masks(H):
    # nested and repeated edges occur in small_hypergraphs; the reference
    # groups all m vertices by their distance tuples to F
    assume(H.connected)
    members = H.twins.members
    sizes = list(map(len, members))
    reps = [vs[0] for vs in members]
    rows = distance_matrix(H)
    span = max(map(max, rows)) + 1
    expected = reference_unresolved_masks(
        rows, sorted(v for vs in members for v in vs[1:]), reps, span)
    assert _unresolved_masks(H.class_rows, sizes, span) == expected


@pytest.mark.parametrize("kind", ["hypertree", "hyperstar"])
def test_no_open_pairs_charges_nothing(kind):
    # the forced set resolves by itself; the reference count would list
    # every basis, so only the candidates and the landmarks are compared
    H = generate(GeneratorSpec(kind, 200, 3))
    assert _open_group_sizes(H) == []
    found = _minimum_extras(H, 0)
    assert list(found) == reference_minimum_extras(H) == [()]
    basis = reference_metric_dimension(H)
    assert metric_dimension(H, budget=0)[1].landmarks == tuple({w} for w in basis)


def test_single_vertex():
    H = build_hypergraph([["a"]])
    _assert_matches_reference(H)
    assert metric_dimension(H, budget=0)[0] == 0
    assert count_minimum_bases(H, budget=0) == 1


@pytest.mark.parametrize(
    "edges, sizes",
    [
        ([[2, 4], [2, 3, 5], [0, 2], [0, 1, 4]], [2, 2]),
        ([[0, 7], [6, 7, 8], [1, 2, 3, 4, 5, 8], [7, 9]], [2, 2, 2]),
    ],
)
def test_groups_of_two(edges, sizes):
    H = build_hypergraph(edges)
    assert _open_group_sizes(H) == sizes
    assert _smallest_budget(lambda b: metric_dimension(H, budget=b)) > 0
    _assert_matches_reference(H)


def test_non_sperner_input():
    # {b, c} lies inside {a, b, c, d}
    H = build_hypergraph(
        [["a", "b", "c", "d"], ["b", "c"], ["d", "e"], ["e", "f"]],
        allow_non_sperner=True,
    )
    assert _open_group_sizes(H) == [3]
    assert _smallest_budget(lambda b: metric_dimension(H, budget=b)) > 0
    _assert_matches_reference(H)
