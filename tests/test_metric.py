import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperres import (
    Certificate,
    Disconnected,
    GeneratorSpec,
    Hypergraph,
    build_hypergraph,
    count_minimum_bases,
    dim_lower_bound,
    distance_matrix,
    eccentricity_and_diameter,
    generate,
    is_resolving_partition,
    is_resolving_set,
    metric_dimension,
    middle_graph,
    partition_dimension,
    pd_lower_bound,
)
from hyperres.metric import _search
from instances import overlap4, random_connected_sperner, small_hypergraphs
from oracles import oracle_certificate, oracle_distances, reference_certificate


def test_distances_two_edge_example():
    H = overlap4()
    D = distance_matrix(H)
    assert D[0][3] == 2  # v1 to v4 crosses both edges
    assert D[0][1] == 1
    assert H.connected


def test_common_edge_distance_is_one():
    H = generate(GeneratorSpec("hyperstar", 3, 4))
    D = distance_matrix(H)
    for edge in H.edges:
        vs = sorted(edge)
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                assert D[u][v] == 1


def test_distance_interior_vertices_hypercycle():
    # degree-one vertices of edges 1 and 3 in C_{4,3}; frozen from the
    # alternating-path oracle
    H = generate(GeneratorSpec("hypercycle", 4, 3))
    D = distance_matrix(H)
    assert D[H.labels.index("v2")][H.labels.index("v6")] == 3


def test_matrix_agrees_with_alternating_path_oracle():
    for seed in range(8):
        H = random_connected_sperner(seed, m_lo=3, m_hi=8)
        D = distance_matrix(H)
        oracle = oracle_distances(H)
        assert [list(row) for row in D] == oracle


def test_unreachable_pairs_get_sentinel():
    H = build_hypergraph([["a", "b"], ["c", "d"]])
    D = distance_matrix(H)
    assert D[0][2] is None
    assert not H.connected


# ---------------------------------------------------------------------------
# distances to sets and representations, read off the certificates


def test_distance_to_set_member_is_zero():
    cert = is_resolving_partition(overlap4(), [{2, 3}, {0, 1}])
    assert cert.representations[2][0] == 0


def test_distance_to_set_two_edge_example():
    H = overlap4()
    cert = is_resolving_partition(H, [{0, 1}, {2, 3}])
    assert cert.representations[H.labels.index("v1")][1] == 1
    assert cert.representations[H.labels.index("v4")][0] == 2


def test_representation_two_edge_example():
    H = overlap4()
    assert is_resolving_set(H, [1, 3]).representations[H.labels.index("v3")] == (1, 1)


def test_representation_zero_at_own_landmark():
    H = generate(GeneratorSpec("hyperpath", 3, 3))
    W = [0, 3, 5]
    reps = is_resolving_set(H, W).representations
    for i, w in enumerate(W):
        assert reps[w][i] == 0


def test_representation_hypercycle_proof_coordinates():
    # interior vertex of the last edge of C_{6,3} against the interior
    # vertices of edges 1 and k/2
    H = generate(GeneratorSpec("hypercycle", 6, 3))
    cert = is_resolving_set(H, [H.labels.index("v2"), H.labels.index("v6")])
    assert cert.representations[H.labels.index("v12")] == (2, 4)


# ---------------------------------------------------------------------------
# eccentricity / diameter


def test_single_edge_diameter_one():
    H = build_hypergraph([["a", "b", "c"]])
    ecc, diameter, pair = eccentricity_and_diameter(H)
    assert diameter == 1 and ecc == (1, 1, 1)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (4, 4), (5, 3)])
def test_hyperpath_diameter_equals_edge_count(k, n):
    H = generate(GeneratorSpec("hyperpath", k, n))
    assert eccentricity_and_diameter(H)[1] == k


def test_hypercycle_4_3_diameter():
    H = generate(GeneratorSpec("hypercycle", 4, 3))
    ecc, diameter, pair = eccentricity_and_diameter(H)
    assert diameter == 3
    assert distance_matrix(H)[pair[0]][pair[1]] == 3


def test_diameter_rejects_disconnected():
    H = build_hypergraph([["a", "b"], ["c", "d"]])
    with pytest.raises(Disconnected) as exc:
        eccentricity_and_diameter(H)
    assert str(exc.value) == "eccentricity is undefined on disconnected hypergraphs"
    assert not {"twins", "class_rows"} & H.__dict__.keys()


def test_one_vertex_diametral_pair():
    H = build_hypergraph([["a"]])
    assert eccentricity_and_diameter(H) == ((0,), 0, (0, 0))
    # one vertex in no edge is connected too, its class row a lone 0
    assert eccentricity_and_diameter(Hypergraph(("a",), ())) == ((0,), 0, (0, 0))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_diametral_pair_is_the_first_in_lexicographic_order(seed):
    H = random_connected_sperner(seed, m_lo=2, m_hi=10)
    d = oracle_distances(H)
    diameter = max(map(max, d))
    first = min((u, v) for u in range(H.m) for v in range(u, H.m)
                if d[u][v] == diameter)
    assert eccentricity_and_diameter(H)[1:] == (diameter, first)


def test_eccentricities_hold_one_class_row_at_a_time():
    # the 1201 vertices of this path are nearly all twin-free, so a
    # distance matrix would take over 11 MB; the class searches take
    # one list per class at a time
    H = generate(GeneratorSpec("hyperpath", 600, 3))
    tracemalloc.start()
    try:
        assert eccentricity_and_diameter(H)[1] == 600
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert "class_rows" not in H.__dict__


# ---------------------------------------------------------------------------
# the connectivity gate


@pytest.mark.parametrize("solve,message", [
    (lambda H: is_resolving_set(H, [0]),
     "resolving sets are defined on connected hypergraphs"),
    (metric_dimension, "metric dimension is defined on connected hypergraphs"),
    (count_minimum_bases, "metric dimension is defined on connected hypergraphs"),
    (lambda H: is_resolving_partition(H, [{0, 1}, {2, 3}]),
     "resolving partitions are defined on connected hypergraphs"),
    (partition_dimension, "partition dimension is defined on connected hypergraphs"),
    (dim_lower_bound, "metric dimension is defined on connected hypergraphs"),
    (pd_lower_bound, "partition dimension is defined on connected hypergraphs"),
], ids=["is_resolving_set", "metric_dimension", "count_minimum_bases",
        "is_resolving_partition", "partition_dimension", "dim_lower_bound",
        "pd_lower_bound"])
def test_solvers_refuse_disconnected_before_building_the_matrix(solve, message):
    H = build_hypergraph([["a", "b"], ["c", "d"]])
    with pytest.raises(Disconnected) as exc:
        solve(H)
    assert str(exc.value) == message
    assert not {"twins", "class_rows"} & H.__dict__.keys()


# ---------------------------------------------------------------------------
# invariants

edge_strategy = st.lists(
    st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
    min_size=1,
    max_size=5,
)


@given(edge_strategy)
@settings(max_examples=60)
def test_matrix_axioms(edge_list):
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    E = distance_matrix(H)
    for u in range(H.m):
        assert E[u][u] == 0
        for v in range(H.m):
            assert E[u][v] == E[v][u]
            if u != v:
                assert E[u][v] != 0
            for w in range(H.m):
                duv, duw, dwv = E[u][v], E[u][w], E[w][v]
                if duw is not None and dwv is not None:
                    assert duv is not None and duv <= duw + dwv


@given(edge_strategy)
@settings(max_examples=60)
def test_connected_agrees_with_the_matrix(edge_list):
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    unreachable = any(None in row for row in distance_matrix(H))
    assert H.connected == (not unreachable)


@given(edge_strategy)
@settings(max_examples=60)
def test_matrix_equals_middle_graph_matrix(edge_list):
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    assert distance_matrix(H) == distance_matrix(middle_graph(H))


@given(st.integers(1, 9).flatmap(lambda m: st.builds(
    Hypergraph,
    st.just(tuple(range(m))),
    st.lists(st.frozensets(st.integers(0, m - 1), min_size=1, max_size=4),
             max_size=8).map(tuple),
)))
@example(Hypergraph(("a", "b"), ()))
@example(Hypergraph(("a", "b", "c"), (frozenset({0, 1}),)))
@example(Hypergraph(tuple(range(4)), (frozenset({0}), frozenset({1}))))
@example(Hypergraph(tuple(range(5)), (frozenset({0, 1, 2}),)))
@settings(max_examples=300, deadline=None)
def test_matrix_equals_the_oracle(H):
    # twins, duplicated and nested edges, one-vertex edges, disconnected
    # inputs and vertices in no edge all occur; vertices in no edge share
    # the empty signature but are not twins, so two of them are at None
    assert distance_matrix(H) == tuple(map(tuple, oracle_distances(H)))


@given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=4),
                min_size=1, max_size=8))
@example([{0}])
@example([{0, 1, 2}, {0, 1, 2}, {2, 3}, {3, 4, 5}])
@example([{0, 1, 2}, {0, 1, 3}, {2, 3}])  # diameter 1, reached by twins (0, 1)
@example([{0, 1, 2}])  # one class, all twins
@settings(max_examples=200, deadline=None)
def test_eccentricities_match_the_oracle(edge_list):
    # twins, duplicated and nested edges, one vertex and disconnected
    # inputs all occur; no input gets its class rows built, and a
    # disconnected one not even its twin classes
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    d = oracle_distances(H)
    if any(None in row for row in d):
        with pytest.raises(Disconnected):
            eccentricity_and_diameter(H)
        assert "twins" not in H.__dict__
    else:
        ecc = tuple(map(max, d))
        diameter = max(ecc)
        first = min((u, v) for u in range(H.m) for v in range(u, H.m)
                    if d[u][v] == diameter)
        assert eccentricity_and_diameter(H) == (ecc, diameter, first)
    assert "class_rows" not in H.__dict__


def _delete_vertex(H: Hypergraph, victim: int) -> tuple[Hypergraph, list[int]]:
    keep = [v for v in range(H.m) if v != victim]
    relabel = {v: i for i, v in enumerate(keep)}
    edges = []
    for edge in H.edges:
        shrunk = frozenset(relabel[v] for v in edge if v != victim)
        if shrunk:
            edges.append(shrunk)
    return Hypergraph(tuple(H.labels[v] for v in keep), tuple(edges)), keep


def test_vertex_deletion_never_shortens_distances():
    rng = random.Random(2024)
    for seed in range(12):
        H = random_connected_sperner(seed, m_lo=4, m_hi=8)
        victim = rng.randrange(H.m)
        before = distance_matrix(H)
        after, keep = _delete_vertex(H, victim)
        Da = distance_matrix(after)
        for i, u in enumerate(keep):
            for j, v in enumerate(keep):
                old = before[u][v]
                new = Da[i][j]
                if new is not None:
                    assert new >= old


def test_representation_coordinates_bounded_by_eccentricity():
    for seed in range(6):
        H = random_connected_sperner(seed, m_lo=4, m_hi=8)
        ecc, _, _ = eccentricity_and_diameter(H)
        half = set(range(H.m // 2 + 1))
        landmarks = [{0}, half, {H.m - 1}]
        reps = Certificate.of(H, landmarks).representations
        for v in range(H.m):
            for coord in reps[v]:
                assert coord <= ecc[v]


@given(st.integers(0, 10**6), st.data())
@settings(max_examples=80, deadline=None)
def test_certificates_match_all_pairs_oracle(seed, data):
    H = random_connected_sperner(seed, m_lo=2, m_hi=9)
    vertex = st.integers(0, H.m - 1)
    W = data.draw(st.lists(vertex, unique=True, max_size=H.m), label="W")
    labels = data.draw(st.lists(vertex, min_size=H.m, max_size=H.m),
                       label="class labels")
    classes: dict[int, list[int]] = {}
    for v, label in enumerate(labels):
        classes.setdefault(label, []).append(v)
    for cert, landmarks in (
        (is_resolving_set(H, W), [[w] for w in W]),
        (is_resolving_partition(H, list(classes.values())),
         list(classes.values())),
    ):
        reps, conflict = oracle_certificate(H, landmarks)
        assert cert.representations == reps
        assert cert.conflict == conflict
        assert cert.valid == (conflict is None)


def test_all_singletons_certify_alike_as_set_and_partition():
    # a resolving set is the partition-style certificate of its singletons
    for seed in range(20):
        H = random_connected_sperner(seed, m_lo=2, m_hi=9)
        everything = is_resolving_set(H, range(H.m))
        assert everything == is_resolving_partition(H, [[v] for v in range(H.m)])
        assert everything.valid


# small_hypergraphs, some with vertices in no edge, which only direct
# construction makes
with_isolated = st.builds(
    lambda H, extra: Hypergraph(H.labels + tuple(range(-extra, 0)), H.edges),
    small_hypergraphs,
    st.integers(1, 3),
)


@given(st.one_of(small_hypergraphs, with_isolated), st.data())
@settings(max_examples=200, deadline=None)
def test_search_is_the_minimum_of_its_sources_rows(H, data):
    # small_hypergraphs draws disconnected and nested (allow_non_sperner)
    # inputs; None, unreachable, is larger than every distance
    sources = data.draw(st.sets(st.integers(0, H.m - 1), min_size=1), label="sources")
    rows = distance_matrix(H)
    expected = [
        min((rows[s][v] for s in sources if rows[s][v] is not None), default=None)
        for v in range(H.m)
    ]
    assert _search(H, sources) == expected


# ---------------------------------------------------------------------------
# Certificate.of against the per-vertex reference


def _assert_matches_reference_certificate(H, landmarks):
    cert = Certificate.of(H, landmarks)
    got = (cert.landmarks, cert.representations, cert.conflict)
    assert got == reference_certificate(distance_matrix(H), landmarks)
    assert list(cert.representations) == list(range(H.m))


@given(small_hypergraphs, st.data())
@settings(max_examples=200, deadline=None)
def test_certificate_matches_reference_on_random_hypergraphs(H, data):
    # up to 8 vertices with twins and nested edges make equal
    # representations, and so conflicts, common; the landmark list may be
    # empty, all singletons (the rows path) or hold larger sets (searches)
    assume(H.connected)
    landmark = st.sets(st.integers(0, H.m - 1), min_size=1, max_size=H.m)
    landmarks = data.draw(st.lists(landmark, max_size=4), label="landmarks")
    _assert_matches_reference_certificate(H, landmarks)


@pytest.mark.parametrize(
    "landmarks, conflict",
    [([], (0, 1)), ([{1}], (0, 2)), ([{0}], None), ([{0, 2}], (0, 2))],
    ids=["empty", "center", "end", "set"],
)
def test_certificate_matches_reference_on_a_path(landmarks, conflict):
    H = build_hypergraph([[0, 1], [1, 2]])
    _assert_matches_reference_certificate(H, landmarks)
    assert Certificate.of(H, landmarks).conflict == conflict
