import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperres import (
    Disconnected,
    EmptySet,
    GeneratorSpec,
    Hypergraph,
    build_hypergraph,
    distance_matrix,
    distance_to_set,
    eccentricity_and_diameter,
    generate,
    is_resolving_partition,
    is_resolving_set,
    middle_graph,
    representation,
)
from instances import overlap4, random_connected_sperner
from oracles import oracle_certificate, oracle_distances


def test_distances_two_edge_example():
    H = overlap4()
    D = distance_matrix(H)
    assert D.get(0, 3) == 2  # v1 to v4 crosses both edges
    assert D.get(0, 1) == 1
    assert D.connected


def test_common_edge_distance_is_one():
    H = generate(GeneratorSpec("hyperstar", 3, 4))
    D = distance_matrix(H)
    for edge in H.edges:
        vs = sorted(edge)
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                assert D.get(u, v) == 1


def test_distance_interior_vertices_hypercycle():
    # degree-one vertices of edges 1 and 3 in C_{4,3}; frozen from the
    # alternating-path oracle
    H = generate(GeneratorSpec("hypercycle", 4, 3))
    D = distance_matrix(H)
    assert D.get(H.id_of["v2"], H.id_of["v6"]) == 3


def test_matrix_agrees_with_alternating_path_oracle():
    for seed in range(8):
        H = random_connected_sperner(seed, m_lo=3, m_hi=8)
        D = distance_matrix(H)
        oracle = oracle_distances(H)
        assert [list(row) for row in D.entries] == oracle


def test_unreachable_pairs_get_sentinel():
    H = build_hypergraph([["a", "b"], ["c", "d"]])
    D = distance_matrix(H)
    assert D.get(0, 2) is None
    assert not D.connected


# ---------------------------------------------------------------------------
# distance_to_set / representation


def test_distance_to_set_member_is_zero():
    D = distance_matrix(overlap4())
    assert distance_to_set(D, 2, {2, 3}) == 0


def test_distance_to_set_two_edge_example():
    H = overlap4()
    D = distance_matrix(H)
    assert distance_to_set(D, H.id_of["v1"], {2, 3}) == 1
    assert distance_to_set(D, H.id_of["v4"], {0, 1}) == 2


def test_distance_to_set_rejects_empty():
    D = distance_matrix(overlap4())
    with pytest.raises(EmptySet):
        distance_to_set(D, 0, set())


def test_representation_two_edge_example():
    H = overlap4()
    D = distance_matrix(H)
    assert representation(D, H.id_of["v3"], [{1}, {3}]) == (1, 1)


def test_representation_zero_at_own_landmark():
    H = generate(GeneratorSpec("hyperpath", 3, 3))
    D = distance_matrix(H)
    W = [0, 3, 5]
    for i, w in enumerate(W):
        rep = representation(D, w, [{x} for x in W])
        assert rep[i] == 0


def test_representation_hypercycle_proof_coordinates():
    # interior vertex of the last edge of C_{6,3} against the interior
    # vertices of edges 1 and k/2
    H = generate(GeneratorSpec("hypercycle", 6, 3))
    D = distance_matrix(H)
    rep = representation(D, H.id_of["v12"], [{H.id_of["v2"]}, {H.id_of["v6"]}])
    assert rep == (2, 4)


# ---------------------------------------------------------------------------
# eccentricity / diameter


def test_single_edge_diameter_one():
    D = distance_matrix(build_hypergraph([["a", "b", "c"]]))
    ecc, diameter, pair = eccentricity_and_diameter(D)
    assert diameter == 1 and ecc == (1, 1, 1)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (4, 4), (5, 3)])
def test_hyperpath_diameter_equals_edge_count(k, n):
    D = distance_matrix(generate(GeneratorSpec("hyperpath", k, n)))
    assert eccentricity_and_diameter(D)[1] == k


def test_hypercycle_4_3_diameter():
    D = distance_matrix(generate(GeneratorSpec("hypercycle", 4, 3)))
    ecc, diameter, pair = eccentricity_and_diameter(D)
    assert diameter == 3
    assert D.get(*pair) == 3


def test_diameter_rejects_disconnected():
    D = distance_matrix(build_hypergraph([["a", "b"], ["c", "d"]]))
    with pytest.raises(Disconnected):
        eccentricity_and_diameter(D)


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
    D = distance_matrix(H)
    for u in range(H.m):
        assert D.get(u, u) == 0
        for v in range(H.m):
            assert D.get(u, v) == D.get(v, u)
            if u != v:
                assert D.get(u, v) != 0
            for w in range(H.m):
                duv, duw, dwv = D.get(u, v), D.get(u, w), D.get(w, v)
                if duw is not None and dwv is not None:
                    assert duv is not None and duv <= duw + dwv


@given(edge_strategy)
@settings(max_examples=60)
def test_matrix_equals_middle_graph_matrix(edge_list):
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    assert distance_matrix(H).entries == distance_matrix(middle_graph(H)).entries


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
                old = before.get(u, v)
                new = Da.get(i, j)
                if new is not None:
                    assert new >= old


def test_representation_coordinates_bounded_by_eccentricity():
    for seed in range(6):
        H = random_connected_sperner(seed, m_lo=4, m_hi=8)
        D = distance_matrix(H)
        ecc, _, _ = eccentricity_and_diameter(D)
        landmarks = [{0}, set(range(H.m // 2 + 1)), {H.m - 1}]
        for v in range(H.m):
            for coord in representation(D, v, landmarks):
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
