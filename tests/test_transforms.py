import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hyperres import (
    GeneratorSpec,
    build_hypergraph,
    distance_matrix,
    dual,
    generate,
    is_connected,
    metric_dimension,
    middle_graph,
    partition_dimension,
    primal_graph,
    vertex_adjacency,
)
from instances import overlap4, random_connected_sperner
from oracles import reference_primal_pairs


# ---------------------------------------------------------------------------
# primal_graph


def test_primal_single_edge_is_triangle():
    g = primal_graph(build_hypergraph([["a", "b", "c"]]))
    assert sorted(g.pairs) == [(0, 1), (0, 2), (1, 2)]


def test_primal_overlap4():
    g = primal_graph(overlap4())
    assert sorted(g.pairs) == [(0, 1), (0, 2), (1, 2), (2, 3)]


def test_primal_size_one_edge_gives_loop():
    g = primal_graph(build_hypergraph([["a"]]))
    assert g.pairs == ((0, 0),)


def test_primal_keeps_parallel_pairs():
    H = build_hypergraph([["a", "b", "c"], ["a", "b", "d"]])
    g = primal_graph(H)
    assert g.pairs.count((0, 1)) == 2


# ---------------------------------------------------------------------------
# middle_graph


def test_middle_of_dual_hyperpath_is_single_edge():
    M = middle_graph(dual(generate(GeneratorSpec("hyperpath", 2, 3))))
    assert M.labels == ("e1", "e2")
    assert M.edges == (frozenset({0, 1}),)


def test_middle_single_edge_is_triangle():
    M = middle_graph(build_hypergraph([["a", "b", "c"]]))
    assert len(M.edges) == 3 and all(len(e) == 2 for e in M.edges)


def test_middle_of_dual_hypercycle_is_simple_cycle():
    M = middle_graph(dual(generate(GeneratorSpec("hypercycle", 3, 3))))
    assert M.m == 3 and M.k == 3
    degrees = [sum(1 for e in M.edges if v in e) for v in range(M.m)]
    assert degrees == [2, 2, 2]


def test_middle_keeps_isolated_vertices():
    M = middle_graph(dual(build_hypergraph([["a", "b", "c"]])))
    assert M.m == 1 and M.k == 0
    assert is_connected(M)


# labels from a small alphabet, so edges overlap, repeat pairs and nest;
# edges of size one come up too
_EDGE_LISTS = st.lists(
    st.lists(st.sampled_from("abcdefghijk"), min_size=1, max_size=4, unique=True),
    min_size=1, max_size=6,
)


@given(_EDGE_LISTS)
@example([["a"], ["a", "b"]])
@example([["a", "b", "c"], ["a", "b", "d"]])
@example([["c", "a"], ["b"], ["a", "c", "b"]])
# the frozenset {8, 0} iterates as 8, 0: pairs come from sorted members
@example([list("abcdefghi"), ["i", "a"]])
def test_middle_edges_are_the_adjacency_pairs_in_order(edge_list):
    # built without the Sperner gate, as --allow-non-sperner does
    H = build_hypergraph(edge_list, allow_non_sperner=True)
    M = middle_graph(H)
    assert M.labels == H.labels
    assert M.edges == tuple(
        frozenset((a, b)) for a, row in enumerate(vertex_adjacency(H))
        for b in sorted(row) if a < b)


@given(_EDGE_LISTS)
@example([["a"], ["a", "b"], ["a"]])
@example([list("abcdefghi"), ["i", "a"]])
def test_primal_pairs_are_the_reference_pairs(edge_list):
    H = build_hypergraph(edge_list, allow_non_sperner=True)
    assert primal_graph(H).pairs == reference_primal_pairs(H)


# ---------------------------------------------------------------------------
# dual


def test_dual_single_edge():
    Hd = dual(build_hypergraph([["a", "b", "c"]]))
    assert Hd.labels == ("e1",)
    assert Hd.edges == (frozenset({0}),) * 3


def test_dual_hyperpath_2_3():
    Hd = dual(generate(GeneratorSpec("hyperpath", 2, 3)))
    assert Hd.labels == ("e1", "e2")
    assert Hd.edges == (
        frozenset({0}),
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({1}),
        frozenset({1}),
    )


def test_double_dual_builds_mechanically():
    Hdd = dual(dual(generate(GeneratorSpec("hyperpath", 2, 3))))
    assert Hdd.m == 5 and Hdd.k == 2


# ---------------------------------------------------------------------------
# dimension preservation


def test_dim_preserved_by_middle_graph():
    corpus = [
        overlap4(),
        generate(GeneratorSpec("hypercycle", 4, 3)),
        generate(GeneratorSpec("hyperstar", 3, 3)),
    ]
    corpus += [random_connected_sperner(s, m_lo=4, m_hi=9) for s in range(5)]
    for H in corpus:
        assert metric_dimension(H)[0] == metric_dimension(middle_graph(H))[0]
        assert (
            partition_dimension(H)[0]
            == partition_dimension(middle_graph(H))[0]
        )


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dual_hyperpath_dimensions(k):
    Hd = dual(generate(GeneratorSpec("hyperpath", k, 3)))
    assert metric_dimension(Hd)[0] == 1
    assert partition_dimension(Hd)[0] == 2


@pytest.mark.parametrize("k", [3, 4])
def test_dual_hypercycle_dimensions(k):
    Hd = dual(generate(GeneratorSpec("hypercycle", k, 3)))
    assert metric_dimension(Hd)[0] == 2
    assert partition_dimension(Hd)[0] == 3


def test_dual_distances_equal_middle_graph_distances():
    for k in (2, 3, 4):
        Hd = dual(generate(GeneratorSpec("hyperpath", k, 3)))
        assert (
            distance_matrix(Hd)
            == distance_matrix(middle_graph(Hd))
        )
