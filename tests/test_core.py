import random
import re
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperres
from hyperres import (
    Disconnected,
    EmptyEdge,
    EmptyFamily,
    GeneratorSpec,
    Hypergraph,
    SpernerViolation,
    VertexOutOfRange,
    analyze_structure,
    build_hypergraph,
    classify_family,
    count_minimum_bases,
    distance_matrix,
    format_hypergraph,
    generate,
    is_connected,
    is_linear,
    is_resolving_set,
    is_sperner,
    metric_dimension,
    partition_dimension,
    twin_classes,
)
from hyperres import core
from hyperres.cli import main
from instances import cover6, overlap4
from oracles import (
    oracle_twin_class_ids,
    reference_branches,
    reference_classify_family,
    reference_containment,
    reference_is_linear,
    reference_pendant_edges,
    reference_star_center,
    reference_twin_classes,
)


def ids(H, *labels):
    return list(map(H.labels.index, labels))


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
    with pytest.raises(EmptyEdge, match="^edge 2 is empty$"):
        build_hypergraph([["a"], []])


def test_build_checks_edges_in_order():
    # an unhashable label fails where the label-by-label reading fails:
    # before a later empty edge, after an earlier one
    with pytest.raises(TypeError):
        build_hypergraph([["a", ["x"]], []])
    with pytest.raises(EmptyEdge, match="^edge 1 is empty$"):
        build_hypergraph([[], ["a", ["x"]]])


def test_build_accepts_generator_and_set_rows():
    H = build_hypergraph([(x for x in "ab"), iter(["b", "c"])])
    assert H.labels == ("a", "b", "c")
    assert H.edges == (frozenset({0, 1}), frozenset({1, 2}))
    rows = [{"a", "b"}, {"b", "c"}]
    H = build_hypergraph(rows)
    assert H.labels == tuple(dict.fromkeys([*rows[0], *rows[1]]))
    assert [set(H.edge_labels(i)) for i in range(H.k)] == rows


def test_direct_construction_names_the_first_bad_edge():
    labels = ("a", "b")
    with pytest.raises(EmptyEdge, match="^edge 2 is empty$"):
        Hypergraph(labels, (frozenset({0}), frozenset()))
    # a float, a string or None is no id either, nor is 1.0, which lies in
    # range(m) but indexes no list: the loop that names the edge tests the
    # type and membership in range(m), as the fast test does
    for v in (2, -1, 1.5, 1.0, "x", None):
        with pytest.raises(VertexOutOfRange,
                           match=f"^edge 2 mentions vertex id {re.escape(str(v))}$"):
            Hypergraph(labels, (frozenset({0, 1}), frozenset({0, v})))
    with pytest.raises(VertexOutOfRange, match="^edge 1 mentions vertex id 2$"):
        Hypergraph(labels, (frozenset({2}), frozenset()))
    with pytest.raises(EmptyEdge, match="^edge 2 is empty$"):
        Hypergraph(labels, (frozenset({0}), frozenset(), frozenset({5})))
    with pytest.raises(VertexOutOfRange, match="^edge 2 mentions vertex id 5$"):
        Hypergraph(labels, (frozenset({0}), frozenset({5}), frozenset()))


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
    assert tw == ((0, 0, 1, 2), ((0, 1), (2,), (3,)), ((0,), (0, 1), (1,)))
    assert dict(zip(tw.signatures, map(frozenset, tw.members))) == {
        (0,): frozenset(ids(H, "v1", "v2")),
        (0, 1): frozenset(ids(H, "v3")),
        (1,): frozenset(ids(H, "v4")),
    }
    assert {sig: vs[0] for sig, vs in zip(tw.signatures, tw.members)} == {
        (0,): 0, (0, 1): 2, (1,): 3}
    assert [v for vs in tw.members for v in vs[1:]] == ids(H, "v2")


def test_twins_three_edge_example():
    tw = twin_classes(cover6())
    excess = {sig: len(vs) - 1 for sig, vs in zip(tw.signatures, tw.members)}
    assert excess == {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    assert sum(len(vs) - 1 for vs in tw.members) == 3


def test_twins_single_edge():
    tw = twin_classes(build_hypergraph([[f"v{i}" for i in range(5)]]))
    assert tw.signatures == ((0,),) and tw.members == (tuple(range(5)),)
    assert len(tw.members[0]) - 1 == 4


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
    assert desc.center == frozenset({H.labels.index("v1")})
    # three edges through one shared vertex admit no closed walk with
    # distinct connectors, so the cycle flag must stay off
    assert "hypercycle" not in desc.flags
    assert "hypertree" in desc.flags


def test_classify_single_edge():
    desc = classify_family(build_hypergraph([["a", "b"]]))
    assert desc.kind == "single-edge"
    assert {"hyperpath", "hypertree"} <= desc.flags


def test_classify_cap():
    # recognition tests the edge-intersection graph in polynomial time, so
    # twelve edges, past the old exhaustive search's cap of ten, need none
    desc = classify_family(generate(GeneratorSpec("hyperstar", 12, 3)))
    assert desc.kind == "hyperstar"


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
# recognition and branches against the exhaustive reference


def assert_matches_reference(H):
    expected = reference_classify_family(H)
    if expected is None:
        with pytest.raises(Disconnected):
            classify_family(H)
    else:
        desc = classify_family(H)
        got = (desc.kind, desc.k, desc.n, desc.center, desc.edge_order, desc.flags)
        assert got == expected
    report = analyze_structure(H)
    assert report.branches == reference_branches(H)
    pendant = (report.pendant_edges, report.vacuous_pendant_edges)
    assert pendant == reference_pendant_edges(H)


@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=8), min_size=1, max_size=4),
        min_size=1,
        max_size=9,
    )
)
@settings(max_examples=150, deadline=None)
def test_recognition_matches_reference(edge_list):
    # duplicates, contained edges and disconnected inputs all occur
    assert_matches_reference(
        build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    )


def seeded_edge_lists(seed):
    """A random edge list with a duplicated edge, and a tree whose added
    edges mostly attach to its first edge, sometimes with one more vertex
    that closes a cycle; both with at most nine edges."""
    rng = random.Random(seed)
    k = rng.randint(2, 9)
    edges = [rng.sample(range(10), rng.randint(1, 4)) for _ in range(k - 1)]
    yield edges + [edges[0]]
    n = rng.randint(2, 4)
    tree = [list(range(n))]
    for _ in range(rng.randint(0, 8)):
        top = max(map(max, tree)) + 1
        anchor = rng.randrange(n if rng.random() < 0.7 else top)
        edge = [anchor, *range(top, top + n - 1)]
        if rng.random() < 0.2:
            edge.append(rng.randrange(top))
        tree.append(edge)
    yield tree


@pytest.mark.parametrize("seed", range(40))
def test_recognition_matches_reference_seeded(seed):
    for edges in seeded_edge_lists(seed):
        assert_matches_reference(build_hypergraph(edges, allow_non_sperner=True))


@pytest.mark.parametrize("kind", ["hyperpath", "hypercycle", "hyperstar", "hypertree"])
def test_recognition_matches_reference_on_families(kind):
    for k in range(3, 10):
        for n in (2, 3):
            assert_matches_reference(generate(GeneratorSpec(kind, k, n, seed=k)))


@pytest.mark.parametrize("center", [1, 2, 3, 4])
def test_recognition_matches_reference_on_hyperstars(center):
    # petals of one and two vertices; a center of three or more vertices
    # gives every three edges a cycle pattern
    for k in range(2, 10):
        edges = [[*range(center), *range(center + 2 * i, center + 2 * i + 1 + i % 2)]
                 for i in range(k)]
        H = build_hypergraph(edges)
        assert "hyperstar" in classify_family(H).flags
        assert_matches_reference(H)


def test_hyperstar_structure_is_fast():
    # the tree test on a hyperstar reads the center size instead of
    # scanning the k³ triangles of its complete edge-intersection graph,
    # which took about 2 s on a 2-vCPU VM (Python 3.11)
    H = generate(GeneratorSpec("hyperstar", 200, 3))
    began = time.perf_counter()
    report = analyze_structure(H)
    assert time.perf_counter() - began < 1.5
    assert report.families == {"hyperstar", "hypertree"}


def test_long_hyperpath_needs_no_recursion():
    H = generate(GeneratorSpec("hyperpath", 300, 3))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        report = analyze_structure(H)
    finally:
        sys.setrecursionlimit(limit)
    assert report.families == {"hyperpath", "hypertree"}
    assert len(report.branches) == 2 * H.k - 2


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
    for vs in tw.members:
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                for w in range(H.m):
                    if w not in (u, v):
                        assert D[u][w] == D[v][w]


@given(edge_strategy)
@settings(max_examples=60)
def test_twin_class_counts(edge_list):
    H = build_hypergraph([sorted(e) for e in edge_list], allow_non_sperner=True)
    tw = twin_classes(H)
    assert sum(map(len, tw.members)) == H.m
    assert sum(len(vs) - 1 for vs in tw.members) == H.m - len(tw.members)
    for vs in tw.members:
        assert vs[0] == min(vs)
    # classes come in order of first appearance of their signature
    assert list(tw.signatures) == list(dict.fromkeys(H.incidence))
    assert frozenset(v for vs in tw.members for v in vs[1:]) == frozenset(
        v for vs in tw.members for v in vs if v != min(vs)
    )


@given(st.integers(1, 9).flatmap(lambda m: st.builds(
    Hypergraph,
    st.just(tuple(range(m))),
    st.lists(st.frozensets(st.integers(0, m - 1), min_size=1, max_size=4),
             max_size=8).map(tuple),
)))
@example(Hypergraph(("a", "b"), ()))
@example(Hypergraph(("a", "b", "c", "d"), (frozenset({1, 2}), frozenset({1, 2}))))
@example(Hypergraph(tuple(range(5)), (frozenset({3}), frozenset({0, 3, 4}))))
@settings(max_examples=300, deadline=None)
def test_class_table_matches_the_oracles(H):
    # nested, repeated and one-vertex edges occur, and direct construction
    # leaves vertices in no edge, which share the empty signature here
    tw = twin_classes(H)
    assert list(tw.class_of) == oracle_twin_class_ids(H)
    assert sorted(v for vs in tw.members for v in vs) == list(range(H.m))
    for c, vs in enumerate(tw.members):
        assert list(vs) == sorted(set(vs)) and vs
        assert {tw.class_of[v] for v in vs} == {c}
        assert tw.signatures[c] == H.incidence[vs[0]]
    classes, excess, representatives, forced = reference_twin_classes(H)
    assert list(classes) == list(tw.signatures)
    assert list(classes.values()) == list(map(frozenset, tw.members))
    assert list(excess.values()) == [len(vs) - 1 for vs in tw.members]
    assert list(representatives.values()) == [vs[0] for vs in tw.members]
    assert forced == frozenset(v for vs in tw.members for v in vs[1:])
    assert tw.largest_class_size() == max(map(len, tw.members))


def test_class_table_memory_on_a_long_hyperpath():
    # one small tuple per class and no per-class frozensets or dicts: on
    # the 1500-edge path (3,001 vertices, 2,999 classes) the traced peak is
    # about 0.8 MB, where frozensets and three dicts keyed by signature
    # peaked at 1.9 MB
    H = generate(GeneratorSpec("hyperpath", 1500, 3))
    H.incidence
    tracemalloc.start()
    try:
        tw = twin_classes(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(tw.members) == 2999


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
    assert H.twins == twin_classes(H)
    assert H.distances == distance_matrix(H)
    assert H.distances is H.distances


@pytest.fixture
def computations(monkeypatch):
    """Counts each run of the middle-graph, twin, class-search and matrix
    functions, per hypergraph, by replacing them where the analysis
    context calls them."""
    counts = Counter()
    for name in ("vertex_adjacency", "twin_classes", "_class_searches",
                 "distance_matrix"):
        def counting(H, original=getattr(core, name), name=name):
            counts[name, id(H)] += 1
            return original(H)

        monkeypatch.setattr(core, name, counting)
    return counts


@pytest.mark.parametrize(
    "solve", [metric_dimension, count_minimum_bases, partition_dimension]
)
def test_solvers_compute_context_once(computations, solve):
    # the rows come from one search per twin class, so no solver builds
    # the middle graph; the basis solvers read the class rows themselves,
    # and dim's certificate only its landmarks' rows, so only the
    # partition walk builds the vertex rows
    H = generate(GeneratorSpec("hypercycle", 4, 3))
    solve(H)
    assert computations["vertex_adjacency", id(H)] == 0
    built = ["twin_classes", "_class_searches"]
    if solve is partition_dimension:
        built.append("distance_matrix")
    assert computations == {(name, id(H)): 1 for name in built}


def test_dim_counting_and_the_matrix_share_one_class_search(computations):
    # cover6 has three twin classes of two, so the matrix is expanded from
    # the class rows, not the class rows themselves
    H = cover6()
    metric_dimension(H)
    count_minimum_bases(H)
    assert distance_matrix(H) == H.distances
    assert computations["_class_searches", id(H)] == 1
    assert H.distances is not H.class_rows


def test_twin_free_matrix_is_the_class_rows():
    H = generate(GeneratorSpec("hypercycle", 5, 3))
    assert len(H.twins.members) == H.m
    assert H.distances is H.class_rows


def test_landmark_rows_are_the_matrix_rows_of_their_classes():
    # cover6 has three twin classes of two: asked for vertex 0's rows, the
    # table holds the rows of 0 and its twin and None at the other four;
    # once the matrix is cached, it is the answer
    H = cover6()
    full = distance_matrix(H)
    mates = H.twins.members[H.twins.class_of[0]]
    rows = distance_matrix(H, [0])
    assert len(rows) == H.m and len(mates) == 2
    assert [v for v, row in enumerate(rows) if row is not None] == list(mates)
    assert all(rows[v] == full[v] for v in mates)
    assert "distances" not in H.__dict__
    cached = H.distances
    assert distance_matrix(H, [0]) is cached


def _traced_peak(call, H):
    """``call(H)`` and its tracemalloc peak, with the twin table, the
    connectivity flag and the class rows of H built beforehand."""
    H.twins, H.connected, H.class_rows
    tracemalloc.start()
    try:
        result = call(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_counting_on_a_big_hyperstar_reads_only_class_rows(computations):
    # 951 vertices in 51 twin classes: the search reads 51 class rows of 51
    # entries, well under 1 MB at its traced peak, where the 951 x 951
    # vertex matrix it once built peaked at 14.3 MB
    H = generate(GeneratorSpec("hyperstar", 50, 20))
    count, peak = _traced_peak(count_minimum_bases, H)
    assert count == 19**50  # the forced set resolves: each edge drops one
    assert computations["distance_matrix", id(H)] == 0
    assert peak < 1_000_000


def test_dim_and_its_check_expand_only_their_landmarks_rows():
    # 601 vertices in 599 twin classes: the vertex matrix, 3.0 MB at its
    # traced peak, would be a second table as large as the class rows; the
    # certificate reads only the rows of the basis's classes
    H = generate(GeneratorSpec("hyperpath", 300, 3))
    (dim, cert), peak = _traced_peak(metric_dimension, H)
    assert dim == 2 and cert.valid
    assert peak < 1_000_000
    assert "distances" not in H.__dict__
    basis = [w for (w,) in cert.landmarks]
    H = generate(GeneratorSpec("hyperpath", 300, 3))
    check, peak = _traced_peak(lambda H: is_resolving_set(H, basis), H)
    assert check == cert
    assert peak < 1_000_000
    assert "distances" not in H.__dict__


@pytest.mark.parametrize("command", ["dim", "pd", "bounds", "analyze"])
def test_commands_compute_context_once(computations, command, tmp_path):
    path = tmp_path / "c43.hg"
    path.write_text(format_hypergraph(generate(GeneratorSpec("hypercycle", 4, 3))))
    assert main([command, "--json", str(path)]) == 0
    assert computations and set(computations.values()) == {1}


# ---------------------------------------------------------------------------
# edge-pair scans against the all-pairs definitions


def assert_pair_scans_match_reference(edge_list):
    H = build_hypergraph(edge_list, allow_non_sperner=True)
    expected = reference_containment(H)
    assert H.containment == expected
    assert is_sperner(H) == (expected is None)
    if expected is None:
        assert build_hypergraph(edge_list).edges == H.edges
    else:
        with pytest.raises(SpernerViolation) as exc:
            build_hypergraph(edge_list)
        assert (exc.value.inner, exc.value.outer) == expected
    assert is_linear(H) == reference_is_linear(H)
    if is_connected(H):
        desc = classify_family(H)
        assert desc.center == reference_star_center(H)
        assert ("hyperstar" in desc.flags) == (desc.center is not None)


@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=300, deadline=None)
def test_pair_scans_match_reference(edge_list):
    # duplicated, nested and disconnected edge lists all occur
    assert_pair_scans_match_reference([sorted(e) for e in edge_list])


def nested_edge_lists(seed):
    """A chain of nested edges in shuffled order; the same chain with a
    duplicate of one link; a star with a random extra edge, which may lie
    inside a petal, contain the center, or repeat an edge."""
    rng = random.Random(seed)
    universe = list(range(12))
    rng.shuffle(universe)
    chain = [universe[:size] for size in sorted(rng.sample(range(1, 12), 4))]
    rng.shuffle(chain)
    yield chain
    yield chain + [chain[rng.randrange(len(chain))]]
    k = rng.randint(2, 5)
    star = [[0, *range(1 + 2 * i, 3 + 2 * i)] for i in range(k)]
    extra = rng.choice([[0], [1], [0, 1], star[0], [0, 1, 3], [1, 2]])
    star.insert(rng.randrange(k + 1), extra)
    yield star


@pytest.mark.parametrize("seed", range(30))
def test_pair_scans_match_reference_seeded(seed):
    for edges in nested_edge_lists(seed):
        assert_pair_scans_match_reference(edges)


@pytest.mark.parametrize(
    "edges, expected",
    [
        ([["a", "b", "c"]], None),
        ([["a", "b"], ["a", "b"]], (0, 1)),
        ([["a", "b"], ["c"], ["a", "b"]], (0, 2)),
        ([["a"], ["a", "b"], ["a", "b", "c"]], (0, 1)),
        ([["a", "b", "c"], ["a", "b"], ["a"]], (1, 0)),
        ([["a", "b"], ["c", "d"], ["c"], ["a"]], (3, 0)),
        ([["x", "y"], ["y", "z"], ["z", "x"]], None),
        ([["a", "b"], ["c", "d"], ["a", "b"]], (0, 2)),
    ],
)
def test_containment_names_the_first_pair(edges, expected):
    H = build_hypergraph(edges, allow_non_sperner=True)
    assert H.containment == expected == reference_containment(H)
    assert_pair_scans_match_reference(edges)


@st.composite
def uniform_edge_lists(draw):
    """Edges of one size, one of them drawn again at a random place when
    the flag says so, which the uniform shortcut must hand to the scan."""
    size = draw(st.integers(min_value=1, max_value=4))
    edge = st.sets(st.integers(min_value=0, max_value=7), min_size=size, max_size=size)
    edges = draw(st.lists(edge, min_size=1, max_size=8))
    if draw(st.booleans()):
        again = edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))]
        edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), again)
    return [sorted(e) for e in edges]


@given(uniform_edge_lists())
@settings(max_examples=300, deadline=None)
def test_uniform_containment_matches_reference(edge_list):
    assert_pair_scans_match_reference(edge_list)


def test_uniform_sperner_gate_builds_no_incidence():
    H = build_hypergraph([["a", "b", "c"], ["c", "d", "e"], ["e", "f", "a"]])
    assert H.containment is None
    assert "incidence" not in H.__dict__


def test_star_center_is_the_common_part():
    # every two edges meet in {a, b}; an edge equal to the center is a
    # hyperstar too, since all its pairwise intersections are the center
    H = build_hypergraph([["a", "b", "c"], ["a", "b", "d"], ["a", "b"]],
                         allow_non_sperner=True)
    assert classify_family(H).center == frozenset(ids(H, "a", "b"))
    # pairwise intersections {a}, {a}, {a, c}: common part {a}, petals meet
    H = build_hypergraph([["a", "b", "c"], ["a", "c", "d"], ["a", "e"]])
    assert "hyperstar" not in classify_family(H).flags


def test_public_names_resolve_and_are_sorted():
    assert all(hasattr(hyperres, name) for name in hyperres.__all__)
    assert hyperres.__all__ == sorted(hyperres.__all__)
    assert len(set(hyperres.__all__)) == len(hyperres.__all__)
