"""Hypergraph data model, structural predicates, twin classes, and family
recognition on the edge-intersection graph.

All objects here are immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from collections.abc import Callable, Hashable, Iterable, Sequence
from functools import cached_property

from .errors import (
    Disconnected,
    EmptyEdge,
    EmptyFamily,
    SpernerViolation,
    VertexOutOfRange,
)
from .metric import Rows, _class_searches, _search

Label = Hashable
Signature = tuple[int, ...]


class Hypergraph:
    """Vertex label table plus an ordered family of hyperedges.

    Vertex ids are positions in ``labels``; each edge is a set of ids.
    ``build_hypergraph`` is the checked constructor for user input and
    guarantees the usual invariants (nonempty family, every vertex covered).
    Direct construction is deliberately more permissive: transform outputs
    such as middle graphs may have isolated vertices or no edges at all.

    Immutable: assigning or deleting any attribute raises AttributeError.
    The cached properties below write the instance ``__dict__`` directly,
    so each is still computed once. Two hypergraphs are equal, and hash
    alike, when their ``labels`` and ``edges`` are.
    """

    labels: tuple[Label, ...]
    edges: tuple[frozenset[int], ...]

    def __init__(self, labels: tuple[Label, ...], edges: tuple[frozenset[int], ...]):
        """Checks the labels, then all edges at once with C-level passes:
        each is nonempty and holds only ids in range(m), each an int. Only
        when that fails does the loop below run, to name the first edge at
        fault.

        An integral float such as 1.0 lies in range(m) but indexes no list,
        and the union of the edges may hold the int 1 in its place, so the
        type test reads the edges themselves. Once the union lies in
        range(m), every id is a number equal to an int, and their sum is an
        int only when each is: a float, Fraction or Decimal id makes the sum
        one too. The sum costs about half of an isinstance test per id."""
        if not labels:
            raise EmptyFamily("a hypergraph needs at least one vertex")
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be distinct")
        if not (
            all(edges)
            and set().union(*edges).issubset(range(len(labels)))
            and type(sum(itertools.chain(*edges))) is int
        ):
            for i, edge in enumerate(edges):
                if not edge:
                    raise EmptyEdge(f"edge {i + 1} is empty")
                for v in edge:
                    if not isinstance(v, int) or v not in range(len(labels)):
                        raise VertexOutOfRange(f"edge {i + 1} mentions vertex id {v}")
        self.__dict__.update(labels=labels, edges=edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Hypergraph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Hypergraph is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.edges) == (other.labels, other.edges)

    def __hash__(self):
        return hash((self.labels, self.edges))

    @property
    def m(self) -> int:
        """Number of vertices."""
        return len(self.labels)

    @property
    def k(self) -> int:
        """Number of hyperedges."""
        return len(self.edges)

    # The analysis context: each of these is computed on first use and then
    # shared read-only by every solver, predicate and command.

    @cached_property
    def incidence(self) -> tuple[Signature, ...]:
        """Each vertex's edge indices, in increasing order."""
        rows: list[list[int]] = [[] for _ in range(self.m)]
        for i, edge in enumerate(self.edges):
            for v in edge:
                rows[v].append(i)
        return tuple(map(tuple, rows))

    @cached_property
    def intersection_graph(self) -> tuple[frozenset[int], ...]:
        """Each edge's neighbours in the edge-intersection graph: the other
        edges it shares a vertex with."""
        rows: list[set[int]] = [set() for _ in range(self.k)]
        for row in self.incidence:
            for i in row:
                rows[i].update(row)
        return tuple(frozenset(row - {i}) for i, row in enumerate(rows))

    @cached_property
    def containment(self) -> tuple[int, int] | None:
        """The first contained pair ``(inner, outer)``, edge ``inner`` a
        subset of edge ``outer``, or None when the edges form a Sperner
        family. Pairs {i, j}, i < j, are taken in lexicographic order, and
        i ⊆ j is reported before j ⊆ i, so duplicated edges give (i, j).

        Every superset of an edge e contains the vertex v of e of least
        degree, so the edges to test against e are those in v's
        ``incidence`` row. That is O(Σ|e| · least degree) work instead of
        a subset test for each of the k² pairs.

        A uniform family of distinct edges is Sperner, since e ⊆ f with
        |e| = |f| gives e = f: it returns None before ``incidence`` is
        built. Mixed sizes or a repeated edge take the scan, so the pair
        it reports is the one above."""
        edges = self.edges
        if len(set(map(len, edges))) <= 1 and len(set(edges)) == len(edges):
            return None
        incidence = self.incidence
        degree = [len(row) for row in incidence].__getitem__
        best = None
        for i, edge in enumerate(edges):
            for j in incidence[min(edge, key=degree)]:
                if j != i and edge <= edges[j]:
                    rank = (min(i, j), max(i, j), i > j)
                    if best is None or rank < best[0]:
                        best = rank, (i, j)
        return None if best is None else best[1]

    @cached_property
    def connected(self) -> bool:
        """Whether the middle graph is connected: the search from vertex 0
        (``metric._search``), which reads each edge once, reaches every
        vertex. It costs O(m + Σ|e|) and builds no middle-graph adjacency
        (``vertex_adjacency``). The solvers and ``bounds`` test this before
        anything else."""
        return None not in _search(self, (0,))

    @cached_property
    def twins(self) -> TwinClassPartition:
        return twin_classes(self)

    @cached_property
    def class_rows(self) -> Rows:
        """One distance row per twin class, in ``twins`` class order: row i
        holds class i's distance to every class (``metric._class_searches``).
        The basis searches, the rows their certificates expand, and
        ``distance_matrix``, the partition walk's vertex rows, read these."""
        return tuple(map(tuple, _class_searches(self)))

    def edge_labels(self, index: int) -> tuple[Label, ...]:
        return tuple(self.labels[v] for v in sorted(self.edges[index]))

    def __repr__(self) -> str:
        edges = ", ".join(
            "{" + ",".join(str(x) for x in self.edge_labels(i)) + "}"
            for i in range(self.k)
        )
        return f"Hypergraph(m={self.m}, k={self.k}, edges=[{edges}])"


def build_hypergraph(
    edge_list: Sequence[Iterable[Label]], allow_non_sperner: bool = False
) -> Hypergraph:
    """Build a hypergraph from edges given as label collections.

    Vertex ids follow first appearance across the edge list, so pass
    sequences when label order matters. With the Sperner gate on (the
    default) any edge contained in another is rejected, naming the pair
    that ``Hypergraph.containment`` reports; duplicated edges count as
    mutual containment.
    """
    if not edge_list:
        raise EmptyFamily("no hyperedges given")
    rows = list(map(tuple, edge_list))
    if not all(rows):
        first = rows.index(())
        # an unhashable label before the empty edge raises TypeError first
        dict.fromkeys(itertools.chain.from_iterable(rows[:first]))
        raise EmptyEdge(f"edge {first + 1} is empty")
    labels = tuple(dict.fromkeys(itertools.chain.from_iterable(rows)))
    index = dict(zip(labels, itertools.count()))
    # frozenset(map(index.__getitem__, row)) per row, with no Python frame
    edges = map(frozenset, map(map, itertools.repeat(index.__getitem__), rows))
    H = Hypergraph(labels, tuple(edges))
    if not allow_non_sperner and H.containment is not None:
        raise SpernerViolation(*H.containment)
    return H


def is_sperner(H: Hypergraph) -> bool:
    """True when no hyperedge is contained in another (see
    ``Hypergraph.containment``)."""
    return H.containment is None


def is_linear(H: Hypergraph) -> bool:
    """True when any two distinct hyperedges share at most one vertex.
    Edges that are not neighbours in the edge-intersection graph share no
    vertex, so only its neighbour pairs are tested."""
    edges = H.edges
    return all(
        len(edges[i] & edges[j]) <= 1
        for i, nbrs in enumerate(H.intersection_graph)
        for j in nbrs
        if j > i
    )


# ---------------------------------------------------------------------------
# Twin classes


class TwinClassPartition(
    namedtuple("TwinClassPartition", "class_of members signatures")
):
    """The twin classes of a hypergraph as one table: vertices grouped by
    incidence signature (the sorted tuple of edge indices containing them),
    classes numbered in order of least member.

    ``class_of`` (a tuple of ints) holds each vertex's class, ``members``
    (a tuple of tuples of ints) each class's vertices in increasing order,
    so ``members[c][0]`` is the least, the class's representative, and
    ``signatures`` (a tuple of signatures) each class's incidence row:
    ``signatures[c]`` is ``H.incidence[members[c][0]]``.

    The solvers, both twin bounds and the ``classes`` reply read these
    three fields: a resolving set holds all but one member of each class
    (``resolving.dim_lower_bound``), and a resolving partition puts the
    members of a class in distinct blocks (``partition.pd_lower_bound``).
    """

    __slots__ = ()

    def largest_class_size(self) -> int:
        return max(map(len, self.members))


def twin_classes(H: Hypergraph) -> TwinClassPartition:
    """Partition the vertices into twin classes.

    Two vertices are twins when they lie in exactly the same hyperedges;
    twins are indistinguishable by distances to anything else, which is
    what makes this the reduction core of both dimension solvers.

    The table takes C-level passes over ``H.incidence`` and no Python step
    per vertex, O(m + Σ|e|) with the incidence rows: ``dict.fromkeys``
    lists the signatures in order of first appearance, which is the order
    of least member, one ``map`` reads each vertex's class off them, and
    ``map(list.append, ...)`` adds each vertex to its class in increasing
    id. Vertices in no edge share the empty signature and so one class,
    though they are no one's twins. Every reader takes the table as
    stored; ``metric.distance_matrix`` puts such vertices at None from
    each other, not at 1.
    """
    incidence = H.incidence
    index = dict(zip(dict.fromkeys(incidence), itertools.count()))
    class_of = tuple(map(index.__getitem__, incidence))
    members: list[list[int]] = list(map(list, itertools.repeat((), len(index))))
    deque(map(list.append, map(members.__getitem__, class_of), range(H.m)), 0)
    return TwinClassPartition(class_of, tuple(map(tuple, members)), tuple(index))


# ---------------------------------------------------------------------------
# Family recognition


FAMILY_KINDS = (
    "single-edge",
    "hypercycle",
    "hyperpath",
    "hyperstar",
    "hypertree",
    "other",
)


class FamilyDescriptor(
    namedtuple("FamilyDescriptor", "kind k n center edge_order flags")
):
    """Result of family recognition.

    ``flags`` (a frozenset of str) holds every matching family; ``kind``
    is the most specific match, with precedence single-edge > hypercycle >
    hyperpath > hyperstar > hypertree > other. A two-edge overlap is both a
    hyperpath and a hyperstar, so overlaps are the normal case, not an
    error. ``k`` is the edge count and ``n`` the common edge size (None
    when sizes differ); ``center`` is a hyperstar's center (a frozenset of
    vertex ids, else None), ``edge_order`` the edge ids of a hyperpath or
    hypercycle in walking order (a tuple, else None).
    """

    __slots__ = ()


def _walk(meets: Sequence[frozenset[int]], start: int) -> tuple[int, ...]:
    """The nodes of a connected graph of maximum degree 2, walked from
    ``start`` by stepping to the smaller unvisited neighbour."""
    order = [start]
    seen = {start}
    while step := meets[order[-1]] - seen:
        order.append(min(step))
        seen.add(order[-1])
    return tuple(order)


def _cyclic_triangle(a: frozenset[int], b: frozenset[int], c: frozenset[int]) -> bool:
    """Three pairwise meeting edges have distinct connectors: distinct
    vertices in a & b, b & c and c & a. A vertex in two of these
    intersections lies in all three edges, so each intersection is the
    common part a & b & c plus a private part, and the private parts are
    disjoint. An intersection with a private part takes a private vertex;
    the others need distinct common vertices."""
    private = bool((a & b) - c) + bool((b & c) - a) + bool((c & a) - b)
    return len(a & b & c) + private >= 3


def _chordal(adj: dict[int, frozenset[int]]) -> bool:
    """Maximum cardinality search (Tarjan & Yannakakis 1984): visit next an
    unvisited node with the most visited neighbours. The graph is chordal
    exactly when, for every node v, the neighbours visited before v other
    than the last of them, u, are all neighbours of u."""
    weight = dict.fromkeys(adj, 0)
    position: dict[int, int] = {}
    while weight:
        v = max(weight, key=weight.__getitem__)
        del weight[v]
        earlier = {w for w in adj[v] if w in position}
        if earlier:
            u = max(earlier, key=position.__getitem__)
            if not earlier - {u} <= adj[u]:
                return False
        position[v] = len(position)
        for w in adj[v]:
            if w in weight:
                weight[w] += 1
    return True


def _acyclic(H: Hypergraph, nodes: Iterable[int]) -> bool:
    """True when no three or more of the given edges order into a
    hypercycle (a cycle pattern). On four or more edges a cycle pattern is
    an induced cycle of the edge-intersection graph G, whose distinct
    connectors come free: consecutive intersections share no vertex, as
    edges two apart do not meet. On three edges it is a triangle of G with
    distinct connectors. So the edges have no cycle pattern exactly when G
    restricted to them is chordal and none of its triangles has distinct
    connectors."""
    inside = frozenset(nodes)
    adj = {i: H.intersection_graph[i] & inside for i in inside}
    edges = H.edges
    return _chordal(adj) and not any(
        _cyclic_triangle(edges[i], edges[j], edges[h])
        for i in inside
        for j in adj[i]
        if j > i
        for h in adj[i] & adj[j]
        if h > j
    )


def classify_family(H: Hypergraph) -> FamilyDescriptor:
    """Recognize which named families a connected hypergraph belongs to.

    Each test runs on the edge-intersection graph G, which is connected
    because H is. H is a hyperpath when G is a path; the order starts at
    its lower-id end. H is a hypercycle when G is a cycle, on three edges
    with distinct connectors (on more they come free, see ``_acyclic``);
    the order starts at edge 0 and steps to its smaller neighbour. H is a
    hypertree when it has no cycle pattern.

    H is a hyperstar when it has k >= 2 edges and every two of them meet in
    the same nonempty set, its center. Let ``common`` be the intersection
    of all edges, and each edge's petal the edge minus ``common``. If all
    pairwise intersections equal S, then S lies in every edge, so S is
    ``common``, and two petals meet in (e & f) - S, which is empty.
    Conversely, if the petals are pairwise disjoint, e & f is ``common``
    plus the meet of two petals, so it is ``common``. So the test is: k >= 2,
    ``common`` nonempty, and the petal sizes summing to the size of their
    union, in O(Σ|e|) instead of one intersection per pair of edges.

    A hyperstar is a hypertree exactly when k < 3 or its center has fewer
    than three vertices, so its k³ triangles need no scan. Every two edges
    meet, so G is complete, hence chordal, and every cycle pattern is a
    triangle of G with distinct connectors (see ``_acyclic``). The three
    pairwise intersections of a triangle are all the center, which is
    also their common part, so ``_cyclic_triangle`` holds exactly when the
    center has at least three vertices; and G has a triangle exactly when
    k >= 3.
    """
    if not H.connected:
        raise Disconnected("family recognition is defined on connected hypergraphs")
    edges = H.edges
    meets = H.intersection_graph
    sizes = {len(e) for e in edges}
    n = sizes.pop() if len(sizes) == 1 else None

    flags: set[str] = set()
    center: frozenset[int] | None = None
    order: tuple[int, ...] | None = None
    if all(len(nbrs) <= 2 for nbrs in meets):
        ends = [i for i, nbrs in enumerate(meets) if len(nbrs) < 2]
        if ends:
            order = _walk(meets, ends[0])
            flags.add("hyperpath")
        elif H.k > 3 or (H.k == 3 and _cyclic_triangle(*edges)):
            order = _walk(meets, 0)
            flags.add("hypercycle")
    if H.k >= 2:
        common = frozenset.intersection(*edges)
        petals = [e - common for e in edges]
        if common and sum(map(len, petals)) == len(frozenset().union(*petals)):
            flags.add("hyperstar")
            center = common
    if H.k == 1:
        flags.add("single-edge")
    if center is not None:
        acyclic = H.k < 3 or len(center) < 3
    else:
        acyclic = _acyclic(H, range(H.k))
    if acyclic:
        flags.add("hypertree")

    # a path and a cycle exclude each other, and both outrank star and tree
    return FamilyDescriptor(
        kind=next((f for f in FAMILY_KINDS if f in flags), "other"),
        k=H.k,
        n=n,
        center=center,
        edge_order=order,
        flags=frozenset(flags),
    )


# ---------------------------------------------------------------------------
# Structure report


class StructureReport(namedtuple(
    "StructureReport",
    "connected sperner linear uniform regular rank degrees pendant_edges "
    "vacuous_pendant_edges branches families family",
)):
    """Everything the structural predicates can say about a hypergraph.

    Always produced: disconnected inputs are reported, not rejected.
    ``connected``, ``sperner`` and ``linear`` are bools; ``uniform`` and
    ``regular`` the common edge size and vertex degree (None when they
    differ); ``rank`` the largest edge size; ``degrees`` a tuple, one per
    vertex. ``pendant_edges`` and ``vacuous_pendant_edges`` are frozensets
    of edge ids; the vacuous ones are pendant edges meeting at most one
    other edge, where the pendant condition holds with nothing to check.
    ``branches`` is a tuple of (frozenset of edge ids, joint edge id)
    pairs, ``families`` a frozenset of family names, and ``family`` the
    ``FamilyDescriptor`` (None when disconnected).
    """

    __slots__ = ()


def vertex_adjacency(H: Hypergraph) -> tuple[frozenset[int], ...]:
    """Adjacency sets of the middle graph: u and v are adjacent when some
    hyperedge contains both, computed afresh on each call. Nothing in the
    package reads it: ``middle_graph`` takes its pairs straight off the
    edges, the CLI's ``transform`` writes its text from those pairs and,
    for the dual, from the incidence rows, and distances come from the
    incidence rows and twin classes (``distance_matrix``)."""
    adj: list[set[int]] = [set() for _ in range(H.m)]
    for edge in H.edges:
        members = sorted(edge)
        for a, b in itertools.combinations(members, 2):
            adj[a].add(b)
            adj[b].add(a)
    return tuple(map(frozenset, adj))


def _reach(
    start: int, neighbours: Callable[[int], Iterable[int]], blocked: Iterable[int] = ()
) -> set[int]:
    """The nodes a graph search from ``start`` reaches without entering
    ``blocked``."""
    seen = {start, *blocked}
    frontier = [start]
    while frontier:
        for nxt in neighbours(frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen.difference(blocked)


def is_connected(H: Hypergraph) -> bool:
    """``H.connected``: whether the middle graph is connected."""
    return H.connected


def _branches(
    H: Hypergraph, acyclic: bool
) -> tuple[tuple[frozenset[int], int], ...]:
    """Connected proper edge subsets S with no cycle pattern, in which one
    edge, the joint j, alone meets edges outside S, and the overlaps of j
    with those outside edges meet pairwise (the joint condition). Sorted by
    size, then by members.

    Each edge of S other than j meets only edges of S, so S minus j is a
    union of components of G - j, G the edge-intersection graph, each
    adjacent to j because S is connected. Neighbours of j in two different
    components have disjoint overlaps with j, or they would meet. So the
    joint condition leaves out of S exactly one component adjacent to j,
    and S is j plus all the other components adjacent to j. ``acyclic``
    says H has no cycle pattern, and then no subset of its edges has one.
    The overlaps of j with its neighbours are nonempty, so two equal
    overlaps always meet, and the joint condition is tested once per
    distinct overlap.

    Edge j is pendant when its overlaps with the edges it meets pairwise
    meet. A pendant j with neighbours has exactly one component of G - j
    next to it, since neighbours in different components have disjoint
    overlaps. For that component the joint condition is the pendant
    condition, and the one-edge set {j} has no cycle pattern. So j is
    pendant exactly when it meets no other edge or ({j}, j) is a branch.
    """
    edges, meets = H.edges, H.intersection_graph
    found = []
    for j in range(H.k):
        parts: list[set[int]] = []
        for x in meets[j]:
            if not any(x in part for part in parts):
                parts.append(_reach(x, meets.__getitem__, (j,)))
        for outside in parts:
            overlaps = {edges[j] & edges[x] for x in meets[j] & outside}
            branch = frozenset({j}.union(*(p for p in parts if p is not outside)))
            if all(a & b for a, b in itertools.combinations(overlaps, 2)) and (
                acyclic or _acyclic(H, branch)
            ):
                found.append((branch, j))
    return tuple(sorted(found, key=lambda br: (len(br[0]), sorted(br[0]))))


def analyze_structure(H: Hypergraph) -> StructureReport:
    """Compute all structural flags. Never raises: disconnected inputs
    simply leave the family fields empty."""
    degrees = tuple(map(len, H.incidence))
    sizes = {len(e) for e in H.edges}
    degs = set(degrees)
    family = classify_family(H) if H.connected else None
    families = family.flags if family else frozenset()
    acyclic = "hypertree" in families if family else _acyclic(H, range(H.k))
    branches = _branches(H, acyclic)
    meets = H.intersection_graph
    pendant = frozenset(j for j, nbrs in enumerate(meets) if not nbrs).union(
        j for branch, j in branches if len(branch) == 1
    )

    return StructureReport(
        connected=H.connected,
        sperner=is_sperner(H),
        linear=is_linear(H),
        uniform=sizes.pop() if len(sizes) == 1 else None,
        regular=degs.pop() if len(degs) == 1 else None,
        rank=max((len(e) for e in H.edges), default=0),
        degrees=degrees,
        pendant_edges=pendant,
        vacuous_pendant_edges=frozenset(j for j in pendant if len(meets[j]) <= 1),
        branches=branches,
        families=families,
        family=family,
    )
