"""Shortest-path distance under the vertex-edge hop metric, certificates
of the representations of vertices by landmark sets, eccentricity, and
diameter.

The distance between two vertices is the number of hyperedges on a shortest
alternating vertex-edge path, which equals the breadth-first distance in the
middle graph. Unreachable pairs get the sentinel ``None`` rather than a large
integer, so arithmetic misuse fails loudly.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, count
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import Disconnected

if TYPE_CHECKING:
    from .core import Hypergraph

UNREACHABLE = None
Rows = tuple[tuple[int | None, ...], ...]


class Certificate(namedtuple("Certificate", "landmarks representations conflict")):
    """Every vertex's representation, its tuple of distances to the ordered
    landmark sets, and the lexicographically first pair of vertices with
    equal representations (None when all differ). A resolving set is the
    list of its singletons, a resolving partition the list of its classes.
    Immutable, safe for concurrent reads.

    Fields: ``landmarks`` (tuple of frozensets of vertex ids),
    ``representations`` (dict, vertex id -> tuple of ints), ``conflict``
    (a pair of vertex ids, or None)."""

    __slots__ = ()

    @property
    def valid(self) -> bool:
        return self.conflict is None

    @classmethod
    def of(cls, distances: Rows, landmarks: Iterable[Iterable[int]]) -> Certificate:
        """The certificate of ``landmarks`` from the distance rows of a
        connected hypergraph.

        A vertex has coordinate 0 exactly at the sets containing it, so
        members of singleton landmarks never collide with other vertices,
        and vertices in different classes of a partition never collide with
        each other: the first colliding pair is the first unresolved pair
        either way.

        The representations are the columns zipped in one C-level pass
        (every vertex gets ``()`` when there are no landmarks), and the
        pairs are scanned only when two representations are equal.
        """
        landmarks = tuple(map(frozenset, landmarks))
        # distances are symmetric, so a set's column is the elementwise
        # minimum of its members' rows
        columns = []
        for landmark in landmarks:
            rows = [distances[x] for x in landmark]
            columns.append(rows[0] if len(rows) == 1 else tuple(map(min, *rows)))
        if columns:
            reps = dict(enumerate(zip(*columns)))
        else:
            reps = dict.fromkeys(range(len(distances)), ())
        conflict = None
        if len(set(reps.values())) < len(reps):
            first: dict[tuple[int, ...], int] = {}
            for v, rep in reps.items():
                u = first.setdefault(rep, v)
                if u != v and (conflict is None or (u, v) < conflict):
                    conflict = (u, v)
        return cls(landmarks, reps, conflict)


def _class_searches(
    H: Hypergraph,
) -> tuple[Sequence[int], Sequence[Sequence[int]], Iterator[tuple[int, list]]]:
    """(class_of, members, searches): each vertex's class, each class's
    members in increasing order, and one breadth-first search per class,
    in class order. A search gives its last level and the list of its
    distances to every class; when H is connected, the last level is the
    largest distance. Classes are the twin classes, as ``H.twins`` numbers
    them, in order of least member, except that each vertex in no edge is
    a class of its own. ``distance_matrix`` gives the proof.

    The table is read as it is: the classes meeting an edge are read off
    the class signatures, not off every member of the edge. Only vertices
    in no edge, which share the empty signature but are no one's twins,
    take a table of their own."""
    class_of, members, sigs = H.twins
    if () in sigs:  # vertices in no edge are no one's twins
        keys = [sig or v for v, sig in enumerate(H.incidence)]
        classes: dict = {}
        for v, key in enumerate(keys):
            classes.setdefault(key, []).append(v)
        index = dict(zip(classes, count()))
        class_of = list(map(index.__getitem__, keys))
        members = list(classes.values())
        sigs = [H.incidence[vs[0]] for vs in members]
    c = len(sigs)
    in_edge: list[list[int]] = [[] for _ in range(H.k)]
    for i, sig in enumerate(sigs):
        for e in sig:
            in_edge[e].append(i)
    get, nbrs = in_edge.__getitem__, []
    for i, sig in enumerate(sigs):
        # most classes lie in one edge, whose list is already their set
        near = set(get(sig[0]) if len(sig) == 1 else chain.from_iterable(map(get, sig)))
        near.discard(i)
        nbrs.append(tuple(near))
    onward = [nbrs[i] if len(sig) > 1 else () for i, sig in enumerate(sigs)]

    def searches():
        for i in range(c):
            dist: list[int | None] = [UNREACHABLE] * c
            dist[i] = 0
            frontier = nbrs[i]
            for nxt in frontier:
                dist[nxt] = 1
            level = 1 if frontier else 0
            unseen = c - 1 - len(frontier)  # no level after the last class's
            while frontier and unseen:
                level += 1
                reached = []
                for cur in frontier:
                    for nxt in onward[cur]:
                        if dist[nxt] is None:
                            dist[nxt] = level
                            reached.append(nxt)
                unseen -= len(reached)
                frontier = reached
            yield level, dist

    return class_of, members, searches()


def distance_matrix(H: Hypergraph) -> Rows:
    """Row u holds d(u, v) at position v, from one breadth-first search per
    twin class (``_class_searches``). ``H.distances`` holds the result once
    computed.

    Twins, vertices with the same nonempty signature, lie in the same
    edges, so in the middle graph both have the closed neighbourhood N, the
    union of those edges. For any w other than twins u and v, a shortest
    path from u to w steps first to some x in N, and v can step to x too,
    so d(v, w) <= d(u, w), and equality follows by symmetry. So twins have
    equal distances to every other vertex and are at distance 1 (Hernando,
    Mora, Pelayo, Seara & Wood 2010).

    So the search runs over classes: class A neighbours class B when some
    edge holds members of both, and then every member of A is at distance
    1 from every member of B. Take u in A and w outside A. Consecutive
    stops of a path of H lie in one class or in neighbouring classes, so
    w's class is at most d(u, w) steps from A; and a walk over neighbouring
    classes is a path of H from any member of its first class to any
    member of its last, so it is no fewer. The search from A therefore
    gives every member of A its distance to every vertex outside A. A
    member's row is that class row read through the twin table's
    ``class_of`` (``H.twins``), with 1 at its twins and 0 at itself. When
    every class has one member, the class row is already the vertex's row.

    A vertex in no edge has the empty signature, as do all such vertices,
    but it is no one's twin: it reaches no other vertex, and two of them
    are at None, not 1. So each gets a class of its own with no
    neighbours, and its row is None everywhere but its own 0. That is the
    one case where ``_class_searches`` does not use the twin table as it
    is: it splits the table's empty-signature class.

    The search steps on from a class in one edge only when it is the
    source: a class C in edge e alone, reached at level L >= 1, was reached
    from a class in e, which put every class of e at level L or nearer, so
    stepping from C reaches nothing new.

    The twin table costs O(m + Σ|e|), once per hypergraph. For c classes,
    building the neighbour lists takes O(k + Σ over the classes of the
    class counts of their signatures' edges). Each search
    takes O(c + Σ neighbour-list lengths) and each row O(m), so the matrix
    costs O(c · (c + Σ neighbour-list lengths) + m²). One search per vertex
    over the middle graph cost O(m · Σ deg), and Σ deg grows as Σ|e|²: on
    two edges of 400 vertices sharing two, c is 3, not 798."""
    class_of, members, searches = _class_searches(H)
    m = H.m
    if len(members) == m:
        return tuple(tuple(dist) for _, dist in searches)
    lookup = itemgetter(*class_of)
    rows: list = [None] * m
    for group, (_, dist) in zip(members, searches):
        if len(group) == 1:
            rows[group[0]] = lookup(dist)
            continue
        row = list(lookup(dist))
        for v in group:
            row[v] = 1
        for v in group:
            row[v] = 0
            rows[v] = tuple(row)
            row[v] = 1
    return tuple(rows)


def _gated_distances(H: Hypergraph, message: str) -> Rows:
    """``H.distances``, once ``H.connected`` holds; raises
    ``Disconnected(message)`` otherwise, before any all-pairs work. Each
    solver passes this gate before it first reads the matrix."""
    if not H.connected:
        raise Disconnected(message)
    return H.distances


def eccentricity_and_diameter(
    H: Hypergraph,
) -> tuple[tuple[int, ...], int, tuple[int, int]]:
    """Per-vertex eccentricities, the diameter, and one diametral pair
    (the lexicographically first pair u <= v realizing the diameter), from
    the class searches of ``distance_matrix``, without ``H.distances``.

    Twins have equal distances to every other vertex and are at distance 1,
    so a class's eccentricity is the largest distance its search records,
    or 1 when that is 0 and the class has two or more members: a class of
    twins that is all of V.

    The pair is u, the first vertex of maximum eccentricity, and v, the
    first vertex at distance ``diameter`` from u. Twins share an
    eccentricity and classes are numbered in order of least member, so u
    is the least member of the first class that reaches the diameter. A
    vertex before u has smaller eccentricity, so it is in no diametral
    pair. A vertex at distance ``diameter`` from u has maximum eccentricity
    too, so it is u itself or comes after u, and v is the least of them:
    the least member of the first class at that distance, or, at diameter
    1, u's least twin if it comes first. The searches cost what they cost
    ``distance_matrix``, but at most two class rows are held at a time: the
    current search's and the one that set the diameter."""
    if not H.connected:
        raise Disconnected("eccentricity is undefined on disconnected hypergraphs")
    class_of, members, searches = _class_searches(H)
    class_ecc, diameter = [], -1
    for i, (level, dist) in enumerate(searches):
        class_ecc.append(level)
        if level > diameter:
            diameter, source, far = level, i, dist
    u, *twins = members[source]  # the twins are at distance 1 from u
    if diameter == 0 and twins:  # one class, of twins
        class_ecc, diameter = [1], 1
    at = twins if diameter == 1 else []
    if diameter in far:
        at.append(members[far.index(diameter)][0])
    return tuple(map(class_ecc.__getitem__, class_of)), diameter, (u, min(at))
