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
from itertools import chain, compress
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator

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
        connected hypergraph. It reads ``len(distances)``, the vertex
        count, and the rows of the landmarks' members only, so any m-entry
        table that holds those rows will do: ``H.distances``, or
        ``distance_matrix(H, W)``, the rows of W's twin classes alone,
        which ``is_resolving_set`` and ``metric_dimension`` pass.

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


def _class_searches(H: Hypergraph) -> Iterator[list[int | None]]:
    """One breadth-first search per twin class, in ``H.twins`` class order,
    each yielding its row of distances to every class: 0 at its own class
    and None at the classes it does not reach. ``distance_matrix`` gives
    the proof.

    The table is read as it is stored: the classes meeting an edge are read
    off the class signatures, not off every member of the edge. Vertices in
    no edge share the empty signature, a class that meets no edge, so its
    search reaches no other class and no other search reaches it."""
    sigs = H.twins.signatures
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
    for i in range(c):
        dist: list[int | None] = [UNREACHABLE] * c
        dist[i] = 0
        frontier = nbrs[i]
        for nxt in frontier:
            dist[nxt] = 1
        level = 1
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
        yield dist


def distance_matrix(H: Hypergraph, vertices: Iterable[int] | None = None) -> Rows:
    """Row u holds d(u, v) at position v, expanded from the class rows,
    one breadth-first search per twin class (``_class_searches``), that
    ``H.class_rows`` holds. ``H.distances`` holds the result once computed;
    on a twin-free H it is ``H.class_rows`` itself.

    Given ``vertices``, only the rows of the twin classes they touch are
    expanded, and every other row is None, unless ``H.distances`` is
    already cached or H is twin-free: then the full matrix costs nothing
    more and is returned. So a certificate of a few landmarks costs the
    rows of their classes, not the m × m matrix. The basis solvers'
    certificates read such rows; only the partition walk, its certificate
    and ``is_resolving_partition`` read ``H.distances``.

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

    Vertices in no edge share the empty signature, so the table puts them
    in one class, but they are no one's twins: each reaches no other
    vertex. Their class neighbours no class, so its row is None but for
    its own 0, and two of its members are at None, not 1. Of the readers
    of the class rows only this one is handed disconnected inputs, so it
    alone tells the two apart: a member's mates get 1 when the signature
    is nonempty and None when it is empty.

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
    class_of, members, sigs = H.twins
    m = H.m
    if len(members) == m:
        return H.class_rows
    if "distances" in vars(H):
        return H.distances
    classes = zip(members, sigs, H.class_rows)
    if vertices is not None:
        touched = set(map(class_of.__getitem__, vertices))
        classes = compress(classes, map(touched.__contains__, range(len(members))))
    lookup = itemgetter(*class_of)
    rows: list = [None] * m
    for group, sig, dist in classes:
        if len(group) == 1:
            rows[group[0]] = lookup(dist)
            continue
        row = list(lookup(dist))
        mate = 1 if sig else UNREACHABLE
        for v in group:
            row[v] = mate
        for v in group:
            row[v] = 0
            rows[v] = tuple(row)
            row[v] = mate
    return tuple(rows)


def _gated_distances(H: Hypergraph, message: str) -> Rows:
    """``H.distances``, once ``H.connected`` holds; raises
    ``Disconnected(message)`` otherwise, before any all-pairs work. The
    partition solver and ``is_resolving_partition``, the matrix's readers,
    pass this gate before they first read it."""
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
    class_of, members, _ = H.twins
    class_ecc, diameter = [], -1
    for i, dist in enumerate(_class_searches(H)):
        ecc = max(dist)
        class_ecc.append(ecc)
        if ecc > diameter:
            diameter, source, far = ecc, i, dist
    u, *twins = members[source]  # the twins are at distance 1 from u
    if diameter == 0 and twins:  # one class, of twins
        class_ecc, diameter = [1], 1
    at = twins if diameter == 1 else []
    if diameter in far:
        at.append(members[far.index(diameter)][0])
    return tuple(map(class_ecc.__getitem__, class_of)), diameter, (u, min(at))
