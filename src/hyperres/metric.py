"""Shortest-path distance under the vertex-edge hop metric, certificates
of the representations of vertices by landmark sets, eccentricity, and
diameter.

The distance between two vertices is the number of hyperedges on a shortest
alternating vertex-edge path, which equals the breadth-first distance in the
middle graph. Unreachable pairs get the sentinel ``None`` rather than a large
integer, so arithmetic misuse fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from .errors import Disconnected

if TYPE_CHECKING:
    from .core import Hypergraph

UNREACHABLE = None
Rows = tuple[tuple[int | None, ...], ...]


@dataclass(frozen=True)
class Certificate:
    """Every vertex's representation, its tuple of distances to the ordered
    landmark sets, and the lexicographically first pair of vertices with
    equal representations (None when all differ). A resolving set is the
    list of its singletons, a resolving partition the list of its classes.
    Immutable, safe for concurrent reads."""

    landmarks: tuple[frozenset[int], ...]
    representations: dict[int, tuple[int, ...]]
    conflict: tuple[int, int] | None

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


def distance_matrix(H: Hypergraph) -> Rows:
    """Row u holds d(u, v) at position v, from one breadth-first search per
    twin class. ``H.distances`` holds the result once computed.

    Twins, vertices with the same nonempty signature, have equal distances
    to every other vertex and are at distance 1 (proof in
    ``eccentricity_and_diameter``). So the search runs over classes, each
    standing at its least member: class A neighbours class B when some
    edge holds members of both, that is, when B's representative lies in
    an edge of A's, and then every member of A is at distance 1 from every
    member of B. Take u in A and w outside A. Consecutive stops of a path
    of H lie in one class or in neighbouring classes, so w's class is at
    most d(u, w) steps from A; and a walk over neighbouring classes is a
    path of H from any member of its first class to any member of its
    last, so it is no fewer. The search from A's representative therefore
    gives every member of A its distance to every vertex outside A. A
    member's row is that class row read through a vertex -> class table,
    with 1 at its twins and 0 at itself. When every class has one member,
    the class row is already the vertex's row.

    A vertex in no edge has the empty signature, as do all such vertices,
    but it is no one's twin: it reaches no other vertex, and two of them
    are at None, not 1. So each gets a class of its own with no
    neighbours, and its row is None everywhere but its own 0.

    The search steps on from a class in one edge only when it is the
    source: a class C in edge e alone, reached at level L >= 1, was reached
    from a class in e, which put every class of e at level L or nearer, so
    stepping from C reaches nothing new.

    For c classes, building the neighbour lists takes O(Σ|e| + Σ over the
    classes of the class counts of their representatives' edges). Each
    search takes O(c + Σ neighbour-list lengths) and each row O(m), so the
    matrix costs O(c · (c + Σ neighbour-list lengths) + m²). One search
    per vertex over the middle graph cost O(m · Σ deg), and Σ deg grows as
    Σ|e|²: on two edges of 400 vertices sharing two, c is 3, not 798."""
    m, incidence, representatives = H.m, H.incidence, H.twins.representatives
    # vertices in no edge share the empty signature but are no one's twins
    rep_of = [representatives[sig] if sig else v for v, sig in enumerate(incidence)]
    reps = sorted(set(rep_of))
    c = len(reps)
    index = {r: i for i, r in enumerate(reps)}
    class_of = list(map(index.__getitem__, rep_of))
    in_edge = [set(map(class_of.__getitem__, edge)) for edge in H.edges]
    nbrs = []
    for i, r in enumerate(reps):
        near = set().union(*map(in_edge.__getitem__, incidence[r]))
        near.discard(i)
        nbrs.append(tuple(near))
    onward = [nbrs[i] if len(incidence[r]) > 1 else () for i, r in enumerate(reps)]
    members: list[list[int]] = [[] for _ in range(c)]
    for v, i in enumerate(class_of):
        members[i].append(v)
    lookup = itemgetter(*class_of) if c < m else None
    rows: list = [None] * m
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
        if lookup is None:
            rows[i] = tuple(dist)
        elif len(members[i]) == 1:
            rows[members[i][0]] = lookup(dist)
        else:
            row = list(lookup(dist))
            for v in members[i]:
                row[v] = 1
            for v in members[i]:
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
    one breadth-first search per twin class, without ``H.distances``.

    Twins u and v lie in the same edges, so in the middle graph both have
    the closed neighbourhood N, the union of those edges. For any w other
    than u and v, a shortest path from u to w steps first to some x in N,
    and v can step to x too, so d(v, w) <= d(u, w), and equality follows
    by symmetry. So u and v have equal distances to every other vertex and
    are at distance 1, and ecc(u) = ecc(v). The search from a class's
    least member s therefore gives every member its eccentricity. It puts
    the other members of the class on level 1, and records one distance
    for each other class, at its least member.

    The search steps from a vertex to the edges through it
    (``H.incidence``) and from an edge to its hubs: the least member of
    each class of vertices in two or more edges that the edge holds. It
    opens each edge once: the first vertex to open an edge lies on the
    shallowest level that reaches it, so a later opening would place no
    vertex nearer. Visiting hubs only is exact. A shortest path needs no
    vertex in one edge only as an inner stop, since its neighbours on the
    path share that edge, and twins may replace each other on it. A vertex
    other than s in one edge e only is reached through e alone, so its
    distance is the level at which e opens, and the search records it at
    the least such vertex of e, its tip, without stepping on from it. One
    search costs O(m + Σ|e|), with a flag per edge and a distance per
    vertex (every edge is nonempty, so k <= Σ|e|), so the whole function
    takes O(classes · (m + Σ|e|)) time, and O(m + k) memory besides the
    hub lists, which hold at most Σ|e| vertex ids.

    The pair is u, the first vertex of maximum eccentricity, and v, the
    first vertex at distance ``diameter`` from u: the first vertex with
    that recorded distance, since a vertex whose distance the search does
    not record has a twin before it that it does record. Twins share an
    eccentricity, so u is the least member of its class, and the classes
    are searched in order of their least members. A vertex before u has
    smaller eccentricity, so it is in no diametral pair. A vertex at
    distance ``diameter`` from u has maximum eccentricity too, so it is u
    itself or comes after u, and v is the least of them."""
    if not H.connected:
        raise Disconnected("eccentricity is undefined on disconnected hypergraphs")
    m, k, incidence, twins = H.m, H.k, H.incidence, H.twins
    hubs: list[list[int]] = [[] for _ in range(k)]
    tip = [-1] * k  # the least vertex in edge e only, or -1
    for sig, rep in twins.representatives.items():
        if len(sig) == 1:
            tip[sig[0]] = rep
        else:
            for e in sig:
                hubs[e].append(rep)
    ecc = [0] * m
    diameter, pair = -1, (0, 0)
    for source in sorted(twins.representatives.values()):
        members = twins.classes[incidence[source]]
        # the source on level 0, then its twins on level 1
        order = sorted(members)
        dist = [-1] * m
        for v in order:
            dist[v] = 1
        dist[source] = 0
        opened = bytearray(k)
        for u in order:
            step = dist[u] + 1
            for e in incidence[u]:
                if not opened[e]:
                    opened[e] = 1
                    x = tip[e]
                    if x >= 0 and dist[x] < 0:
                        dist[x] = step
                    for w in hubs[e]:
                        if dist[w] < 0:
                            dist[w] = step
                            order.append(w)
        level = max(dist)
        for v in members:
            ecc[v] = level
        if level > diameter:
            diameter, pair = level, (source, dist.index(level))
    return tuple(ecc), diameter, pair
