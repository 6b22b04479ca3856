"""Shortest-path distance under the vertex-edge hop metric, distances to
sets, representations, eccentricity, and diameter.

The distance between two vertices is the number of hyperedges on a shortest
alternating vertex-edge path, which equals the breadth-first distance in the
middle graph. Unreachable pairs get the sentinel ``None`` rather than a large
integer, so arithmetic misuse fails loudly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import Disconnected, EmptySet, VertexOutOfRange

if TYPE_CHECKING:
    from .core import Hypergraph

UNREACHABLE = None


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances; immutable, safe for concurrent reads."""

    entries: tuple[tuple[int | None, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def get(self, u: int, v: int) -> int | None:
        return self.entries[u][v]

    @cached_property
    def connected(self) -> bool:
        return all(None not in row for row in self.entries)

    def certify(
        self, landmarks: Sequence[Iterable[int]]
    ) -> tuple[dict[int, tuple[int, ...]], tuple[int, int] | None]:
        """Every vertex's distance tuple to the ordered landmark sets, and
        the lexicographically first pair of vertices with equal tuples
        (None when all tuples differ). Connected matrices only.

        Singleton landmarks certify resolving sets and whole classes
        certify resolving partitions, as in ``representation``. In both
        cases a vertex has coordinate 0 exactly at the sets containing it,
        so landmark members never collide with other vertices and
        vertices in different classes never collide with each other: the
        first colliding pair is the first unresolved pair either way.
        """
        # distances are symmetric, so a set's column is the elementwise
        # minimum of its members' rows
        columns = []
        for landmark in landmarks:
            rows = [self.entries[x] for x in landmark]
            columns.append(rows[0] if len(rows) == 1 else tuple(map(min, *rows)))
        reps = {v: tuple(col[v] for col in columns) for v in range(self.size)}
        first: dict[tuple[int, ...], int] = {}
        conflict = None
        for v, rep in reps.items():
            u = first.setdefault(rep, v)
            if u != v and (conflict is None or (u, v) < conflict):
                conflict = (u, v)
        return reps, conflict


def distance_matrix(H: Hypergraph) -> DistanceMatrix:
    """Breadth-first layering over middle-graph adjacency from each vertex.
    ``H.distances`` holds the result once computed."""
    adj = H.adjacency
    m = H.m
    rows = []
    for source in range(m):
        dist: list[int | None] = [UNREACHABLE] * m
        dist[source] = 0
        queue = deque([source])
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if dist[nxt] is None:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        rows.append(tuple(dist))
    return DistanceMatrix(tuple(rows))


def _gated_distances(H: Hypergraph, message: str) -> DistanceMatrix:
    """``H.distances``, once ``H.connected`` holds; raises
    ``Disconnected(message)`` otherwise, before any all-pairs work. Each
    solver passes this gate before it first reads the matrix."""
    if not H.connected:
        raise Disconnected(message)
    return H.distances


def distance_to_set(D: DistanceMatrix, v: int, S: Iterable[int]) -> int | None:
    """min over members of S; None when none is reachable."""
    members = list(S)
    if not members:
        raise EmptySet("distance to the empty set is undefined")
    if not 0 <= v < D.size:
        raise VertexOutOfRange(f"vertex id {v}")
    best: int | None = None
    for s in members:
        if not 0 <= s < D.size:
            raise VertexOutOfRange(f"vertex id {s}")
        d = D.entries[v][s]
        if d is not None and (best is None or d < best):
            best = d
    return best


def representation(
    D: DistanceMatrix, v: int, landmarks: Sequence[Iterable[int]]
) -> tuple[int | None, ...]:
    """Distance tuple of v with respect to an ordered list of vertex sets.

    Singleton landmarks model resolving sets; whole classes model resolving
    partitions.
    """
    return tuple(distance_to_set(D, v, landmark) for landmark in landmarks)


def eccentricity_and_diameter(
    D: DistanceMatrix,
) -> tuple[tuple[int, ...], int, tuple[int, int]]:
    """Per-vertex eccentricities, the diameter, and one diametral pair
    (the lexicographically first pair u <= v realizing the diameter).

    That pair is u, the first vertex of maximum eccentricity, and v, the
    first vertex at distance ``diameter`` from u. A vertex before u has
    smaller eccentricity, so it is in no diametral pair. A vertex at
    distance ``diameter`` from u has maximum eccentricity too, so it is u
    itself or comes after u, and v is the least of them."""
    if not D.connected:
        raise Disconnected("eccentricity is undefined on disconnected hypergraphs")
    ecc = tuple(max(row) for row in D.entries)
    diameter = max(ecc)
    u = ecc.index(diameter)
    return ecc, diameter, (u, D.entries[u].index(diameter))
