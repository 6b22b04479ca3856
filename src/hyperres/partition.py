"""Resolving-partition certificates, the twin-class lower bound, and exact
partition dimension.

The solver enumerates unordered partitions into exactly t classes via
restricted-growth sequences, in lexicographic order, for t increasing from
the lower bound; the first resolving assignment is the certificate.

Twin vertices (vertices in exactly the same edges) are interchangeable, so
swapping two of them maps a resolving partition to a resolving one, and a
plain enumeration visits every such swap separately. The enumeration breaks
this symmetry lex-leader style (Crawford et al. 1996, *Symmetry-breaking
predicates for search problems*): along each twin class, taken in vertex
order, block labels must strictly increase. That keeps the lexicographically
least member of every twin-swap orbit, including the first resolving
assignment, so values and certificates are those of the plain enumeration
(proof in ``_rgs_assignments``). It also separates twins, which no
resolving partition can put together.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Hypergraph, is_sperner
from .errors import CapExceeded, Disconnected, NotAPartition, NotSperner
from .metric import DistanceMatrix

# Partition counts grow like Bell numbers; refuse above this many vertices.
DEFAULT_VERTEX_CAP = 15


@dataclass(frozen=True)
class PartitionCertificate:
    """A vertex partition with every vertex's distance tuple to the classes.

    Only same-class pairs can collide: a vertex has coordinate 0 exactly at
    its own class, so vertices of different classes always differ.
    ``conflict`` is the lexicographically first unresolved same-class pair.
    """

    classes: tuple[frozenset[int], ...]
    representations: dict[int, tuple[int, ...]]
    valid: bool
    conflict: tuple[int, int] | None

    @classmethod
    def of(
        cls, D: DistanceMatrix, classes: tuple[frozenset[int], ...]
    ) -> PartitionCertificate:
        reps, conflict = D.certify(classes)
        return cls(classes, reps, conflict is None, conflict)


def is_resolving_partition(
    H: Hypergraph, classes: Sequence[Iterable[int]]
) -> PartitionCertificate:
    """Certificate for whether the given class list resolves H."""
    normalized = tuple(frozenset(cls) for cls in classes)
    if any(not cls for cls in normalized):
        raise NotAPartition("partition classes must be nonempty")
    union: set[int] = set()
    total = 0
    for cls in normalized:
        union |= cls
        total += len(cls)
    if union != set(range(H.m)) or total != H.m:
        raise NotAPartition("classes must partition the vertex set exactly")
    D = H.distances
    if not D.connected:
        raise Disconnected(
            "resolving partitions are defined on connected hypergraphs"
        )
    return PartitionCertificate.of(D, normalized)


def pd_lower_bound(H: Hypergraph) -> int:
    """One more than the largest twin-class size; for a single hyperedge the
    bound tightens to the vertex count, because any class with two vertices
    inside the lone edge is unresolvable."""
    if not is_sperner(H):
        raise NotSperner("the partition lower bound requires a Sperner hypergraph")
    if H.k == 1:
        return H.m
    return H.twins.largest_class_size() + 1


def _pair_priority(
    drows: Sequence[Sequence[int]], m: int
) -> list[tuple[int, int]]:
    """Vertex pairs ordered by how few other vertices tell them apart, so
    validity checks hit unresolvable pairs early. The rows are those of a
    connected hypergraph, so u and v themselves always disagree: u's row
    has 0 at u and v's row a positive distance, and the same at v."""

    def disagreements(u: int, v: int) -> int:
        return sum(map(operator.ne, drows[u], drows[v])) - 2

    pairs = list(itertools.combinations(range(m), 2))
    pairs.sort(key=lambda p: disagreements(*p))
    return pairs


def _rgs_assignments(m: int, t: int, class_id: Sequence[int]):
    """Yield block assignments (vertex -> block) for partitions of m vertices
    into exactly t unordered blocks, as restricted-growth sequences in
    lexicographic order, keeping only those whose block labels strictly
    increase along each twin class (vertices with equal ``class_id``) in
    vertex order. The yielded list is reused; callers must copy before
    storing.

    Why no certificate changes. Call the enumeration that only keeps twins
    apart the plain one; this one yields a subsequence of it.

    1. Swapping twins u and v maps a resolving assignment to a resolving
       one. Twins have equal distance rows, and a vertex's distance to a
       class depends only on the class's members, so the swap permutes the
       distance tuples. Twins sharing a block get equal tuples, so only
       assignments that separate twins can resolve.
    2. Let A separate twins, let u < v be consecutive members of one twin
       class, and let A[v] < A[u]. Both blocks were open before u: A[u] is
       u's own new block or an older one, and A[v] is smaller. Swap u and v
       and relabel blocks by first appearance. The result A' is a
       restricted-growth sequence with t blocks that separates twins and
       agrees with A before u. At u, A' holds A[v] < A[u], so A' < A.
    3. The plain enumeration runs in lexicographic order and contains A'.
       So its first resolving assignment F, the certificate returned
       without the rule, breaks no twin order: otherwise the A' of F would
       be an earlier resolving assignment. F is never pruned and is the
       first resolving assignment yielded here.

    The same argument shows that the least member of every twin-swap orbit
    is kept, so every orbit is visited at least once. Vertices with no
    earlier twin are not restricted, and twin separation follows from the
    rule instead of being tracked.

    The search is an explicit-stack loop, so its depth is not bounded by
    the interpreter's recursion limit.
    """
    if not 0 < t <= m:
        return
    prev_twin = [-1] * m
    last: dict[int, int] = {}
    for v, cid in enumerate(class_id):
        prev_twin[v] = last.get(cid, -1)
        last[cid] = v
    assign = [0] * m
    opened = [0] * m  # blocks in use before vertex i
    nxt = [0] * m  # next block label to try for vertex i
    i = 0
    while i >= 0:
        b = nxt[i]
        blocks = opened[i]
        if b > blocks or b == t:
            i -= 1
            continue
        nxt[i] = b + 1
        assign[i] = b
        if b == blocks:
            blocks += 1
        if i + 1 == m:
            yield assign
            continue
        i += 1
        opened[i] = blocks
        if blocks + m - i == t:
            # every remaining vertex must open a block of its own, which
            # twin order always allows
            nxt[i] = blocks
        else:
            u = prev_twin[i]
            nxt[i] = assign[u] + 1 if u >= 0 else 0


def _assignment_resolves(
    drows: Sequence[Sequence[int]],
    assign: Sequence[int],
    t: int,
    pair_priority: Sequence[tuple[int, int]],
) -> bool:
    blocks: list[list[int]] = [[] for _ in range(t)]
    for v, b in enumerate(assign):
        blocks[b].append(v)
    cache: dict[tuple[int, int], int] = {}

    def dist(v: int, b: int) -> int:
        key = (v, b)
        got = cache.get(key)
        if got is None:
            row = drows[v]
            got = min(row[x] for x in blocks[b])
            cache[key] = got
        return got

    for u, v in pair_priority:
        if assign[u] != assign[v]:
            continue
        for b in range(t):
            if dist(u, b) != dist(v, b):
                break
        else:
            return False
    return True


def partition_dimension(
    H: Hypergraph, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> tuple[int, PartitionCertificate]:
    """Exact partition dimension with a certificate for the first minimum
    resolving partition in restricted-growth order."""
    D = H.distances
    if not D.connected:
        raise Disconnected(
            "partition dimension is defined on connected hypergraphs"
        )
    if H.m > vertex_cap:
        raise CapExceeded(
            f"partition search over {H.m} vertices exceeds the cap of "
            f"{vertex_cap}"
        )
    if H.m == 1:
        return 1, PartitionCertificate.of(D, (frozenset({0}),))

    tw = H.twins
    class_id = [0] * H.m
    for i, members in enumerate(tw.classes.values()):
        for v in members:
            class_id[v] = i

    try:
        start = max(pd_lower_bound(H), 2)
    except NotSperner:
        # the +1 strengthening needs the Sperner property; the pigeonhole
        # part (twins pairwise separated) does not
        start = max(tw.largest_class_size(), 2)

    priority = _pair_priority(D.entries, H.m)
    for t in range(start, H.m + 1):
        for assign in _rgs_assignments(H.m, t, class_id):
            if _assignment_resolves(D.entries, assign, t, priority):
                classes = [set() for _ in range(t)]
                for v, b in enumerate(assign):
                    classes[b].add(v)
                return t, PartitionCertificate.of(
                    D, tuple(frozenset(c) for c in classes)
                )
    raise AssertionError("the all-singletons partition always resolves")
