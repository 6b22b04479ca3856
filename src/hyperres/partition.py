"""Resolving-partition certificates, the twin-class lower bound, and exact
partition dimension.

The solver walks unordered partitions into exactly t classes as
restricted-growth sequences, in lexicographic order, for t increasing from
the lower bound; the first resolving assignment is the certificate. Two
cuts keep the walk small, and both keep the first resolving assignment, so
values and certificates are those of the plain enumeration (proofs in
``_resolving_assignments``).

Twin order. Twin vertices (vertices in exactly the same edges) are
interchangeable, so a plain walk visits every swap of two of them. Lex-leader
symmetry breaking (Crawford et al. 1996, *Symmetry-breaking predicates for
search problems*) keeps only assignments whose block labels strictly
increase along each twin class in vertex order: the least member of every
twin-swap orbit.

Dead pairs. The walk carries each open block's distance column. Once two
placed vertices have equal distances to the open blocks and no later vertex
can ever tell them apart, no completion resolves, and the subtree is
dropped. At the last vertex this is the resolve check itself. On twin-free
random 3-uniform hypergraphs with 14 vertices, ``pd`` fell from 10-12.5 s to
0.02-0.05 s, and C(10,3) from 7.0 s to 1 ms (Python 3.11, one run each on a
shared 2-vCPU VM).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .core import Hypergraph, is_sperner
from .errors import CapExceeded, Disconnected, NotAPartition, NotSperner
from .metric import DistanceMatrix

# The walk is exponential in the worst case; refuse above this many vertices.
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


def _resolving_assignments(
    rows: Sequence[Sequence[int]], t: int, class_id: Sequence[int]
):
    """Yield the block assignments (vertex -> block) of the vertices of a
    connected distance matrix ``rows`` to exactly t unordered blocks that
    resolve it, as restricted-growth sequences in lexicographic order,
    keeping only those whose block labels strictly increase along each twin
    class (vertices with equal ``class_id``) in vertex order. The yielded
    list is reused; callers must copy before storing.

    Why twin order changes no certificate. Call the walk that keeps twins
    apart but breaks no symmetry the plain one.

    1. Swapping twins u and v maps a resolving assignment to a resolving
       one: twins have equal distance rows, and a vertex's distance to a
       block depends only on its members, so the swap permutes the tuples.
    2. Let A resolve, let u < v be consecutive members of one twin class,
       and let A[v] < A[u]. A[u] is u's new block or an older one, so both
       were open before u. Swap u and v and relabel blocks by first
       appearance: the result A' resolves, agrees with A before u and holds
       A[v] < A[u] at u, so A' < A.
    3. So the plain walk's first resolving assignment breaks no twin
       order (else its A' would come earlier), and every twin-swap orbit
       keeps its least member.

    Why cutting dead pairs is exact. A block's column is every vertex's
    distance to it, the elementwise minimum of its members' rows; each
    depth keeps its own list of open columns, so backtracking restores
    them. After vertex i is placed, let u, v <= i have equal tuples over
    the open blocks, and let c be the largest value in them once all t
    blocks are open, infinity before. A later x put in block B, whose value
    for the pair is c_B <= c, turns it into min(c_B, d(u,x)) and
    min(c_B, d(v,x)); unopened blocks start at infinity. Both stay equal
    when d(u,x) = d(v,x) or both are >= c, and values only shrink. So if
    every later x is of that kind the pair is dead: it collides in every
    completion, and the subtree is dropped. That holds exactly when the
    vertices' keys, the tuple plus the row suffix d(v, i+1..m-1) capped at
    c, are equal. At i = m - 1 the suffix is empty and the test is the
    resolve check itself. Only subtrees without a resolving leaf are cut
    and the order is kept, so the walk yields exactly the resolving
    twin-ordered assignments of the plain walk, in order.

    The walk is an explicit-stack loop, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    m = len(rows)
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
    columns: list[list[Sequence[int]]] = [[]] * m  # open columns after i
    i = 0
    while i >= 0:
        b = nxt[i]
        blocks = opened[i]
        if b > blocks or b == t:
            i -= 1
            continue
        nxt[i] = b + 1
        assign[i] = b
        here = columns[i - 1].copy() if i else []
        if b == blocks:
            here.append(rows[i])
            blocks += 1
        else:
            here[b] = tuple(map(min, here[b], rows[i]))
        if _has_dead_pair(rows, here, i, blocks == t):
            continue
        if i + 1 == m:
            yield assign
            continue
        columns[i] = here
        i += 1
        opened[i] = blocks
        if blocks + m - i == t:
            # every remaining vertex must open a block of its own, which
            # twin order always allows
            nxt[i] = blocks
        else:
            u = prev_twin[i]
            nxt[i] = assign[u] + 1 if u >= 0 else 0


def _has_dead_pair(
    rows: Sequence[Sequence[int]],
    columns: Sequence[Sequence[int]],
    i: int,
    all_open: bool,
) -> bool:
    """Whether two of the vertices 0..i have equal keys (see
    ``_resolving_assignments``). Distances are symmetric, so the later
    rows, read at v, give v's row suffix."""
    placed = i + 1
    later = rows[placed:]
    if not all_open or not later:
        return len(set(islice(zip(*columns, *later), placed))) < placed
    keys = set()
    for v, rep in enumerate(islice(zip(*columns), placed)):
        c = max(rep)
        key = (rep, tuple([d if d < c else c for d in rows[v][placed:]]))
        if key in keys:
            return True
        keys.add(key)
    return False


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

    for t in range(start, H.m + 1):
        assign = next(_resolving_assignments(D.entries, t, class_id), None)
        if assign is not None:
            classes = [set() for _ in range(t)]
            for v, b in enumerate(assign):
                classes[b].add(v)
            return t, PartitionCertificate.of(
                D, tuple(frozenset(c) for c in classes)
            )
    raise AssertionError("the all-singletons partition always resolves")
