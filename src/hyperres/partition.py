"""Resolving-partition certificates, the twin-class lower bound, and exact
partition dimension.

The solver walks unordered partitions into exactly t classes as
restricted-growth sequences, in lexicographic order, for t increasing from
the larger of the twin bound and a family bound (``_search_start``:
non-paths, hyperstars, hypercycles); the first resolving assignment is the
certificate. Two cuts keep the walk small, and both keep the first
resolving assignment, so values and certificates are those of the plain
enumeration (proofs in ``_resolving_assignments``).

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

The walk charges each vertex it places to a work-budget record
(``errors._Budget``), which raises ``CapExceeded`` with the bound the solver
proved once the budget is spent.
"""

from __future__ import annotations

from itertools import islice, repeat
from math import comb
from typing import Hashable, Iterable, Sequence

from .core import Hypergraph
from .errors import DEFAULT_BUDGET, Disconnected, NotAPartition, _Budget
from .metric import Certificate, _gated_distances


_UNDEFINED = "partition dimension is defined on connected hypergraphs"


def is_resolving_partition(
    H: Hypergraph, classes: Sequence[Iterable[int]]
) -> Certificate:
    """Certificate for whether the given class list resolves H, with
    landmarks the classes in order."""
    normalized = tuple(frozenset(cls) for cls in classes)
    if any(not cls for cls in normalized):
        raise NotAPartition("partition classes must be nonempty")
    union: set[int] = set()
    total = 0
    for cls in normalized:
        union |= cls
        total += len(cls)
    # 1.0 equals the id 1 but indexes no list
    ints = all(map(isinstance, union, repeat(int)))
    if union != set(range(H.m)) or total != H.m or not ints:
        raise NotAPartition("classes must partition the vertex set exactly")
    message = "resolving partitions are defined on connected hypergraphs"
    return Certificate.of(_gated_distances(H, message), normalized)


def pd_lower_bound(H: Hypergraph) -> int:
    """s + 1 for s the largest twin-class size, or s when one twin class is
    all of V. H may be Sperner or not; on a disconnected H, where pd is
    undefined, it raises ``Disconnected``. On one edge, where every vertex
    is a twin of every other, the bound is the vertex count. Let t be the
    size of a resolving partition.

    1. Twins have equal distances to every other vertex (see
       ``metric.distance_matrix``), so two twins in one block have equal
       representations. They lie in distinct blocks, and t >= s.
    2. Let C be a largest class, C != V. Some edge e in C's signature holds
       a vertex w not in C. Otherwise every such edge equals C, no other
       edge meets C, C is a component, and connectivity gives C = V.
    3. At t = s each block holds exactly one member of C. Take the member u
       in w's block. Every other block holds a member of C, which lies in
       e, and so do u and w: both are at distance 1 from every other block
       and 0 from their own. So r(u) = r(w), and t = s is refuted.
    """
    if not H.connected:
        raise Disconnected(_UNDEFINED)
    s = H.twins.largest_class_size()
    return s + (s < H.m)


def _search_start(H: Hypergraph) -> int:
    """A lower bound on the partition dimension of a connected hypergraph H,
    from its family: every t below it is refuted without a search. It
    reads only ``H.edges``, ``H.incidence`` and, once every vertex lies in
    at most two edges, ``H.intersection_graph``, so it costs O(m + Σ|e|)
    and builds neither the distance matrix nor the middle graph G: a
    vertex's degree in G is the size of the union of its edges, less
    itself. Resolvability depends
    only on distances, and G has the distances of H, so graph results carry
    over. A private vertex lies in one edge only; the privates of an edge
    are twins, so a resolving partition puts them in distinct blocks, and
    a private's neighbours are the rest of its edge.

    Hyperstar: n-uniform, n >= 3, k >= 2 edges that all contain one vertex
    c and meet nowhere else. Given a vertex c in all k edges, the petals
    e - {c} hold k(n - 1) members in all and cover the other m - 1
    vertices, so they are disjoint exactly when m = k(n - 1) + 1. Bound:
    the least t with C(t, n - 1) >= k.

    1. The n - 1 privates of e_i lie in distinct blocks, so M_i, the set
       of blocks meeting e_i, holds the block C of c and has n - 1 or n
       members. If it has n, the privates fill M_i - {C}; if n - 1, they
       fill M_i. Either way they fill M_i - {C}, which n >= 3 makes
       nonempty. There are C(t - 1, n - 2) + C(t - 1, n - 1) = C(t, n - 1)
       such sets.
    2. A private of e_i in block X is at distance 0 from X, 1 from every
       block of M_i - {X}, and 2 from every other block: each vertex
       outside e_i is two steps away, through c.
    3. If M_i = M_j for i != j, take X in M_i - {C}: privates of e_i and
       e_j in X have equal representations by 2. So i -> M_i is injective
       and k <= C(t, n - 1).

    Hypercycle: n-uniform, k >= n >= 4, the edge-intersection graph a
    cycle (every edge meets two others; H is connected) and linear. A
    cycle of k >= 4 edges has no triangle, so no vertex lies in three
    edges, and kn = m + the number of vertices in two edges. Each of the k
    meeting pairs shares at least one of those, so the pairs share one
    vertex each exactly when m = kn - k. Then edge e_i holds two
    connectors, c_i in e_{i-1} and c_{i+1} in e_{i+1}, and n - 2 privates.
    Bound: n. Take a resolving t-partition with t <= n - 1.

    (a) Each vertex of e_i is at distance at most 1 from every block that
        meets e_i, so two vertices of e_i in one block are told apart only
        by a block that avoids e_i. Since |e_i| = n > t, two share a
        block, so some block avoids e_i. The privates fill n - 2 other
        blocks, so t = n - 1, exactly one block, B_i, avoids e_i, and each
        connector shares a block with a private of e_i.
    (b) Let a = d(c_i, B_i) and b = d(c_{i+1}, B_i). A private p of e_i
        has d(p, B_i) = 1 + min(a, b), as its paths leave e_i through a
        connector. A connector and the private in its block agree on every
        block but B_i, so a != 1 + min(a, b) != b. Adjacent vertices have
        |a - b| <= 1, so a = b.
    (c) Blocks are nonempty, so no block avoids every edge. If e_i and
        e_{i+1} both avoid B, take a maximal run e_L..e_R of edges avoiding
        B, with R > L: d(c_L, B) = 1, since c_L lies in e_{L-1}, which
        meets B, and d(c_{L+1}, B) >= 2, since all its neighbours lie in
        e_L or e_{L+1}. That breaks (b) at e_L, so B_{i+1} != B_i, and a
        private of e_i in block X has 0 at X, 2 at B_i (a = 1, as c_i lies
        in e_{i-1}, which meets B_i) and 1 elsewhere.
    (d) If B_i = B_j for i != j, e_i and e_j both have privates in every
        other block, and two such privates in one block collide by (c).
        So i -> B_i is injective and k <= t = n - 1 < n, a contradiction.

    Any other input: 3 unless G is a path, where pd is 2 (1 on one
    vertex). One block resolves only one vertex, and two blocks only a path
    (Chartrand, Salehi & Zhang 2000, *The partition dimension of a
    graph*). Proof: let {A, B} resolve G. The vertices of A differ only in
    their distance to B, and G is connected, so A has one vertex a_j at
    each distance j = 1..|A| from B; likewise B has one b_j at each
    distance j from A. Adjacent vertices' distances differ by at most 1,
    so a_j meets only a_{j-1} and a_{j+1}, a_1 meets only b_1 in B, and G
    is the path a_|A| .. a_1 b_1 .. b_|B|. G is connected, so it is a path
    exactly when it has m - 1 edges and no vertex of degree above 2. Three
    vertices of one edge are a triangle of G, which a path has not, so
    only inputs whose edges have at most two vertices have degrees to read.
    """
    k, m, edges, incidence = H.k, H.m, H.edges, H.incidence
    sizes = {len(e) for e in edges}
    if len(sizes) == 1:
        n = sizes.pop()
        if n >= 3 and k >= 2 and m == k * (n - 1) + 1 and any(
            len(row) == k for row in incidence
        ):
            t = n
            while comb(t, n - 1) < k:
                t += 1
            return t
        if (
            k >= n >= 4
            and m == k * (n - 1)
            and all(len(row) <= 2 for row in incidence)
            and all(len(nbrs) == 2 for nbrs in H.intersection_graph)
        ):
            return n
    if max(map(len, edges), default=0) > 2:
        return 3
    degrees = [
        len({v}.union(*map(edges.__getitem__, row))) - 1
        for v, row in enumerate(incidence)
    ]
    if max(degrees) <= 2 and sum(degrees) == 2 * (m - 1):
        return min(m, 2)
    return 3


def _resolving_assignments(
    rows: Sequence[Sequence[int]], t: int, class_id: Sequence[Hashable], work: _Budget
):
    """Yield the block assignments (vertex -> block) of the vertices of a
    connected distance matrix ``rows`` to exactly t unordered blocks that
    resolve it, as restricted-growth sequences in lexicographic order,
    keeping only those whose block labels strictly increase along each twin
    class (vertices with equal ``class_id`` entries, any hashable ids) in
    vertex order. The yielded list is the walk's state: callers must not
    modify it and must copy it before storing.

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

    Why the tails find the equal keys. While a block is unopened, c is
    infinity and a key is the tuple plus the plain suffix: one set over
    the zipped columns and later rows compares them. Once all t blocks are
    open, keys can only be equal where tuples are, so one set of the
    tuples settles the node when they all differ. Within a group of equal
    tuples with largest value c, let tail_c(u, v) be 1 + the last x with
    d(u,x) != d(v,x) and min(d(u,x), d(v,x)) < c, or 0 if there is none.
    The capped values min(d(u,x), c) and min(d(v,x), c) differ exactly at
    such x: if both distances are >= c both cap to c, and if the smaller
    is below c it is kept, while the other becomes itself or c, both
    larger. So
    the capped suffixes from i + 1 on are equal, and the keys with them,
    exactly when tail_c(u, v) <= i + 1. A tail depends on u, v and c but
    not on the node, so the walk keeps each one it computes, and computes
    it only for a pair whose tuples collide: no m * m table is built.

    The walk is an explicit-stack loop, so its depth is not bounded by the
    interpreter's recursion limit. Its per-depth state is ``assign[i]``, the
    last block label tried for vertex i (on the current path, the block
    vertex i is in), and ``columns[i]``, the open columns before vertex i,
    one per block in use. Descending to vertex i sets ``assign[i]`` to -1,
    to one below the next new block when every remaining vertex must open
    one, or to ``assign[u]`` for u the previous member of i's twin class,
    so the next label tried is the first one allowed.

    Placing vertex i charges ``(i + 1) * m`` units to ``work.left``, the
    size of the keys of vertices 0..i: an upper bound on the distances the
    test reads, so the charge depends on the node only, not on which
    branch of the test settles it. Once ``work.left`` is negative,
    ``work`` raises ``CapExceeded`` out of the walk.
    """
    m = len(rows)
    if not 0 < t <= m:
        return
    prev_twin = [-1] * m
    last: dict[Hashable, int] = {}
    for v, cid in enumerate(class_id):
        prev_twin[v] = last.get(cid, -1)
        last[cid] = v
    assign = [-1] * m  # last block label tried for vertex i
    columns: list[list[Sequence[int]]] = [[]] * m  # open before vertex i
    tails: dict[tuple[int, int, int], int] = {}  # see _has_dead_pair
    i = 0
    while i >= 0:
        b = assign[i] + 1
        blocks = len(columns[i])
        if b > blocks or b == t:
            i -= 1
            continue
        assign[i] = b
        work.left -= (i + 1) * m
        if work.left < 0:
            work.exhausted()
        here = columns[i].copy()
        if b == blocks:
            here.append(rows[i])
            blocks += 1
        else:
            here[b] = tuple(map(min, here[b], rows[i]))
        if _has_dead_pair(rows, here, i, blocks == t, tails):
            continue
        if i + 1 == m:
            yield assign
            continue
        i += 1
        columns[i] = here
        if blocks + m - i == t:
            # every remaining vertex must open a block of its own, which
            # twin order always allows
            assign[i] = blocks - 1
        else:
            u = prev_twin[i]
            assign[i] = assign[u] if u >= 0 else -1


def _has_dead_pair(
    rows: Sequence[Sequence[int]],
    columns: Sequence[Sequence[int]],
    i: int,
    all_open: bool,
    tails: dict[tuple[int, int, int], int],
) -> bool:
    """Whether two of the vertices 0..i have equal keys (see
    ``_resolving_assignments``), read without building them. Distances are
    symmetric, so the later rows, read at v, give v's row suffix. Once all
    blocks are open, only vertices with equal tuples are compared, by their
    tails, which ``tails`` keeps for the walk."""
    placed = i + 1
    if not all_open:
        return len(set(islice(zip(*columns, *rows[placed:]), placed))) < placed
    reps = list(islice(zip(*columns), placed))
    if len(set(reps)) == placed:
        return False
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, rep in enumerate(reps):
        group = groups.setdefault(rep, [])
        if group:
            c = max(rep)
            for u in group:
                tail = tails.get((u, v, c))
                if tail is None:
                    tail = tails[u, v, c] = _tail(rows[u], rows[v], c)
                if tail <= placed:
                    return True
        group.append(v)
    return False


def _tail(row_u: Sequence[int], row_v: Sequence[int], c: int) -> int:
    """1 + the last x with d(u,x) != d(v,x) and min(d(u,x), d(v,x)) < c, or
    0 when there is none: u and v have equal suffixes capped at c from
    position p on exactly when this is at most p."""
    x = len(row_u)
    for du, dv in zip(reversed(row_u), reversed(row_v)):
        if du != dv and (du < c or dv < c):
            return x
        x -= 1
    return 0


def partition_dimension(
    H: Hypergraph, budget: int = DEFAULT_BUDGET
) -> tuple[int, Certificate]:
    """Exact partition dimension with a certificate for the first minimum
    resolving partition in restricted-growth order. Twins are keyed by
    their class ids (``H.twins.class_of``). Raises ``CapExceeded`` when
    the walk costs more than ``budget`` units; every t below the one it
    was walking is refuted by then, by the walk, the twin bound or
    ``_search_start``, so the message states pd >= t. Raises
    ``ValueError`` for a negative budget."""
    work = _Budget(budget, "partition", "pd")
    rows = _gated_distances(H, _UNDEFINED)
    if H.m == 1:
        return 1, Certificate.of(rows, [[0]])

    for t in range(max(pd_lower_bound(H), _search_start(H)), H.m + 1):
        work.proved = t
        assign = next(_resolving_assignments(rows, t, H.twins.class_of, work), None)
        if assign is not None:
            classes = [set() for _ in range(t)]
            for v, b in enumerate(assign):
                classes[b].add(v)
            return t, Certificate.of(rows, classes)
    raise AssertionError("the all-singletons partition always resolves")
