"""Independent brute-force oracles.

These deliberately avoid the package's computation paths: distances come
from breadth-first search over alternating vertex-edge sequences (not
middle-graph adjacency), the dimension oracles enumerate without twin
reduction or pruning, and partition validity compares every vertex pair,
not just same-class pairs.
"""

from itertools import combinations, product
from operator import add, itemgetter

from hyperres import EmptyFile


def oracle_distances(H):
    """All-pairs alternating-path distances; None when unreachable. The
    search from each source alternates vertices and edges: level s crosses
    the edges through the vertices reached at level s - 1 that no earlier
    level crossed, so each edge is expanded once per source."""
    m = H.m
    through = [[] for _ in range(m)]
    for i, edge in enumerate(H.edges):
        for v in edge:
            through[v].append(i)
    out = []
    for source in range(m):
        dist = [None] * m
        dist[source] = 0
        crossed = set()
        frontier = [source]
        steps = 0
        while frontier:
            steps += 1
            reached = []
            for v in frontier:
                for i in through[v]:
                    if i in crossed:
                        continue
                    crossed.add(i)
                    for w in H.edges[i]:
                        if dist[w] is None:
                            dist[w] = steps
                            reached.append(w)
            frontier = reached
        out.append(dist)
    return out


def _subset_resolves(dist, m, W):
    reps = set()
    for v in range(m):
        if v in W:
            continue
        reps.add(tuple(dist[v][w] for w in W))
    return len(reps) == m - len(W)


def oracle_metric_dimension(H):
    """Smallest resolving set size, trying every vertex subset by size."""
    dist = oracle_distances(H)
    m = H.m
    for size in range(m):
        for W in combinations(range(m), size):
            if _subset_resolves(dist, m, set(W)):
                return size
    return m - 1


def oracle_certificate(H, landmarks):
    """Each vertex's tuple of distances to the landmark sets, and the first
    pair (u, v) with u < v and equal tuples in lexicographic order, found by
    comparing every pair; None when all tuples differ."""
    dist = oracle_distances(H)
    reps = {
        v: tuple(min(dist[v][x] for x in landmark) for landmark in landmarks)
        for v in range(H.m)
    }
    for u, v in combinations(range(H.m), 2):
        if reps[u] == reps[v]:
            return reps, (u, v)
    return reps, None


def reference_certificate(distances, landmarks):
    """``Certificate.of`` before it zipped its columns and skipped the pair
    scan when all representations differ: one generator per vertex builds
    its tuple, and one pass over every vertex keeps the least colliding
    pair. Returns (landmarks, representations, conflict)."""
    landmarks = tuple(map(frozenset, landmarks))
    columns = []
    for landmark in landmarks:
        rows = [distances[x] for x in landmark]
        columns.append(rows[0] if len(rows) == 1 else tuple(map(min, *rows)))
    reps = {v: tuple(col[v] for col in columns) for v in range(len(distances))}
    first = {}
    conflict = None
    for v, rep in reps.items():
        u = first.setdefault(rep, v)
        if u != v and (conflict is None or (u, v) < conflict):
            conflict = (u, v)
    return landmarks, reps, conflict


def oracle_count_minimum_bases(H):
    dist = oracle_distances(H)
    m = H.m
    dim = oracle_metric_dimension(H)
    return sum(
        1 for W in combinations(range(m), dim) if _subset_resolves(dist, m, set(W))
    )


def _reference_search(H):
    """The metric solver's F-plus-S search before it learned to cut
    non-resolving prefixes: every subset S of the twin-class
    representatives, by increasing size and lexicographic within a size, is
    tested with the all-vertices check. Returns the twin classes, the forced
    set F and every resolving S of the first size that has one, in search
    order."""
    dist = oracle_distances(H)
    m = H.m
    classes = {}
    for v, cid in enumerate(oracle_twin_class_ids(H)):
        classes.setdefault(cid, []).append(v)
    reps = sorted(members[0] for members in classes.values())
    forced = sorted(v for members in classes.values() for v in members[1:])
    for size in range(len(reps) + 1):
        found = [
            S
            for S in combinations(reps, size)
            if _subset_resolves(dist, m, set(forced) | set(S))
        ]
        if found:
            return list(classes.values()), forced, found
    raise AssertionError("the full vertex set always resolves")


def reference_metric_dimension(H):
    """Landmarks of the first minimum basis of the unpruned search."""
    _, forced, found = _reference_search(H)
    return tuple(sorted(forced + list(found[0])))


def reference_minimum_extras(H):
    """Every minimum resolving S of the unpruned search, in search order."""
    return _reference_search(H)[2]


def reference_count_minimum_bases(H):
    """Distinct swap variants of the unpruned search's minimum F-plus-S
    sets: a class whose representative is outside S drops any one member,
    the other classes stay whole."""
    classes, _, found = _reference_search(H)
    bases = set()
    for S in found:
        pools = [members for members in classes if members[0] not in S]
        whole = [v for members in classes if members[0] in S for v in members]
        for drops in product(*pools):
            dropped = set(drops)
            bases.add(
                frozenset(whole)
                | {v for members in pools for v in members if v not in dropped}
            )
    return len(bases)


def reference_unresolved_masks(entries, forced, reps, span):
    """The vertex-level mask build the resolving-set search used before it
    read one row per twin class: every one of the m vertices is grouped by
    its distance tuple to the forced set F, read off its row of
    ``entries``, and each representative's mask is read off its row at the
    group members. Returns ``nr``, one mask per representative, and the
    mask of all open pairs; ``span`` exceeds every entry."""
    groups = {}
    key = itemgetter(*forced) if forced else (lambda row: None)
    for v, row in enumerate(entries):
        groups.setdefault(key(row), []).append(v)
    # group g's buckets are keyed distance + g * span, one key per distance
    members, offsets, bits, nbytes, rows = [], [], [], [], []
    for g, group in enumerate(x for x in groups.values() if len(x) > 1):
        s = len(group)
        nbytes.append((s + 7) // 8)
        for a, v in enumerate(group):
            members.append(v)
            offsets.append(g * span)
            bits.append(1 << a)
            rows.append(((1 << s) - (2 << a)).to_bytes(nbytes[g], "little"))
    if not members:
        return [0] * len(reps), 0
    full = int.from_bytes(b"".join(rows), "little")
    column = itemgetter(*members)
    nr = []
    for x in reps:
        keys = list(map(add, offsets, column(entries[x])))
        buckets = dict.fromkeys(keys, 0)
        for k, b in zip(keys, bits):
            buckets[k] |= b
        row = {k: m.to_bytes(nbytes[k // span], "little") for k, m in buckets.items()}
        nr.append(int.from_bytes(b"".join(map(row.__getitem__, keys)), "little"))
    return nr, full


def all_partitions(items):
    """Every set partition of the vertex ids in items, each class given as
    the bitmask of its members."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = 1 << items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [first | smaller[i]] + smaller[i + 1 :]
        yield smaller + [first]


class _Columns(dict):
    """Each class's column, keyed by the bitmask of its members and computed
    on first use: a walk over partitions meets each class in many of them.
    Distances are symmetric, so a column is the elementwise minimum of the
    members' rows."""

    def __init__(self, dist):
        self.dist = dist

    def __missing__(self, mask):
        rows = [row for v, row in enumerate(self.dist) if mask >> v & 1]
        column = self[mask] = rows[0] if len(rows) == 1 else list(map(min, *rows))
        return column


def _partition_resolves(masks, columns):
    """Every vertex gets a distinct tuple of distances to the classes, given
    as member bitmasks."""
    return len(set(zip(*map(columns.__getitem__, masks)))) == len(columns.dist)


def oracle_partition_dimension(H):
    """Minimum class count over all resolving partitions, no pruning."""
    best = H.m
    columns = _Columns(oracle_distances(H))
    for classes in all_partitions(range(H.m)):
        if len(classes) < best and _partition_resolves(classes, columns):
            best = len(classes)
    return best


def oracle_twin_class_ids(H):
    """One id per vertex; equal ids exactly for vertices in the same edges."""
    ids = {}
    return [
        ids.setdefault(tuple(v in edge for edge in H.edges), len(ids))
        for v in range(H.m)
    ]


def reference_twin_classes(H):
    """The twin classes as dicts keyed by incidence signature, in order of
    first appearance: (members as a frozenset, excess, representative,
    forced set), computed by grouping vertex ids one at a time. The excess
    is a class's size minus one, the representative its least member, and
    the forced set every vertex but the representatives. The tests compare
    ``TwinClassPartition``'s ``members`` and ``signatures`` with these, and
    the ``classes`` reply, which writes the last three from the table."""
    by_sig = {}
    for v, sig in enumerate(H.incidence):
        by_sig.setdefault(sig, []).append(v)
    classes = dict(zip(by_sig, map(frozenset, by_sig.values())))
    excess = {sig: len(vs) - 1 for sig, vs in by_sig.items()}
    representatives = {sig: vs[0] for sig, vs in by_sig.items()}
    forced = frozenset(range(H.m)).difference(representatives.values())
    return classes, excess, representatives, forced


def reference_rgs_assignments(m, t, class_id):
    """Every restricted-growth assignment of m vertices to exactly t blocks
    that keeps twins (equal class ids) apart, in lexicographic order, with
    no symmetry breaking. This is the partition solver's enumeration before
    it learned twin order, kept as the reference its certificates must
    match. A depth-first walk on an explicit stack: each entry holds a
    vertex, the number of blocks opened before it and an iterator over its
    untried blocks. Yields fresh lists."""
    if m == 0:
        if t == 0:
            yield []
        return
    assign = [0] * m
    used_twins = [set() for _ in range(t)]
    stack = [(0, 0, iter(range(min(1, t))))]
    while stack:
        i, blocks, untried = stack[-1]
        b = next(untried, None)
        if b is None:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                used_twins[assign[parent]].discard(class_id[parent])
            continue
        if b < blocks and class_id[i] in used_twins[b]:
            continue
        assign[i] = b
        opened = blocks + (b == blocks)
        if i == m - 1:
            if opened == t:
                yield list(assign)
        elif opened + (m - 1 - i) >= t:
            used_twins[b].add(class_id[i])
            stack.append((i + 1, opened, iter(range(min(opened + 1, t)))))


def _block_masks(assign, t):
    """Each block's members as a bitmask over vertex ids."""
    masks = [0] * t
    for v, b in enumerate(assign):
        masks[b] |= 1 << v
    return masks


def _twin_ordered(assign, class_id):
    """Block labels strictly increase along each twin class, taken in
    vertex order."""
    last = {}
    for v, cid in enumerate(class_id):
        if assign[v] <= last.get(cid, -1):
            return False
        last[cid] = assign[v]
    return True


def reference_resolving_assignments(H, t, twin_order):
    """The reference enumeration's assignments into t blocks that resolve H,
    in order; with ``twin_order``, only those whose block labels strictly
    increase along each twin class in vertex order."""
    columns = _Columns(oracle_distances(H))
    class_id = oracle_twin_class_ids(H)
    return _resolving_assignments_over(columns, class_id, t, twin_order)


def _resolving_assignments_over(columns, class_id, t, twin_order):
    """``reference_resolving_assignments`` over a given column cache and
    twin ids, so a caller that tries several t builds them once."""
    for assign in reference_rgs_assignments(len(class_id), t, class_id):
        if twin_order and not _twin_ordered(assign, class_id):
            continue
        if _partition_resolves(_block_masks(assign, t), columns):
            yield assign


def reference_dead_pair(rows, columns, i, all_open):
    """Whether two of the vertices 0..i have equal keys, the definition the
    partition walk's dead-pair cut tests. A vertex's key is its tuple of
    distances to the open block columns, followed by its distances to the
    later vertices i+1..m-1, capped at the tuple's largest value once all
    blocks are open and uncapped while some block is unopened. One set of
    all keys, rebuilt on every call."""
    placed = i + 1
    keys = set()
    for v in range(placed):
        rep = tuple(column[v] for column in columns)
        suffix = rows[v][placed:]
        if all_open:
            suffix = [min(d, max(rep)) for d in suffix]
        keys.add((rep, tuple(suffix)))
    return len(keys) < placed


def reference_first_resolving_partition(H):
    """Classes of the first resolving assignment of the reference
    enumeration, for the smallest class count that has one. One column
    cache serves every t: a class's column does not depend on t."""
    columns = _Columns(oracle_distances(H))
    class_id = oracle_twin_class_ids(H)
    for t in range(1, H.m + 1):
        for assign in _resolving_assignments_over(columns, class_id, t, False):
            return [
                frozenset(v for v in range(H.m) if mask >> v & 1)
                for mask in _block_masks(assign, t)
            ]
    raise AssertionError("the all-singletons partition always resolves")


# ---------------------------------------------------------------------------
# Family recognition and branches: the exhaustive search over edge subsets
# and orderings that the package used before it tested the edge-intersection
# graph. Exponential in the edge count; use it at k <= 10.


def _reference_pattern_order(edges, idxs, cyclic):
    """First ordering of ``idxs`` (starts and extensions in increasing
    order) whose meeting pairs are exactly the consecutive ones, cyclically
    for cycles; None when there is none."""
    k = len(idxs)
    if k == 1:
        return None if cyclic else (idxs[0],)
    meets = {(a, b): bool(edges[a] & edges[b]) for a in idxs for b in idxs if a != b}

    def extend(prefix, remaining):
        if not remaining:
            if cyclic and not meets[(prefix[-1], prefix[0])]:
                return None
            return tuple(prefix)
        pos = len(prefix)
        for cand in sorted(remaining):
            if not meets[(prefix[-1], cand)]:
                continue
            if all(
                meets[(prefix[earlier], cand)] == (cyclic and earlier == 0 and pos == k - 1)
                for earlier in range(pos - 1)
            ):
                found = extend(prefix + [cand], remaining - {cand})
                if found is not None:
                    return found
        return None

    for start in [idxs[0]] if cyclic else list(idxs):
        found = extend([start], set(idxs) - {start})
        if found is not None:
            return found
    return None


def _reference_distinct_connectors(edges, order):
    """Consecutive cyclic intersections admit pairwise distinct vertices,
    tried by backtracking over every choice."""
    k = len(order)
    pools = [edges[order[i]] & edges[order[(i + 1) % k]] for i in range(k)]

    def assign(i, chosen):
        if i == k:
            return True
        return any(assign(i + 1, chosen | {v}) for v in pools[i] - chosen)

    return assign(0, frozenset())


def _reference_cycle_order(edges, idxs):
    if len(idxs) < 3:
        return None
    order = _reference_pattern_order(edges, idxs, cyclic=True)
    if order is not None and _reference_distinct_connectors(edges, order):
        return order
    return None


def _reference_has_cycle_pattern(edges):
    """Some subset of three or more edges orders into a hypercycle."""
    return any(
        _reference_cycle_order(edges, subset) is not None
        for size in range(3, len(edges) + 1)
        for subset in combinations(range(len(edges)), size)
    )


def reference_classify_family(H):
    """(kind, k, n, center, edge_order, flags) of a connected hypergraph,
    in the fields of ``FamilyDescriptor``; None when H is disconnected."""
    if any(d is None for d in oracle_distances(H)[0]):
        return None
    edges = H.edges
    sizes = {len(e) for e in edges}
    n = sizes.pop() if len(sizes) == 1 else None
    flags = set()
    path_order = _reference_pattern_order(edges, range(H.k), cyclic=False)
    if path_order is not None:
        flags.add("hyperpath")
    cycle_order = _reference_cycle_order(edges, range(H.k))
    if cycle_order is not None:
        flags.add("hypercycle")
    center = reference_star_center(H)
    if center is not None:
        flags.add("hyperstar")
    if H.k == 1:
        flags.add("single-edge")
    if not _reference_has_cycle_pattern(edges):
        flags.add("hypertree")
    precedence = ("single-edge", "hypercycle", "hyperpath", "hyperstar", "hypertree")
    kind = next((f for f in precedence if f in flags), "other")
    edge_order = {"hypercycle": cycle_order, "hyperpath": path_order,
                  "single-edge": path_order}.get(kind)
    return kind, H.k, n, center, edge_order, frozenset(flags)


def reference_branches(H):
    """Every connected proper edge subset with exactly one edge (the joint)
    meeting edges outside it, whose outside overlaps with the joint meet
    pairwise, and with no cycle pattern; as (subset, joint) pairs sorted by
    size, then by sorted members."""
    edges = H.edges
    found = []
    for size in range(1, H.k):
        for subset in combinations(range(H.k), size):
            inside = set(subset)
            reached, frontier = {subset[0]}, [subset[0]]
            while frontier:
                i = frontier.pop()
                for j in inside - reached:
                    if edges[i] & edges[j]:
                        reached.add(j)
                        frontier.append(j)
            if reached != inside:
                continue
            outward = [
                i for i in subset
                if any(edges[i] & edges[j] for j in range(H.k) if j not in inside)
            ]
            if len(outward) != 1:
                continue
            joint = outward[0]
            overlaps = [
                edges[joint] & edges[j]
                for j in range(H.k)
                if j not in inside and edges[joint] & edges[j]
            ]
            if not all(a & b for a, b in combinations(overlaps, 2)):
                continue
            if _reference_has_cycle_pattern([edges[i] for i in subset]):
                continue
            found.append((frozenset(subset), joint))
    return tuple(sorted(found, key=lambda br: (len(br[0]), sorted(br[0]))))


# ---------------------------------------------------------------------------
# Edge-pair scans: the all-pairs definitions that ``core`` replaced with
# scans driven by incidence rows and the edge-intersection graph.


def reference_containment(H):
    """(inner, outer) of the first pair {i, j}, i < j in lexicographic
    order, with one edge inside the other, testing i ⊆ j before j ⊆ i;
    None when no edge lies inside another."""
    for i, j in combinations(range(H.k), 2):
        if H.edges[i] <= H.edges[j]:
            return i, j
        if H.edges[j] <= H.edges[i]:
            return j, i
    return None


def reference_is_linear(H):
    """Every two distinct edges share at most one vertex."""
    return all(len(a & b) <= 1 for a, b in combinations(H.edges, 2))


def reference_pendant_edges(H):
    """(pendant, vacuous) edge index sets. An edge is pendant when its
    overlaps with the edges it meets pairwise meet, every pair of edges
    tested, and vacuous when it meets at most one edge."""
    pendant, vacuous = set(), set()
    for i, edge in enumerate(H.edges):
        overlaps = [
            edge & other for j, other in enumerate(H.edges) if j != i and edge & other
        ]
        if all(a & b for a, b in combinations(overlaps, 2)):
            pendant.add(i)
        if len(overlaps) <= 1:
            vacuous.add(i)
    return frozenset(pendant), frozenset(vacuous)


def reference_star_center(H):
    """The one set that every pairwise intersection equals, when there are
    at least two edges and it is nonempty; otherwise None."""
    intersections = {a & b for a, b in combinations(H.edges, 2)}
    if len(intersections) == 1 and next(iter(intersections)):
        return next(iter(intersections))
    return None


def reference_parse(text):
    """(labels, edges) of a .hg text by the line-by-line, label-by-label
    reading: cut each line at its first ``#``, strip it, skip it when
    blank, split it on whitespace, and number labels by first appearance.
    Raises ``EmptyFile`` when no line holds an edge. No Sperner gate."""
    edge_lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        edge_lines.append(line.split())
    if not edge_lines:
        raise EmptyFile("no hyperedge lines found")
    labels, index, edges = [], {}, []
    for raw in edge_lines:
        members = set()
        for label in raw:
            if label not in index:
                index[label] = len(labels)
                labels.append(label)
            members.add(index[label])
        edges.append(frozenset(members))
    return tuple(labels), tuple(edges)


def reference_format(H):
    """The .hg text of H, label by label: each label must be a nonempty
    token with no whitespace and no ``#``, checked in id order, and every
    vertex must lie in an edge; each edge is one line, its labels in id
    order. Raises ``ValueError`` naming the first label or vertex at
    fault."""
    for label in H.labels:
        token = str(label)
        if not token or "#" in token or any(c.isspace() for c in token):
            raise ValueError(f"label {label!r} cannot be written in .hg format")
    covered = set()
    for edge in H.edges:
        covered |= edge
    for v, label in enumerate(H.labels):
        if v not in covered:
            raise ValueError(
                f"vertex {label!r} in no edge cannot be written in .hg format")
    lines = []
    for edge in H.edges:
        lines.append(" ".join(str(H.labels[v]) for v in sorted(edge)))
    return "\n".join(lines) + "\n"


def reference_primal_pairs(H):
    """The primal multigraph's pairs, edge by edge: the pairs of each
    edge's sorted members, or a loop for a size-one edge."""
    pairs = []
    for edge in H.edges:
        members = sorted(edge)
        if len(members) == 1:
            pairs.append((members[0], members[0]))
        else:
            pairs.extend(combinations(members, 2))
    return tuple(pairs)
