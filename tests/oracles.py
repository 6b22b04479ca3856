"""Independent brute-force oracles.

These deliberately avoid the package's computation paths: distances come
from breadth-first search over alternating vertex-edge sequences (not
middle-graph adjacency), the dimension oracles enumerate without twin
reduction or pruning, and partition validity compares every vertex pair,
not just same-class pairs.
"""

from itertools import combinations, product


def oracle_distances(H):
    """All-pairs alternating-path distances; None when unreachable."""
    m = H.m
    out = []
    for source in range(m):
        dist = [None] * m
        dist[source] = 0
        frontier = {source}
        steps = 0
        while frontier:
            steps += 1
            reached = set()
            for edge in H.edges:
                if any(v in frontier for v in edge):
                    reached |= edge
            frontier = set()
            for v in reached:
                if dist[v] is None:
                    dist[v] = steps
                    frontier.add(v)
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


def all_partitions(items):
    """Every set partition of items, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield smaller + [[first]]


def _partition_resolves(dist, m, classes):
    """Every vertex gets a distinct tuple of distances to the classes.
    Distances are symmetric, so a class's coordinate for every vertex is the
    elementwise minimum of its members' rows."""
    columns = [
        dist[cls[0]] if len(cls) == 1 else list(map(min, *(dist[x] for x in cls)))
        for cls in classes
    ]
    return len(set(zip(*columns))) == m


def oracle_partition_dimension(H):
    """Minimum class count over all resolving partitions, no pruning."""
    dist = oracle_distances(H)
    m = H.m
    best = m
    for classes in all_partitions(range(m)):
        if len(classes) < best and _partition_resolves(dist, m, classes):
            best = len(classes)
    return best


def oracle_twin_class_ids(H):
    """One id per vertex; equal ids exactly for vertices in the same edges."""
    ids = {}
    return [
        ids.setdefault(tuple(v in edge for edge in H.edges), len(ids))
        for v in range(H.m)
    ]


def reference_rgs_assignments(m, t, class_id):
    """Every restricted-growth assignment of m vertices to exactly t blocks
    that keeps twins (equal class ids) apart, in lexicographic order, with
    no symmetry breaking. This is the partition solver's enumeration before
    it learned twin order, kept as the reference its certificates must
    match. Yields fresh lists."""
    assign = [0] * m
    used_twins = [set() for _ in range(t)]

    def rec(i, blocks):
        if i == m:
            if blocks == t:
                yield list(assign)
            return
        if blocks + (m - i) < t:
            return
        cid = class_id[i]
        for b in range(min(blocks + 1, t)):
            if b < blocks and cid in used_twins[b]:
                continue
            assign[i] = b
            used_twins[b].add(cid)
            yield from rec(i + 1, blocks + (b == blocks))
            used_twins[b].discard(cid)

    yield from rec(0, 0)


def reference_first_resolving_partition(H):
    """Classes of the first resolving assignment of the reference
    enumeration, for the smallest class count that has one."""
    dist = oracle_distances(H)
    m = H.m
    class_id = oracle_twin_class_ids(H)
    for t in range(1, m + 1):
        for assign in reference_rgs_assignments(m, t, class_id):
            classes = [[] for _ in range(t)]
            for v, b in enumerate(assign):
                classes[b].append(v)
            if _partition_resolves(dist, m, classes):
                return [frozenset(c) for c in classes]
    raise AssertionError("the all-singletons partition always resolves")
