"""Census of every small input against the brute-force oracles.

The inputs are generated here, not sampled: the one-vertex input, every
connected graph on 2-5 vertices and every connected antichain (Sperner
family) on 2-4 vertices, each on the vertex set 0..n-1 and covering it.
Antichains on 2-4 vertices include the graphs on those vertices, which
are checked twice. On each input the solvers must equal the oracles, the
bounds must bracket them, the eccentricities must be those read off the
oracle distances, and ``is_resolving_partition`` must give the oracle
certificate of every set partition of the vertices. Each input is also
read with its edge list and every edge reversed, which relabels the
vertices and permutes the edges at once; the values must not change.
"""

from functools import cache
from itertools import combinations

import pytest

from hyperres import (
    build_hypergraph,
    count_minimum_bases,
    dim_lower_bound,
    eccentricity_and_diameter,
    is_resolving_partition,
    metric_dimension,
    partition_dimension,
    pd_lower_bound,
)
from hyperres.partition import _search_start
from oracles import (
    all_partitions,
    oracle_certificate,
    oracle_count_minimum_bases,
    oracle_distances,
    oracle_metric_dimension,
    oracle_partition_dimension,
)


def _connected(n, edges):
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for edge in edges:
            if v in edge:
                todo.extend(edge - seen)
                seen |= edge
    return len(seen) == n


def _families(n, candidates):
    """Every connected family of the candidate edges covering 0..n-1 in
    which no edge contains another."""
    for mask in range(1, 1 << len(candidates)):
        edges = [e for i, e in enumerate(candidates) if mask >> i & 1]
        if (
            set().union(*edges) == set(range(n))
            and not any(a < b for a in edges for b in edges)
            and _connected(n, edges)
        ):
            yield [sorted(e) for e in edges]


@cache
def census():
    inputs = [[[0]]]
    for n in range(2, 6):
        inputs += _families(n, [frozenset(p) for p in combinations(range(n), 2)])
    for n in range(2, 5):
        subsets = [
            frozenset(c) for r in range(1, n + 1) for c in combinations(range(n), r)
        ]
        inputs += _families(n, subsets)
    return inputs


def test_census_size():
    # 1 + (1 + 4 + 38 + 728) connected graphs + (1 + 5 + 84) antichains,
    # with 39,736 set partitions of their vertices in all
    sizes = [1 + max(map(max, edges)) for edges in census()]
    assert len(sizes) == 862
    assert sum(sum(1 for _ in all_partitions(range(m))) for m in sizes) == 39_736


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_matches_the_oracles(n):
    for edges in census():
        H = build_hypergraph(edges)
        if H.m != n:
            continue
        dim, _ = metric_dimension(H)
        pd, _ = partition_dimension(H)
        count = count_minimum_bases(H)
        assert dim == oracle_metric_dimension(H), edges
        assert pd == oracle_partition_dimension(H), edges
        assert count == oracle_count_minimum_bases(H), edges
        assert dim_lower_bound(H) <= dim, edges
        assert max(pd_lower_bound(H), _search_start(H)) <= pd <= dim + 1, edges
        mirror = build_hypergraph([e[::-1] for e in reversed(edges)])
        assert metric_dimension(mirror)[0] == dim, edges
        assert partition_dimension(mirror)[0] == pd, edges
        assert count_minimum_bases(mirror) == count, edges
        d = oracle_distances(H)
        ecc = tuple(map(max, d))
        diameter = max(ecc)
        first = min((u, v) for u in range(H.m) for v in range(u, H.m)
                    if d[u][v] == diameter)
        assert eccentricity_and_diameter(H) == (ecc, diameter, first), edges
        for masks in all_partitions(range(H.m)):
            classes = [[v for v in range(H.m) if mask >> v & 1] for mask in masks]
            cert = is_resolving_partition(H, classes)
            expected = oracle_certificate(H, classes)
            assert (cert.representations, cert.conflict) == expected, (edges, classes)
