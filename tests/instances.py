"""Pinned instances and seeded random generators shared by the tests."""

import random

from hypothesis import strategies as st

from hyperres import build_hypergraph, is_connected, is_sperner


# up to 8 vertices; few, large or nested edges give twins and non-Sperner
# inputs
small_hypergraphs = st.lists(
    st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=6
).map(
    lambda edges: build_hypergraph(
        [sorted(e) for e in edges], allow_non_sperner=True
    )
)


def overlap4():
    """4 vertices, two overlapping edges; dim = 2 beats the twin bound 1."""
    return build_hypergraph([["v1", "v2", "v3"], ["v3", "v4"]])


def cover6():
    """6 vertices, three pairwise overlapping 4-edges; dim = 5 beats 3."""
    return build_hypergraph(
        [
            ["v1", "v2", "v3", "v4"],
            ["v3", "v4", "v5", "v6"],
            ["v1", "v2", "v5", "v6"],
        ]
    )


def twoblock11():
    """11 vertices, two big blocks; rank 7 but pd 6."""
    return build_hypergraph(
        [
            [f"v{i}" for i in range(1, 8)],
            [f"v{i}" for i in range(6, 12)],
        ]
    )


def random_connected_sperner(seed, m_lo=4, m_hi=10):
    """Seeded random connected Sperner hypergraph with m_lo <= m <= m_hi.

    Vertices are split into one chunk per edge (covering by construction),
    every edge after the first borrows one earlier vertex (connected by
    construction), and a few extra memberships are sprinkled in. Rejection
    keeps only Sperner outcomes.
    """
    rng = random.Random(seed)
    while True:
        m = rng.randint(m_lo, m_hi)
        k = rng.randint(2, min(5, m))
        vertices = list(range(m))
        rng.shuffle(vertices)
        cuts = sorted(rng.sample(range(1, m), k - 1)) if k > 1 else []
        chunks = []
        prev = 0
        for cut in cuts + [m]:
            chunks.append(vertices[prev:cut])
            prev = cut
        edges = []
        for i, chunk in enumerate(chunks):
            edge = set(chunk)
            if i > 0:
                edge.add(rng.choice([v for c in chunks[:i] for v in c]))
            for _ in range(rng.randint(0, 2)):
                edge.add(rng.randrange(m))
            edges.append(edge)
        try:
            H = build_hypergraph([sorted(e) for e in edges])
        except Exception:
            continue
        if is_connected(H) and is_sperner(H):
            return H


def random_gnp(seed, n):
    """Seeded connected G(n, 1/2) with n vertices, as a 2-uniform
    hypergraph. Rejection keeps only draws where every vertex is covered
    and the graph is connected."""
    rng = random.Random(seed)
    while True:
        edges = [
            [u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        if not edges:
            continue
        H = build_hypergraph(edges)
        if H.m == n and is_connected(H):
            return H


def random_private_vertex_instance(seed):
    """Random connected Sperner instance where every edge keeps at least
    two exclusive degree-1 vertices, so every single-edge twin class has
    excess >= 1."""
    rng = random.Random(seed)
    base = random_connected_sperner(seed, m_lo=3, m_hi=6)
    edges = []
    next_label = base.m
    for edge in base.edges:
        extra = rng.randint(2, 3)
        grown = sorted(edge) + list(range(next_label, next_label + extra))
        next_label += extra
        edges.append(grown)
    return build_hypergraph([[f"v{v}" for v in e] for e in edges])


def random_twin_free_3uniform(seed, m):
    """Seeded connected twin-free hypergraph with m vertices and m distinct
    3-edges: no two vertices lie in exactly the same edges, so the twin
    reduction does nothing. Rejection keeps only draws that cover every
    vertex, are connected and are twin-free."""
    rng = random.Random(seed)
    while True:
        edges = {tuple(sorted(rng.sample(range(m), 3))) for _ in range(m)}
        if len(edges) < m:
            continue
        H = build_hypergraph(sorted(edges))
        if H.m == m and H.twins.largest_class_size() == 1 and is_connected(H):
            return H
