"""A fixed pure-Python reference kernel that measures the machine's
current speed, so that op times can be scaled to a steady reference.

On a shared machine the speed of one CPU-bound process drifts by 20-40%
for seconds at a time, as other tenants load the shared cores and caches.
The drift acts on the benchmark's own code as on the program's, so the
kernel, run between ops, tracks it. The kernel never calls the program: a
change to the program cannot change the kernel's time.

It does what the program does, on fixed data: the solvers' inner loops
(BFS distance rows, tuple keys in sets over vertex subsets, a recursive
restricted-growth enumeration of set partitions) and the per-call work of
the CLI (writing, splitting and indexing a few thousand lines of text). The
garbage collector is off while it runs, so its time does not depend on how
many objects the process holds.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from collections import deque

_N = 14
_BLOCKS, _ITEMS = 3, 8


def _graph() -> list[set[int]]:
    rng = random.Random(12345)
    adj: list[set[int]] = [set() for _ in range(_N)]
    pairs = [(a, b) for a, b in itertools.combinations(range(_N), 2)
             if b == a + 1 or rng.random() < 0.4]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def reference_kernel() -> float:
    """Run the kernel once; its duration in seconds."""
    adj = _graph()
    gc.disable()
    try:
        start = time.perf_counter()
        work = _search(adj) + _text()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if work <= 0:
        raise AssertionError("the reference kernel did no work")
    return elapsed


def _text() -> int:
    lines = [" ".join(f"x{(i * 7 + t) % 5003}" for t in range(3))
             for i in range(2500)]
    text = "\n".join(lines) + "\n"
    index: dict[str, int] = {}
    edges = []
    for line in text.splitlines():
        edges.append(frozenset(index.setdefault(tok, len(index))
                               for tok in line.split()))
    return len(index) + len(edges)


def _search(adj: list[set[int]]) -> int:
    rows = []
    for source in range(_N):
        dist = [-1] * _N
        dist[source] = 0
        queue = deque([source])
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if dist[nxt] < 0:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        rows.append(dist)
    resolving = 0
    for size in (2, 3):
        for w in itertools.combinations(range(_N), size):
            if len({tuple(row[x] for x in w) for row in rows}) == _N:
                resolving += 1
    assign = [0] * _ITEMS

    def partitions(i: int, used: int):
        if i == _ITEMS:
            if used == _BLOCKS:
                yield assign
            return
        for b in range(min(used + 1, _BLOCKS)):
            assign[i] = b
            yield from partitions(i + 1, used + (b == used))

    for a in partitions(0, 0):
        blocks = [[v for v in range(_ITEMS) if a[v] == b] for b in range(_BLOCKS)]
        resolving += len({tuple(min(rows[v][x] for x in block) for block in blocks)
                          for v in range(_ITEMS)})
    return resolving
