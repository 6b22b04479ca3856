"""Seeded instances and the per-pass op lists of the three workloads.

Every instance is generated here, independently of ``hyperres``, and is
written as a ``.hg`` file; the program only ever sees those files and the
argv of each op. The same (workload, seed) pair always gives the same
files and the same op list.

Each workload runs every command group named by an end-to-end metric, so
every metric is measured on every workload; what differs is which group
dominates a pass:

* ``pd-families``: ``pd`` on named families full of twins (twin classes of
  size >= 2 everywhere). The other groups run on a table of small members of
  the same families.
* ``random-search``: ``dim`` and ``count_minimum_bases`` on K_n and G(22, 1/2)
  graphs and ``pd`` on twin-free random 3-uniform hypergraphs, where the twin
  reduction does nothing.
* ``sweep``: many short calls: ``verify``, ``analyze --cap k`` on 10-14
  edges, short ``pd``/``dim``/count calls, and classes/bounds/transform on a
  hyperpath and a hypertree with 600 edges, where per-call fixed costs
  (parse, Sperner gate, twin classes, JSON output) dominate.

On named families the seed changes only the vertex labels. Vertex ids
follow first appearance and stay as generated, so the search work, and with
it the time, is the same for every seed. Random instances are redrawn.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("pd-families", "random-search", "sweep")

# The metric groups; every op belongs to exactly one.
GROUPS = ("pd", "dim", "count", "analyze", "verify", "structure")

# Twin-heavy named families at 11-13 vertices, under the 15-vertex pd cap.
PD_FAMILIES = (("cycle", 4, 4), ("cycle", 3, 5), ("cycle", 7, 3),
               ("star", 6, 3), ("star", 5, 3))
# Small members of the same families for the cheap command groups.
FAMILY_TABLE = tuple(
    (kind, k, n)
    for kind in ("cycle", "star", "path")
    for k in range(3, 8)
    for n in (3, 4, 5)
)
COMPLETE_N = 16
GNP_COUNT, GNP_N = 3, 22
# Dense enough that pd is 4 on almost every draw: pd = 3 would end the
# search early and make the pass time depend on the seed.
UNIFORM_COUNT, UNIFORM_M, UNIFORM_K = 10, 10, 10
# (kind, k) for analyze --cap k; n = 3.
ANALYZE_CAPPED = tuple(
    [(kind, k) for kind in ("path", "cycle") for k in (10, 12, 14)]
    + [("star", k) for k in (10, 12)] + [("tree", k) for k in (10, 12)]
)
# Members of ANALYZE_CAPPED with at most 24 twin-class representatives,
# under the dim search cap, for more short dim/count calls.
SWEEP_DIM = (("path", 10), ("path", 12), ("cycle", 10), ("cycle", 12),
             ("star", 10), ("star", 12))
# Small named instances for the short pd/dim/count calls of the sweep.
SWEEP_SMALL = tuple(
    [("cycle", k, 3) for k in (3, 4, 5, 6, 7)]
    + [("path", k, 3) for k in (2, 3, 4, 5, 6, 7)]
    + [("star", k, 3) for k in (3, 4, 5)]
)
LARGE_EDGES = 600
STRUCTURE_ARGV = (("classes",), ("bounds",), ("transform", "--kind", "dual"),
                  ("transform", "--kind", "middle"),
                  ("transform", "--kind", "primal"))


@dataclass(frozen=True)
class Instance:
    """A hypergraph as the benchmark knows it: vertex ids 0..m-1 in order of
    first appearance, each edge listing ids in the order they are written."""

    name: str
    labels: tuple[str, ...]
    edges: tuple[tuple[int, ...], ...]
    # True when the structure, not only the labels, depends on the seed.
    seeded: bool = False

    @property
    def m(self) -> int:
        return len(self.labels)

    def hg_text(self) -> str:
        return "".join(
            " ".join(self.labels[v] for v in edge) + "\n" for edge in self.edges
        )


@dataclass(frozen=True)
class Op:
    """One closed-loop request: a CLI argv, or (when ``argv`` is None) the
    library call ``count_minimum_bases(parse_hypergraph(file text))``."""

    op_id: int
    group: str
    instance: str | None
    path: str | None
    argv: tuple[str, ...] | None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    instances: dict[str, Instance]
    ops: tuple[Op, ...]


def _rng(workload: str, seed: int, what: str) -> random.Random:
    # String seeds are hashed with SHA-512, so they are stable across
    # processes whatever PYTHONHASHSEED is.
    return random.Random(f"{workload}/{seed}/{what}")


def _instance(name: str, edges, rng: random.Random, seeded: bool) -> Instance:
    """Renumber vertices by first appearance and give them seeded labels."""
    ids: dict[int, int] = {}
    renumbered = []
    for edge in edges:
        renumbered.append(tuple(ids.setdefault(v, len(ids)) for v in edge))
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(2))
    suffixes = rng.sample(range(10 * len(ids) + 10), len(ids))
    labels = tuple(f"{tag}{s}" for s in suffixes)
    return Instance(name, labels, tuple(renumbered), seeded)


def family_edges(kind: str, k: int, n: int, rng: random.Random | None = None):
    """Edges of the n-uniform linear hyperpath, hypercycle, hyperstar or
    hypertree with k edges, consecutive edges sharing one vertex. A
    hypertree attaches each new edge to one existing vertex drawn by rng."""
    if kind == "path":
        return [[i * (n - 1) + t for t in range(n)] for i in range(k)]
    if kind == "cycle":
        m = k * (n - 1)
        return [[(i * (n - 1) + t) % m for t in range(n)] for i in range(k)]
    if kind == "star":
        return [[0] + [1 + i * (n - 1) + t for t in range(n - 1)]
                for i in range(k)]
    if kind == "tree":
        edges = [list(range(n))]
        nxt = n
        for _ in range(k - 1):
            edges.append([rng.randrange(nxt)] + list(range(nxt, nxt + n - 1)))
            nxt += n - 1
        return edges
    raise ValueError(f"unknown family {kind!r}")


def _connected(m: int, edges) -> bool:
    adj: list[set[int]] = [set() for _ in range(m)]
    for edge in edges:
        for a, b in itertools.combinations(edge, 2):
            adj[a].add(b)
            adj[b].add(a)
    seen = {0}
    frontier = [0]
    while frontier:
        for nxt in adj[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == m


def gnp_edges(n: int, rng: random.Random):
    """A connected G(n, 1/2) graph, redrawn until connected."""
    while True:
        edges = [[a, b] for a, b in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        if _connected(n, edges):
            return edges


def uniform3_edges(m: int, k: int, rng: random.Random):
    """k distinct 3-sets covering m vertices, connected and twin-free (no two
    vertices in exactly the same edges), redrawn until all three hold.
    Distinct sets of one size are automatically Sperner."""
    while True:
        chosen = sorted({tuple(sorted(rng.sample(range(m), 3)))
                         for _ in range(k)})
        if len(chosen) != k or len({v for e in chosen for v in e}) != m:
            continue
        signatures = {tuple(i for i, e in enumerate(chosen) if v in e)
                      for v in range(m)}
        if len(signatures) == m and _connected(m, chosen):
            return [list(e) for e in chosen]


def family_name(kind: str, k: int, n: int) -> str:
    return f"{kind}-{k}x{n}"


def _instances(workload: str, seed: int) -> dict[str, Instance]:
    found: dict[str, Instance] = {}

    def add(name, edges_of, seeded=False):
        rng = _rng(workload, seed, name)
        found[name] = _instance(name, edges_of(rng), rng, seeded)

    if workload == "pd-families":
        for kind, k, n in FAMILY_TABLE:
            add(family_name(kind, k, n),
                lambda rng, a=(kind, k, n): family_edges(*a))
    elif workload == "random-search":
        add(f"complete-{COMPLETE_N}", lambda rng: [
            list(e) for e in itertools.combinations(range(COMPLETE_N), 2)])
        for i in range(GNP_COUNT):
            add(f"gnp-{GNP_N}-{i}", lambda rng: gnp_edges(GNP_N, rng), True)
        for i in range(UNIFORM_COUNT):
            add(f"uniform3-{UNIFORM_M}x{UNIFORM_K}-{i}",
                lambda rng: uniform3_edges(UNIFORM_M, UNIFORM_K, rng), True)
    elif workload == "sweep":
        for kind, k in ANALYZE_CAPPED:
            add(family_name(kind, k, 3),
                lambda rng, a=(kind, k): family_edges(a[0], a[1], 3, rng),
                kind == "tree")
        for kind, k, n in SWEEP_SMALL:
            add(family_name(kind, k, n),
                lambda rng, a=(kind, k, n): family_edges(*a))
        for kind in ("path", "tree"):
            add(family_name(kind, LARGE_EDGES, 3),
                lambda rng, kind=kind: family_edges(kind, LARGE_EDGES, 3, rng),
                kind == "tree")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return found


def _op_plan(workload: str, instances: dict[str, Instance]):
    """(group, instance name or None, argv tail or None) in pass order."""
    plan = []

    def cli(group, name, *argv):
        plan.append((group, name, argv))

    def count(name):
        plan.append(("count", name, None))

    def structure(name):
        for argv in STRUCTURE_ARGV:
            cli("structure", name, *argv, "--json")

    if workload == "pd-families":
        for kind, k, n in PD_FAMILIES:
            cli("pd", family_name(kind, k, n), "pd", "--json")
        for kind, k, n in FAMILY_TABLE:
            name = family_name(kind, k, n)
            cli("dim", name, "dim", "--json")
            count(name)
            cli("analyze", name, "analyze", "--json")
            structure(name)
    elif workload == "random-search":
        for name in instances:
            cli("dim", name, "dim", "--json")
            count(name)
            structure(name)
            if name.startswith("uniform3-"):
                cli("pd", name, "pd", "--json")
                cli("analyze", name, "analyze", "--json")
    else:
        for kind, k in ANALYZE_CAPPED:
            cli("analyze", family_name(kind, k, 3),
                "analyze", "--json", "--cap", str(k))
        for kind, k in SWEEP_DIM:
            cli("dim", family_name(kind, k, 3), "dim", "--json")
            count(family_name(kind, k, 3))
        for kind, k, n in SWEEP_SMALL:
            name = family_name(kind, k, n)
            cli("pd", name, "pd", "--json")
            cli("dim", name, "dim", "--json")
            count(name)
        for kind in ("path", "tree"):
            structure(family_name(kind, LARGE_EDGES, 3))
    cli("verify", None, "verify", "--json")
    return plan


def build(workload: str, seed: int, directory: Path) -> Workload:
    """Generate the workload's instances, write them as ``.hg`` files under
    ``directory`` and return the op list of one pass."""
    instances = _instances(workload, seed)
    paths = {}
    for name, inst in instances.items():
        path = directory / f"{name}.hg"
        path.write_text(inst.hg_text(), encoding="utf-8")
        paths[name] = str(path)
    ops = []
    for op_id, (group, name, argv) in enumerate(_op_plan(workload, instances)):
        path = paths.get(name)
        if argv is not None:
            # the file argument goes last, after every option
            argv = argv + ((path,) if path else ())
        ops.append(Op(op_id, group, name, path, argv))
    return Workload(workload, seed, instances, tuple(ops))
