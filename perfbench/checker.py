"""Correctness check of every op, independent of ``hyperres``.

Distances come from the benchmark's own breadth-first search over the middle
graph (two vertices adjacent when some edge holds both), twin classes from
its own incidence signatures. Every certificate is re-checked against them
on any seed. Values that cannot be re-derived cheaply are pinned: those of
named families hold for every seed, because the seed only relabels them;
those of random instances are pinned for the default seed.

The ``--json`` bytes and ``analyze`` branch lists are deliberately not
compared: later changes may alter both on purpose.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import comb

from pins import PINNED, PINNED_DEFAULT_SEED
from workloads import Instance, Op, Workload

DEFAULT_SEED = 0

# verify rows whose stated closed form is known to be wrong (acceptance
# criterion 6): (rule, k, n) -> (stated value, solved value). verify must
# exit 1 with exactly these rows failing; the stated values stay as they are.
KNOWN_WRONG_ROWS = {
    ("pd/hypercycle-3uniform", 3, 3): (4, 3),
    ("pd/hypercycle-3uniform", 5, 3): (4, 3),
    ("pd/hypercycle-uniform", 3, 4): (5, 3),
    ("pd/hypercycle-uniform", 4, 4): (5, 4),
}
VERIFY_ROWS = 66
EXIT_VERIFY_FAILED = 1

# Own exhaustive re-checks run only below this many candidate subsets.
SEARCH_LIMIT = 40_000


@dataclass
class Outcome:
    """What one op returned: an exit code with captured output for a CLI
    op, a value for a library op, or the exception that escaped."""

    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None


class Facts:
    """Derived facts about one instance, each computed once."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.id_of = {label: i for i, label in enumerate(inst.labels)}
        self._bases: dict[int, int | None] = {}

    @cached_property
    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.inst.m)]
        for edge in self.inst.edges:
            for a, b in itertools.combinations(edge, 2):
                adj[a].add(b)
                adj[b].add(a)
        return adj

    @cached_property
    def distances(self) -> list[list[int]]:
        rows = []
        for source in range(self.inst.m):
            dist = [-1] * self.inst.m
            dist[source] = 0
            queue = deque([source])
            while queue:
                cur = queue.popleft()
                for nxt in self.adjacency[cur]:
                    if dist[nxt] < 0:
                        dist[nxt] = dist[cur] + 1
                        queue.append(nxt)
            rows.append(dist)
        return rows

    @cached_property
    def diameter(self) -> int:
        return max(max(row) for row in self.distances)

    @cached_property
    def twin_classes(self) -> list[frozenset[int]]:
        by_sig: dict[tuple[int, ...], list[int]] = {}
        incidence: list[list[int]] = [[] for _ in range(self.inst.m)]
        for i, edge in enumerate(self.inst.edges):
            for v in edge:
                incidence[v].append(i)
        for v in range(self.inst.m):
            by_sig.setdefault(tuple(incidence[v]), []).append(v)
        return [frozenset(vs) for vs in by_sig.values()]

    @cached_property
    def dim_lower_bound(self) -> int:
        return sum(len(c) - 1 for c in self.twin_classes)

    @cached_property
    def pd_lower_bound(self) -> int:
        if len(self.inst.edges) == 1:
            return self.inst.m
        return max(len(c) for c in self.twin_classes) + 1

    def resolves(self, landmarks) -> bool:
        rows = self.distances
        reps = {tuple(row[w] for w in landmarks) for row in rows}
        return len(reps) == self.inst.m

    def _resolving_subsets(self, size: int):
        return (w for w in itertools.combinations(range(self.inst.m), size)
                if self.resolves(w))

    def minimum_bases(self, dim: int) -> int | None:
        """By exhaustive search: 0 when some resolving set is smaller than
        ``dim``, else the number of resolving sets of size ``dim``. None
        when the search would exceed SEARCH_LIMIT subsets."""
        if dim not in self._bases:
            m = self.inst.m
            if comb(m, dim) + comb(m, max(dim - 1, 0)) > SEARCH_LIMIT:
                self._bases[dim] = None
            elif dim > 0 and next(self._resolving_subsets(dim - 1),
                                    None) is not None:
                self._bases[dim] = 0
            else:
                self._bases[dim] = sum(1 for _ in self._resolving_subsets(dim))
        return self._bases[dim]


def _edge_multiset(lines) -> list[tuple[str, ...]]:
    return sorted(tuple(sorted(line.split())) for line in lines)


class Checker:
    def __init__(self, workload: Workload):
        self.workload = workload
        self._facts: dict[str, Facts] = {}
        self._memo: dict[tuple, str | None] = {}
        self._dims: dict[str, int] = {}

    def facts(self, name: str) -> Facts:
        if name not in self._facts:
            self._facts[name] = Facts(self.workload.instances[name])
        return self._facts[name]

    def pinned(self, name: str) -> dict:
        found = dict(PINNED.get(name, {}))
        if self.workload.seed == DEFAULT_SEED:
            found.update(PINNED_DEFAULT_SEED.get(self.workload.name, {})
                         .get(name, {}))
        return found

    def check(self, op: Op, out: Outcome) -> str | None:
        """None when the op's output is right, else the reason it is not."""
        if out.error is not None:
            return f"exception: {out.error}"
        try:
            if op.argv is None:
                return self._check_count(op, out.value)
            expected_rc = EXIT_VERIFY_FAILED if op.group == "verify" else 0
            if out.rc != expected_rc:
                return f"exit code {out.rc}, expected {expected_rc}: " \
                       f"{out.stderr.strip()[:200]}"
            payload = json.loads(out.stdout)
            # Identical outputs need checking once; elapsed times differ.
            payload.pop("elapsed_seconds", None)
            if op.group == "verify":
                for row in payload["result"]["rows"]:
                    row.pop("elapsed_seconds", None)
            key = (op.op_id, json.dumps(payload, sort_keys=True))
            if key not in self._memo:
                self._memo[key] = self._check_cli(op, payload)
            return self._memo[key]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    # -- per command ------------------------------------------------------

    def _check_cli(self, op: Op, payload: dict) -> str | None:
        command = op.argv[0]
        if payload["command"] != command:
            return f"command {payload['command']!r} != {command!r}"
        if command == "verify":
            return self._check_verify(payload["result"])
        f = self.facts(op.instance)
        result = payload["result"]
        if command == "pd":
            return self._check_pd(op.instance, f, result["pd"],
                                  payload["certificate"])
        if command == "dim":
            return self._check_dim(op.instance, f, result, payload["certificate"])
        if command == "analyze":
            return self._check_analyze(op.instance, f, result)
        if command == "classes":
            return self._check_classes(f, result)
        if command == "bounds":
            return self._check_bounds(f, result)
        if command == "transform":
            return self._check_transform(f, result)
        return f"unexpected command {command!r}"

    def _labels_to_ids(self, f: Facts, labels) -> list[int] | None:
        try:
            return [f.id_of[label] for label in labels]
        except KeyError:
            return None

    def _check_representations(self, f: Facts, cert, landmark_sets) -> str | None:
        rows = f.distances
        reps = {}
        for v, label in enumerate(f.inst.labels):
            reps[v] = tuple(min(rows[v][x] for x in s) for s in landmark_sets)
            if list(reps[v]) != cert["representations"].get(label):
                return f"representation of {label} is wrong"
        if len(set(reps.values())) != f.inst.m:
            return "certificate does not resolve"
        if cert["valid"] is not True or cert["conflict"] is not None:
            return "certificate not marked valid"
        return None

    def _check_pd(self, name, f: Facts, value, cert) -> str | None:
        classes = [self._labels_to_ids(f, c) for c in cert["classes"]]
        if any(c is None or not c for c in classes):
            return "partition names unknown vertices or an empty class"
        members = [v for c in classes for v in c]
        if sorted(members) != list(range(f.inst.m)):
            return "classes do not partition the vertex set"
        if len(classes) != value:
            return f"{len(classes)} classes for pd = {value}"
        if value < f.pd_lower_bound:
            return f"pd = {value} below the twin bound {f.pd_lower_bound}"
        pinned = self.pinned(name).get("pd")
        if pinned is not None and value != pinned:
            return f"pd = {value}, expected {pinned}"
        return self._check_representations(f, cert, classes)

    def _check_dim(self, name, f: Facts, result, cert) -> str | None:
        value = result["dim"]
        w = self._labels_to_ids(f, cert["w"])
        if w is None or len(set(w)) != len(w) or len(w) != value:
            return "basis is not a set of dim known vertices"
        if result["lower_bound"] != f.dim_lower_bound:
            return f"lower bound {result['lower_bound']} != {f.dim_lower_bound}"
        pinned = self.pinned(name).get("dim")
        if pinned is not None and value != pinned:
            return f"dim = {value}, expected {pinned}"
        if pinned is None and f.minimum_bases(value) == 0:
            return f"a resolving set smaller than dim = {value} exists"
        problem = self._check_representations(f, cert, [[x] for x in w])
        if problem is None:
            self._dims[name] = value
        return problem

    def _check_count(self, op: Op, value) -> str | None:
        if not isinstance(value, int) or value < 1:
            return f"count {value!r} is not a positive integer"
        pinned = self.pinned(op.instance).get("count")
        if pinned is not None:
            return None if value == pinned else f"count {value}, expected {pinned}"
        # every plan runs dim on an instance before counting its bases
        dim = self._dims.get(op.instance)
        if dim is None:
            return "count on an instance whose dim was not checked"
        own = self.facts(op.instance).minimum_bases(dim)
        if own is not None and own != value:
            return f"count {value}, own search gives {own}"
        return None

    def _check_analyze(self, name, f: Facts, result) -> str | None:
        if (result["m"], result["k"]) != (f.inst.m, len(f.inst.edges)):
            return "wrong vertex or edge count"
        if result["connected"] is not True or result["sperner"] is not True:
            return "a connected Sperner input reported otherwise"
        if result["diameter"] != f.diameter:
            return f"diameter {result['diameter']}, own BFS gives {f.diameter}"
        pinned = self.pinned(name).get("families")
        if pinned is not None and result["families"] != pinned:
            return f"families {result['families']}, expected {pinned}"
        if pinned is None and name.startswith("tree-") \
                and "hypertree" not in result["families"]:
            return "a generated hypertree is not recognised as one"
        return None

    def _check_verify(self, result) -> str | None:
        rows = result["rows"]
        failing = {
            (r["rule"], r["params"].get("k"), r["params"].get("n")):
                (r["expected"], r["actual"])
            for r in rows if not r["passed"]
        }
        if failing != KNOWN_WRONG_ROWS:
            return f"failing verify rows {sorted(failing)} are not the " \
                   f"four known criterion-6 rows"
        if len(rows) != VERIFY_ROWS or result["failed"] != len(KNOWN_WRONG_ROWS):
            return f"{len(rows)} rows, {result['failed']} failed"
        if any(r["passed"] != (r["expected"] == r["actual"]) for r in rows):
            return "a row's pass flag disagrees with its values"
        return None

    def _check_classes(self, f: Facts, result) -> str | None:
        got = {frozenset(row["vertices"]) for row in result["classes"]}
        own = {frozenset(f.inst.labels[v] for v in c) for c in f.twin_classes}
        if got != own:
            return "twin classes differ from own incidence signatures"
        if len(result["forced"]) != f.dim_lower_bound:
            return "forced set has the wrong size"
        if result["largest_class_size"] != max(len(c) for c in own):
            return "wrong largest class size"
        return None

    def _check_bounds(self, f: Facts, result) -> str | None:
        got = (result["dim_lower_bound"], result["pd_lower_bound"])
        own = (f.dim_lower_bound, f.pd_lower_bound)
        return None if got == own else f"bounds {got}, own {own}"

    def _check_transform(self, f: Facts, result) -> str | None:
        lines = result["hypergraph"].splitlines()
        labels = f.inst.labels
        if result["kind"] == "dual":
            incidence: list[list[str]] = [[] for _ in range(f.inst.m)]
            for j, edge in enumerate(f.inst.edges):
                for v in edge:
                    incidence[v].append(f"e{j + 1}")
            own = [" ".join(names) for names in incidence]
        elif result["kind"] == "middle":
            own = [f"{labels[a]} {labels[b]}"
                   for a in range(f.inst.m) for b in f.adjacency[a] if a < b]
        else:
            own = [f"{labels[a]} {labels[b]}" for edge in f.inst.edges
                   for a, b in itertools.combinations(edge, 2)]
        if _edge_multiset(lines) != _edge_multiset(own):
            return f"{result['kind']} transform differs from own construction"
        return None
