"""Cross-check harness: every closed-form dimension value for the named
families, plus a handful of pinned reference instances, compared against
the exact solvers.

Each check is one row; a row passes iff the predicted and solved values are
exactly equal. Rows are reported sorted by rule id and parameters, whatever
order they were computed in.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import product

from .core import Hypergraph, build_hypergraph
from .families import GeneratorSpec, generate, predicted_dim, predicted_pd
from .partition import partition_dimension
from .resolving import metric_dimension
from .transforms import dual


def reference_instances() -> dict[str, Hypergraph]:
    """Small instances with hand-pinned dimension values.

    overlap4: two overlapping edges on 4 vertices; the twin lower bound (1)
    is strict, dim = 2.
    cover6: three pairwise overlapping 4-edges on 6 vertices; bound 3 is
    strict, dim = 5.
    twoblock11: two big edges sharing two vertices; pd = 6 while rank = 7,
    the pinned counterexample to rank as a pd lower bound.
    """
    return {
        "overlap4": build_hypergraph([["v1", "v2", "v3"], ["v3", "v4"]]),
        "cover6": build_hypergraph(
            [["v1", "v2", "v3", "v4"], ["v3", "v4", "v5", "v6"],
             ["v1", "v2", "v5", "v6"]]
        ),
        "twoblock11": build_hypergraph(
            [[f"v{i}" for i in range(1, 8)], [f"v{i}" for i in range(6, 12)]]
        ),
    }


class VerifyRow(
    namedtuple("VerifyRow", "rule params expected actual elapsed_seconds")
):
    """One check: the ``rule`` id (a str), its ``params`` (a dict of
    ints), the ``expected`` and ``actual`` values (ints) and the solve
    time in ``elapsed_seconds`` (a float)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


class VerifyReport(namedtuple("VerifyReport", "rows")):
    """The ``rows`` of a run, a list of ``VerifyRow`` sorted by rule id
    and parameters."""

    __slots__ = ()

    @property
    def passed(self) -> int:
        return sum(1 for r in self.rows if r.passed)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rows if not r.passed)

    @property
    def ok(self) -> bool:
        return self.failed == 0


# The value each measure reads off an instance, in one call.
_SOLVERS = {
    "dim": lambda H: metric_dimension(H)[0],
    "pd": lambda H: partition_dimension(H)[0],
    "rank": lambda H: max(map(len, H.edges)),
}

# (rule, measure, family, k values, n values, fixed): one row per (k, n).
# fixed None checks the family's closed form for the measure on the generated
# instance; an int is the value of a dual row, which measures the dual.
_GRID = (
    ("dim/hypercycle-3uniform", "dim", "hypercycle", range(3, 10), (3,), None),
    ("dim/hypercycle-uniform", "dim", "hypercycle", (3, 4, 5), (4, 5), None),
    ("dim/hyperstar", "dim", "hyperstar", (3, 4, 5), (3, 4), None),
    ("dim/hyperpath", "dim", "hyperpath", (2, 3, 4, 5), (3, 4, 5), None),
    ("pd/hypercycle-3uniform", "pd", "hypercycle", (3, 4, 5, 6), (3,), None),
    ("pd/hypercycle-uniform", "pd", "hypercycle", (3, 4), (2, 4), None),
    ("pd/hyperpath", "pd", "hyperpath", (2, 3, 4), (2, 3, 4), None),
    ("dim/dual-hyperpath", "dim", "hyperpath", (2, 3, 4, 5), (3,), 1),
    ("pd/dual-hyperpath", "pd", "hyperpath", (2, 3, 4, 5), (3,), 2),
    ("dim/dual-hypercycle", "dim", "hypercycle", (3, 4, 5), (3,), 2),
    ("pd/dual-hypercycle", "pd", "hypercycle", (3, 4, 5), (3,), 3),
)

# (rule, measure, instance of reference_instances(), expected)
_PINNED = (
    ("pinned/dim-overlap4", "dim", "overlap4", 2),
    ("pinned/dim-cover6", "dim", "cover6", 5),
    ("pinned/pd-twoblock11", "pd", "twoblock11", 6),
    ("pinned/rank-twoblock11", "rank", "twoblock11", 7),
)


def _rows(max_k: int | None, max_n: int | None):
    """(rule, params, measure, instance, expected) for every grid row with
    k <= max_k and n <= max_n (None: no limit), then every pinned row.

    Grid rows are first grouped by instance: rows on the same generated
    instance, or on the dual of the same one (the dim and pd rows of a
    family, say), share one ``Hypergraph``. Each instance is built when its
    group is reached and released when the next one is, so a consumer that
    keeps no row holds one grid instance at a time, not all 43 of the full
    grid. Its distance rows, twin classes and connectivity are computed
    once, so the second row on a shared instance may time lower, since its
    solver finds them cached. The closed forms are looked up per call, not
    bound in the tables, so that a profiler's wrapper rebound on this
    module sees every call."""
    closed_form = {"dim": predicted_dim, "pd": predicted_pd}
    groups: dict[tuple[GeneratorSpec, bool], list] = {}
    for rule, measure, kind, ks, ns, fixed in _GRID:
        for k, n in product(ks, ns):
            if (max_k is not None and k > max_k) or (max_n is not None and n > max_n):
                continue
            spec, params = GeneratorSpec(kind, k, n), {"k": k, "n": n}
            expected = closed_form[measure](spec) if fixed is None else fixed
            row = rule, params, measure, expected
            groups.setdefault((spec, fixed is not None), []).append(row)
    for (spec, is_dual), rows in groups.items():
        H = dual(generate(spec)) if is_dual else generate(spec)
        for rule, params, measure, expected in rows:
            yield rule, params, measure, H, expected
    pinned = reference_instances()
    for rule, measure, name, expected in _PINNED:
        yield rule, {}, measure, pinned[name], expected


def run_verification(
    max_k: int | None = None, max_n: int | None = None
) -> VerifyReport:
    rows = []
    for rule, params, measure, H, expected in _rows(max_k, max_n):
        solve = _SOLVERS[measure]
        t0 = time.perf_counter()
        actual = solve(H)
        rows.append(VerifyRow(rule, params, expected, actual, time.perf_counter() - t0))
    rows.sort(key=lambda r: (r.rule, sorted(r.params.items())))
    return VerifyReport(rows)
