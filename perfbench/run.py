"""Closed-loop benchmark of the hyperres CLI and library.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pd-families --seed 0 --seconds 30 --trace 0

One client in one process sends each op only after the previous one
returned. An op is an in-process ``hyperres.cli.main([...])`` call with its
output captured, or the library call ``count_minimum_bases``. The program
is imported from ``src/`` of the checkout and sees only the ``.hg`` files and
argv that set-up generates from ``--seed`` (see ``workloads.py``).

A run sets up several times, then repeats passes over the op list until the
next pass would end after ``--seconds`` (at least three passes). Every op
of every pass is checked (see ``checker.py``). Timings are medians over the
passes; their quartiles, pass counts and unscaled medians go to the lines
before the last.

Times are scaled to a steady machine speed. The fixed reference kernel of
``reference.py`` runs between set-ups, and between ops after every
KERNEL_EVERY_S seconds of op time; its runs are not part of any timing.
The time of each op is multiplied by REFERENCE_S / (mean time of the two
kernel runs before it and the two after); set-up times, by REFERENCE_S /
(mean kernel time between set-ups). On a quiet machine the factor is
about 1, so the figures read as seconds; under load from other tenants,
the kernel and the program slow down alike and the factor cancels the
drift.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes under the span recorder (``spans.py``) and
reports per-layer metrics; spans of the traced passes are written to
``perfbench/out/`` when the run ends. The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

from checker import DEFAULT_SEED, Checker, Outcome
from reference import reference_kernel
from spans import (PACKAGE, LayerTotals, SpanRecorder, public_functions,
                   root_time, summarize)
from workloads import GROUPS, WORKLOADS, Workload, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 7
MIN_PASSES = 3
# The kernel's time on a quiet machine of the kind the baseline was
# measured on (2-core x86 VM), and how much op time may pass between two
# kernel runs: about a tenth of a pass goes to the kernel.
REFERENCE_S = 0.027
KERNEL_EVERY_S = 0.3
# Public functions no workload calls; their per-layer metrics would always
# read 0, so they are not reported.
UNMEASURED = frozenset({
    "metric.distance_to_set", "metric.representation",
    "resolving.is_resolving_set", "partition.is_resolving_partition",
})
EXIT_NO_PROGRAM = 2


@dataclass
class PassResult:
    group_s: dict[str, float]  # op time per group
    scaled_group_s: dict[str, float]  # the same, scaled to REFERENCE_S
    failures: list[tuple[int, str]]
    unattributed_s: float | None = None
    layers: dict | None = None

    @property
    def wall_s(self) -> float:
        """Time spent in ops: the pass without the kernel runs."""
        return sum(self.group_s.values())

    @property
    def scale(self) -> float:
        return sum(self.scaled_group_s.values()) / self.wall_s


def import_program():
    """Import hyperres from this checkout's src/, afresh each call, so that
    set-up pays for the import every time."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    program = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return program


def setup(workload: str, seed: int, directory: Path):
    """Import the program and write the instances, several times. Returns
    the median set-up time, unscaled and scaled, and the program and
    workload of the last set-up."""
    times = []
    kernels = [reference_kernel()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        program = import_program()
        wl = build(workload, seed, directory)
        times.append(time.perf_counter() - t0)
        kernels.append(reference_kernel())
    median = statistics.median(times)
    scaled = median * REFERENCE_S / statistics.fmean(kernels)
    return (median, scaled), program, wl


def run_op(program, op, recorder: SpanRecorder | None) -> Outcome:
    if recorder is not None:
        recorder.op = op.op_id
    out = Outcome()
    try:
        if op.argv is None:
            text = Path(op.path).read_text(encoding="utf-8")
            out.value = program.count_minimum_bases(program.parse_hypergraph(text))
        else:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                out.rc = program.cli.main(list(op.argv))
            out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
    except (Exception, SystemExit) as exc:  # a failed op, not a failed run
        out.error = f"{type(exc).__name__}: {exc}"
    return out


def run_pass(program, wl: Workload, checker: Checker,
             recorder: SpanRecorder | None = None) -> PassResult:
    """Run every op once, timing each, then check every output."""
    # The benchmark's own objects (checker caches, earlier outcomes) are
    # frozen so the program's garbage collections do not traverse them.
    gc.collect()
    gc.freeze()
    outcomes = []
    took = []
    # index, in kernels, of the kernel run just before each op
    segment = []
    kernels = [reference_kernel()]
    since_kernel = 0.0
    try:
        with recorder if recorder is not None else nullcontext():
            for op in wl.ops:
                start = time.perf_counter()
                outcomes.append(run_op(program, op, recorder))
                took.append(time.perf_counter() - start)
                segment.append(len(kernels) - 1)
                since_kernel += took[-1]
                if since_kernel >= KERNEL_EVERY_S:
                    kernels.append(reference_kernel())
                    since_kernel = 0.0
            kernels.append(reference_kernel())
    finally:
        gc.unfreeze()
    # Each op is scaled by the two kernel runs before it and the two after.
    group_s = dict.fromkeys(GROUPS, 0.0)
    scaled_group_s = dict.fromkeys(GROUPS, 0.0)
    for op, t, i in zip(wl.ops, took, segment):
        group_s[op.group] += t
        scaled_group_s[op.group] += (
            t * REFERENCE_S / statistics.fmean(kernels[max(i - 1, 0):i + 3]))
    failures = []
    for op, out in zip(wl.ops, outcomes):
        reason = checker.check(op, out)
        if reason is not None:
            failures.append((op.op_id, reason))
    result = PassResult(group_s, scaled_group_s, failures)
    if recorder is not None:
        result.unattributed_s = result.wall_s - root_time(recorder.spans)
        result.layers = summarize(recorder.spans)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_lines(metrics: dict[str, list[tuple[float, float]]],
                 units: dict[str, str]):
    """The median of each metric's scaled samples, given as (unscaled,
    scaled) pairs; prints quartiles, count and the unscaled median."""
    reported = {}
    for name, samples in metrics.items():
        raw = [r for r, _ in samples]
        q1, median, q3 = quartiles([v for _, v in samples])
        if units[name] == "count":
            median = statistics.median_low(raw)
        print(f"# {name}: median {median:.6g} {units[name]} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n {len(samples)}; "
              f"unscaled median {statistics.median(raw):.6g})")
        reported[name] = {"value": median, "unit": units[name]}
    return reported


def end_to_end(setup: tuple[float, float], passes: list[PassResult]):
    metrics = {"setup_s": [setup],
               "wall_s": [(p.wall_s, p.wall_s * p.scale) for p in passes]}
    for group in GROUPS:
        metrics[f"{group}_s"] = [(p.group_s[group], p.scaled_group_s[group])
                                 for p in passes]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = [(peak_mb, peak_mb)]
    units = {name: "s" for name in metrics}
    units["peak_rss_mb"] = "MB"
    return metric_lines(metrics, units)


def per_layer(untraced: list[PassResult], traced: list[PassResult]):
    """Per-layer times are scaled by their pass's overall factor."""
    names = [n for n in public_functions().values() if n not in UNMEASURED]
    metrics, units = {}, {}
    for name in names:
        for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s")):
            key = f"{name}.{field}"
            metrics[key] = []
            for p in traced:
                value = getattr(p.layers.get(name, LayerTotals()), field)
                metrics[key].append(
                    (value, value if unit == "count" else value * p.scale))
            units[key] = unit
    overhead = (statistics.median(p.wall_s * p.scale for p in traced)
                / statistics.median(p.wall_s * p.scale for p in untraced))
    metrics["trace.overhead_ratio"] = [(overhead, overhead)]
    units["trace.overhead_ratio"] = "ratio"
    metrics["trace.unattributed_s"] = [
        (p.unattributed_s, p.unattributed_s * p.scale) for p in traced]
    units["trace.unattributed_s"] = "s"
    return metric_lines(metrics, units)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}; run from "
              f"the root of a source checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(ROOT / "src"))
    # the program sees only the generated files and argv
    os.environ.pop("HYPERRES_CAP", None)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        scaled_setup, program, wl = setup(args.workload, args.seed, workdir)
        checker = Checker(wl)
        passes: list[PassResult] = []
        recorders: list[SpanRecorder] = []
        started = time.perf_counter()
        while True:
            done = len(passes)
            elapsed = time.perf_counter() - started
            if done >= MIN_PASSES and elapsed * (done + 1) / done > args.seconds:
                break
            recorder = None
            if args.trace and done % 2 == 1:
                recorder = SpanRecorder()
                recorders.append(recorder)
            passes.append(run_pass(program, wl, checker, recorder))
        untraced = [p for p in passes if p.layers is None]
        traced = [p for p in passes if p.layers is not None]
        failures = [f for p in passes for f in p.failures]
        for op_id, reason in failures[:10]:
            print(f"# FAILED op {op_id} ({wl.ops[op_id].argv or 'count'}): "
                  f"{reason}")
        if args.trace:
            metrics = per_layer(untraced, traced)
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(
                [[asdict(s) for s in r.spans] for r in recorders]))
        else:
            metrics = end_to_end(scaled_setup, untraced)
        print(json.dumps({
            "correct": not failures,
            "attempted": len(wl.ops) * len(passes),
            "failed": len(failures),
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
