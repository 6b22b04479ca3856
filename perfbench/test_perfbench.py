"""Self-tests of the benchmark. From the repository root:

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checker import Checker, Outcome  # noqa: E402
from spans import Span, SpanRecorder, summarize  # noqa: E402
from workloads import WORKLOADS, Workload, build  # noqa: E402


def build_in(workload: str, seed: int, directory: str) -> Workload:
    return build(workload, seed, Path(directory))


class InstanceGeneration(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b:
                first, second = build_in(workload, 7, a), build_in(workload, 7, b)
                self.assertEqual(first.instances, second.instances)
                for name in first.instances:
                    self.assertEqual(Path(a, f"{name}.hg").read_bytes(),
                                     Path(b, f"{name}.hg").read_bytes())
                self.assertEqual(
                    [(op.group, op.argv and op.argv[:-1]) for op in first.ops],
                    [(op.group, op.argv and op.argv[:-1]) for op in second.ops])

    def test_other_seed_gives_other_inputs(self):
        with tempfile.TemporaryDirectory() as a:
            first = build_in("random-search", 1, a).instances
            second = build_in("random-search", 2, a).instances
        self.assertNotEqual(first["gnp-22-0"].edges, second["gnp-22-0"].edges)
        # named families are only relabelled
        self.assertEqual(first["complete-16"].edges, second["complete-16"].edges)
        self.assertNotEqual(first["complete-16"].labels,
                            second["complete-16"].labels)

    def test_every_group_runs_on_every_workload(self):
        with tempfile.TemporaryDirectory() as a:
            for workload in WORKLOADS:
                groups = {op.group for op in build_in(workload, 0, a).ops}
                self.assertEqual(groups, set(run.GROUPS), workload)


class CheckerFlagsWrongOutput(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.program = run.import_program()
        cls.wl = build_in("sweep", 0, cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def op(self, command, instance=None):
        for op in self.wl.ops:
            if op.argv and op.argv[0] == command and \
                    (instance is None or op.instance == instance):
                return op
        raise LookupError(command)

    def run_and_check(self, op, corrupt=None):
        checker = Checker(self.wl)
        out = run.run_op(self.program, op, None)
        if corrupt is not None:
            payload = json.loads(out.stdout)
            corrupt(payload)
            out = replace(out, stdout=json.dumps(payload))
        return checker.check(op, out)

    def test_correct_outputs_pass(self):
        for command in ("pd", "dim", "verify", "classes", "bounds", "analyze"):
            self.assertIsNone(self.run_and_check(self.op(command)), command)

    def test_corrupted_partition_certificate_is_flagged(self):
        def move_vertex(payload):
            classes = payload["certificate"]["classes"]
            classes[1].append(classes[0].pop())
        reason = self.run_and_check(self.op("pd", "cycle-4x3"), move_vertex)
        self.assertIsNotNone(reason)

    def test_corrupted_representation_is_flagged(self):
        def bump(payload):
            reps = payload["certificate"]["representations"]
            label = sorted(reps)[0]
            reps[label] = [d + 1 for d in reps[label]]
        self.assertIsNotNone(self.run_and_check(self.op("dim"), bump))

    def test_wrong_pd_is_flagged_even_with_a_valid_certificate(self):
        inst = self.wl.instances["cycle-4x3"]
        op = self.op("pd", "cycle-4x3")

        def singletons(payload):
            # all singletons always resolve, so only the pinned value can
            # tell that this pd is too large
            payload["result"]["pd"] = inst.m
            cert = payload["certificate"]
            cert["classes"] = [[label] for label in inst.labels]
            checker = Checker(self.wl)
            dist = checker.facts("cycle-4x3").distances
            cert["representations"] = {
                label: dist[v] for v, label in enumerate(inst.labels)}
        reason = self.run_and_check(op, singletons)
        self.assertIn("expected", reason or "")

    def test_extra_failing_verify_row_is_flagged(self):
        def fail_a_row(payload):
            row = next(r for r in payload["result"]["rows"] if r["passed"])
            row["passed"] = False
            row["actual"] += 1
        self.assertIsNotNone(self.run_and_check(self.op("verify"), fail_a_row))

    def test_wrong_exit_code_and_exception_are_failures(self):
        checker = Checker(self.wl)
        op = self.op("pd")
        self.assertIsNotNone(checker.check(op, Outcome(rc=3, stdout="{}")))
        self.assertIsNotNone(checker.check(op, Outcome(error="RecursionError")))


class SpanRecorderTests(unittest.TestCase):
    def test_self_times_add_up_to_traced_pass_time(self):
        program = run.import_program()
        with tempfile.TemporaryDirectory() as tmp:
            wl = build_in("sweep", 0, tmp)
            ops = [op for op in wl.ops if op.group in ("pd", "dim", "count")]
            wl = Workload(wl.name, wl.seed, wl.instances, tuple(ops))
            recorder = SpanRecorder()
            result = run.run_pass(program, wl, Checker(wl), recorder)
        self.assertEqual(result.failures, [])
        total_self = sum(t.self_s for t in result.layers.values())
        self.assertAlmostEqual(total_self, result.wall_s - result.unattributed_s,
                               places=9)
        self.assertGreaterEqual(result.unattributed_s, 0.0)
        # internal calls are child spans of the solver that made them
        names = {s.name for s in recorder.spans}
        matrix = [s for s in recorder.spans if s.name == "metric.distance_matrix"]
        parents = {recorder.spans[s.parent].name for s in matrix}
        self.assertIn("partition.partition_dimension", parents)
        self.assertIn("resolving.metric_dimension", parents)
        self.assertIn("cli.main", names)
        # uninstalling restores the original functions everywhere
        self.assertFalse(hasattr(program.cli.main, "__wrapped__"))
        self.assertFalse(hasattr(program.resolving.twin_classes, "__wrapped__"))

    def test_summary_of_nested_spans(self):
        spans = [
            Span("a.f", 0.0, 10.0, -1, 0),
            Span("a.g", 1.0, 4.0, 0, 0),
            Span("a.f", 2.0, 3.0, 1, 0),  # nested in a span of the same name
            Span("a.g", 5.0, 6.0, 0, 0),
        ]
        totals = summarize(spans)
        self.assertEqual(totals["a.f"].calls, 2)
        self.assertEqual(totals["a.f"].busy_s, 10.0)
        self.assertEqual(totals["a.f"].self_s, (10.0 - 4.0) + 1.0)
        self.assertEqual(totals["a.g"].busy_s, 4.0)
        self.assertEqual(totals["a.g"].self_s, 2.0 + 1.0)


class MetricNamesMatchBenchmarkJson(unittest.TestCase):
    def test_reported_metrics_are_the_declared_ones(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        run.import_program()
        fake = run.PassResult(dict.fromkeys(run.GROUPS, 1.0),
                              dict.fromkeys(run.GROUPS, 1.0), [], 0.0, {})
        with contextlib.redirect_stdout(io.StringIO()):
            e2e = run.end_to_end((1.0, 1.0), [fake])
            layers = run.per_layer([fake], [copy.copy(fake)])
        self.assertEqual(set(e2e), {m["name"] for m in declared["end_to_end"]})
        self.assertEqual(set(layers), {m["name"] for m in declared["per_layer"]})
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]
                 + declared["per_layer"]}
        for name, metric in {**e2e, **layers}.items():
            self.assertEqual(metric["unit"], units[name], name)


if __name__ == "__main__":
    unittest.main()
