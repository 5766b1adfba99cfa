"""Tests of the benchmark itself: oracles, request stream, tracing.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

MODULES = run.load_package()

from schmidt import partitions  # noqa: E402
from schmidt.bijection import schmidt_to_two_color, two_color_to_schmidt  # noqa: E402
from schmidt.textform import format_partition, format_two_color  # noqa: E402


def small_workloads(seed: int) -> dict:
    return {
        "roundtrip": run.Roundtrip(MODULES, seed, n=6),
        "refined": run.Refined(MODULES, seed, grid=(5, 2, 2, 2, 2)),
        "requests": run.Requests(MODULES, seed, count=60),
    }


def one_pass(workload) -> list:
    """The outcomes of one pass of the workload's operations."""
    return run.worst_outcomes([run.run_for(0, workload.operations())])


def traced_counts(workload) -> dict:
    with tracing.Tracer() as tracer:
        outcomes = one_pass(workload)
    assert sum(o.unexplained for o in outcomes) == 0
    return {name: (s.calls, s.counts) for name, s in tracer.stats.items()}


class OracleTest(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(oracles.partition_counts(10), [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42])
        self.assertEqual(
            oracles.two_color_counts(10), [1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481]
        )
        self.assertEqual(oracles.refined_count(oracles.BoxCounts(), 2, 1, 1, 1, 1), 1)
        self.assertEqual(oracles.closed_map((2,), (1,)), (3, 2))
        self.assertEqual(oracles.closed_unmap((3, 1)), ((1,), (2,)))
        self.assertEqual(oracles.colored_text((1,), (2,)), "2g+1r")

    def test_closed_form_is_the_package_bijection(self):
        for n in range(1, 9):
            for tc in partitions.enumerate_two_color(n):
                image = two_color_to_schmidt(tc)
                self.assertEqual(oracles.closed_map(tc.red, tc.green), image)
                self.assertEqual(oracles.closed_unmap(image), (tc.red, tc.green))
                self.assertEqual(oracles.plain_text(image), format_partition(image))
                self.assertEqual(oracles.colored_text(tc.red, tc.green), format_two_color(tc))
            for p in partitions.enumerate_schmidt(n):
                tc = schmidt_to_two_color(p)
                self.assertEqual(oracles.closed_unmap(p), (tc.red, tc.green))

    def test_refined_matches_enumeration(self):
        boxes = oracles.BoxCounts()
        for n, r, l, p, q in [(6, 2, 1, 3, 4), (7, 2, 2, 2, 3), (5, 1, 3, 5, 1)]:
            query = partitions.RefinedQuery(n, r, l, p, q)
            expected = len(partitions.enumerate_two_color_refined(query))
            self.assertEqual(oracles.refined_count(boxes, n, r, l, p, q), expected)

    def test_literal_counts_match_enumeration(self):
        literal = oracles.LiteralCounts()
        for n, r, l, p, q in [(6, 2, 1, 3, 4), (8, 4, 4, 4, 4), (3, 1, 1, 1, 1), (7, 2, 3, 4, 1)]:
            query = partitions.RefinedQuery(n, r, l, p, q)
            expected = len(partitions.enumerate_schmidt_refined_literal(query))
            self.assertEqual(literal.count(2 * max(r, l), p + q, n), expected)

    def test_two_color_objects_match_enumeration(self):
        for n in range(7):
            expected = sorted((tc.red, tc.green) for tc in partitions.enumerate_two_color(n))
            self.assertEqual(sorted(oracles.two_color_objects(n)), expected)


class RequestStreamTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        first = run.request_stream(7, 300)
        self.assertEqual(first, run.request_stream(7, 300))
        self.assertNotEqual(first, run.request_stream(8, 300))

    def test_malformed_classes_and_share(self):
        requests = run.request_stream(3)
        self.assertEqual(len(requests), run.REQUESTS_PER_PASS)
        kinds = {(r.argv[0], r.malformed) for r in requests if r.malformed}
        expected = {(c, k) for c, ks in run.MALFORMED.items() for k in ks}
        self.assertEqual(kinds, expected)
        malformed = sorted(r.argv for r in requests if r.malformed)
        self.assertEqual(malformed, sorted(r.argv for r in run.malformed_requests()))
        self.assertAlmostEqual(len(malformed) / len(requests), 0.05, delta=0.01)

    def test_only_known_defects_fail_and_alike_on_every_seed(self):
        failed = set()
        for seed in (11, 12):
            outcomes = one_pass(run.Requests(MODULES, seed))
            self.assertEqual(sum(o.attempted for o in outcomes), run.REQUESTS_PER_PASS)
            self.assertEqual(sum(o.unexplained for o in outcomes), 0)
            failed.add(sum(o.failed for o in outcomes))
        self.assertEqual(len(failed), 1)
        self.assertGreater(failed.pop(), 0)


class TracingTest(unittest.TestCase):
    def test_rebinds_every_namespace_and_restores(self):
        originals = tracing.layer_functions()
        self.assertNotIn("partitions.partitions_of", originals)
        self.assertFalse(any(inspect.isgeneratorfunction(f) for f in originals.values()))
        holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "schmidt"]
        before = {(m.__name__, k): v for m in holders for k, v in vars(m).items()}
        ids = {id(f) for f in originals.values()}
        with tracing.Tracer():
            for module in holders:
                for name, value in vars(module).items():
                    self.assertNotIn(id(value), ids, f"{module.__name__}.{name} not wrapped")
            self.assertIs(partitions.partitions_of, MODULES["partitions"].partitions_of)
        after = {(m.__name__, k): v for m in holders for k, v in vars(m).items()}
        self.assertEqual(before, after)

    def test_predicted_layers_are_called(self):
        for name, workload in small_workloads(5).items():
            with tracing.Tracer() as tracer:
                one_pass(workload)
            self.assertEqual(run.missing_layers(name, tracer.stats), [], name)

    def test_two_traced_runs_give_identical_counts(self):
        for name in ("roundtrip", "refined", "requests"):
            first = traced_counts(small_workloads(9)[name])
            second = traced_counts(small_workloads(9)[name])
            self.assertEqual(first, second, name)

    def test_traced_command_counts_repeat(self):
        def counts() -> dict:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "requests",
                 "--seed", "4", "--seconds", "0.1", "--trace", "1"],
                capture_output=True, text=True, timeout=300, check=True,
            )
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            return {k: v for k, v in metrics.items() if v["unit"] != "s"}

        self.assertEqual(counts(), counts())


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        layer_names = [m for g in run.PREDICTIONS["groups"] for m in g["metrics"]]
        self.assertEqual([m["name"] for m in spec["per_layer"]], layer_names + ["trace.overhead_s"])
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]],
            ["ops_per_s", "latency_p50_ms", "latency_p99_ms", "peak_alloc_mb", "setup_s"],
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))

    def test_setup_clock_times_the_import(self):
        self.assertGreater(run.SetupClock(runs=2).median(), 0)

    def test_without_package_source_exits_nonzero(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name)
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "requests",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
