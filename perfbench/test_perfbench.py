#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 perfbench/test_perfbench.py

Unit-tests the percentile and summary code, checks BENCHMARK.json against
the metric tables, and runs every workload twice at a fixed seed (short
traced runs; builds the binary first) to assert that the machine-
independent counters and the result fingerprints repeat exactly.
"""

import json
import re
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import summary  # noqa: E402


def raw_run(epochs, trace=0, **extra):
    raw = {"workload": "payg_refresh", "seed": 1, "trace": trace,
           "hardware_threads": 4, "attempted": 10, "failed": 0,
           "problems": [], "epochs": epochs, "result_quality": 0.9,
           "peak_rss_bytes": 64 * 2**20,
           "fingerprints": {"result": "3:00000000000000ff"}}
    raw.update(extra)
    return raw


def epoch(latencies, setup_s=0.5, traced=False):
    return {"traced": traced, "setup_s": setup_s, "source_rows": 0,
            "latency_ms": {"feedback": latencies}}


class PercentileTest(unittest.TestCase):
    def test_quantile_interpolates(self):
        self.assertEqual(summary.quantile([4, 1, 3, 2], 0.0), 1)
        self.assertEqual(summary.quantile([4, 1, 3, 2], 1.0), 4)
        self.assertAlmostEqual(summary.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertAlmostEqual(summary.quantile([1, 2, 3, 4, 5], 0.1), 1.4)
        self.assertEqual(summary.quantile([7], 0.9), 7)

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(summary.tail_percentile(list(range(99))))
        self.assertEqual(summary.tail_percentile(list(range(100)))[0], "p90")
        self.assertEqual(summary.tail_percentile(list(range(999)))[0], "p90")
        self.assertEqual(summary.tail_percentile(list(range(1000)))[0],
                         "p99")
        label, value = summary.tail_percentile(list(range(10000)))
        self.assertEqual(label, "p99.9")
        self.assertAlmostEqual(value, 9989.001)

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 12.0, 10.1, 10.0, 9.8]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(summary.spread(values),
                               (q3 - q1) / statistics.median(values))


class SummaryTest(unittest.TestCase):
    def test_end_to_end_reads_through_slow_epochs(self):
        fast = [epoch([1.0, 2.0, 3.0], setup_s=0.1) for _ in range(9)]
        slow = [epoch([2.0, 4.0, 6.0], setup_s=0.2) for _ in range(6)]
        traced = [epoch([9.0, 9.0, 9.0], traced=True)]
        m = summary.end_to_end(raw_run(slow + fast + traced))
        self.assertAlmostEqual(m["refresh_ms_p50"], 2.0)
        self.assertAlmostEqual(m["events_per_s"], 500.0)
        self.assertAlmostEqual(m["setup_s"], 0.1)
        self.assertAlmostEqual(m["result_quality"], 0.9)
        self.assertAlmostEqual(m["peak_rss_mb"], 64.0)
        self.assertEqual(set(m), {row[0] for row in summary.END_TO_END})

    def test_per_layer_reports_every_metric_and_overhead(self):
        epochs = [epoch([1.0, 1.0]), epoch([1.1, 1.1], traced=True),
                  epoch([1.1, 1.1], traced=True), epoch([1.0, 1.0])]
        values = summary.per_layer(raw_run(epochs, trace=1, layers={
            "orch.steps": 37.0, "body.fusion.ms": 2.5}))
        self.assertEqual(set(values), {row[0] for row in summary.PER_LAYER})
        self.assertEqual(values["orch.steps"], 37.0)
        self.assertEqual(values["body.feedback.ms"], 0.0)
        analytics = summary.per_layer(raw_run(
            epochs, trace=1, layers={}, workload="vadalog_analytics"))
        self.assertIn("datalog.run_ms", analytics)
        self.assertNotIn("datalog.run_ms", values)
        self.assertAlmostEqual(values["trace.overhead_ratio"], 1.1)

    def test_problems(self):
        self.assertEqual(summary.problems(raw_run([epoch([1.0])])), [])
        self.assertTrue(summary.problems(raw_run([epoch([1.0])], failed=1)))
        self.assertTrue(summary.problems(raw_run([epoch([])])))
        self.assertTrue(summary.problems(raw_run(
            [epoch([1.0])], problems=["epochs disagree on result"])))

    def test_metrics_carry_units(self):
        m = summary.with_units(summary.end_to_end(raw_run([epoch([1.0])])),
                               summary.END_TO_END)
        self.assertEqual(m["refresh_ms_p50"], {"value": 1.0, "unit": "ms"})


class BenchmarkJsonTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_matches_tables(self):
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.spec["workloads"]],
            list(summary.WORKLOADS.items()))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in self.spec["end_to_end"]],
            [row[:4] for row in summary.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.spec["per_layer"]],
            [row[:3] for row in summary.PER_LAYER])

    def test_within_limits(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for w in self.spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertLessEqual(len(self.spec["per_layer"]), 128)
        runs = 4 + 22 * len(self.spec["workloads"])
        self.assertLess(runs * (self.spec["run_seconds"] + 5), 3420 - 300)


class DeterminismTest(unittest.TestCase):
    """Short traced runs at a fixed seed: counters and fingerprints must
    repeat exactly, and tracing must not change the results."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def check_workload(self, workload):
        first = run.run_binary(workload, 7, 0.01, 1, timeout=170)
        second = run.run_binary(workload, 7, 0.01, 1, timeout=170)
        plain = run.run_binary(workload, 7, 0.01, 0, timeout=170)
        for raw in (first, second, plain):
            self.assertEqual(summary.problems(raw), [])
        for name in summary.DETERMINISTIC:
            self.assertEqual(first["layers"].get(name),
                             second["layers"].get(name), name)
        self.assertGreater(first["layers"]["orch.steps"], 0)
        self.assertEqual(first["fingerprints"], second["fingerprints"])
        self.assertEqual(first["fingerprints"], plain["fingerprints"])

    def test_bootstrap_3000(self):
        self.check_workload("bootstrap_3000")

    def test_payg_refresh(self):
        self.check_workload("payg_refresh")

    def test_vadalog_analytics(self):
        self.check_workload("vadalog_analytics")


if __name__ == "__main__":
    unittest.main()
