"""Tests of run.py's aggregation and of its agreement with BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import run

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def rep(traced, signature="sig", attempted=10, failures=(), **metrics):
    return run.Rep(traced, {"metrics": metrics, "signature": signature, "search_threads": "1",
                            "attempted": attempted, "failures": list(failures)})


class AggregateTest(unittest.TestCase):
    def test_end_to_end_metrics_are_medians(self):
        values = dict(setup_s=1.0, search_s=2.0, compile_s=3.0, recompile_s=4.0,
                      winner_cycles=5.0, fused_speedup=1.5, peak_rss_mb=7.0)
        reps = [rep(False, **{k: v * f for k, v in values.items()}) for f in (1.0, 3.0, 2.0)]
        result, failures = run.aggregate(reps, traced=False)
        self.assertEqual(failures, [])
        self.assertEqual(result["attempted"], 30)
        self.assertEqual(result["metrics"]["search_s"], {"value": 4.0, "unit": "s"})
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))

    def test_differing_signatures_fail_the_run(self):
        reps = [rep(False, "a"), rep(False, "a"), rep(False, "b")]
        self.assertEqual(run.mismatched_signatures(reps), [2])
        result, failures = run.aggregate(reps, traced=False)
        self.assertFalse(result["correct"])
        self.assertIn("repetition 2 simulated results differ from repetition 0", failures)

    def test_a_missing_metric_is_a_failure(self):
        result, failures = run.aggregate([rep(False, search_s=1.0)], traced=False)
        self.assertFalse(result["correct"])
        self.assertIn("no value for compile_s", failures)
        self.assertNotIn("compile_s", result["metrics"])

    def test_tracing_overhead_is_traced_minus_untraced_time(self):
        layer = {name: 1.0 for name in run.PER_LAYER if name != "trace.overhead_s"}
        reps = [rep(False, e2e_s=10.0), rep(True, e2e_s=10.5, **layer),
                rep(False, e2e_s=12.0), rep(True, e2e_s=10.7, **layer)]
        result, failures = run.aggregate(reps, traced=True)
        self.assertEqual(failures, [])
        self.assertAlmostEqual(result["metrics"]["trace.overhead_s"]["value"], 10.6 - 11.0)
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))

    def test_a_crashed_repetition_counts_one_failed_operation(self):
        crashed = run.Rep(False, error="repetition exited 101 without a report")
        result, _ = run.aggregate([crashed], traced=False)
        self.assertEqual(result["attempted"], 1)
        self.assertGreaterEqual(result["failed"], 1)


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(SPEC.read_text())

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)

    def test_metric_names_and_units_match(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            got = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertEqual(got, table, key)

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()
