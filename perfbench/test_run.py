"""Tests for the orchestrator's arithmetic and its metric lists.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run

ROOT = os.path.dirname(run.HERE)


def rec(attempted, given_up=0, lost=0, **extra):
    r = {"attempted": attempted, "given_up": given_up, "lost": lost, "errors": 0,
         "commits_per_s": 100.0}
    r.update(extra)
    return r


class Aggregate(unittest.TestCase):
    def test_clean_runs(self):
        agg = run.aggregate([rec(10), rec(20), rec(30)], 0, 0)
        self.assertEqual(agg["attempted"], 60)
        self.assertEqual(agg["failed"], 0)
        self.assertTrue(agg["correct"])

    def test_failed_counts_given_up_lost_and_killed(self):
        agg = run.aggregate([rec(100, given_up=2), rec(100, lost=3)], killed=1, killed_attempted=50)
        self.assertEqual(agg["attempted"], 250)
        self.assertEqual(agg["failed"], 2 + 3 + 1)
        self.assertAlmostEqual(agg["failed_frac"], 6 / 250)
        self.assertFalse(agg["correct"])

    def test_lost_write_is_a_failure_not_an_error(self):
        agg = run.aggregate([rec(40, lost=1)], 0, 0)
        self.assertEqual(agg["failed"], 1)
        self.assertFalse(agg["correct"])

    def test_given_up_transactions_alone_keep_outputs_correct(self):
        agg = run.aggregate([rec(40, given_up=4)], 0, 0)
        self.assertEqual(agg["failed"], 4)
        self.assertTrue(agg["correct"])

    def test_broken_critical_path_identity_is_incorrect(self):
        agg = run.aggregate([rec(40, cp_identity_violations=1)], 0, 0)
        self.assertFalse(agg["correct"])

    def test_medians_over_runs(self):
        agg = run.aggregate([rec(1, commits_per_s=v) for v in (5.0, 1.0, 3.0, 100.0)], 0, 0)
        self.assertEqual(agg["medians"]["commits_per_s"], 4.0)

    def test_attempted_is_never_zero(self):
        self.assertEqual(run.aggregate([], 0, 0)["attempted"], 1)


class Percentiles(unittest.TestCase):
    def test_nearest_rank_matches_the_runner(self):
        v = list(range(1, 101))
        self.assertEqual(run.percentile(v, 50), 50)
        self.assertEqual(run.percentile(v, 99), 99)
        self.assertEqual(run.percentile(v, 100), 100)
        self.assertEqual(run.percentile(v, 0), 1)
        self.assertEqual(run.percentile([7], 99), 7)
        self.assertEqual(run.percentile([], 50), 0)

    def test_latency_metrics_pool_runs_and_count_samples(self):
        samples = {"txn_ns": [4000, 1000, 3000, 2000], "commit_ns": [500, 1500]}
        m = run.latency_metrics(samples)
        self.assertEqual(m["txn_p50_us"], 2.0)
        self.assertEqual(m["txn_p99_us"], 4.0)
        self.assertEqual(m["commit_p50_us"], 0.5)
        self.assertEqual(m["txn_samples"], 4)
        self.assertEqual(m["commit_samples"], 2)


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_metric_lists_match_the_benchmark_file(self):
        e2e = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(per_layer, run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.BENCHMARKED))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()
