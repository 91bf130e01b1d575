#!/usr/bin/env python3
# Copyright 2026 The AmnesiaDB Authors
"""Unit tests for run.py's statistics and compare verdicts.

  python3 bench/e2e/test_run.py
"""

import os
import sys
import unittest

# Leave no __pycache__ in the source tree.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class StatisticsTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_exclusive_method(self):
        # statistics.quantiles(n=4), exclusive: positions (n+1)p.
        q1, q2, q3 = run.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_quartiles_of_one_value(self):
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_iqr_and_spread(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertAlmostEqual(run.iqr(values), 5.5)
        self.assertAlmostEqual(run.spread(values), 5.5 / 5.5)
        self.assertEqual(run.spread([5.0] * 4), 0.0)

    def test_worsening_sign_follows_direction(self):
        self.assertAlmostEqual(run.worsening(100, 110, "lower"), 0.1)
        self.assertAlmostEqual(run.worsening(100, 110, "higher"), -0.1)


def noisy(center, rel=0.01):
    """Ten values within +-rel of center."""
    return [center * (1 + rel * (i - 4.5) / 4.5) for i in range(10)]


class VerdictTest(unittest.TestCase):
    def test_same_within_bound(self):
        self.assertEqual(run.verdict(noisy(100), noisy(105), 0.1, "lower"),
                         "same")

    def test_worse_beyond_bound(self):
        self.assertEqual(run.verdict(noisy(100), noisy(120), 0.1, "lower"),
                         "worse")
        self.assertEqual(run.verdict(noisy(100), noisy(80), 0.1, "higher"),
                         "worse")

    def test_better_beyond_bound(self):
        self.assertEqual(run.verdict(noisy(100), noisy(80), 0.1, "lower"),
                         "better")

    def test_unresolved_when_spread_exceeds_bound(self):
        wide = noisy(100, rel=0.5)
        self.assertEqual(run.verdict(wide, noisy(101), 0.1, "lower"),
                         "unresolved")

    def test_wide_spread_but_every_new_run_better(self):
        base = [200 + i for i in range(10)]
        new = [50 + 10 * i for i in range(10)]  # spread > bound, all < 200
        self.assertGreater(run.spread(new), 0.1)
        self.assertEqual(run.verdict(base, new, 0.1, "lower"), "better")


class ClaimTest(unittest.TestCase):
    def test_needs_ten_pairs(self):
        met, detail = run.claim([(10, 5)] * 9, "lower")
        self.assertFalse(met)
        self.assertIn("at least 10", detail)

    def test_met(self):
        pairs = [(100 + i, 80 + i) for i in range(10)]
        self.assertTrue(run.claim(pairs, "lower")[0])

    def test_too_few_wins(self):
        pairs = [(100 + i, 80 + i) for i in range(8)] + [(100, 120)] * 2
        self.assertFalse(run.claim(pairs, "lower")[0])

    def test_ties_count_for_neither(self):
        pairs = [(100 + i, 80 + i) for i in range(9)] + [(100, 100)]
        self.assertTrue(run.claim(pairs, "lower")[0])
        pairs = [(100 + i, 80 + i) for i in range(8)] + [(100, 100)] * 2
        self.assertFalse(run.claim(pairs, "lower")[0])

    def test_gap_must_exceed_parent_iqr(self):
        # The change wins every pair, but by less than the parent's spread.
        pairs = [(100 + 10 * i, 99 + 10 * i) for i in range(10)]
        met, detail = run.claim(pairs, "lower")
        self.assertFalse(met)
        self.assertIn("IQR", detail)

    def test_higher_is_better(self):
        pairs = [(100 + i, 130 + i) for i in range(10)]
        self.assertTrue(run.claim(pairs, "higher")[0])
        self.assertFalse(run.claim(pairs, "lower")[0])


def runs_with(name, values):
    return [{"metrics": {name: {"value": v, "unit": "ms"}}} for v in values]


class DurableMetricsTest(unittest.TestCase):
    BENCH = {
        "end_to_end": [{"name": "batch_ms.p50", "unit": "ms",
                        "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "recover_ms", "unit": "ms",
                       "better": "lower"},
                      {"name": "query.range.ms", "unit": "ms",
                       "better": "lower"}],
    }

    def test_judged_metrics_add_durable_bounds(self):
        judged = {m["name"]: m for m in run.judged_metrics(self.BENCH)}
        self.assertEqual(set(judged), {"batch_ms.p50", "recover_ms"})
        self.assertEqual(judged["recover_ms"]["bound"], 0.10)
        self.assertEqual(judged["recover_ms"]["floor"], 5.0)
        self.assertEqual(judged["recover_ms"]["better"], "lower")
        self.assertEqual(judged["batch_ms.p50"]["floor"], 0.0)

    def test_durable_metric_skipped_where_zero_or_missing(self):
        self.assertIsNone(run.metric_values(runs_with("recover_ms", [0, 0]),
                                            "recover_ms"))
        self.assertIsNone(run.metric_values(runs_with("other", [1, 2]),
                                            "recover_ms"))
        self.assertEqual(run.metric_values(runs_with("recover_ms", [0, 3]),
                                           "recover_ms"), [0, 3])

    def test_missing_end_to_end_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.metric_values(runs_with("other", [1]), "batch_ms.p50")

    def test_printed_durable_metrics_parse(self):
        stdout = ("churn_durable    batch_ms.p50      11.5 ms\n"
                  "churn_durable    recover_ms        2.25 ms\n"
                  "analytic_rot     recover_ms        9 ms\n"
                  '{"correct": true}\n')
        self.assertEqual(run.printed_durable_metrics("churn_durable", stdout),
                         {"recover_ms": {"value": 2.25, "unit": "ms"}})


if __name__ == "__main__":
    unittest.main()
