#!/usr/bin/env python3
"""Tests for scripts/bench_trend.py: the bench trending gate must flag a
synthetic 20% subcycle-time regression, pass a clean run, respect the
warn/enforce modes, and read exactly the column format obs::RunStore
writes (the append_run writer here is byte-compatible by construction and
cross-checked against the C++ reader in scripts/check.sh)."""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "scripts"))
import bench_trend  # noqa: E402


def seed_history(store, runs=3):
    for i in range(runs):
        bench_trend.append_run(store, (f"hist{i}", f"sha{i}", "cfgA"), {
            "scale.subcycle.fleet10000.baseline_ms": 100.0 + i,
            "scale.subcycle.fleet10000.speedup_nt": 3.0 + 0.05 * i,
            "scale.trace.time_ratio": 4.0 + 0.1 * i,
            "fig7.latency.mean": 80.0,
        })


class BenchTrendTest(unittest.TestCase):
    def setUp(self):
        self.store = tempfile.mkdtemp(prefix="bench_trend_test_")
        self.addCleanup(shutil.rmtree, self.store, ignore_errors=True)

    def fresh(self, **overrides):
        values = {
            "scale.subcycle.fleet10000.baseline_ms": 101.0,
            "scale.subcycle.fleet10000.speedup_nt": 3.05,
            "scale.trace.time_ratio": 4.1,
            "fig7.latency.mean": 80.0,
        }
        values.update(overrides)
        bench_trend.append_run(self.store, ("fresh", "shaF", "cfgA"), values)

    def test_flags_20pct_subcycle_regression(self):
        seed_history(self.store)
        self.fresh(**{"scale.subcycle.fleet10000.baseline_ms": 121.2})  # +20%
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        by_col = {f["column"]: f for f in findings}
        self.assertEqual(
            by_col["scale.subcycle.fleet10000.baseline_ms"]["status"], "regression")
        rc = bench_trend.main(["--runstore", self.store, "--run-id", "fresh",
                               "--mode", "enforce"])
        self.assertEqual(rc, 1)

    def test_warn_mode_reports_but_passes(self):
        seed_history(self.store)
        self.fresh(**{"scale.subcycle.fleet10000.baseline_ms": 121.2})
        rc = bench_trend.main(["--runstore", self.store, "--run-id", "fresh",
                               "--mode", "warn"])
        self.assertEqual(rc, 0)

    def test_clean_run_passes_enforce(self):
        seed_history(self.store)
        self.fresh()
        rc = bench_trend.main(["--runstore", self.store, "--run-id", "fresh",
                               "--mode", "enforce"])
        self.assertEqual(rc, 0)

    def test_speedup_drop_is_a_regression(self):
        seed_history(self.store)
        self.fresh(**{"scale.trace.time_ratio": 3.0})  # -26% on a ratio column
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        by_col = {f["column"]: f for f in findings}
        self.assertEqual(by_col["scale.trace.time_ratio"]["status"], "regression")

    def test_lower_time_is_an_improvement_not_a_regression(self):
        seed_history(self.store)
        self.fresh(**{"scale.subcycle.fleet10000.baseline_ms": 80.0})  # -21%
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        by_col = {f["column"]: f for f in findings}
        self.assertEqual(
            by_col["scale.subcycle.fleet10000.baseline_ms"]["status"], "improvement")

    def test_insufficient_history_never_gates(self):
        seed_history(self.store, runs=1)
        self.fresh(**{"scale.subcycle.fleet10000.baseline_ms": 500.0})
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        self.assertTrue(all(f["status"] == "no-history" for f in findings))
        rc = bench_trend.main(["--runstore", self.store, "--run-id", "fresh",
                               "--mode", "enforce"])
        self.assertEqual(rc, 0)

    def test_new_series_without_history_never_gates(self):
        # A benchmark added to the run (a new micro column) has no stored
        # history yet: it is reported, not gated, and the known columns
        # still trend as usual.
        seed_history(self.store)
        self.fresh(**{"micro.BM_ModularitySwapTrial_10000.real_time_ns": 250.0})
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        by_col = {f["column"]: f for f in findings}
        new = by_col["micro.BM_ModularitySwapTrial_10000.real_time_ns"]
        self.assertEqual(new["status"], "no-history")
        self.assertEqual(new["history"], 0)
        self.assertEqual(
            by_col["scale.subcycle.fleet10000.baseline_ms"]["status"], "ok")
        rc = bench_trend.main(["--runstore", self.store, "--run-id", "fresh",
                               "--mode", "enforce"])
        self.assertEqual(rc, 0)

    def test_config_hash_separates_histories(self):
        # Quick-mode history must not gate a full-mode run: the fresh run's
        # config hash matches nothing, so there is no usable history.
        for i in range(3):
            bench_trend.append_run(self.store, (f"q{i}", "sha", "cfgQuick"),
                                   {"scale.subcycle.fleet10000.baseline_ms": 5.0})
        bench_trend.append_run(self.store, ("fresh", "sha", "cfgFull"),
                               {"scale.subcycle.fleet10000.baseline_ms": 100.0})
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        self.assertEqual(findings[0]["status"], "no-history")

    def test_per_row_series_uses_the_median(self):
        for i in range(2):
            bench_trend.append_run(self.store, (f"hist{i}", "sha", "cfgA"),
                                   {"subcycle_ms": [9.0, 10.0, 11.0]})
        bench_trend.append_run(self.store, ("fresh", "sha", "cfgA"),
                               {"subcycle_ms": [9.5, 10.5, 200.0]})
        findings = bench_trend.trend(self.store, "fresh", 0.10, 2)
        self.assertEqual(findings[0]["status"], "ok")  # median 10.5 vs 10.0

    def test_unknown_run_id_errors(self):
        seed_history(self.store)
        with self.assertRaises(ValueError):
            bench_trend.trend(self.store, "missing", 0.10, 2)


if __name__ == "__main__":
    unittest.main()
