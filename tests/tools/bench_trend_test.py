#!/usr/bin/env python3
"""Tests for scripts/bench_trend.py: the trend gate over perfbench result
lines must flag an end-to-end metric that moves past its BENCHMARK.json
bound in the direction BENCHMARK.json calls worse, pass a clean run,
respect the warn/enforce modes, fail an incorrect result in either mode,
and read exactly the column format obs::RunStore writes (the append_run
writer here is byte-compatible by construction and cross-checked against
the C++ reader in scripts/check.sh)."""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "scripts"))
import bench_trend  # noqa: E402

BASE = {
    "setup_s": 0.50,
    "wall_s": 3.00,
    "sim_player_hours_per_s": 9000.0,
    "call_ms_p50": 20.0,
    "call_ms_p95": 40.0,
    "peak_rss_mb": 30.0,
}


def result(correct=True, failed=0, **overrides):
    """A perfbench result line, as perfbench/run.py prints it."""
    values = dict(BASE, **overrides)
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}}


def seed_history(store, runs=3, config="daily-social"):
    for i in range(runs):
        bench_trend.append_result(store, (f"hist{i}", f"sha{i}", config), result())


class BenchTrendTest(unittest.TestCase):
    def setUp(self):
        self.store = tempfile.mkdtemp(prefix="bench_trend_test_")
        self.addCleanup(shutil.rmtree, self.store, ignore_errors=True)

    def fresh(self, config="daily-social", **overrides):
        bench_trend.append_result(self.store, ("fresh", "shaF", config), result(**overrides))

    def status(self, column, config="daily-social"):
        findings = bench_trend.trend(self.store, "fresh", 2)
        by_key = {(f["config"], f["column"]): f for f in findings}
        return by_key[(config, column)]["status"]

    def main(self, mode):
        return bench_trend.main(["--runstore", self.store, "--run-id", "fresh",
                                 "--mode", mode])

    def test_bounds_and_directions_come_from_benchmark_json(self):
        metrics = bench_trend.load_metrics()
        self.assertEqual(set(metrics), set(BASE))
        self.assertEqual(metrics["wall_s"][0], "lower")
        self.assertEqual(metrics["sim_player_hours_per_s"][0], "higher")
        self.assertEqual(metrics["peak_rss_mb"][1], 0.1)

    def test_flags_regression_and_enforce_fails(self):
        seed_history(self.store)
        self.fresh(wall_s=3.9)  # +30 %
        self.assertEqual(self.status("wall_s"), "regression")
        self.assertEqual(self.main("enforce"), 1)

    def test_warn_mode_reports_but_passes(self):
        seed_history(self.store)
        self.fresh(wall_s=3.9)
        self.assertEqual(self.main("warn"), 0)

    def test_clean_run_passes_enforce(self):
        seed_history(self.store)
        self.fresh(wall_s=3.1, peak_rss_mb=30.5)
        self.assertEqual(self.main("enforce"), 0)

    def test_throughput_drop_is_a_regression(self):
        seed_history(self.store)
        self.fresh(sim_player_hours_per_s=6300.0)  # -30 %
        self.assertEqual(self.status("sim_player_hours_per_s"), "regression")

    def test_peak_rss_uses_its_own_bound(self):
        seed_history(self.store)
        self.fresh(peak_rss_mb=33.6)  # +12 %, beyond its 0.10 bound
        self.assertEqual(self.status("peak_rss_mb"), "regression")

    def test_peak_rss_within_its_bound_passes(self):
        seed_history(self.store)
        self.fresh(peak_rss_mb=32.4)  # +8 %
        self.assertEqual(self.status("peak_rss_mb"), "ok")
        self.assertEqual(self.main("enforce"), 0)

    def test_lower_time_is_an_improvement_not_a_regression(self):
        seed_history(self.store)
        self.fresh(wall_s=2.1)  # -30 %
        self.assertEqual(self.status("wall_s"), "improvement")

    def test_incorrect_result_fails_in_warn_mode(self):
        seed_history(self.store)
        self.fresh(correct=False)
        self.assertEqual(bench_trend.incorrect(self.store, "fresh"), ["daily-social"])
        self.assertEqual(self.main("warn"), 1)

    def test_failed_checks_fail_in_warn_mode(self):
        seed_history(self.store)
        self.fresh(failed=1)
        self.assertEqual(self.main("warn"), 1)

    def test_insufficient_history_never_gates(self):
        seed_history(self.store, runs=1)
        self.fresh(wall_s=30.0)
        findings = bench_trend.trend(self.store, "fresh", 2)
        self.assertTrue(all(f["status"] == "no-history" for f in findings))
        self.assertEqual(self.main("enforce"), 0)

    def test_configs_trend_apart(self):
        # Each workload is its own config: figures history must not gate
        # arrival-chaos, and one run holding every workload trends each
        # against its own history.
        seed_history(self.store, config="figures")
        bench_trend.append_result(self.store, ("fresh", "shaF", "figures"), result())
        bench_trend.append_result(self.store, ("fresh", "shaF", "arrival-chaos"),
                                  result(wall_s=30.0))
        self.assertEqual(self.status("wall_s", "figures"), "ok")
        self.assertEqual(self.status("wall_s", "arrival-chaos"), "no-history")
        self.assertEqual(self.main("enforce"), 0)

    def test_per_row_series_uses_the_median(self):
        for i in range(2):
            bench_trend.append_run(self.store, (f"hist{i}", "sha", "cfgA"),
                                   {"wall_s": [9.0, 10.0, 11.0]})
        bench_trend.append_run(self.store, ("fresh", "sha", "cfgA"),
                               {"wall_s": [9.5, 10.5, 200.0]})
        self.assertEqual(self.status("wall_s", "cfgA"), "ok")  # median 10.5 vs 10.0

    def test_unknown_run_id_errors(self):
        seed_history(self.store)
        with self.assertRaises(ValueError):
            bench_trend.trend(self.store, "missing", 2)


if __name__ == "__main__":
    unittest.main()
