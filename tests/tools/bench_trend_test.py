#!/usr/bin/env python3
"""Tests for scripts/bench_trend.py: the trend gate over perfbench result
lines must flag an end-to-end metric that moves past its BENCHMARK.json
bound in the direction BENCHMARK.json calls worse, pass a clean run,
respect the warn/enforce modes and fail an incorrect result in either
mode; and the run-store reader/writer must keep the on-disk format the
module docstring describes (sanitized manifest fields, a torn tail record
dropped, an empty or missing store read as empty)."""

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

    def test_column_round_trip_keeps_the_documented_format(self):
        bench_trend.append_run(self.store, ("run-a", "sha1", "cfg"),
                               {"wall_s": [1.0, 2.0], "setup_s": 0.5})
        bench_trend.append_run(self.store, ("run-b", "sha2", "cfg"), {"wall_s": 3.0})
        path = os.path.join(self.store, "columns", "wall_s.col")
        with open(path, "rb") as fh:
            self.assertEqual(fh.read(8), b"CFRC\x01\x00\x00\x00")
        self.assertEqual(os.path.getsize(path), 8 + 3 * 16)
        self.assertEqual(bench_trend.read_column(self.store, "wall_s"),
                         [(0, 1.0), (0, 2.0), (1, 3.0)])
        self.assertEqual(bench_trend.list_columns(self.store), ["setup_s", "wall_s"])
        self.assertEqual([r["row"] for r in bench_trend.read_manifest(self.store)], [0, 1])

    def test_torn_tail_record_is_dropped(self):
        bench_trend.append_run(self.store, ("run", "sha", "cfg"), {"wall_s": [1.0, 2.0]})
        path = os.path.join(self.store, "columns", "wall_s.col")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 5)  # a write cut short
        self.assertEqual(bench_trend.read_column(self.store, "wall_s"), [(0, 1.0)])
        # The next append cuts the torn tail, so its records stay aligned.
        bench_trend.append_run(self.store, ("run2", "sha", "cfg"), {"wall_s": 3.0})
        self.assertEqual(bench_trend.read_column(self.store, "wall_s"), [(0, 1.0), (1, 3.0)])

    def test_manifest_fields_are_sanitized(self):
        bench_trend.append_run(self.store, ("id\twith\ttabs", "sha\nline", "cfg"),
                               {"wall_s": 1.0})
        rows = bench_trend.read_manifest(self.store)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["run_id"], "id_with_tabs")
        self.assertEqual(rows[0]["git_sha"], "sha_line")
        self.assertEqual(rows[0]["config_hash"], "cfg")

    def test_empty_or_missing_store_reads_as_empty(self):
        for store in (self.store, os.path.join(self.store, "missing")):
            self.assertEqual(bench_trend.read_manifest(store), [])
            self.assertEqual(bench_trend.list_columns(store), [])
            self.assertEqual(bench_trend.read_column(store, "wall_s"), [])


if __name__ == "__main__":
    unittest.main()
