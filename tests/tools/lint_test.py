#!/usr/bin/env python3
"""Self-test for tools/lint/cloudfog_lint.py.

Each *_bad fixture must trip exactly its target rule (non-zero exit, the
rule id in the output); the clean fixture must pass; the full src/ + bench/
tree must be clean. Run directly or via ctest (`lint_selftest`).
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "lint", "cloudfog_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT, *args],
        capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


class FixtureCase(unittest.TestCase):
    def assert_trips(self, fixture, rule, min_findings=1):
        path = os.path.join(FIXTURES, fixture)
        code, out, _ = run_lint(path)
        self.assertEqual(code, 1, f"{fixture} should fail the lint\n{out}")
        hits = [l for l in out.splitlines() if f"[{rule}]" in l]
        self.assertGreaterEqual(
            len(hits), min_findings,
            f"{fixture} should trip {rule} at least {min_findings}x\n{out}")
        return out

    def test_wallclock_fixture(self):
        out = self.assert_trips("wallclock_bad.cpp", "cloudfog-wallclock",
                                min_findings=5)
        self.assertNotIn("sim_time_ok", out)

    def test_unordered_iter_fixture(self):
        out = self.assert_trips("unordered_iter_bad.cpp",
                                "cloudfog-unordered-iter", min_findings=2)
        # find()-based lookup must not be flagged.
        for line in out.splitlines():
            self.assertNotIn(":30:", line.split(" ")[0])

    def test_pointer_key_fixture(self):
        self.assert_trips("pointer_key_bad.cpp", "cloudfog-pointer-key",
                          min_findings=3)

    def test_uninit_pod_fixture(self):
        out = self.assert_trips(os.path.join("src", "uninit_pod_bad.hpp"),
                                "cloudfog-uninit-pod", min_findings=3)
        self.assertNotIn("StatsOk", out)
        flagged = [l for l in out.splitlines() if "cloudfog-uninit-pod" in l]
        for member in ("mean", "count", "cursor"):
            self.assertTrue(any(f"'{member}'" in l for l in flagged),
                            f"member {member} should be flagged\n{out}")

    def test_metric_once_fixture(self):
        out = self.assert_trips("metric_once_bad.cpp", "cloudfog-metric-once",
                                min_findings=2)
        self.assertIn("fixture.duplicated", out)
        self.assertNotIn("fixture.unique_gauge", out)
        self.assertNotIn("fixture.unique_counter", out)

    def test_unreached_fixture(self):
        out = self.assert_trips("reach_bad", "cloudfog-unreached")
        flagged = [l for l in out.splitlines() if "[cloudfog-unreached]" in l]
        self.assertEqual(len(flagged), 1, out)
        self.assertIn("src/lib/dead.hpp:1:", flagged[0])

    def test_unreached_clean_fixture(self):
        # Reached directly, through the .cpp of a reached header, or exempt
        # as a test oracle under src/oracle/.
        code, out, err = run_lint(os.path.join(FIXTURES, "reach_ok"))
        self.assertEqual(code, 0, f"reachable tree should pass\n{out}{err}")

    def test_raw_rng_fixture(self):
        out = self.assert_trips("raw_rng_bad.cpp", "cloudfog-raw-rng",
                                min_findings=4)
        self.assertIn("mt19937", out)
        self.assertIn("entropy", out)

    def test_raw_rng_clean_fixture(self):
        code, out, err = run_lint(os.path.join(FIXTURES, "raw_rng_ok.cpp"))
        self.assertEqual(code, 0, f"seeded-stream fixture should pass\n{out}{err}")

    def test_float_reduce_fixture(self):
        out = self.assert_trips("float_reduce_bad.cpp", "cloudfog-float-reduce",
                                min_findings=1)
        self.assertIn("'total'", out)

    def test_float_reduce_clean_fixture(self):
        code, out, err = run_lint(os.path.join(FIXTURES, "float_reduce_ok.cpp"))
        self.assertEqual(code, 0, f"ordered-sum fixture should pass\n{out}{err}")

    def test_static_mutable_fixture(self):
        out = self.assert_trips(os.path.join("src", "static_mutable_bad.cpp"),
                                "cloudfog-static-mutable", min_findings=3)
        flagged = [l.split(":")[1] for l in out.splitlines()
                   if "cloudfog-static-mutable" in l]
        self.assertEqual(len(flagged), 3, out)

    def test_static_mutable_clean_fixture(self):
        code, out, err = run_lint(
            os.path.join(FIXTURES, "src", "static_mutable_ok.cpp"))
        self.assertEqual(code, 0, f"const-static fixture should pass\n{out}{err}")

    def test_static_mutable_scoped_to_src(self):
        # The same declarations outside a src/ path are not the rule's
        # business (fixtures, tests and tools keep their statics).
        code, out, _ = run_lint(
            os.path.join(FIXTURES, "src", "static_mutable_bad.cpp"),
            "--rule", "cloudfog-static-mutable")
        self.assertEqual(code, 1, out)
        code, out, _ = run_lint(
            os.path.join(FIXTURES, "clean_ok.cpp"),
            "--rule", "cloudfog-static-mutable")
        self.assertEqual(code, 0, out)

    def test_stats_output(self):
        _, _, err = run_lint(os.path.join(FIXTURES, "raw_rng_bad.cpp"), "--stats")
        stat_lines = [l for l in err.splitlines() if " stat " in l]
        self.assertTrue(any("cloudfog-raw-rng" in l and l.split()[-1] == "4"
                            for l in stat_lines), err)
        # Zero counts are printed too (CI graphs every rule every run).
        self.assertTrue(any("cloudfog-metric-once" in l and l.split()[-1] == "0"
                            for l in stat_lines), err)

    def test_nolint_requires_justification(self):
        out = self.assert_trips("nolint_nojust_bad.cpp", "cloudfog-nolint")
        # The bare NOLINT must not silently suppress the underlying finding
        # report — the justification requirement is the error.
        self.assertIn("justification", out)

    def test_clean_fixture_passes(self):
        code, out, err = run_lint(os.path.join(FIXTURES, "clean_ok.cpp"))
        self.assertEqual(code, 0, f"clean fixture should pass\n{out}{err}")
        self.assertEqual(out.strip(), "")

    def test_rule_filter(self):
        # With the unrelated rule selected, the wallclock fixture is clean.
        code, out, _ = run_lint(
            os.path.join(FIXTURES, "wallclock_bad.cpp"),
            "--rule", "cloudfog-pointer-key")
        self.assertEqual(code, 0, out)

    def test_unknown_rule_is_usage_error(self):
        code, _, err = run_lint("--rule", "cloudfog-no-such-rule")
        self.assertEqual(code, 2)
        self.assertIn("unknown rule", err)

    def test_list_rules(self):
        code, out, _ = run_lint("--list-rules")
        self.assertEqual(code, 0)
        for rule in ("cloudfog-wallclock", "cloudfog-unordered-iter",
                     "cloudfog-pointer-key", "cloudfog-uninit-pod",
                     "cloudfog-metric-once", "cloudfog-unreached",
                     "cloudfog-nolint",
                     "cloudfog-raw-rng",
                     "cloudfog-float-reduce", "cloudfog-static-mutable"):
            self.assertIn(rule, out)


class TreeCase(unittest.TestCase):
    def test_full_tree_is_clean(self):
        code, out, err = run_lint("src", "bench", "--jobs", "0")
        self.assertEqual(code, 0,
                         f"src/ + bench/ must stay lint-clean\n{out}{err}")

    def test_parallel_scan_matches_serial(self):
        # The multiprocessing driver must be an implementation detail:
        # identical findings, identical order, at any job count. Scanned
        # over the fixtures (guaranteed findings) and the live tree.
        for target in (FIXTURES, "src"):
            serial_code, serial_out, _ = run_lint(target, "--jobs", "1")
            par_code, par_out, _ = run_lint(target, "--jobs", "4")
            self.assertEqual(serial_code, par_code, target)
            self.assertEqual(serial_out, par_out, target)


if __name__ == "__main__":
    unittest.main(verbosity=2)
