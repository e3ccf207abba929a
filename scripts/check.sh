#!/usr/bin/env bash
# Full verification pipeline:
#
#   1. determinism & correctness lint (tools/lint/cloudfog_lint.py)
#   2. format check on tracked sources (when clang-format is available)
#   3. plain build (warnings-as-errors by default) + tier-1 ctest
#   4. determinism gate: cloudfog_figs fig7 and the seeded chaos smoke run
#      twice; binary traces must be byte-identical and reports identical after
#      canonicalization (wall-clock phase timings are the only sanctioned
#      difference — tools/determinism/canonicalize_report.py); fig7 at
#      --jobs 1 and --jobs 4 must print the same tables and canonical
#      report; the quick-scale stdout of every figure but fig9 must match
#      the sha256 pinned below (CATALOGUE_SHA256) with the recorder off and
#      on; fig9's own quick-scale stdout must match FIG9_SHA256; and the
#      default-scale stdout of the whole catalogue, fig9 included, must
#      match CATALOGUE_DEFAULT_SHA256 (and, in full mode, its --paper
#      stdout CATALOGUE_PAPER_SHA256).
#   5. scenario gate: the bundled data/scenarios suite runs in smoke mode
#      with every acceptance envelope enforced; the reputation ablation
#      (--no-reputation --expect-fail) must make at least one adversary
#      envelope fail; and one scenario (regional-outage) replays seeded —
#      double-run traces byte-identical, reports identical after
#      canonicalization
#   6. trace pin: the tracecat JSONL of the stage-4 fig7 and chaos traces
#      must match the sha256 pinned below (FIG7_TRACE_SHA256,
#      CHAOS_TRACE_SHA256)
#   7. bench smoke: observability export schema checks, including zero
#      trace drops while a sink is attached and a monotone tracecat JSONL
#   8. (full mode) the paper-scale catalogue pin (CATALOGUE_PAPER_SHA256,
#      about 50 s on 4 CPUs), the seed-42 output_digest of each perfbench
#      workload (PERFBENCH_DIGESTS; perfbench builds its own Release tree
#      under .bench_build/), the function-grain reach listing against its
#      allowlist (scripts/reach.sh --check, a second unoptimized build of
#      about 2 min), then the sanitizer matrix: ASan+UBSan build + ctest, TSan build +
#      ctest (the sweep-pool test included), a traced and a 4-worker TSan
#      fig7 cross-checked against the plain run, the chaos
#      smoke re-run under ASan, and a standalone UBSan build
#      (with the probed float-divide-by-zero / implicit-integer-sign-change
#      checks) driving fig7, the seeded chaos replay and the full scenario
#      smoke — all cross-checked byte-for-byte against the plain binary traces
#
#   scripts/check.sh            everything
#   scripts/check.sh --quick    stages 1–7 only (no sanitizer builds)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== lint: determinism & correctness rules =="
scripts/lint.sh

if command -v clang-format >/dev/null 2>&1; then
  echo "== format check =="
  scripts/format.sh --check
else
  echo "== format check: clang-format not found, skipping =="
fi

echo "== tier-1: plain build (warnings are errors) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== determinism gate: double-run fig7 =="
./build/bench/cloudfog_figs fig7 --quick \
  --report-json "$SMOKE_DIR/fig7_report_a.json" \
  --trace "$SMOKE_DIR/fig7_trace_a.bin" >"$SMOKE_DIR/fig7_stdout_a.txt"
./build/bench/cloudfog_figs fig7 --quick \
  --report-json "$SMOKE_DIR/fig7_report_b.json" \
  --trace "$SMOKE_DIR/fig7_trace_b.bin" >"$SMOKE_DIR/fig7_stdout_b.txt"
cmp "$SMOKE_DIR/fig7_trace_a.bin" "$SMOKE_DIR/fig7_trace_b.bin" >&2 || {
  echo "determinism gate FAILED: fig7 trace differs between identical runs" >&2
  exit 1
}
cmp -s "$SMOKE_DIR/fig7_stdout_a.txt" "$SMOKE_DIR/fig7_stdout_b.txt" || {
  echo "determinism gate FAILED: fig7 stdout (figure table) differs" >&2; exit 1; }
python3 tools/determinism/canonicalize_report.py --check \
  "$SMOKE_DIR/fig7_report_a.json" "$SMOKE_DIR/fig7_report_b.json" || {
  echo "determinism gate FAILED: fig7 report differs beyond phase timings" >&2; exit 1; }
echo "fig7: trace byte-identical, stdout identical, canonical report identical"

echo "== determinism gate: fig7 sweep pool at --jobs 1 vs --jobs 4 =="
./build/bench/cloudfog_figs fig7 --quick --jobs 1 \
  --report-json "$SMOKE_DIR/fig7_report_j1.json" >"$SMOKE_DIR/fig7_stdout_j1.txt"
./build/bench/cloudfog_figs fig7 --quick --jobs 4 \
  --report-json "$SMOKE_DIR/fig7_report_j4.json" >"$SMOKE_DIR/fig7_stdout_j4.txt"
cmp -s "$SMOKE_DIR/fig7_stdout_j1.txt" "$SMOKE_DIR/fig7_stdout_j4.txt" || {
  echo "determinism gate FAILED: fig7 tables differ between --jobs 1 and --jobs 4" >&2; exit 1; }
cmp -s "$SMOKE_DIR/fig7_stdout_a.txt" "$SMOKE_DIR/fig7_stdout_j4.txt" || {
  echo "determinism gate FAILED: pooled fig7 tables differ from the traced run" >&2; exit 1; }
python3 tools/determinism/canonicalize_report.py --check \
  "$SMOKE_DIR/fig7_report_j1.json" "$SMOKE_DIR/fig7_report_j4.json" || {
  echo "determinism gate FAILED: fig7 report differs between --jobs 1 and --jobs 4" >&2; exit 1; }
echo "fig7: --jobs 1 and --jobs 4 give identical tables and canonical reports"

echo "== determinism gate: double-run seeded chaos =="
CLOUDFOG_FAULT_SEED=424242 ./build/bench/cloudfog_figs chaos --quick \
  --report-json "$SMOKE_DIR/chaos_report_a.json" \
  --trace "$SMOKE_DIR/chaos_trace_a.bin" >/dev/null
CLOUDFOG_FAULT_SEED=424242 ./build/bench/cloudfog_figs chaos --quick \
  --report-json "$SMOKE_DIR/chaos_report_b.json" \
  --trace "$SMOKE_DIR/chaos_trace_b.bin" >/dev/null
./build/tools/tracecat "$SMOKE_DIR/chaos_trace_a.bin" -o "$SMOKE_DIR/chaos_trace_a.jsonl"
grep -q '"kind":"fault_' "$SMOKE_DIR/chaos_trace_a.jsonl" || {
  echo "chaos run injected no faults" >&2; exit 1; }
cmp -s "$SMOKE_DIR/chaos_trace_a.bin" "$SMOKE_DIR/chaos_trace_b.bin" || {
  echo "determinism gate FAILED: seeded chaos replay diverged (full trace)" >&2; exit 1; }
python3 tools/determinism/canonicalize_report.py --check \
  "$SMOKE_DIR/chaos_report_a.json" "$SMOKE_DIR/chaos_report_b.json" || {
  echo "determinism gate FAILED: chaos report differs beyond phase timings" >&2; exit 1; }
echo "chaos: seeded replay byte-identical, canonical report identical"

echo "== determinism gate: figure catalogue pinned across changes =="
# sha256 of the quick-scale stdout of every figure but fig9. Recorded
# from the 19 per-figure binaries that cloudfog_figs replaced,
# concatenated in catalogue order. It must hold with the recorder off and on: tracing
# never changes a table. FIG9_SHA256 pins fig9 on its own (its
# server-assignment column counts swap trials). CATALOGUE_DEFAULT_SHA256
# pins the stdout of the whole catalogue, fig9 included, at default scale
# (no names, --obs-off; about 15 s on 4 CPUs). CATALOGUE_PAPER_SHA256
# pins the same at --paper scale, the full 28-day schedule of every
# sweep; it runs in full mode only and in the scheduled CI job.
# PERFBENCH_DIGESTS pins the output_digest that perfbench (BENCHMARK.json)
# prints for each workload at its default seed 42; full mode and CI's
# bench-trend job check it. A change that moves any table or digest must
# update the constant and say why in CHANGES.md. CI reads the constants
# from these lines.
CATALOGUE_SHA256=ca52f67b522840b8aeaa2eee5499d5aac0d33945bfa88ea8c6d1a488028463bf
FIG9_SHA256=8c38ddd659ddad2a5de5f154cf45a0a0c91f3e2302ef8dc9e6ed66ca60a70021
CATALOGUE_DEFAULT_SHA256=600eaf10015d527691f18ca66f39b975373350f0791744ad8de6120dc8ebc141
CATALOGUE_PAPER_SHA256=b815063241570581945abf3c7d9cd604dbba92ac3793b4a7f7c078ca292a8a26
PERFBENCH_DIGESTS="figures:ebaa9c797fba55f6 daily-social:a22860ee4b21aa1f arrival-chaos:4bad594a24369489"
PINNED_FIGURES="fig4 fig6 fig7 fig8 fig10 fig11 fig12 fig13 fig14 fig15 fig16
  malicious incentives epsilon forecast failures chaos candidates"
for obs in --obs-off ""; do
  env -u CLOUDFOG_FAULT_SEED ./build/bench/cloudfog_figs --quick --jobs 4 $obs \
    $PINNED_FIGURES >"$SMOKE_DIR/catalogue.txt"
  actual=$(sha256sum "$SMOKE_DIR/catalogue.txt" | cut -d' ' -f1)
  [ "$actual" = "$CATALOGUE_SHA256" ] || {
    echo "determinism gate FAILED: figure catalogue (${obs:-recorder on}) sha256 $actual," \
      "pinned $CATALOGUE_SHA256" >&2
    exit 1; }
done
env -u CLOUDFOG_FAULT_SEED ./build/bench/cloudfog_figs fig9 --quick --jobs 4 --obs-off \
  >"$SMOKE_DIR/fig9.txt"
actual=$(sha256sum "$SMOKE_DIR/fig9.txt" | cut -d' ' -f1)
[ "$actual" = "$FIG9_SHA256" ] || {
  echo "determinism gate FAILED: fig9 sha256 $actual, pinned $FIG9_SHA256" >&2
  exit 1; }
env -u CLOUDFOG_FAULT_SEED ./build/bench/cloudfog_figs --jobs "$JOBS" --obs-off \
  >"$SMOKE_DIR/catalogue_default.txt"
actual=$(sha256sum "$SMOKE_DIR/catalogue_default.txt" | cut -d' ' -f1)
[ "$actual" = "$CATALOGUE_DEFAULT_SHA256" ] || {
  echo "determinism gate FAILED: default-scale catalogue sha256 $actual," \
    "pinned $CATALOGUE_DEFAULT_SHA256" >&2
  exit 1; }
echo "catalogue: every figure matches its pinned digest (quick scale with the" \
  "recorder off and on, default scale)"

echo "== scenario gate: bundled suite, envelopes enforced =="
./build/bench/bench_scenarios --all --smoke --obs-off >"$SMOKE_DIR/scenario_suite.txt" || {
  echo "scenario gate FAILED: a bundled scenario left its acceptance envelope" >&2
  tail -25 "$SMOKE_DIR/scenario_suite.txt" >&2; exit 1; }
tail -11 "$SMOKE_DIR/scenario_suite.txt"
# The adversary envelopes must be carried by the §3.2 reputation defence:
# with it switched off, at least one scenario has to fail.
./build/bench/bench_scenarios --all --smoke --obs-off --no-reputation --expect-fail \
  >"$SMOKE_DIR/scenario_ablation.txt" || {
  echo "scenario gate FAILED: every envelope still passes without reputation" >&2
  tail -25 "$SMOKE_DIR/scenario_ablation.txt" >&2; exit 1; }
tail -1 "$SMOKE_DIR/scenario_ablation.txt"

echo "== scenario gate: seeded replay (regional-outage) =="
./build/bench/bench_scenarios --scenario regional-outage --smoke \
  --report-json "$SMOKE_DIR/scen_report_a.json" \
  --trace "$SMOKE_DIR/scen_trace_a.bin" >"$SMOKE_DIR/scen_stdout_a.txt"
./build/bench/bench_scenarios --scenario regional-outage --smoke \
  --report-json "$SMOKE_DIR/scen_report_b.json" \
  --trace "$SMOKE_DIR/scen_trace_b.bin" >"$SMOKE_DIR/scen_stdout_b.txt"
./build/tools/tracecat "$SMOKE_DIR/scen_trace_a.bin" -o "$SMOKE_DIR/scen_trace_a.jsonl"
grep -q '"kind":"fault_' "$SMOKE_DIR/scen_trace_a.jsonl" || {
  echo "scenario replay injected no faults" >&2; exit 1; }
cmp -s "$SMOKE_DIR/scen_trace_a.bin" "$SMOKE_DIR/scen_trace_b.bin" || {
  echo "determinism gate FAILED: scenario replay diverged (full trace)" >&2; exit 1; }
cmp -s "$SMOKE_DIR/scen_stdout_a.txt" "$SMOKE_DIR/scen_stdout_b.txt" || {
  echo "determinism gate FAILED: scenario stdout (envelope tables) differs" >&2; exit 1; }
python3 tools/determinism/canonicalize_report.py --check \
  "$SMOKE_DIR/scen_report_a.json" "$SMOKE_DIR/scen_report_b.json" || {
  echo "determinism gate FAILED: scenario report differs beyond phase timings" >&2; exit 1; }
echo "scenario: seeded replay byte-identical, canonical report identical"

echo "== trace pin: tracecat JSONL pinned across changes =="
# sha256 of the tracecat JSONL of the stage-4 traces: fig7 --quick --trace
# and CLOUDFOG_FAULT_SEED=424242 chaos --quick --trace. A run writes only
# the binary format, and tools/trace/tracecat is the only JSONL producer,
# so these pins catch a change to either the events or their JSONL form.
# A change that moves a trace must update the constant and say why in
# CHANGES.md. CI reads both constants from these lines.
FIG7_TRACE_SHA256=acfa145eb78021cacd626b531f048352a622ffddbc2af33b1e6f7e015d2f32ed
CHAOS_TRACE_SHA256=337d5b85d357be0e1b5b85a20784b12b73d82e9a0cdf130c3c5eff762a9631a3
./build/tools/tracecat "$SMOKE_DIR/fig7_trace_a.bin" -o "$SMOKE_DIR/fig7_trace_a.jsonl"
actual=$(sha256sum "$SMOKE_DIR/fig7_trace_a.jsonl" | cut -d' ' -f1)
[ "$actual" = "$FIG7_TRACE_SHA256" ] || {
  echo "trace pin FAILED: fig7 trace sha256 $actual, pinned $FIG7_TRACE_SHA256" >&2; exit 1; }
actual=$(sha256sum "$SMOKE_DIR/chaos_trace_a.jsonl" | cut -d' ' -f1)
[ "$actual" = "$CHAOS_TRACE_SHA256" ] || {
  echo "trace pin FAILED: chaos trace sha256 $actual, pinned $CHAOS_TRACE_SHA256" >&2; exit 1; }
echo "tracecat: fig7 + chaos traces match their pinned JSONL digests"

echo "== bench smoke: observability exports =="
python3 - "$SMOKE_DIR/fig7_report_a.json" "$SMOKE_DIR/fig7_trace_a.jsonl" <<'EOF'
import json, sys
report_path, trace_path = sys.argv[1], sys.argv[2]
report = json.load(open(report_path))
assert report["schema"].startswith("cloudfog.run_report/"), report["schema"]
assert report["runs"], "no runs in report"
assert len(report["counters"]) >= 5, "expected at least five counters"
assert report["phases"], "no phase profile"
trace = report["trace"]
# Drop accounting: with a sink attached the ring is a write buffer, so a
# nonzero drop count means retained events were silently lost.
assert trace["dropped"] == 0, f"trace dropped {trace['dropped']} events with a sink attached"
assert trace["retention"] == "full", trace
last = float("-inf")
n = 0
with open(trace_path) as f:
    for line in f:
        t = json.loads(line)["t"]
        assert t >= last, f"trace not monotone at line {n}"
        last = t
        n += 1
assert n > 0, "empty trace"
print(f"report OK ({len(report['runs'])} runs, {len(report['counters'])} counters); "
      f"trace OK ({n} events, monotone)")
EOF

python3 - "$SMOKE_DIR/chaos_report_a.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"].startswith("cloudfog.run_report/"), report["schema"]
assert report["runs"], "no runs in chaos report"
assert report["trace"]["dropped"] == 0, \
    f"chaos trace dropped {report['trace']['dropped']} events with a sink attached"
counters = report["counters"]
joins, leaves = counters["system.player_joins"], counters["system.player_leaves"]
assert joins == leaves, f"session leak: {joins} joins vs {leaves} leaves"
assert counters.get("fault.injected", 0) > 0, "no faults injected"
assert counters.get("fault.cleared", 0) > 0, "no faults cleared"
names = {name for run in report["runs"] for name in run["metrics"]}
for required in ("mttr_ms", "fallback_residency", "sessions_interrupted"):
    assert required in names, f"missing chaos metric {required}"
print(f"chaos report OK ({counters['fault.injected']} faults injected, "
      f"{joins} joins == leaves)")
EOF

if [ "$QUICK" -eq 0 ]; then
  echo "== determinism gate: paper-scale catalogue pinned across changes =="
  env -u CLOUDFOG_FAULT_SEED ./build/bench/cloudfog_figs --paper --jobs "$JOBS" --obs-off \
    >"$SMOKE_DIR/catalogue_paper.txt"
  actual=$(sha256sum "$SMOKE_DIR/catalogue_paper.txt" | cut -d' ' -f1)
  [ "$actual" = "$CATALOGUE_PAPER_SHA256" ] || {
    echo "determinism gate FAILED: paper-scale catalogue sha256 $actual," \
      "pinned $CATALOGUE_PAPER_SHA256" >&2
    exit 1; }
  echo "catalogue: the paper-scale stdout matches its pinned digest"

  echo "== determinism gate: perfbench output digests pinned across changes =="
  for pin in $PERFBENCH_DIGESTS; do
    w=${pin%%:*}
    actual=$(python3 perfbench/run.py --workload "$w" --seconds 0 |
      sed -n 's/^output_digest=//p')
    [ "$actual" = "${pin#*:}" ] || {
      echo "determinism gate FAILED: perfbench $w output_digest '$actual', pinned ${pin#*:}" >&2
      exit 1; }
  done
  echo "perfbench: every workload's output_digest matches its pin"

  echo "== reach listing: every test-only src/ function is allowlisted =="
  scripts/reach.sh --check >/dev/null

  echo "== sanitizer matrix: ASan+UBSan build =="
  cmake -B build-asan -S . -DSANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"

  echo "== sanitizer matrix: TSan build =="
  cmake -B build-tsan -S . -DSANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS"

  echo "== TSan leg: fig7 race check + trace cross-check =="
  ./build-tsan/bench/cloudfog_figs fig7 --quick \
    --trace "$SMOKE_DIR/fig7_tsan.bin" >/dev/null
  cmp -s "$SMOKE_DIR/fig7_trace_a.bin" "$SMOKE_DIR/fig7_tsan.bin" || {
    echo "fig7 trace diverged between plain and TSan builds" >&2; exit 1; }
  ./build-tsan/bench/cloudfog_figs fig7 --quick --jobs 4 \
    >"$SMOKE_DIR/fig7_tsan_j4.txt"
  cmp -s "$SMOKE_DIR/fig7_stdout_j4.txt" "$SMOKE_DIR/fig7_tsan_j4.txt" || {
    echo "pooled fig7 tables diverged between plain and TSan builds" >&2; exit 1; }
  echo "TSan fig7 race-free (serial traced and 4-worker pooled) and byte-identical"

  echo "== chaos smoke under ASan (lifetime bugs hide in fault paths) =="
  CLOUDFOG_FAULT_SEED=424242 ./build-asan/bench/cloudfog_figs chaos --quick \
    --trace "$SMOKE_DIR/chaos_asan.bin" >/dev/null
  cmp -s "$SMOKE_DIR/chaos_asan.bin" "$SMOKE_DIR/chaos_trace_a.bin" || {
    echo "seeded chaos replay diverged between plain and ASan builds" >&2; exit 1; }
  echo "ASan chaos replay matches the plain build byte-for-byte"

  echo "== sanitizer matrix: standalone UBSan build (extra checks probed) =="
  # ASan's shadow memory makes the combined leg too slow for the scenario
  # suite; the standalone UBSan build is fast enough to drive the full
  # pipeline, which is where integer-conversion and float-division UB hides.
  cmake -B build-ubsan -S . -DSANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$JOBS"
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"

  echo "== UBSan pipeline leg: fig7 + seeded chaos + scenario smoke =="
  ./build-ubsan/bench/cloudfog_figs fig7 --quick \
    --trace "$SMOKE_DIR/fig7_ubsan.bin" >/dev/null
  cmp -s "$SMOKE_DIR/fig7_trace_a.bin" "$SMOKE_DIR/fig7_ubsan.bin" || {
    echo "fig7 trace diverged between plain and UBSan builds" >&2; exit 1; }
  CLOUDFOG_FAULT_SEED=424242 ./build-ubsan/bench/cloudfog_figs chaos --quick \
    --trace "$SMOKE_DIR/chaos_ubsan.bin" >/dev/null
  cmp -s "$SMOKE_DIR/chaos_trace_a.bin" "$SMOKE_DIR/chaos_ubsan.bin" || {
    echo "seeded chaos replay diverged between plain and UBSan builds" >&2; exit 1; }
  ./build-ubsan/bench/bench_scenarios --all --smoke --obs-off >/dev/null || {
    echo "scenario suite failed under UBSan" >&2; exit 1; }
  echo "UBSan fig7/chaos traces byte-identical to plain; scenario smoke clean"
fi

echo "all checks passed"
