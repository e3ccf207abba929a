#!/usr/bin/env bash
# Tracked benchmark harness (DESIGN.md §10).
#
# Runs the microbenchmark suite (google-benchmark) and the scale harness
# (bench_scale: candidate discovery linear-vs-grid, end-to-end subcycles
# reference-vs-optimised, trace-sink encoding JSONL-vs-binary) and merges
# both into one tracked JSON document. Both append to the run-store, so
# scripts/bench_trend.py trends the micro timings too. Baselines come from the same
# binary's reference modes (CandidateMode::kLinear, QosEngineConfig::
# memoize = false, JsonlTraceSink), so every report carries its
# own before/after pair.
#
# Tracked outputs (BENCH_*.json and the data/runstore history) are only
# written from release-grade builds: comparing a Debug number against a
# Release history is noise. --allow-debug overrides the refusal (the
# report then records allow_debug=true so readers can discount it).
#
#   scripts/bench.sh                 full run -> BENCH_PR6.json
#   scripts/bench.sh --quick         short run (CI smoke)
#   scripts/bench.sh --out <path>    override the output path
#   scripts/bench.sh --runstore <dir>  override the run-store directory
#                                      (default data/runstore)
#   scripts/bench.sh --no-runstore   skip the run-store append
#   scripts/bench.sh --allow-debug   permit tracked writes from a
#                                      non-release build
#
# The context records `jobs`, the worker count a figure sweep's default
# resolves to (std::thread::hardware_concurrency(): the online CPUs), and
# `nproc`, the CPUs this process may run on. A run with jobs > nproc is
# refused: no scaling number is taken on fewer CPUs than threads.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
NPROC=$JOBS
SWEEP_JOBS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo "$NPROC")
QUICK=0
OUT=BENCH_PR6.json
RUNSTORE=data/runstore
ALLOW_DEBUG=0
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --out) shift; OUT="$1" ;;
    --runstore) shift; RUNSTORE="$1" ;;
    --no-runstore) RUNSTORE="" ;;
    --allow-debug) ALLOW_DEBUG=1 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

if [ "$SWEEP_JOBS" -gt "$NPROC" ]; then
  echo "error: sweeps would run $SWEEP_JOBS workers on nproc=$NPROC CPUs; refusing" >&2
  echo "       a run measured on fewer CPUs than threads." >&2
  exit 2
fi

echo "== build (RelWithDebInfo) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target bench_micro bench_scale

# Tracked-write guard: the numbers are only comparable across history when
# they come from an optimised build of both this tree and libbenchmark.
cache_var() { sed -n "s/^$1:[^=]*=//p" build/CMakeCache.txt | head -n 1; }
# An empty cached CMAKE_BUILD_TYPE means the project default applied.
BUILD_TYPE=$(cache_var CMAKE_BUILD_TYPE)
BUILD_TYPE=${BUILD_TYPE:-RelWithDebInfo}
COMPILER=$(cache_var CMAKE_CXX_COMPILER)
# libbenchmark reports its own build flavour in the run context; probe it
# with one minimal-time benchmark before any tracked run happens.
BENCH_LIB_BUILD=$(./build/bench/bench_micro \
    --benchmark_filter='BM_EventQueueScheduleAndPop/1000$' \
    --benchmark_min_time=0.001 --benchmark_format=json 2>/dev/null \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["context"]["library_build_type"])' \
  || echo unknown)
RELEASE_GRADE=1
case "$BUILD_TYPE" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *) RELEASE_GRADE=0 ;;
esac
if [ "$BENCH_LIB_BUILD" != "release" ]; then RELEASE_GRADE=0; fi
if [ "$RELEASE_GRADE" -eq 0 ] && [ "$ALLOW_DEBUG" -eq 0 ]; then
  echo "error: refusing to write tracked benchmark output from a non-release build" >&2
  echo "       (CMAKE_BUILD_TYPE=$BUILD_TYPE, libbenchmark=$BENCH_LIB_BUILD)." >&2
  echo "       Re-run with --allow-debug to override." >&2
  exit 3
fi

WORK_DIR=$(mktemp -d)
trap 'rm -rf "$WORK_DIR"' EXIT

echo "== micro suite (google-benchmark) =="
MICRO_ARGS=(--benchmark_format=json)
if [ "$QUICK" -eq 1 ]; then
  # This google-benchmark accepts a bare double (newer releases want a
  # trailing "s"; keep the flag compatible with the pinned toolchain).
  MICRO_ARGS+=(--benchmark_min_time=0.05
               --benchmark_filter='BM_CandidateDiscovery|BM_QosSubcycle|BM_ModularitySwapTrial')
fi
./build/bench/bench_micro "${MICRO_ARGS[@]}" >"$WORK_DIR/micro.json"

echo "== scale harness (bench_scale) =="
GIT_SHA=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
RUN_ID="bench-$(date -u +%Y%m%dT%H%M%SZ)-$$"
CONFIG_HASH=$(printf 'quick=%s build=%s jobs=%s nproc=%s' "$QUICK" "$BUILD_TYPE" \
  "$SWEEP_JOBS" "$NPROC" | sha256sum | cut -c1-12)
SCALE_ARGS=(--json "$WORK_DIR/scale.json")
if [ "$QUICK" -eq 1 ]; then SCALE_ARGS+=(--quick); fi
if [ -n "$RUNSTORE" ]; then
  SCALE_ARGS+=(--runstore "$RUNSTORE" --run-id "$RUN_ID"
               --git-sha "$GIT_SHA" --config-hash "$CONFIG_HASH")
fi
./build/bench/bench_scale "${SCALE_ARGS[@]}"

echo "== merge -> $OUT =="
python3 - "$WORK_DIR/micro.json" "$WORK_DIR/scale.json" "$OUT" "$QUICK" \
  "$BUILD_TYPE" "$COMPILER" "$ALLOW_DEBUG" "$GIT_SHA" "$RUN_ID" "$CONFIG_HASH" \
  "$RUNSTORE" "$SWEEP_JOBS" "$NPROC" <<'EOF'
import json, re, sys
sys.path.insert(0, "scripts")
import bench_trend
(micro_path, scale_path, out_path, quick, build_type, compiler,
 allow_debug, git_sha, run_id, config_hash, runstore, jobs,
 nproc) = sys.argv[1:14]
micro = json.load(open(micro_path))
NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
scale = json.load(open(scale_path))
context = {k: micro.get("context", {}).get(k)
           for k in ("num_cpus", "mhz_per_cpu", "library_build_type")}
context.update({
    "cmake_build_type": build_type,
    "compiler": compiler,
    "allow_debug": allow_debug == "1",
    "git_sha": git_sha,
    "run_id": run_id,
    "config_hash": config_hash,
    "jobs": int(jobs),
    "nproc": int(nproc),
})
doc = {
    "schema": "cloudfog.bench/1",
    "quick": quick == "1",
    "context": context,
    "scale": scale,
    "micro": [
        {"name": b["name"],
         "real_time_ns": b["real_time"] * NS_PER[b.get("time_unit", "ns")],
         "cpu_time_ns": b["cpu_time"] * NS_PER[b.get("time_unit", "ns")],
         "items_per_second": b.get("items_per_second")}
        for b in micro.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    ],
}
disc = {p["fleet"]: p for p in scale["candidate_discovery"]}
sub = scale["subcycle"]
trace = scale["trace_overhead"]
doc["headline"] = {
    "discovery_speedup_10k_fleet": disc.get(10000, disc[max(disc)])["speedup"],
    "subcycle_speedup_scaleout_1t": sub[-1]["speedup_1t"],
    "trace_binary_time_ratio": trace["time_ratio"],
    "trace_binary_bytes_ratio": trace["bytes_ratio"],
}
json.dump(doc, open(out_path, "w"), indent=1)
print(json.dumps(doc["headline"], indent=1))
if runstore:
    # Micro results trend beside the scale columns, under the same run id
    # ("BM_X/10000" -> column "micro.BM_X_10000.real_time_ns").
    bench_trend.append_run(runstore, (run_id, git_sha, config_hash), {
        "micro." + re.sub(r"[^A-Za-z0-9._-]", "_", b["name"]) + ".real_time_ns":
            b["real_time_ns"]
        for b in doc["micro"]
    })
if quick != "1":
    assert doc["headline"]["discovery_speedup_10k_fleet"] >= 5.0, \
        "candidate discovery speedup below the tracked 5x floor"
    assert doc["headline"]["subcycle_speedup_scaleout_1t"] >= 2.0, \
        "end-to-end subcycle speedup below the tracked 2x floor"
    assert max(doc["headline"]["trace_binary_time_ratio"],
               doc["headline"]["trace_binary_bytes_ratio"]) >= 3.0, \
        "binary trace sink below the tracked 3x per-event advantage"
EOF
echo "bench report written to $OUT"
