#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the CloudFog library and the perfbench program from source (Release)
into .bench_build/perfbench, runs one workload and prints one JSON result
object as the last line of stdout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric (layers.json maps each one to the end-to-end
metric and workload it should move). A per-layer metric a workload does
not exercise is reported as 0 and listed as absent. Run from the root of
a full checkout; without the library sources next to perfbench/ it exits
non-zero without a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("figures", "daily-social", "arrival-chaos")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found beside perfbench/; run from a full checkout")
    steps = [["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    # Compiler temporaries stay inside the build tree, like everything else.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed")


def load_config():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = {name for layer in layers["layers"] for name in layer["metrics"]}
    declared = {m["name"] for m in bench["per_layer"]}
    if mapped != declared:
        fail(f"layers.json and BENCHMARK.json disagree on: {sorted(mapped ^ declared)}")
    return bench


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_config()
    build()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"perfbench exited with code {done.returncode}", done.returncode or 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    measured = result["metrics"]
    metrics = {}
    absent = []
    for spec in bench["per_layer" if args.trace else "end_to_end"]:
        name = spec["name"]
        if name in measured:
            value = measured[name]
        elif args.trace:
            value = 0.0
            absent.append(name)
        else:
            fail(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"  {name:<40} {value:>18.6g} {spec['unit']}")
    if absent:
        print(f"absent on {args.workload} (reported as 0): {', '.join(absent)}")
    extra = sorted(set(measured) - set(metrics))
    if extra:
        print("also measured: " + ", ".join(f"{n}={measured[n]:g}" for n in extra))

    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
