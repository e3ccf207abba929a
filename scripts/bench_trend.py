#!/usr/bin/env python3
"""Bench trending: gate a fresh perfbench run against run-store history.

CI runs ``python3 perfbench/run.py`` on each workload and appends each
result line to the columnar run-store (``append_result``), one row per
workload with the workload as config hash. This script compares the fresh
run's end-to-end metrics with the median of the stored history of the same
config, so workloads trend apart. Each metric's direction (``better``) and
tolerance (``bound``) come from BENCHMARK.json.

The run-store is append-only, one file per metric column, keyed by
(run id, git sha, config hash). On-disk layout under the store directory:

  manifest.tsv            one row per run, tab-separated:
                            row-index \t run_id \t git_sha \t config_hash
                          (fields sanitized: tabs/newlines become '_')
  columns/<name>.col      binary column file:
                            header (8 bytes): magic "CFRC", u16 version,
                            u16 reserved
                            then 16-byte little-endian records:
                            u64 row-index, f64 value

Appending the same column several times for one row forms an in-run
series (records keep append order; the trend takes the row's median).
Everything is plain append, so concurrent histories merge by concatenation
and a partial write can lose at most the tail record, which
``read_column`` drops. A missing or empty store reads as no rows and no
columns.

Usage:
  scripts/bench_trend.py --runstore <dir> --run-id <id>
                         [--min-history 2] [--mode warn|enforce]

Exit status: 1 when a fresh result is incorrect (``correct`` false or
``failed`` > 0) in either mode, or when a regression is flagged under
``--mode enforce``; 0 otherwise; 2 on usage errors. CI runs warn mode on
pull requests and enforce mode on main.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import struct
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                              "BENCHMARK.json")

COLUMN_MAGIC = b"CFRC"
COLUMN_VERSION = 1
COLUMN_HEADER = struct.Struct("<4sHH")
COLUMN_RECORD = struct.Struct("<Qd")


def read_manifest(store_dir):
    """Manifest rows as a list of dicts (row, run_id, git_sha, config_hash)."""
    rows = []
    path = os.path.join(store_dir, "manifest.tsv")
    if not os.path.exists(path):
        return rows
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"malformed manifest line: {line!r}")
            rows.append({
                "row": int(fields[0]),
                "run_id": fields[1],
                "git_sha": fields[2],
                "config_hash": fields[3],
            })
    return rows


def read_column(store_dir, name):
    """All (row, value) records of a column, in append order."""
    path = os.path.join(store_dir, "columns", name + ".col")
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        header = fh.read(COLUMN_HEADER.size)
        if len(header) < COLUMN_HEADER.size:
            return []
        magic, version, _reserved = COLUMN_HEADER.unpack(header)
        if magic != COLUMN_MAGIC:
            raise ValueError(f"bad column magic in {path}")
        if version != COLUMN_VERSION:
            raise ValueError(f"unsupported column version {version} in {path}")
        records = []
        while True:
            raw = fh.read(COLUMN_RECORD.size)
            if len(raw) < COLUMN_RECORD.size:  # clean EOF or torn tail
                break
            records.append(COLUMN_RECORD.unpack(raw))
        return records


def list_columns(store_dir):
    columns_dir = os.path.join(store_dir, "columns")
    if not os.path.isdir(columns_dir):
        return []
    return sorted(
        name[:-len(".col")] for name in os.listdir(columns_dir)
        if name.endswith(".col"))


def append_run(store_dir, key, values):
    """The run-store writer: one manifest row + values.

    ``key`` is a (run_id, git_sha, config_hash) triple; ``values`` maps
    column name -> float or list of floats.
    """
    os.makedirs(os.path.join(store_dir, "columns"), exist_ok=True)
    manifest = os.path.join(store_dir, "manifest.tsv")
    row = len(read_manifest(store_dir))
    sane = [str(field).replace("\t", "_").replace("\n", "_") for field in key]
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("\t".join([str(row)] + sane) + "\n")
    for name, value in values.items():
        path = os.path.join(store_dir, "columns", name + ".col")
        size = os.path.getsize(path) if os.path.exists(path) else 0
        fresh = size < COLUMN_HEADER.size
        # Cut a torn tail (a write cut short) so new records stay aligned.
        whole = 0 if fresh else size - (size - COLUMN_HEADER.size) % COLUMN_RECORD.size
        if whole != size:
            os.truncate(path, whole)
        with open(path, "ab") as fh:
            if fresh:
                fh.write(COLUMN_HEADER.pack(COLUMN_MAGIC, COLUMN_VERSION, 0))
            series = value if isinstance(value, (list, tuple)) else [value]
            for v in series:
                fh.write(COLUMN_RECORD.pack(row, float(v)))
    return row


def append_result(store_dir, key, result):
    """Appends one perfbench result line (the parsed JSON) as one row.

    Every end-to-end metric becomes a column, next to ``correct`` (1 or 0),
    ``attempted`` and ``failed``.
    """
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values["correct"] = 1.0 if result["correct"] else 0.0
    values["attempted"] = result["attempted"]
    values["failed"] = result["failed"]
    return append_run(store_dir, key, values)


def load_metrics():
    """BENCHMARK.json's end-to-end metrics: name -> (better, bound)."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def per_row_value(records, row_ids):
    """Median per row for rows in ``row_ids`` (a row may hold a series)."""
    grouped = {}
    for row, value in records:
        if row in row_ids:
            grouped.setdefault(row, []).append(value)
    return {row: statistics.median(series) for row, series in grouped.items()}


def fresh_rows(manifest, fresh_run_id):
    rows = [r for r in manifest if r["run_id"] == fresh_run_id]
    if not rows:
        raise ValueError(f"run id {fresh_run_id!r} has no manifest rows")
    return rows


def trend(store_dir, fresh_run_id, min_history):
    """Compares the fresh run against history; returns a list of findings.

    Each finding: dict with config, column, status ('ok', 'regression',
    'improvement', 'no-history'), fresh, baseline, delta, bound, history.
    """
    metrics = load_metrics()
    manifest = read_manifest(store_dir)
    fresh = fresh_rows(manifest, fresh_run_id)
    records = {column: read_column(store_dir, column) for column in metrics}
    findings = []
    for config in sorted({r["config_hash"] for r in fresh}):
        fresh_ids = {r["row"] for r in fresh if r["config_hash"] == config}
        history_ids = {
            r["row"] for r in manifest
            if r["config_hash"] == config and r["run_id"] != fresh_run_id
        }
        for column, (better, bound) in metrics.items():
            fresh_values = per_row_value(records[column], fresh_ids)
            if not fresh_values:
                continue  # this config did not produce the column
            history = per_row_value(records[column], history_ids).values()
            finding = {"config": config, "column": column,
                       "fresh": statistics.median(fresh_values.values()),
                       "baseline": None, "delta": None, "bound": bound,
                       "status": "ok", "history": len(history)}
            findings.append(finding)
            if len(history) < min_history:
                finding["status"] = "no-history"
                continue
            baseline = statistics.median(history)
            finding["baseline"] = baseline
            if baseline == 0:
                continue
            # Positive `worse` is a move in the wrong direction.
            delta = (finding["fresh"] - baseline) / abs(baseline)
            finding["delta"] = delta
            worse = delta if better == "lower" else -delta
            if worse > bound:
                finding["status"] = "regression"
            elif worse < -bound:
                finding["status"] = "improvement"
    return findings


def incorrect(store_dir, fresh_run_id):
    """Configs whose fresh result was wrong: correct false or a failed check."""
    configs = {r["row"]: r["config_hash"]
               for r in fresh_rows(read_manifest(store_dir), fresh_run_id)}
    bad = {configs[row] for row, value in read_column(store_dir, "correct")
           if row in configs and value == 0}
    bad |= {configs[row] for row, value in read_column(store_dir, "failed")
            if row in configs and value > 0}
    return sorted(bad)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runstore", required=True, help="run-store directory")
    parser.add_argument("--run-id", required=True, help="fresh run id")
    parser.add_argument("--min-history", type=int, default=2,
                        help="history rows required before gating (default 2)")
    parser.add_argument("--mode", choices=("warn", "enforce"), default="warn",
                        help="warn: report only; enforce: exit 1 on regression")
    args = parser.parse_args(argv)

    try:
        bad = incorrect(args.runstore, args.run_id)
        findings = trend(args.runstore, args.run_id, args.min_history)
    except ValueError as err:
        print(f"bench_trend: {err}", file=sys.stderr)
        return 1 if args.mode == "enforce" else 0

    width = max((len(f["config"]) + len(f["column"]) + 1 for f in findings), default=10)
    print(f"bench_trend: run {args.run_id} vs stored history "
          f"(bounds from BENCHMARK.json, min history {args.min_history})")
    for f in findings:
        name = f"{f['config']}/{f['column']}"
        fresh = f"{f['fresh']:.6g}"
        if f["baseline"] is None:
            print(f"  {name:<{width}}  {fresh:>12}  "
                  f"[{f['status']}: {f['history']} stored run(s)]")
        else:
            delta = "n/a" if f["delta"] is None else f"{f['delta']:+.1%}"
            print(f"  {name:<{width}}  {fresh:>12}  vs median {f['baseline']:.6g}  "
                  f"{delta:>8} (bound {f['bound']:.0%})  [{f['status']}]")
    if bad:
        print(f"bench_trend: incorrect result on {', '.join(bad)}", file=sys.stderr)
        return 1
    regressions = [f for f in findings if f["status"] == "regression"]
    if regressions:
        print(f"bench_trend: {len(regressions)} regression(s) beyond their bound",
              file=sys.stderr)
        return 1 if args.mode == "enforce" else 0
    print("bench_trend: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
