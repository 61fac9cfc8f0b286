#!/usr/bin/env python3
"""bench_diff: compare two rankties-bench-v2 JSON documents.

Joins the two record sets on the identity fields
(name, metric, engine, workload, lists, n, threads), then emits a markdown
regression table of every throughput-carrying record: baseline items/s,
current items/s, and the current/baseline ratio. Records present on only
one side are listed as added/removed so a silently dropped benchmark is
visible at review time.

The tool is informational by default (exit 0 regardless of ratios —
runner-to-runner throughput varies). Pass --fail-below to turn it into a
gate: any matched record whose ratio drops under the threshold fails the
run. CI runs it informationally against the checked-in BENCH_PR.json.

Usage:
  bench_diff.py BASELINE.json CURRENT.json [-o DIFF.md] [--fail-below R]

Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import json
import sys

KEY_FIELDS = ("name", "metric", "engine", "workload", "mode", "lists",
              "n", "threads")


def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    schema = doc.get("schema")
    if schema != "rankties-bench-v2":
        raise SystemExit(f"{path}: unexpected schema {schema!r} "
                         "(want rankties-bench-v2)")
    return doc["records"]


def record_key(record: dict) -> tuple:
    key = tuple(record.get(field) for field in KEY_FIELDS)
    # bench_metrics and bench_aggregation emit two records with identical
    # identity fields per workload: the serial baseline and the pool run
    # (which carries speedup/match_serial). Split them so neither row is
    # silently dropped.
    return key + ("vs_serial" if "speedup" in record else None,)


def key_label(key: tuple) -> str:
    return " ".join(str(part) for part in key if part is not None)


def index_by_key(records: list[dict], path: str) -> dict:
    indexed: dict = {}
    for record in records:
        key = record_key(record)
        if key in indexed:
            print(f"warning: {path}: duplicate record key {key_label(key)}; "
                  "keeping the first", file=sys.stderr)
            continue
        indexed[key] = record
    return indexed


def format_ratio(ratio: float) -> str:
    marker = ""
    if ratio < 0.9:
        marker = " ⚠"  # worth a look even in informational mode
    return f"{ratio:.2f}x{marker}"


def diff(baseline: dict, current: dict,
         fail_below: float | None) -> tuple[list[str], list[str]]:
    lines = ["# Bench diff (rankties-bench-v2)", "",
             "| record | baseline (items/s) | current (items/s) | ratio |",
             "|---|---|---|---|"]
    failures: list[str] = []
    for key in sorted(current, key=key_label):
        record = current[key]
        if "throughput" not in record:
            continue
        base = baseline.get(key)
        name = key_label(key)
        if base is None or "throughput" not in base:
            lines.append(f"| {name} | new record | "
                         f"{record['throughput']:.0f} | - |")
            continue
        ratio = record["throughput"] / base["throughput"]
        lines.append(f"| {name} | {base['throughput']:.0f} | "
                     f"{record['throughput']:.0f} | {format_ratio(ratio)} |")
        if fail_below is not None and ratio < fail_below:
            failures.append(f"{name}: ratio {ratio:.2f} < {fail_below:.2f}")
    removed = [key_label(k) for k in sorted(baseline, key=key_label)
               if k not in current and "throughput" in baseline[k]]
    if removed:
        lines.append("")
        lines.append("Removed records (present in baseline only): " +
                     ", ".join(removed))
    return lines, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="baseline rankties-bench-v2 JSON")
    parser.add_argument("current", help="current rankties-bench-v2 JSON")
    parser.add_argument("-o", "--output", metavar="DIFF.md",
                        help="also write the markdown table to this file")
    parser.add_argument("--fail-below", type=float, metavar="RATIO",
                        help="exit nonzero when any matched record's "
                             "current/baseline throughput ratio is below "
                             "RATIO (default: informational)")
    args = parser.parse_args()

    baseline = index_by_key(load_records(args.baseline), args.baseline)
    current = index_by_key(load_records(args.current), args.current)
    lines, failures = diff(baseline, current, args.fail_below)

    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
