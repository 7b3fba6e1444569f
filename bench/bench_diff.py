#!/usr/bin/env python3
"""Compare two BENCH_*.json trees and flag performance regressions.

Usage:
    bench_diff.py OLD NEW [--threshold 0.15] [--quiet]

OLD and NEW are directories (every BENCH_*.json inside is considered)
or individual JSON files. Two formats are understood:

 - google-benchmark output (top-level "benchmarks" list, e.g.
   BENCH_micro_states.json): one metric per benchmark name, value =
   real_time normalized to nanoseconds;
 - the library's JsonWriter reports (BENCH_fig2.json & friends): the
   tree is flattened and every numeric leaf whose key is "seconds" or
   ends in "_seconds" becomes a metric keyed by its JSON path.

A google-benchmark file recorded with --benchmark_repetitions=N has N
rows per name; the median of them is compared.

Only metrics present on BOTH sides are compared (lower is better).
A metric counts as a regression when new > old * (1 + threshold);
the exit code is non-zero iff any regression was found, so CI can run
this as an informational step (continue-on-error) that still paints
red when the perf trajectory slips.

Metrics present on only one side are reported informationally — bench
workloads legitimately evolve across PRs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

TIME_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def is_time_key(key: str) -> bool:
    return key == "seconds" or key.endswith("_seconds")


def flatten_time_leaves(node, path, out):
    """Collects numeric `*seconds` leaves of a JsonWriter report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if is_time_key(key) and isinstance(value, (int, float)):
                out[f"{path}/{key}"] = float(value)
            else:
                flatten_time_leaves(value, f"{path}/{key}", out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            flatten_time_leaves(value, f"{path}[{i}]", out)


def extract_metrics(doc) -> dict[str, float]:
    """Metric name -> time (lower is better) for one parsed JSON file."""
    metrics: dict[str, float] = {}
    if isinstance(doc, dict) and isinstance(doc.get("benchmarks"), list):
        repetitions: dict[str, list[float]] = {}
        for bench in doc["benchmarks"]:
            name = bench.get("name")
            real_time = bench.get("real_time")
            if not isinstance(name, str) or not isinstance(
                real_time, (int, float)
            ):
                continue
            # Skip aggregate rows (mean/median/stddev of repetitions);
            # compare like against like only.
            if bench.get("run_type") == "aggregate":
                continue
            scale = TIME_UNIT_TO_NS.get(bench.get("time_unit", "ns"), 1.0)
            repetitions.setdefault(name, []).append(float(real_time) * scale)
        # A recording made with --benchmark_repetitions=N carries N rows
        # per name; their median is the row's value.
        for name, times in repetitions.items():
            metrics[name] = statistics.median(times)
    else:
        flatten_time_leaves(doc, "", metrics)
    return metrics


def load_tree(root: Path) -> dict[str, dict[str, float]]:
    """file name -> metrics for a directory (or a single file)."""
    if root.is_file():
        paths = [root]
    elif root.is_dir():
        paths = sorted(root.glob("BENCH_*.json"))
    else:
        sys.exit(f"bench_diff: '{root}' is neither a file nor a directory")
    tree = {}
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"note: skipping unreadable {path}: {err}")
            continue
        tree[path.name] = extract_metrics(doc)
    return tree


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json trees for perf regressions."
    )
    parser.add_argument("old", type=Path, help="baseline tree or file")
    parser.add_argument("new", type=Path, help="candidate tree or file")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative slowdown that counts as a regression (default 0.15)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print regressions and the summary only",
    )
    args = parser.parse_args()

    old_tree = load_tree(args.old)
    new_tree = load_tree(args.new)

    compared = 0
    regressions: list[str] = []
    improvements = 0
    for file_name in sorted(set(old_tree) & set(new_tree)):
        old_metrics = old_tree[file_name]
        new_metrics = new_tree[file_name]
        only_old = sorted(set(old_metrics) - set(new_metrics))
        only_new = sorted(set(new_metrics) - set(old_metrics))
        if not args.quiet:
            for name in only_old:
                print(f"note: {file_name}: '{name}' only in baseline")
            for name in only_new:
                print(f"note: {file_name}: '{name}' only in candidate")
        for name in sorted(set(old_metrics) & set(new_metrics)):
            old_value = old_metrics[name]
            new_value = new_metrics[name]
            if old_value <= 0.0:
                continue
            compared += 1
            ratio = new_value / old_value
            line = (
                f"{file_name}: {name}: {old_value:.4g} -> {new_value:.4g} "
                f"({ratio:.2f}x baseline)"
            )
            if ratio > 1.0 + args.threshold:
                regressions.append(line)
                print(f"REGRESSION {line}")
            elif ratio < 1.0 - args.threshold:
                improvements += 1
                if not args.quiet:
                    print(f"improved   {line}")
            elif not args.quiet:
                print(f"ok         {line}")

    missing_files = sorted(
        set(old_tree).symmetric_difference(new_tree)
    )
    for file_name in missing_files:
        side = "baseline" if file_name in old_tree else "candidate"
        print(f"note: {file_name} present only in {side}")

    print(
        f"\nbench_diff: {compared} metrics compared, "
        f"{len(regressions)} regression(s) beyond "
        f"{args.threshold:.0%}, {improvements} improvement(s)"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
