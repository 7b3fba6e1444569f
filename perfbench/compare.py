#!/usr/bin/env python3
"""Compare two sets of benchmark results written by run.py.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files or directories of them (run.py writes
.bench_results/<workload>-seed<n>-trace<t>.json; copy that directory
aside after measuring one commit, before measuring the other). For
every workload and end-to-end metric present on both sides it prints
each side's median and quartiles over the runs found, and flags a
change worse than the metric's bound in BENCHMARK.json. Where the base
runs' own quartile spread exceeds the bound, the metric is reported as
unresolved instead, unless every change run reads better than every
base run. It refuses (exit 2) to compare results whose host
fingerprints differ: CPU model, nproc, ISA flags, LLC size and build
flags must all match. Exit 1 when a metric is worse than its bound,
else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".json"))
    records = []
    for name in files:
        with open(name) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            records.append(record)
    return records


def by_workload(records):
    grouped = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def fingerprints(records):
    return {json.dumps(r["fingerprint"], sort_keys=True) for r in records}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load(sys.argv[1]), load(sys.argv[2])
    if not base or not change:
        print("no untraced results found", file=sys.stderr)
        return 2
    prints = fingerprints(base) | fingerprints(change)
    if len(prints) != 1:
        print("refusing to compare results from different hosts or builds:",
              file=sys.stderr)
        for fingerprint in sorted(prints):
            print("  " + fingerprint, file=sys.stderr)
        return 2
    worse = 0
    base_w, change_w = by_workload(base), by_workload(change)
    for workload in sorted(set(base_w) & set(change_w)):
        print("%s (%d base runs, %d change runs)" % (
            workload, len(base_w[workload]), len(change_w[workload])))
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base_w[workload]]
            b = [r["metrics"][name]["value"] for r in change_w[workload]]
            qa, ma, ra = summary(a)
            qb, mb, rb = summary(b)
            delta = (mb - ma) / ma
            regress = -delta if metric["better"] == "higher" else delta
            better = (min(b) > max(a) if metric["better"] == "higher"
                      else max(b) < min(a))
            flag = ""
            if (ra - qa) / ma > metric["bound"] and not better:
                flag = "unresolved (base spread %.0f%%)" % (
                    100 * (ra - qa) / ma)
            elif regress > metric["bound"]:
                flag = "WORSE"
                worse += 1
            print("  %-12s base %10.4g [%.4g, %.4g]  change %10.4g [%.4g, "
                  "%.4g]  %+6.1f%% (bound %.0f%%) %s" % (
                      name, ma, qa, ra, mb, qb, rb, 100 * delta,
                      100 * metric["bound"], flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
