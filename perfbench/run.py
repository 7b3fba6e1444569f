#!/usr/bin/env python3
"""End-to-end benchmark of the bgls library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload r20_batched --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test      # the correctness checks have teeth
    python3 perfbench/run.py --regen-noisy    # rewrite perfbench/data/*.bin

Workloads: r20_batched, r20_serial, noisy_traj, service_mix (see
perfbench/src/circuits.h for why each was chosen).

The first run builds the library and the measuring program
(perfbench/src) into .bench_build/ with CMake. Each run then starts that
program in its own process: it generates its inputs from --seed, sets
up, measures for --seconds, checks every output against a reference
that shares no code with the library, and reports. With --trace 0 the last line of stdout
is the end-to-end metrics of BENCHMARK.json; with --trace 1 it is the
per-layer metrics, preceded by the waterfall of one job and every
per-layer figure, including those this workload lacks, with the reason.

An untraced run is split over three processes of --seconds/3 each, run
one after another, each on its own inputs; on a shared 4-core Xeon VM
the same 20-qubit job took 0.85-1.36 s in different processes, and
pooling three processes per run evens out part of that. Jobs and timed
wall time are pooled across the three; peak_rss_mb is their median,
measured with glibc's mmap threshold pinned at 4 MiB (see
perfbench/src/main.cpp), which the shipped programs do not do.
setup_s is the median of five set-ups, each timed from process start
to the program's READY line (the first timed job): the three parts'
and those of two more processes that stop after set-up. A traced run
is one process. Every result, with the host fingerprint, is also
written to .bench_results/; compare.py compares two of them.

Exit status: 0 when every output was correct, 1 when a check failed,
2 or 3 on an error (no result line is printed then).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
DATA = os.path.join(HERE, "data")
RESULTS = os.path.join(ROOT, ".bench_results")
TMP = os.path.join(ROOT, ".bench_tmp")
PARTS = 3
SETUP_ONLY = 2
DEADLINE_S = 170.0


def log(text):
    print(text, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources at %s/src" % ROOT)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


class Part:
    """One perfbench process (one part of a run); times set-up to READY."""

    def __init__(self, args, part, seconds, deadline, setup_only=False):
        self.tmp = os.path.join(TMP, "%d-%d" % (os.getpid(), part))
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(self.tmp)
        command = [BINARY, "--workload", args.workload, "--seed",
                   str(args.seed), "--part", str(part), "--seconds",
                   repr(seconds), "--trace", str(args.trace), "--data-dir",
                   DATA, "--tmp-dir", os.path.relpath(self.tmp, ROOT)]
        if setup_only:
            command.append("--setup-only")
        self.setup_only = setup_only
        self.deadline = deadline
        self.lines = []
        start = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT,
                                        stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                        self.process.kill)
        self.watchdog.start()
        for line in self.process.stdout:
            if line.strip() == "READY":
                break
            self.lines.append(line.rstrip("\n"))
        self.setup_s = time.perf_counter() - start

    def finish(self):
        """Waits for the process; returns its parsed result line, or None
        for a set-up-only process."""
        try:
            for line in self.process.stdout:
                self.lines.append(line.rstrip("\n"))
            code = self.process.wait(
                timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            self.watchdog.cancel()
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            shutil.rmtree(self.tmp, ignore_errors=True)
        if self.setup_only:
            if code != 0:
                raise RuntimeError("perfbench set-up exited %d" % code)
            return None
        if not self.lines or not self.lines[-1].startswith("{"):
            raise RuntimeError("perfbench exited %d without a result" % code)
        for line in self.lines[:-1]:
            print(line)
        result = json.loads(self.lines[-1])
        if code not in (0, 1) or (code == 1) == bool(result["correct"]):
            raise RuntimeError("perfbench exited %d" % code)
        return result


def nearest_rank(values, q):
    """The quantile perfbench/src/probes.cpp uses."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def pool(parts, setups):
    """End-to-end metrics of a run from its parts' raw series."""
    job_ms = [ms for part in parts for ms in part["series"]["job_ms"]]
    busy = sum(part["series"]["busy_s"] for part in parts)
    reps = parts[0]["series"]["reps"]
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    jobs_per_s = len(job_ms) / busy
    n = len(job_ms)
    return {
        "jobs_per_s": (jobs_per_s, "1/s", n),
        "samples_per_s": (jobs_per_s * reps, "1/s", n),
        "job_ms_p50": (nearest_rank(job_ms, 0.5), "ms", n),
        "job_ms_p99": (nearest_rank(job_ms, 0.99), "ms", n),
        "fail_ratio": (failed / attempted, "ratio", attempted),
        "peak_rss_mb": (statistics.median(part["series"]["rss_mb"]
                                          for part in parts), "MiB",
                        len(parts)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    build()
    bench = spec()
    parts, setups = [], []
    count = 1 if args.trace else PARTS
    for part in range(count):
        process = Part(args, part, args.seconds / count, deadline)
        setups.append(process.setup_s)
        parts.append(process.finish())
    for part in range(0 if args.trace else SETUP_ONLY):
        process = Part(args, count + part, args.seconds / count, deadline,
                       setup_only=True)
        setups.append(process.setup_s)
        process.finish()
    if args.trace:
        names = bench["per_layer"]
        metrics = {name: (m["value"], m["unit"], m["samples"])
                   for name, m in parts[0]["metrics"].items()}
    else:
        names = bench["end_to_end"]
        metrics = pool(parts, setups)
        print("%s, seed %d, %d parts:" % (args.workload, args.seed, count))
        for name, (value, unit, samples) in metrics.items():
            print("  %-36s %14.6g %-8s n=%d" % (name, value, unit, samples))
        print("  (peak_rss_mb under a malloc mmap threshold pinned at 4 MiB)")
    correct = all(part["correct"] for part in parts)
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    os.makedirs(RESULTS, exist_ok=True)
    record = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "correct": correct, "attempted": attempted,
                   "failed": failed, "setup_samples_s": setups,
                   "rss_samples_mb": [part["series"]["rss_mb"]
                                      for part in parts if "series" in part],
                   "metrics": {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in metrics.items()},
                   "absent": parts[0]["absent"],
                   "fingerprint": parts[0]["fingerprint"]}, f, indent=1)
    out = {}
    for metric in names:
        if metric["name"] not in metrics:
            raise RuntimeError("metric %s missing (%s)" % (
                metric["name"], parts[0]["absent"].get(metric["name"], "?")))
        out[metric["name"]] = {"value": metrics[metric["name"]][0],
                               "unit": metric["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--regen-noisy", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test or args.regen_noisy:
            build()
            flag = "--self-test" if args.self_test else "--regen-noisy"
            return subprocess.run([BINARY, flag, "--data-dir", DATA]).returncode
        if not args.workload:
            parser.error("--workload is required")
        return run(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("perfbench: %s" % error)
        return 3


if __name__ == "__main__":
    sys.exit(main())
