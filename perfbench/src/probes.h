/// \file probes.h
/// Measurement helpers shared by the workloads: clocks and quantiles,
/// the metric report each run prints, the host fingerprint, the
/// per-layer replays that time single calls into the `statevector` and
/// `channels` layers beside a memory-bandwidth (triad) probe.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty input.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// One named figure the run reports. `absent` holds the reason a
/// metric has no value on this workload (printed instead of a number).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string absent;
};

/// Everything one run reports: metrics, correctness, and the job
/// counts behind fail_ratio.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// Untraced runs: the raw figures run.py pools across the processes
  /// of one run into the end-to-end metrics.
  std::vector<double> job_ms;
  double busy_s = 0.0;  // timed-phase wall, without input generation
  double rss_mb = 0.0;
  std::uint64_t reps = 0;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1);
  void absent(const std::string& name, const std::string& reason);
  /// Human-readable lines, then the machine-readable line (last).
  void print(const std::string& fingerprint_json) const;
};

/// CPU model, nproc, ISA flags, LLC size and the library's build flags
/// as a JSON object; run.py stores it with every result and compare.py
/// refuses to compare results whose fingerprints differ.
std::string fingerprint_json();

/// FNV-1a hash of a text (service reports, circuit descriptions).
std::uint64_t fnv1a(const std::string& text);

/// Per-layer figures of the `statevector`, `mem` and `channels` layers
/// for a job of `num_qubits` qubits: the job's operations replayed one
/// apply_op call at a time on one thread (statevector.apply_*_ns_per_amp,
/// statevector.prob_ns per compute_probability call on the final state,
/// channels.apply_us per depolarize apply at the same size, from the
/// job's own channels or, on a unitary job, from probe channels), the
/// single-threaded STREAM triad at the state's size and at 4x the LLC
/// (mem.*), and the computed bytes per apply and their achieved rate
/// over mem.triad_gbps_state (statevector.bytes_per_apply,
/// statevector.roofline_ratio).
void report_kernel_layers(Report& report, const bgls::Circuit& circuit,
                          int num_qubits);

}  // namespace perfbench
