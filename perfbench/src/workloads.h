/// \file workloads.h
/// Entry points of the four workloads.

#pragma once

#include <cstdint>
#include <string>

#include "probes.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after set-up (run.py's extra set-up time samples).
  bool setup_only = false;
  std::string data_dir = "perfbench/data";
  /// Temporary directory for service_mix's socket and journal.
  std::string tmp_dir = ".bench_tmp";
};

/// Marks the end of set-up: run.py times set-up up to this line.
void announce_ready();

/// r20_batched, r20_serial and noisy_traj.
Report run_sampling(const Options& options);

/// service_mix.
Report run_service_mix(const Options& options);

}  // namespace perfbench
