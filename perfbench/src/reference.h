/// \file reference.h
/// Correctness references that share no code with the sampling path:
/// a naive dense state-vector loop and a naive density-matrix loop over
/// the benchmark's own gate matrices, plus a linear cross-entropy (XEB)
/// statistic over samples.
///
/// The statistic does not depend on how the library lays out its random
/// streams, so it survives a legitimate RNG change. For samples x_i
/// drawn from q and a weight distribution w, v_i = 2^n w(x_i) has exact
/// mean 2^n sum_x q(x) w(x) and exact variance
/// 2^{2n} sum_x q(x) w(x)^2 - mean^2; the check passes when the sample
/// mean lies within kMaxZ standard errors of that mean. A uniform
/// sampler, a circuit with a gate dropped, or (for noisy circuits,
/// with w the ideal distribution) an ignored channel shifts the mean
/// by many standard errors.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "circuits.h"

namespace perfbench {

/// Pass threshold in standard errors. Each run makes at most a few
/// dozen checks, so a correct sampler fails one with probability below
/// 1e-5 per run.
inline constexpr double kMaxZ = 5.0;

/// Output distribution of the circuit with its channels ignored
/// (qubit q at bit q of the index).
std::vector<double> ideal_probabilities(const BenchCircuit& circuit);

/// Exact output distribution of the noisy circuit (density matrix;
/// 4^n complex entries, so only for the stored references).
std::vector<double> noisy_probabilities(const BenchCircuit& circuit);

/// Accumulates the XEB statistic; add() several jobs to pool them.
struct XebStat {
  double sum = 0.0;       // sum of v_i
  double expected = 0.0;  // sum of the exact means
  double variance = 0.0;  // sum of the exact variances
  std::uint64_t count = 0;

  /// `samples` drawn (supposedly) from `truth`, weighted by `weight`.
  void add(std::span<const std::uint64_t> samples,
           const std::vector<double>& truth, const std::vector<double>& weight);
  void add(const XebStat& other);
  [[nodiscard]] double z() const;
  [[nodiscard]] bool pass() const;
  [[nodiscard]] std::string summary() const;
};

/// The check of noisy-circuit samples: weighted by the exact noisy
/// distribution, and by the ideal one, which is what catches a sampler
/// that ignores the channels.
struct NoisyCheck {
  XebStat by_noisy;
  XebStat by_ideal;

  void add(std::span<const std::uint64_t> samples,
           const std::vector<double>& noisy, const std::vector<double>& ideal);
  void add(const NoisyCheck& other);
  [[nodiscard]] bool pass() const;
};

/// Stored exact noisy distribution of noisy_circuit(index), read from
/// <data_dir>/noisy12_<index>.bin. Throws when the file is missing, has
/// the wrong size, or was written for another circuit.
std::vector<double> load_noisy_reference(const std::string& data_dir,
                                         int index);

/// Regenerates every stored noisy distribution (the regeneration
/// command: `python3 perfbench/run.py --regen-noisy`).
void write_noisy_references(const std::string& data_dir);

}  // namespace perfbench
