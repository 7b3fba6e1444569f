/// \file circuits.h
/// The benchmark's own circuit description and workload generators.
///
/// Every input is derived from (workload seed, job index) with the
/// benchmark's own SplitMix64 stream, so inputs stay fixed when the
/// library's RNG changes. Circuits are kept here as plain gate lists;
/// the library only ever receives them converted to a bgls::Circuit or
/// to QASM text, and the reference code in reference.cpp reads the same
/// gate list with its own matrices.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"

namespace perfbench {

/// SplitMix64: the generator behind every benchmark input.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// A stable 64-bit hash of (a, b, c), used to derive per-job seeds.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0);

enum class OpKind { kH, kT, kS, kRx, kCx, kDepolarize };

struct BenchOp {
  OpKind kind = OpKind::kH;
  int q0 = 0;
  int q1 = -1;         // target of kCx
  double param = 0.0;  // rx angle, or depolarizing probability
};

/// A circuit as a list of moments; every qubit is measured at the end
/// under key "m" (qubit q at bit q of the packed value).
struct BenchCircuit {
  int num_qubits = 0;
  std::vector<std::vector<BenchOp>> moments;
};

/// Which single-qubit gates a brickwork layer draws from.
enum class GateSet { kUniversal, kClifford };

/// `layers` layers on `n` qubits; each layer is one moment of random
/// 1q gates (universal: h, t, s, rx(theta); clifford: h, s) and one
/// moment of CX on alternating neighbour pairs ((0,1),(2,3)... on even
/// layers, (1,2),(3,4)... on odd ones). With depolarize_p > 0 a moment
/// of depolarize(p) on every qubit the previous moment touched follows
/// each moment (the library's with_noise rule, spelled out here).
BenchCircuit brickwork(int n, int layers, GateSet set, double depolarize_p,
                       SplitMix& gen);

/// The same circuit with one operation removed (the self-test's
/// deliberately wrong sampler).
BenchCircuit drop_op(const BenchCircuit& circuit, std::size_t moment,
                     std::size_t index);

/// The same circuit without its channels (the ideal circuit).
BenchCircuit without_channels(const BenchCircuit& circuit);

/// Conversion to the library's circuit, moment by moment, plus the
/// terminal measurement of every qubit.
bgls::Circuit to_circuit(const BenchCircuit& circuit);

/// OpenQASM 2.0 text of a channel-free circuit (measure q -> c).
std::string to_qasm(const BenchCircuit& circuit);

/// A canonical text form, hashed into the stored noisy distributions
/// so a generator change cannot silently pair a circuit with another
/// circuit's reference.
std::string describe(const BenchCircuit& circuit);

// --- Workload generators ------------------------------------------------

/// r20_batched / r20_serial job circuit: 20-qubit brickwork, 12 layers,
/// universal gate set, 354 gates (240 1q + 114 CX).
///
/// Why: the paper's hot path (Sec. 3.2.3, Fig. 2). The 16 MiB state is
/// L3-sized, so the time goes to `statevector` amplitude sweeps and
/// `engine` dictionary resampling; `channels` and `service` do nothing.
/// At threads = 4 (r20_batched) it loads the engine's shared-snapshot
/// batched path under the library's default OpenMP setting, so the
/// engine-pool x OpenMP oversubscription stays visible; evolve was about
/// 40% of the job (457-487 ms of 1064-1196 ms) when this workload was
/// chosen. At threads = 1 (r20_serial) it is the only workload on
/// core/simulator.h's serial batched loop: the single-thread baseline
/// of the same problem, where an engine-side gain must not show and
/// deleting the serial path must.
BenchCircuit r20_circuit(std::uint64_t seed, std::uint64_t job);

/// Number of fixed noisy circuits with stored exact distributions.
inline constexpr int kNoisyCircuits = 4;
inline constexpr int kNoisyQubits = 12;
inline constexpr double kNoisyDepolarize = 0.01;

/// noisy_traj circuit `index` (0 .. kNoisyCircuits-1): 12-qubit
/// brickwork, 12 layers, depolarize(0.01) after every moment.
///
/// Why: channels force one trajectory per repetition, so the work is
/// per-operation overhead on a 64 KiB, cache-resident state plus the
/// `engine`'s trajectory sharding, which scales. A 256-repetition job
/// took 3.6-4.0 s on a 4-core host when this workload was chosen, about
/// 120 us per apply. Dictionary or bandwidth work on r20_* bypasses it.
/// Jobs draw one of these fixed circuits from (seed, job index) rather
/// than a fresh one, because the exact noisy distribution each is
/// checked against comes from a density-matrix run too slow to repeat
/// per job; it is stored in data/ (see reference.h).
BenchCircuit noisy_circuit(int index);

/// One service_mix submission.
struct ServiceJob {
  std::string qasm;
  std::uint64_t seed = 0;
  int num_qubits = 0;
  /// Index of the earlier job this one repeats, or -1.
  std::int64_t repeat_of = -1;
};

/// service_mix job `k`: about 25% of jobs (k >= 8) repeat the (qasm,
/// seed) of one of the 8th to 64th jobs before it, a hot set the
/// daemon's 128-entry cache holds, so result-cache reads run beside
/// journal writes; of the rest about 90% are small 4-8 qubit brickworks
/// (a third Clifford-only, which the selector routes to the stabilizer
/// backend) and about 10% medium 14-16 qubit brickworks.
///
/// Why: `service`, `qasm` and `api` dominate and kernels are
/// negligible, so a kernel gain must not move this workload and a
/// journal or cache change must. `jobs` holds jobs 0..k-1 (repeats
/// copy from it).
ServiceJob service_job(std::uint64_t seed, std::uint64_t k,
                       const std::vector<ServiceJob>& jobs);

}  // namespace perfbench
