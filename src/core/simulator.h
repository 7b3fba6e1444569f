/// \file simulator.h
/// The gate-by-gate sampling simulator — the paper's core contribution
/// (Secs. 2–3), templated over the state representation.
///
/// Algorithm (Bravyi–Gosset–Liu, sketched in Sec. 2 of the paper):
///   1. b ← 0...0 (a "hidden variable" sample of the instantaneous
///      output distribution).
///   2. For each gate: apply it to the state; enumerate the candidate
///      bitstrings that vary b over the gate's support; resample b from
///      the candidates' bitstring probabilities.
///   3. The final b is a sample of |⟨b|ψ_f⟩|².
///
/// Exactly like the Python package, a Simulator is assembled from three
/// ingredients (Sec. 3.1): an initial state of any representation, an
/// `apply_op` function, and a `compute_probability` function. For the
/// library's own state types the two functions default to the
/// ADL-discovered free functions each backend provides, and the
/// simulator can additionally use backend members for exact channel
/// branching and measurement collapse.
///
/// Features reproduced from Sec. 3.2:
///  - automatic sample parallelization (3.2.3): on unitary circuits with
///    terminal measurements, all repetitions evolve one state while a
///    bitstring→multiplicity dictionary is resampled per gate via exact
///    multinomial splitting, so cost saturates once the dictionary
///    reaches the 2^n unique-bitstring ceiling (Fig. 2);
///  - quantum trajectories for channels and mid-circuit measurements
///    (3.2.1): per-repetition evolution. Channels use a *joint*
///    Kraus-branch × candidate update (equivalent to running BGLS on the
///    channel's unitary dilation and discarding the environment bit),
///    which keeps the hidden-variable coupling exact even for non-unital
///    channels. The step never copies the state: every joint weight
///    comes from one read of the 2^k candidate amplitudes (or of their
///    block of ρ; core/joint_channel.h), and only the drawn branch is
///    applied — skipped for K ∝ I, applied as U = K/√p without
///    renormalizing for a scaled unitary (channels/channels.h).
///    Mid-circuit measurements read their outcome off the current
///    bitstring — a faithful sample by the BGL invariant — and collapse
///    the state accordingly;
///  - optional skipping of diagonal-gate updates: a diagonal unitary
///    rescales every candidate amplitude by a unit-modulus phase, so the
///    candidate distribution is unchanged and the resampling step can be
///    elided exactly (ablated in the bench suite).

#pragma once

#include <algorithm>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "core/checkpoint.h"
#include "core/joint_channel.h"
#include "core/progress.h"
#include "core/result.h"
#include "engine/context.h"  // the reusable pool cached behind the simulator
#include "obs/trace.h"
#include "util/bits.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"

namespace bgls {

template <typename State>
class BatchEngine;  // engine/engine.h — included at the end of this file

/// The Sec. 3.2.3 bitstring→multiplicity dictionary the batched sampler
/// resamples per gate.
using BatchDictionary = std::map<Bitstring, std::uint64_t>;

/// Per-RNG-stream shard counters, filled by the BatchEngine (engine.h)
/// when a run is sharded across streams.
struct StreamStats {
  /// Independent state evolutions executed in this shard (0 on the
  /// engine's snapshot-sharing batched path, where one shared evolution
  /// serves every shard).
  std::size_t trajectories = 0;
  /// apply_op invocations executed in this shard.
  std::size_t state_applications = 0;
  /// compute_probability invocations executed in this shard.
  std::size_t probability_evaluations = 0;
};

/// Instrumentation counters for the most recent run (used by the Fig. 2
/// bench to demonstrate dictionary saturation and by the cost-model
/// microbenches).
struct RunStats {
  /// Number of apply_op invocations across all trajectories.
  std::size_t state_applications = 0;
  /// Number of compute_probability invocations.
  std::size_t probability_evaluations = 0;
  /// Peak unique-bitstring dictionary size (≤ 2^n; Sec. 3.2.3).
  std::size_t max_dictionary_size = 0;
  /// Number of independent state evolutions (1 when parallelized).
  std::size_t trajectories = 0;
  /// Whether the dictionary-batched path was used.
  bool used_sample_parallelization = false;
  /// Candidate updates skipped because the gate was diagonal.
  std::size_t diagonal_updates_skipped = 0;
  /// Worker threads the run was executed with (1 for the serial path).
  std::size_t threads_used = 1;
  /// Per-stream shard counters in shard order (empty on the serial
  /// path; one entry per RNG stream on engine runs).
  std::vector<StreamStats> per_stream;
  /// Why the runtime layer routed this run to its backend — filled by
  /// Session for kAuto requests, including every job of a run_batch, so
  /// per-job routing decisions survive into stats reporting (the
  /// service daemon's stats endpoint). Empty for direct templated runs
  /// and explicit backend picks.
  std::string selection_reason;
  /// Phase wall times, milliseconds. Scheduling-dependent (unlike the
  /// counters above) and therefore excluded from the byte-stable run
  /// reports; surfaced by `bgls_run --verbose` and the daemon's status
  /// op. queue_wait_ms is filled by the service scheduler (time from
  /// admission to run start; 0 for direct Session calls); optimize_ms
  /// and sample_ms by Session::run (circuit fusion / backend dispatch);
  /// evolve_ms by the engine's shared-snapshot batched path (gate
  /// applies on the shared state, a subset of sample_ms).
  double queue_wait_ms = 0.0;
  double optimize_ms = 0.0;
  double evolve_ms = 0.0;
  double sample_ms = 0.0;
};

/// Tuning knobs.
struct SimulatorOptions {
  /// When true, the candidate-resampling step is skipped for gates that
  /// are diagonal in the computational basis (exact; see file comment).
  bool skip_diagonal_updates = false;
  /// Force-disable the dictionary batching of Sec. 3.2.3 even when the
  /// circuit allows it (used by the Fig. 2 ablation).
  bool disable_sample_parallelization = false;
  /// Worker threads for multi-repetition runs: 1 (default) keeps the
  /// classic serial path, 0 auto-detects hardware concurrency, N > 1
  /// routes run()/sample() through the BatchEngine (engine/engine.h).
  /// Engine results are bit-identical for every thread count >= 1 given
  /// the same seed and num_rng_streams; only the serial num_threads == 1
  /// path draws from a different (single) stream.
  int num_threads = 1;
  /// Number of deterministic RNG shards an engine run is split into.
  /// This — not the thread count — fixes the sampled values, so keep it
  /// constant when comparing runs across machines or thread counts.
  std::uint64_t num_rng_streams = 16;
  /// Reuse one long-lived thread pool across engine runs: the pool is
  /// cached process-wide per thread count behind a shared EngineContext
  /// (engine/context.h), and copying a Simulator shares its context.
  /// false restores the v1 behavior — a fresh pool per delegated run —
  /// which the fig2 pool-reuse bench measures against. Never affects
  /// the sampled values, only where the threads come from.
  bool reuse_thread_pool = true;
  /// run_batch scheduling granularity: true (default) schedules one
  /// pool job per (circuit, repetition-shard) pair so a few large
  /// trajectory circuits still saturate the pool; false schedules one
  /// job per circuit and runs its shards serially inside it. The shard
  /// decomposition is identical in both modes, so results are
  /// bit-identical either way.
  bool two_level_batch_sharding = true;
  /// Cooperative stop handle, polled at bounded intervals (per gate on
  /// the trajectory and dictionary-batched loops; additionally per
  /// shard/chunk in the engine). Inert by default. Scheduling-only: an
  /// aborted run throws CancelledError/DeadlineExceededError and
  /// discards its partial work; it never alters what an uncancelled run
  /// samples, nor any shared state later runs depend on.
  CancellationToken cancel_token{};
  /// Streaming partial histograms (core/progress.h): run() emits
  /// cumulative per-key histograms every `progress.every` completed
  /// repetitions in canonical shard order. sample()/run_batch ignore
  /// it. Observation-only: never changes the sampled records.
  ProgressOptions progress{};
  /// Optional telemetry trace (obs/trace.h) the engine records shard
  /// and phase spans into; non-owning, may be null. Observation-only:
  /// spans time existing work and never touch RNG state, so a traced
  /// run samples exactly what an untraced one does.
  obs::Trace* trace = nullptr;
  /// Checkpoint capture (core/checkpoint.h): run() emits resumable
  /// RunCheckpoint snapshots every `checkpoint.every` completed
  /// repetitions within a shard plus at shard completion.
  /// sample()/run_batch ignore it. Observation-only: capture never
  /// changes the sampled records.
  CheckpointOptions checkpoint{};
  /// Resume a previous run from its checkpoint: run() validates the
  /// checkpoint against this request's shape (mode, totals, shard
  /// count) and continues it, producing a final histogram and report
  /// counters bit-identical to the uninterrupted run. The request must
  /// carry the same circuit/seed/num_rng_streams as the checkpointed
  /// one. Intermediate progress updates are suppressed on a resumed
  /// run; the final update still fires.
  std::shared_ptr<const RunCheckpoint> resume{};
};

/// Gate-by-gate sampler over an arbitrary state representation.
///
/// State requirements (checked at compile time where used):
///  - copy-constructible (fresh copy per run / trajectory);
///  - ADL-visible `apply_op(const Operation&, State&, Rng&)` and
///    `compute_probability(const State&, Bitstring)` — or explicit
///    callables passed to the constructor (the Python package's API);
///  - optional members for full feature support:
///      `project(std::span<const Qubit>, Bitstring)` (mid-circuit
///      measurement), and the JointChannelState members
///      (core/joint_channel.h) for exact channel branching:
///      `apply_matrix(const Matrix&, std::span<const Qubit>)`,
///      `renormalize()`, `num_qubits()`, and `amplitude(Bitstring)` or
///      `entry(Bitstring, Bitstring)`.
template <typename State>
class Simulator {
 public:
  using ApplyOpFn = std::function<void(const Operation&, State&, Rng&)>;
  using ProbabilityFn = std::function<double(const State&, Bitstring)>;

  /// Builds a simulator whose apply/probability hooks are the backend's
  /// ADL free functions.
  explicit Simulator(State initial_state, SimulatorOptions options = {})
      : initial_state_(std::move(initial_state)),
        options_(options),
        apply_op_([](const Operation& op, State& s, Rng& rng) {
          apply_op(op, s, rng);
        }),
        compute_probability_([](const State& s, Bitstring b) {
          return compute_probability(s, b);
        }),
        hooks_are_native_(true) {}

  /// The paper's three-ingredient constructor: initial state, apply_op,
  /// compute_probability. With custom hooks the simulator treats the
  /// state as a black box: channels are routed through `apply` followed
  /// by a standard candidate update.
  Simulator(State initial_state, ApplyOpFn apply, ProbabilityFn probability,
            SimulatorOptions options = {})
      : initial_state_(std::move(initial_state)),
        options_(options),
        apply_op_(std::move(apply)),
        compute_probability_(std::move(probability)),
        hooks_are_native_(false) {}

  /// Runs the circuit end-to-end `repetitions` times and returns the
  /// measurement records, mirroring cirq.Simulator.run. The circuit must
  /// contain at least one measurement and must be fully resolved.
  Result run(const Circuit& circuit, std::uint64_t repetitions, Rng& rng) {
    if (options_.num_threads != 1 && repetitions > 1) {
      return run_with_engine(
          [&](BatchEngine<State>& engine) {
            return engine.run(circuit, repetitions, rng);
          });
    }
    validate(circuit, /*require_measurements=*/true);
    options_.cancel_token.throw_if_stopped();
    const RunCheckpoint* resume = options_.resume.get();
    // A resumed run suppresses intermediate progress updates (the
    // pre-interruption prefix already streamed them) and emits only the
    // final one.
    const bool streaming = options_.progress.enabled() && resume == nullptr;
    const bool checkpointing = options_.checkpoint.enabled();
    Result result;
    declare_measurement_keys(circuit, result);
    if (can_parallelize(circuit)) {
      // The dictionary-batched path is shard-atomic: every repetition
      // completes together at the final gate, so checkpoints exist only
      // at 0 (entry RNG state) and at completion.
      Counts counts;
      std::array<std::uint64_t, 4> engine_state = rng.state();
      if (resume != nullptr) {
        validate_resume(*resume, CheckpointMode::kSerialBatched, repetitions,
                        1);
        const ShardCheckpoint& shard = resume->shards.front();
        if (shard.completed == repetitions && repetitions > 0) {
          // Already finished: rebuild the result and counters from the
          // checkpoint without sampling.
          restore_result_histograms(result, shard.histograms);
          apply_checkpoint_stats(stats_, resume->stats);
          stats_.used_sample_parallelization = true;
          if (options_.progress.enabled()) {
            emit_final_progress(result, repetitions);
          }
          return result;
        }
        Rng restored = Rng::from_state(shard.rng_state);
        engine_state = shard.rng_state;
        counts = sample_parallel(circuit, repetitions, restored);
      } else {
        if (checkpointing) {
          emit_serial_checkpoint(CheckpointMode::kSerialBatched, repetitions,
                                 0, engine_state, {});
        }
        counts = sample_parallel(circuit, repetitions, rng);
      }
      for (const auto& [bits, count] : counts) {
        for (const auto& op : circuit.all_operations()) {
          if (!op.gate().is_measurement()) continue;
          result.add_records(op.gate().measurement_key(),
                             pack_key_bits(bits, op.qubits()), count);
        }
      }
      if (checkpointing) {
        emit_serial_checkpoint(CheckpointMode::kSerialBatched, repetitions,
                               repetitions, engine_state,
                               key_histograms(result));
      }
      // Dictionary batching completes every repetition together at the
      // final gate, so streaming degenerates to the one final update.
      if (options_.progress.enabled()) emit_final_progress(result, repetitions);
      return result;
    }
    std::map<std::string, Counts> cumulative;
    std::uint64_t start = 0;
    Rng resumed_rng;
    Rng* engine = &rng;
    if (resume != nullptr) {
      validate_resume(*resume, CheckpointMode::kSerial, repetitions, 1);
      const ShardCheckpoint& shard = resume->shards.front();
      start = shard.completed;
      restore_result_histograms(result, shard.histograms);
      cumulative = shard.histograms;
      apply_checkpoint_stats(stats_, resume->stats);
      resumed_rng = Rng::from_state(shard.rng_state);
      engine = &resumed_rng;
    }
    const bool track = streaming || checkpointing;
    for (std::uint64_t rep = start; rep < repetitions; ++rep) {
      // Deterministic mid-run abort hook for crash-safety tests
      // (util/fault.h); inert unless armed.
      fault::throw_if_fails("shard_run");
      run_one_trajectory(circuit, *engine, &result);
      const std::uint64_t done = rep + 1;
      if (track) {
        for (const std::string& key : result.keys()) {
          ++cumulative[key][result.values(key).back()];
        }
      }
      // Canonical single-shard checkpoints: every `every` repetitions
      // plus the final one (see core/progress.h). Streaming and
      // checkpoint capture walk their own cadences independently.
      if (streaming &&
          (done % options_.progress.every == 0 || done == repetitions)) {
        ProgressUpdate update;
        update.completed_repetitions = done;
        update.total_repetitions = repetitions;
        update.final = done == repetitions;
        update.histograms = cumulative;
        options_.progress.sink(update);
      }
      if (checkpointing &&
          (done % options_.checkpoint.every == 0 || done == repetitions)) {
        emit_serial_checkpoint(CheckpointMode::kSerial, repetitions, done,
                               engine->state(), cumulative);
      }
    }
    if (options_.progress.enabled() && resume != nullptr) {
      emit_final_progress(result, repetitions);
    }
    if (streaming && repetitions == 0) emit_final_progress(result, 0);
    return result;
  }

  /// Convenience overload with a seed instead of an engine.
  Result run(const Circuit& circuit, std::uint64_t repetitions = 1,
             std::uint64_t seed = 0) {
    Rng rng(seed);
    return run(circuit, repetitions, rng);
  }

  /// Samples final bitstrings over *all* qubits, ignoring measurement
  /// gates (the form the paper's runtime benchmarks use). Returns
  /// outcome counts.
  Counts sample(const Circuit& circuit, std::uint64_t repetitions, Rng& rng) {
    if (options_.num_threads != 1 && repetitions > 1) {
      return run_with_engine(
          [&](BatchEngine<State>& engine) {
            return engine.sample(circuit, repetitions, rng);
          });
    }
    validate(circuit, /*require_measurements=*/false);
    if (can_parallelize(circuit)) {
      return sample_parallel(circuit, repetitions, rng);
    }
    Counts counts;
    for (std::uint64_t rep = 0; rep < repetitions; ++rep) {
      ++counts[run_one_trajectory(circuit, rng, nullptr)];
    }
    return counts;
  }

  /// Asynchronous run(): schedules the whole run as a job on the
  /// persistent process-wide pool and returns immediately with a future
  /// over the merged Result. Bit-identical to
  /// `run(circuit, repetitions, seed)` by construction — the job runs a
  /// full copy of this simulator through the ordinary synchronous
  /// run(), so it makes the same serial-vs-engine path choice
  /// (num_threads, repetitions) and draws the same records. Async jobs
  /// do not update last_run_stats() (that would race between in-flight
  /// jobs); use BatchEngine::submit() when the per-run stats are
  /// needed. Thread-safe against other run_async calls.
  [[nodiscard]] std::future<Result> run_async(Circuit circuit,
                                              std::uint64_t repetitions,
                                              std::uint64_t seed);

  /// Counters from the most recent run()/sample() call.
  [[nodiscard]] const RunStats& last_run_stats() const { return stats_; }

  /// Current tuning knobs.
  [[nodiscard]] const SimulatorOptions& options() const { return options_; }

  /// Replaces the tuning knobs (used by the engine to force per-shard
  /// runs onto the serial path).
  void set_options(SimulatorOptions options) { options_ = options; }

  /// True when run()/sample() would take the dictionary-batched path of
  /// Sec. 3.2.3 for this circuit. The engine uses this to pick between
  /// the multinomial (batched) and even (trajectory) repetition splits.
  [[nodiscard]] bool can_parallelize_samples(const Circuit& circuit) const {
    return can_parallelize(circuit);
  }

  /// The (unevolved) initial state the sampler copies per run. The
  /// engine's snapshot-sharing batched path evolves one copy of it.
  [[nodiscard]] const State& initial_state() const { return initial_state_; }

  /// The apply_op ingredient (used by the engine to evolve the shared
  /// snapshot).
  [[nodiscard]] const ApplyOpFn& apply_fn() const { return apply_op_; }

  /// True when both hooks are the library defaults. Native
  /// compute_probability is a pure function of (state, bitstring), so
  /// the engine may invoke it concurrently against one shared state;
  /// user-provided hooks carry no such guarantee, so the engine keeps
  /// them on the v1 path — private per-shard states, still parallel
  /// across the pool.
  [[nodiscard]] bool hooks_are_native() const { return hooks_are_native_; }

  /// The lazily acquired engine context (null until a multi-threaded
  /// run first needs a pool). Copies of this simulator share it.
  [[nodiscard]] const std::shared_ptr<EngineContext>& engine_context() const {
    return engine_context_;
  }

  /// Throws unless `circuit` is runnable (parameters resolved, and
  /// measured when `require_measurements`). Shared precondition of the
  /// serial paths and the engine's snapshot path.
  void check_runnable(const Circuit& circuit, bool require_measurements) const {
    BGLS_REQUIRE(!circuit.is_parameterized(),
                 "circuit has unresolved parameters; resolve() it first");
    BGLS_REQUIRE(!require_measurements || circuit.has_measurements(),
                 "circuit has no measurements to sample; append measure()");
  }

  /// One Sec. 3.2.3 dictionary-resampling step against an already
  /// evolved state: splits every unique bitstring's multiplicity across
  /// its candidates with exact multinomial draws from `rng`, replacing
  /// `dictionary` in place. Returns the number of probability
  /// evaluations performed. Const and re-entrant — the engine calls it
  /// concurrently from many shards against one shared read-only state,
  /// but only when hooks_are_native() (native compute_probability hooks
  /// are pure functions of their arguments); with user-provided hooks
  /// the engine falls back to v1 per-shard private states and never
  /// shares a snapshot.
  std::size_t resample_dictionary(const State& state, const Operation& op,
                                  BatchDictionary& dictionary,
                                  Rng& rng) const {
    BatchDictionary next;
    std::array<double, (1u << kMaxGateArity)> weights{};
    std::array<std::uint64_t, (1u << kMaxGateArity)> counts{};
    std::size_t evaluations = 0;
    for (const auto& [bits, multiplicity] : dictionary) {
      const CandidateList candidates = expand_candidates(bits, op.qubits());
      const auto n = static_cast<std::size_t>(candidates.count);
      for (std::size_t i = 0; i < n; ++i) {
        weights[i] = compute_probability_(state, candidates.values[i]);
      }
      evaluations += n;
      rng.multinomial(multiplicity, {weights.data(), n}, {counts.data(), n});
      for (std::size_t i = 0; i < n; ++i) {
        if (counts[i] > 0) next[candidates.values[i]] += counts[i];
      }
    }
    dictionary.swap(next);
    return evaluations;
  }

  /// Extracts a key's packed value from a full bitstring: bit j of the
  /// result is b[qubits[j]]. (Public: the engine packs measurement
  /// records from merged shard histograms with the same convention.)
  [[nodiscard]] static Bitstring pack_key_bits(Bitstring b,
                                               std::span<const Qubit> qubits) {
    Bitstring packed = 0;
    for (std::size_t j = 0; j < qubits.size(); ++j) {
      packed = with_bit(packed, static_cast<int>(j), get_bit(b, qubits[j]));
    }
    return packed;
  }

 private:
  /// Routes a multi-repetition call through a BatchEngine sharing the
  /// cached context and adopts its merged counters so last_run_stats()
  /// stays meaningful.
  template <typename Body>
  auto run_with_engine(Body&& body) {
    BatchEngine<State> engine = make_engine();
    auto result = body(engine);
    stats_ = engine.last_run_stats();
    return result;
  }

  /// Builds an engine around a copy of this simulator. With
  /// reuse_thread_pool the engine shares this simulator's cached
  /// process-wide context (acquired on first use, re-acquired if the
  /// configured thread count changed); otherwise the engine creates a
  /// private pool per run — the v1 behavior.
  BatchEngine<State> make_engine();

  void validate(const Circuit& circuit, bool require_measurements) {
    check_runnable(circuit, require_measurements);
    stats_ = RunStats{};
  }

  [[nodiscard]] bool can_parallelize(const Circuit& circuit) const {
    // Sec. 3.2.3: one shared state only works when the state evolution
    // is deterministic (no channels, no classical feed-forward) and
    // nothing acts after measurement.
    if (options_.disable_sample_parallelization || circuit.has_channels() ||
        !circuit.measurements_are_terminal()) {
      return false;
    }
    for (const auto& op : circuit.all_operations()) {
      if (op.is_classically_controlled()) return false;
    }
    return true;
  }

  /// One candidate-resampling step: draws the new bitstring for a single
  /// trajectory.
  Bitstring update_bits(const State& state, Bitstring b, const Operation& op,
                        Rng& rng) {
    const CandidateList candidates = expand_candidates(b, op.qubits());
    std::array<double, (1u << kMaxGateArity)> weights{};
    for (int i = 0; i < candidates.count; ++i) {
      weights[static_cast<std::size_t>(i)] =
          compute_probability_(state, candidates.values[static_cast<std::size_t>(i)]);
    }
    stats_.probability_evaluations +=
        static_cast<std::size_t>(candidates.count);
    const std::size_t chosen = rng.categorical(
        {weights.data(), static_cast<std::size_t>(candidates.count)});
    return candidates.values[chosen];
  }

  /// Dictionary-batched sampling (Sec. 3.2.3): evolves one state and
  /// resamples the dictionary after each gate. The per-gate step lives
  /// in resample_dictionary() so the engine's snapshot-sharing path can
  /// drive the identical arithmetic per shard.
  Counts sample_parallel(const Circuit& circuit, std::uint64_t repetitions,
                         Rng& rng) {
    stats_.used_sample_parallelization = true;
    stats_.trajectories = 1;
    State state = initial_state_;
    BatchDictionary dictionary{{Bitstring{0}, repetitions}};
    stats_.max_dictionary_size = 1;

    for (const auto& op : circuit.all_operations()) {
      if (op.gate().is_measurement()) continue;
      options_.cancel_token.throw_if_stopped();
      fault::throw_if_fails("shard_run");
      apply_op_(op, state, rng);
      ++stats_.state_applications;
      if (options_.skip_diagonal_updates && op.gate().is_diagonal()) {
        ++stats_.diagonal_updates_skipped;
        continue;
      }
      stats_.probability_evaluations +=
          resample_dictionary(state, op, dictionary, rng);
      stats_.max_dictionary_size =
          std::max(stats_.max_dictionary_size, dictionary.size());
    }
    return {dictionary.begin(), dictionary.end()};
  }

  /// Exact channel handling: sample (Kraus branch, candidate) jointly —
  /// this is BGLS on the channel's unitary dilation with the environment
  /// bit discarded, so the hidden-variable invariant holds exactly. The
  /// weights come from the candidates' local amplitudes (or ρ block)
  /// without copying the state, one categorical draw over them in
  /// branch-major order picks (branch, candidate), and only the drawn
  /// branch is applied (apply_kraus_branch). Counters keep their
  /// meaning: one probability evaluation per joint weight, one state
  /// application per channel op.
  template <JointChannelState S = State>
  Bitstring apply_channel_jointly(const Operation& op, S& state, Bitstring b,
                                  Rng& rng) {
    const KrausChannel& channel = op.gate().channel();
    const CandidateList candidates = expand_candidates(b, op.qubits());
    const auto num_candidates = static_cast<std::size_t>(candidates.count);
    joint_weights_.resize(channel.operators().size() * num_candidates);
    joint_channel_weights(state, channel, op.qubits(), candidates,
                          joint_weights_);
    stats_.probability_evaluations += joint_weights_.size();
    const std::size_t chosen = rng.categorical(joint_weights_);
    apply_kraus_branch(state, channel, chosen / num_candidates, op.qubits());
    ++stats_.state_applications;
    return candidates.values[chosen % num_candidates];
  }

  /// Emits one single-shard RunCheckpoint through the checkpoint sink
  /// (the serial paths; see core/checkpoint.h). stats_ at the call
  /// covers the whole completed prefix — a resumed run seeds it from
  /// the base checkpoint — so the snapshot's counters are prefix-exact.
  void emit_serial_checkpoint(CheckpointMode mode, std::uint64_t repetitions,
                              std::uint64_t done,
                              const std::array<std::uint64_t, 4>& rng_state,
                              std::map<std::string, Counts> histograms) {
    RunCheckpoint checkpoint;
    checkpoint.mode = mode;
    checkpoint.total_repetitions = repetitions;
    ShardCheckpoint shard;
    shard.total = repetitions;
    shard.completed = done;
    shard.rng_state = rng_state;
    shard.histograms = std::move(histograms);
    checkpoint.shards.push_back(std::move(shard));
    checkpoint.stats = checkpoint_stats_from(stats_);
    options_.checkpoint.sink(checkpoint);
  }

  /// Emits the final ProgressUpdate carrying the run's complete
  /// histograms (the degenerate stream of the batched path and of
  /// 0-repetition runs).
  void emit_final_progress(const Result& result, std::uint64_t repetitions) {
    ProgressUpdate update;
    update.completed_repetitions = repetitions;
    update.total_repetitions = repetitions;
    update.final = true;
    update.histograms = key_histograms(result);
    options_.progress.sink(update);
  }

  /// One full trajectory; returns the final bitstring and (optionally)
  /// appends measurement records.
  Bitstring run_one_trajectory(const Circuit& circuit, Rng& rng,
                               Result* result) {
    State state = initial_state_;
    Bitstring b = 0;
    // Per-trajectory classical record, read by classically-controlled
    // operations (feed-forward).
    std::map<std::string, Bitstring> records;
    ++stats_.trajectories;
    for (const auto& op : circuit.all_operations()) {
      options_.cancel_token.throw_if_stopped();
      const Gate& gate = op.gate();
      if (gate.is_measurement()) {
        // b is a faithful sample of the instantaneous distribution, so
        // its restriction to the measured qubits *is* the outcome;
        // collapse the state to stay consistent with it.
        const Bitstring packed = pack_key_bits(b, op.qubits());
        records[gate.measurement_key()] = packed;
        if (result != nullptr) {
          result->add_record(gate.measurement_key(), packed);
        }
        project_state(state, op.qubits(), b);
        continue;
      }
      if (op.is_classically_controlled()) {
        const auto it = records.find(op.condition_key());
        BGLS_REQUIRE(it != records.end(), "operation ", op.to_string(),
                     " is conditioned on key '", op.condition_key(),
                     "' which has not been measured yet");
        if (it->second == 0) continue;  // condition false: skip the gate
      }
      if constexpr (JointChannelState<State>) {
        if (gate.is_channel() && hooks_are_native_) {
          b = apply_channel_jointly(op, state, b, rng);
          continue;
        }
      }
      apply_op_(op, state, rng);
      ++stats_.state_applications;
      if (options_.skip_diagonal_updates && gate.is_unitary() &&
          gate.is_diagonal()) {
        ++stats_.diagonal_updates_skipped;
        continue;
      }
      b = update_bits(state, b, op, rng);
    }
    return b;
  }

  void project_state(State& state, std::span<const Qubit> qubits,
                     Bitstring b) {
    if constexpr (requires(State s, std::span<const Qubit> qs, Bitstring bb) {
                    s.project(qs, bb);
                  }) {
      state.project(qubits, b);
    } else {
      detail::throw_error<UnsupportedOperationError>(
          "state type does not support projection; mid-circuit "
          "measurements need a project(qubits, bits) member");
    }
  }

  State initial_state_;
  SimulatorOptions options_;
  ApplyOpFn apply_op_;
  ProbabilityFn compute_probability_;
  bool hooks_are_native_ = true;
  RunStats stats_;
  /// Joint (branch × candidate) weight buffer reused across channel ops
  /// so the trajectory loop does not allocate per op.
  std::vector<double> joint_weights_;
  /// Lazily acquired shared engine context (pool). Copying the
  /// simulator copies the pointer, so copies share one pool.
  std::shared_ptr<EngineContext> engine_context_;
};

}  // namespace bgls

// The engine templates need the full Simulator definition above, and
// Simulator::run/sample instantiate BatchEngine when num_threads != 1 —
// pulling the engine in here keeps "include core/simulator.h" a
// complete, self-sufficient way to get the parallel paths too.
#include "engine/engine.h"  // IWYU pragma: keep

namespace bgls {

// Out of line: needs the complete BatchEngine/EngineContext definitions.
template <typename State>
BatchEngine<State> Simulator<State>::make_engine() {
  if (!options_.reuse_thread_pool) {
    return BatchEngine<State>(*this);
  }
  const int resolved = ThreadPool::resolve_num_threads(options_.num_threads);
  if (!engine_context_ || engine_context_->num_threads() != resolved) {
    engine_context_ = EngineContext::shared(resolved);
  }
  return BatchEngine<State>(*this, engine_context_);
}

template <typename State>
std::future<Result> Simulator<State>::run_async(Circuit circuit,
                                                std::uint64_t repetitions,
                                                std::uint64_t seed) {
  // The job always schedules on the immortal shared pool (a private
  // pool could be torn down by its own worker once the job holds the
  // last reference), and *inside* the job a plain copy of this
  // simulator runs synchronously — same path choice, same draws as
  // run(circuit, repetitions, seed). The copy is forced onto the shared
  // pool too: reuse_thread_pool = false would otherwise spawn and join
  // a private pool inside every job — exactly the per-call cost async
  // exists to avoid, oversubscribing the machine under many in-flight
  // jobs. Pool choice is scheduling-only, so the forced reuse never
  // changes the sampled records. A multi-threaded inner run fans its
  // shards out on this same pool; nested parallel_for is safe (see
  // thread_pool.h).
  const int resolved = ThreadPool::resolve_num_threads(options_.num_threads);
  std::shared_ptr<EngineContext> context = EngineContext::shared(resolved);
  Simulator<State> copy = *this;
  copy.options_.reuse_thread_pool = true;
  auto task = std::make_shared<std::packaged_task<Result()>>(
      [sim = std::move(copy), circuit = std::move(circuit), repetitions,
       seed]() mutable { return sim.run(circuit, repetitions, seed); });
  std::future<Result> future = task->get_future();
  context->pool().submit([task] { (*task)(); });
  return future;
}

}  // namespace bgls
