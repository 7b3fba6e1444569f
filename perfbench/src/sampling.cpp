/// \file sampling.cpp
/// The sampling workloads (r20_batched, r20_serial, noisy_traj): one
/// closed-loop caller running Session::run on the statevector backend,
/// one job after another. Generation and conversion of each job's
/// circuit happen between timed calls.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>
#include <thread>

#include "api/selector.h"
#include "api/session.h"
#include "obs/trace.h"
#include "reference.h"
#include "service/cost.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct SamplingSpec {
  int threads = 1;
  std::uint64_t reps = 0;
  bool noisy = false;
};

SamplingSpec spec_for(const std::string& workload) {
  if (workload == "r20_batched") return {4, 4096, false};
  if (workload == "r20_serial") return {1, 4096, false};
  if (workload == "noisy_traj") return {4, 128, true};
  throw std::invalid_argument("unknown workload " + workload);
}

/// Set-up's warm-up job: the same circuit whatever the seed, so set-up
/// time does not vary with it, at an index no timed job reaches.
constexpr std::uint64_t kWarmupSeed = 0;
constexpr std::uint64_t kWarmupJob = 1ULL << 40;

int noisy_index(std::uint64_t seed, std::uint64_t job) {
  return static_cast<int>(mix(seed, job, 1) % kNoisyCircuits);
}

BenchCircuit job_circuit(const SamplingSpec& spec, std::uint64_t seed,
                         std::uint64_t job) {
  if (!spec.noisy) return r20_circuit(seed, job);
  return noisy_circuit(noisy_index(seed, job));
}

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t job) {
  return mix(seed, job, 2) >> 1;
}

struct JobOutcome {
  std::uint64_t index = 0;
  std::vector<std::uint64_t> samples;
  double ms = 0.0;  // Session::run wall, measured by the caller
  bgls::RunStats stats;
  bgls::BackendId backend = bgls::BackendId::kStateVector;
  bool errored = false;
  std::vector<bgls::obs::SpanRecord> spans;  // traced phase only
  double resolve_us = 0.0;                   // traced phase only
  double predicted_seconds = 0.0;            // traced phase only
};

bgls::RunRequest make_request(const SamplingSpec& spec,
                              const BenchCircuit& circuit,
                              std::uint64_t seed) {
  return bgls::RunRequest()
      .with_circuit(to_circuit(circuit))
      .with_repetitions(spec.reps)
      .with_seed(seed)
      .with_backend(bgls::BackendId::kStateVector)
      .with_threads(spec.threads);
}

JobOutcome run_job(bgls::Session& session, const SamplingSpec& spec,
                   std::uint64_t seed, std::uint64_t job, bool traced) {
  JobOutcome out;
  out.index = job;
  const BenchCircuit circuit = job_circuit(spec, seed, job);
  bgls::RunRequest request = make_request(spec, circuit, job_seed(seed, job));
  bgls::obs::Trace trace(job + 1);
  if (traced) {
    const auto start = Clock::now();
    const auto resolution = session.resolve_backend(request.circuit, request);
    out.resolve_us = seconds_since(start) * 1e6;
    out.predicted_seconds = bgls::service::CostModel().predict_seconds(
        bgls::profile_circuit(request.circuit), spec.reps,
        resolution.backend->id());
    request.with_trace(&trace);
  }
  const auto start = Clock::now();
  try {
    bgls::RunResult result = session.run(std::move(request));
    out.ms = seconds_since(start) * 1e3;
    out.samples = result.measurements.values("m");
    out.stats = result.stats;
    out.backend = result.backend_id;
  } catch (const std::exception& error) {
    out.ms = seconds_since(start) * 1e3;
    out.errored = true;
    std::cerr << "job " << job << " failed: " << error.what() << '\n';
  }
  if (traced) out.spans = trace.spans();
  return out;
}

/// Runs jobs first.. (at least one) until the summed job time reaches
/// `seconds`; sets that sum, the phase's wall time without circuit
/// generation.
std::vector<JobOutcome> run_phase(bgls::Session& session,
                                  const SamplingSpec& spec, std::uint64_t seed,
                                  std::uint64_t first, double seconds,
                                  bool traced, double& busy_seconds) {
  std::vector<JobOutcome> jobs;
  busy_seconds = 0.0;
  std::uint64_t job = first;
  do {
    jobs.push_back(run_job(session, spec, seed, job++, traced));
    busy_seconds += jobs.back().ms / 1e3;
  } while (busy_seconds < seconds);
  return jobs;
}

/// Total seconds of the spans named `name`; appends each in ms to `each`.
double span_total(const std::vector<bgls::obs::SpanRecord>& spans,
                  const std::string& name,
                  std::vector<double>* each = nullptr) {
  double total = 0.0;
  for (const auto& span : spans) {
    if (span.name != name) continue;
    total += span.seconds;
    if (each != nullptr) each->push_back(span.seconds * 1e3);
  }
  return total;
}

double histogram_sum(const std::string& series) {
  for (const auto& s : bgls::Session::metrics_snapshot()) {
    if (s.name == series) return s.sum;
  }
  return 0.0;
}

/// Checks every job against the reference; returns the failed count.
std::uint64_t check_jobs(const SamplingSpec& spec, std::uint64_t seed,
                         std::vector<JobOutcome>& jobs,
                         const std::string& data_dir) {
  std::vector<char> ok(jobs.size(), 0);
  if (!spec.noisy) {
    // One naive 2^20 state-vector pass per job, spread over a few threads.
    const std::size_t workers = std::min<std::size_t>(4, jobs.size());
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (std::size_t i = w; i < jobs.size(); i += workers) {
          if (jobs[i].errored) continue;
          const std::vector<double> p =
              ideal_probabilities(r20_circuit(seed, jobs[i].index));
          XebStat stat;
          stat.add(jobs[i].samples, p, p);
          ok[i] = stat.pass() && jobs[i].samples.size() == spec.reps;
          if (!ok[i]) {
            std::printf("check FAILED job %llu: %s\n",
                        static_cast<unsigned long long>(jobs[i].index),
                        stat.summary().c_str());
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  } else {
    std::vector<std::vector<double>> noisy(kNoisyCircuits);
    std::vector<std::vector<double>> ideal(kNoisyCircuits);
    for (int c = 0; c < kNoisyCircuits; ++c) {
      noisy[c] = load_noisy_reference(data_dir, c);
      ideal[c] = ideal_probabilities(noisy_circuit(c));
    }
    NoisyCheck pooled;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].errored) continue;
      const int c = noisy_index(seed, jobs[i].index);
      NoisyCheck check;
      check.add(jobs[i].samples, noisy[c], ideal[c]);
      pooled.add(check);
      ok[i] = check.pass() && jobs[i].samples.size() == spec.reps;
    }
    std::printf("check noisy-weighted: %s\n",
                pooled.by_noisy.summary().c_str());
    std::printf("check ideal-weighted: %s\n",
                pooled.by_ideal.summary().c_str());
    if (!pooled.pass()) {
      std::fill(ok.begin(), ok.end(), 0);
    }
  }
  std::uint64_t failed = 0;
  for (const char k : ok) failed += k ? 0 : 1;
  return failed;
}

void print_waterfall(const std::string& workload, const JobOutcome& job,
                     int threads) {
  const double wall = job.ms;
  const double sample = span_total(job.spans, "sample") * 1e3;
  const double optimize = span_total(job.spans, "optimize") * 1e3;
  const double evolve = span_total(job.spans, "evolve") * 1e3;
  const double shards = span_total(job.spans, "shard") * 1e3;
  std::printf("waterfall %s job %llu: wall %.3f ms\n", workload.c_str(),
              static_cast<unsigned long long>(job.index), wall);
  const auto row = [&](const char* layer, double ms, const char* note) {
    std::printf("  %-28s %10.3f ms %5.1f%%  %s\n", layer, ms,
                wall > 0 ? 100.0 * ms / wall : 0.0, note);
  };
  row("api (Session::run self)", wall - sample - optimize,
      "wall - sample - optimize spans");
  if (optimize > 0) row("core.optimize", optimize, "");
  double explained = wall - sample;
  if (evolve > 0) {
    row("engine.evolve", evolve, "shared-snapshot gate applies");
    explained += evolve;
  }
  if (shards > 0) {
    const double parallel = shards / threads;
    row(evolve > 0 ? "engine.resample" : "engine.shards", parallel,
        "sum of shard spans / threads");
    explained += parallel;
  }
  if (evolve == 0 && shards == 0) {
    row("core.sample", sample, "serial loop; no evolve/resample split");
    explained += sample;
  }
  row("other (unexplained)", wall - explained,
      "barriers, imbalance, unspanned work");
}

}  // namespace

Report run_sampling(const Options& options) {
  const SamplingSpec spec = spec_for(options.workload);
  bgls::Session session;
  double warmup_busy = 0.0;
  (void)run_phase(session, spec, kWarmupSeed, kWarmupJob, 0.0, false,
                  warmup_busy);
  announce_ready();
  Report report;
  if (options.setup_only) return report;

  const double phase_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  double busy = 0.0;
  std::vector<JobOutcome> jobs =
      run_phase(session, spec, options.seed, 0, phase_seconds, false, busy);
  const double untraced_jobs_per_s = static_cast<double>(jobs.size()) / busy;
  const double rss = peak_rss_mb();

  std::vector<JobOutcome> traced;
  double traced_busy = 0.0;
  double shard_seconds = 0.0;
  if (options.trace) {
    const double shard_before = histogram_sum("bgls_engine_shard_seconds");
    traced = run_phase(session, spec, options.seed, jobs.size(), phase_seconds,
                       true, traced_busy);
    shard_seconds = histogram_sum("bgls_engine_shard_seconds") - shard_before;
  }

  std::vector<JobOutcome> all = jobs;
  all.insert(all.end(), traced.begin(), traced.end());
  report.attempted = all.size();
  std::uint64_t errored = 0;
  for (const auto& job : all) errored += job.errored ? 1 : 0;
  const std::uint64_t failed =
      check_jobs(spec, options.seed, all, options.data_dir);
  report.failed = failed;
  report.correct = failed == 0;
  std::printf("%s: %llu jobs, %llu failed (%llu errored)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(all.size()),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(errored));

  if (!options.trace) {
    for (const auto& job : jobs) report.job_ms.push_back(job.ms);
    report.busy_s = busy;
    report.rss_mb = rss;
    report.reps = spec.reps;
    return report;
  }

  // --- Per-layer metrics from the traced phase ----------------------------
  const auto n = static_cast<std::uint64_t>(traced.size());
  const bool batched_engine = spec.threads > 1 && !spec.noisy;
  const bool engine = spec.threads > 1;
  double applies = 0, prob_evals = 0, dict_peak = 0, sample_ms = 0,
         evolve_span_ms = 0, evolve_stat_ms = 0, overhead_us = 0,
         resolve_us = 0, sample_wall_s = 0;
  std::vector<double> shard_ms, cost_ratio;
  std::map<bgls::BackendId, std::uint64_t> backends;
  for (const auto& job : traced) {
    applies += static_cast<double>(job.stats.state_applications);
    prob_evals += static_cast<double>(job.stats.probability_evaluations);
    dict_peak += static_cast<double>(job.stats.max_dictionary_size);
    sample_ms += job.stats.sample_ms;
    sample_wall_s += job.stats.sample_ms / 1e3;
    evolve_span_ms += span_total(job.spans, "evolve") * 1e3;
    evolve_stat_ms += job.stats.evolve_ms;
    overhead_us +=
        (job.ms - job.stats.sample_ms - job.stats.optimize_ms) * 1e3;
    resolve_us += job.resolve_us;
    span_total(job.spans, "shard", &shard_ms);
    if (job.predicted_seconds > 0) {
      cost_ratio.push_back(job.stats.sample_ms / 1e3 / job.predicted_seconds);
    }
    ++backends[job.backend];
  }
  const double jobs_n = static_cast<double>(std::max<std::uint64_t>(n, 1));
  const BenchCircuit first = job_circuit(spec, options.seed, traced[0].index);

  report.set("statevector.applies", applies / jobs_n, "count", n);
  report_kernel_layers(report, to_circuit(first), first.num_qubits);
  std::uint64_t channel_ops = 0;
  for (const auto& moment : first.moments) {
    for (const BenchOp& op : moment) {
      channel_ops += op.kind == OpKind::kDepolarize ? 1 : 0;
    }
  }
  report.set("channels.ops_per_traj", static_cast<double>(channel_ops),
             "count", 1);
  if (batched_engine) {
    report.set("engine.evolve_ms", evolve_span_ms / jobs_n, "ms", n);
    report.set("engine.resample_ms", (sample_ms - evolve_span_ms) / jobs_n,
               "ms", n);
  } else {
    const char* why = engine ? "trajectory path has no shared evolution"
                             : "serial path has no engine spans";
    report.absent("engine.evolve_ms", why);
    report.absent("engine.resample_ms", why);
  }
  report.set("engine.prob_evals", prob_evals / jobs_n, "count", n);
  report.set("engine.prob_evals_per_sample",
             prob_evals / jobs_n / static_cast<double>(spec.reps), "ratio", n);
  report.set("engine.dict_peak", dict_peak / jobs_n, "count", n);
  if (engine && !shard_ms.empty()) {
    const double p50 = quantile(shard_ms, 0.5);
    const double max = quantile(shard_ms, 1.0);
    double mean = 0;
    for (const double v : shard_ms) mean += v;
    mean /= static_cast<double>(shard_ms.size());
    report.set("engine.shard_ms_p50", p50, "ms", shard_ms.size());
    report.set("engine.shard_ms_max", max, "ms", shard_ms.size());
    report.set("engine.shard_imbalance", max / mean, "ratio", shard_ms.size());
    report.set("engine.pool_busy_ratio",
               shard_seconds / (spec.threads * sample_wall_s), "ratio", n);
  } else {
    for (const char* name : {"engine.shard_ms_p50", "engine.shard_ms_max",
                             "engine.shard_imbalance"}) {
      report.absent(name, "serial path runs no shards");
    }
    report.absent("engine.pool_busy_ratio", "serial path uses no pool");
  }
  report.set("core.sample_ms", sample_ms / jobs_n, "ms", n);
  if (evolve_stat_ms > 0) {
    report.set("core.evolve_ms", evolve_stat_ms / jobs_n, "ms", n);
  } else {
    report.absent("core.evolve_ms",
                  engine ? "trajectory path does not report evolve_ms"
                         : "serial path reports evolve_ms as 0");
  }
  report.set("api.session_overhead_us", overhead_us / jobs_n, "us", n);
  report.set("api.resolve_us", resolve_us / jobs_n, "us", n);
  for (const auto& [id, name] :
       {std::pair{bgls::BackendId::kStateVector, "statevector"},
        std::pair{bgls::BackendId::kStabilizer, "stabilizer"},
        std::pair{bgls::BackendId::kMps, "mps"}}) {
    report.set(std::string("api.backend_share.") + name,
               static_cast<double>(backends[id]) / jobs_n, "ratio", n);
  }
  report.set("api.cost_ratio_p50", quantile(cost_ratio, 0.5), "ratio",
             cost_ratio.size());
  report.absent("qasm.parse_us", "jobs arrive as circuits, not QASM");
  for (const char* name :
       {"scheduler.queue_wait_ms_p50", "scheduler.queue_wait_ms_p99",
        "scheduler.run_ms_p50", "scheduler.rejected", "journal.records",
        "journal.append_us", "cache.hits", "cache.misses", "cache.hit_ratio",
        "daemon.request_ms_p50", "client.rtt_us", "service.wire_ms_p50"}) {
    report.absent(name, "no service layer in this workload");
  }
  const double traced_jobs_per_s = static_cast<double>(n) / traced_busy;
  report.set("obs.trace_overhead_ratio",
             traced_jobs_per_s / untraced_jobs_per_s, "ratio", all.size());
  print_waterfall(options.workload, traced[0], spec.threads);
  return report;
}

}  // namespace perfbench
