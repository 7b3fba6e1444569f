/// \file service_mix.cpp
/// service_mix: a closed loop of two client connections (one thread
/// each) against an in-process ServiceDaemon on a unix socket. Each
/// client submits QASM and waits for the report before submitting
/// again. The daemon runs two job runners, a result cache and an
/// fsync'd write-ahead journal (the durable `bgls_serve --journal`
/// configuration). A fixed-length job stream is generated in set-up.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "api/selector.h"
#include "api/session.h"
#include "qasm/qasm.h"
#include "reference.h"
#include "service/client.h"
#include "service/cost.h"
#include "service/daemon.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/report.h"
#include "service/result_cache.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace svc = bgls::service;

constexpr std::uint64_t kReps = 1024;
constexpr int kClients = 2;
constexpr std::size_t kRetained = 128;
/// Jobs generated in set-up, whatever the run length, so set-up time
/// does not grow with it (generating them takes about 2 ms per hundred).
/// A run that gets through the stream replays it from the start; by
/// then a replayed job's result has left the 128-entry cache, so it
/// runs again like a new job.
constexpr std::uint64_t kStreamJobs = 512;
/// Most jobs one traced phase submits; the daemon retains them all.
constexpr std::uint64_t kTracedJobs = 8192;

struct Submission {
  std::uint64_t k = 0;  // submission number; the job is jobs[k % size]
  std::uint64_t id = 0;
  double ms = 0.0;
  std::uint64_t report_hash = 0;
  std::size_t report_bytes = 0;
  bool errored = false;
  // Traced phase only (status and trace ops after the phase):
  double queue_ms = 0.0, run_ms = 0.0, sample_ms = 0.0, evolve_ms = 0.0;
  bool from_cache = false;
  std::string backend;
  std::vector<bgls::obs::SpanRecord> spans;
};

svc::SubmitArgs submit_args(const ServiceJob& job) {
  svc::SubmitArgs args;
  args.qasm = job.qasm;
  args.backend = "auto";
  args.repetitions = kReps;
  args.seed = job.seed;
  return args;
}

double field(const bgls::JsonValue& value, const std::string& key) {
  const bgls::JsonValue* found = value.find(key);
  return found != nullptr ? found->as_double() : 0.0;
}

Submission submit_one(svc::ServiceClient& client, const ServiceJob& job,
                      std::uint64_t k) {
  Submission out;
  out.k = k;
  const svc::SubmitArgs args = submit_args(job);
  const auto start = Clock::now();
  try {
    out.id = client.submit(args);
    const std::string report = client.wait_report(out.id);
    out.ms = seconds_since(start) * 1e3;
    out.report_hash = fnv1a(report);
    out.report_bytes = report.size();
  } catch (const std::exception& error) {
    out.ms = seconds_since(start) * 1e3;
    out.errored = true;
    std::cerr << "service job " << k << " failed: " << error.what() << '\n';
  }
  return out;
}

/// Reads a finished job's status and trace from the daemon.
void look_up(svc::ServiceClient& client, Submission& out) {
  const bgls::JsonValue status = client.status(out.id);
  out.queue_ms = field(status, "queue_ms");
  out.run_ms = field(status, "run_ms");
  out.sample_ms = field(status, "sample_ms");
  out.evolve_ms = field(status, "evolve_ms");
  out.backend = status.string_or("backend", "");
  const bgls::JsonValue* cached = status.find("from_cache");
  out.from_cache = cached != nullptr && cached->as_bool();
  out.spans = svc::parse_spans(client.trace(out.id));
}

/// Runs the closed loop for `seconds` or `max_jobs` submissions,
/// whichever ends first; returns the submissions and sets the phase's
/// wall time.
std::vector<Submission> run_phase(
    std::vector<std::unique_ptr<svc::ServiceClient>>& clients,
    const std::vector<ServiceJob>& jobs, double seconds,
    std::uint64_t max_jobs, double& wall) {
  std::atomic<std::uint64_t> next{0};
  std::mutex mutex;
  std::vector<Submission> done;
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      std::vector<Submission> mine;
      while (seconds_since(start) < seconds) {
        const std::uint64_t k = next++;
        if (k >= max_jobs) break;
        mine.push_back(submit_one(*c, jobs[k % jobs.size()], k));
      }
      const std::lock_guard<std::mutex> lock(mutex);
      done.insert(done.end(), mine.begin(), mine.end());
    });
  }
  for (auto& thread : threads) thread.join();
  wall = seconds_since(start);
  if (next.load() >= max_jobs) {
    std::printf("note: the phase stopped at %llu jobs, before %.1f s\n",
                static_cast<unsigned long long>(max_jobs), seconds);
  }
  std::sort(done.begin(), done.end(),
            [](const Submission& a, const Submission& b) { return a.k < b.k; });
  return done;
}

struct DirectRun {
  std::uint64_t report_hash = 0;
  std::size_t report_bytes = 0;
  bgls::RunStats stats;
  bgls::BackendId backend = bgls::BackendId::kStateVector;
  double wall_ms = 0.0;
  double resolve_us = 0.0;
  double predicted_seconds = 0.0;
};

/// The same request straight through Session::run, as the daemon would
/// build it from the submit line (auto backend, one thread, 16 streams).
DirectRun run_direct(bgls::Session& session, const ServiceJob& job) {
  bgls::RunRequest request = bgls::RunRequest()
                                 .with_circuit(bgls::parse_qasm(job.qasm))
                                 .with_repetitions(kReps)
                                 .with_seed(job.seed)
                                 .with_threads(1)
                                 .with_rng_streams(16);
  const int width = request.circuit.num_qubits();
  const svc::RunReportContext context = svc::report_context(request, width);
  DirectRun out;
  const auto resolve_start = Clock::now();
  const auto resolution = session.resolve_backend(request.circuit, request);
  out.resolve_us = seconds_since(resolve_start) * 1e6;
  out.predicted_seconds = svc::CostModel().predict_seconds(
      bgls::profile_circuit(request.circuit), kReps, resolution.backend->id());
  const auto start = Clock::now();
  const bgls::RunResult result = session.run(std::move(request));
  out.wall_ms = seconds_since(start) * 1e3;
  const std::string report = svc::run_report_string(context, result);
  out.report_hash = fnv1a(report);
  out.report_bytes = report.size();
  out.stats = result.stats;
  out.backend = result.backend_id;
  return out;
}

struct SeriesDelta {
  std::map<std::string, bgls::obs::SeriesSnapshot> before;
  void mark() {
    before.clear();
    for (auto& s : bgls::Session::metrics_snapshot()) before[s.name] = s;
  }
  /// Counter (or histogram count) increase since mark().
  [[nodiscard]] double count(const std::string& name) const {
    for (const auto& s : bgls::Session::metrics_snapshot()) {
      if (s.name != name) continue;
      const auto it = before.find(name);
      return static_cast<double>(s.count) -
             (it == before.end() ? 0.0 : static_cast<double>(it->second.count));
    }
    return 0.0;
  }
  /// Histogram quantile since mark(), interpolated inside its bucket.
  [[nodiscard]] double histogram_quantile(const std::string& name,
                                          double q) const {
    for (const auto& s : bgls::Session::metrics_snapshot()) {
      if (s.name != name) continue;
      std::vector<double> counts(s.bucket_counts.size());
      double total = 0.0;
      const auto it = before.find(name);
      for (std::size_t i = 0; i < counts.size(); ++i) {
        counts[i] = static_cast<double>(s.bucket_counts[i]);
        if (it != before.end() && i < it->second.bucket_counts.size()) {
          counts[i] -= static_cast<double>(it->second.bucket_counts[i]);
        }
        total += counts[i];
      }
      double seen = 0.0;
      for (std::size_t i = 0; i < counts.size() && i < s.bounds.size(); ++i) {
        if (seen + counts[i] >= q * total && counts[i] > 0) {
          const double lo = i == 0 ? 0.0 : s.bounds[i - 1];
          return lo + (s.bounds[i] - lo) * (q * total - seen) / counts[i];
        }
        seen += counts[i];
      }
      return s.bounds.empty() ? 0.0 : s.bounds.back();
    }
    return 0.0;
  }
};

void print_waterfall(const Submission& job) {
  double sample = 0, optimize = 0, queue = 0, run = 0;
  for (const auto& span : job.spans) {
    if (span.name == "sample") sample += span.seconds * 1e3;
    if (span.name == "optimize") optimize += span.seconds * 1e3;
    if (span.name == "queue") queue += span.seconds * 1e3;
    if (span.name == "run") run += span.seconds * 1e3;
  }
  std::printf("waterfall service_mix submission %llu (%s): latency %.3f ms\n",
              static_cast<unsigned long long>(job.k), job.backend.c_str(),
              job.ms);
  const auto row = [&](const char* layer, double ms, const char* note) {
    std::printf("  %-28s %10.3f ms %5.1f%%  %s\n", layer, ms,
                job.ms > 0 ? 100.0 * ms / job.ms : 0.0, note);
  };
  row("scheduler.queue", queue, "queue span");
  row("scheduler.run (self)", run - sample - optimize,
      "run span - sample - optimize");
  if (optimize > 0) row("core.optimize", optimize, "");
  row("core.sample", sample, "sample span");
  row("other (unexplained)", job.ms - queue - run,
      "socket, daemon, protocol, journal fsync");
}

}  // namespace

Report run_service_mix(const Options& options) {
  ::mkdir(options.tmp_dir.c_str(), 0700);
  const std::string socket_path = options.tmp_dir + "/daemon.sock";
  const std::string journal_path = options.tmp_dir + "/journal.ndjson";
  std::remove(socket_path.c_str());
  std::remove(journal_path.c_str());

  std::vector<ServiceJob> jobs;
  jobs.reserve(kStreamJobs);
  for (std::uint64_t k = 0; k < kStreamJobs; ++k) {
    jobs.push_back(service_job(options.seed, k, jobs));
  }
  // Stream index of the request a submission carried; a repeat maps to
  // the job it repeats.
  const auto origin = [&](const Submission& sub) {
    const std::uint64_t k = sub.k % kStreamJobs;
    const std::int64_t repeat = jobs[k].repeat_of;
    return repeat >= 0 ? static_cast<std::uint64_t>(repeat) : k;
  };

  svc::DaemonOptions daemon_options;
  daemon_options.endpoint = svc::Endpoint::unix_socket(socket_path);
  daemon_options.scheduler.max_concurrent_jobs = 2;
  // Retention and cache sizes (bgls_serve --retain/--cache) small enough
  // to fill within the first second, so peak memory does not grow with
  // the number of jobs a run gets through. A traced run retains every
  // job of its phase instead, to read each one's status and trace after
  // the phase.
  daemon_options.scheduler.max_retained_jobs =
      options.trace ? kTracedJobs + kClients : kRetained;
  svc::ResultCacheOptions cache_options;
  cache_options.max_entries = kRetained;
  daemon_options.scheduler.result_cache =
      std::make_shared<svc::ResultCache>(cache_options);
  daemon_options.journal_path = journal_path;
  svc::ServiceDaemon daemon(daemon_options);
  daemon.start();
  std::vector<std::unique_ptr<svc::ServiceClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<svc::ServiceClient>(daemon.endpoint()));
  }
  // Warm-up: one small job per client, the same whatever the seed.
  for (int c = 0; c < kClients; ++c) {
    SplitMix gen(mix(0x3a53, static_cast<std::uint64_t>(c)));
    ServiceJob warmup;
    warmup.qasm = to_qasm(brickwork(6, 12, GateSet::kUniversal, 0.0, gen));
    warmup.seed = static_cast<std::uint64_t>(c);
    warmup.num_qubits = 6;
    (void)submit_one(*clients[static_cast<std::size_t>(c)], warmup, 0);
  }
  announce_ready();
  Report report;
  if (options.setup_only) return report;

  // One phase: untraced runs give the end-to-end figures; a traced run
  // reads every job's status and trace after its wall clock stops, and
  // the service-side series as deltas over the phase.
  const std::uint64_t rejected_before =
      clients[0]->stats().u64_or("rejected", 0);
  SeriesDelta delta;
  delta.mark();
  double wall = 0.0;
  std::vector<Submission> done =
      run_phase(clients, jobs, options.seconds,
                options.trace ? kTracedJobs
                                : std::numeric_limits<std::uint64_t>::max(),
                wall);
  const double rss = peak_rss_mb();
  double request_p50_ms = 0.0, cache_hits = 0.0, cache_misses = 0.0,
         journal_records = 0.0, request_count = 0.0, client_rtt_us = 0.0;
  std::uint64_t rejected = 0;
  if (options.trace) {
    request_p50_ms =
        delta.histogram_quantile("bgls_daemon_request_seconds", 0.5) * 1e3;
    request_count = delta.count("bgls_daemon_request_seconds");
    cache_hits = delta.count("bgls_cache_hits_total");
    cache_misses = delta.count("bgls_cache_misses_total");
    journal_records = delta.count("bgls_journal_records_total");
    rejected = clients[0]->stats().u64_or("rejected", 0) - rejected_before;
    for (Submission& sub : done) {
      if (!sub.errored) look_up(*clients[0], sub);
    }
    std::vector<double> rtt;
    for (int i = 0; i < 200; ++i) {
      const auto start = Clock::now();
      (void)clients[0]->status(done.back().id);
      rtt.push_back(seconds_since(start) * 1e6);
    }
    client_rtt_us = quantile(rtt, 0.5);
  }
  clients.clear();
  daemon.stop();

  // --- Correctness: every report against a direct Session::run --------------
  // Each distinct request runs once directly (repeats share it), on two
  // threads; then every received report is compared with its request's.
  std::map<std::uint64_t, DirectRun> direct;  // by origin stream index
  for (const Submission& sub : done) direct[origin(sub)];
  {
    bgls::Session session;
    std::vector<std::pair<const std::uint64_t, DirectRun>*> slots;
    for (auto& entry : direct) slots.push_back(&entry);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kClients; ++w) {
      threads.emplace_back([&, w] {
        for (std::size_t i = w; i < slots.size(); i += kClients) {
          slots[i]->second = run_direct(session, jobs[slots[i]->first]);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  std::uint64_t failed = 0;
  for (const Submission& sub : done) {
    const DirectRun& expected = direct.at(origin(sub));
    if (sub.errored || sub.report_hash != expected.report_hash ||
        sub.report_bytes != expected.report_bytes) {
      ++failed;
      if (!sub.errored) {
        std::printf("check FAILED service submission %llu: report differs "
                    "from Session::run\n",
                    static_cast<unsigned long long>(sub.k));
      }
    }
  }
  report.attempted = done.size();
  report.failed = failed;
  report.correct = failed == 0;
  std::printf("service_mix: %zu jobs, %llu failed, %zu distinct requests\n",
              done.size(), static_cast<unsigned long long>(failed),
              direct.size());

  if (!options.trace) {
    for (const auto& sub : done) report.job_ms.push_back(sub.ms);
    report.busy_s = wall;
    report.rss_mb = rss;
    report.reps = kReps;
    return report;
  }

  // --- Per-layer metrics from the traced phase ----------------------------
  const auto n = static_cast<std::uint64_t>(done.size());
  const double jobs_n = static_cast<double>(std::max<std::uint64_t>(n, 1));
  std::vector<double> queue_ms, run_ms, wire_ms, parse_us, cost_ratio;
  double sample_ms = 0, evolve_ms = 0, applies = 0, prob_evals = 0,
         dict_peak = 0, overhead_us = 0, resolve_us = 0, report_bytes = 0;
  std::uint64_t ran = 0;
  std::map<bgls::BackendId, std::uint64_t> backends;
  const Submission* widest = nullptr;
  for (const Submission& sub : done) {
    const ServiceJob& job = jobs[sub.k % kStreamJobs];
    const DirectRun& d = direct.at(origin(sub));
    applies += static_cast<double>(d.stats.state_applications);
    prob_evals += static_cast<double>(d.stats.probability_evaluations);
    dict_peak += static_cast<double>(d.stats.max_dictionary_size);
    overhead_us += (d.wall_ms - d.stats.sample_ms - d.stats.optimize_ms) * 1e3;
    resolve_us += d.resolve_us;
    report_bytes += static_cast<double>(sub.report_bytes);
    ++backends[d.backend];
    const auto start = Clock::now();
    (void)bgls::parse_qasm(job.qasm);
    parse_us.push_back(seconds_since(start) * 1e6);
    if (sub.errored || sub.from_cache) continue;
    ++ran;
    queue_ms.push_back(sub.queue_ms);
    run_ms.push_back(sub.run_ms);
    wire_ms.push_back(sub.ms - sub.queue_ms - sub.run_ms);
    sample_ms += sub.sample_ms;
    evolve_ms += sub.evolve_ms;
    if (d.predicted_seconds > 0) {
      cost_ratio.push_back(sub.run_ms / 1e3 / d.predicted_seconds);
    }
    if (widest == nullptr ||
        job.num_qubits > jobs[widest->k % kStreamJobs].num_qubits) {
      widest = &sub;
    }
  }
  if (widest == nullptr) widest = &done.front();
  const ServiceJob& wide_job = jobs[widest->k % kStreamJobs];

  // Journal appends at this workload's record sizes (a submit line and
  // a terminal report), on the same filesystem as the daemon's journal.
  std::vector<double> append_us;
  {
    const std::string submit_record(
        svc::submit_request_line(submit_args(wide_job)).size() + 40, 'x');
    const std::string terminal_record(
        static_cast<std::size_t>(report_bytes / jobs_n) + 80, 'y');
    const std::string path = options.tmp_dir + "/append_probe.ndjson";
    svc::Journal journal;
    journal.open(path);
    for (int i = 0; i < 64; ++i) {
      const std::string body = "{\"type\":\"probe\",\"pad\":\"" +
                               (i % 2 == 0 ? submit_record : terminal_record) +
                               "\"}";
      const auto start = Clock::now();
      journal.append(body);
      append_us.push_back(seconds_since(start) * 1e6);
    }
    journal.close();
    std::remove(path.c_str());
  }

  report.set("statevector.applies", applies / jobs_n, "count", n);
  // The kernel layers at the widest job the daemon ran.
  report_kernel_layers(report, bgls::parse_qasm(wide_job.qasm),
                       wide_job.num_qubits);
  report.set("channels.ops_per_traj", 0.0, "count", 1);
  const char* serial = "jobs run at threads = 1, on the serial path";
  report.absent("engine.evolve_ms", serial);
  report.absent("engine.resample_ms", serial);
  report.set("engine.prob_evals", prob_evals / jobs_n, "count", n);
  report.set("engine.prob_evals_per_sample",
             prob_evals / jobs_n / static_cast<double>(kReps), "ratio", n);
  report.set("engine.dict_peak", dict_peak / jobs_n, "count", n);
  report.absent("engine.shard_ms_p50", serial);
  report.absent("engine.shard_ms_max", serial);
  report.absent("engine.shard_imbalance", serial);
  report.absent("engine.pool_busy_ratio", serial);
  const double ran_n = static_cast<double>(std::max<std::uint64_t>(ran, 1));
  report.set("core.sample_ms", sample_ms / ran_n, "ms", ran);
  if (evolve_ms > 0) {
    report.set("core.evolve_ms", evolve_ms / ran_n, "ms", ran);
  } else {
    report.absent("core.evolve_ms", "serial path reports evolve_ms as 0");
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
  report.set("qasm.parse_us", quantile(parse_us, 0.5), "us", parse_us.size());
  report.set("scheduler.queue_wait_ms_p50", quantile(queue_ms, 0.5), "ms",
             queue_ms.size());
  report.set("scheduler.queue_wait_ms_p99", quantile(queue_ms, 0.99), "ms",
             queue_ms.size());
  report.set("scheduler.run_ms_p50", quantile(run_ms, 0.5), "ms",
             run_ms.size());
  report.set("scheduler.rejected", static_cast<double>(rejected), "count", n);
  report.set("journal.records", journal_records / jobs_n, "count", n);
  report.set("journal.append_us", quantile(append_us, 0.5), "us",
             append_us.size());
  report.set("cache.hits", cache_hits, "count", n);
  report.set("cache.misses", cache_misses, "count", n);
  report.set("cache.hit_ratio",
             cache_hits / std::max(1.0, cache_hits + cache_misses), "ratio", n);
  report.set("daemon.request_ms_p50", request_p50_ms, "ms",
             static_cast<std::uint64_t>(request_count));
  report.set("client.rtt_us", client_rtt_us, "us", 200);
  report.set("service.wire_ms_p50", quantile(wire_ms, 0.5), "ms",
             wire_ms.size());
  report.absent("obs.trace_overhead_ratio",
                "the daemon traces every job whether or not a client reads "
                "the trace, so there is no untraced service run to compare");
  for (const Submission& sub : done) {
    if (!sub.from_cache && !sub.errored) {
      print_waterfall(sub);
      break;
    }
  }
  return report;
}

}  // namespace perfbench
