#include "probes.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "channels/channels.h"
#include "circuits.h"
#include "obs/metrics.h"
#include "statevector/state.h"
#include "util/rng.h"

#if defined(BGLS_HAVE_OPENMP)
#include <omp.h>
#endif

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  metrics.push_back({name, value, unit, samples, ""});
}

void Report::absent(const std::string& name, const std::string& reason) {
  metrics.push_back({name, 0.0, "", 0, reason});
}

void Report::print(const std::string& fingerprint) const {
  for (const Metric& m : metrics) {
    if (!m.absent.empty()) {
      std::printf("  %-36s absent (%s)\n", m.name.c_str(), m.absent.c_str());
    } else {
      std::printf("  %-36s %14.6g %-8s n=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
  }
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  std::string absent_json;
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.absent.empty()) {
      absent_json += (absent_json.empty() ? "" : ",") + json_string(m.name) +
                     ":" + json_string(m.absent);
      continue;
    }
    json += (first ? "" : ",") + json_string(m.name) +
            ":{\"value\":" + json_number(m.value) +
            ",\"unit\":" + json_string(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) + "}";
    first = false;
  }
  json += "},\"absent\":{" + absent_json + "}";
  if (!job_ms.empty()) {
    json += ",\"series\":{\"job_ms\":[";
    for (std::size_t i = 0; i < job_ms.size(); ++i) {
      json += (i == 0 ? "" : ",") + json_number(job_ms[i]);
    }
    json += "],\"busy_s\":" + json_number(busy_s) +
            ",\"rss_mb\":" + json_number(rss_mb) +
            ",\"reps\":" + std::to_string(reps) + "}";
  }
  json += ",\"fingerprint\":" + fingerprint + "}";
  std::cout << json << std::endl;
}

namespace {

/// Last-level cache size in bytes (0 when unknown).
std::uint64_t llc_bytes() {
  for (int index = 4; index >= 0; --index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level"), size_file(dir + "/size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || level < 2) continue;
    std::uint64_t bytes = std::stoull(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    return bytes;
  }
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? static_cast<std::uint64_t>(bytes) : 0;
}

}  // namespace

std::string fingerprint_json() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model = "unknown", flags;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model" && line.rfind("model name", 0) == 0 &&
        model == "unknown") {
      model = value;
    }
    if (key == "flags" && flags.empty()) flags = value;
  }
  std::set<std::string> present;
  std::istringstream words(flags);
  for (std::string word; words >> word;) present.insert(word);
  std::string isa;
  for (const char* flag : {"sse4_2", "avx", "avx2", "fma", "avx512f",
                           "avx512dq", "avx512bw", "avx512vl"}) {
    if (present.count(flag) == 0) continue;
    isa += (isa.empty() ? "" : " ") + std::string(flag);
  }
#if defined(BGLS_HAVE_OPENMP)
  const bool openmp = true;
#else
  const bool openmp = false;
#endif
#if defined(BGLS_HAVE_AVX2)
  const bool avx2 = true;
#else
  const bool avx2 = false;
#endif
  std::ostringstream out;
  out << "{\"cpu_model\":" << json_string(model)
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"isa\":" << json_string(isa) << ",\"llc_bytes\":" << llc_bytes()
      << ",\"build\":{\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"openmp\":" << (openmp ? "true" : "false")
      << ",\"avx2\":" << (avx2 ? "true" : "false") << ",\"telemetry\":"
      << (bgls::obs::kTelemetryCompiled ? "true" : "false")
      << ",\"compiler\":" << json_string(__VERSION__) << "}}";
  return out.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

/// Single-threaded STREAM triad a = b + s*c over three arrays of
/// `bytes_per_array` each; best of several passes, GB/s counting
/// 3 * bytes_per_array per pass.
double triad_gbps(std::size_t bytes_per_array) {
  const std::size_t count = bytes_per_array / sizeof(double);
  std::vector<double> a(count, 0.0), b(count, 1.0), c(count, 2.0);
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const double scalar = 0.5 + pass;
    const auto start = Clock::now();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < count; ++i) pa[i] = pb[i] + scalar * pc[i];
    const double seconds = seconds_since(start);
    best = std::max(best, 3.0 * static_cast<double>(bytes_per_array) /
                              seconds / 1e9);
  }
  volatile double sink = a[count / 2];
  (void)sink;
  return best;
}

/// Timings of a circuit's operations replayed one call at a time
/// through apply_op on a fresh StateVectorState, on one thread.
struct ReplayTimes {
  double apply_1q_ns_per_amp = 0.0;
  double apply_2q_ns_per_amp = 0.0;
  double apply_diag_ns_per_amp = 0.0;
  std::uint64_t applies_1q = 0, applies_2q = 0, applies_diag = 0;
  double total_apply_seconds = 0.0;
  std::uint64_t total_applies = 0;
  /// Per compute_probability call on the final state.
  double prob_ns = 0.0;
  std::uint64_t probes = 0;
  /// Per depolarize channel apply at the same state size.
  double channel_apply_us = 0.0;
  std::uint64_t channel_applies = 0;
};

ReplayTimes replay(const bgls::Circuit& circuit, int num_qubits) {
#if defined(BGLS_HAVE_OPENMP)
  const int previous_threads = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  const double amps = std::ldexp(1.0, num_qubits);
  bgls::StateVectorState state(num_qubits);
  bgls::Rng rng(1);
  std::vector<double> t1, t2, td, tc;
  ReplayTimes out;
  for (const bgls::Operation& op : circuit.all_operations()) {
    if (op.gate().is_measurement()) continue;
    const auto start = Clock::now();
    bgls::apply_op(op, state, rng);
    const double seconds = seconds_since(start);
    if (op.gate().is_channel()) {
      tc.push_back(seconds);
      continue;
    }
    out.total_apply_seconds += seconds;
    ++out.total_applies;
    if (op.gate().is_diagonal()) {
      td.push_back(seconds);
    } else if (op.gate().arity() == 2) {
      t2.push_back(seconds);
    } else {
      t1.push_back(seconds);
    }
  }
  SplitMix gen(7);
  constexpr int kProbes = 4096;
  double checksum = 0.0;
  const auto prob_start = Clock::now();
  for (int i = 0; i < kProbes; ++i) {
    checksum += bgls::compute_probability(
        state, gen.below(std::uint64_t{1} << num_qubits));
  }
  out.prob_ns = seconds_since(prob_start) / kProbes * 1e9;
  out.probes = kProbes;
  if (tc.empty()) {
    // A unitary workload: time the channel layer at this state size on
    // depolarize(0.01), one op per qubit, several rounds.
    const bgls::Gate channel =
        bgls::Gate::Channel(bgls::depolarize(kNoisyDepolarize));
    for (int round = 0; round < 4; ++round) {
      for (int q = 0; q < num_qubits; ++q) {
        const bgls::Operation op(channel, {q});
        const auto start = Clock::now();
        bgls::apply_op(op, state, rng);
        tc.push_back(seconds_since(start));
      }
    }
  }
#if defined(BGLS_HAVE_OPENMP)
  omp_set_num_threads(previous_threads);
#endif
  out.applies_1q = t1.size();
  out.applies_2q = t2.size();
  out.applies_diag = td.size();
  out.apply_1q_ns_per_amp = quantile(t1, 0.5) * 1e9 / amps;
  out.apply_2q_ns_per_amp = quantile(t2, 0.5) * 1e9 / amps;
  out.apply_diag_ns_per_amp = quantile(td, 0.5) * 1e9 / amps;
  out.channel_apply_us = quantile(tc, 0.5) * 1e6;
  out.channel_applies = tc.size();
  if (checksum < 0.0) std::cout << "";  // keeps the probe loop live
  return out;
}

}  // namespace

void report_kernel_layers(Report& report, const bgls::Circuit& circuit,
                          int num_qubits) {
  const ReplayTimes replayed = replay(circuit, num_qubits);
  const double state_bytes = 16.0 * std::ldexp(1.0, num_qubits);
  const double triad_state = triad_gbps(static_cast<std::size_t>(state_bytes));
  // Three arrays of 4/3 LLC each: 4x the LLC in all, which keeps a
  // traced run's memory near half a GiB.
  const std::uint64_t llc = llc_bytes();
  const std::size_t big_array = static_cast<std::size_t>(
      std::max<std::uint64_t>(llc, 32ULL << 20) * 4 / 3);
  const double triad_big = triad_gbps(big_array);
  std::printf("kernel replay at %d qubits; triad sizes: state %.0f B per "
              "array (x3); 4xLLC %zu B per array (x3 = 4 x %llu B LLC)\n",
              num_qubits, state_bytes, big_array,
              static_cast<unsigned long long>(llc));

  report.set("statevector.apply_1q_ns_per_amp", replayed.apply_1q_ns_per_amp,
             "ns", replayed.applies_1q);
  report.set("statevector.apply_2q_ns_per_amp", replayed.apply_2q_ns_per_amp,
             "ns", replayed.applies_2q);
  report.set("statevector.apply_diag_ns_per_amp",
             replayed.apply_diag_ns_per_amp, "ns", replayed.applies_diag);
  report.set("statevector.prob_ns", replayed.prob_ns, "ns", replayed.probes);
  report.set("statevector.bytes_per_apply", 2 * state_bytes, "B-computed", 1);
  report.set("statevector.roofline_ratio",
             2 * state_bytes * static_cast<double>(replayed.total_applies) /
                 replayed.total_apply_seconds / 1e9 / triad_state,
             "ratio", replayed.total_applies);
  report.set("mem.triad_gbps_state", triad_state, "GB/s", 5);
  report.set("mem.triad_gbps_4xllc", triad_big, "GB/s", 5);
  report.set("channels.apply_us", replayed.channel_apply_us, "us",
             replayed.channel_applies);
}

}  // namespace perfbench
