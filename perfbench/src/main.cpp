/// \file main.cpp
/// The measuring program run.py launches, one process per part of a run:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--part <i>] [--setup-only] [--data-dir DIR] [--tmp-dir DIR]
///   perfbench --self-test [--data-dir DIR]
///   perfbench --regen-noisy [--data-dir DIR]
///
/// run.py splits one untraced run over several processes (parts); each
/// part draws its inputs from (seed, part). A part prints READY when
/// set-up ends, human-readable figures, and one JSON line last; it
/// exits 1 when a correctness check failed and 2 on an error. With
/// --setup-only it exits 0 right after READY.

#include <cstdio>
#include <iostream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "api/session.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

void announce_ready() { std::cout << "READY" << std::endl; }

namespace {

std::vector<std::uint64_t> uniform_samples(int qubits, std::size_t count,
                                           std::uint64_t seed) {
  SplitMix gen(seed);
  std::vector<std::uint64_t> out(count);
  for (auto& x : out) x = gen.below(std::uint64_t{1} << qubits);
  return out;
}

std::vector<std::uint64_t> library_samples(const BenchCircuit& circuit,
                                           std::uint64_t reps, int threads) {
  bgls::Session session;
  return session
      .run(bgls::RunRequest()
               .with_circuit(to_circuit(circuit))
               .with_repetitions(reps)
               .with_seed(99)
               .with_backend(bgls::BackendId::kStateVector)
               .with_threads(threads))
      .measurements.values("m");
}

/// The checks the workloads use, fed the library's samples (must pass)
/// and deliberately wrong samplers (must fail).
int run_self_test(const std::string& data_dir) {
  int wrong = 0;
  const auto expect = [&](const char* what, bool passed, bool should_pass,
                          const std::string& detail) {
    const bool as_expected = passed == should_pass;
    wrong += as_expected ? 0 : 1;
    std::printf("%-4s %-44s check %s: %s\n", as_expected ? "ok" : "BAD", what,
                passed ? "passes" : "fails", detail.c_str());
  };

  // r20 check (XEB against the naive state vector).
  const BenchCircuit r20 = r20_circuit(12345, 0);
  const std::vector<double> p = ideal_probabilities(r20);
  for (const int threads : {4, 1}) {
    XebStat stat;
    stat.add(library_samples(r20, 4096, threads), p, p);
    expect(threads == 4 ? "r20: library, 4 threads" : "r20: library, 1 thread",
           stat.pass(), true, stat.summary());
  }
  {
    XebStat stat;
    stat.add(uniform_samples(20, 4096, 5), p, p);
    expect("r20: uniform bitstrings", stat.pass(), false, stat.summary());
  }
  {
    // Drops the CX on qubits (9,10) of layer 6 (moment 11), mid-circuit
    // and mid-register, where both qubits are already entangled.
    const BenchCircuit dropped = drop_op(r20, 11, 4);
    XebStat stat;
    stat.add(library_samples(dropped, 4096, 4), p, p);
    expect("r20: library on a circuit with one CX dropped", stat.pass(),
           false, stat.summary());
  }

  // noisy_traj check (stored exact noisy distribution).
  const BenchCircuit noisy = noisy_circuit(0);
  const std::vector<double> q = load_noisy_reference(data_dir, 0);
  const std::vector<double> ideal = ideal_probabilities(noisy);
  const auto noisy_case = [&](const char* what,
                              const std::vector<std::uint64_t>& samples,
                              bool should_pass) {
    NoisyCheck check;
    check.add(samples, q, ideal);
    expect(what, check.pass(), should_pass,
           "noisy-weighted " + check.by_noisy.summary() +
               "; ideal-weighted " + check.by_ideal.summary());
  };
  noisy_case("noisy: library", library_samples(noisy, 1024, 4), true);
  noisy_case("noisy: uniform bitstrings", uniform_samples(12, 1024, 6), false);
  noisy_case("noisy: library with the channels removed",
             library_samples(without_channels(noisy), 1024, 4), false);

  std::printf("self-test: %s\n", wrong == 0 ? "PASS" : "FAIL");
  return wrong == 0 ? 0 : 1;
}

bool is_sampling(const std::string& workload) {
  return workload == "r20_batched" || workload == "r20_serial" ||
         workload == "noisy_traj";
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if defined(__GLIBC__)
  // peak_rss_mb is measured under a pinned mmap threshold, unlike
  // bgls_run and bgls_serve, which keep glibc's adaptive one. Under the
  // adaptive threshold, freed 16 MiB states stay resident in some
  // arenas and not in others, and r20_batched's peak RSS read 54 or
  // 70 MiB in a third of its processes each (median of three processes:
  // 70 MiB in 3 of 10 runs, quartile spread 29% of the median). A fixed
  // 4 MiB threshold maps every block of 4 MiB or more (a state of 18+
  // qubits) on allocation and returns it on free, so peak RSS is the
  // peak of what the library holds, the same in every process.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
#endif
  Options options;
  bool self_test = false, regen = false;
  std::uint64_t part = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--part") {
        part = std::stoull(value());
      } else if (arg == "--data-dir") {
        options.data_dir = value();
      } else if (arg == "--tmp-dir") {
        options.tmp_dir = value();
      } else if (arg == "--setup-only") {
        options.setup_only = true;
      } else if (arg == "--self-test") {
        self_test = true;
      } else if (arg == "--regen-noisy") {
        regen = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (self_test) return run_self_test(options.data_dir);
    if (regen) {
      write_noisy_references(options.data_dir);
      return 0;
    }
    if (options.seconds <= 0) throw std::invalid_argument("--seconds <= 0");
    options.seed = mix(options.seed, part, 0x7061);
    Report report;
    if (is_sampling(options.workload)) {
      report = run_sampling(options);
    } else if (options.workload == "service_mix") {
      report = run_service_mix(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
    if (options.setup_only) return 0;
    report.print(fingerprint_json());
    return report.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << std::endl;
    return 2;
  }
}
