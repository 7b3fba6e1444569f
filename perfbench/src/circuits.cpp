#include "circuits.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <set>
#include <sstream>
#include <stdexcept>

#include "channels/channels.h"
#include "circuit/operation.h"

namespace perfbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix::below(std::uint64_t n) { return next() % n; }

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  SplitMix gen(a ^ (b * 0xd1b54a32d192ed03ULL) ^ (c * 0xabc98388fb8fac03ULL));
  gen.next();
  return gen.next();
}

BenchCircuit brickwork(int n, int layers, GateSet set, double depolarize_p,
                       SplitMix& gen) {
  BenchCircuit circuit;
  circuit.num_qubits = n;
  const auto add_noise = [&](const std::vector<BenchOp>& moment) {
    if (depolarize_p <= 0.0) return;
    std::set<int> touched;
    for (const BenchOp& op : moment) {
      touched.insert(op.q0);
      if (op.q1 >= 0) touched.insert(op.q1);
    }
    std::vector<BenchOp> noise;
    for (const int q : touched) {
      noise.push_back({OpKind::kDepolarize, q, -1, depolarize_p});
    }
    circuit.moments.push_back(std::move(noise));
  };
  for (int layer = 0; layer < layers; ++layer) {
    std::vector<BenchOp> singles;
    for (int q = 0; q < n; ++q) {
      BenchOp op{OpKind::kH, q, -1, 0.0};
      if (set == GateSet::kClifford) {
        op.kind = gen.below(2) == 0 ? OpKind::kH : OpKind::kS;
      } else {
        switch (gen.below(4)) {
          case 0: op.kind = OpKind::kH; break;
          case 1: op.kind = OpKind::kT; break;
          case 2: op.kind = OpKind::kS; break;
          default:
            op.kind = OpKind::kRx;
            op.param = 2.0 * std::numbers::pi * gen.uniform();
            break;
        }
      }
      singles.push_back(op);
    }
    circuit.moments.push_back(singles);
    add_noise(singles);
    std::vector<BenchOp> pairs;
    for (int q = layer % 2; q + 1 < n; q += 2) {
      pairs.push_back({OpKind::kCx, q, q + 1, 0.0});
    }
    if (!pairs.empty()) {
      circuit.moments.push_back(pairs);
      add_noise(pairs);
    }
  }
  return circuit;
}

BenchCircuit drop_op(const BenchCircuit& circuit, std::size_t moment,
                     std::size_t index) {
  BenchCircuit out = circuit;
  auto& ops = out.moments.at(moment);
  ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(index));
  return out;
}

BenchCircuit without_channels(const BenchCircuit& circuit) {
  BenchCircuit out;
  out.num_qubits = circuit.num_qubits;
  for (const auto& moment : circuit.moments) {
    std::vector<BenchOp> kept;
    for (const BenchOp& op : moment) {
      if (op.kind != OpKind::kDepolarize) kept.push_back(op);
    }
    if (!kept.empty()) out.moments.push_back(std::move(kept));
  }
  return out;
}

bgls::Circuit to_circuit(const BenchCircuit& circuit) {
  bgls::Circuit out;
  for (const auto& moment : circuit.moments) {
    bgls::Moment converted;
    for (const BenchOp& op : moment) {
      switch (op.kind) {
        case OpKind::kH: converted.add(bgls::h(op.q0)); break;
        case OpKind::kT: converted.add(bgls::t(op.q0)); break;
        case OpKind::kS: converted.add(bgls::s(op.q0)); break;
        case OpKind::kRx: converted.add(bgls::rx(op.param, op.q0)); break;
        case OpKind::kCx: converted.add(bgls::cnot(op.q0, op.q1)); break;
        case OpKind::kDepolarize:
          converted.add(bgls::Operation(
              bgls::Gate::Channel(bgls::depolarize(op.param)), {op.q0}));
          break;
      }
    }
    out.append_moment(std::move(converted));
  }
  std::vector<bgls::Qubit> all;
  for (int q = 0; q < circuit.num_qubits; ++q) all.push_back(q);
  out.append(bgls::measure(all, "m"));
  return out;
}

std::string to_qasm(const BenchCircuit& circuit) {
  std::string text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  text += "qreg q[" + std::to_string(circuit.num_qubits) + "];\n";
  text += "creg c[" + std::to_string(circuit.num_qubits) + "];\n";
  char angle[40];
  for (const auto& moment : circuit.moments) {
    for (const BenchOp& op : moment) {
      const std::string q0 = "q[" + std::to_string(op.q0) + "]";
      switch (op.kind) {
        case OpKind::kH: text += "h " + q0 + ";\n"; break;
        case OpKind::kT: text += "t " + q0 + ";\n"; break;
        case OpKind::kS: text += "s " + q0 + ";\n"; break;
        case OpKind::kRx:
          std::snprintf(angle, sizeof(angle), "%.17g", op.param);
          text += std::string("rx(") + angle + ") " + q0 + ";\n";
          break;
        case OpKind::kCx:
          text += "cx " + q0 + ",q[" + std::to_string(op.q1) + "];\n";
          break;
        case OpKind::kDepolarize:
          throw std::invalid_argument("to_qasm: channels have no QASM form");
      }
    }
  }
  text += "measure q -> c;\n";
  return text;
}

std::string describe(const BenchCircuit& circuit) {
  std::ostringstream out;
  out.precision(17);
  out << "n=" << circuit.num_qubits << '\n';
  for (const auto& moment : circuit.moments) {
    for (const BenchOp& op : moment) {
      out << static_cast<int>(op.kind) << ' ' << op.q0 << ' ' << op.q1 << ' '
          << op.param << ';';
    }
    out << '\n';
  }
  return out.str();
}

BenchCircuit r20_circuit(std::uint64_t seed, std::uint64_t job) {
  SplitMix gen(mix(seed, job, 20));
  return brickwork(20, 12, GateSet::kUniversal, 0.0, gen);
}

BenchCircuit noisy_circuit(int index) {
  SplitMix gen(mix(0x6e6f69737954ULL, static_cast<std::uint64_t>(index)));
  return brickwork(kNoisyQubits, 12, GateSet::kUniversal, kNoisyDepolarize,
                   gen);
}

ServiceJob service_job(std::uint64_t seed, std::uint64_t k,
                       const std::vector<ServiceJob>& jobs) {
  SplitMix gen(mix(seed, k, 0x5e));
  if (k >= 8 && gen.uniform() < 0.25) {
    const std::uint64_t earlier =
        k - 8 - gen.below(std::min<std::uint64_t>(k - 7, 57));
    ServiceJob job = jobs.at(earlier);
    job.repeat_of = static_cast<std::int64_t>(earlier);
    return job;
  }
  ServiceJob job;
  job.seed = gen.next() >> 1;
  BenchCircuit circuit;
  if (gen.uniform() < 0.9) {
    const int n = 4 + static_cast<int>(gen.below(5));
    const GateSet set =
        gen.below(3) == 0 ? GateSet::kClifford : GateSet::kUniversal;
    circuit = brickwork(n, 12, set, 0.0, gen);
  } else {
    const int n = 14 + static_cast<int>(gen.below(3));
    circuit = brickwork(n, 12, GateSet::kUniversal, 0.0, gen);
  }
  job.num_qubits = circuit.num_qubits;
  job.qasm = to_qasm(circuit);
  return job;
}

}  // namespace perfbench
