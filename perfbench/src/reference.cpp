#include "reference.h"

#include <array>
#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "probes.h"

namespace perfbench {

namespace {

using C = std::complex<double>;
using Mat2 = std::array<C, 4>;  // row-major [[a, b], [c, d]]

Mat2 matrix_1q(const BenchOp& op) {
  const double r = 1.0 / std::sqrt(2.0);
  switch (op.kind) {
    case OpKind::kH: return {r, r, r, -r};
    case OpKind::kT:
      return {1.0, 0.0, 0.0, std::polar(1.0, std::numbers::pi / 4)};
    case OpKind::kS: return {1.0, 0.0, 0.0, C(0.0, 1.0)};
    case OpKind::kRx: {
      const double c = std::cos(op.param / 2), s = std::sin(op.param / 2);
      return {c, C(0.0, -s), C(0.0, -s), c};
    }
    default: throw std::logic_error("matrix_1q: not a 1q gate");
  }
}

/// Applies a 1q matrix to bit `q` of a vector of 2^bits entries.
void apply_1q(std::vector<C>& v, int q, const Mat2& m) {
  const std::size_t stride = std::size_t{1} << q;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i & stride) continue;
    const C a = v[i], b = v[i | stride];
    v[i] = m[0] * a + m[1] * b;
    v[i | stride] = m[2] * a + m[3] * b;
  }
}

/// CX with control bit `c`, target bit `t`.
void apply_cx(std::vector<C>& v, int c, int t) {
  const std::size_t cm = std::size_t{1} << c, tm = std::size_t{1} << t;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if ((i & cm) && !(i & tm)) std::swap(v[i], v[i | tm]);
  }
}

Mat2 conjugate(const Mat2& m) {
  return {std::conj(m[0]), std::conj(m[1]), std::conj(m[2]), std::conj(m[3])};
}

/// Depolarizing channel on qubit q of an n-qubit density matrix stored
/// as a 2n-bit vector (row bits 0..n-1, column bits n..2n-1):
/// rho -> (1 - 4p/3) rho + (4p/3) Tr_q(rho) (x) I/2.
void apply_depolarize(std::vector<C>& rho, int n, int q, double p) {
  const std::size_t rm = std::size_t{1} << q;
  const std::size_t cm = std::size_t{1} << (q + n);
  const double keep = 1.0 - 4.0 * p / 3.0;
  for (std::size_t i = 0; i < rho.size(); ++i) {
    if ((i & rm) || (i & cm)) continue;
    const C d0 = rho[i], d1 = rho[i | rm | cm];
    const C mixed = 0.5 * (1.0 - keep) * (d0 + d1);
    rho[i] = keep * d0 + mixed;
    rho[i | rm | cm] = keep * d1 + mixed;
    rho[i | rm] *= keep;
    rho[i | cm] *= keep;
  }
}

std::string reference_path(const std::string& data_dir, int index) {
  return data_dir + "/noisy12_" + std::to_string(index) + ".bin";
}

constexpr char kMagic[8] = {'P', 'B', 'N', 'O', 'I', 'S', 'Y', '1'};

}  // namespace

std::vector<double> ideal_probabilities(const BenchCircuit& circuit) {
  std::vector<C> psi(std::size_t{1} << circuit.num_qubits, 0.0);
  psi[0] = 1.0;
  for (const auto& moment : circuit.moments) {
    for (const BenchOp& op : moment) {
      if (op.kind == OpKind::kDepolarize) continue;
      if (op.kind == OpKind::kCx) {
        apply_cx(psi, op.q0, op.q1);
      } else {
        apply_1q(psi, op.q0, matrix_1q(op));
      }
    }
  }
  std::vector<double> p(psi.size());
  for (std::size_t i = 0; i < psi.size(); ++i) p[i] = std::norm(psi[i]);
  return p;
}

std::vector<double> noisy_probabilities(const BenchCircuit& circuit) {
  const int n = circuit.num_qubits;
  std::vector<C> rho(std::size_t{1} << (2 * n), 0.0);
  rho[0] = 1.0;
  for (const auto& moment : circuit.moments) {
    for (const BenchOp& op : moment) {
      switch (op.kind) {
        case OpKind::kDepolarize:
          apply_depolarize(rho, n, op.q0, op.param);
          break;
        case OpKind::kCx:
          apply_cx(rho, op.q0, op.q1);
          apply_cx(rho, op.q0 + n, op.q1 + n);
          break;
        default: {
          const Mat2 m = matrix_1q(op);
          apply_1q(rho, op.q0, m);
          apply_1q(rho, op.q0 + n, conjugate(m));
        }
      }
    }
  }
  const std::size_t dim = std::size_t{1} << n;
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < dim; ++i) p[i] = rho[i | (i << n)].real();
  return p;
}

void XebStat::add(std::span<const std::uint64_t> samples,
                  const std::vector<double>& truth,
                  const std::vector<double>& weight) {
  const double dim = static_cast<double>(weight.size());
  double mean = 0.0, second = 0.0;
  for (std::size_t x = 0; x < weight.size(); ++x) {
    mean += truth[x] * weight[x];
    second += truth[x] * weight[x] * weight[x];
  }
  mean *= dim;
  second *= dim * dim;
  const double n = static_cast<double>(samples.size());
  for (const std::uint64_t x : samples) {
    sum += x < weight.size() ? dim * weight[x] : 0.0;
  }
  expected += n * mean;
  variance += n * (second - mean * mean);
  count += samples.size();
}

void XebStat::add(const XebStat& other) {
  sum += other.sum;
  expected += other.expected;
  variance += other.variance;
  count += other.count;
}

double XebStat::z() const {
  if (count == 0) return 0.0;
  return (sum - expected) / std::sqrt(std::max(variance, 1e-300));
}

bool XebStat::pass() const { return count > 0 && std::abs(z()) <= kMaxZ; }

std::string XebStat::summary() const {
  char line[160];
  const double n = count == 0 ? 1.0 : static_cast<double>(count);
  std::snprintf(line, sizeof(line),
                "mean %.4f expected %.4f se %.4f z %+.2f over %llu samples",
                sum / n, expected / n, std::sqrt(variance) / n, z(),
                static_cast<unsigned long long>(count));
  return line;
}

void NoisyCheck::add(std::span<const std::uint64_t> samples,
                     const std::vector<double>& noisy,
                     const std::vector<double>& ideal) {
  by_noisy.add(samples, noisy, noisy);
  by_ideal.add(samples, noisy, ideal);
}

void NoisyCheck::add(const NoisyCheck& other) {
  by_noisy.add(other.by_noisy);
  by_ideal.add(other.by_ideal);
}

bool NoisyCheck::pass() const { return by_noisy.pass() && by_ideal.pass(); }

std::vector<double> load_noisy_reference(const std::string& data_dir,
                                         int index) {
  const BenchCircuit circuit = noisy_circuit(index);
  const std::string path = reference_path(data_dir, index);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("missing noisy reference " + path);
  char magic[8];
  std::uint64_t hash = 0, dim = 0;
  in.read(magic, 8);
  in.read(reinterpret_cast<char*>(&hash), sizeof(hash));
  in.read(reinterpret_cast<char*>(&dim), sizeof(dim));
  const std::uint64_t want = std::uint64_t{1} << circuit.num_qubits;
  if (!in || std::string(magic, 8) != std::string(kMagic, 8) ||
      hash != fnv1a(describe(circuit)) || dim != want) {
    throw std::runtime_error(path + " does not match noisy circuit " +
                             std::to_string(index) +
                             "; regenerate with run.py --regen-noisy");
  }
  std::vector<double> p(dim);
  in.read(reinterpret_cast<char*>(p.data()),
          static_cast<std::streamsize>(dim * sizeof(double)));
  if (!in) throw std::runtime_error("truncated noisy reference " + path);
  return p;
}

void write_noisy_references(const std::string& data_dir) {
  for (int index = 0; index < kNoisyCircuits; ++index) {
    const BenchCircuit circuit = noisy_circuit(index);
    const std::vector<double> p = noisy_probabilities(circuit);
    double total = 0.0;
    for (const double x : p) total += x;
    const std::string path = reference_path(data_dir, index);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::uint64_t hash = fnv1a(describe(circuit));
    const std::uint64_t dim = p.size();
    out.write(kMagic, 8);
    out.write(reinterpret_cast<const char*>(&hash), sizeof(hash));
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(p.data()),
              static_cast<std::streamsize>(dim * sizeof(double)));
    if (!out) throw std::runtime_error("cannot write " + path);
    std::cout << "wrote " << path << " (trace " << total << ")" << std::endl;
  }
}

}  // namespace perfbench
