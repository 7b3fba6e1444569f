#include "densitymatrix/state.h"

#include <cmath>

#include "util/error.h"

namespace bgls {
namespace {

/// Builds the full 2^n x 2^n embedding of a gate-local matrix. Density
/// matrices are quadratically bigger than statevectors, so the simple
/// "embed and multiply rows/columns" strategy is acceptable for the
/// register sizes this backend is used at (reference simulations).
void embed_indices(std::span<const Qubit> qubits, std::size_t local,
                   std::size_t& mask_out, std::size_t& value_out) {
  std::size_t mask = 0;
  std::size_t value = 0;
  const std::size_t k = qubits.size();
  for (std::size_t j = 0; j < k; ++j) {
    mask |= std::size_t{1} << qubits[j];
    if ((local >> (k - 1 - j)) & 1u) value |= std::size_t{1} << qubits[j];
  }
  mask_out = mask;
  value_out = value;
}

}  // namespace

DensityMatrixState::DensityMatrixState(int num_qubits, Bitstring initial)
    : num_qubits_(num_qubits) {
  BGLS_REQUIRE(num_qubits >= 1 && num_qubits < 13,
               "density matrix supports 1..12 qubits, got ", num_qubits);
  dim_ = std::size_t{1} << num_qubits;
  rho_.assign(dim_ * dim_, Complex{0.0, 0.0});
  BGLS_REQUIRE(initial < dim_, "initial bitstring out of range");
  rho_[initial * dim_ + initial] = Complex{1.0, 0.0};
}

double DensityMatrixState::probability(Bitstring b) const {
  BGLS_REQUIRE(b < dim_, "bitstring out of range");
  return rho_[b * dim_ + b].real();
}

void DensityMatrixState::apply(const Operation& op) {
  const Gate& gate = op.gate();
  BGLS_REQUIRE(gate.is_unitary(), "cannot apply non-unitary '", gate.name(),
               "' directly");
  // The memoized gate matrix (Gate::compiled_unitary) skips rebuilding
  // the unitary per apply; this backend has no kernel dispatch, so only
  // the matrix half of the cache is consumed.
  apply_matrix(gate.compiled_unitary()->matrix, op.qubits());
}

void DensityMatrixState::apply_matrix(const Matrix& m,
                                      std::span<const Qubit> qubits) {
  const std::size_t k = qubits.size();
  const std::size_t block = std::size_t{1} << k;
  BGLS_REQUIRE(m.rows() == block && m.cols() == block,
               "matrix dimension does not match qubit count");
  for (const Qubit q : qubits) {
    BGLS_REQUIRE(q >= 0 && q < num_qubits_, "qubit ", q, " out of range");
  }
  std::size_t support_mask = 0, ignored = 0;
  embed_indices(qubits, block - 1, support_mask, ignored);

  // Precompute local index embeddings.
  std::vector<std::size_t> local_bits(block);
  for (std::size_t local = 0; local < block; ++local) {
    std::size_t mask = 0;
    embed_indices(qubits, local, mask, local_bits[local]);
  }

  // Left multiply: rows mix within each column. rho <- M rho.
  std::vector<Complex> scratch(block);
  for (std::size_t col = 0; col < dim_; ++col) {
    for (std::size_t base = 0; base < dim_; ++base) {
      if ((base & support_mask) != 0) continue;
      for (std::size_t l = 0; l < block; ++l) {
        scratch[l] = rho_[(base | local_bits[l]) * dim_ + col];
      }
      for (std::size_t r = 0; r < block; ++r) {
        Complex acc{0.0, 0.0};
        for (std::size_t c = 0; c < block; ++c) acc += m(r, c) * scratch[c];
        rho_[(base | local_bits[r]) * dim_ + col] = acc;
      }
    }
  }
  // Right multiply: rho <- rho M†.
  for (std::size_t row = 0; row < dim_; ++row) {
    Complex* row_data = &rho_[row * dim_];
    for (std::size_t base = 0; base < dim_; ++base) {
      if ((base & support_mask) != 0) continue;
      for (std::size_t l = 0; l < block; ++l) {
        scratch[l] = row_data[base | local_bits[l]];
      }
      for (std::size_t c = 0; c < block; ++c) {
        Complex acc{0.0, 0.0};
        for (std::size_t l = 0; l < block; ++l) {
          acc += scratch[l] * std::conj(m(c, l));
        }
        row_data[base | local_bits[c]] = acc;
      }
    }
  }
}

void DensityMatrixState::apply_channel_sum(const KrausChannel& channel,
                                           std::span<const Qubit> qubits) {
  BGLS_REQUIRE(static_cast<std::size_t>(channel.arity()) == qubits.size(),
               "channel arity mismatch");
  std::vector<Complex> accumulated(dim_ * dim_, Complex{0.0, 0.0});
  const std::vector<Complex> original = rho_;
  for (const auto& k : channel.operators()) {
    rho_ = original;
    apply_matrix(k, qubits);
    for (std::size_t i = 0; i < rho_.size(); ++i) accumulated[i] += rho_[i];
  }
  rho_ = std::move(accumulated);
}

void DensityMatrixState::project(std::span<const Qubit> qubits,
                                 Bitstring bits) {
  std::size_t mask = 0;
  std::size_t want = 0;
  for (const Qubit q : qubits) {
    BGLS_REQUIRE(q >= 0 && q < num_qubits_, "qubit ", q, " out of range");
    mask |= std::size_t{1} << q;
    if (get_bit(bits, q)) want |= std::size_t{1} << q;
  }
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      if ((r & mask) != want || (c & mask) != want) {
        rho_[r * dim_ + c] = Complex{0.0, 0.0};
      }
    }
  }
  renormalize();
}

Matrix DensityMatrixState::reduced_density_matrix(
    std::span<const Qubit> qubits) const {
  const std::size_t block = std::size_t{1} << qubits.size();
  for (const Qubit q : qubits) {
    BGLS_REQUIRE(q >= 0 && q < num_qubits_, "qubit ", q, " out of range");
  }
  std::size_t mask = 0, ignored = 0;
  embed_indices(qubits, block - 1, mask, ignored);
  std::vector<std::size_t> offsets(block);
  for (std::size_t local = 0; local < block; ++local) {
    embed_indices(qubits, local, ignored, offsets[local]);
  }
  Matrix reduced(block, block);
  // Every index with zeros on the support: ((base | mask) + 1) carries
  // past the support bits.
  for (std::size_t base = 0; base < dim_; base = ((base | mask) + 1) & ~mask) {
    for (std::size_t l = 0; l < block; ++l) {
      const Complex* row = &rho_[(base | offsets[l]) * dim_ + base];
      for (std::size_t m = 0; m < block; ++m) reduced(l, m) += row[offsets[m]];
    }
  }
  return reduced;
}

double DensityMatrixState::trace() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) acc += rho_[i * dim_ + i].real();
  return acc;
}

void DensityMatrixState::renormalize() {
  const double tr = trace();
  BGLS_REQUIRE(tr > 0.0, "cannot renormalize zero-trace density matrix");
  const double inv = 1.0 / tr;
  for (auto& v : rho_) v *= inv;
}

double DensityMatrixState::purity() const {
  // tr(ρ²) = Σ_rc ρ_rc ρ_cr = Σ_rc |ρ_rc|² for Hermitian ρ.
  double acc = 0.0;
  for (const auto& v : rho_) acc += std::norm(v);
  return acc;
}

std::vector<double> DensityMatrixState::probabilities() const {
  std::vector<double> probs(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    probs[i] = std::max(0.0, rho_[i * dim_ + i].real());
  }
  return probs;
}

Bitstring DensityMatrixState::sample(Rng& rng) const {
  const auto probs = probabilities();
  return rng.categorical(probs);
}

void apply_op(const Operation& op, DensityMatrixState& state, Rng& rng) {
  const Gate& gate = op.gate();
  if (gate.is_channel()) {
    apply_channel_trajectory(state, gate.channel(), op.qubits(), rng);
    return;
  }
  state.apply(op);
}

double compute_probability(const DensityMatrixState& state, Bitstring b) {
  return state.probability(b);
}

void evolve_exact(const Circuit& circuit, DensityMatrixState& state) {
  for (const auto& moment : circuit.moments()) {
    for (const auto& op : moment.operations()) {
      if (op.gate().is_measurement()) continue;
      if (op.gate().is_channel()) {
        state.apply_channel_sum(op.gate().channel(), op.qubits());
      } else {
        state.apply(op);
      }
    }
  }
}

}  // namespace bgls
