/// \file state.h
/// Matrix-product-state (tensor network) simulation state — the
/// counterpart of cirq.contrib.quimb.MPSState used in Secs. 4.3–4.4 of
/// the paper, built on the library's own labeled tensors and SVD.
///
/// Topology follows the quimb-backed implementation rather than a strict
/// chain: each qubit owns one tensor with a physical axis "p<q>"; a
/// two-qubit gate contracts the pair, applies the 4x4 unitary, and
/// splits back with an SVD, creating (or replacing) a direct bond
/// between exactly those two tensors. Entanglement shows up as bond
/// dimension χ; MPSOptions caps χ and drops relatively negligible
/// singular values, accumulating the truncation error estimate the same
/// way the quimb backend reports estimated fidelity.
///
/// Bitstring amplitudes — the capability bgls adds on top of the
/// existing MPSState (paper Sec. 4.3.2) — are computed by `isel`-ing
/// every physical axis to the bit value and contracting the much smaller
/// remaining bond network (the paper's `mps_bitstring_probability`
/// listing), at O(n·χ³) cost.

#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "linalg/tensor.h"
#include "util/bits.h"
#include "util/rng.h"

namespace bgls {

/// Truncation knobs (the paper's custom MPSOptions subclass restricting
/// the maximum degree of connectedness χ).
struct MPSOptions {
  /// Maximum bond dimension kept by gate splits; 0 = unlimited (exact).
  std::size_t max_bond_dim = 0;
  /// Relative singular-value cutoff: values below cutoff * σ_max are
  /// dropped.
  double cutoff = 1e-12;
};

/// Tensor-network pure state with one tensor per qubit.
class MPSState {
 public:
  explicit MPSState(int num_qubits, MPSOptions options = {},
                    Bitstring initial = 0);

  [[nodiscard]] int num_qubits() const { return n_; }
  [[nodiscard]] const MPSOptions& options() const { return options_; }

  /// Applies a 1- or 2-qubit unitary operation. Throws for measurements,
  /// channels (sampler-handled), and arity ≥ 3 gates (decompose first).
  void apply(const Operation& op);

  /// Applies an arbitrary (possibly non-unitary) 2^k x 2^k matrix to the
  /// listed qubits (k ≤ 2) without renormalizing — Kraus branches.
  void apply_matrix(const Matrix& m, std::span<const Qubit> qubits);

  /// ⟨b|ψ⟩ via physical-index selection and reduced-network contraction.
  [[nodiscard]] Complex amplitude(Bitstring b) const;

  /// |⟨b|ψ⟩|².
  [[nodiscard]] double probability(Bitstring b) const;

  /// √⟨ψ|ψ⟩ by contracting the doubled network.
  [[nodiscard]] double norm() const;

  /// Reduced density matrix of the listed qubits, 2^k x 2^k in gate-local
  /// index order (qubits[0] most significant), from one contraction of
  /// the doubled network. Channels with non-unitary Kraus operators weigh
  /// their branches against it.
  [[nodiscard]] Matrix reduced_density_matrix(
      std::span<const Qubit> qubits) const;

  /// Scales the state to unit norm.
  void renormalize();

  /// Projects the listed qubits onto the bits of `bits` and
  /// renormalizes (throws on zero-probability outcomes).
  void project(std::span<const Qubit> qubits, Bitstring bits);

  /// Full statevector by complete contraction (n ≤ 20; exponential).
  [[nodiscard]] std::vector<Complex> to_statevector() const;

  /// Largest bond dimension in the network (χ).
  [[nodiscard]] std::size_t max_bond_dimension() const;

  /// Total elements stored across all tensors (memory proxy).
  [[nodiscard]] std::size_t tensor_size_total() const;

  /// Product of 1 - (relative truncated weight) over all truncating
  /// splits — an estimated fidelity, 1.0 when no truncation occurred.
  [[nodiscard]] double estimated_fidelity() const {
    return estimated_fidelity_;
  }

  /// The tensor holding qubit q (inspection/testing).
  [[nodiscard]] const Tensor& tensor(int q) const;

 private:
  [[nodiscard]] std::string physical_label(int q) const;
  void apply_single_qubit(const Matrix& m, Qubit q);
  void apply_two_qubit(const Matrix& m, Qubit a, Qubit b);

  int n_ = 0;
  MPSOptions options_;
  std::vector<Tensor> tensors_;
  int bond_counter_ = 0;
  double estimated_fidelity_ = 1.0;
};

/// BGLS `apply_op` for MPS states; channels sample one Kraus branch
/// (apply_channel_trajectory).
void apply_op(const Operation& op, MPSState& state, Rng& rng);

/// BGLS `compute_probability` for MPS states — the paper's
/// mps_bitstring_probability.
[[nodiscard]] double compute_probability(const MPSState& state, Bitstring b);

}  // namespace bgls
