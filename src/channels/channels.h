/// \file channels.h
/// Quantum noise channels in Kraus-operator form.
///
/// BGLS supports non-unitary operations through quantum trajectories
/// (Sec. 3.2.1 of the paper): every backend, the density matrix
/// included, samples one Kraus branch per channel op and trajectory
/// (inside the Simulator jointly with the candidate bitstring; see
/// core/joint_channel.h). The density-matrix backend additionally offers
/// the full deterministic Kraus sum (apply_channel_sum) as the exact
/// reference. This module owns the channel definitions, their CPTP
/// validation and the once-per-channel classification of each Kraus
/// operator that lets a drawn branch skip work; the circuit layer wraps
/// channels as gates.

#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/error.h"
#include "util/rng.h"

namespace bgls {

/// How a drawn Kraus operator K is applied; decided once per channel.
enum class KrausKind {
  kIdentity,       ///< K = √p·I: the branch leaves the state unchanged.
  kScaledUnitary,  ///< K†K = p·I: apply U = K/√p, no renormalization.
  kGeneral,        ///< anything else: apply K, then renormalize.
};

/// One Kraus operator's classification.
struct KrausBranch {
  KrausKind kind = KrausKind::kGeneral;
  /// p with K†K = p·I (kIdentity, kScaledUnitary) — the branch's
  /// state-independent probability; 0 for kGeneral.
  double probability = 0.0;
  /// U = K/√p (kScaledUnitary only; empty otherwise).
  Matrix unitary;
  /// K†K: the branch weight is Tr(K†K ρ_S) on the support's reduced
  /// density matrix ρ_S.
  Matrix gram;
};

/// A completely-positive trace-preserving map given by Kraus operators
/// {K_i} with sum_i K_i† K_i = I.
class KrausChannel {
 public:
  /// Builds a channel from explicit Kraus operators; validates that all
  /// operators share the same square shape (2^arity) and satisfy the CPTP
  /// completeness relation within `tol`.
  KrausChannel(std::string name, std::vector<Matrix> operators,
               double tol = 1e-9);

  /// Display name, e.g. "depolarize(0.1)".
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Number of qubits the channel acts on.
  [[nodiscard]] int arity() const { return arity_; }

  /// The Kraus operators.
  [[nodiscard]] const std::vector<Matrix>& operators() const {
    return operators_;
  }

  /// Per-operator classification, index-aligned with operators().
  [[nodiscard]] const std::vector<KrausBranch>& branches() const {
    return branches_;
  }

  /// True when every operator is a scaled unitary (depolarize, bit and
  /// phase flip): branch i is then drawn with probability
  /// branches()[i].probability whatever the state.
  [[nodiscard]] bool is_unitary_mixture() const { return unitary_mixture_; }

  /// The branch probabilities of a unitary mixture (all zero otherwise).
  [[nodiscard]] std::span<const double> mixture_probabilities() const {
    return mixture_probabilities_;
  }

  /// Born weight ‖K_i ψ‖² = Tr(K_i†K_i ρ_S) of every branch, given the
  /// 2^k x 2^k reduced density matrix ρ_S of the support (gate-local
  /// index order). Rounding below zero is clamped to 0.
  [[nodiscard]] std::vector<double> branch_weights(
      const Matrix& reduced_density) const;

 private:
  std::string name_;
  int arity_ = 1;
  std::vector<Matrix> operators_;
  std::vector<KrausBranch> branches_;
  std::vector<double> mixture_probabilities_;
  bool unitary_mixture_ = false;
};

/// Applies the drawn Kraus branch `index` to `state` the cheapest exact
/// way its class allows: nothing for K ∝ I, U = K/√p without
/// renormalizing for a scaled unitary, K followed by renormalize()
/// otherwise. Each class yields K ψ / ‖K ψ‖ for a normalized ψ (the
/// identity class requires a positive real scale, so skipping it drops
/// no phase).
template <typename State>
void apply_kraus_branch(State& state, const KrausChannel& channel,
                        std::size_t index, std::span<const int> qubits) {
  const KrausBranch& branch = channel.branches()[index];
  switch (branch.kind) {
    case KrausKind::kIdentity:
      return;
    case KrausKind::kScaledUnitary:
      state.apply_matrix(branch.unitary, qubits);
      return;
    case KrausKind::kGeneral:
      state.apply_matrix(channel.operators()[index], qubits);
      state.renormalize();
      return;
  }
}

/// One quantum-trajectory step outside the sampler (the backends' free
/// apply_op): draws branch i with its Born weight and applies it. A
/// unitary mixture draws from its fixed probabilities with no pass over
/// the state; any other channel reads the support's reduced density
/// matrix once (`state.reduced_density_matrix(qubits)`). Never copies
/// the state. Consumes exactly one categorical draw.
template <typename State>
void apply_channel_trajectory(State& state, const KrausChannel& channel,
                              std::span<const int> qubits, Rng& rng) {
  for (const int q : qubits) {
    BGLS_REQUIRE(q >= 0 && q < state.num_qubits(), "qubit ", q,
                 " out of range");
  }
  const std::size_t chosen =
      channel.is_unitary_mixture()
          ? rng.categorical(channel.mixture_probabilities())
          : rng.categorical(channel.branch_weights(
                state.reduced_density_matrix(qubits)));
  apply_kraus_branch(state, channel, chosen, qubits);
}

/// X is applied with probability p: K0 = sqrt(1-p) I, K1 = sqrt(p) X.
[[nodiscard]] KrausChannel bit_flip(double p);

/// Z is applied with probability p.
[[nodiscard]] KrausChannel phase_flip(double p);

/// Symmetric single-qubit depolarizing channel: each of X, Y, Z with
/// probability p/3.
[[nodiscard]] KrausChannel depolarize(double p);

/// Amplitude damping with decay probability gamma (T1-style decay).
[[nodiscard]] KrausChannel amplitude_damp(double gamma);

/// Phase damping with dephasing probability gamma (T2-style dephasing).
[[nodiscard]] KrausChannel phase_damp(double gamma);

}  // namespace bgls
