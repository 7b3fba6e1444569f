/// \file joint_channel.h
/// The Simulator's joint (Kraus branch × candidate) weights for a
/// channel op, computed without copying the state.
///
/// Sampling the branch i and the new bitstring c together is BGLS on
/// the channel's unitary dilation with the environment bit discarded.
/// Its weight is the candidate's probability after branch i,
///
///   pure states:     w(i, c) = |⟨c|K_i ψ⟩|² = |Σ_l K_i[c, l] ψ[l]|²,
///   density matrix:  w(i, c) = Σ_{l,m} K_i[c, l] ρ[l, m] conj(K_i[c, m]),
///
/// where l, m run over the 2^k candidates (K_i acts on the support
/// only, so every other bit of c is b's). One read of the candidates'
/// amplitudes (or of their 2^k x 2^k block of ρ) serves every branch
/// — following Bravyi–Gosset–Liu, a k-qubit op needs only the 2^k
/// candidate amplitudes, and the same holds for each Kraus operator.
///
/// Index conventions: candidate j varies support[i] by bit i of j
/// (expand_candidates, LSB-first), while a Kraus matrix's gate-local
/// index puts support[0] at the most significant bit. The two orders
/// are bit reversals of each other.

#pragma once

#include <algorithm>
#include <array>
#include <complex>
#include <concepts>
#include <span>

#include "channels/channels.h"
#include "circuit/operation.h"
#include "util/bits.h"
#include "util/error.h"

namespace bgls {

/// States the Simulator branches channels on jointly: they apply a raw
/// matrix, renormalize, and expose candidate amplitudes (pure states)
/// or density-matrix entries.
template <typename S>
concept JointChannelState =
    requires(S& s, const S& cs, const Matrix& m, std::span<const Qubit> qs) {
      s.apply_matrix(m, qs);
      s.renormalize();
      { cs.num_qubits() } -> std::convertible_to<int>;
    } &&
    (requires(const S& s, Bitstring b) {
      { s.amplitude(b) } -> std::convertible_to<Complex>;
    } || requires(const S& s, Bitstring b) {
      { s.entry(b, b) } -> std::convertible_to<Complex>;
    });

/// Fills `weights` (size = operators × candidates, branch-major: entry
/// i * candidates.count + j) with the joint weight of Kraus branch i
/// and candidate j. Reads the state only through amplitude()/entry();
/// never copies or mutates it.
template <JointChannelState S>
void joint_channel_weights(const S& state, const KrausChannel& channel,
                           std::span<const Qubit> support,
                           const CandidateList& candidates,
                           std::span<double> weights) {
  const std::size_t k = support.size();
  const auto nc = static_cast<std::size_t>(candidates.count);
  const auto& kraus = channel.operators();
  BGLS_REQUIRE(nc == (std::size_t{1} << k) &&
                   weights.size() == kraus.size() * nc,
               "joint channel weights: shape mismatch");
  for (const Qubit q : support) {
    BGLS_REQUIRE(q >= 0 && q < state.num_qubits(), "qubit ", q,
                 " out of range");
  }
  // local[j]: the gate-local index of candidate j (bit reversal).
  std::array<std::size_t, (1u << kMaxGateArity)> local{};
  for (std::size_t j = 0; j < nc; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      if ((j >> i) & 1u) local[j] |= std::size_t{1} << (k - 1 - i);
    }
  }
  if constexpr (requires(const S& s, Bitstring b) { s.amplitude(b); }) {
    std::array<Complex, (1u << kMaxGateArity)> psi{};
    for (std::size_t j = 0; j < nc; ++j) {
      psi[local[j]] = state.amplitude(candidates.values[j]);
    }
    for (std::size_t i = 0; i < kraus.size(); ++i) {
      const Matrix& m = kraus[i];
      for (std::size_t j = 0; j < nc; ++j) {
        Complex acc{0.0, 0.0};
        for (std::size_t l = 0; l < nc; ++l) acc += m(local[j], l) * psi[l];
        weights[i * nc + j] = std::norm(acc);
      }
    }
  } else {
    constexpr std::size_t kBlock = 1u << kMaxGateArity;
    std::array<Complex, kBlock * kBlock> rho{};
    for (std::size_t r = 0; r < nc; ++r) {
      for (std::size_t c = 0; c < nc; ++c) {
        rho[local[r] * nc + local[c]] =
            state.entry(candidates.values[r], candidates.values[c]);
      }
    }
    for (std::size_t i = 0; i < kraus.size(); ++i) {
      const Matrix& m = kraus[i];
      for (std::size_t j = 0; j < nc; ++j) {
        const std::size_t row = local[j];
        double acc = 0.0;
        for (std::size_t l = 0; l < nc; ++l) {
          Complex inner{0.0, 0.0};
          for (std::size_t c = 0; c < nc; ++c) {
            inner += rho[l * nc + c] * std::conj(m(row, c));
          }
          acc += (m(row, l) * inner).real();
        }
        // K ρ K† has a non-negative diagonal; clamp rounding below 0.
        weights[i * nc + j] = std::max(0.0, acc);
      }
    }
  }
}

}  // namespace bgls
