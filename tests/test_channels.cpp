// Tests for Kraus channels and CPTP validation.

#include "channels/channels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/joint_channel.h"
#include "core/simulator.h"
#include "densitymatrix/state.h"
#include "mps/state.h"
#include "statevector/state.h"
#include "util/error.h"
#include "util/stats.h"

namespace bgls {
namespace {

void expect_cptp(const KrausChannel& ch) {
  const std::size_t dim = ch.operators().front().rows();
  Matrix acc(dim, dim);
  for (const auto& k : ch.operators()) acc = acc + k.adjoint() * k;
  EXPECT_TRUE(acc.approx_equal(Matrix::identity(dim), 1e-9)) << ch.name();
}

TEST(Channels, StandardChannelsAreCptp) {
  expect_cptp(bit_flip(0.3));
  expect_cptp(phase_flip(0.1));
  expect_cptp(depolarize(0.25));
  expect_cptp(amplitude_damp(0.4));
  expect_cptp(phase_damp(0.7));
}

TEST(Channels, EdgeProbabilitiesAreCptp) {
  expect_cptp(bit_flip(0.0));
  expect_cptp(bit_flip(1.0));
  expect_cptp(depolarize(1.0));
}

TEST(Channels, RejectsOutOfRangeProbability) {
  EXPECT_THROW(bit_flip(-0.1), ValueError);
  EXPECT_THROW(depolarize(1.5), ValueError);
  EXPECT_THROW(amplitude_damp(2.0), ValueError);
}

TEST(Channels, RejectsNonTracePreservingSet) {
  Matrix half(2, 2, {0.5, 0, 0, 0.5});
  EXPECT_THROW(KrausChannel("bad", {half}), ValueError);
}

TEST(Channels, RejectsEmptyOperatorList) {
  EXPECT_THROW(KrausChannel("empty", {}), ValueError);
}

TEST(Channels, AritySingleQubit) {
  EXPECT_EQ(bit_flip(0.2).arity(), 1);
}

TEST(Channels, TwoQubitChannelArity) {
  // A trivial 2-qubit identity channel.
  KrausChannel ch("id2", {Matrix::identity(4)});
  EXPECT_EQ(ch.arity(), 2);
}

TEST(Channels, NameIncludesParameter) {
  EXPECT_EQ(depolarize(0.5).name(), "depolarize(0.5)");
}

TEST(Channels, BitFlipOperatorsAreScaledIdentityAndX) {
  const auto ch = bit_flip(0.36);
  EXPECT_NEAR(ch.operators()[0](0, 0).real(), 0.8, 1e-12);
  EXPECT_NEAR(ch.operators()[1](0, 1).real(), 0.6, 1e-12);
}

TEST(Channels, ClassifiesEveryKrausOperatorOnce) {
  const auto kinds = [](const KrausChannel& ch) {
    std::vector<KrausKind> out;
    for (const auto& branch : ch.branches()) out.push_back(branch.kind);
    return out;
  };
  using K = KrausKind;
  EXPECT_EQ(kinds(depolarize(0.1)), (std::vector<K>{K::kIdentity,
                                                     K::kScaledUnitary,
                                                     K::kScaledUnitary,
                                                     K::kScaledUnitary}));
  EXPECT_EQ(kinds(bit_flip(0.3)),
            (std::vector<K>{K::kIdentity, K::kScaledUnitary}));
  EXPECT_EQ(kinds(amplitude_damp(0.3)),
            (std::vector<K>{K::kGeneral, K::kGeneral}));
  EXPECT_TRUE(depolarize(0.1).is_unitary_mixture());
  EXPECT_TRUE(phase_flip(0.2).is_unitary_mixture());
  EXPECT_FALSE(phase_damp(0.2).is_unitary_mixture());
  // Branch probabilities of a mixture, and U = K/√p exactly for the
  // library's Pauli branches.
  const KrausChannel dep = depolarize(0.3);
  EXPECT_NEAR(dep.mixture_probabilities()[0], 0.7, 1e-15);
  EXPECT_NEAR(dep.mixture_probabilities()[3], 0.1, 1e-15);
  EXPECT_TRUE(dep.branches()[1].unitary.approx_equal(Gate::X().unitary(), 0));
  // A -1·I branch is a scaled unitary, not an identity to skip.
  const KrausChannel negated("neg", {Matrix::identity(2) * Complex{-1, 0}});
  EXPECT_EQ(negated.branches()[0].kind, KrausKind::kScaledUnitary);
}

// --- Copy-free joint step vs branch-copy references ----------------------

/// An asymmetric, correlated 2-qubit channel: amplitude damping on
/// qubits[0] after a CX from qubits[0] to qubits[1] (two general
/// branches), mixed with an X⊗Y flip (a scaled-unitary branch).
KrausChannel damped_cx_channel() {
  const double gamma = 0.35;
  const Matrix cx = Gate::CX().unitary();
  const Matrix id = Matrix::identity(2);
  const Matrix a0(2, 2, {1, 0, 0, std::sqrt(1.0 - gamma)});
  const Matrix a1(2, 2, {0, std::sqrt(gamma), 0, 0});
  const Complex keep{std::sqrt(0.6), 0.0};
  const Complex flip{std::sqrt(0.4), 0.0};
  return KrausChannel(
      "damped_cx",
      {Matrix::kron(a0, id) * cx * keep, Matrix::kron(a1, id) * cx * keep,
       Matrix::kron(Gate::X().unitary(), Gate::Y().unitary()) * flip});
}

/// Every library channel on qubit 2, plus the 2-qubit channel on the
/// reversed, non-adjacent pair (3, 1).
std::vector<std::pair<KrausChannel, std::vector<Qubit>>> channel_cases() {
  return {{bit_flip(0.3), {2}},          {phase_flip(0.2), {2}},
          {depolarize(0.45), {2}},       {amplitude_damp(0.4), {2}},
          {phase_damp(0.35), {2}},       {damped_cx_channel(), {3, 1}}};
}

/// An entangled 4-qubit state with no zero amplitudes.
template <typename State>
State prepared(State state) {
  for (Qubit q = 0; q < 4; ++q) state.apply(ry(0.3 + 0.4 * q, q));
  for (const Operation& op :
       {cnot(0, 1), cnot(2, 3), cnot(1, 2), rx(0.7, 3), cz(3, 0),
        rx(1.1, 1)}) {
    state.apply(op);
  }
  return state;
}

double squared_norm(const StateVectorState& s) { return s.norm_squared(); }
double squared_norm(const MPSState& s) { return s.norm() * s.norm(); }
double squared_norm(const DensityMatrixState& s) { return s.trace(); }

double distance(const StateVectorState& a, const StateVectorState& b) {
  return a.max_abs_diff(b);
}
double distance(const MPSState& a, const MPSState& b) {
  const auto va = a.to_statevector();
  const auto vb = b.to_statevector();
  double worst = 0.0;
  for (std::size_t i = 0; i < va.size(); ++i) {
    worst = std::max(worst, std::abs(va[i] - vb[i]));
  }
  return worst;
}
double distance(const DensityMatrixState& a, const DensityMatrixState& b) {
  double worst = 0.0;
  for (Bitstring r = 0; r < a.dimension(); ++r) {
    for (Bitstring c = 0; c < a.dimension(); ++c) {
      worst = std::max(worst, std::abs(a.entry(r, c) - b.entry(r, c)));
    }
  }
  return worst;
}

/// Checks, for every channel case and branch: the joint weights equal
/// the candidate probabilities of a branch copy K_i ψ; the reduced-block
/// branch weights equal ‖K_i ψ‖²; and applying the drawn branch yields
/// K_i ψ / ‖K_i ψ‖.
template <typename State>
void expect_joint_step_matches_branch_copies(const State& state) {
  const Bitstring b = 0b1010;
  for (const auto& [channel, qubits] : channel_cases()) {
    SCOPED_TRACE(channel.name());
    const CandidateList candidates = expand_candidates(b, qubits);
    const auto nc = static_cast<std::size_t>(candidates.count);
    const std::size_t branches = channel.operators().size();
    std::vector<double> weights(branches * nc);
    joint_channel_weights(state, channel, qubits, candidates, weights);
    const std::vector<double> block_weights =
        channel.branch_weights(state.reduced_density_matrix(qubits));
    for (std::size_t i = 0; i < branches; ++i) {
      State branch = state;
      branch.apply_matrix(channel.operators()[i], qubits);
      for (std::size_t j = 0; j < nc; ++j) {
        EXPECT_NEAR(weights[i * nc + j],
                    compute_probability(branch, candidates.values[j]), 1e-12)
            << "branch " << i << " candidate " << j;
      }
      EXPECT_NEAR(block_weights[i], squared_norm(branch), 1e-12)
          << "branch " << i;
      ASSERT_GT(squared_norm(branch), 1e-6);
      branch.renormalize();
      State drawn = state;
      apply_kraus_branch(drawn, channel, i, qubits);
      EXPECT_LT(distance(drawn, branch), 1e-12) << "branch " << i;
    }
  }
}

TEST(JointChannelStep, StatevectorMatchesBranchCopies) {
  expect_joint_step_matches_branch_copies(prepared(StateVectorState(4)));
}

TEST(JointChannelStep, MpsMatchesBranchCopies) {
  expect_joint_step_matches_branch_copies(prepared(MPSState(4)));
}

TEST(JointChannelStep, DensityMatrixMatchesBranchCopies) {
  // A mixed ρ: the prepared state after an exact depolarizing sum.
  DensityMatrixState rho = prepared(DensityMatrixState(4));
  rho.apply_channel_sum(depolarize(0.3), std::vector<Qubit>{1});
  expect_joint_step_matches_branch_copies(rho);
}

TEST(JointChannelStep, TwoQubitChannelTrajectoriesMatchDensityMatrix) {
  // A correlated 2-qubit channel sampled jointly on the pure-state
  // backends against the exact Kraus-sum distribution.
  const Gate noise = Gate::Channel(damped_cx_channel());
  Circuit circuit{h(0), cnot(0, 1), ry(0.9, 2)};
  circuit.append(Operation(noise, {2, 0}));
  circuit.append(h(1));
  circuit.append(Operation(noise, {1, 2}));
  circuit.append(rx(0.4, 0));

  DensityMatrixState rho(3);
  evolve_exact(circuit, rho);
  Distribution ideal;
  for (Bitstring b = 0; b < 8; ++b) ideal[b] = rho.probability(b);

  Simulator<StateVectorState> sv{StateVectorState(3)};
  Simulator<MPSState> mps{MPSState(3)};
  Rng r1(21), r2(22);
  EXPECT_LT(total_variation_distance(normalize(sv.sample(circuit, 40000, r1)),
                                     ideal),
            0.02);
  EXPECT_LT(total_variation_distance(normalize(mps.sample(circuit, 20000, r2)),
                                     ideal),
            0.03);
}

TEST(JointChannelStep, ScaledUnitaryBranchesKeepTheNormWithoutRenormalizing) {
  // 5000 depolarize(0.01) ops interleaved with random unitaries: the
  // drawn Pauli branches are applied as exact unitaries and nothing
  // renormalizes, so only the unitaries' rounding may move the norm.
  const int n = 6;
  StateVectorState psi(n);
  Rng rng(5);
  const Gate noise = Gate::Channel(depolarize(0.01));
  for (int step = 0; step < 5000; ++step) {
    const auto q = static_cast<Qubit>(rng.uniform_int(n));
    apply_op(ry(rng.uniform(0.0, 6.3), q), psi, rng);
    if (step % 3 == 0) apply_op(cnot(q, (q + 1) % n), psi, rng);
    apply_op(Operation(noise, {q}), psi, rng);
  }
  EXPECT_LT(std::abs(psi.norm_squared() - 1.0), 1e-9);
}

}  // namespace
}  // namespace bgls
