#include "channels/channels.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.h"

namespace bgls {
namespace {

std::string format_name(const char* base, double value) {
  std::ostringstream oss;
  oss << base << '(' << value << ')';
  return oss.str();
}

void require_probability(double p, const char* what) {
  BGLS_REQUIRE(p >= 0.0 && p <= 1.0, what, " requires probability in [0, 1], got ",
               p);
}

/// Largest |a(r, c) - scale * δ_rc|.
double distance_to_scaled_identity(const Matrix& a, Complex scale) {
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const Complex target = r == c ? scale : Complex{0.0, 0.0};
      worst = std::max(worst, std::abs(a(r, c) - target));
    }
  }
  return worst;
}

/// Classifies one Kraus operator from its Gram matrix K†K. The
/// tolerances are relative to p and far below anything that could move
/// a sampled value: a scaled-unitary branch skips renormalization, so
/// U = K/√p must be unitary to ~1e-13 or the norm would drift.
KrausBranch classify_branch(const Matrix& k) {
  KrausBranch branch;
  branch.gram = k.adjoint() * k;
  const std::size_t dim = k.rows();
  double p = 0.0;
  for (std::size_t i = 0; i < dim; ++i) p += branch.gram(i, i).real();
  p /= static_cast<double>(dim);
  if (!(p > 0.0) ||
      distance_to_scaled_identity(branch.gram, Complex{p, 0.0}) > 1e-13 * p) {
    return branch;
  }
  branch.probability = p;
  Matrix unitary = k * Complex{1.0 / std::sqrt(p), 0.0};
  if (distance_to_scaled_identity(unitary, Complex{1.0, 0.0}) <= 1e-14) {
    branch.kind = KrausKind::kIdentity;
  } else {
    branch.kind = KrausKind::kScaledUnitary;
    branch.unitary = std::move(unitary);
  }
  return branch;
}

}  // namespace

KrausChannel::KrausChannel(std::string name, std::vector<Matrix> operators,
                           double tol)
    : name_(std::move(name)), operators_(std::move(operators)) {
  BGLS_REQUIRE(!operators_.empty(), "channel '", name_,
               "' needs at least one Kraus operator");
  const std::size_t dim = operators_.front().rows();
  BGLS_REQUIRE(dim > 0 && (dim & (dim - 1)) == 0, "channel '", name_,
               "' dimension must be a power of two, got ", dim);
  arity_ = 0;
  for (std::size_t d = dim; d > 1; d >>= 1) ++arity_;
  Matrix completeness(dim, dim);
  branches_.reserve(operators_.size());
  unitary_mixture_ = true;
  for (const auto& k : operators_) {
    BGLS_REQUIRE(k.rows() == dim && k.cols() == dim, "channel '", name_,
                 "' has inconsistently shaped Kraus operators");
    branches_.push_back(classify_branch(k));
    completeness = completeness + branches_.back().gram;
    unitary_mixture_ =
        unitary_mixture_ && branches_.back().kind != KrausKind::kGeneral;
    mixture_probabilities_.push_back(branches_.back().probability);
  }
  BGLS_REQUIRE(completeness.approx_equal(Matrix::identity(dim), tol),
               "channel '", name_,
               "' is not trace preserving (sum K†K != I)");
}

std::vector<double> KrausChannel::branch_weights(
    const Matrix& reduced_density) const {
  const std::size_t dim = operators_.front().rows();
  BGLS_REQUIRE(reduced_density.rows() == dim && reduced_density.cols() == dim,
               "reduced density matrix does not match channel '", name_, "'");
  std::vector<double> weights;
  weights.reserve(branches_.size());
  for (const KrausBranch& branch : branches_) {
    // Tr(G ρ) = Σ_{l,m} G(m, l) ρ(l, m); real for Hermitian G and ρ.
    double acc = 0.0;
    for (std::size_t l = 0; l < dim; ++l) {
      for (std::size_t m = 0; m < dim; ++m) {
        acc += (branch.gram(m, l) * reduced_density(l, m)).real();
      }
    }
    weights.push_back(std::max(0.0, acc));
  }
  return weights;
}

KrausChannel bit_flip(double p) {
  require_probability(p, "bit_flip");
  const double a = std::sqrt(1.0 - p);
  const double b = std::sqrt(p);
  Matrix k0(2, 2, {a, 0, 0, a});
  Matrix k1(2, 2, {0, b, b, 0});
  return KrausChannel(format_name("bit_flip", p), {k0, k1});
}

KrausChannel phase_flip(double p) {
  require_probability(p, "phase_flip");
  const double a = std::sqrt(1.0 - p);
  const double b = std::sqrt(p);
  Matrix k0(2, 2, {a, 0, 0, a});
  Matrix k1(2, 2, {b, 0, 0, -b});
  return KrausChannel(format_name("phase_flip", p), {k0, k1});
}

KrausChannel depolarize(double p) {
  require_probability(p, "depolarize");
  const double a = std::sqrt(1.0 - p);
  const double b = std::sqrt(p / 3.0);
  Matrix k0(2, 2, {a, 0, 0, a});
  Matrix kx(2, 2, {0, b, b, 0});
  Matrix ky(2, 2, {0, Complex{0, -b}, Complex{0, b}, 0});
  Matrix kz(2, 2, {b, 0, 0, -b});
  return KrausChannel(format_name("depolarize", p), {k0, kx, ky, kz});
}

KrausChannel amplitude_damp(double gamma) {
  require_probability(gamma, "amplitude_damp");
  Matrix k0(2, 2, {1, 0, 0, std::sqrt(1.0 - gamma)});
  Matrix k1(2, 2, {0, std::sqrt(gamma), 0, 0});
  return KrausChannel(format_name("amplitude_damp", gamma), {k0, k1});
}

KrausChannel phase_damp(double gamma) {
  require_probability(gamma, "phase_damp");
  Matrix k0(2, 2, {1, 0, 0, std::sqrt(1.0 - gamma)});
  Matrix k1(2, 2, {0, 0, 0, std::sqrt(gamma)});
  return KrausChannel(format_name("phase_damp", gamma), {k0, k1});
}

}  // namespace bgls
