// Lagrange interpolation at zero and the paper's §2.4 degree-resolution
// procedure, in both the scalar domain (Z_q) and the exponent domain (group
// elements, Eq. (12)).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "numeric/batchinv.hpp"
#include "numeric/group.hpp"
#include "numeric/multiexp.hpp"
#include "support/check.hpp"

namespace dmw::poly {

/// Lagrange basis evaluated at zero for the first s points:
/// rho_k = prod_{i != k, i < s} alpha_i / (alpha_i - alpha_k)  (paper Eq. 12).
/// All points must be distinct and nonzero. The s denominators are inverted
/// with one field inversion (numeric/batchinv.hpp).
template <dmw::num::GroupBackend G>
std::vector<typename G::Scalar> lagrange_basis_at_zero(
    const G& g, const std::vector<typename G::Scalar>& points,
    std::size_t s) {
  DMW_REQUIRE(s >= 1 && s <= points.size());
  std::vector<typename G::Scalar> rho(s);
  std::vector<typename G::Scalar> dens(s);
  for (std::size_t k = 0; k < s; ++k) {
    typename G::Scalar num = g.sone();
    typename G::Scalar den = g.sone();
    for (std::size_t i = 0; i < s; ++i) {
      if (i == k) continue;
      num = g.smul(num, points[i]);
      den = g.smul(den, g.ssub(points[i], points[k]));
    }
    rho[k] = num;
    dens[k] = den;
  }
  dmw::num::batch_inverse(g, std::span<typename G::Scalar>(dens));
  for (std::size_t k = 0; k < s; ++k) rho[k] = g.smul(rho[k], dens[k]);
  return rho;
}

/// Value at zero of the unique degree-(s-1) polynomial through the first s
/// (point, value) pairs.
template <dmw::num::GroupBackend G>
typename G::Scalar interpolate_at_zero(
    const G& g, const std::vector<typename G::Scalar>& points,
    const std::vector<typename G::Scalar>& values, std::size_t s) {
  DMW_REQUIRE(points.size() >= s && values.size() >= s);
  const auto rho = lagrange_basis_at_zero(g, points, s);
  typename G::Scalar acc = g.szero();
  for (std::size_t k = 0; k < s; ++k)
    acc = g.sadd(acc, g.smul(values[k], rho[k]));
  return acc;
}

/// The paper's efficient Θ(s^2) algorithm for f^{(s)}(0) exactly as printed
/// in §2.4 (steps 1-3). Note: as printed it computes (-1)^{s-1} times the
/// Lagrange value at zero; the sign is irrelevant for the zero test used by
/// degree resolution. Exposed for fidelity and tested against
/// interpolate_at_zero; kept as the literal per-element-inversion
/// transcription, so the batch-inversion rewrite everywhere else stays
/// differentially testable against it.
template <dmw::num::GroupBackend G>
typename G::Scalar paper_interpolation_at_zero(
    const G& g, const std::vector<typename G::Scalar>& points,
    const std::vector<typename G::Scalar>& values, std::size_t s) {
  DMW_REQUIRE(points.size() >= s && values.size() >= s);
  // Step 1: psi_k = f(alpha_k) / prod_{i != k} (alpha_k - alpha_i).
  std::vector<typename G::Scalar> psi(s);
  for (std::size_t k = 0; k < s; ++k) {
    typename G::Scalar den = g.sone();
    for (std::size_t i = 0; i < s; ++i) {
      if (i == k) continue;
      den = g.smul(den, g.ssub(points[k], points[i]));
    }
    // dmwlint:allow(loop-inverse) paper-literal transcription of §2.4
    psi[k] = g.smul(values[k], g.sinv(den));
  }
  // Step 2: phi(0) = prod_k alpha_k.
  typename G::Scalar phi = g.sone();
  for (std::size_t k = 0; k < s; ++k) phi = g.smul(phi, points[k]);
  // Step 3: f^{(s)}(0) = phi(0) * sum_k psi_k / alpha_k.
  typename G::Scalar acc = g.szero();
  for (std::size_t k = 0; k < s; ++k)
    // dmwlint:allow(loop-inverse) paper-literal transcription of §2.4
    acc = g.sadd(acc, g.smul(psi[k], g.sinv(points[k])));
  return g.smul(phi, acc);
}

/// Lagrange bases at zero for every prefix of a point set:
/// `bases[s-1]` is lagrange_basis_at_zero(g, points, s) for s = 1..n.
template <dmw::num::GroupBackend G>
using LagrangePrefixBases = std::vector<std::vector<typename G::Scalar>>;

/// Builds the bases of every prefix of `points` incrementally: adding point
/// alpha_s multiplies each existing rho_k by alpha_s / (alpha_s - alpha_k),
/// so all n bases cost Θ(n^2) multiplications instead of the Θ(n^3) of
/// building each from scratch. The s-1 denominators of one extension step
/// are inverted with a single field inversion:
/// sinv(alpha_k - alpha_s) = -sinv(alpha_s - alpha_k), so both update
/// factors come out of the same batch. Points must be distinct and nonzero.
template <dmw::num::GroupBackend G>
LagrangePrefixBases<G> lagrange_prefix_bases(
    const G& g, std::span<const typename G::Scalar> points) {
  LagrangePrefixBases<G> bases;
  bases.reserve(points.size());
  std::vector<typename G::Scalar> rho;  // basis for the current prefix
  std::vector<typename G::Scalar> diffs;
  for (std::size_t s = 1; s <= points.size(); ++s) {
    const auto& alpha_new = points[s - 1];
    typename G::Scalar rho_new = g.sone();
    diffs.resize(s - 1);
    for (std::size_t k = 0; k + 1 < s; ++k)
      diffs[k] = g.ssub(alpha_new, points[k]);
    dmw::num::batch_inverse(g, std::span<typename G::Scalar>(diffs));
    for (std::size_t k = 0; k + 1 < s; ++k) {
      const auto& alpha_k = points[k];
      rho[k] = g.smul(rho[k], g.smul(alpha_new, diffs[k]));
      rho_new = g.smul(rho_new, g.smul(alpha_k, g.sneg(diffs[k])));
    }
    rho.push_back(rho_new);
    bases.push_back(rho);
  }
  return bases;
}

/// Result of a degree-resolution scan.
struct DegreeResolution {
  /// Resolved degree (least s with a vanishing interpolation, minus one).
  /// nullopt when no s <= points.size() vanishes, i.e. the degree is at
  /// least points.size() or the polynomial has a nonzero constant term.
  std::optional<std::size_t> degree;
  /// Number of interpolation probes performed (complexity accounting).
  std::size_t probes = 0;
};

/// Scalar-domain degree resolution for a polynomial with known-zero constant
/// term, given its values at the (distinct, nonzero) points.
///
/// Erratum vs the paper: §2.4 claims the least s with f^{(s)}(0) = f(0)
/// equals the degree d; in fact d+1 points are required, so the resolved
/// degree is s_min - 1 (see DESIGN.md). False early vanishing occurs with
/// probability 1/q per probe for random coefficients.
template <dmw::num::GroupBackend G>
DegreeResolution resolve_degree(const G& g,
                                const std::vector<typename G::Scalar>& points,
                                const std::vector<typename G::Scalar>& values) {
  DMW_REQUIRE(points.size() == values.size());
  const auto bases =
      lagrange_prefix_bases(g, std::span<const typename G::Scalar>(points));
  DegreeResolution out;
  for (std::size_t s = 1; s <= points.size(); ++s) {
    ++out.probes;
    typename G::Scalar acc = g.szero();
    for (std::size_t k = 0; k < s; ++k)
      acc = g.sadd(acc, g.smul(values[k], bases[s - 1][k]));
    if (acc == g.szero()) {
      out.degree = s - 1;
      return out;
    }
  }
  return out;
}

/// Exponent-domain degree resolution (paper Eq. (12)): given group elements
/// Lambda_k = z^{E(alpha_k)}, find the least s with
///   prod_{k<s} Lambda_k^{rho_k} == identity,
/// i.e. z^{E-interpolated-at-0} == 1, and return s-1 as the degree of E.
///
/// `bases` are the Lagrange prefix bases of the points the Lambdas sit at
/// (lagrange_prefix_bases; PublicParams keeps them for the pseudonym set),
/// so a probe does no scalar work. The scan is linear in s and stops at the
/// first identity. One MultiExpCache tables every Lambda once; probe s
/// evaluates its first s bases against basis s — a shared squaring chain
/// instead of s independent full-length exponentiations.
template <dmw::num::GroupBackend G>
DegreeResolution resolve_degree_in_exponent(
    const G& g, const LagrangePrefixBases<G>& bases,
    std::span<const typename G::Elem> lambdas) {
  DMW_REQUIRE(bases.size() == lambdas.size());
  DegreeResolution out;
  const dmw::num::MultiExpCache<G> cache(g, lambdas, g.scalar_bits());
  for (std::size_t s = 1; s <= lambdas.size(); ++s) {
    ++out.probes;
    if (g.is_identity(cache.eval(bases[s - 1]))) {
      out.degree = s - 1;
      return out;
    }
  }
  return out;
}

/// Resolution over an arbitrary point set (a crash gap, tests, benches):
/// builds the point set's prefix bases and runs the scan above.
template <dmw::num::GroupBackend G>
DegreeResolution resolve_degree_in_exponent(
    const G& g, const std::vector<typename G::Scalar>& points,
    const std::vector<typename G::Elem>& lambdas) {
  DMW_REQUIRE(points.size() == lambdas.size());
  return resolve_degree_in_exponent(
      g, lagrange_prefix_bases(g, std::span<const typename G::Scalar>(points)),
      std::span<const typename G::Elem>(lambdas));
}

}  // namespace dmw::poly
