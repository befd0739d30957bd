// Lagrange interpolation at zero and degree resolution, in both the scalar
// and exponent domains (paper §2.4 and Eq. (12)). Includes parameterized
// sweeps over the encoded degree — the core primitive of DMW's bid encoding.
#include <gtest/gtest.h>

#include "dmw/params.hpp"
#include "poly/lagrange.hpp"
#include "poly/polynomial.hpp"
#include "support/rng.hpp"

namespace dmw::poly {
namespace {

using dmw::Xoshiro256ss;
using dmw::num::Group256;
using dmw::num::Group64;
using Poly = Polynomial<Group64>;

const Group64& grp() { return Group64::test_group(); }

const Group256& big() {
  static const Group256 group = [] {
    Xoshiro256ss rng(77);
    return Group256::generate(96, 64, rng);
  }();
  return group;
}

template <dmw::num::GroupBackend G>
std::vector<typename G::Scalar> distinct_points(const G& g, std::size_t n,
                                                Xoshiro256ss& rng) {
  std::vector<typename G::Scalar> points;
  while (points.size() < n) {
    const auto candidate = g.random_nonzero_scalar(rng);
    if (std::find(points.begin(), points.end(), candidate) == points.end())
      points.push_back(candidate);
  }
  return points;
}

TEST(Lagrange, BasisSumsToOne) {
  // The Lagrange basis at any evaluation point sums to 1 (interpolating the
  // constant-1 polynomial).
  const Group64& g = grp();
  Xoshiro256ss rng(60);
  const auto points = distinct_points(g, 6, rng);
  const auto rho = lagrange_basis_at_zero(g, points, 6);
  std::uint64_t sum = 0;
  for (const auto& r : rho) sum = g.sadd(sum, r);
  EXPECT_EQ(sum, g.sone());
}

TEST(Lagrange, InterpolationRecoversValueAtZero) {
  const Group64& g = grp();
  Xoshiro256ss rng(61);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t deg = 1 + rng.below(8);
    // Random polynomial WITH nonzero constant term.
    std::vector<std::uint64_t> coeffs(deg + 1);
    for (auto& c : coeffs) c = g.random_scalar(rng);
    coeffs[0] = g.random_nonzero_scalar(rng);
    const Poly p(coeffs);
    const auto points = distinct_points(g, deg + 1, rng);
    const auto values = p.eval_all(g, points);
    EXPECT_EQ(interpolate_at_zero(g, points, values, deg + 1), coeffs[0]);
  }
}

TEST(Lagrange, PaperAlgorithmMatchesStandardUpToSign) {
  // The printed §2.4 algorithm computes (-1)^{s-1} * L(0).
  const Group64& g = grp();
  Xoshiro256ss rng(62);
  for (std::size_t s = 1; s <= 9; ++s) {
    const auto points = distinct_points(g, s, rng);
    std::vector<std::uint64_t> values(s);
    for (auto& v : values) v = g.random_scalar(rng);
    const auto standard = interpolate_at_zero(g, points, values, s);
    const auto paper = paper_interpolation_at_zero(g, points, values, s);
    if (s % 2 == 1) {
      EXPECT_EQ(paper, standard) << "s=" << s;
    } else {
      EXPECT_EQ(paper, g.sneg(standard)) << "s=" << s;
    }
  }
}

TEST(Lagrange, PaperAlgorithmZeroTestAgrees) {
  // Sign aside, the zero test (all DMW uses) is identical.
  const Group64& g = grp();
  Xoshiro256ss rng(63);
  const std::size_t deg = 4;
  const Poly p = Poly::random_zero_const(g, deg, rng);
  const auto points = distinct_points(g, deg + 2, rng);
  const auto values = p.eval_all(g, points);
  for (std::size_t s = 1; s <= deg + 2; ++s) {
    const bool std_zero = interpolate_at_zero(g, points, values, s) == 0;
    const bool paper_zero = paper_interpolation_at_zero(g, points, values, s) == 0;
    EXPECT_EQ(std_zero, paper_zero) << "s=" << s;
    EXPECT_EQ(std_zero, s >= deg + 1) << "s=" << s;
  }
}

// Parameterized sweep: resolution must recover every encodable degree.
class DegreeResolutionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DegreeResolutionSweep, ScalarDomainRecoversDegree) {
  const Group64& g = grp();
  const std::size_t deg = GetParam();
  Xoshiro256ss rng(100 + deg);
  for (int trial = 0; trial < 10; ++trial) {
    const Poly p = Poly::random_zero_const(g, deg, rng);
    const auto points = distinct_points(g, deg + 3, rng);
    const auto values = p.eval_all(g, points);
    const auto res = resolve_degree(g, points, values);
    ASSERT_TRUE(res.degree.has_value());
    EXPECT_EQ(*res.degree, deg);
    // Erratum check (DESIGN.md): s_min = deg + 1 probes, not deg.
    EXPECT_EQ(res.probes, deg + 1);
  }
}

TEST_P(DegreeResolutionSweep, ExponentDomainRecoversDegree) {
  const Group64& g = grp();
  const std::size_t deg = GetParam();
  Xoshiro256ss rng(200 + deg);
  const Poly p = Poly::random_zero_const(g, deg, rng);
  const auto points = distinct_points(g, deg + 3, rng);
  std::vector<std::uint64_t> lambdas;
  for (const auto& x : points)
    lambdas.push_back(g.pow(g.z1(), p.eval(g, x)));
  const auto res = resolve_degree_in_exponent(g, points, lambdas);
  ASSERT_TRUE(res.degree.has_value());
  EXPECT_EQ(*res.degree, deg);
}

INSTANTIATE_TEST_SUITE_P(Degrees, DegreeResolutionSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 10, 12, 16));

TEST(DegreeResolution, SumOfPolynomialsResolvesToMaxDegree) {
  // The DMW property: deg(sum of e_i) = max deg(e_i), i.e. the minimum bid.
  const Group64& g = grp();
  Xoshiro256ss rng(64);
  const Poly a = Poly::random_zero_const(g, 3, rng);
  const Poly b = Poly::random_zero_const(g, 7, rng);
  const Poly c = Poly::random_zero_const(g, 5, rng);
  const Poly sum = a.add(g, b).add(g, c);
  const auto points = distinct_points(g, 10, rng);
  const auto res = resolve_degree(g, points, sum.eval_all(g, points));
  ASSERT_TRUE(res.degree.has_value());
  EXPECT_EQ(*res.degree, 7u);
}

TEST(DegreeResolution, UnresolvableWhenTooFewPoints) {
  const Group64& g = grp();
  Xoshiro256ss rng(65);
  const Poly p = Poly::random_zero_const(g, 8, rng);
  const auto points = distinct_points(g, 5, rng);  // 5 < deg+1
  const auto res = resolve_degree(g, points, p.eval_all(g, points));
  EXPECT_FALSE(res.degree.has_value());
  EXPECT_EQ(res.probes, 5u);
}

TEST(DegreeResolution, ZeroPolynomialResolvesToDegreeZero) {
  const Group64& g = grp();
  Xoshiro256ss rng(66);
  const auto points = distinct_points(g, 4, rng);
  const std::vector<std::uint64_t> values(4, 0);
  const auto res = resolve_degree(g, points, values);
  ASSERT_TRUE(res.degree.has_value());
  EXPECT_EQ(*res.degree, 0u);
}

TEST(DegreeResolution, ExponentDomainUnresolvable) {
  const Group64& g = grp();
  Xoshiro256ss rng(67);
  const Poly p = Poly::random_zero_const(g, 6, rng);
  const auto points = distinct_points(g, 4, rng);
  std::vector<std::uint64_t> lambdas;
  for (const auto& x : points) lambdas.push_back(g.pow(g.z1(), p.eval(g, x)));
  EXPECT_FALSE(resolve_degree_in_exponent(g, points, lambdas).degree);
}

TEST(DegreeResolution, HidingBelowThreshold) {
  // With s <= deg points, the interpolated value at zero is (w.h.p.) a
  // nonzero "random" field element: nothing about the degree leaks. This is
  // the information-hiding property Theorem 10 builds on.
  const Group64& g = grp();
  Xoshiro256ss rng(68);
  int zero_hits = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Poly p = Poly::random_zero_const(g, 6, rng);
    const auto points = distinct_points(g, 6, rng);  // exactly deg points
    const auto v = interpolate_at_zero(g, points, p.eval_all(g, points), 6);
    if (v == 0) ++zero_hits;
  }
  EXPECT_EQ(zero_hits, 0);  // probability ~200/2^40 of a false hit
}

// ---- prefix bases and resolution over them ---------------------------------

template <dmw::num::GroupBackend G>
void expect_prefix_bases_match_direct(const G& g, std::size_t n,
                                      std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const auto points = distinct_points(g, n, rng);
  const auto bases =
      lagrange_prefix_bases(g, std::span<const typename G::Scalar>(points));
  ASSERT_EQ(bases.size(), n);
  for (std::size_t s = 1; s <= n; ++s)
    EXPECT_EQ(bases[s - 1], lagrange_basis_at_zero(g, points, s)) << "s=" << s;
}

TEST(LagrangePrefixBases, EachPrefixMatchesDirectBasis) {
  expect_prefix_bases_match_direct(grp(), 12, 70);
  expect_prefix_bases_match_direct(big(), 8, 71);
  const std::vector<std::uint64_t> none;
  EXPECT_TRUE(lagrange_prefix_bases(grp(), std::span(none)).empty());
}

/// Resolves `lambdas` over prebuilt prefix bases and through the
/// (points, lambdas) form; both must agree on degree and probe count.
template <dmw::num::GroupBackend G>
DegreeResolution expect_prebuilt_matches_points_form(
    const G& g, const std::vector<typename G::Scalar>& points,
    const std::vector<typename G::Elem>& lambdas, const std::string& label) {
  const auto bases =
      lagrange_prefix_bases(g, std::span<const typename G::Scalar>(points));
  const auto prebuilt = resolve_degree_in_exponent(g, bases, lambdas);
  const auto from_points = resolve_degree_in_exponent(g, points, lambdas);
  EXPECT_EQ(prebuilt.degree, from_points.degree) << label;
  EXPECT_EQ(prebuilt.probes, from_points.probes) << label;
  return prebuilt;
}

/// Lambda_k = z1^{E(alpha_k)} for a random zero-constant E of `degree`
/// (the zero polynomial for degree 0).
template <dmw::num::GroupBackend G>
std::vector<typename G::Elem> lambdas_of_degree(
    const G& g, const std::vector<typename G::Scalar>& points,
    std::size_t degree, Xoshiro256ss& rng) {
  std::vector<typename G::Elem> lambdas;
  const auto p = degree == 0 ? Polynomial<G>()
                             : Polynomial<G>::random_zero_const(g, degree, rng);
  for (const auto& x : points) lambdas.push_back(g.pow(g.z1(), p.eval(g, x)));
  return lambdas;
}

template <dmw::num::GroupBackend G>
void expect_prebuilt_resolves_every_degree(const G& g, std::size_t n,
                                           std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const auto points = distinct_points(g, n, rng);
  for (std::size_t degree = 0; degree < n; ++degree) {
    const auto res = expect_prebuilt_matches_points_form(
        g, points, lambdas_of_degree(g, points, degree, rng),
        "degree=" + std::to_string(degree));
    ASSERT_TRUE(res.degree.has_value()) << "degree=" << degree;
    EXPECT_EQ(*res.degree, degree);
    EXPECT_EQ(res.probes, degree + 1);
  }
  // Degree n: no prefix vanishes, every probe runs.
  const auto res = expect_prebuilt_matches_points_form(
      g, points, lambdas_of_degree(g, points, n, rng), "degree=n");
  EXPECT_FALSE(res.degree.has_value());
  EXPECT_EQ(res.probes, n);
}

TEST(LagrangePrefixBases, ResolutionMatchesPointsFormForEveryDegree) {
  expect_prebuilt_resolves_every_degree(grp(), 12, 72);
  expect_prebuilt_resolves_every_degree(big(), 6, 73);
}

TEST(LagrangePrefixBases, EarlyVanishingResolvesToAnInvalidBid) {
  // A Lambda vector can vanish before the honest aggregate's degree: the
  // first point is the identity, or E itself has degree <= c. Resolution
  // over the params' bases stops at the same probe as the points form, and
  // the resolved degree encodes no bid in W, so the protocol rejects it.
  const auto params =
      dmw::proto::PublicParams<Group64>::make(grp(), 8, 1, 2, 5);
  const auto& points = params.pseudonyms();
  Xoshiro256ss rng(74);
  const auto check = [&](const std::vector<std::uint64_t>& lambdas,
                         std::size_t expected, const std::string& label) {
    const auto res =
        expect_prebuilt_matches_points_form(grp(), points, lambdas, label);
    const auto over_params =
        resolve_degree_in_exponent(grp(), params.prefix_bases(), lambdas);
    EXPECT_EQ(over_params.degree, res.degree) << label;
    EXPECT_EQ(over_params.probes, res.probes) << label;
    ASSERT_EQ(res.degree, std::optional<std::size_t>(expected)) << label;
    EXPECT_EQ(res.probes, expected + 1) << label;
    EXPECT_FALSE(params.degree_is_valid_bid(expected)) << label;
  };
  auto lambdas = lambdas_of_degree(grp(), points, 6, rng);
  lambdas[0] = grp().identity();
  check(lambdas, 0, "identity first point");
  for (std::size_t degree = 0; degree <= params.c(); ++degree)
    check(lambdas_of_degree(grp(), points, degree, rng), degree,
          "degree=" + std::to_string(degree));
}

TEST(Lagrange, RejectsMismatchedInput) {
  const Group64& g = grp();
  const std::vector<std::uint64_t> points{1, 2, 3};
  const std::vector<std::uint64_t> values{4, 5};
  EXPECT_THROW(resolve_degree(g, points, values), dmw::CheckError);
  EXPECT_THROW(interpolate_at_zero(g, points, values, 3), dmw::CheckError);
  EXPECT_THROW(lagrange_basis_at_zero(g, points, 0), dmw::CheckError);
  EXPECT_THROW(lagrange_basis_at_zero(g, points, 4), dmw::CheckError);
  const auto bases =
      lagrange_prefix_bases(g, std::span<const std::uint64_t>(points));
  EXPECT_THROW(resolve_degree_in_exponent(g, bases, values), dmw::CheckError);
}

}  // namespace
}  // namespace dmw::poly
