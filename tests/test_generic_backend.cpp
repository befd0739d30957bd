// Genericity coverage: the polynomial/Lagrange/secret-sharing layers work
// identically over the BigUInt Montgomery backend, and cross-backend
// protocol invariants hold on random sweeps.
#include <gtest/gtest.h>

#include "crypto/chacha.hpp"
#include "crypto/feldman.hpp"
#include "dmw/multiunit.hpp"
#include "dmw/protocol.hpp"
#include "poly/lagrange.hpp"
#include "poly/shamir.hpp"

namespace dmw {
namespace {

using num::Group256;
using num::Group64;
using num::U256;

const Group256& big() {
  static const Group256 group = [] {
    Xoshiro256ss rng(4242);
    return Group256::generate(96, 64, rng);
  }();
  return group;
}

TEST(GenericBackend, PolynomialAlgebraOnGroup256) {
  const Group256& g = big();
  auto rng = crypto::ChaChaRng::from_seed(1);
  using Poly = poly::Polynomial<Group256>;
  const Poly a = Poly::random_zero_const(g, 3, rng);
  const Poly b = Poly::random_zero_const(g, 5, rng);
  EXPECT_EQ(a.degree(g), 3u);
  EXPECT_EQ(b.degree(g), 5u);
  const auto x = g.random_scalar(rng);
  EXPECT_EQ(a.add(g, b).eval(g, x), g.sadd(a.eval(g, x), b.eval(g, x)));
  EXPECT_EQ(a.mul(g, b).eval(g, x), g.smul(a.eval(g, x), b.eval(g, x)));
  EXPECT_EQ(a.mul(g, b).degree(g), 8u);
}

TEST(GenericBackend, DegreeResolutionOnGroup256) {
  const Group256& g = big();
  auto rng = crypto::ChaChaRng::from_seed(2);
  using Poly = poly::Polynomial<Group256>;
  for (std::size_t degree : {1u, 3u, 6u}) {
    const Poly p = Poly::random_zero_const(g, degree, rng);
    std::vector<U256> points;
    while (points.size() < degree + 2) {
      auto candidate = g.random_nonzero_scalar(rng);
      if (std::find(points.begin(), points.end(), candidate) == points.end())
        points.push_back(candidate);
    }
    const auto scalar_res =
        poly::resolve_degree(g, points, p.eval_all(g, points));
    ASSERT_TRUE(scalar_res.degree.has_value());
    EXPECT_EQ(*scalar_res.degree, degree);

    std::vector<U256> lambdas;
    for (const auto& x : points)
      lambdas.push_back(g.pow(g.z1(), p.eval(g, x)));
    const auto exp_res = poly::resolve_degree_in_exponent(g, points, lambdas);
    ASSERT_TRUE(exp_res.degree.has_value());
    EXPECT_EQ(*exp_res.degree, degree);
  }
}

TEST(GenericBackend, ShamirOnGroup256) {
  const Group256& g = big();
  auto rng = crypto::ChaChaRng::from_seed(3);
  std::vector<U256> points;
  while (points.size() < 5) {
    auto candidate = g.random_nonzero_scalar(rng);
    if (std::find(points.begin(), points.end(), candidate) == points.end())
      points.push_back(candidate);
  }
  const auto secret = g.random_scalar(rng);
  const auto sharing =
      poly::ShamirSharing<Group256>::split(g, secret, 3, points, rng);
  EXPECT_EQ(sharing.reconstruct(g, 3), secret);
  EXPECT_EQ(sharing.reconstruct(g, 5), secret);
}

TEST(GenericBackend, FeldmanOnGroup256) {
  const Group256& g = big();
  auto rng = crypto::ChaChaRng::from_seed(4);
  std::vector<U256> points;
  while (points.size() < 4) {
    auto candidate = g.random_nonzero_scalar(rng);
    if (std::find(points.begin(), points.end(), candidate) == points.end())
      points.push_back(candidate);
  }
  const auto secret = g.random_scalar(rng);
  auto sharing =
      crypto::FeldmanSharing<Group256>::deal(g, secret, 2, points, rng);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_TRUE(sharing.verify(g, i));
  EXPECT_EQ(sharing.reconstruct(g, 2), secret);
  sharing.shares[0] = g.sadd(sharing.shares[0], g.sone());
  EXPECT_FALSE(sharing.verify(g, 0));
}

TEST(GenericBackend, MultiUnitOnGroup256) {
  const auto params = proto::PublicParams<Group256>::make(big(), 6, 1, 1, 5);
  const std::vector<mech::Cost> bids{3, 1, 4, 2, 4, 1};
  const auto outcome = proto::run_multiunit_auction(params, bids, 2);
  const auto reference = proto::reference_multiunit(bids, 2);
  ASSERT_TRUE(outcome.resolved);
  EXPECT_EQ(outcome.winners, reference.winners);
  EXPECT_EQ(outcome.clearing_price, reference.clearing_price);
}

// Protocol-level invariants over random instances, both backends where
// cheap enough.
class InvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantSweep, OutcomeInvariantsHold) {
  const std::uint64_t seed = GetParam();
  Xoshiro256ss rng(seed);
  const std::size_t n = 4 + rng.below(6);
  const std::size_t m = 1 + rng.below(4);
  const std::size_t c = 1 + rng.below(std::min<std::size_t>(3, n - 3));
  const auto params = proto::PublicParams<Group64>::make(
      Group64::test_group(), n, m, c, seed);
  const auto instance =
      mech::make_uniform_instance(n, m, params.bid_set(), rng);
  const auto outcome = proto::run_honest_dmw(params, instance);
  ASSERT_FALSE(outcome.aborted) << "seed " << seed;

  // Invariant 1: schedule is a valid partition.
  outcome.schedule.validate(instance);
  std::uint64_t total_payments = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t w = outcome.schedule.agent_for(j);
    // Invariant 2: the winner quoted the task's minimum cost.
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_GE(instance.cost[i][j], instance.cost[w][j]);
    // Invariant 3: first <= second price, both in W.
    EXPECT_LE(outcome.first_prices[j], outcome.second_prices[j]);
    EXPECT_TRUE(params.bid_set().contains(outcome.first_prices[j]));
    EXPECT_TRUE(params.bid_set().contains(outcome.second_prices[j]));
    EXPECT_EQ(outcome.first_prices[j], instance.cost[w][j]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    total_payments += outcome.payments[i];
    // Invariant 4: non-negative utility (voluntary participation).
    EXPECT_GE(outcome.utility(instance, i), 0);
    // Invariant 5: agents with no tasks receive no payment.
    if (outcome.schedule.tasks_for(i).empty()) {
      EXPECT_EQ(outcome.payments[i], 0u);
    }
  }
  // Invariant 6: total payments = sum of second prices.
  std::uint64_t expected = 0;
  for (auto p : outcome.second_prices) expected += p;
  EXPECT_EQ(total_payments, expected);
  // Invariant 7: transcripts agree (single consistent broadcast).
  EXPECT_TRUE(outcome.transcripts_consistent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSweep,
                         ::testing::Range<std::uint64_t>(5000, 5025));

}  // namespace
}  // namespace dmw
