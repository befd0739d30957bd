// The Vickrey auction and the centralized MinWork mechanism
// (paper Definition 5, Theorem 2 and the Table 1 cost remarks).
#include <gtest/gtest.h>

#include "mech/minwork.hpp"
#include "mech/opt.hpp"
#include "mech/truthful.hpp"

namespace dmw::mech {
namespace {

TEST(Vickrey, WinnerAndPrices) {
  const auto out = run_vickrey({5, 2, 9, 4});
  EXPECT_EQ(out.winner, 1u);
  EXPECT_EQ(out.first_price, 2u);
  EXPECT_EQ(out.second_price, 4u);
  EXPECT_FALSE(out.tie);
}

TEST(Vickrey, TieGoesToSmallestIndex) {
  const auto out = run_vickrey({3, 1, 1, 5});
  EXPECT_EQ(out.winner, 1u);
  EXPECT_EQ(out.first_price, 1u);
  EXPECT_EQ(out.second_price, 1u);
  EXPECT_TRUE(out.tie);
}

TEST(Vickrey, TwoBidders) {
  const auto out = run_vickrey({7, 3});
  EXPECT_EQ(out.winner, 1u);
  EXPECT_EQ(out.second_price, 7u);
}

TEST(Vickrey, AllEqualBids) {
  const auto out = run_vickrey({4, 4, 4});
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(out.second_price, 4u);
  EXPECT_TRUE(out.tie);
}

TEST(Vickrey, RequiresTwoBidders) {
  EXPECT_THROW(run_vickrey({1}), CheckError);
}

TEST(MinWork, AllocationIsArgmin) {
  Xoshiro256ss rng(80);
  const auto instance = make_uniform_instance(5, 6, BidSet::iota(3), rng);
  const auto out = run_minwork(instance);
  out.schedule.validate(instance);
  for (std::size_t j = 0; j < instance.m; ++j) {
    const std::size_t w = out.schedule.agent_for(j);
    for (std::size_t i = 0; i < instance.n; ++i) {
      EXPECT_GE(instance.cost[i][j], instance.cost[w][j]);
      if (instance.cost[i][j] == instance.cost[w][j]) {
        EXPECT_GE(i, w);  // smallest-index tie-break
      }
    }
  }
}

TEST(MinWork, PaymentsAreSecondPrices) {
  SchedulingInstance instance{3, 2, {{1, 5}, {2, 4}, {3, 3}}};
  const auto out = run_minwork(instance);
  // T1 -> A1 (pays 2), T2 -> A3 (pays 4).
  EXPECT_EQ(out.schedule.agent_for(0), 0u);
  EXPECT_EQ(out.schedule.agent_for(1), 2u);
  EXPECT_EQ(out.payments, (std::vector<std::uint64_t>{2, 0, 4}));
}

TEST(MinWork, MinimizesTotalWork) {
  // MinWork's allocation minimizes total work over all schedules: verify
  // by exhaustive enumeration on a small instance.
  Xoshiro256ss rng(81);
  const auto instance = make_uniform_instance(3, 4, BidSet::iota(4), rng);
  const auto out = run_minwork(instance);
  const std::uint64_t minwork_total = out.schedule.total_work(instance);
  for (std::size_t code = 0; code < 81; ++code) {  // 3^4 assignments
    std::size_t c = code;
    std::vector<std::size_t> assign(4);
    for (auto& a : assign) {
      a = c % 3;
      c /= 3;
    }
    EXPECT_LE(minwork_total, Schedule(assign).total_work(instance));
  }
}

TEST(MinWork, TruthfulUtilityIsNonNegative) {
  // Voluntary participation (Definition 4).
  Xoshiro256ss rng(82);
  for (int trial = 0; trial < 20; ++trial) {
    const auto instance = make_uniform_instance(4, 3, BidSet::iota(3), rng);
    const auto bids = truthful_bids(instance);
    for (std::size_t i = 0; i < instance.n; ++i)
      EXPECT_GE(minwork_utility(instance, bids, i), 0);
  }
}

TEST(MinWork, CostAccountingShape) {
  Xoshiro256ss rng(83);
  const auto small = run_minwork(make_uniform_instance(4, 2, BidSet::iota(2), rng));
  const auto large = run_minwork(make_uniform_instance(8, 4, BidSet::iota(2), rng));
  // Θ(mn) elementary operations: m * (2(n-1) + 1).
  EXPECT_EQ(small.comparisons, 2u * (2 * 3 + 1));
  EXPECT_EQ(large.comparisons, 4u * (2 * 7 + 1));
  EXPECT_EQ(small.message_count, 8u);   // 2n
  EXPECT_EQ(large.message_count, 16u);
}

TEST(MinWork, NApproximationBoundHolds) {
  // Theorem (Nisan-Ronen): MinWork makespan <= n * OPT makespan.
  Xoshiro256ss rng(84);
  for (int trial = 0; trial < 10; ++trial) {
    const auto instance = make_uniform_instance(4, 6, BidSet::iota(3), rng);
    const auto mw = run_minwork(instance);
    const auto opt = optimal_makespan(instance);
    EXPECT_LE(mw.schedule.makespan(instance), instance.n * opt.makespan);
  }
}

TEST(MinWork, WorstCaseApproachesFactorN) {
  // The adversarial instance drives the ratio to ~n (for m = n tasks).
  const std::size_t n = 4;
  const auto instance = make_minwork_worst_case(n, n, BidSet::iota(3));
  const auto mw = run_minwork(instance);
  const auto opt = optimal_makespan(instance);
  const double ratio = static_cast<double>(mw.schedule.makespan(instance)) /
                       static_cast<double>(opt.makespan);
  EXPECT_GE(ratio, static_cast<double>(n) / 2.0);
  EXPECT_LE(ratio, static_cast<double>(n));
}

TEST(MinWork, RejectsDegenerateInput) {
  EXPECT_THROW(run_minwork(BidMatrix{{1, 2}}), CheckError);       // 1 agent
  EXPECT_THROW(run_minwork(BidMatrix{{1, 2}, {1}}), CheckError);  // ragged
}

}  // namespace
}  // namespace dmw::mech
