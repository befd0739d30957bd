// DMW public parameters: validation, bid/degree encoding, pseudonyms.
#include <gtest/gtest.h>

#include "dmw/params.hpp"

namespace dmw::proto {
namespace {

using num::Group64;

const Group64& grp() { return Group64::test_group(); }

TEST(Params, MakeChoosesLargestAdmissibleBidSet) {
  const auto params = PublicParams<Group64>::make(grp(), 8, 2, 2, 1);
  // w_k = n - c - 1 = 5, sigma = w_k + c + 1 = 8 = n.
  EXPECT_EQ(params.bid_set().max(), 5u);
  EXPECT_EQ(params.sigma(), 8u);
  EXPECT_EQ(params.n(), 8u);
  EXPECT_EQ(params.m(), 2u);
  EXPECT_EQ(params.c(), 2u);
}

TEST(Params, DegreeEncodingIsInverseMap) {
  const auto params = PublicParams<Group64>::make(grp(), 8, 1, 2, 1);
  for (mech::Cost bid : params.bid_set().values()) {
    const std::size_t degree = params.degree_for_bid(bid);
    EXPECT_EQ(params.bid_for_degree(degree), bid);
    EXPECT_TRUE(params.degree_is_valid_bid(degree));
    // Small bids -> large degrees, always above the collusion padding c.
    EXPECT_GE(degree, params.c() + 1);
    EXPECT_LT(degree, params.sigma());
  }
}

TEST(Params, SmallerBidsGetLargerDegrees) {
  const auto params = PublicParams<Group64>::make(grp(), 10, 1, 2, 1);
  const auto& w = params.bid_set().values();
  for (std::size_t i = 1; i < w.size(); ++i)
    EXPECT_LT(params.degree_for_bid(w[i]), params.degree_for_bid(w[i - 1]));
}

TEST(Params, RejectsBidsOutsideW) {
  const auto params = PublicParams<Group64>::make(grp(), 6, 1, 1, 1);
  EXPECT_THROW(params.degree_for_bid(0), CheckError);
  EXPECT_THROW(params.degree_for_bid(99), CheckError);
  EXPECT_FALSE(params.degree_is_valid_bid(params.sigma()));
  EXPECT_FALSE(params.degree_is_valid_bid(0));  // degree 0 = bid sigma > w_k
}

TEST(Params, PseudonymsAreDistinctSortedNonzero) {
  const auto params = PublicParams<Group64>::make(grp(), 12, 1, 3, 42);
  const auto& alphas = params.pseudonyms();
  ASSERT_EQ(alphas.size(), 12u);
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    EXPECT_NE(alphas[i], 0u);
    if (i > 0) {
      EXPECT_LT(alphas[i - 1], alphas[i]);
    }
  }
}

TEST(Params, PseudonymsDeterministicInSeed) {
  const auto a = PublicParams<Group64>::make(grp(), 6, 1, 1, 5);
  const auto b = PublicParams<Group64>::make(grp(), 6, 1, 1, 5);
  const auto c = PublicParams<Group64>::make(grp(), 6, 1, 1, 6);
  EXPECT_EQ(a.pseudonyms(), b.pseudonyms());
  EXPECT_NE(a.pseudonyms(), c.pseudonyms());
}

TEST(Params, ValidatesBidSetBound) {
  // w_k <= n - c - 1 (DESIGN.md erratum): W = {1..5} needs n >= c + 6.
  EXPECT_NO_THROW(PublicParams<Group64>::with_bid_set(
      grp(), 8, 1, 2, mech::BidSet::iota(5), 1));
  EXPECT_THROW(PublicParams<Group64>::with_bid_set(
                   grp(), 7, 1, 2, mech::BidSet::iota(5), 1),
               CheckError);
}

TEST(Params, RequiresMinimumAgents) {
  EXPECT_THROW(PublicParams<Group64>::make(grp(), 2, 1, 1, 1), CheckError);
  EXPECT_NO_THROW(PublicParams<Group64>::make(grp(), 3, 1, 1, 1));
}

TEST(Params, CMustBeLessThanN) {
  EXPECT_THROW(PublicParams<Group64>::make(grp(), 4, 1, 4, 1), CheckError);
}

TEST(Params, DescribeMentionsKeyNumbers) {
  const auto params = PublicParams<Group64>::make(grp(), 6, 3, 1, 1);
  const auto text = params.describe();
  EXPECT_NE(text.find("n=6"), std::string::npos);
  EXPECT_NE(text.find("m=3"), std::string::npos);
  EXPECT_NE(text.find("sigma="), std::string::npos);
}

}  // namespace
}  // namespace dmw::proto
