// Multi-unit spectrum-style auction on the DMW substrate.
//
// DMW descends from a distributed (M+1)st-price auction protocol (paper
// reference [23]); this example runs that ancestor construction on the same
// cryptographic machinery: a regulator sells M identical licenses, each
// bidder wants one, the M highest bidders win and all pay the
// (M+1)st-highest bid — the uniform-price rule that makes truthful bidding
// dominant.
#include <cstdio>

#include "dmw/multiunit.hpp"
#include "exp/table.hpp"

int main() {
  using dmw::exp::Table;
  using dmw::num::Group64;
  using dmw::proto::PublicParams;

  const std::size_t bidders = 10, licenses = 3;
  const auto params = PublicParams<Group64>::make(
      Group64::test_group(), bidders, /*m_tasks=*/1, /*max_faulty=*/2,
      /*seed=*/1912);
  std::printf("selling %zu licenses to %zu bidders, bids from W = {1..%u}\n",
              licenses, bidders, params.bid_set().max());
  std::printf("%s\n\n", params.group().describe().c_str());

  // Private valuations (truthful bids are dominant under uniform pricing).
  const std::vector<dmw::mech::Cost> valuations{4, 7, 2, 6, 1, 7, 3, 5, 2, 4};
  Table bids_table({"bidder", "valuation (= bid)"});
  for (std::size_t i = 0; i < bidders; ++i)
    bids_table.row({std::string(1, 'B').append(std::to_string(i + 1)),
                    Table::num(std::uint64_t{valuations[i]})});
  bids_table.print();

  const auto outcome =
      dmw::proto::run_multiunit_auction(params, valuations, licenses);
  if (!outcome.resolved) {
    std::printf("auction failed to resolve\n");
    return 1;
  }

  std::printf("\nresults (uniform clearing price %u):\n",
              outcome.clearing_price);
  Table winners({"rank", "winner", "bid", "pays", "surplus"});
  for (std::size_t r = 0; r < outcome.winners.size(); ++r) {
    const std::size_t w = outcome.winners[r];
    winners.row({Table::num(r + 1),
                 std::string(1, 'B').append(std::to_string(w + 1)),
                 Table::num(std::uint64_t{outcome.revealed_bids[r]}),
                 Table::num(std::uint64_t{outcome.clearing_price}),
                 Table::num(std::uint64_t{valuations[w]} -
                            std::uint64_t{outcome.clearing_price})});
  }
  winners.print();

  const auto reference =
      dmw::proto::reference_multiunit(valuations, licenses);
  std::printf("\nmatches the sorted reference outcome: %s\n",
              (outcome.winners == reference.winners &&
               outcome.clearing_price == reference.clearing_price)
                  ? "yes"
                  : "NO");
  std::printf("disclosure: the top %zu bids and the clearing price are "
              "revealed; all losing bids below the clearing price stay "
              "hidden behind the secret sharing.\n",
              licenses);
  return 0;
}
