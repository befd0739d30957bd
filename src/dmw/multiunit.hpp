// Multi-unit (M+1)st-price auction on the DMW substrate.
//
// DMW "is based on the ideas presented in [23] where a distributed
// (M+1)st-price auction is implemented by a set of auctioneers" (paper
// §1.2/§3). This module closes the loop: the same degree-encoded secret
// sharing, Lambda aggregation and iterative winner reduction implement the
// ancestor construction — M identical units sold to the M highest bidders,
// all paying the (M+1)st-highest bid (uniform-price Vickrey, truthful).
//
// Construction: a *value* bid v in W is mapped to the cost domain by
// reversal (cost = max(W)+1-v), so "lowest cost" resolution finds the
// *highest* value. Each of the M winner rounds resolves the current best
// bid, identifies the winner through its f polynomial (Eq. 14) and divides
// the winner's e out of the aggregate (Eq. 15); the final resolution after
// M reductions yields the clearing price.
//
// Privacy note: unlike Kikuchi's one-shot (M+1)st-price resolution, the
// iterative reduction reveals the sorted top M bids, not just the clearing
// price. This is the same intrinsic disclosure DMW accepts for its winner
// (Remark after Thm. 10), compounded M times; the tests quantify it.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "crypto/chacha.hpp"
#include "dmw/params.hpp"
#include "dmw/polycommit.hpp"
#include "poly/lagrange.hpp"
#include "support/trace.hpp"

namespace dmw::proto {

struct MultiUnitOutcome {
  bool resolved = false;
  std::vector<std::size_t> winners;       ///< M winners, highest bid first
  std::vector<mech::Cost> revealed_bids;  ///< their bids (disclosed by design)
  mech::Cost clearing_price = 0;          ///< the (M+1)st-highest bid
};

/// Run the auction over the cryptographic pipeline (shares, exponent-domain
/// resolution, f-interpolation, reduction). `value_bids[i]` in W; higher
/// wins. Requires units < n.
template <dmw::num::GroupBackend G>
MultiUnitOutcome run_multiunit_auction(const PublicParams<G>& params,
                                       const std::vector<mech::Cost>& value_bids,
                                       std::size_t units,
                                       std::uint64_t seed = 0x4d31) {
  DMW_SPAN("multiunit/run");
  const G& g = params.group();
  const std::size_t n = params.n();
  DMW_REQUIRE(value_bids.size() == n);
  DMW_REQUIRE_MSG(units >= 1 && units < n, "need 1 <= M < n bidders");
  const auto w_max = params.bid_set().max();

  // Reversal into the cost domain.
  std::vector<mech::Cost> cost_bids;
  cost_bids.reserve(n);
  for (mech::Cost v : value_bids) {
    DMW_REQUIRE_MSG(params.bid_set().contains(v), "bid not in W");
    cost_bids.push_back(static_cast<mech::Cost>(w_max + 1 - v));
    DMW_REQUIRE(params.bid_set().contains(cost_bids.back()));
  }

  // Phase II equivalent: sample polynomials, evaluate shares everywhere.
  auto rng = crypto::ChaChaRng::from_seed(seed);
  std::vector<BidPolynomials<G>> polys;
  polys.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    polys.push_back(BidPolynomials<G>::sample(params, cost_bids[i], rng));

  const auto& alphas = params.pseudonyms();
  // e-shares and f-shares: shares[i][k] = poly_i(alpha_k).
  std::vector<std::vector<typename G::Scalar>> e_shares(n), f_shares(n);
  for (std::size_t i = 0; i < n; ++i) {
    e_shares[i] = polys[i].e.eval_all(g, alphas);
    f_shares[i] = polys[i].f.eval_all(g, alphas);
  }

  MultiUnitOutcome outcome;
  std::vector<bool> excluded(n, false);

  for (std::size_t round = 0; round <= units; ++round) {
    DMW_SPAN("multiunit/winner_round", round);
    // Lambda_k = z1^{sum over remaining bidders of e_i(alpha_k)}.
    std::vector<typename G::Elem> lambdas;
    lambdas.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      typename G::Scalar sum = g.szero();
      for (std::size_t i = 0; i < n; ++i) {
        if (!excluded[i]) sum = g.sadd(sum, e_shares[i][k]);
      }
      lambdas.push_back(g.pow(g.z1(), sum));
    }
    const auto resolution =
        poly::resolve_degree_in_exponent(g, params.prefix_bases(), lambdas);
    if (!resolution.degree || !params.degree_is_valid_bid(*resolution.degree))
      return outcome;  // unresolved: leave resolved=false
    const mech::Cost best_cost = params.bid_for_degree(*resolution.degree);
    const auto best_value = static_cast<mech::Cost>(w_max + 1 - best_cost);

    if (round == units) {
      outcome.clearing_price = best_value;
      outcome.resolved = true;
      return outcome;
    }

    // Winner identification (Eq. 14): among the remaining bidders, the one
    // whose f interpolates to zero with best_cost+1 points; smallest
    // pseudonym wins ties.
    const std::size_t needed = best_cost + 1;
    DMW_CHECK(needed <= n);
    // Every candidate interpolates over the same leading `needed`
    // pseudonyms, whose Lagrange basis at zero PublicParams already holds;
    // per candidate only a dot product with its f-shares remains.
    const auto& rho = params.prefix_bases()[needed - 1];
    std::optional<std::size_t> winner;
    for (std::size_t candidate = 0; candidate < n && !winner; ++candidate) {
      if (excluded[candidate]) continue;
      typename G::Scalar at_zero = g.szero();
      for (std::size_t t = 0; t < needed; ++t)
        at_zero = g.sadd(at_zero, g.smul(f_shares[candidate][t], rho[t]));
      if (at_zero == g.szero()) winner = candidate;
    }
    if (!winner) return outcome;  // inconsistent state: unresolved

    outcome.winners.push_back(*winner);
    outcome.revealed_bids.push_back(best_value);
    excluded[*winner] = true;  // Eq. (15): divide the winner out
  }
  return outcome;  // unreachable
}

/// Reference outcome by sorting (for differential testing and as the
/// centralized baseline): winners are the `units` highest bidders
/// (smallest index on ties), price is the (units+1)-st highest bid.
inline MultiUnitOutcome reference_multiunit(
    const std::vector<mech::Cost>& value_bids, std::size_t units) {
  MultiUnitOutcome outcome;
  std::vector<std::size_t> order(value_bids.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return value_bids[a] > value_bids[b];
                   });
  for (std::size_t r = 0; r < units; ++r) {
    outcome.winners.push_back(order[r]);
    outcome.revealed_bids.push_back(value_bids[order[r]]);
  }
  outcome.clearing_price = value_bids[order[units]];
  outcome.resolved = true;
  return outcome;
}

}  // namespace dmw::proto
