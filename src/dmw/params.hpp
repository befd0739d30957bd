// DMW public parameters (paper §3, Phase I: Initialization).
//
// Published before the run: the Schnorr group (p, q, z1, z2), the maximum
// number of faulty agents c, the pseudonym set A = {alpha_1 < ... < alpha_n}
// (distinct nonzero elements of Z_q), and the discrete bid set
// W = {w_1 < ... < w_k}. The degree bound is sigma = w_k + c + 1; a bid y is
// encoded as a polynomial of degree tau = sigma - y (small bids -> large
// degrees), so at least c+1 shares are needed to expose even the weakest
// bid.
//
// Erratum applied (see DESIGN.md): the paper requires w_k < n - c + 1; with
// the corrected degree-resolution index (deg = s_min - 1) the resolvable
// bound is w_k <= n - c - 1, which validate() enforces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/chacha.hpp"
#include "mech/problem.hpp"
#include "numeric/group.hpp"
#include "poly/lagrange.hpp"
#include "support/check.hpp"

namespace dmw::proto {

template <dmw::num::GroupBackend G>
class PublicParams {
 public:
  using Scalar = typename G::Scalar;

  /// `pseudonyms` must be strictly increasing (by scalar value) so the
  /// "smallest pseudonym wins" tie-break (III.3) coincides with agent-index
  /// order; factories below guarantee this.
  PublicParams(G group, std::size_t n_agents, std::size_t m_tasks,
               std::size_t max_faulty, mech::BidSet bid_set,
               std::vector<Scalar> pseudonyms, bool crash_tolerant = false)
      : group_(std::move(group)),
        n_(n_agents),
        m_(m_tasks),
        c_(max_faulty),
        crash_tolerant_(crash_tolerant),
        bid_set_(std::move(bid_set)),
        pseudonyms_(std::move(pseudonyms)) {
    validate();
    build_pseudonym_powers();
    prefix_bases_ = poly::lagrange_prefix_bases(
        group_, std::span<const Scalar>(pseudonyms_));
  }

  /// Standard construction: W = {1..k_max} with the largest k admissible for
  /// (n, c), pseudonyms derived deterministically from `seed`.
  static PublicParams make(G group, std::size_t n_agents, std::size_t m_tasks,
                           std::size_t max_faulty, std::uint64_t seed) {
    DMW_REQUIRE_MSG(n_agents >= max_faulty + 2,
                    "need n >= c + 2 for a non-empty bid set");
    const auto k_max = static_cast<mech::Cost>(n_agents - max_faulty - 1);
    return with_bid_set(std::move(group), n_agents, m_tasks, max_faulty,
                        mech::BidSet::iota(k_max), seed);
  }

  static PublicParams with_bid_set(G group, std::size_t n_agents,
                                   std::size_t m_tasks, std::size_t max_faulty,
                                   mech::BidSet bid_set, std::uint64_t seed,
                                   bool crash_tolerant = false) {
    std::vector<Scalar> pseudonyms =
        derive_pseudonyms(group, n_agents, seed);
    return PublicParams(std::move(group), n_agents, m_tasks, max_faulty,
                        std::move(bid_set), std::move(pseudonyms),
                        crash_tolerant);
  }

  /// Crash-tolerant construction (paper Open Problem 11): the protocol
  /// completes as long as at most c agents go silent. Tolerating c missing
  /// resolution points tightens the bid-set bound to w_k <= n - 2c - 1
  /// (deg E + 1 <= n - c must remain resolvable), so this mode trades bid
  /// granularity for availability.
  static PublicParams make_crash_tolerant(G group, std::size_t n_agents,
                                          std::size_t m_tasks,
                                          std::size_t max_faulty,
                                          std::uint64_t seed) {
    DMW_REQUIRE_MSG(n_agents >= 2 * max_faulty + 2,
                    "crash tolerance needs n >= 2c + 2");
    const auto k_max =
        static_cast<mech::Cost>(n_agents - 2 * max_faulty - 1);
    return with_bid_set(std::move(group), n_agents, m_tasks, max_faulty,
                        mech::BidSet::iota(k_max), seed,
                        /*crash_tolerant=*/true);
  }

  const G& group() const { return group_; }
  std::size_t n() const { return n_; }
  std::size_t m() const { return m_; }
  std::size_t c() const { return c_; }
  /// True when the run must survive up to c silent (crashed) agents
  /// instead of aborting on the first missing message.
  bool crash_tolerant() const { return crash_tolerant_; }
  /// True (the default) when agents fold each task's Phase III commitment
  /// checks into one random-linear-combination batch (dmw/batchverify.hpp)
  /// instead of verifying them one at a time. Outcome-invariant either way:
  /// a failed batch falls back to the sequential scan for attribution, so
  /// every Outcome/AbortReason byte matches the one-at-a-time ablation.
  bool batch_verify() const { return batch_verify_; }
  void set_batch_verify(bool on) { batch_verify_ = on; }
  /// True when protocol runners should switch on the process-wide dmwtrace
  /// tracer (support/trace.hpp) when they are constructed. Off by default:
  /// the spans stay compiled in, at the cost of one predicted branch each
  /// and no allocation. Enabling is one-way — the caller that turned
  /// tracing on (e.g. dmw_sim --trace-out) owns disabling and exporting.
  bool tracing() const { return tracing_; }
  void set_tracing(bool on) { tracing_ = on; }
  /// Lane-grouping policy for the vectorized Montgomery tier
  /// (numeric/simd.hpp): kAuto (the default) engages the lane engine when
  /// the host has a vector ISA, kOn forces it (portable kernels included),
  /// kOff pins the historical scalar paths. Outcome-, abort-stream- and
  /// RunReport-invariant in every mode — the lane engine performs the same
  /// counted multiplications, just grouped (montlane.hpp contract). Set
  /// before the params are shared across threads, like every other knob.
  dmw::num::simd::SimdMode simd() const { return group_.simd_mode(); }
  void set_simd(dmw::num::simd::SimdMode mode) { group_.set_simd_mode(mode); }
  /// Smallest number of participating agents the protocol can finish with.
  std::size_t quorum() const { return n_ - (crash_tolerant_ ? c_ : 0); }
  const mech::BidSet& bid_set() const { return bid_set_; }
  const std::vector<Scalar>& pseudonyms() const { return pseudonyms_; }
  const Scalar& pseudonym(std::size_t agent) const {
    DMW_REQUIRE(agent < n_);
    return pseudonyms_[agent];
  }

  /// Power table pseudonym_powers(k)[l] = alpha_k^{l+1} for l in [0, sigma).
  /// Every Phase III check walks these powers for every task; building the
  /// n x sigma table once here (instead of per (agent, task) in the hot
  /// steps) amortizes the setup across the m auctions. Built in the
  /// constructor and immutable afterwards, so protocol workers share it
  /// read-only — the cache-sharing contract the parallel engine relies on
  /// (DESIGN.md "Parallel execution model").
  const std::vector<Scalar>& pseudonym_powers(std::size_t agent) const {
    DMW_REQUIRE(agent < n_);
    return pseudonym_powers_[agent];
  }

  /// Lagrange bases at zero for every prefix of the pseudonym set:
  /// prefix_bases()[s-1] is the basis of the first s pseudonyms. Degree
  /// resolution (Eq. 12) probes prefix s against basis s whenever all n
  /// agents contributed a point, and multi-unit winner identification
  /// interpolates over a pseudonym prefix. The bases depend only on the
  /// public parameters, so they are built here once (one batched inversion
  /// per prefix) and shared read-only under the same contract as
  /// pseudonym_powers.
  const poly::LagrangePrefixBases<G>& prefix_bases() const {
    return prefix_bases_;
  }

  /// sigma = w_k + c + 1 (paper II.1): the degree of every masking
  /// polynomial and of every product polynomial e*f.
  std::size_t sigma() const { return bid_set_.max() + c_ + 1; }

  /// tau = sigma - y: the degree encoding bid y.
  std::size_t degree_for_bid(mech::Cost bid) const {
    DMW_REQUIRE_MSG(bid_set_.contains(bid), "bid not in published set W");
    return sigma() - bid;
  }

  /// Inverse map; `degree` must correspond to some bid in W.
  mech::Cost bid_for_degree(std::size_t degree) const {
    DMW_REQUIRE(degree < sigma());
    const auto bid = static_cast<mech::Cost>(sigma() - degree);
    DMW_REQUIRE_MSG(bid_set_.contains(bid), "degree encodes no bid in W");
    return bid;
  }

  bool degree_is_valid_bid(std::size_t degree) const {
    return degree < sigma() &&
           bid_set_.contains(static_cast<mech::Cost>(sigma() - degree));
  }

  std::string describe() const {
    std::string out = "DMW params: n=" + std::to_string(n_) +
                      " m=" + std::to_string(m_) + " c=" + std::to_string(c_) +
                      " sigma=" + std::to_string(sigma()) +
                      " |W|=" + std::to_string(bid_set_.size()) + "; " +
                      group_.describe();
    return out;
  }

 private:
  void validate() const {
    DMW_REQUIRE(n_ >= 2);
    DMW_REQUIRE(m_ >= 1);
    DMW_REQUIRE_MSG(c_ < n_, "c must be < n (paper: c < n)");
    DMW_REQUIRE_MSG(bid_set_.max() + c_ + 1 <= n_,
                    "w_k <= n - c - 1 required for degree resolution "
                    "with n shares (DESIGN.md erratum)");
    if (crash_tolerant_) {
      DMW_REQUIRE_MSG(bid_set_.max() + 2 * c_ + 1 <= n_,
                      "crash tolerance requires w_k <= n - 2c - 1 so the "
                      "degree resolves from n - c surviving points");
    }
    DMW_REQUIRE(pseudonyms_.size() == n_);
    for (std::size_t i = 0; i < n_; ++i) {
      DMW_REQUIRE_MSG(pseudonyms_[i] != group_.szero(),
                      "pseudonyms must be nonzero");
      if (i > 0) {
        DMW_REQUIRE_MSG(pseudonyms_[i - 1] < pseudonyms_[i],
                        "pseudonyms must be strictly increasing");
      }
    }
  }

  void build_pseudonym_powers() {
    pseudonym_powers_.resize(n_);
    const std::size_t width = sigma();
    for (std::size_t k = 0; k < n_; ++k) {
      auto& row = pseudonym_powers_[k];
      row.resize(width);
      Scalar power = pseudonyms_[k];
      for (std::size_t l = 0; l < width; ++l) {
        row[l] = power;
        power = group_.smul(power, pseudonyms_[k]);
      }
    }
  }

  static std::vector<Scalar> derive_pseudonyms(const G& group, std::size_t n,
                                               std::uint64_t seed) {
    // Deterministic, collision-free draw from Z_q^*, sorted ascending so the
    // smallest-pseudonym tie-break equals index order.
    crypto::ChaChaRng rng =
        crypto::ChaChaRng::from_seed(seed, /*stream=*/0x70736575646f);
    std::vector<Scalar> out;
    out.reserve(n);
    while (out.size() < n) {
      Scalar candidate = group.random_nonzero_scalar(rng);
      if (std::find(out.begin(), out.end(), candidate) == out.end())
        out.push_back(candidate);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  G group_;
  std::size_t n_, m_, c_;
  bool crash_tolerant_ = false;
  bool batch_verify_ = true;
  bool tracing_ = false;
  mech::BidSet bid_set_;
  std::vector<Scalar> pseudonyms_;
  std::vector<std::vector<Scalar>> pseudonym_powers_;  // [agent][l] = a^{l+1}
  poly::LagrangePrefixBases<G> prefix_bases_;
};

}  // namespace dmw::proto
