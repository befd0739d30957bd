// Simultaneous multi-exponentiation (windowed Straus interleaving).
//
// DMW's verification identities all reduce to products of the form
// prod_l C_l^{x_l}; evaluating each factor independently costs one full
// exponentiation per term, while interleaving shares the squaring chain
// across all terms. The windowed variant decomposes every exponent into
// sliding-window digits (expwin.hpp) and keeps an odd-power table per base,
// so the shared chain costs one squaring per exponent bit total plus
// ~bits/(w+1) table multiplications per term — and the whole evaluation
// runs in the backend's multiplicative domain (Montgomery form for
// GroupBig), converting once per base on entry and once on exit.
//
// MultiExpCache separates the per-base table construction from the per-call
// digit work: DMW agents evaluate the *same* commitment vector at n
// different pseudonyms (commitment_eval in every Phase III check), so the
// tables amortize across all n evaluations. The ablation bench
// (bench_multiexp) measures the saving; correctness is tested against the
// naive product.
//
// multi_pow() is the dispatching entry point: it compares the Straus and
// Pippenger cost models (pippenger.hpp) per call and switches to the bucket
// method past the crossover length, so callers producing products of very
// different sizes (a sigma-term commitment evaluation vs. a 3*n*sigma-term
// RLC verification batch) all get the cheaper engine automatically.
// multi_pow_straus() pins the interleaving for benches and ablations.
//
// Thread-sharing contract: a MultiExpCache (and CommitmentEvalCache built on
// it) is immutable after construction; eval() is const and touches no
// mutable state. The parallel protocol driver keeps each cache local to the
// per-task step that built it — one worker, one task, one cache — so the
// PR-1 caches never serialize workers; sharing a built cache read-only
// across threads is also safe.
#pragma once

#include <algorithm>
#include <span>

#include "numeric/group.hpp"
#include "numeric/groupdom.hpp"
#include "numeric/pippenger.hpp"

namespace dmw::num {

// ---- multi-exponentiation --------------------------------------------------

/// Precomputed per-base odd-power tables for windowed Straus evaluation of
/// prod_j bases[j]^{e_j}, reusable across many exponent vectors. Building
/// the cache converts each base into the domain once and spends
/// 2^(w-1) domain multiplications per base; each eval() then costs one
/// shared squaring chain regardless of how many bases there are.
template <GroupBackend G>
class MultiExpCache {
 public:
  /// `max_exp_bits` bounds the exponents eval() will see (usually
  /// g.scalar_bits(): protocol exponents are scalars < q).
  MultiExpCache(const G& g, std::span<const typename G::Elem> bases,
                unsigned max_exp_bits)
      : ops_{&g},
        window_(multiexp_window_bits(max_exp_bits == 0 ? 1 : max_exp_bits)),
        stride_(std::size_t(1) << (window_ - 1)),
        count_(bases.size()) {
    if (lanes_profitable(g, count_)) {
      build_lanes(g, bases);
      return;
    }
    // All per-base odd-power tables in one flat allocation, stride_ apart.
    table_.reserve(count_ * stride_);
    for (const auto& b : bases) {
      const auto base = g.to_dom(b);
      table_.push_back(base);
      if (window_ > 1) {
        const auto sq = ops_.mul(base, base);
        for (std::size_t j = 1; j < stride_; ++j)
          table_.push_back(ops_.mul(table_.back(), sq));
      }
    }
  }

  std::size_t size() const { return count_; }
  unsigned window() const { return window_; }

  /// prod_j bases[j]^{exponents[j]} over the first exponents.size() bases
  /// (a shorter vector evaluates a prefix of the cache; degree resolution
  /// probes growing prefixes of one table).
  typename G::Elem eval(
      std::span<const typename G::Scalar> exponents) const {
    DMW_REQUIRE(exponents.size() <= count_);
    const G& g = *ops_.g;
    unsigned max_bits = 0;
    for (const auto& e : exponents)
      max_bits = std::max(max_bits, scalar_bit_length(g, e));
    if (max_bits == 0) return g.identity();
    // Decompose every exponent into sliding-window digits, bucket them by
    // descending bit position with one counting pass, and run one shared
    // squaring chain. Counting beats comparison sorting here because a long
    // product (an RLC verification batch folds thousands of digits) spends
    // more time ordering the schedule than multiplying; positions are small
    // integers (< max_bits), so placement is two linear passes.
    std::vector<u64> packed;  // pos << 32 | flat table index, per digit
    packed.reserve(exponents.size() * (max_bits / (window_ + 1) + 1));
    std::vector<WindowDigit> digits;
    for (std::size_t j = 0; j < exponents.size(); ++j) {
      digits.clear();
      decompose_windows(exponents[j], window_, digits);
      for (const WindowDigit& d : digits)
        packed.push_back((static_cast<u64>(d.pos) << 32) |
                         (j * stride_ + (d.value - 1) / 2));
    }
    std::vector<unsigned> count_at(max_bits, 0);
    for (u64 pd : packed) ++count_at[pd >> 32];
    // slot[p] = number of digits at strictly higher positions (descending
    // placement order); the placement loop advances each slot through its
    // position's slice.
    std::vector<unsigned> slot(max_bits, 0);
    {
      unsigned run = 0;
      for (unsigned b = max_bits; b-- > 0;) {
        slot[b] = run;
        run += count_at[b];
      }
    }
    std::vector<unsigned> ordered(packed.size());
    for (u64 pd : packed)
      ordered[slot[pd >> 32]++] = static_cast<unsigned>(pd);
    std::size_t next = 0;
    typename G::Dom acc = ops_.one();
    for (unsigned b = max_bits; b-- > 0;) {
      if (b + 1 < max_bits) acc = ops_.mul(acc, acc);
      for (unsigned t = 0; t < count_at[b]; ++t)
        acc = ops_.mul(acc, table_[ordered[next++]]);
    }
    return g.from_dom(acc);
  }

 private:
  /// Lane-grouped table build: domain conversions, the per-base squarings,
  /// and each odd-power chain step are independent across bases, so the
  /// lane engine retires them kLanes bases at a time. The multiset of
  /// multiplications — one conversion, one squaring, stride_-1 chain muls
  /// per base — is exactly the scalar build's, so OpCounts and every table
  /// entry are bit-identical; only the execution grouping changes.
  void build_lanes(const G& g, std::span<const typename G::Elem> bases) {
    const auto lanes = make_lane_engine(g);
    std::vector<typename G::Dom> col(count_), sq, next;
    lanes.to_mont_lanes(bases.data(), col.data(), count_);
    table_.resize(count_ * stride_);
    for (std::size_t j = 0; j < count_; ++j) table_[j * stride_] = col[j];
    if (window_ <= 1) return;
    sq.resize(count_);
    next.resize(count_);
    lanes.mul_lanes(col.data(), col.data(), sq.data(), count_);
    for (std::size_t k = 1; k < stride_; ++k) {
      lanes.mul_lanes(col.data(), sq.data(), next.data(), count_);
      col.swap(next);
      for (std::size_t j = 0; j < count_; ++j)
        table_[j * stride_ + k] = col[j];
    }
  }

  GroupDomOps<G> ops_;
  unsigned window_;
  std::size_t stride_;  ///< table entries per base (2^(w-1))
  std::size_t count_;   ///< number of bases
  std::vector<typename G::Dom> table_;
};

/// prod_j bases[j]^{exponents[j]}, windowed Straus interleaving.
template <GroupBackend G>
typename G::Elem multi_pow_straus(
    const G& g, std::span<const typename G::Elem> bases,
    std::span<const typename G::Scalar> exponents) {
  DMW_REQUIRE(bases.size() == exponents.size());
  if (bases.empty()) return g.identity();
  unsigned max_bits = 0;
  for (const auto& e : exponents)
    max_bits = std::max(max_bits, scalar_bit_length(g, e));
  return MultiExpCache<G>(g, bases, max_bits).eval(exponents);
}

/// prod_j bases[j]^{exponents[j]}: picks windowed Straus or the Pippenger
/// bucket method (pippenger.hpp) by comparing their cost models on the
/// product's shape — short products keep the interleaving, long ones (RLC
/// verification batches) switch to buckets past the crossover length.
template <GroupBackend G>
typename G::Elem multi_pow(const G& g,
                           std::span<const typename G::Elem> bases,
                           std::span<const typename G::Scalar> exponents) {
  DMW_REQUIRE(bases.size() == exponents.size());
  if (bases.empty()) return g.identity();
  unsigned max_bits = 0;
  for (const auto& e : exponents)
    max_bits = std::max(max_bits, scalar_bit_length(g, e));
  if (multi_pow_prefers_pippenger(bases.size(), max_bits))
    return multi_pow_pippenger(g, bases, exponents);
  return MultiExpCache<G>(g, bases, max_bits).eval(exponents);
}

/// Naive reference: independent exponentiations multiplied together
/// (differential-testing oracle and the bench_multiexp ablation baseline).
template <GroupBackend G>
typename G::Elem multi_pow_naive(const G& g,
                                 std::span<const typename G::Elem> bases,
                                 std::span<const typename G::Scalar> exponents) {
  DMW_REQUIRE(bases.size() == exponents.size());
  typename G::Elem acc = g.identity();
  for (std::size_t j = 0; j < bases.size(); ++j)
    acc = g.mul(acc, g.pow(bases[j], exponents[j]));
  return acc;
}

/// Batched *independent* exponentiations out[j] = bases[j]^{exponents[j]}
/// — no product, no shared squaring chain; the batched counterpart of
/// calling g.pow in a loop. The cost model picks the lane engine when the
/// group's SimdMode engages and at least one full lane group of same-
/// modulus exponentiations exists (lanes_profitable); otherwise the scalar
/// ladder runs — same values, same OpCounts (montlane.hpp contract), so
/// callers may switch freely. This is the Phase III share-verify shape:
/// many independent pows against one modulus.
template <GroupBackend G>
std::vector<typename G::Elem> multi_pow_batched(
    const G& g, std::span<const typename G::Elem> bases,
    std::span<const typename G::Scalar> exponents) {
  DMW_REQUIRE(bases.size() == exponents.size());
  std::vector<typename G::Elem> out(bases.size());
  if (bases.empty()) return out;
  const MontLane<typename GroupLaneCtx<G>::Ctx> lane{
      g.mont(), lanes_profitable(g, bases.size())};
  lane.pow_lanes(bases.data(), exponents.data(), out.data(), bases.size());
  return out;
}

}  // namespace dmw::num
