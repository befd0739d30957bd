// Windowed exponentiation engine: randomized cross-checks of the windowed
// pow / fixed-base commit / windowed multi-exponentiation paths against the
// naive implementations, on both group backends, plus decomposition
// invariants, edge cases, and the op-count accounting contract.
#include <gtest/gtest.h>

#include <bit>

#include "numeric/expwin.hpp"
#include "numeric/fixedbase.hpp"
#include "numeric/group.hpp"
#include "numeric/multiexp.hpp"
#include "support/rng.hpp"

namespace dmw::num {
namespace {

using dmw::Xoshiro256ss;

const Group256& big() {
  static const Group256 group = [] {
    Xoshiro256ss rng(77);
    return Group256::generate(96, 64, rng);
  }();
  return group;
}

// ---- decomposition invariants ---------------------------------------------

TEST(ExpWin, DecompositionReconstructsExponent) {
  Xoshiro256ss rng(1);
  for (unsigned w = 1; w <= 6; ++w) {
    for (int trial = 0; trial < 50; ++trial) {
      const u64 e = rng.next() >> (trial % 40);
      std::vector<WindowDigit> digits;
      decompose_windows(e, w, digits);
      u64 reconstructed = 0;
      unsigned prev_end = 0;
      for (std::size_t t = 0; t < digits.size(); ++t) {
        const auto& d = digits[t];
        EXPECT_EQ(d.value % 2, 1u) << "digits must be odd";
        EXPECT_LT(d.value, 1u << w);
        if (t > 0) {
          EXPECT_GE(d.pos, prev_end) << "digits must not overlap";
        }
        prev_end = d.pos + w;
        reconstructed += static_cast<u64>(d.value) << d.pos;
      }
      EXPECT_EQ(reconstructed, e);
    }
  }
}

TEST(ExpWin, WindowAccessors) {
  const u64 e = 0b1101'0110'1011ULL;
  EXPECT_EQ(exp_window(e, 0, 4), 0b1011u);
  EXPECT_EQ(exp_window(e, 4, 4), 0b0110u);
  EXPECT_EQ(exp_window(e, 8, 4), 0b1101u);
  EXPECT_EQ(exp_window(e, 10, 4), 0b11u);  // bits beyond the top read zero
  EXPECT_EQ(exp_bit_length(u64{0}), 0u);
  EXPECT_EQ(exp_bit_length(u64{1}), 1u);
  EXPECT_EQ(exp_bit_length(BigUInt<4>::one() << 200), 201u);
}

// ---- windowed pow vs naive -------------------------------------------------

TEST(ExpWin, PowWindowMatchesNaiveGroup64) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const auto base = g.pow(g.z1(), g.random_scalar(rng));
    const auto e = g.random_scalar(rng);
    EXPECT_EQ(g.pow(base, e), g.pow_naive(base, e));
  }
}

TEST(ExpWin, PowWindowMatchesNaiveGroup256) {
  const Group256& g = big();
  Xoshiro256ss rng(3);
  for (int trial = 0; trial < 12; ++trial) {
    const auto base = g.pow(g.z1(), g.random_scalar(rng));
    const auto e = g.random_scalar(rng);
    EXPECT_EQ(g.pow(base, e), g.pow_naive(base, e));
  }
}

TEST(ExpWin, PowEdgeExponents) {
  const Group64& g64 = Group64::test_group();
  const auto b64 = g64.z1();
  EXPECT_EQ(g64.pow(b64, 0), g64.identity());
  EXPECT_EQ(g64.pow(b64, 1), b64);
  EXPECT_EQ(g64.pow(b64, g64.q() - 1), g64.pow_naive(b64, g64.q() - 1));
  EXPECT_EQ(g64.pow(b64, g64.q()), g64.identity());  // order-q subgroup

  const Group256& g = big();
  const auto base = g.z2();
  EXPECT_EQ(g.pow(base, g.szero()), g.identity());
  EXPECT_EQ(g.pow(base, g.sone()), base);
  const auto qm1 = g.q() - Group256::Scalar::one();
  EXPECT_EQ(g.pow(base, qm1), g.pow_naive(base, qm1));
  EXPECT_EQ(g.pow(base, g.q()), g.identity());
}

TEST(ExpWin, ModPowMatchesNaiveU64) {
  Xoshiro256ss rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const u64 m = (rng.next() >> (trial % 32)) | 1;
    if (m <= 2) continue;
    const u64 a = rng.next() % m;
    const u64 e = rng.next() >> (trial % 48);
    EXPECT_EQ(mod_pow(a, e, m), mod_pow_naive(a, e, m));
  }
  EXPECT_EQ(mod_pow(0, 0, 7), 1u);  // 0^0 == 1, as before
  EXPECT_EQ(mod_pow(5, 0, 1), 0u);  // everything is 0 mod 1
}

TEST(ExpWin, ModPowMatchesNaiveBigUInt) {
  Xoshiro256ss rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    BigUInt<4> m = random_below(BigUInt<4>::max_value() >> 1, rng);
    m.set_bit(0, true);  // odd, > 1 after the next line
    m.set_bit(100, true);
    const auto a = mod(random_below(BigUInt<4>::max_value(), rng), m);
    const auto e = random_below(m, rng);
    EXPECT_EQ(mod_pow(a, e, m), mod_pow_naive(a, e, m));
  }
}

TEST(ExpWin, MontgomeryPowMatchesNaive) {
  Xoshiro256ss rng(6);
  const Group256& g = big();
  const Montgomery<4> mont(g.p());
  for (int trial = 0; trial < 10; ++trial) {
    const auto base = mod(random_below(BigUInt<4>::max_value(), rng), g.p());
    const auto e = random_below(g.p(), rng);
    EXPECT_EQ(mont.pow(base, e), mont.pow_naive(base, e));
  }
}

// ---- fixed-base tables -----------------------------------------------------

TEST(FixedBase, TableMatchesNaivePow) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(7);
  const Mod64Ops ops{g.p()};
  const auto base = g.pow(g.z1(), g.random_scalar(rng));
  const unsigned qbits = exp_bit_length(g.q());
  for (unsigned window = 1; window <= 6; ++window) {
    const FixedBaseTable<Mod64Ops> table(ops, base, qbits, window);
    for (int trial = 0; trial < 30; ++trial) {
      const auto e = g.random_scalar(rng);
      EXPECT_EQ(table.pow(ops, e), g.pow_naive(base, e));
    }
    EXPECT_EQ(table.pow(ops, u64{0}), u64{1});
    EXPECT_EQ(table.pow(ops, u64{1}), base);
    EXPECT_EQ(table.pow(ops, g.q() - 1), g.pow_naive(base, g.q() - 1));
  }
}

TEST(FixedBase, CommitMatchesNaiveGroup64) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = g.random_scalar(rng), b = g.random_scalar(rng);
    EXPECT_EQ(g.commit(a, b), g.commit_naive(a, b));
  }
  EXPECT_EQ(g.commit(0, 0), g.identity());
  EXPECT_EQ(g.commit(1, 0), g.z1());
  EXPECT_EQ(g.commit(0, 1), g.z2());
  EXPECT_EQ(g.commit(g.q() - 1, g.q() - 1),
            g.commit_naive(g.q() - 1, g.q() - 1));
}

TEST(FixedBase, CommitMatchesNaiveGroup256) {
  const Group256& g = big();
  Xoshiro256ss rng(9);
  for (int trial = 0; trial < 12; ++trial) {
    const auto a = g.random_scalar(rng), b = g.random_scalar(rng);
    EXPECT_EQ(g.commit(a, b), g.commit_naive(a, b));
  }
  const auto zero = g.szero(), one = g.sone();
  const auto qm1 = g.q() - Group256::Scalar::one();
  EXPECT_EQ(g.commit(zero, zero), g.identity());
  EXPECT_EQ(g.commit(one, zero), g.z1());
  EXPECT_EQ(g.commit(zero, one), g.z2());
  EXPECT_EQ(g.commit(qm1, qm1), g.commit_naive(qm1, qm1));
}

// ---- windowed multi-exponentiation ----------------------------------------

TEST(MultiExpWindowed, MatchesNaiveGroup64) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(10);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t count = 1 + rng.below(20);
    std::vector<Group64::Elem> bases;
    std::vector<Group64::Scalar> exps;
    for (std::size_t i = 0; i < count; ++i) {
      bases.push_back(g.pow(g.z1(), g.random_scalar(rng)));
      // Mix full-width, tiny, and zero exponents.
      const auto roll = trial % 3;
      exps.push_back(roll == 0   ? g.random_scalar(rng)
                     : roll == 1 ? g.random_scalar(rng) % 17
                                 : 0);
    }
    EXPECT_EQ(multi_pow<Group64>(g, bases, exps),
              multi_pow_naive<Group64>(g, bases, exps));
  }
}

TEST(MultiExpWindowed, MatchesNaiveGroup256) {
  const Group256& g = big();
  Xoshiro256ss rng(11);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Group256::Elem> bases;
    std::vector<Group256::Scalar> exps;
    for (std::size_t i = 0; i < 6; ++i) {
      bases.push_back(g.pow(g.z1(), g.random_scalar(rng)));
      exps.push_back(g.random_scalar(rng));
    }
    EXPECT_EQ(multi_pow<Group256>(g, bases, exps),
              multi_pow_naive<Group256>(g, bases, exps));
  }
}

TEST(MultiExpWindowed, EdgeCases) {
  const Group64& g = Group64::test_group();
  // Empty base span.
  EXPECT_EQ(multi_pow<Group64>(g, {}, {}), g.identity());
  // Single-element span degenerates to pow.
  std::vector<Group64::Elem> one_base{g.z1()};
  std::vector<Group64::Scalar> one_exp{12345};
  EXPECT_EQ(multi_pow<Group64>(g, one_base, one_exp), g.pow(g.z1(), 12345));
  // All-zero exponents.
  std::vector<Group64::Elem> bases{g.z1(), g.z2()};
  std::vector<Group64::Scalar> zeros{0, 0};
  EXPECT_EQ(multi_pow<Group64>(g, bases, zeros), g.identity());
  // Exponents 1 and q-1.
  std::vector<Group64::Scalar> edge{1, g.q() - 1};
  EXPECT_EQ(multi_pow<Group64>(g, bases, edge),
            multi_pow_naive<Group64>(g, bases, edge));
}

TEST(MultiExpCacheTest, ReusedAcrossExponentVectors) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(12);
  std::vector<Group64::Elem> bases;
  for (std::size_t i = 0; i < 9; ++i)
    bases.push_back(g.pow(g.z2(), g.random_scalar(rng)));
  const MultiExpCache<Group64> cache(g, bases, g.scalar_bits());
  for (int round = 0; round < 10; ++round) {
    std::vector<Group64::Scalar> exps;
    for (std::size_t i = 0; i < bases.size(); ++i)
      exps.push_back(g.random_scalar(rng));
    EXPECT_EQ(cache.eval(exps), multi_pow_naive<Group64>(g, bases, exps));
  }
}

TEST(MultiExpCacheTest, Group256StaysInMontgomeryDomain) {
  const Group256& g = big();
  Xoshiro256ss rng(13);
  std::vector<Group256::Elem> bases;
  for (std::size_t i = 0; i < 4; ++i)
    bases.push_back(g.pow(g.z1(), g.random_scalar(rng)));
  const MultiExpCache<Group256> cache(g, bases, g.scalar_bits());
  std::vector<Group256::Scalar> exps;
  for (std::size_t i = 0; i < 4; ++i) exps.push_back(g.random_scalar(rng));

  // Correctness.
  ASSERT_EQ(cache.eval(exps), multi_pow_naive<Group256>(g, bases, exps));

  // The cached evaluation must not pay per-multiplication divmod reductions:
  // its mul count should be far below the naive product's.
  OpCountScope fast_scope;
  (void)cache.eval(exps);
  const auto fast = fast_scope.delta();
  OpCountScope naive_scope;
  (void)multi_pow_naive<Group256>(g, bases, exps);
  const auto naive = naive_scope.delta();
  EXPECT_LT(fast.mul, naive.mul);
}

template <GroupBackend G>
void expect_prefix_eval_matches_naive(const G& g_base, std::size_t k,
                                      std::uint64_t seed) {
  G g_off = g_base;
  G g_on = g_base;
  g_off.set_simd_mode(simd::SimdMode::kOff);
  g_on.set_simd_mode(simd::SimdMode::kOn);
  Xoshiro256ss rng(seed);
  std::vector<typename G::Elem> bases;
  std::vector<typename G::Scalar> exps;
  for (std::size_t i = 0; i < k; ++i) {
    bases.push_back(g_base.pow(g_base.z1(), g_base.random_nonzero_scalar(rng)));
    exps.push_back(g_base.random_scalar(rng));
  }
  OpCountScope build_off;
  const MultiExpCache<G> off(g_off, bases, g_base.scalar_bits());
  const auto off_build = build_off.delta();
  OpCountScope build_on;
  const MultiExpCache<G> on(g_on, bases, g_base.scalar_bits());
  const auto on_build = build_on.delta();
  EXPECT_EQ(off_build.mul, on_build.mul) << "k=" << k;
  EXPECT_EQ(off_build.total(), on_build.total()) << "k=" << k;
  for (std::size_t j = 0; j <= k; ++j) {
    const std::span<const typename G::Elem> leading(bases.data(), j);
    const std::span<const typename G::Scalar> prefix(exps.data(), j);
    OpCountScope so;
    const auto got_off = off.eval(prefix);
    const auto od = so.delta();
    OpCountScope sn;
    const auto got_on = on.eval(prefix);
    const auto nd = sn.delta();
    EXPECT_EQ(got_off, multi_pow_naive<G>(g_base, leading, prefix))
        << "k=" << k << " j=" << j;
    EXPECT_EQ(got_on, got_off) << "k=" << k << " j=" << j;
    EXPECT_EQ(od.mul, nd.mul) << "k=" << k << " j=" << j;
    EXPECT_EQ(od.total(), nd.total()) << "k=" << k << " j=" << j;
  }
  EXPECT_THROW((void)off.eval(std::vector<typename G::Scalar>(k + 1)),
               dmw::CheckError);
}

TEST(MultiExpCacheTest, PrefixEvalMatchesNaiveOverLeadingBases) {
  // Degree resolution evaluates growing prefixes of one table: a shorter
  // exponent vector must mean the product over the leading bases only.
  expect_prefix_eval_matches_naive(Group64::test_group(), 9, 15);
  expect_prefix_eval_matches_naive(big(), 6, 16);
}

// ---- op-count contract -----------------------------------------------------

TEST(OpCountContract, PowCountsItsMultiplications) {
  const Group64& g = Group64::test_group();
  OpCountScope scope;
  (void)g.pow(g.z1(), g.q() - 1);
  const auto delta = scope.delta();
  EXPECT_EQ(delta.pow, 1u);
  // A ~40-bit exponent needs at least one mul per exponent bit.
  EXPECT_GE(delta.mul, exp_bit_length(g.q()) - 1);
}

TEST(OpCountContract, FixedBaseCommitCountsFewerMulsThanNaive) {
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(14);
  const auto a = g.random_scalar(rng), b = g.random_scalar(rng);

  OpCountScope fast_scope;
  (void)g.commit(a, b);
  const auto fast = fast_scope.delta();

  OpCountScope naive_scope;
  (void)g.commit_naive(a, b);
  const auto naive = naive_scope.delta();

  // Both count two exponentiations; the fixed-base path does a fraction of
  // the multiplications (<= 2*ceil(bits/w)+1 vs ~1.5 per exponent bit).
  EXPECT_EQ(fast.pow, naive.pow);
  EXPECT_LT(fast.mul * 2, naive.mul);
}

TEST(OpCountContract, ModPow64BelowWindowThresholdUsesTightLoop) {
  // Below kPow64WindowMinBits — i.e. always, for u64 exponents — mod_pow on
  // an odd modulus must take the Montgomery LSB-first square-and-multiply
  // path, whose op-count signature is exactly bits + popcount
  // multiplications: bits-1 squarings + popcount-1 products (no initial
  // identity multiply, no wasted final squaring) plus the two domain
  // conversions. That equals mod_pow_naive's count — the measured >= 1.0
  // pow-speedup of BENCH_commit.json comes from each counted mul being
  // three 64x64 multiplies (REDC) instead of a 128/64 division, not from
  // doing fewer of them. Asserting the exact counts pins the dispatch
  // decision and the accounting contract.
  const u64 m = 1196215904639352043ull;
  for (u64 e : {(u64{1} << 40) - 1, u64{0x5eed5eed5eed}, u64{3}, u64{2}}) {
    const unsigned bits = exp_bit_length(e);
    const auto pop = static_cast<unsigned>(std::popcount(e));
    ASSERT_LT(bits, kPow64WindowMinBits);

    OpCountScope tight_scope;
    (void)mod_pow(123456789, e, m);
    const auto tight = tight_scope.delta();

    OpCountScope naive_scope;
    (void)mod_pow_naive(123456789, e, m);
    const auto naive = naive_scope.delta();

    EXPECT_EQ(tight.mul, bits + pop) << "e=" << e;
    EXPECT_EQ(naive.mul, bits + pop) << "e=" << e;
    EXPECT_EQ(mod_pow(123456789, e, m), mod_pow_naive(123456789, e, m));
  }
}

TEST(OpCountContract, MontgomeryPowCountsMuls) {
  const Group256& g = big();
  OpCountScope scope;
  (void)g.pow(g.z1(), g.q() - Group256::Scalar::one());
  const auto delta = scope.delta();
  EXPECT_EQ(delta.pow, 1u);
  EXPECT_GE(delta.mul, g.scalar_bits() - 1);
}

}  // namespace
}  // namespace dmw::num
