// The vectorized Montgomery tier (numeric/simd.hpp + numeric/montlane.hpp):
// the dispatched lane kernel must agree with the scalar REDC on every host,
// the lane engine must be value- AND OpCount-identical to its scalar
// ablation (the montlane.hpp contract RunReport bit-identity rests on) for
// mul/to_mont/from_mont/pow over both arithmetic tiers — including ragged
// batch tails, zero exponents and edge moduli — and flipping
// PublicParams::set_simd must change no observable protocol byte at any
// thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dmw/polycommit.hpp"
#include "dmw/protocol.hpp"
#include "dmw/strategies.hpp"
#include "mech/minwork.hpp"
#include "numeric/montlane.hpp"
#include "numeric/multiexp.hpp"

namespace dmw::num {
namespace {

const Group64& grp() { return Group64::test_group(); }

// Odd moduli spanning the Mont64 contract range (1, 2^63): tiny, near 2^61
// (the test group's neighbourhood), and the largest admissible value. The
// REDC conditional-subtract and the AVX2 sign-flip compare are most
// stressed at the top of the range.
constexpr u64 kEdgeModuli[] = {3, 0x1fffffffffffffffULL,
                               (u64{1} << 61) + 9, 0x7fffffffffffffffULL};

TEST(SimdKernels, DispatchedLanesMatchScalarRedc) {
  Xoshiro256ss rng(101);
  for (const u64 n : kEdgeModuli) {
    const Mont64 m(n);
    for (int trial = 0; trial < 200; ++trial) {
      u64 a[simd::kLanes], b[simd::kLanes], out[simd::kLanes];
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        a[l] = rng.next() % n;
        b[l] = rng.next() % n;
      }
      simd::mont_mul_lanes(a, b, n, m.ninv(), out);
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        EXPECT_EQ(out[l], simd::mont_mul_scalar(a[l], b[l], n, m.ninv()))
            << "n=" << n << " lane " << l;
        // And against the production Mont64 path (counted there, not here).
        EXPECT_EQ(out[l], m.mul(a[l], b[l])) << "n=" << n << " lane " << l;
      }
    }
  }
}

TEST(SimdKernels, PortableKernelMatchesDispatched) {
  // Whatever backend the host latched, the portable loop is the reference.
  Xoshiro256ss rng(102);
  const u64 n = kEdgeModuli[3];
  const Mont64 m(n);
  for (int trial = 0; trial < 100; ++trial) {
    u64 a[simd::kLanes], b[simd::kLanes], got[simd::kLanes],
        want[simd::kLanes];
    for (std::size_t l = 0; l < simd::kLanes; ++l) {
      a[l] = rng.next() % n;
      b[l] = rng.next() % n;
    }
    simd::mont_mul_lanes(a, b, n, m.ninv(), got);
    simd::mont_mul_lanes_portable(a, b, n, m.ninv(), want);
    for (std::size_t l = 0; l < simd::kLanes; ++l)
      EXPECT_EQ(got[l], want[l]);
  }
}

TEST(SimdKernels, PaddedSlotsStayInKernelRange) {
  // Ragged-tail padding contract: a zero slot (0 * anything) and duplicate
  // slots must run through the kernel without disturbing live lanes.
  const u64 n = kEdgeModuli[1];
  const Mont64 m(n);
  u64 a[simd::kLanes] = {n - 1, 0, n - 1, 0};
  u64 b[simd::kLanes] = {n - 1, 0, 1, n - 1};
  u64 out[simd::kLanes];
  simd::mont_mul_lanes(a, b, n, m.ninv(), out);
  for (std::size_t l = 0; l < simd::kLanes; ++l)
    EXPECT_EQ(out[l], simd::mont_mul_scalar(a[l], b[l], n, m.ninv()));
}

TEST(SimdKernels, BackendIsConsistent) {
  const simd::LaneBackend backend = simd::active_backend();
  EXPECT_EQ(backend, simd::active_backend());  // latched once
  EXPECT_NE(std::string(simd::backend_name(backend)), "");
  if (!simd::compiled_in()) {
    EXPECT_EQ(backend, simd::LaneBackend::kScalar);
  }
  // kOn always groups, kOff never does; kAuto follows the backend.
  EXPECT_TRUE(simd::mode_groups_lanes(simd::SimdMode::kOn));
  EXPECT_FALSE(simd::mode_groups_lanes(simd::SimdMode::kOff));
  EXPECT_EQ(simd::mode_groups_lanes(simd::SimdMode::kAuto),
            backend != simd::LaneBackend::kScalar);
}

// ---- MontLane<Mont64>: grouped vs scalar ablation --------------------------

template <std::size_t L>
void expect_mont64_lane_identity(u64 modulus, std::uint64_t seed) {
  const Mont64 m(modulus);
  const MontLane<Mont64, L> grouped(m, true);
  const MontLane<Mont64, L> scalar(m, false);
  Xoshiro256ss rng(seed);
  // Ragged sizes on both sides of the lane width, including count % L != 0.
  for (std::size_t n : {std::size_t{1}, L - 1, L, L + 1, 2 * L + 3,
                        std::size_t{17}}) {
    if (n == 0) continue;
    std::vector<u64> a(n), b(n), e(n), ga(n), sa(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.next() % modulus;
      b[i] = rng.next() % modulus;
      e[i] = rng.next() >> (i % 3 == 0 ? 24 : 0);  // mixed widths
    }
    if (n > 2) e[2] = 0;  // zero exponent inside a group
    e[0] = 1;

    OpCountScope gs;
    grouped.mul_lanes(a.data(), b.data(), ga.data(), n);
    const auto gd = gs.delta();
    OpCountScope ss;
    scalar.mul_lanes(a.data(), b.data(), sa.data(), n);
    const auto sd = ss.delta();
    EXPECT_EQ(ga, sa) << "mul L=" << L << " n=" << n;
    EXPECT_EQ(gd.mul, sd.mul);
    EXPECT_EQ(gd.mul, n);

    grouped.to_mont_lanes(a.data(), ga.data(), n);
    scalar.to_mont_lanes(a.data(), sa.data(), n);
    EXPECT_EQ(ga, sa) << "to_mont L=" << L << " n=" << n;
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ga[i], m.to_mont(a[i]));

    grouped.from_mont_lanes(ga.data(), ga.data(), n);
    scalar.from_mont_lanes(sa.data(), sa.data(), n);
    EXPECT_EQ(ga, sa) << "from_mont L=" << L << " n=" << n;
    EXPECT_EQ(ga, a);  // round trip

    OpCountScope gp;
    grouped.pow_lanes(a.data(), e.data(), ga.data(), n);
    const auto gpd = gp.delta();
    OpCountScope sp;
    scalar.pow_lanes(a.data(), e.data(), sa.data(), n);
    const auto spd = sp.delta();
    EXPECT_EQ(ga, sa) << "pow L=" << L << " n=" << n;
    EXPECT_EQ(gpd.mul, spd.mul) << "pow muls L=" << L << " n=" << n;
    EXPECT_EQ(gpd.pow, spd.pow);
    EXPECT_EQ(gpd.pow, n);
    // Cross-check against the group's own pow (Group64 protocol exponents
    // take the same LSB-first ladder).
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(ga[i], pow_mont64(m, a[i], e[i]));
  }
}

TEST(MontLane64, GroupedMatchesScalarAcrossWidths) {
  for (const u64 n : kEdgeModuli) {
    expect_mont64_lane_identity<2>(n, 7);
    expect_mont64_lane_identity<4>(n, 8);
    expect_mont64_lane_identity<8>(n, 9);
  }
}

TEST(MontLane64, MaskedMulCountsLiveSlotsOnly) {
  const Mont64 m(kEdgeModuli[1]);
  for (const bool g : {true, false}) {
    const MontLane<Mont64> lane(m, g);
    u64 acc[simd::kLanes] = {5, 6, 7, 8};
    u64 acc2[simd::kLanes] = {5, 6, 7, 8};
    const u64 b[simd::kLanes] = {9, 10, 11, 12};
    const bool active[simd::kLanes] = {true, false, true, false};
    OpCountScope scope;
    lane.mul_masked(acc, b, active);
    EXPECT_EQ(scope.delta().mul, 2u);
    EXPECT_EQ(acc[1], 6u);  // masked slots untouched
    EXPECT_EQ(acc[3], 8u);
    EXPECT_EQ(acc[0], m.mul(5, 9));
    EXPECT_EQ(acc[2], m.mul(7, 11));
    const bool none[simd::kLanes] = {};
    OpCountScope idle;
    lane.mul_masked(acc2, b, none);
    EXPECT_EQ(idle.delta().mul, 0u);
  }
}

// ---- MontLane<Montgomery<W>>: the multi-limb tier --------------------------

TEST(MontLaneBig, GroupedMatchesScalarOnGroup256Modulus) {
  Xoshiro256ss grng(11);
  const Group256 g = Group256::generate(96, 64, grng);
  const Montgomery<4>& m = g.mont();
  const MontLane<Montgomery<4>> grouped(m, true);
  const MontLane<Montgomery<4>> scalar(m, false);
  Xoshiro256ss rng(12);
  const auto rand_residue = [&] {
    auto v = BigUInt<4>::zero();
    v.set_limb(0, rng.next());
    v.set_limb(1, rng.next());
    return mod(v, m.modulus());
  };
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                        std::size_t{7}, std::size_t{13}}) {
    std::vector<BigUInt<4>> a(n), b(n), ga(n), sa(n);
    std::vector<u64> e(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rand_residue();
      b[i] = rand_residue();
      e[i] = rng.next() >> (i % 2 ? 30 : 4);
    }
    if (n > 1) e[1] = 0;

    OpCountScope gs;
    grouped.mul_lanes(a.data(), b.data(), ga.data(), n);
    const auto gd = gs.delta();
    OpCountScope ss;
    scalar.mul_lanes(a.data(), b.data(), sa.data(), n);
    EXPECT_EQ(gd.mul, ss.delta().mul);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ga[i], sa[i]) << "mul n=" << n << " i=" << i;
      EXPECT_EQ(ga[i], m.mul(a[i], b[i]));
    }

    grouped.to_mont_lanes(a.data(), ga.data(), n);
    scalar.to_mont_lanes(a.data(), sa.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ga[i], sa[i]);
    grouped.from_mont_lanes(ga.data(), ga.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ga[i], a[i]);

    OpCountScope gp;
    grouped.pow_lanes(a.data(), e.data(), ga.data(), n);
    const auto gpd = gp.delta();
    OpCountScope sp;
    scalar.pow_lanes(a.data(), e.data(), sa.data(), n);
    const auto spd = sp.delta();
    EXPECT_EQ(gpd.mul, spd.mul) << "pow muls n=" << n;
    EXPECT_EQ(gpd.pow, spd.pow);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(ga[i], sa[i]) << "pow n=" << n << " i=" << i;
  }
}

// ---- group-level consumers -------------------------------------------------

template <GroupBackend G>
void expect_commit_many_invariant(const G& g_on, std::size_t sigma,
                                  std::uint64_t seed) {
  G g_off = g_on;
  G g_forced = g_on;
  g_off.set_simd_mode(simd::SimdMode::kOff);
  g_forced.set_simd_mode(simd::SimdMode::kOn);
  Xoshiro256ss rng(seed);
  std::vector<typename G::Scalar> a(sigma), b(sigma);
  for (std::size_t i = 0; i < sigma; ++i) {
    a[i] = g_on.random_scalar(rng);
    b[i] = g_on.random_scalar(rng);
  }
  std::vector<typename G::Elem> off(sigma), forced(sigma);
  OpCountScope so;
  g_off.commit_many(a.data(), b.data(), off.data(), sigma);
  const auto od = so.delta();
  OpCountScope sf;
  g_forced.commit_many(a.data(), b.data(), forced.data(), sigma);
  const auto fd = sf.delta();
  EXPECT_EQ(off, forced) << "sigma=" << sigma;
  EXPECT_EQ(od.mul, fd.mul) << "sigma=" << sigma;
  EXPECT_EQ(od.pow, fd.pow) << "sigma=" << sigma;
  for (std::size_t i = 0; i < sigma; ++i)
    EXPECT_EQ(off[i], g_off.commit(a[i], b[i])) << "i=" << i;
}

TEST(MontLaneGroup, CommitManyInvariantAcrossSimdModes) {
  // Ragged sigma on both sides of the lane width, both backends.
  for (std::size_t sigma : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                            std::size_t{7}, std::size_t{12}})
    expect_commit_many_invariant(grp(), sigma, 21 + sigma);
  Xoshiro256ss grng(22);
  const Group256 big = Group256::generate(96, 64, grng);
  for (std::size_t sigma : {std::size_t{3}, std::size_t{7}})
    expect_commit_many_invariant(big, sigma, 23 + sigma);
}

template <GroupBackend G>
void expect_multiexp_invariant(const G& g_base, std::size_t count,
                               std::uint64_t seed) {
  G g_off = g_base;
  G g_on = g_base;
  g_off.set_simd_mode(simd::SimdMode::kOff);
  g_on.set_simd_mode(simd::SimdMode::kOn);
  Xoshiro256ss rng(seed);
  std::vector<typename G::Elem> bases(count);
  std::vector<typename G::Scalar> exps(count);
  for (std::size_t i = 0; i < count; ++i) {
    bases[i] = g_base.pow(g_base.z1(), g_base.random_nonzero_scalar(rng));
    exps[i] = g_base.random_scalar(rng);
  }
  const std::string label = " count=" + std::to_string(count);

  OpCountScope so;
  const auto off = multi_pow<G>(g_off, bases, exps);
  const auto od = so.delta();
  OpCountScope sn;
  const auto on = multi_pow<G>(g_on, bases, exps);
  const auto nd = sn.delta();
  EXPECT_EQ(off, on) << "multi_pow" << label;
  EXPECT_EQ(od.mul, nd.mul) << "multi_pow muls" << label;

  OpCountScope po;
  const auto boff = multi_pow_batched<G>(g_off, bases, exps);
  const auto pod = po.delta();
  OpCountScope pn;
  const auto bon = multi_pow_batched<G>(g_on, bases, exps);
  const auto pnd = pn.delta();
  EXPECT_EQ(boff, bon) << "multi_pow_batched" << label;
  EXPECT_EQ(pod.mul, pnd.mul) << "batched muls" << label;
  EXPECT_EQ(pod.pow, pnd.pow) << "batched pows" << label;
  for (std::size_t i = 0; i < count; ++i)
    EXPECT_EQ(boff[i], g_base.pow(bases[i], exps[i])) << label << " i=" << i;
}

TEST(MontLaneGroup, MultiExpInvariantAcrossSimdModes) {
  // Sizes straddling the Straus/Pippenger crossover so both engines run
  // their lane paths (table build, bucket accumulation, batched ladder).
  for (std::size_t count : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                            std::size_t{7}, std::size_t{33},
                            std::size_t{300}})
    expect_multiexp_invariant(grp(), count, 31 + count);
  Xoshiro256ss grng(32);
  const Group256 big = Group256::generate(96, 48, grng);
  for (std::size_t count : {std::size_t{5}, std::size_t{9}})
    expect_multiexp_invariant(big, count, 33 + count);
}

// ---- protocol-level bit-identity -------------------------------------------

using proto::Outcome;

void expect_same_protocol_bytes(const Outcome& a, const Outcome& b,
                                const std::string& label) {
  ASSERT_EQ(a.aborted, b.aborted) << label;
  if (a.aborted) {
    ASSERT_TRUE(a.abort_record && b.abort_record) << label;
    EXPECT_EQ(a.abort_record->task, b.abort_record->task) << label;
    EXPECT_EQ(a.abort_record->reason, b.abort_record->reason) << label;
    EXPECT_EQ(a.aborting_agent, b.aborting_agent) << label;
  } else {
    EXPECT_EQ(a.schedule, b.schedule) << label;
    EXPECT_EQ(a.first_prices, b.first_prices) << label;
    EXPECT_EQ(a.second_prices, b.second_prices) << label;
  }
  EXPECT_EQ(a.payments, b.payments) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.transcripts_consistent, b.transcripts_consistent) << label;
  EXPECT_EQ(a.traffic.unicast_bytes, b.traffic.unicast_bytes) << label;
  EXPECT_EQ(a.traffic.broadcast_bytes, b.traffic.broadcast_bytes) << label;
}

/// Run `strategies` with the simd policy off and forced on, sequentially
/// (with full OpCount comparison — the RunReport identity) and at 1 and 4
/// workers, and require one identical outcome.
void expect_simd_invariant(const proto::PublicParams<Group64>& params,
                           const mech::SchedulingInstance& instance,
                           std::vector<proto::Strategy<Group64>*> strategies,
                           const std::string& label) {
  auto params_off = params;
  auto params_on = params;
  params_off.set_simd(simd::SimdMode::kOff);
  params_on.set_simd(simd::SimdMode::kOn);

  proto::ProtocolRunner<Group64> off(params_off, instance, strategies);
  OpCountScope off_scope;
  const auto reference = off.run();
  const auto off_ops = off_scope.delta();

  proto::ProtocolRunner<Group64> on(params_on, instance, strategies);
  OpCountScope on_scope;
  const auto forced = on.run();
  const auto on_ops = on_scope.delta();
  expect_same_protocol_bytes(reference, forced, label + " serial");
  EXPECT_EQ(off_ops.mul, on_ops.mul) << label;
  EXPECT_EQ(off_ops.pow, on_ops.pow) << label;
  EXPECT_EQ(off_ops.inv, on_ops.inv) << label;
  EXPECT_EQ(off_ops.add, on_ops.add) << label;

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string tl = label + " threads=" + std::to_string(threads);
    proto::ParallelProtocol<Group64> mt_on(params_on, instance, strategies,
                                           threads);
    expect_same_protocol_bytes(reference, mt_on.run(), tl + " simd-on");
    proto::ParallelProtocol<Group64> mt_off(params_off, instance, strategies,
                                            threads);
    expect_same_protocol_bytes(reference, mt_off.run(), tl + " simd-off");
  }
}

TEST(MontLaneProtocol, HonestRunsInvariantAcrossSimdModes) {
  const auto params = proto::PublicParams<Group64>::make(grp(), 6, 3, 1, 2);
  Xoshiro256ss rng(41);
  const auto instance =
      mech::make_uniform_instance(6, 3, params.bid_set(), rng);
  proto::HonestStrategy<Group64> honest;
  std::vector<proto::Strategy<Group64>*> strategies(6, &honest);
  expect_simd_invariant(params, instance, strategies, "honest");
}

TEST(MontLaneProtocol, AbortStreamsInvariantAcrossSimdModes) {
  const auto params = proto::PublicParams<Group64>::make(grp(), 6, 3, 1, 2);
  Xoshiro256ss rng(42);
  const auto instance =
      mech::make_uniform_instance(6, 3, params.bid_set(), rng);
  proto::CorruptShareStrategy<Group64> corrupt_share(/*victim=*/1);
  proto::InconsistentCommitmentsStrategy<Group64> bad_commitments;
  proto::BadLambdaStrategy<Group64> bad_lambda;
  for (proto::Strategy<Group64>* deviant :
       std::initializer_list<proto::Strategy<Group64>*>{
           &corrupt_share, &bad_commitments, &bad_lambda}) {
    proto::HonestStrategy<Group64> honest;
    std::vector<proto::Strategy<Group64>*> strategies(6, &honest);
    strategies[0] = deviant;
    auto params_ref = params;
    params_ref.set_simd(simd::SimdMode::kOff);
    proto::ProtocolRunner<Group64> reference(params_ref, instance, strategies);
    ASSERT_TRUE(reference.run().aborted) << deviant->name();
    expect_simd_invariant(params, instance, strategies, deviant->name());
  }
}

TEST(MontLaneProtocol, CommitmentVectorsInvariantAcrossSimdModes) {
  // Phase II commitment vectors go through commit_many directly.
  const auto params = proto::PublicParams<Group64>::make(grp(), 8, 1, 2, 5);
  auto params_off = params;
  auto params_on = params;
  params_off.set_simd(simd::SimdMode::kOff);
  params_on.set_simd(simd::SimdMode::kOn);
  auto rng = crypto::ChaChaRng::from_seed(6);
  const auto polys =
      proto::BidPolynomials<Group64>::sample(params_off, 3, rng);
  OpCountScope so;
  const auto off = proto::CommitmentVectors<Group64>::commit(params_off, polys);
  const auto od = so.delta();
  OpCountScope sn;
  const auto on = proto::CommitmentVectors<Group64>::commit(params_on, polys);
  const auto nd = sn.delta();
  EXPECT_EQ(off.O, on.O);
  EXPECT_EQ(off.Q, on.Q);
  EXPECT_EQ(off.R, on.R);
  EXPECT_EQ(od.mul, nd.mul);
  EXPECT_EQ(od.pow, nd.pow);
}

}  // namespace
}  // namespace dmw::num
