// The RLC batch-verification contract (dmw/batchverify.hpp): flipping
// PublicParams::batch_verify() changes no observable Outcome byte — honest
// runs, every deviation's abort attribution (agent, task, AbortReason), and
// crash-tolerant runs alike, at every thread count and on both group
// backends. Plus the soundness soak: a batch folding one corrupted share
// among honest checks must never verify (failure probability 1/q per trial,
// ~2^-40 on the Group64 tier).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dmw/batchverify.hpp"
#include "dmw/protocol.hpp"
#include "dmw/strategies.hpp"
#include "mech/minwork.hpp"

namespace dmw::proto {
namespace {

using num::Group256;
using num::Group64;

const Group64& grp() { return Group64::test_group(); }

constexpr std::size_t kThreadCounts[] = {1, 4};

// Everything expect_outcomes_identical (test_parallel_protocol.cpp) compares
// EXCEPT the per-phase op counts: batching exists precisely to change the
// multiplication count, so op totals legitimately differ between the modes.
// Traffic, rounds, transcripts and the full abort record must not.
void expect_same_outcome(const Outcome& a, const Outcome& b,
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
  EXPECT_EQ(a.traffic.unicast_messages, b.traffic.unicast_messages) << label;
  EXPECT_EQ(a.traffic.unicast_bytes, b.traffic.unicast_bytes) << label;
  EXPECT_EQ(a.traffic.broadcast_messages, b.traffic.broadcast_messages)
      << label;
  EXPECT_EQ(a.traffic.broadcast_bytes, b.traffic.broadcast_bytes) << label;
}

/// Run `strategies` under batch_verify on and off, sequentially and at every
/// thread count, and require one identical outcome.
template <dmw::num::GroupBackend G>
void expect_mode_invariant(const PublicParams<G>& params,
                           const mech::SchedulingInstance& instance,
                           std::vector<Strategy<G>*> strategies,
                           const std::string& label) {
  auto params_seq = params;
  params_seq.set_batch_verify(false);
  ASSERT_TRUE(params.batch_verify());

  ProtocolRunner<G> sequential(params_seq, instance, strategies);
  const auto reference = sequential.run();
  ProtocolRunner<G> batched(params, instance, strategies);
  expect_same_outcome(reference, batched.run(), label + " batched-serial");

  for (std::size_t threads : kThreadCounts) {
    ParallelProtocol<G> batched_mt(params, instance, strategies, threads);
    expect_same_outcome(reference, batched_mt.run(),
                        label + " batched threads=" + std::to_string(threads));
    ParallelProtocol<G> seq_mt(params_seq, instance, strategies, threads);
    expect_same_outcome(
        reference, seq_mt.run(),
        label + " sequential threads=" + std::to_string(threads));
  }
}

// ---- Outcome invariance: honest runs ---------------------------------------

TEST(BatchVerify, HonestRunsIdenticalToSequentialMode) {
  const auto params = PublicParams<Group64>::make(grp(), 6, 3, 1, 2);
  Xoshiro256ss rng(11);
  const auto instance =
      mech::make_uniform_instance(6, 3, params.bid_set(), rng);
  HonestStrategy<Group64> honest;
  std::vector<Strategy<Group64>*> strategies(6, &honest);
  expect_mode_invariant(params, instance, strategies, "honest");

  // Sanity: the batched default still matches the centralized mechanism.
  const auto outcome = run_honest_dmw(params, instance);
  ASSERT_FALSE(outcome.aborted);
  EXPECT_EQ(outcome.schedule, mech::run_minwork(instance).schedule);
}

// ---- Outcome invariance: abort attribution under deviations ----------------

// Each deviation corrupts exactly one value (one share to one victim, one
// commitment vector, one published element); the batched run must attribute
// the abort to the same (agent, task, reason) the one-at-a-time scan picks,
// at every thread count.
TEST(BatchVerify, DeviantAttributionMatchesSequentialGroup64) {
  const auto params = PublicParams<Group64>::make(grp(), 6, 3, 1, 2);
  Xoshiro256ss rng(11);
  const auto instance =
      mech::make_uniform_instance(6, 3, params.bid_set(), rng);

  CorruptShareStrategy<Group64> corrupt_share(/*victim=*/1);
  WithholdShareStrategy<Group64> withhold_share(/*victim=*/2);
  InconsistentCommitmentsStrategy<Group64> bad_commitments;
  WithholdCommitmentsStrategy<Group64> withhold_commitments;
  BadLambdaStrategy<Group64> bad_lambda;
  SilentLambdaStrategy<Group64> silent_lambda;
  BadReducedLambdaStrategy<Group64> bad_reduced;
  CorruptDisclosureStrategy<Group64> corrupt_disclosure;
  for (Strategy<Group64>* deviant : std::initializer_list<Strategy<Group64>*>{
           &corrupt_share, &withhold_share, &bad_commitments,
           &withhold_commitments, &bad_lambda, &silent_lambda, &bad_reduced,
           &corrupt_disclosure}) {
    HonestStrategy<Group64> honest;
    std::vector<Strategy<Group64>*> strategies(6, &honest);
    // Agent 0 is always among the prescribed disclosers (first y*+1 alive
    // agents), so the disclosure deviation actually fires too.
    strategies[0] = deviant;

    auto params_seq = params;
    params_seq.set_batch_verify(false);
    ProtocolRunner<Group64> sequential(params_seq, instance, strategies);
    const auto reference = sequential.run();
    ASSERT_TRUE(reference.aborted) << deviant->name();

    expect_mode_invariant(params, instance, strategies, deviant->name());
  }
}

TEST(BatchVerify, DeviantAttributionMatchesSequentialGroup256) {
  Xoshiro256ss group_rng(9);
  const auto group = Group256::generate(128, 80, group_rng);
  const auto params = PublicParams<Group256>::make(group, 4, 2, 1, 6);
  Xoshiro256ss rng(10);
  const auto instance =
      mech::make_uniform_instance(4, 2, params.bid_set(), rng);

  {
    HonestStrategy<Group256> honest;
    std::vector<Strategy<Group256>*> strategies(4, &honest);
    expect_mode_invariant(params, instance, strategies, "g256 honest");
  }
  CorruptShareStrategy<Group256> corrupt_share(/*victim=*/2);
  BadLambdaStrategy<Group256> bad_lambda;
  BadReducedLambdaStrategy<Group256> bad_reduced;
  for (Strategy<Group256>* deviant : std::initializer_list<Strategy<Group256>*>{
           &corrupt_share, &bad_lambda, &bad_reduced}) {
    HonestStrategy<Group256> honest;
    std::vector<Strategy<Group256>*> strategies(4, &honest);
    strategies[0] = deviant;
    expect_mode_invariant(params, instance, strategies,
                          "g256 " + deviant->name());
  }
}

// Crash-tolerant mode drives the batched presence scan's alive-mask edits;
// the replayed sequential scan must land on the same mask and outcome.
TEST(BatchVerify, CrashTolerantRunsIdenticalToSequentialMode) {
  const auto params =
      PublicParams<Group64>::make_crash_tolerant(grp(), 7, 3, 2, 21);
  Xoshiro256ss rng(77);
  const auto instance =
      mech::make_uniform_instance(7, 3, params.bid_set(), rng);

  CrashStrategy<Group64> crash(CrashPoint::kAfterBidding);
  HonestStrategy<Group64> honest;
  std::vector<Strategy<Group64>*> strategies(7, &honest);
  strategies[6] = &crash;
  strategies[5] = &crash;
  expect_mode_invariant(params, instance, strategies, "crash-tolerant");
}

// ---- RLC soundness ---------------------------------------------------------

// The folded identity is exact on honest inputs: no probabilistic slack on
// the accept path, ever.
TEST(BatchVerify, HonestBatchAlwaysVerifies) {
  const auto& g = grp();
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    auto data = crypto::ChaChaRng::from_seed(0x601d, trial);
    BatchVerifier<Group64> batch(
        g, crypto::ChaChaRng::from_seed(0xbadc0de, trial));
    for (std::size_t c = 0; c < 8; ++c) {
      const auto a = g.random_nonzero_scalar(data);
      const auto b = g.random_nonzero_scalar(data);
      const auto r = batch.draw();
      batch.fold_commit(r, a, b);
      batch.rhs_term(g.commit(a, b), r);
    }
    EXPECT_EQ(batch.checks(), 8u);
    ASSERT_TRUE(batch.verify()) << "trial " << trial;
  }
}

// 10k seeded trials, each folding one corrupted share value among honest
// checks: the batch must reject every single time. A false accept needs the
// trial's RLC coefficient at the corrupted slot to vanish mod q
// (probability 1/q ~ 2^-40 here), so even one accept over the soak flags a
// broken fold with overwhelming probability.
TEST(BatchVerify, SoakNeverAcceptsACorruptedShare) {
  const auto& g = grp();
  constexpr std::size_t kChecks = 6;
  std::size_t accepted = 0;
  for (std::uint64_t trial = 0; trial < 10000; ++trial) {
    auto data = crypto::ChaChaRng::from_seed(0x5eed, trial);
    BatchVerifier<Group64> batch(
        g, crypto::ChaChaRng::from_seed(0xbadc0de, trial));
    const std::size_t bad = trial % kChecks;
    for (std::size_t c = 0; c < kChecks; ++c) {
      const auto a = g.random_nonzero_scalar(data);
      const auto b = g.random_nonzero_scalar(data);
      const auto r = batch.draw();
      // The deviant misreports `a` on one check; commitments stay honest.
      const auto claimed =
          c == bad ? g.sadd(a, g.scalar_from_u64(1 + trial % 7)) : a;
      batch.fold_commit(r, claimed, b);
      batch.rhs_term(g.commit(a, b), r);
    }
    if (batch.verify()) ++accepted;
  }
  EXPECT_EQ(accepted, 0u);
}

// Identically seeded verifiers draw identical coefficient streams (the
// determinism the parallel driver's bit-identity rests on), and the stream
// is consumed two words per draw on every backend.
TEST(BatchVerify, CoefficientStreamIsDeterministic) {
  const auto& g = grp();
  auto a = crypto::ChaChaRng::from_seed(7, 42);
  auto b = crypto::ChaChaRng::from_seed(7, 42);
  BatchVerifier<Group64> va(g, std::move(a));
  BatchVerifier<Group64> vb(g, std::move(b));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(va.draw(), vb.draw());

  auto raw = crypto::ChaChaRng::from_seed(7, 42);
  auto fed = crypto::ChaChaRng::from_seed(7, 42);
  const auto first = rlc_scalar(g, fed);
  (void)first;
  raw.next();
  raw.next();  // two words consumed per coefficient
  EXPECT_EQ(rlc_scalar(g, fed), rlc_scalar(g, raw));
}

}  // namespace
}  // namespace dmw::proto
