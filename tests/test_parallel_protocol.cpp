// The protocol engine's executor contract: the inline executor
// (ProtocolRunner) runs every step on the driver thread in agent-then-task
// order, and pooled runs (ParallelProtocol) produce Outcomes bit-identical to
// it at every thread count — honest runs, deviant aborts and crash-tolerant
// runs alike. Also covers the concurrency substrate (ThreadPool's deque/steal
// scheduler and submit/drain chains; SimNetwork under concurrent traffic).
// Run under TSan in CI these tests double as the race-freedom proof
// obligation — including the proof that shared per-agent caches are only
// read after publication.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "dmw/protocol.hpp"
#include "dmw/strategies.hpp"
#include "mech/minwork.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace dmw::proto {
namespace {

using num::Group64;

const Group64& grp() { return Group64::test_group(); }

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  std::vector<int> worker(1000, -2);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    ++hits[i];  // each index is owned by exactly one worker
    worker[i] = ThreadPool::current_worker_id();
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
    EXPECT_GE(worker[i], 0);
    EXPECT_LT(worker[i], 4);
  }
  EXPECT_EQ(ThreadPool::current_worker_id(), -1);  // off-pool thread
}

TEST(ThreadPool, DynamicStealsFromSkewedLoad) {
  // Front-loaded work: the first chunk is ~100x the rest. The idle workers
  // must steal the remaining chunks instead of waiting at a shard boundary;
  // every index still runs exactly once.
  ThreadPool pool(4);
  std::vector<int> hits(256, 0);
  std::atomic<std::uint64_t> sink{0};
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    ++hits[i];
    std::uint64_t burn = i < pool.chunk_size(hits.size()) ? 100000 : 1000;
    std::uint64_t acc = i;
    while (burn-- > 0) acc = acc * 6364136223846793005ull + 1;
    sink.fetch_add(acc, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, OversubscriptionCoversAllIndices) {
  // More workers than the host has cores (and than there are chunks):
  // stealing must terminate and cover everything exactly once.
  ThreadPool pool(16);
  std::vector<int> hits(23, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, HandlesFewerIndicesThanWorkers) {
  ThreadPool pool(8);
  std::vector<int> hits(3, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "no indices to run"; });
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(4);
  const auto fail_at_57 = [](std::size_t i) {
    if (i == 57) throw std::runtime_error("worker failed");
  };
  EXPECT_THROW(pool.parallel_for(100, fail_at_57), std::runtime_error);
  // The pool stays usable after an exception.
  std::vector<int> hits(16, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SubmitChainsFromJobs) {
  // submit() from inside a job is the sanctioned way to schedule
  // continuations (the pipelined engine's per-agent chains). A binary tree
  // of spawning jobs must be counted in full by one drain().
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::function<void(int)> spawn = [&](int depth) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (depth == 0) return;
    pool.submit([&spawn, depth] { spawn(depth - 1); });
    pool.submit([&spawn, depth] { spawn(depth - 1); });
  };
  pool.submit([&spawn] { spawn(6); });
  pool.drain();
  EXPECT_EQ(ran.load(), (1 << 7) - 1);  // full binary tree, depth 6
  // The pool is reusable for another batch.
  ran.store(0);
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, NestedParallelForAndDrainRejected) {
  // parallel_for and drain are driver-only barriers: calling either from a
  // worker would deadlock the pool, so both are rejected with a CheckError
  // (which propagates to the driver at the batch boundary). submit() from a
  // worker stays legal — that is how chains grow.
  ThreadPool pool(4);
  const auto nested = [&](std::size_t) {
    pool.parallel_for(2, [](std::size_t) {});
  };
  EXPECT_THROW(pool.parallel_for(8, nested), dmw::CheckError);
  pool.submit([&pool] { pool.drain(); });
  EXPECT_THROW(pool.drain(), dmw::CheckError);
  // Usable after both rejections.
  std::vector<int> hits(8, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// ---- Inline executor contract ----------------------------------------------

/// Honest strategy that logs (worker id, agent, task) for every share it
/// sends. One instance per agent; the log is shared and only written from
/// the inline executor's single thread.
class RecordingStrategy : public HonestStrategy<Group64> {
 public:
  using Entry = std::tuple<int, std::size_t, std::size_t>;
  RecordingStrategy(std::size_t agent, std::vector<Entry>& log)
      : agent_(agent), log_(log) {}
  bool edit_share(std::size_t task, std::size_t,
                  ShareBundle<Group64>&) override {
    log_.emplace_back(ThreadPool::current_worker_id(), agent_, task);
    return true;
  }

 private:
  std::size_t agent_;
  std::vector<Entry>& log_;
};

TEST(ProtocolRunner, InlineExecutorRunsAgentThenTaskOnDriver) {
  constexpr std::size_t kN = 5, kM = 4;
  const auto params = PublicParams<Group64>::make(grp(), kN, kM, 1, 12);
  Xoshiro256ss rng(13);
  const auto instance =
      mech::make_uniform_instance(kN, kM, params.bid_set(), rng);

  std::vector<RecordingStrategy::Entry> log;
  std::vector<RecordingStrategy> recorders;
  recorders.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) recorders.emplace_back(i, log);
  std::vector<Strategy<Group64>*> strategies;
  for (auto& recorder : recorders) strategies.push_back(&recorder);

  ProtocolRunner<Group64> runner(params, instance, strategies);
  ASSERT_FALSE(runner.run().aborted);
  // Every agent sends one share per (task, peer), all on the driver thread,
  // agent by agent and task by task.
  ASSERT_EQ(log.size(), kN * kM * (kN - 1));
  std::vector<std::pair<std::size_t, std::size_t>> order;
  for (const auto& [worker, agent, task] : log) {
    EXPECT_EQ(worker, -1) << "agent " << agent << " task " << task;
    order.emplace_back(agent, task);
  }
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

// ---- Outcome bit-identity --------------------------------------------------

void expect_outcomes_identical(const Outcome& a, const Outcome& b,
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
  EXPECT_EQ(a.traffic.p2p_equivalent_messages,
            b.traffic.p2p_equivalent_messages)
      << label;
  EXPECT_EQ(a.traffic.p2p_equivalent_bytes, b.traffic.p2p_equivalent_bytes)
      << label;
  // The modular work per phase is a function of the protocol state alone,
  // never of the worker schedule: op counts must agree exactly too.
  for (std::size_t ph = 0; ph < a.phases.size(); ++ph) {
    EXPECT_EQ(a.phases[ph].ops.total(), b.phases[ph].ops.total())
        << label << " phase " << ph;
  }
  // The production comparator (dmw_serve --check-oneshot, bench_parallel)
  // must agree with the field-by-field checks above.
  EXPECT_TRUE(outcomes_identical(a, b)) << label;
}

TEST(ParallelProtocol, HonestRunsBitIdenticalAcrossThreadCounts) {
  struct Config {
    std::size_t n, m;
    std::uint64_t seed;
  };
  for (const auto& config :
       {Config{6, 4, 3}, Config{8, 6, 5}, Config{5, 1, 9}}) {
    const auto params =
        PublicParams<Group64>::make(grp(), config.n, config.m, 1, config.seed);
    Xoshiro256ss rng(config.seed * 31 + 1);
    const auto instance =
        mech::make_uniform_instance(config.n, config.m, params.bid_set(), rng);

    const auto inline_run = run_honest_dmw(params, instance);
    ASSERT_FALSE(inline_run.aborted);
    EXPECT_EQ(inline_run.schedule, mech::run_minwork(instance).schedule);

    for (std::size_t threads : kThreadCounts) {
      expect_outcomes_identical(
          inline_run, run_parallel_dmw(params, instance, threads),
          "n=" + std::to_string(config.n) + " m=" + std::to_string(config.m) +
              " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelProtocol, SeedSweepMatchesSequential) {
  const auto params = PublicParams<Group64>::make(grp(), 6, 3, 1, 42);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256ss rng(seed);
    const auto instance =
        mech::make_uniform_instance(6, 3, params.bid_set(), rng);
    RunConfig config;
    config.secret_seed = seed * 1000 + 7;

    HonestStrategy<Group64> honest;
    std::vector<Strategy<Group64>*> strategies(6, &honest);
    ProtocolRunner<Group64> inline_runner(params, instance, strategies,
                                          config);
    const auto reference = inline_runner.run();

    for (std::size_t threads : kThreadCounts) {
      ParallelProtocol<Group64> runner(params, instance, strategies, threads,
                                       config);
      expect_outcomes_identical(reference, runner.run(),
                                "threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelProtocol, DeviantAbortRecordsMatchSequential) {
  const auto params = PublicParams<Group64>::make(grp(), 6, 3, 1, 2);
  Xoshiro256ss rng(11);
  const auto instance = mech::make_uniform_instance(6, 3, params.bid_set(), rng);

  // One early (Phase III.1 share verification) and one mid-run (Phase III.2
  // Lambda forgery) deviation: any worker's detected deviation must abort
  // every task at the same stage barrier the inline executor aborts at.
  CorruptShareStrategy<Group64> corrupt(/*victim=*/1);
  BadLambdaStrategy<Group64> bad_lambda;
  for (Strategy<Group64>* deviant :
       {static_cast<Strategy<Group64>*>(&corrupt),
        static_cast<Strategy<Group64>*>(&bad_lambda)}) {
    HonestStrategy<Group64> honest;
    std::vector<Strategy<Group64>*> strategies(6, &honest);
    strategies[3] = deviant;

    ProtocolRunner<Group64> inline_runner(params, instance, strategies);
    const auto reference = inline_runner.run();
    ASSERT_TRUE(reference.aborted) << deviant->name();

    for (std::size_t threads : kThreadCounts) {
      ParallelProtocol<Group64> runner(params, instance, strategies, threads);
      const auto parallel = runner.run();
      expect_outcomes_identical(
          reference, parallel,
          deviant->name() + " threads=" + std::to_string(threads));
      // Abort propagation: once the deviation is detected, no later-phase
      // traffic may exist in the pooled run either.
      const auto& winner_phase =
          parallel.phases[static_cast<std::size_t>(Phase::kWinner)];
      const auto& payment_phase =
          parallel.phases[static_cast<std::size_t>(Phase::kPayments)];
      EXPECT_EQ(winner_phase.stats.broadcast_messages, 0u);
      EXPECT_EQ(payment_phase.stats.broadcast_messages, 0u);
    }
  }
}

TEST(ParallelProtocol, CrashTolerantRunsMatchSequential) {
  const auto params =
      PublicParams<Group64>::make_crash_tolerant(grp(), 7, 3, 2, 21);
  Xoshiro256ss rng(77);
  const auto instance = mech::make_uniform_instance(7, 3, params.bid_set(), rng);

  CrashStrategy<Group64> crash(CrashPoint::kAfterBidding);
  HonestStrategy<Group64> honest;
  std::vector<Strategy<Group64>*> strategies(7, &honest);
  strategies[6] = &crash;
  strategies[5] = &crash;

  ProtocolRunner<Group64> inline_runner(params, instance, strategies);
  const auto reference = inline_runner.run();
  ASSERT_FALSE(reference.aborted);

  for (std::size_t threads : kThreadCounts) {
    ParallelProtocol<Group64> runner(params, instance, strategies, threads);
    expect_outcomes_identical(
        reference, runner.run(),
        "crash-tolerant threads=" + std::to_string(threads));
  }
}

TEST(ParallelProtocol, MoreThreadsThanTasksOrAgents) {
  const auto params = PublicParams<Group64>::make(grp(), 3, 1, 1, 4);
  Xoshiro256ss rng(5);
  const auto instance = mech::make_uniform_instance(3, 1, params.bid_set(), rng);
  const auto reference = run_honest_dmw(params, instance);
  for (std::size_t threads : kThreadCounts) {
    expect_outcomes_identical(reference,
                              run_parallel_dmw(params, instance, threads),
                              "n=3 m=1 threads=" + std::to_string(threads));
  }
}

// ---- Shared per-agent cache publication contract ---------------------------

// The amortized setup caches (pseudonym-power tables and Lagrange prefix bases
// in PublicParams, pristine RNG streams inside each agent) are built once and
// then read concurrently by every worker. This test proves the publication
// contract two ways: the tables are byte-identical before and after a
// multi-threaded run, and a worker pool hammering reads against the same rows
// while a pooled protocol run is using them stays TSan-clean (any
// post-publication write would be a data race the sanitizer job flags).
TEST(ParallelProtocol, SharedCachesImmutableAfterPublication) {
  const auto params = PublicParams<Group64>::make(grp(), 5, 4, 1, 9);
  Xoshiro256ss rng(31);
  const auto instance = mech::make_uniform_instance(5, 4, params.bid_set(), rng);

  // Snapshot the shared pseudonym-power rows and prefix bases before any
  // protocol run.
  std::vector<std::vector<Group64::Scalar>> snapshot;
  for (std::size_t k = 0; k < params.n(); ++k) {
    snapshot.push_back(params.pseudonym_powers(k));
  }
  const auto bases_snapshot = params.prefix_bases();

  // Concurrent-reader hammer: while the protocol run below reads the caches
  // from its own workers, this pool re-reads every row and compares against
  // the pre-run snapshot. A mutation shows up as a value mismatch here and as
  // a race under TSan.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> mismatches{0};
  ThreadPool readers(4);
  for (std::size_t r = 0; r < 4; ++r) {
    readers.submit([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (std::size_t k = 0; k < params.n(); ++k) {
          const auto& row = params.pseudonym_powers(k);
          if (row != snapshot[k]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (params.prefix_bases() != bases_snapshot) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();
      }
    });
  }

  const auto reference = run_honest_dmw(params, instance);
  const auto parallel = run_parallel_dmw(params, instance, /*threads=*/4);

  stop.store(true, std::memory_order_release);
  readers.drain();

  expect_outcomes_identical(reference, parallel, "shared-cache run");
  EXPECT_EQ(mismatches.load(), 0u);
  for (std::size_t k = 0; k < params.n(); ++k) {
    EXPECT_EQ(params.pseudonym_powers(k), snapshot[k])
        << "pseudonym powers mutated for agent " << k;
  }
  EXPECT_EQ(params.prefix_bases(), bases_snapshot);
}

// ---- SimNetwork under concurrent traffic -----------------------------------

TEST(SimNetworkConcurrency, StressPreservesTrafficTotals) {
  constexpr std::size_t kAgents = 4;
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kSends = 200;
  constexpr std::size_t kPublishes = 50;

  net::SimNetwork network(kAgents);
  network.enable_concurrency(kWorkers);
  ThreadPool pool(kWorkers);

  pool.parallel_for(kWorkers, [&](std::size_t w) {
    const auto from = static_cast<net::AgentId>(w % kAgents);
    const auto to = static_cast<net::AgentId>((w + 1) % kAgents);
    for (std::size_t i = 0; i < kSends; ++i) {
      std::vector<std::uint8_t> payload((w + i) % 17 + 1, 0xab);
      network.send(from, to, /*kind=*/1, std::move(payload));
    }
    for (std::size_t i = 0; i < kPublishes; ++i) {
      std::vector<std::uint8_t> payload((w + i) % 11 + 1, 0xcd);
      network.publish(from, /*kind=*/2, std::move(payload));
    }
  });
  network.advance_round();

  // Expected totals, computed by replaying the loops serially.
  net::TrafficStats expected;
  std::vector<net::TrafficStats> expected_per_agent(kAgents);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    const std::size_t from = w % kAgents;
    for (std::size_t i = 0; i < kSends; ++i) {
      const std::uint64_t size = 12 + ((w + i) % 17 + 1);
      expected.unicast_messages += 1;
      expected.unicast_bytes += size;
      expected.p2p_equivalent_messages += 1;
      expected.p2p_equivalent_bytes += size;
      expected_per_agent[from].unicast_messages += 1;
      expected_per_agent[from].unicast_bytes += size;
    }
    for (std::size_t i = 0; i < kPublishes; ++i) {
      const std::uint64_t size = 12 + ((w + i) % 11 + 1);
      expected.broadcast_messages += 1;
      expected.broadcast_bytes += size;
      expected.p2p_equivalent_messages += kAgents - 1;
      expected.p2p_equivalent_bytes += (kAgents - 1) * size;
      expected_per_agent[from].broadcast_messages += 1;
      expected_per_agent[from].broadcast_bytes += size;
    }
  }

  EXPECT_EQ(network.stats().unicast_messages, expected.unicast_messages);
  EXPECT_EQ(network.stats().unicast_bytes, expected.unicast_bytes);
  EXPECT_EQ(network.stats().broadcast_messages, expected.broadcast_messages);
  EXPECT_EQ(network.stats().broadcast_bytes, expected.broadcast_bytes);
  EXPECT_EQ(network.stats().p2p_equivalent_messages,
            expected.p2p_equivalent_messages);
  EXPECT_EQ(network.stats().p2p_equivalent_bytes,
            expected.p2p_equivalent_bytes);
  for (std::size_t a = 0; a < kAgents; ++a) {
    EXPECT_EQ(network.stats_for(static_cast<net::AgentId>(a)).unicast_messages,
              expected_per_agent[a].unicast_messages)
        << "agent " << a;
    EXPECT_EQ(network.stats_for(static_cast<net::AgentId>(a)).unicast_bytes,
              expected_per_agent[a].unicast_bytes)
        << "agent " << a;
    EXPECT_EQ(
        network.stats_for(static_cast<net::AgentId>(a)).broadcast_messages,
        expected_per_agent[a].broadcast_messages)
        << "agent " << a;
  }

  // Every envelope is delivered exactly once, every posting became visible.
  std::size_t delivered = 0;
  for (std::size_t a = 0; a < kAgents; ++a)
    delivered += network.receive(static_cast<net::AgentId>(a)).size();
  EXPECT_EQ(delivered, kWorkers * kSends);
  EXPECT_EQ(network.bulletin().size(), kWorkers * kPublishes);
  EXPECT_EQ(network.in_flight(), 0u);
}

// Concurrent receive/read_bulletin alongside sends: the protocol never does
// this within one stage, but the lock structure must keep it safe for the
// ingest stages that drain inboxes from several agents at once.
TEST(SimNetworkConcurrency, ParallelDrainAfterParallelSend) {
  constexpr std::size_t kAgents = 8;
  net::SimNetwork network(kAgents);
  network.enable_concurrency(kAgents);
  ThreadPool pool(kAgents);

  pool.parallel_for(kAgents, [&](std::size_t w) {
    for (std::size_t to = 0; to < kAgents; ++to) {
      if (to == w) continue;
      network.send(static_cast<net::AgentId>(w),
                   static_cast<net::AgentId>(to), 7, {1, 2, 3});
    }
  });
  network.advance_round();

  std::vector<std::size_t> counts(kAgents, 0);
  pool.parallel_for(kAgents, [&](std::size_t a) {
    counts[a] = network.receive(static_cast<net::AgentId>(a)).size();
  });
  for (std::size_t a = 0; a < kAgents; ++a)
    EXPECT_EQ(counts[a], kAgents - 1) << "agent " << a;
}

}  // namespace
}  // namespace dmw::proto
