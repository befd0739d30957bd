// The DMW protocol engine.
//
// Drives n agents through the four phases of §3 over a SimNetwork,
// implements the payment infrastructure's agreement rule, and assembles the
// final Outcome (schedule, payments, per-phase traffic, abort record). One
// engine executes the auctions for all m tasks in parallel, exactly as the
// paper prescribes ("a set of parallel and independent distributed Vickrey
// auctions"), and every per-task quantity (shares, commitments, Lambda/Psi,
// disclosures, prices) lives in its own TaskView.
//
// Execution is organized into *epochs*: the SimNetwork rounds, whose
// advance_round() calls are the only global barriers (round structure is
// part of the Outcome identity, so an epoch cannot be crossed early). The
// nine epochs form one stage table, and one interpreter walks it: inside an
// epoch, each agent advances through its stage chain independently,
//
//   ingest(i) -> { task slices (i, j-chunk) ... } -> commit(i) -> next stage
//
// with no cross-agent joins. Each slice is handed to an *executor*:
//
//   - the inline executor (ProtocolRunner: the engine built without a pool)
//     runs each slice immediately on the driver thread, and the last slice
//     of a stage continues the chain right there. Agents therefore
//     advance in agent-then-task order: agent 0's whole epoch, then agent
//     1's, each in ascending task order. This fixed order is the sequential
//     reference the pooled runs are compared against;
//   - the pooled executor (ParallelProtocol's two constructors) submits the
//     slices to a work-stealing ThreadPool (support/thread_pool.hpp). A
//     per-agent epoch counter lets the last slice to finish continue its
//     chain, so a slow verification slice stalls only its own agent, and
//     n * ceil(m/chunk) stealable slices per stage keep every worker busy
//     even when m < threads.
//
// Determinism contract (Outcomes, AbortReason streams and RunReports are
// bit-identical across executors and thread counts):
//
//   - Per-task randomness comes from ChaCha streams keyed by
//     (master seed, agent, task) — DmwAgent::task_rng — so sampled
//     polynomials never depend on worker count or execution order.
//   - Failed checks are recorded per task and committed at the agent's
//     stage boundary as one abort on the lowest failing task; the engine
//     then records the lowest aborted agent id at the epoch boundary. Both
//     are the inline executor's scan order, whichever worker ran first.
//   - Workers only write the TaskView slots of the slice they own,
//     per-worker traffic accumulators (SimNetwork::enable_concurrency) and
//     per-thread op counters; cross-agent data only moves through the
//     network, which delivers at epoch boundaries.
//   - Shared caches (PublicParams pseudonym-power tables, per-agent RNG
//     stream states, AEAD channel keys, group fixed-base tables) are built
//     once before the fan-out and are immutable afterwards; workers only
//     read them.
//
// The bulletin may interleave *postings within a round* differently on a
// pool, but every Outcome field is a function of per-sender keyed state,
// never of posting order.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dmw/agent.hpp"
#include "dmw/payment.hpp"
#include "mech/schedule.hpp"
#include "numeric/opcount.hpp"
#include "support/annotations.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dmw::proto {

/// Phase labels for the traffic breakdown (Fig. 2 reproduction).
enum class Phase : std::size_t {
  kBidding = 0,          // II: shares + commitments
  kLambdaPsi = 1,        // III.1-III.2
  kWinner = 2,           // III.3
  kSecondPrice = 3,      // III.4
  kPayments = 4,         // IV
  kCount = 5,
};

const char* to_string(Phase phase);

struct PhaseTraffic {
  net::TrafficStats stats;
  double seconds = 0.0;
  dmw::num::OpCounts ops;
};

struct Outcome {
  bool aborted = false;
  std::optional<AbortMsg> abort_record;
  std::size_t aborting_agent = 0;

  mech::Schedule schedule;                 ///< valid iff !aborted
  std::vector<std::uint64_t> payments;     ///< P_i; zeros when aborted
  std::vector<mech::Cost> first_prices;    ///< per task
  std::vector<mech::Cost> second_prices;   ///< per task
  std::vector<mech::Cost> winning_bids() const { return first_prices; }

  net::TrafficStats traffic;               ///< whole-run totals
  std::array<PhaseTraffic, static_cast<std::size_t>(Phase::kCount)> phases;
  /// Communication-ledger rows (SimNetwork::comm_rows()): every message
  /// attributed to its (phase, round, kind, sender) cell. Populated only
  /// when the run was traced (the ledger records iff trace::on()).
  std::vector<net::CommRow> comm;
  std::uint64_t rounds = 0;
  bool transcripts_consistent = true;      ///< all agents saw one broadcast

  /// U_i = P_i - sum of true costs of assigned tasks; 0 on abort.
  std::int64_t utility(const mech::SchedulingInstance& instance,
                       std::size_t agent) const {
    if (aborted) return 0;
    return mech::utility(instance, schedule, agent, payments[agent]);
  }
};

/// Per-run configuration.
struct RunConfig {
  std::uint64_t secret_seed = 0x5eed;  ///< base seed for agent secrets
  /// Seal Phase II shares with DH-derived AEAD keys (paper II.2 "securely
  /// transmits"). Disable to model physically private channels.
  bool encrypt_channels = true;
  /// Inert; must stay false. dmw_bench/ is its only reader.
  bool deterministic_schedule = false;
};

/// Field-by-field Outcome identity — the bit-identity contract: abort
/// record, schedule, prices, payments, rounds, transcript consistency,
/// whole-run traffic, and per phase the traffic and the op total (the
/// modular work of a phase is a function of the protocol state alone, never
/// of the executor). Wall time and the comm ledger are not compared.
inline bool outcomes_identical(const Outcome& a, const Outcome& b) {
  if (a.aborted != b.aborted) return false;
  if (a.aborted) {
    if (!a.abort_record || !b.abort_record) return false;
    if (a.abort_record->task != b.abort_record->task) return false;
    if (a.abort_record->reason != b.abort_record->reason) return false;
    if (a.aborting_agent != b.aborting_agent) return false;
  } else {
    if (!(a.schedule == b.schedule)) return false;
    if (a.first_prices != b.first_prices) return false;
    if (a.second_prices != b.second_prices) return false;
  }
  if (a.payments != b.payments || a.rounds != b.rounds ||
      a.transcripts_consistent != b.transcripts_consistent ||
      a.traffic != b.traffic)
    return false;
  for (std::size_t ph = 0; ph < a.phases.size(); ++ph) {
    if (a.phases[ph].stats != b.phases[ph].stats) return false;
    if (a.phases[ph].ops.total() != b.phases[ph].ops.total()) return false;
  }
  return true;
}

// ---- Engine pieces ----------------------------------------------------------

/// Construct the n agents with their derived secret seeds.
template <dmw::num::GroupBackend G>
std::vector<std::unique_ptr<DmwAgent<G>>> make_dmw_agents(
    const PublicParams<G>& params, const mech::SchedulingInstance& instance,
    const std::vector<Strategy<G>*>& strategies, const RunConfig& config) {
  DMW_REQUIRE(instance.n == params.n());
  DMW_REQUIRE(instance.m == params.m());
  DMW_REQUIRE(strategies.size() == params.n());
  instance.validate();
  std::vector<std::unique_ptr<DmwAgent<G>>> agents;
  agents.reserve(params.n());
  for (std::size_t i = 0; i < params.n(); ++i) {
    DMW_REQUIRE(strategies[i] != nullptr);
    agents.push_back(std::make_unique<DmwAgent<G>>(
        params, i, instance.cost[i], *strategies[i],
        config.secret_seed + 0x9e3779b97f4a7c15ULL * (i + 1),
        config.encrypt_channels));
  }
  return agents;
}

inline void accumulate_traffic(net::TrafficStats& bucket,
                               const net::TrafficStats& now,
                               const net::TrafficStats& before) {
  bucket.unicast_messages += now.unicast_messages - before.unicast_messages;
  bucket.unicast_bytes += now.unicast_bytes - before.unicast_bytes;
  bucket.broadcast_messages +=
      now.broadcast_messages - before.broadcast_messages;
  bucket.broadcast_bytes += now.broadcast_bytes - before.broadcast_bytes;
  bucket.p2p_equivalent_messages +=
      now.p2p_equivalent_messages - before.p2p_equivalent_messages;
  bucket.p2p_equivalent_bytes +=
      now.p2p_equivalent_bytes - before.p2p_equivalent_bytes;
}

/// An abort by any agent terminates the protocol for everyone; the lowest
/// aborted agent id is recorded (= the first one the inline scan saw).
template <dmw::num::GroupBackend G>
void note_aborts(const std::vector<std::unique_ptr<DmwAgent<G>>>& agents,
                 Outcome& outcome) {
  for (const auto& agent : agents) {
    if (agent->aborted() && !outcome.aborted) {
      outcome.aborted = true;
      outcome.abort_record = agent->abort_record();
      outcome.aborting_agent = agent->id();
    }
  }
}

/// Post-run settlement + outcome assembly: decode payment claims, settle by
/// quorum agreement, read the schedule and prices off the first complete
/// agent, audit transcript consistency.
template <dmw::num::GroupBackend G>
void finalize_outcome(const PublicParams<G>& params, net::SimNetwork& net,
                      PaymentInfrastructure& infra,
                      const std::vector<std::unique_ptr<DmwAgent<G>>>& agents,
                      Outcome& outcome) {
  DMW_SPAN("run/finalize");
  outcome.traffic = net.stats();
  outcome.comm = net.comm_rows();
  if (outcome.aborted) return;

  // Payment settlement (Phase IV): decode the published claims.
  std::size_t cursor = 0;
  for (const auto& posting : net.read_bulletin(cursor)) {
    if (posting.kind != static_cast<std::uint32_t>(MsgKind::kPaymentClaim))
      continue;
    try {
      auto msg = PaymentClaimMsg::decode(posting.payload);
      if (msg.payments.size() != params.n()) continue;
      infra.submit(posting.from, std::move(msg.payments));
    } catch (const net::DecodeError&) {
      // Malformed claim: simply never reaches agreement.
    }
  }
  const auto settled = infra.settle(params.quorum());
  if (!settled) {
    outcome.aborted = true;
    outcome.abort_record = AbortMsg{0, AbortReason::kPaymentDisagreement};
    return;
  }
  outcome.payments = *settled;

  // Assemble the schedule from the first agent that resolved every task
  // (in an all-honest run that is agent 0; with deviants or crashed
  // agents it is the first live honest agent — all of them agree).
  const DmwAgent<G>* reference_agent = nullptr;
  for (const auto& agent : agents) {
    bool complete = !agent->aborted();
    for (std::size_t j = 0; complete && j < params.m(); ++j) {
      const auto& view = agent->task_view(j);
      complete = view.winner && view.first_price && view.second_price;
    }
    if (complete) {
      reference_agent = agent.get();
      break;
    }
  }
  if (reference_agent == nullptr) {
    outcome.aborted = true;
    outcome.abort_record = AbortMsg{0, AbortReason::kQuorumLost};
    return;
  }
  std::vector<std::size_t> task_to_agent(params.m());
  outcome.first_prices.resize(params.m());
  outcome.second_prices.resize(params.m());
  for (std::size_t j = 0; j < params.m(); ++j) {
    const auto& view = reference_agent->task_view(j);
    task_to_agent[j] = *view.winner;
    outcome.first_prices[j] = *view.first_price;
    outcome.second_prices[j] = *view.second_price;
  }
  outcome.schedule = mech::Schedule(std::move(task_to_agent));

  // Broadcast-consistency audit: all transcripts must agree.
  const auto reference = agents[0]->transcript().digest();
  for (const auto& agent : agents) {
    if (agent->transcript().digest() != reference) {
      outcome.transcripts_consistent = false;
      break;
    }
  }
}

/// The protocol engine on a pooled executor: same constructor shape as
/// ProtocolRunner plus a thread count (0 = one worker per hardware thread,
/// logged at Info) or a borrowed pool. Produces Outcomes bit-identical to
/// the inline executor at any thread count.
///
/// Strategies must be reentrant: with per-(agent, task-chunk) slices stolen
/// across workers, the per-task hooks (edit_share, edit_lambda_psi, ...) of
/// one strategy object run concurrently for different tasks (and choose_bids
/// concurrently for different agents when an instance is shared). Every
/// strategy in dmw/strategies.hpp is read-only after construction and
/// qualifies.
template <dmw::num::GroupBackend G>
class ParallelProtocol {
 public:
  ParallelProtocol(const PublicParams<G>& params,
                   const mech::SchedulingInstance& instance,
                   std::vector<Strategy<G>*> strategies, std::size_t threads,
                   RunConfig config = RunConfig{})
      : ParallelProtocol(
            params, instance, std::move(strategies),
            std::make_unique<ThreadPool>(
                threads == 0 ? ThreadPool::default_thread_count() : threads),
            /*borrowed=*/nullptr, config) {
    if (threads == 0) {
      DMW_INFO() << "--threads 0 resolved to " << pool_->size()
                 << " workers (std::thread::hardware_concurrency)";
    }
  }

  /// Server-mode hook: borrow a caller-owned pool instead of spawning one.
  /// A stream of auctions (tools/dmw_serve) then reuses a single warmed set
  /// of workers across requests — thread creation and teardown leave the
  /// per-auction path entirely. The pool must be quiescent for the duration
  /// of run(): the engine is its only client between drain barriers.
  ParallelProtocol(const PublicParams<G>& params,
                   const mech::SchedulingInstance& instance,
                   std::vector<Strategy<G>*> strategies, ThreadPool& pool,
                   RunConfig config = RunConfig{})
      : ParallelProtocol(params, instance, std::move(strategies),
                         /*owned=*/nullptr, &pool, config) {}

  /// Pool workers; 0 for the inline executor.
  std::size_t threads() const { return pool_ == nullptr ? 0 : pool_->size(); }
  net::SimNetwork& network() { return net_; }
  const DmwAgent<G>& agent(std::size_t i) const { return *agents_[i]; }

  Outcome run() {
    assert_driver();
    Outcome outcome;
    outcome.payments.assign(params_.n(), 0);

    using Agent = DmwAgent<G>;

    // Channel setup: DH key publication for the private channels.
    run_epoch(Phase::kBidding, outcome,
              {Stage{[this](Agent& a) { a.phase0_publish_key(net_); }, nullptr,
                     false}});

    // Phase II: bidding (II.1-II.3) + implicit synchronization (II.4). An
    // agent starts sealing and sending shares the moment its own key
    // derivation is done; it does not wait for its peers'.
    run_epoch(Phase::kBidding, outcome,
              {Stage{[this](Agent& a) { a.phase2_prepare(net_); },
                     [this](Agent& a, std::size_t j) {
                       a.phase2_send_task(net_, j);
                     },
                     false}});

    // Phase III.1 + III.2: verification fans out per (agent, task) — the
    // BatchVerifier multi-exps are the dominant independent jobs — then each
    // agent commits its own deferred failures and pipelines straight into
    // Lambda/Psi aggregation without waiting for other agents to finish
    // verifying.
    run_epoch(Phase::kLambdaPsi, outcome,
              {Stage{[this](Agent& a) { a.phase3_ingest(net_); },
                     [this](Agent& a, std::size_t j) {
                       a.phase3_verify_task(net_, j);
                     },
                     /*commit_after=*/true},
               Stage{nullptr,
                     [this](Agent& a, std::size_t j) {
                       a.phase3_lambda_task(net_, j);
                     },
                     false}});
    run_epoch(Phase::kLambdaPsi, outcome,
              {Stage{[this](Agent& a) { a.absorb_published(net_); },
                     [this](Agent& a, std::size_t j) {
                       a.phase3_first_price_task(net_, j);
                     },
                     /*commit_after=*/true}});

    // Phase III.3.
    run_epoch(Phase::kWinner, outcome,
              {Stage{nullptr,
                     [this](Agent& a, std::size_t j) {
                       a.phase3_disclose_task(net_, j);
                     },
                     false}});
    run_epoch(Phase::kWinner, outcome,
              {Stage{[this](Agent& a) { a.absorb_published(net_); },
                     [this](Agent& a, std::size_t j) {
                       a.phase3_winner_task(net_, j);
                     },
                     /*commit_after=*/true}});

    // Phase III.4.
    run_epoch(Phase::kSecondPrice, outcome,
              {Stage{nullptr,
                     [this](Agent& a, std::size_t j) {
                       a.phase3_reduced_task(net_, j);
                     },
                     false}});
    run_epoch(Phase::kSecondPrice, outcome,
              {Stage{[this](Agent& a) { a.absorb_published(net_); },
                     [this](Agent& a, std::size_t j) {
                       a.phase3_second_price_task(net_, j);
                     },
                     /*commit_after=*/true}});

    // Phase IV.
    run_epoch(Phase::kPayments, outcome,
              {Stage{[this](Agent& a) { a.phase4_submit_payment_claim(net_); },
                     nullptr, false}});

    finalize_outcome(params_, net_, infra_, agents_, outcome);
    return outcome;
  }

 protected:
  /// Delegation target: at most one of `owned` / `borrowed` is set, and
  /// pool_ points at whichever the caller provided. Neither set builds the
  /// inline executor (ProtocolRunner).
  ParallelProtocol(const PublicParams<G>& params,
                   const mech::SchedulingInstance& instance,
                   std::vector<Strategy<G>*> strategies,
                   std::unique_ptr<ThreadPool> owned, ThreadPool* borrowed,
                   const RunConfig& config)
      : params_(params),
        net_(params.n()),
        infra_(params.n()),
        agents_(make_dmw_agents(params, instance, strategies, config)),
        owned_pool_(std::move(owned)),
        pool_(borrowed != nullptr ? borrowed : owned_pool_.get()) {
    DMW_REQUIRE_MSG(!config.deterministic_schedule,
                    "RunConfig::deterministic_schedule: lockstep was removed");
    if (pool_ != nullptr) {
      worker_ops_.resize(pool_->size());
      net_.enable_concurrency(pool_->size());
    }
    if (params.tracing()) trace::Tracer::instance().set_enabled(true);
  }

 private:
  /// One stage of an epoch: an optional per-agent prologue, an optional
  /// per-(agent, task) fan-out, and an optional deferred-failure commit at
  /// the agent's stage boundary. An epoch is a short sequence of stages
  /// executed per agent chain.
  struct Stage {
    std::function<void(DmwAgent<G>&)> agent_fn;
    std::function<void(DmwAgent<G>&, std::size_t)> task_fn;
    bool commit_after = false;
  };

  /// Runtime-checked entry to the driver-only surface. run() may be invoked
  /// from any non-pool thread; everything downstream of it — run_epoch, the
  /// interpreter, advance_round, worker_ops_ merges — assumes the caller IS
  /// the (single) driver. The assert tells clang's capability analysis to
  /// assume the driver_role_ role from here on, and the DMW_REQUIRE backs
  /// that up at runtime: a pool worker reaching run() (e.g. a future
  /// nested-engine refactor) trips immediately instead of racing the epoch
  /// bookkeeping.
  void assert_driver() DMW_ASSERT_CAPABILITY(driver_role_) {
    DMW_REQUIRE_MSG(ThreadPool::current_worker_id() == -1,
                    "ParallelProtocol::run called from a pool worker");
  }

  /// One network epoch: the stages run, then the round advances and the
  /// phase bucket absorbs this epoch's traffic, wall time and the op-count
  /// deltas of the driver and every worker.
  void run_epoch(Phase phase, Outcome& outcome, std::vector<Stage> stages)
      DMW_REQUIRES(driver_role_) {
    if (outcome.aborted) return;
    net_.set_comm_phase(static_cast<std::uint32_t>(phase), to_string(phase));
    const auto traffic_before = net_.stats();
    for (auto& ops : worker_ops_) ops = dmw::num::OpCounts{};
    dmw::num::OpCountScope driver_ops;
    trace::Span span(to_string(phase));
    const std::int64_t step_begin_ns = trace::Tracer::instance().now_ns();

    run_pipelined(stages);

    net_.advance_round();
    ++outcome.rounds;
    // Implicit synchronization (paper II.4): wait out injected delivery
    // delays so slow links cost rounds, not spurious aborts. The bound is a
    // safety net against a pathological injector.
    for (int wait = 0; net_.in_flight() > 0 && wait < 1024; ++wait) {
      net_.advance_round();
      ++outcome.rounds;
    }

    auto& bucket = outcome.phases[static_cast<std::size_t>(phase)];
    bucket.seconds +=
        static_cast<double>(trace::Tracer::instance().now_ns() -
                            step_begin_ns) *
        1e-9;
    bucket.ops += driver_ops.delta();
    dmw::num::OpCounts workers_total;
    for (const auto& ops : worker_ops_) workers_total += ops;
    bucket.ops += workers_total;
    // Credit the workers' ops to the driver thread too (after the
    // driver_ops.delta() read, so the bucket is not double-counted): the
    // enclosing phase span and any caller's OpCountScope then observe the
    // same per-phase deltas as the inline executor, which is what keeps
    // RunReports executor-invariant.
    dmw::num::op_counts() += workers_total;
    accumulate_traffic(bucket.stats, net_.stats(), traffic_before);

    note_aborts(agents_, outcome);
    // Epoch boundary: every worker is idle (drain returned), so their span
    // buffers can be drained into the central log in worker-id order. This
    // is the only place spans are flushed — there are no intra-epoch stage
    // barriers.
    if (trace::on()) trace::Tracer::instance().flush_thread_buffers();
  }

  /// Per-agent chains through the epoch's stages. Each chain runs its
  /// prologue, fans its task work out as chunk slices, and the last slice
  /// to finish (per-chain epoch counter hitting zero) commits the agent's
  /// deferred failures and advances the chain — no cross-agent join
  /// anywhere; the driver only waits for the whole epoch to drain.
  void run_pipelined(const std::vector<Stage>& stages)
      DMW_REQUIRES(driver_role_) {
    const std::size_t n = agents_.size();
    const std::size_t m = params_.m();
    // Chunk width for the task fan-out: slices of the n*m (agent, task)
    // grid, sized so every stage yields several stealable slices per worker
    // even when m < threads. Inline, one slice covers an agent's tasks.
    const std::size_t chunk = pool_ != nullptr ? pool_->chunk_size(n * m) : m;

    struct Chain {
      std::size_t stage = 0;
      std::atomic<std::size_t> remaining{0};
    };
    std::vector<Chain> chains(n);

    // advance(i) runs agent i's chain from its current stage until it either
    // fans out task slices (the last slice re-enters advance) or finishes
    // the epoch. Every job completes before drain() returns, so the
    // by-reference captures of this frame stay valid.
    std::function<void(std::size_t)> advance = [&](std::size_t i) {
      Chain& chain = chains[i];
      while (chain.stage < stages.size()) {
        const Stage& stage = stages[chain.stage];
        if (stage.agent_fn) charge([&] { stage.agent_fn(*agents_[i]); });
        if (stage.task_fn && m > 0) {
          const std::size_t slices = (m + chunk - 1) / chunk;
          chain.remaining.store(slices, std::memory_order_relaxed);
          for (std::size_t begin = 0; begin < m; begin += chunk) {
            const std::size_t end = begin + chunk < m ? begin + chunk : m;
            execute([this, &advance, &chain, &stage, i, begin, end] {
              charge([&] {
                for (std::size_t j = begin; j < end; ++j)
                  stage.task_fn(*agents_[i], j);
              });
              if (chain.remaining.fetch_sub(1, std::memory_order_acq_rel) ==
                  1) {
                if (stage.commit_after)
                  charge([&] { agents_[i]->commit_task_failures(net_); });
                ++chain.stage;
                advance(i);
              }
            });
          }
          return;  // the last slice continues the chain
        }
        if (stage.commit_after)
          charge([&] { agents_[i]->commit_task_failures(net_); });
        ++chain.stage;
      }
    };

    for (std::size_t i = 0; i < n; ++i) execute([&advance, i] { advance(i); });
    if (pool_ != nullptr) pool_->drain();
  }

  /// The executor: submit `job` to the pool, or run it right here. Inline,
  /// a chain's last slice re-enters advance() directly, so each agent
  /// finishes its epoch before the next agent starts.
  template <class Job>
  void execute(Job&& job) {
    if (pool_ != nullptr)
      pool_->submit(std::forward<Job>(job));
    else
      job();
  }

  /// Run body() under an op-count scope and bank the delta in the calling
  /// worker's slot (the driver's thread-local counter already feeds
  /// driver_ops in run_epoch).
  template <class Body>
  void charge(Body&& body) {
    dmw::num::OpCountScope scope;
    body();
    const int worker = ThreadPool::current_worker_id();
    if (worker >= 0) worker_ops_[static_cast<std::size_t>(worker)] +=
        scope.delta();
  }

  const PublicParams<G>& params_;
  net::SimNetwork net_;
  PaymentInfrastructure infra_;
  std::vector<std::unique_ptr<DmwAgent<G>>> agents_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< set by the threads ctor
  ThreadPool* pool_;  ///< owned, borrowed, or null for the inline executor
  std::vector<dmw::num::OpCounts> worker_ops_;  // merged per run_epoch
  /// Phantom "driver" capability (annotations.hpp): run_epoch and the
  /// interpreter DMW_REQUIRES it, assert_driver() produces it.
  ThreadRole driver_role_;
};

/// The engine on the inline executor: no pool, no SimNetwork concurrency,
/// no worker op banks. The sequential reference every pooled run is
/// compared against (the identity soaks, dmw_serve --check-oneshot).
template <dmw::num::GroupBackend G>
class ProtocolRunner : public ParallelProtocol<G> {
 public:
  /// `strategies[i]` controls agent i; entries may be shared. The instance
  /// provides the agents' true types (used by honest agents as their bids).
  ProtocolRunner(const PublicParams<G>& params,
                 const mech::SchedulingInstance& instance,
                 std::vector<Strategy<G>*> strategies,
                 RunConfig config = RunConfig{})
      : ParallelProtocol<G>(params, instance, std::move(strategies),
                            /*owned=*/nullptr, /*borrowed=*/nullptr, config) {}
};

/// Assemble the machine-readable RunReport for a finished run: the
/// Outcome's per-phase wall-time/ops/traffic table plus the tracer's span
/// aggregates and the metrics-registry snapshots (trace::collect_into).
/// Call on the driver thread, after run(), while the tracer state of the
/// run is still live (before the next reset()). Under ClockMode::kLogical
/// the returned report serializes bit-identically at any thread count and
/// on either executor.
template <dmw::num::GroupBackend G>
trace::RunReport make_run_report(const PublicParams<G>& params,
                                 const Outcome& outcome) {
  trace::RunReport report;
  report.label = params.describe();
  report.n = params.n();
  report.m = params.m();
  report.c = params.c();
  report.aborted = outcome.aborted;
  if (outcome.aborted && outcome.abort_record)
    report.abort_reason = to_string(outcome.abort_record->reason);
  report.rounds = outcome.rounds;
  for (std::size_t i = 0; i < outcome.phases.size(); ++i) {
    const PhaseTraffic& bucket = outcome.phases[i];
    trace::RunReport::PhaseRow row;
    row.name = to_string(static_cast<Phase>(i));
    // seconds round-trips through double; exact for the logical clock's
    // small tick counts, which is what the determinism gate relies on.
    row.wall_ns = std::llround(bucket.seconds * 1e9);
    row.ops = bucket.ops;
    row.unicasts = bucket.stats.unicast_messages;
    row.broadcasts = bucket.stats.broadcast_messages;
    row.p2p_messages = bucket.stats.p2p_equivalent_messages;
    row.p2p_bytes = bucket.stats.p2p_equivalent_bytes;
    report.phases.push_back(std::move(row));
  }
  for (const net::CommRow& row : outcome.comm) {
    trace::RunReport::CommRow out;
    out.phase = row.phase_label;
    out.round = row.key.round;
    out.kind = row.kind_name;
    out.sender = row.key.sender;
    out.messages = row.counts.messages;
    out.wire_bytes = row.counts.wire_bytes;
    out.p2p_messages = row.counts.p2p_messages;
    out.p2p_bytes = row.counts.p2p_bytes;
    report.comm.push_back(std::move(out));
  }
  trace::collect_into(report);
  return report;
}

/// Convenience: run DMW with every agent honest on the inline executor.
template <dmw::num::GroupBackend G>
Outcome run_honest_dmw(const PublicParams<G>& params,
                       const mech::SchedulingInstance& instance,
                       RunConfig config = RunConfig{}) {
  HonestStrategy<G> honest;
  std::vector<Strategy<G>*> strategies(params.n(), &honest);
  ProtocolRunner<G> runner(params, instance, std::move(strategies), config);
  return runner.run();
}

/// Convenience: run DMW with every agent honest on `threads` workers.
template <dmw::num::GroupBackend G>
Outcome run_parallel_dmw(const PublicParams<G>& params,
                         const mech::SchedulingInstance& instance,
                         std::size_t threads, RunConfig config = RunConfig{}) {
  HonestStrategy<G> honest;
  std::vector<Strategy<G>*> strategies(params.n(), &honest);
  ParallelProtocol<G> runner(params, instance, std::move(strategies), threads,
                             config);
  return runner.run();
}

}  // namespace dmw::proto
