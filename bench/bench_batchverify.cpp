// bench_batchverify: RLC batch verification vs the one-at-a-time ablation.
//
// Emits BENCH_batchverify.json timing the three Phase III check stages that
// PublicParams::batch_verify() batches — the Eq. (7)-(9) share verification
// (III.1), the Eq. (11) Lambda/Psi check (III.2) and the winner-excluded
// Eq. (11) check (III.4) — on the production-shaped 256-bit group
// (bench_crypto fixture: 250-bit p, 160-bit q). Both modes drive the same
// hand-rolled stage sequence the ProtocolRunner uses; the check stages are
// idempotent by design, so each is re-run `reps` times and the minimum
// repetition reported — the min estimates the uncontended cost, which keeps
// the speedup ratios stable on noisy shared runners.
//
// Two correctness gates ride along in the JSON (the perf-regression CI job
// refuses numbers whose run diverged):
//  - all_outcomes_match: the honest batched run's Outcome equals the
//    sequential-mode run's (schedule, prices, payments, traffic).
//  - abort_streams_match: under injected deviations (corrupt share, Lambda
//    forgery, reduced-Lambda forgery) both modes abort with the identical
//    (agent, task, AbortReason) record.
//
// Usage: bench_batchverify [--out FILE] [--quick] [--stdout]
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "dmw/protocol.hpp"
#include "dmw/strategies.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/stopwatch.hpp"

namespace {

using dmw::Stopwatch;
using dmw::Xoshiro256ss;
using dmw::num::Group256;

constexpr std::size_t kAgents = 6;
constexpr std::size_t kTasks = 2;
constexpr std::uint64_t kSeed = 7;

const char* const kStageNames[3] = {"share-verify", "first-price-check",
                                    "second-price-check"};

struct ModeResult {
  dmw::proto::Outcome outcome;
  std::array<double, 3> stage_s{};  ///< best repetition's seconds, by stage
};

bool outcomes_match(const dmw::proto::Outcome& a,
                    const dmw::proto::Outcome& b) {
  return a.aborted == b.aborted && a.schedule == b.schedule &&
         a.payments == b.payments && a.first_prices == b.first_prices &&
         a.second_prices == b.second_prices &&
         a.transcripts_consistent == b.transcripts_consistent &&
         a.traffic.p2p_equivalent_messages ==
             b.traffic.p2p_equivalent_messages &&
         a.traffic.p2p_equivalent_bytes == b.traffic.p2p_equivalent_bytes;
}

/// Drive one honest run through the engine's stage order, timing the
/// three (idempotent) check stages over `reps` repetitions each.
ModeResult run_mode(const dmw::proto::PublicParams<Group256>& params,
                    const dmw::mech::SchedulingInstance& instance,
                    std::size_t reps) {
  using dmw::proto::DmwAgent;
  const std::size_t m = params.m();
  dmw::proto::HonestStrategy<Group256> honest;
  std::vector<dmw::proto::Strategy<Group256>*> strategies(params.n(), &honest);
  dmw::proto::RunConfig config;

  dmw::net::SimNetwork net(params.n());
  dmw::proto::PaymentInfrastructure infra(params.n());
  auto agents =
      dmw::proto::make_dmw_agents(params, instance, strategies, config);
  const auto sync = [&net] {
    net.advance_round();
    for (int wait = 0; net.in_flight() > 0 && wait < 1024; ++wait)
      net.advance_round();
  };
  const auto each_task = [&](auto&& per_task) {
    for (auto& agent : agents)
      for (std::size_t j = 0; j < m; ++j) per_task(*agent, j);
  };
  const auto timed_stage = [&](auto&& per_task) {
    double best = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Stopwatch timer;
      each_task(per_task);
      const double seconds = timer.seconds();
      if (rep == 0 || seconds < best) best = seconds;
    }
    return best;
  };

  ModeResult result;
  for (auto& a : agents) a->phase0_publish_key(net);
  sync();
  for (auto& a : agents) {
    a->phase2_prepare(net);
    for (std::size_t j = 0; j < m; ++j) a->phase2_send_task(net, j);
  }
  sync();

  // III.1: shares + commitments in, Eq. (7)-(9).
  for (auto& a : agents) a->phase3_ingest(net);
  result.stage_s[0] = timed_stage([&](DmwAgent<Group256>& a,
                                      std::size_t j) {
    a.phase3_verify_task(net, j);
  });
  for (auto& a : agents) {
    a->commit_task_failures(net);
    for (std::size_t j = 0; j < m; ++j) a->phase3_lambda_task(net, j);
  }
  sync();

  // III.2: Eq. (11) + first-price resolution.
  for (auto& a : agents) a->absorb_published(net);
  result.stage_s[1] = timed_stage([&](DmwAgent<Group256>& a,
                                      std::size_t j) {
    a.phase3_first_price_checks_task(net, j);
  });
  for (auto& a : agents) {
    for (std::size_t j = 0; j < m; ++j)
      a->phase3_first_price_resolve_task(net, j);
    a->commit_task_failures(net);
  }
  sync();

  // III.3 (untimed: disclosure checks are not batched).
  each_task([&](DmwAgent<Group256>& a, std::size_t j) {
    a.phase3_disclose_task(net, j);
  });
  sync();
  for (auto& a : agents) {
    a->absorb_published(net);
    for (std::size_t j = 0; j < m; ++j) a->phase3_winner_task(net, j);
    a->commit_task_failures(net);
  }
  sync();

  // III.4: winner-excluded Eq. (11) + second-price resolution.
  each_task([&](DmwAgent<Group256>& a, std::size_t j) {
    a.phase3_reduced_task(net, j);
  });
  sync();
  for (auto& a : agents) a->absorb_published(net);
  result.stage_s[2] = timed_stage([&](DmwAgent<Group256>& a,
                                      std::size_t j) {
    a.phase3_second_price_checks_task(net, j);
  });
  for (auto& a : agents) {
    for (std::size_t j = 0; j < m; ++j)
      a->phase3_second_price_resolve_task(net, j);
    a->commit_task_failures(net);
  }
  sync();

  for (auto& a : agents) a->phase4_submit_payment_claim(net);
  sync();

  result.outcome.payments.assign(params.n(), 0);
  dmw::proto::note_aborts(agents, result.outcome);
  dmw::proto::finalize_outcome(params, net, infra, agents, result.outcome);
  return result;
}

/// Abort-attribution gate: run one deviant configuration in both modes and
/// require the identical abort record.
bool abort_stream_matches(const dmw::proto::PublicParams<Group256>& batched,
                          const dmw::proto::PublicParams<Group256>& sequential,
                          const dmw::mech::SchedulingInstance& instance,
                          dmw::proto::Strategy<Group256>& deviant,
                          std::string& detail) {
  dmw::proto::HonestStrategy<Group256> honest;
  std::vector<dmw::proto::Strategy<Group256>*> strategies(kAgents, &honest);
  strategies[3] = &deviant;
  dmw::proto::ProtocolRunner<Group256> run_b(batched, instance, strategies);
  dmw::proto::ProtocolRunner<Group256> run_s(sequential, instance, strategies);
  const auto a = run_b.run();
  const auto b = run_s.run();
  const bool match =
      a.aborted && b.aborted && a.aborting_agent == b.aborting_agent &&
      a.abort_record && b.abort_record &&
      a.abort_record->task == b.abort_record->task &&
      a.abort_record->reason == b.abort_record->reason;
  detail = deviant.name() + ": " +
           (a.aborted ? dmw::proto::to_string(a.abort_record->reason)
                      : "no abort");
  return match;
}

}  // namespace

int main(int argc, char** argv) try {
  dmw::Logger::instance().set_level(dmw::LogLevel::kInfo);
  dmw::Flags flags(argc, argv, {"out", "quick!", "stdout!", "help!"});
  const std::string out_path =
      flags.get_string("out", "BENCH_batchverify.json");
  const bool quick = flags.get_bool("quick");
  const bool to_stdout = flags.get_bool("stdout");
  if (flags.get_bool("help")) {
    std::puts("bench_batchverify [--out FILE] [--quick] [--stdout]");
    return 0;
  }
  // Noise control on shared runners: each stage keeps its best repetition
  // within a run, and the whole (sequential, batched) pair is re-run
  // `trials` times back to back with an elementwise min across trials — so
  // both modes get their floor from the same uncontended windows instead of
  // comparing timings taken minutes of machine load apart.
  const std::size_t reps = quick ? 2 : 3;
  const std::size_t trials = quick ? 1 : 3;

  Xoshiro256ss grng(1);
  // Same fixture as bench_crypto/bench_parallel: 250-bit p, 160-bit q.
  const Group256 g256 = Group256::generate(250, 160, grng);
  auto batched = dmw::proto::PublicParams<Group256>::make(g256, kAgents,
                                                          kTasks, 1, kSeed);
  auto sequential = batched;
  sequential.set_batch_verify(false);
  Xoshiro256ss rng(kSeed * 31 + 1);
  const auto instance =
      dmw::mech::make_uniform_instance(kAgents, kTasks, batched.bid_set(), rng);

  auto seq = run_mode(sequential, instance, reps);
  auto bat = run_mode(batched, instance, reps);
  for (std::size_t trial = 1; trial < trials; ++trial) {
    const auto s = run_mode(sequential, instance, reps);
    const auto b = run_mode(batched, instance, reps);
    for (std::size_t i = 0; i < 3; ++i) {
      seq.stage_s[i] = std::min(seq.stage_s[i], s.stage_s[i]);
      bat.stage_s[i] = std::min(bat.stage_s[i], b.stage_s[i]);
    }
  }
  const bool all_match = !seq.outcome.aborted && !bat.outcome.aborted &&
                         outcomes_match(seq.outcome, bat.outcome);

  dmw::proto::CorruptShareStrategy<Group256> corrupt_share(/*victim=*/1);
  dmw::proto::BadLambdaStrategy<Group256> bad_lambda;
  dmw::proto::BadReducedLambdaStrategy<Group256> bad_reduced;
  bool aborts_match = true;
  std::vector<std::string> abort_details;
  for (dmw::proto::Strategy<Group256>* deviant :
       std::initializer_list<dmw::proto::Strategy<Group256>*>{
           &corrupt_share, &bad_lambda, &bad_reduced}) {
    std::string detail;
    const bool match =
        abort_stream_matches(batched, sequential, instance, *deviant, detail);
    aborts_match = aborts_match && match;
    abort_details.push_back(detail + (match ? " (match)" : " (MISMATCH)"));
  }

  double seq_total = 0.0, bat_total = 0.0;
  dmw::JsonWriter json;
  json.begin_object();
  json.key("bench").value("batchverify");
  json.key("schema_version").value(std::uint64_t{1});
  json.key("group").value("GroupBig<4>: 250-bit p, 160-bit q (seed 1)");
  json.key("n").value(std::uint64_t{kAgents});
  json.key("m").value(std::uint64_t{kTasks});
  json.key("sigma").value(std::uint64_t{batched.sigma()});
  json.key("reps").value(std::uint64_t{reps});
  json.begin_array("stages");
  for (std::size_t s = 0; s < 3; ++s) {
    const double seq_ns = seq.stage_s[s] * 1e9;
    const double bat_ns = bat.stage_s[s] * 1e9;
    seq_total += seq_ns;
    bat_total += bat_ns;
    json.begin_object();
    json.key("stage").value(kStageNames[s]);
    json.key("sequential_ns").value(seq_ns);
    json.key("batched_ns").value(bat_ns);
    json.key("speedup").value(seq_ns / bat_ns);
    json.end_object();
    DMW_INFO() << "bench_batchverify: " << kStageNames[s] << " seq "
               << seq_ns / 1e6 << "ms batched " << bat_ns / 1e6
               << "ms speedup " << seq_ns / bat_ns << "x";
  }
  json.end_array();
  json.key("total");
  json.begin_object();
  json.key("sequential_ns").value(seq_total);
  json.key("batched_ns").value(bat_total);
  json.key("speedup").value(seq_total / bat_total);
  json.end_object();
  json.begin_array("abort_checks");
  for (const auto& detail : abort_details) json.value(detail);
  json.end_array();
  json.key("all_outcomes_match").value(all_match);
  json.key("abort_streams_match").value(aborts_match);
  json.end_object();

  const bool ok = all_match && aborts_match;
  DMW_INFO() << "bench_batchverify: total speedup " << seq_total / bat_total
             << "x, outcomes_match=" << all_match
             << " abort_streams_match=" << aborts_match;

  const std::string text = json.str() + "\n";
  if (to_stdout) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      DMW_ERROR() << "bench_batchverify: cannot open " << out_path;
      return 1;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    DMW_INFO() << "bench_batchverify: wrote " << out_path;
  }
  return ok ? 0 : 1;
} catch (const std::exception& error) {
  DMW_ERROR() << error.what()
              << " (usage: bench_batchverify [--out FILE] [--quick] "
                 "[--stdout])";
  return 1;
}
