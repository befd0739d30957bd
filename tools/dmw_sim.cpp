// dmw_sim — command-line DMW protocol simulator.
//
// Runs one protocol instance end to end and reports the outcome (human
// table or JSON). Covers the whole public surface: workload generators,
// both crash modes, the full deviation catalogue, and both group backends.
//
// Examples:
//   dmw_sim --n 8 --m 4 --seed 7
//   dmw_sim --n 8 --m 2 --deviant corrupt-share --deviator 3
//   dmw_sim --n 9 --m 2 --crash-tolerant --crashes 2 --crash-point after-bidding
//   dmw_sim --n 6 --m 2 --backend 256 --p-bits 128 --json
#include <cstdio>
#include <memory>
#include <string>

#include "dmw/protocol.hpp"
#include "dmw/strategies.hpp"
#include "exp/faithfulness.hpp"
#include "exp/table.hpp"
#include "mech/minwork.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace {

using dmw::Flags;

constexpr const char* kUsage = R"(dmw_sim — distributed MinWork protocol simulator

options:
  --n N                agents/machines (default 6)
  --m M                tasks (default 2)
  --c C                tolerated faulty agents (default 1)
  --seed S             master seed (default 1)
  --secret-seed X      agent secret-randomness seed (default 0x5eed). The
                       serve driver derives one per request; passing it here
                       reproduces any single dmw_serve auction one-shot
  --instance-seed Y    workload generator seed (default seed*3+1). dmw_serve
                       reports Y = request_seed*3+1 for each auction
  --workload W         uniform | machine | task | worst   (default uniform)
  --backend B          64 | 256                            (default 64)
  --p-bits P           prime size for --backend 256        (default 128)
  --deviant NAME       run one deviating agent (see exp::deviation_catalogue)
  --deviator I         which agent deviates                (default 0)
  --crash-tolerant     enable crash-fault tolerance (Open Problem 11)
  --plain              disable AEAD-sealed private channels
  --crashes K          number of fail-silent agents        (default 0)
  --crash-point P      before-bidding | after-bidding | after-lambda |
                       after-disclosure | after-reduced    (default after-bidding)
  --threads T          run the engine on a pool of T workers (0 = auto-detect
                       std::thread::hardware_concurrency, logged at Info;
                       omit for the inline executor, which runs every step
                       on one thread in agent-then-task order). Outcomes
                       are bit-identical either way, at any thread count.
  --simd S             auto | on | off (default auto). Lane-grouping policy
                       for the vectorized Montgomery tier (numeric/simd.hpp):
                       auto engages when the host has a vector ISA, on
                       forces the portable lane kernels, off pins the
                       scalar paths. Outcomes, abort streams and RunReports
                       are bit-identical in every mode
  --trace-out FILE     write a Chrome trace_event JSON of the run (load in
                       about:tracing or https://ui.perfetto.dev)
  --metrics-out FILE   write the RunReport JSON: per-phase wall time, op
                       counts, traffic, span aggregates, metric registry
  --trace-clock C      real | logical (default real). logical measures
                       durations in network rounds, making RunReports
                       bit-identical at any --threads T
  --json               machine-readable output
  --help               this text
)";

/// Write `content` to `path`, failing loudly (tracing output is the whole
/// point of the run that asked for it).
void write_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  DMW_REQUIRE_MSG(file != nullptr, "cannot open " + path + " for writing");
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  DMW_REQUIRE_MSG(written == content.size(), "short write to " + path);
}

dmw::mech::SchedulingInstance make_instance(const std::string& workload,
                                            std::size_t n, std::size_t m,
                                            const dmw::mech::BidSet& bids,
                                            std::uint64_t seed) {
  dmw::Xoshiro256ss rng(seed);
  if (workload == "uniform")
    return dmw::mech::make_uniform_instance(n, m, bids, rng);
  if (workload == "machine")
    return dmw::mech::make_machine_correlated_instance(n, m, bids, rng);
  if (workload == "task")
    return dmw::mech::make_task_correlated_instance(n, m, bids, rng);
  if (workload == "worst")
    return dmw::mech::make_minwork_worst_case(n, m, bids);
  DMW_REQUIRE_MSG(false, "unknown workload: " + workload);
  return {};
}

dmw::proto::CrashPoint parse_crash_point(const std::string& name) {
  using dmw::proto::CrashPoint;
  if (name == "before-bidding") return CrashPoint::kBeforeBidding;
  if (name == "after-bidding") return CrashPoint::kAfterBidding;
  if (name == "after-lambda") return CrashPoint::kAfterLambdaPsi;
  if (name == "after-disclosure") return CrashPoint::kAfterDisclosure;
  if (name == "after-reduced") return CrashPoint::kAfterReduced;
  DMW_REQUIRE_MSG(false, "unknown crash point: " + name);
  return CrashPoint::kBeforeBidding;
}

template <dmw::num::GroupBackend G>
int run_simulation(G group, const Flags& flags) {
  using dmw::proto::PublicParams;
  const std::size_t n = flags.get_u64("n", 6);
  const std::size_t m = flags.get_u64("m", 2);
  const std::size_t c = flags.get_u64("c", 1);
  const std::uint64_t seed = flags.get_u64("seed", 1);
  const bool tolerant = flags.get_bool("crash-tolerant");
  const bool json = flags.get_bool("json");
  const std::string trace_out = flags.get_string("trace-out", "");
  const std::string metrics_out = flags.get_string("metrics-out", "");
  const bool tracing = !trace_out.empty() || !metrics_out.empty();
  const std::string trace_clock = flags.get_string("trace-clock", "real");
  DMW_REQUIRE_MSG(trace_clock == "real" || trace_clock == "logical",
                  "--trace-clock must be real or logical");

  auto params =
      tolerant ? PublicParams<G>::make_crash_tolerant(std::move(group), n, m,
                                                      c, seed)
               : PublicParams<G>::make(std::move(group), n, m, c, seed);
  const std::string simd = flags.get_string("simd", "auto");
  if (simd == "on") {
    params.set_simd(dmw::num::simd::SimdMode::kOn);
  } else if (simd == "off") {
    params.set_simd(dmw::num::simd::SimdMode::kOff);
  } else {
    DMW_REQUIRE_MSG(simd == "auto", "--simd must be auto, on or off");
  }
  if (tracing) {
    params.set_tracing(true);
    auto& tracer = dmw::trace::Tracer::instance();
    tracer.set_clock_mode(trace_clock == "logical"
                              ? dmw::trace::ClockMode::kLogical
                              : dmw::trace::ClockMode::kReal);
    tracer.reset();
  }
  const auto instance =
      make_instance(flags.get_string("workload", "uniform"), n, m,
                    params.bid_set(),
                    flags.get_u64("instance-seed", seed * 3 + 1));

  // Strategy wiring.
  dmw::proto::HonestStrategy<G> honest;
  std::vector<dmw::proto::Strategy<G>*> strategies(n, &honest);
  std::unique_ptr<dmw::proto::Strategy<G>> deviant;
  std::string deviant_name = flags.get_string("deviant", "");
  std::size_t deviator = flags.get_u64("deviator", 0);
  if (!deviant_name.empty()) {
    for (auto& entry : dmw::exp::deviation_catalogue<G>(n)) {
      if (entry.name == deviant_name) {
        deviant = entry.make(deviator, params.group());
        break;
      }
    }
    DMW_REQUIRE_MSG(deviant != nullptr, "unknown deviant: " + deviant_name);
    DMW_REQUIRE(deviator < n);
    strategies[deviator] = deviant.get();
  }
  dmw::proto::CrashStrategy<G> crash(
      parse_crash_point(flags.get_string("crash-point", "after-bidding")));
  const std::size_t crashes = flags.get_u64("crashes", 0);
  DMW_REQUIRE_MSG(crashes < n, "--crashes must be < n");
  for (std::size_t k = 0; k < crashes; ++k)
    strategies[n - 1 - k] = &crash;  // crash the last agents

  dmw::proto::RunConfig config;
  config.secret_seed = flags.get_u64("secret-seed", config.secret_seed);
  config.encrypt_channels = !flags.get_bool("plain");
  const bool parallel = flags.has("threads");
  const std::size_t threads = parallel ? flags.get_u64("threads", 0) : 0;
  dmw::proto::Outcome outcome;
  std::size_t workers = 0;
  if (parallel) {
    dmw::proto::ParallelProtocol<G> runner(params, instance, strategies,
                                           threads, config);
    workers = runner.threads();
    outcome = runner.run();
  } else {
    dmw::proto::ProtocolRunner<G> runner(params, instance, strategies, config);
    outcome = runner.run();
  }
  if (tracing) {
    auto& tracer = dmw::trace::Tracer::instance();
    const auto report = dmw::proto::make_run_report(params, outcome);
    const std::string chrome = tracer.chrome_trace_json();
    tracer.set_enabled(false);
    if (!metrics_out.empty()) write_file(metrics_out, report.json());
    if (!trace_out.empty()) write_file(trace_out, chrome);
  }
  const auto central = dmw::mech::run_minwork(instance);

  if (json) {
    dmw::JsonWriter w;
    w.begin_object();
    w.field("n", std::uint64_t{n});
    w.field("m", std::uint64_t{m});
    w.field("c", std::uint64_t{c});
    w.field("seed", seed);
    w.field("crash_tolerant", tolerant);
    if (parallel) w.field("threads", std::uint64_t{workers});
    w.field("aborted", outcome.aborted);
    if (outcome.aborted) {
      w.field("abort_reason", to_string(outcome.abort_record->reason));
      w.field("aborting_agent", std::uint64_t{outcome.aborting_agent});
    } else {
      w.begin_array("schedule");
      for (std::size_t j = 0; j < m; ++j)
        w.value(std::uint64_t{outcome.schedule.agent_for(j)});
      w.end_array();
      w.begin_array("payments");
      for (auto p : outcome.payments) w.value(std::uint64_t{p});
      w.end_array();
      w.begin_array("first_prices");
      for (auto p : outcome.first_prices) w.value(std::uint64_t{p});
      w.end_array();
      w.begin_array("second_prices");
      for (auto p : outcome.second_prices) w.value(std::uint64_t{p});
      w.end_array();
      w.begin_array("utilities");
      for (std::size_t i = 0; i < n; ++i)
        w.value(static_cast<std::int64_t>(outcome.utility(instance, i)));
      w.end_array();
      w.field("makespan", outcome.schedule.makespan(instance));
      w.field("matches_minwork",
              !crashes && outcome.schedule == central.schedule &&
                  outcome.payments == central.payments);
    }
    w.field("p2p_messages", outcome.traffic.p2p_equivalent_messages);
    w.field("p2p_bytes", outcome.traffic.p2p_equivalent_bytes);
    w.field("rounds", outcome.rounds);
    w.field("transcripts_consistent", outcome.transcripts_consistent);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return outcome.aborted ? 2 : 0;
  }

  std::printf("%s\n", params.describe().c_str());
  std::printf("%s", instance.describe().c_str());
  if (parallel) std::printf("engine: task-parallel, %zu worker(s)\n", workers);
  if (!deviant_name.empty())
    std::printf("deviant: %s (agent A%zu)\n", deviant_name.c_str(),
                deviator + 1);
  if (crashes)
    std::printf("crashes: %zu agent(s), point %s\n", crashes,
                flags.get_string("crash-point", "after-bidding").c_str());
  std::printf("\n");
  if (outcome.aborted) {
    std::printf("protocol ABORTED: %s (raised by A%zu)\n",
                to_string(outcome.abort_record->reason),
                outcome.aborting_agent + 1);
  } else {
    std::printf("schedule: %s\n", outcome.schedule.describe().c_str());
    dmw::exp::Table table({"agent", "payment", "utility"});
    for (std::size_t i = 0; i < n; ++i) {
      table.row({"A" + std::to_string(i + 1),
                 dmw::exp::Table::num(outcome.payments[i]),
                 std::to_string(outcome.utility(instance, i))});
    }
    table.print();
    std::printf("makespan %llu | matches centralized MinWork: %s\n",
                static_cast<unsigned long long>(
                    outcome.schedule.makespan(instance)),
                (outcome.schedule == central.schedule &&
                 outcome.payments == central.payments)
                    ? "yes"
                    : (crashes ? "n/a (crashed bidders excluded)" : "NO"));
  }
  std::printf("traffic: %llu p2p-equivalent messages, %llu bytes, %llu "
              "rounds\n",
              static_cast<unsigned long long>(
                  outcome.traffic.p2p_equivalent_messages),
              static_cast<unsigned long long>(
                  outcome.traffic.p2p_equivalent_bytes),
              static_cast<unsigned long long>(outcome.rounds));
  return outcome.aborted ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Tool diagnostics are user-facing: show Info and up on the logger's
  // stderr sink (stdout stays machine-readable).
  dmw::Logger::instance().set_level(dmw::LogLevel::kInfo);
  try {
    const Flags flags(argc, argv,
                      {"n", "m", "c", "seed", "secret-seed", "instance-seed",
                       "workload", "backend", "p-bits",
                       "deviant", "deviator", "crash-tolerant!", "crashes",
                       "crash-point", "threads", "simd", "plain!",
                       "json!",
                       "trace-out", "metrics-out", "trace-clock", "help!"});
    if (flags.get_bool("help")) {
      std::printf("%s", kUsage);
      return 0;
    }
    const auto backend = flags.get_u64("backend", 64);
    const auto seed = flags.get_u64("seed", 1);
    if (backend == 64) {
      return run_simulation(dmw::num::Group64::test_group(), flags);
    }
    if (backend == 256) {
      const auto p_bits = static_cast<unsigned>(flags.get_u64("p-bits", 128));
      dmw::Xoshiro256ss rng(seed ^ 0xdeadbeef);
      auto group = dmw::num::Group256::generate(
          p_bits, std::max(64u, p_bits / 2), rng);
      return run_simulation(std::move(group), flags);
    }
    DMW_ERROR() << "unknown backend " << backend << " (use 64 or 256)";
    return 1;
  } catch (const std::exception& error) {
    DMW_ERROR() << error.what() << " (run with --help for usage)";
    return 1;
  }
}
