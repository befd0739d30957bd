// bench_parallel: scaling trajectory of the pooled protocol engine.
//
// Emits BENCH_parallel.json with wall-clock seconds for full honest DMW runs
// on the 256-bit production-shaped group (250-bit p, 160-bit q — the
// bench_crypto fixture), sweeping m in {8, 32, 128} tasks across 1/2/4/8
// worker threads, each compared against the inline executor
// (ProtocolRunner: the same engine with no pool). Every pooled Outcome is
// checked with outcomes_identical against the inline one before its timing
// is reported — a run that diverged would be measuring a different protocol.
//
// Every run is timed with bench_ns (support/stopwatch.hpp): one warm-up
// run, then the fastest of five windows. The sweep repeats in kRounds
// rounds that time every configuration of one m back to back, and each
// configuration keeps its fastest round: a host whose speed drifts over
// seconds then cannot hand the inline run and a pooled run different
// slices of that drift. The threads=1 row's speedup is inline time /
// one-worker-pool time — what handing slices to a pool costs when there is
// nothing to run them in parallel on.
//
// hardware_concurrency is recorded alongside the numbers: on a single-core
// host every speedup is honestly ~1.0x at best; the CI perf-regression job
// runs this on multi-core runners and uploads the artifact with the real
// scaling curve.
//
// Usage: bench_parallel [--out FILE] [--quick] [--stdout] [--threads N]
//   --threads N   sweep only N workers (0 = auto-detect hardware_concurrency)
#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "dmw/protocol.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace {

using dmw::Xoshiro256ss;
using dmw::num::Group256;

constexpr std::size_t kAgents = 6;
constexpr std::uint64_t kSeed = 7;
constexpr int kRounds = 3;

/// Lower `best_s` to the seconds per call of `run`: warm-up, then the
/// fastest of five windows of >= 50 ms.
void time_run(double& best_s, const std::function<void()>& run) {
  best_s = std::min(best_s, dmw::bench_ns(run, 0.05) * 1e-9);
}

}  // namespace

int main(int argc, char** argv) try {
  dmw::Logger::instance().set_level(dmw::LogLevel::kInfo);
  dmw::Flags flags(argc, argv,
                   {"out", "quick!", "stdout!", "threads", "help!"});
  const std::string out_path = flags.get_string("out", "BENCH_parallel.json");
  const bool quick = flags.get_bool("quick");
  const bool to_stdout = flags.get_bool("stdout");
  if (flags.get_bool("help")) {
    std::puts("bench_parallel [--out FILE] [--quick] [--stdout] [--threads N]");
    return 0;
  }
  DMW_INFO() << "bench_parallel: hardware_concurrency="
             << dmw::ThreadPool::default_thread_count();

  const std::vector<std::size_t> task_counts =
      quick ? std::vector<std::size_t>{4} : std::vector<std::size_t>{8, 32, 128};
  std::vector<std::size_t> thread_counts =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};
  if (flags.has("threads")) {
    // A single-point sweep; 0 auto-detects like `dmw_sim --threads 0`.
    std::size_t threads =
        static_cast<std::size_t>(flags.get_u64("threads", 0));
    if (threads == 0) {
      threads = dmw::ThreadPool::default_thread_count();
      DMW_INFO() << "bench_parallel: --threads 0 resolved to " << threads
                 << " workers (std::thread::hardware_concurrency)";
    }
    thread_counts.assign(1, threads);
  }

  Xoshiro256ss grng(1);
  // Same fixture as bench_crypto: 250-bit p (one limb bit reserved), 160-bit q.
  const Group256 g256 = Group256::generate(250, 160, grng);

  bool all_match = true;
  dmw::JsonWriter json;
  json.begin_object();
  json.key("bench").value("parallel");
  json.key("schema_version").value(std::uint64_t{2});
  json.key("group").value("GroupBig<4>: 250-bit p, 160-bit q (seed 1)");
  json.key("n").value(std::uint64_t{kAgents});
  json.key("hardware_concurrency")
      .value(std::uint64_t{dmw::ThreadPool::default_thread_count()});
  json.begin_array("configs");
  for (const std::size_t m : task_counts) {
    const auto params =
        dmw::proto::PublicParams<Group256>::make(g256, kAgents, m, 1, kSeed);
    Xoshiro256ss rng(kSeed * 31 + 1);
    const auto instance =
        dmw::mech::make_uniform_instance(kAgents, m, params.bid_set(), rng);

    dmw::proto::Outcome reference;
    double sequential_s = std::numeric_limits<double>::infinity();
    std::vector<double> pooled_s(thread_counts.size(), sequential_s);
    std::vector<bool> matches(thread_counts.size(), true);
    for (int round = 0; round < kRounds; ++round) {
      time_run(sequential_s, [&] {
        reference = dmw::proto::run_honest_dmw(params, instance);
      });
      if (reference.aborted) {
        DMW_ERROR() << "bench_parallel: inline baseline aborted at m=" << m;
        return 1;
      }
      for (std::size_t k = 0; k < thread_counts.size(); ++k) {
        const std::size_t threads = thread_counts[k];
        dmw::proto::Outcome outcome;
        time_run(pooled_s[k], [&] {
          outcome = dmw::proto::run_parallel_dmw(params, instance, threads);
        });
        if (!dmw::proto::outcomes_identical(reference, outcome))
          matches[k] = false;
      }
    }

    json.begin_object();
    json.key("m").value(std::uint64_t{m});
    json.key("sequential_s").value(sequential_s);
    json.begin_array("runs");
    for (std::size_t k = 0; k < thread_counts.size(); ++k) {
      const std::size_t threads = thread_counts[k];
      const double seconds = pooled_s[k];
      const bool match = matches[k];
      all_match = all_match && match;
      json.begin_object();
      json.key("threads").value(std::uint64_t{threads});
      json.key("seconds").value(seconds);
      json.key("speedup").value(sequential_s / seconds);
      json.key("outcome_match").value(match);
      json.end_object();
      DMW_INFO() << "bench_parallel: m=" << m << " threads=" << threads
                 << " " << seconds << "s (inline " << sequential_s
                 << "s), match=" << match;
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("all_outcomes_match").value(all_match);
  json.end_object();

  const std::string text = json.str() + "\n";
  if (to_stdout) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      DMW_ERROR() << "bench_parallel: cannot open " << out_path;
      return 1;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    DMW_INFO() << "bench_parallel: wrote " << out_path;
  }
  return all_match ? 0 : 1;
} catch (const std::exception& error) {
  DMW_ERROR() << error.what()
              << " (usage: bench_parallel [--out FILE] [--quick] [--stdout])";
  return 1;
}
