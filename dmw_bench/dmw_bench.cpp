// dmw_bench — the repository's end-to-end benchmark: DMW auctions served the
// way a marketplace runs them, timed from outside the library.
//
// It drives public surfaces only: ServeEngine::run_auction for the honest
// workloads, ParallelProtocol on a borrowed ThreadPool where strategies vary
// per request. Time comes from Tracer::now_ns() and Stopwatch; nothing under
// src/ is instrumented for the benchmark. The load size is fixed: one
// process, a pool of kWorkers workers plus the driver thread.
//
//   dmw_bench --workload g64_stream --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1 runs
// an untraced window and then a traced one, and reports the per-layer
// metrics: per-phase time and op counts, span self time from
// Tracer::events(), pool busy and idle time, registry counters, and
// calibration probes of each layer's public functions on the workload's own
// group and message sizes. Both modes print `name value unit` lines, then
// one JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every auction goes through an oracle outside the timed span (honest
// requests must equal centralized MinWork; deviant ones must respect
// Thms. 5 and 9), and the outcomes of a fixed prefix of the request stream
// fold into a SHA-256 chain pinned below for the default seed. The exit
// status is 1 when any check fails, 2 on a usage error.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/sha256.hpp"
#include "dmw/messages.hpp"
#include "dmw/parallel.hpp"
#include "dmw/serve.hpp"
#include "exp/faithfulness.hpp"
#include "mech/minwork.hpp"
#include "net/network.hpp"
#include "numeric/group.hpp"
#include "numeric/multiexp.hpp"
#include "numeric/simd.hpp"
#include "support/flags.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

#ifndef DMW_BENCH_BUILD_TYPE
#define DMW_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

namespace num = dmw::num;
namespace proto = dmw::proto;
namespace trace = dmw::trace;
using proto::Outcome;
using proto::PublicParams;

/// Pool workers. With the driver thread the process runs four threads.
constexpr std::size_t kWorkers = 3;
/// The seed whose outcome digests are pinned in kWorkloads.
constexpr std::uint64_t kDefaultSeed = 1;
/// Public parameters (group, pseudonyms) are the marketplace's fixed
/// configuration, not part of a request, so --seed does not change them and
/// every set-up repeats the same work.
constexpr std::uint64_t kParamsSeed = 1;
constexpr std::size_t kPhases = static_cast<std::size_t>(proto::Phase::kCount);
constexpr const char* kPhaseMetric[kPhases] = {
    "bidding", "lambda_psi", "winner", "second_price", "payments"};

struct Workload {
  const char* name;
  bool big_group;  ///< Group256 with a 250-bit p; else the Group64 test group
  std::size_t n, m;
  double rate_hz;           ///< > 0: open-loop Poisson arrivals; 0: closed loop
  double deviant_share;     ///< share of requests that carry one deviation
  std::size_t warmup;       ///< auctions between set-up and the first window
  std::size_t setup_reps;   ///< set-ups timed per run; setup_s is their median
  std::size_t traced_cap;   ///< most auctions the traced window runs
  std::size_t digest_prefix;  ///< leading requests folded into the digest
  const char* pinned_digest;  ///< that digest at kDefaultSeed
};

// Why these three: README.md. The 250-bit group, n=16 and m=16 make
// multi-limb arithmetic and batch verification dominate; the Group64 pair
// keeps numeric work small so pool wake-ups, codecs and SimNetwork show,
// once under open-loop arrivals (queueing) and once with deviations (failed
// batches replay, runs abort mid-protocol).
constexpr Workload kWorkloads[] = {
    {"g256_large", true, 16, 16, 0.0, 0.0, 2, 3, 12, 8,
     "e15f0345e1d73e1769964de809c458437d35f484b8bb47bb6bfa8830d9c116ad"},
    {"g64_stream", false, 8, 4, 100.0, 0.0, 100, 15, 300, 64,
     "0e2854674c52b8df6a73e7e0a75cb50dc14e63ac8559db696971d3888120d12e"},
    {"g64_attack", false, 8, 4, 0.0, 0.25, 100, 15, 300, 64,
     "d629e3f26066ee4fdf8716a300c1a29ac8220b41b40394d82155a5769e0dd634"},
};

struct Options {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30;
  bool traced = false;
  bool quick = false;
};

std::int64_t now_ns() { return trace::Tracer::instance().now_ns(); }

/// Open-loop pacing: sleep (never spin) until `due` on the tracer clock.
void sleep_until(std::int64_t due) {
  for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
    const std::int64_t wait = due - now;
    timespec span{};
    span.tv_sec = static_cast<time_t>(wait / 1000000000);
    span.tv_nsec = static_cast<long>(wait % 1000000000);
    nanosleep(&span, nullptr);
  }
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

// ---- Requests ---------------------------------------------------------------

struct Request {
  proto::AuctionRequest serve;
  int deviation = -1;  ///< index into exp::deviation_catalogue; -1 = honest
  std::size_t deviator = 0;
};

/// The seeded request stream. Request i has seed (seed << 32) + i, so runs
/// with different --seed share no request; its arrival comes from the
/// workload's arrival process, and with probability deviant_share it carries
/// one deviation and deviator drawn from a generator of its own.
class RequestSource {
 public:
  RequestSource(const Workload& w, std::uint64_t seed, std::size_t deviations)
      : w_(w),
        base_(seed << 32),
        deviations_(deviations),
        arrivals_(w.rate_hz > 0 ? proto::ArrivalProcess::Mode::kPoisson
                                : proto::ArrivalProcess::Mode::kAsap,
                  w.rate_hz > 0 ? w.rate_hz : 1.0, seed),
        mix_(seed ^ 0x646576696174ULL) {
    draw();
  }

  const Request& peek() const { return next_; }
  Request pop() {
    Request out = next_;
    draw();
    return out;
  }
  /// A new window: arrivals count from its start again.
  void restart_clock() {
    at_ns_ = gap_ns_;
    next_.serve.arrival_ns = at_ns_;
  }

 private:
  void draw() {
    next_ = Request{};
    next_.serve.id = next_id_++;
    next_.serve.seed = base_ + next_.serve.id;
    next_.serve.workload = proto::WorkloadKind::kUniform;
    gap_ns_ = arrivals_.next_gap_ns();
    at_ns_ += gap_ns_;
    next_.serve.arrival_ns = at_ns_;
    if (w_.deviant_share > 0 && mix_.chance(w_.deviant_share)) {
      next_.deviation = static_cast<int>(mix_.below(deviations_));
      next_.deviator = static_cast<std::size_t>(mix_.below(w_.n));
    }
  }

  const Workload& w_;
  const std::uint64_t base_;
  const std::size_t deviations_;
  proto::ArrivalProcess arrivals_;
  dmw::Xoshiro256ss mix_;
  Request next_;
  std::uint64_t next_id_ = 0;
  std::int64_t gap_ns_ = 0;
  std::int64_t at_ns_ = 0;
};

// ---- The system under test --------------------------------------------------

/// Public parameters plus the engine that serves requests: a ServeEngine
/// when every agent is honest, else a pool that ParallelProtocol borrows,
/// with ServeEngine's instance and secret-seed derivation.
template <num::GroupBackend G>
class Server {
 public:
  Server(G group, const Workload& w)
      : params_(PublicParams<G>::make(std::move(group), w.n, w.m, 1,
                                      kParamsSeed)),
        catalogue_(dmw::exp::deviation_catalogue<G>(w.n)) {
    if (w.deviant_share > 0) {
      pool_.emplace(kWorkers, /*deterministic=*/false);
    } else {
      typename proto::ServeEngine<G>::Config config;
      config.threads = kWorkers;
      config.deterministic_schedule = false;
      engine_.emplace(params_, config);
    }
  }

  PublicParams<G>& params() { return params_; }

  /// The returned reference is valid until the next serve().
  const Outcome& serve(const Request& r) {
    if (engine_) return engine_->run_auction(r.serve);
    const auto instance = proto::make_workload_instance(
        r.serve.workload, params_.n(), params_.m(), params_.bid_set(),
        r.serve.seed);
    proto::RunConfig config;
    config.secret_seed = proto::serve_secret_seed(config.secret_seed,
                                                  r.serve.seed);
    config.deterministic_schedule = false;
    std::vector<proto::Strategy<G>*> strategies(params_.n(), &honest_);
    std::unique_ptr<proto::Strategy<G>> deviant;
    if (r.deviation >= 0) {
      deviant = catalogue_[static_cast<std::size_t>(r.deviation)].make(
          r.deviator, params_.group());
      strategies[r.deviator] = deviant.get();
    }
    proto::ParallelProtocol<G> protocol(params_, instance,
                                        std::move(strategies), *pool_, config);
    outcome_ = protocol.run();
    return outcome_;
  }

  /// Arena slab allocations so far (ServeEngine only; 0 otherwise).
  std::size_t arena_slabs() const {
    return engine_ ? engine_->arena_stats().slab_allocations : 0;
  }

 private:
  PublicParams<G> params_;
  std::vector<dmw::exp::NamedDeviation<G>> catalogue_;
  proto::HonestStrategy<G> honest_;
  std::optional<dmw::ThreadPool> pool_;
  std::optional<proto::ServeEngine<G>> engine_;
  Outcome outcome_;
};

// ---- Oracle and digest ------------------------------------------------------

/// Checks every outcome and folds the first digest_prefix requests of the
/// stream, in order, into a SHA-256 chain.
template <num::GroupBackend G>
class Checker {
 public:
  explicit Checker(const Workload& w) : w_(w) { chain_.fill(0); }

  void check(const PublicParams<G>& params, const Request& r,
             const Outcome& outcome) {
    ++attempted_;
    if (!oracle_holds(params, r, outcome)) {
      ++failed_;
      DMW_WARN() << "request " << r.serve.id << " (seed " << r.serve.seed
                 << ", deviation " << r.deviation << ") failed the oracle";
    }
    if (r.serve.id == folded_ && folded_ < w_.digest_prefix) {
      fold(r, outcome);
      ++folded_;
    }
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  bool digest_complete() const { return folded_ == w_.digest_prefix; }
  std::string digest() const { return dmw::crypto::digest_hex(chain_); }

 private:
  /// Honest: no abort, consistent transcripts, and MinWork's schedule and
  /// payments. Deviant: the deviator gains nothing over its MinWork-honest
  /// utility (Thm. 5) and no honest agent ends below zero (Thm. 9).
  static bool oracle_holds(const PublicParams<G>& params, const Request& r,
                           const Outcome& outcome) {
    const auto instance = proto::make_workload_instance(
        r.serve.workload, params.n(), params.m(), params.bid_set(),
        r.serve.seed);
    const auto minwork = dmw::mech::run_minwork(instance);
    if (r.deviation < 0) {
      return !outcome.aborted && outcome.transcripts_consistent &&
             outcome.schedule == minwork.schedule &&
             outcome.payments == minwork.payments;
    }
    for (std::size_t i = 0; i < params.n(); ++i) {
      const std::int64_t utility = outcome.utility(instance, i);
      if (i == r.deviator) {
        if (utility > dmw::mech::utility(instance, minwork.schedule, i,
                                         minwork.payments[i]))
          return false;
      } else if (utility < 0) {
        return false;
      }
    }
    return true;
  }

  void fold(const Request& r, const Outcome& o) {
    std::vector<std::uint64_t> words = {
        r.serve.id, r.serve.seed, static_cast<std::uint64_t>(r.deviation + 1),
        r.deviator, o.aborted ? 1u : 0u, o.aborting_agent};
    if (o.abort_record) {
      words.push_back(o.abort_record->task);
      words.push_back(static_cast<std::uint64_t>(o.abort_record->reason));
    }
    if (!o.aborted) {
      for (std::size_t j = 0; j < o.schedule.tasks(); ++j)
        words.push_back(o.schedule.agent_for(j));
      words.insert(words.end(), o.first_prices.begin(), o.first_prices.end());
      words.insert(words.end(), o.second_prices.begin(), o.second_prices.end());
    }
    words.insert(words.end(), o.payments.begin(), o.payments.end());
    words.push_back(o.rounds);
    words.push_back(o.transcripts_consistent ? 1 : 0);
    words.push_back(o.traffic.p2p_equivalent_bytes);

    std::vector<std::uint8_t> bytes;
    for (const std::uint64_t word : words)
      for (int b = 0; b < 8; ++b)
        bytes.push_back(static_cast<std::uint8_t>(word >> (8 * b)));
    dmw::crypto::Sha256 hasher;
    hasher.update(std::span<const std::uint8_t>(chain_.data(), chain_.size()));
    hasher.update(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
    chain_ = hasher.finish();
  }

  const Workload& w_;
  dmw::crypto::Digest256 chain_;
  std::size_t attempted_ = 0, failed_ = 0, folded_ = 0;
};

// ---- Measurement windows ----------------------------------------------------

struct Window {
  bool open_loop = false;
  std::size_t auctions = 0;
  double wall_s = 0, cpu_s = 0;
  std::vector<double> latency_ms, queue_ms, service_ms;
  std::array<double, kPhases> phase_ms{};  ///< summed over auctions
  double unattributed_ms = 0;              ///< Σ (service − Σ phases)
  num::OpCounts ops;
  std::uint64_t p2p_bytes = 0, p2p_messages = 0, rounds = 0;

  double per_auction(double total) const {
    return ratio(total, static_cast<double>(auctions));
  }
  double mean(const std::vector<double>& v) const {
    double sum = 0;
    for (const double x : v) sum += x;
    return per_auction(sum);
  }
};

/// Serve requests for `seconds` (open loop: every arrival due before then)
/// or until `cap` auctions. Latency runs from the scheduled arrival (open
/// loop) or from dispatch (closed loop) to the returned Outcome; the oracle
/// runs after the latency stops. Queue wait is how late the generator ran:
/// dispatch minus the scheduled arrival (open loop) or minus the previous
/// completion (closed loop, where it is the oracle's gap, not latency).
template <num::GroupBackend G>
Window run_window(const Workload& w, Server<G>& server, RequestSource& source,
                  Checker<G>& checker, double seconds, std::size_t cap) {
  const bool open_loop = w.rate_hz > 0;
  const auto limit_ns = static_cast<std::int64_t>(seconds * 1e9);
  Window win;
  win.open_loop = open_loop;
  source.restart_clock();
  const double cpu_begin = cpu_seconds();
  const std::int64_t t0 = now_ns();
  std::int64_t last_done = t0;
  while (win.auctions < cap) {
    const std::int64_t due = t0 + source.peek().serve.arrival_ns;
    if (open_loop) {
      if (source.peek().serve.arrival_ns >= limit_ns) break;
      sleep_until(due);
    } else if (now_ns() - t0 >= limit_ns) {
      break;
    }
    const Request r = source.pop();
    const std::int64_t dispatch = now_ns();
    const Outcome* outcome = nullptr;
    {
      DMW_SPAN("bench/run_auction", r.serve.id);
      outcome = &server.serve(r);
    }
    const std::int64_t done = now_ns();
    const std::int64_t ready = open_loop ? due : last_done;
    last_done = done;

    ++win.auctions;
    const double service_ms = static_cast<double>(done - dispatch) * 1e-6;
    win.latency_ms.push_back(
        static_cast<double>(done - (open_loop ? due : dispatch)) * 1e-6);
    win.queue_ms.push_back(static_cast<double>(dispatch - ready) * 1e-6);
    win.service_ms.push_back(service_ms);
    double phases_ms = 0;
    for (std::size_t k = 0; k < kPhases; ++k) {
      const double ms = outcome->phases[k].seconds * 1e3;
      win.phase_ms[k] += ms;
      phases_ms += ms;
      win.ops += outcome->phases[k].ops;
    }
    win.unattributed_ms += service_ms - phases_ms;
    win.p2p_bytes += outcome->traffic.p2p_equivalent_bytes;
    win.p2p_messages += outcome->traffic.p2p_equivalent_messages;
    win.rounds += outcome->rounds;

    checker.check(server.params(), r, *outcome);
  }
  DMW_REQUIRE_MSG(win.auctions > 0,
                  "a window served no auction: raise --seconds");
  win.wall_s = static_cast<double>(last_done - t0) * 1e-9;
  win.cpu_s = cpu_seconds() - cpu_begin;
  return win;
}

// ---- Trace analysis ---------------------------------------------------------

bool is_phase_span(const char* name) {
  for (std::size_t k = 0; k < kPhases; ++k)
    if (std::strcmp(name, proto::to_string(static_cast<proto::Phase>(k))) == 0)
      return true;
  return false;
}

/// Self time per span name (duration minus the direct children on the same
/// thread), the workers' busy time (their depth-0 spans), and their idle
/// time inside the driver's phase spans.
struct TraceSplit {
  std::map<std::string, std::int64_t> self_ns;
  std::set<std::string> worker_spans;
  std::int64_t busy_ns = 0;
  std::int64_t idle_ns = 0;
  std::int64_t phase_window_ns = 0;
};

TraceSplit split_trace(const std::vector<trace::SpanEvent>& events) {
  TraceSplit split;
  std::map<int, std::vector<const trace::SpanEvent*>> by_thread;
  for (const auto& event : events) by_thread[event.worker].push_back(&event);

  // One window per epoch: from the driver's phase span to the end of its
  // last net/advance_round, which is where Outcome::phases stops the clock.
  // The epoch's bookkeeping after that (op merge, trace flush) belongs to
  // dmw.unattributed_ms, not to any phase.
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
  std::int64_t phase_end = 0;
  for (auto& [worker, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->begin_ns != b->begin_ns ? a->begin_ns < b->begin_ns
                                        : a->depth < b->depth;
    });
    std::vector<std::int64_t> child_ns(list.size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < list.size(); ++i) {
      while (!stack.empty() && list[stack.back()]->depth >= list[i]->depth)
        stack.pop_back();
      if (!stack.empty())
        child_ns[stack.back()] += list[i]->end_ns - list[i]->begin_ns;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto& e = *list[i];
      split.self_ns[e.name] += e.end_ns - e.begin_ns - child_ns[i];
      if (worker >= 0) {
        split.worker_spans.insert(e.name);
      } else if (is_phase_span(e.name)) {
        windows.emplace_back(e.begin_ns, e.end_ns);
        phase_end = e.end_ns;
      } else if (std::strcmp(e.name, "net/advance_round") == 0 &&
                 !windows.empty() && e.end_ns <= phase_end) {
        windows.back().second = e.end_ns;
      }
    }
  }
  for (const auto& [begin, end] : windows) split.phase_window_ns += end - begin;

  // Idle = every worker's share of the phase windows its depth-0 spans do
  // not cover. Windows are disjoint and sorted, and so are one worker's
  // depth-0 spans, so one merge pass per worker finds the overlap.
  std::int64_t covered_ns = 0;
  for (const auto& [worker, list] : by_thread) {
    if (worker < 0) continue;
    std::size_t k = 0;
    for (const auto* e : list) {
      if (e->depth != 0) continue;
      split.busy_ns += e->end_ns - e->begin_ns;
      while (k < windows.size() && windows[k].second <= e->begin_ns) ++k;
      for (std::size_t j = k;
           j < windows.size() && windows[j].first < e->end_ns; ++j)
        covered_ns += std::min(e->end_ns, windows[j].second) -
                      std::max(e->begin_ns, windows[j].first);
    }
  }
  split.idle_ns = static_cast<std::int64_t>(kWorkers) * split.phase_window_ns -
                  covered_ns;
  return split;
}

std::uint64_t counter_value(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::string& name) {
  for (const auto& [key, value] : counters)
    if (key == name) return value;
  return 0;
}

// ---- Calibration probes -----------------------------------------------------

/// Every probe result folds in here, against dead-code elimination.
std::uint64_t g_sink = 0;

/// ns per call of `fn`: a warm-up call, a batch size grown until one window
/// lasts `window_s`, then the fastest of five windows (tools/bench_json's
/// timer: the minimum is the least-interfered reading of deterministic code).
double probe_ns(const std::function<void()>& fn, double window_s) {
  fn();
  std::size_t iters = 1;
  double best = 0;
  for (;;) {
    dmw::Stopwatch timer;
    for (std::size_t i = 0; i < iters; ++i) fn();
    best = timer.seconds();
    if (best >= window_s || iters >= (std::size_t{1} << 30)) break;
    const double scale = best > 0 ? window_s / best * 1.5 : 16.0;
    iters *= static_cast<std::size_t>(std::min(16.0, std::max(2.0, scale)));
  }
  for (int extra = 0; extra < 4; ++extra) {
    dmw::Stopwatch timer;
    for (std::size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, timer.seconds());
  }
  return best * 1e9 / static_cast<double>(iters);
}

struct Calibration {
  double ns_per_mul = 0, ns_per_inv = 0, ns_per_pow = 0;
  double ns_per_multi_pow_term = 0;
  double aead_seal_us = 0, aead_open_us = 0;
  double codec_encode_us = 0, codec_decode_us = 0;
  double advance_round_us = 0, epoch_barrier_us = 0;
};

/// Time each layer's public functions at this workload's shapes: the group's
/// domain product (what every counted multiplication inside pow and
/// multi_pow is), a scalar inverse (the Lagrange denominators), pow, a
/// multi_pow as long as one task's batch-verification
/// product, AEAD and the codec at the shares-message size, one SimNetwork
/// round of n(n-1) share messages, and one empty epoch of the pool.
template <num::GroupBackend G>
Calibration calibrate(const G& g, std::size_t n, std::size_t sigma,
                      double window_s) {
  Calibration cal;
  dmw::Xoshiro256ss rng(0xca11b4a7e);
  constexpr std::size_t kPool = 16;
  std::vector<typename G::Elem> bases;
  std::vector<typename G::Scalar> exps;
  for (std::size_t i = 0; i < kPool; ++i) {
    bases.push_back(g.pow(g.z1(), g.random_scalar(rng)));
    exps.push_back(g.random_scalar(rng));
  }
  auto fold = [&](const typename G::Elem& e) {
    g_sink = g_sink * 1099511628211ULL + (g.is_identity(e) ? 1u : 0u);
  };

  constexpr std::size_t kChain = 64;  // amortizes the std::function call
  auto acc = g.to_dom(bases[0]);
  const auto factor = g.to_dom(bases[1]);
  cal.ns_per_mul = probe_ns([&] {
    for (std::size_t i = 0; i < kChain; ++i) acc = g.dom_mul(acc, factor);
  }, window_s) / kChain;
  fold(g.from_dom(acc));

  std::size_t next = 0;
  cal.ns_per_pow = probe_ns([&] {
    fold(g.pow(bases[next % kPool], exps[next % kPool]));
    ++next;
  }, window_s);
  cal.ns_per_inv = probe_ns([&] {
    g_sink += g.sinv(exps[next % kPool]) == g.szero() ? 1u : 0u;
    ++next;
  }, window_s);

  const std::size_t terms = 3 * sigma * (n - 1);
  std::vector<typename G::Elem> term_bases;
  std::vector<typename G::Scalar> term_exps;
  for (std::size_t i = 0; i < terms; ++i) {
    term_bases.push_back(bases[i % kPool]);
    term_exps.push_back(g.random_scalar(rng));
  }
  cal.ns_per_multi_pow_term =
      probe_ns([&] { fold(num::multi_pow<G>(g, term_bases, term_exps)); },
               window_s) /
      static_cast<double>(terms);

  const proto::SharesMsg<G> message{
      0, proto::ShareBundle<G>{exps[0], exps[1], exps[2], exps[3]}};
  const std::vector<std::uint8_t> plain = message.encode(g);
  cal.codec_encode_us =
      probe_ns([&] { g_sink += message.encode(g).size(); }, window_s) * 1e-3;
  cal.codec_decode_us = probe_ns([&] {
    g_sink += proto::SharesMsg<G>::decode(g, plain).task;
  }, window_s) * 1e-3;

  std::array<std::uint8_t, dmw::crypto::kAeadKeyBytes> key_bytes{};
  for (auto& byte : key_bytes) byte = static_cast<std::uint8_t>(rng.next());
  const auto key = dmw::crypto::make_aead_key(key_bytes);
  const std::vector<std::uint8_t> aad(12, 0x5a);  // sender, receiver, kind
  const auto sealed = dmw::crypto::aead_seal(key, 1, plain, aad);
  cal.aead_seal_us = probe_ns([&] {
    g_sink += dmw::crypto::aead_seal(key, 1, plain, aad).size();
  }, window_s) * 1e-3;
  cal.aead_open_us = probe_ns([&] {
    g_sink += dmw::crypto::aead_open(key, 1, sealed, aad)->size();
  }, window_s) * 1e-3;

  dmw::net::SimNetwork network(n);
  const auto kind = static_cast<std::uint32_t>(proto::MsgKind::kShares);
  cal.advance_round_us = probe_ns([&] {
    for (std::size_t from = 0; from < n; ++from)
      for (std::size_t to = 0; to < n; ++to)
        if (from != to)
          network.send(static_cast<dmw::net::AgentId>(from),
                       static_cast<dmw::net::AgentId>(to), kind, sealed);
    network.advance_round();
    for (std::size_t to = 0; to < n; ++to)
      g_sink += network.receive(static_cast<dmw::net::AgentId>(to)).size();
  }, window_s) * 1e-3;

  dmw::ThreadPool pool(kWorkers, /*deterministic=*/false);
  cal.epoch_barrier_us = probe_ns([&] {
    pool.parallel_for(kWorkers, [](std::size_t) {});
  }, window_s) * 1e-3;
  return cal;
}

// ---- Output -----------------------------------------------------------------

/// Metrics in emission order; printed as `name value unit` lines and as the
/// final JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  bool all_finite() const {
    for (const auto& m : metrics_)
      if (!std::isfinite(m.value)) return false;
    return true;
  }

  void print_lines() const {
    for (const auto& m : metrics_)
      std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  void print_json(bool correct, std::size_t attempted,
                  std::size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

std::string metric_name_for_span(const char* span) {
  std::string name = std::string("span.") + span + ".self_ms";
  std::replace(name.begin(), name.end(), '/', '.');
  return name;
}

// Worker and driver steps reported per auction (the existing span names).
constexpr const char* kStepSpans[] = {
    "phase0/publish_key",          "phase2/prepare",
    "phase2/send_task",            "phase3/ingest",
    "phase3/verify_shares",        "phase3/lambda_psi",
    "phase3/absorb_published",     "phase3/first_price_checks",
    "phase3/price_resolution",     "phase3/disclose",
    "phase3/winner",               "phase3/reduced_lambda_psi",
    "phase3/second_price_checks",  "phase3/second_price_resolution",
    "phase4/payment_claim",        "net/advance_round",
};

void add_end_to_end(Report& report, const Window& win,
                    const std::vector<double>& setup_s) {
  report.add("setup_s", dmw::percentile(setup_s, 50.0), "s");
  report.add("auctions_per_s",
             ratio(static_cast<double>(win.auctions), win.wall_s), "1/s");
  report.add("latency_p50_ms", dmw::percentile(win.latency_ms, 50.0), "ms");
  report.add("latency_p90_ms", dmw::percentile(win.latency_ms, 90.0), "ms");
  report.add("cpu_ms_per_auction", win.per_auction(win.cpu_s * 1e3), "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("wire_bytes_per_auction",
             win.per_auction(static_cast<double>(win.p2p_bytes)), "B");
}

/// The per-layer metrics: driver-side numbers from the untraced window,
/// spans and counters from the traced one, and the calibration probes.
void add_per_layer(
    Report& report, const Window& plain, const Window& traced,
    const TraceSplit& split,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const Calibration& cal) {
  auto per_plain = [&](std::uint64_t total) {
    return plain.per_auction(static_cast<double>(total));
  };
  auto per_traced = [&](double total) {
    return traced.per_auction(total);
  };
  auto counter = [&](const char* name) {
    return static_cast<double>(counter_value(counters, name));
  };

  for (std::size_t k = 0; k < kPhases; ++k)
    report.add(std::string("dmw.phase.") + kPhaseMetric[k] + "_ms",
               plain.per_auction(plain.phase_ms[k]), "ms");
  report.add("dmw.unattributed_ms", plain.per_auction(plain.unattributed_ms),
             "ms");

  const double mul = per_plain(plain.ops.mul);
  const double inv = per_plain(plain.ops.inv);
  report.add("numeric.mul_per_auction", mul, "count");
  report.add("numeric.pow_per_auction", per_plain(plain.ops.pow), "count");
  report.add("numeric.inv_per_auction", inv, "count");
  report.add("numeric.ns_per_mul", cal.ns_per_mul, "ns");
  report.add("numeric.ns_per_inv", cal.ns_per_inv, "ns");
  report.add("numeric.ns_per_pow", cal.ns_per_pow, "ns");
  report.add("numeric.ns_per_multi_pow_term", cal.ns_per_multi_pow_term,
             "ns");

  report.add("batchverify.checks_per_batch",
             ratio(counter("batchverify/checks_batched"),
                   counter("batchverify/batches")),
             "count");
  report.add("batchverify.replays_per_auction",
             per_traced(counter("batchverify/replays")), "count");
  report.add("expwin.fixedbase_evals_per_auction",
             per_traced(counter("expwin/fixedbase_evals")), "count");

  report.add("crypto.aead_seal_us", cal.aead_seal_us, "us");
  report.add("crypto.aead_open_us", cal.aead_open_us, "us");
  report.add("net.codec_encode_us", cal.codec_encode_us, "us");
  report.add("net.codec_decode_us", cal.codec_decode_us, "us");
  report.add("net.p2p_messages_per_auction", per_plain(plain.p2p_messages),
             "count");
  report.add("net.rounds_per_auction", per_plain(plain.rounds), "count");
  report.add("net.advance_round_us", cal.advance_round_us, "us");

  const double busy_ms = per_traced(static_cast<double>(split.busy_ns) * 1e-6);
  const double idle_ms = per_traced(static_cast<double>(split.idle_ns) * 1e-6);
  report.add("pool.busy_ms_per_auction", busy_ms, "ms");
  report.add("pool.idle_ms_per_auction", idle_ms, "ms");
  report.add("pool.busy_fraction", ratio(busy_ms, busy_ms + idle_ms), "1");
  report.add("pool.epoch_barrier_us", cal.epoch_barrier_us, "us");

  report.add("serve.queue_wait_p50_ms", dmw::percentile(plain.queue_ms, 50.0),
             "ms");
  report.add("serve.queue_wait_p90_ms", dmw::percentile(plain.queue_ms, 90.0),
             "ms");
  report.add("serve.service_p50_ms", dmw::percentile(plain.service_ms, 50.0),
             "ms");

  for (const char* span : kStepSpans) {
    const auto it = split.self_ns.find(span);
    const std::int64_t ns = it == split.self_ns.end() ? 0 : it->second;
    report.add(metric_name_for_span(span),
               per_traced(static_cast<double>(ns) * 1e-6), "ms");
  }

  report.add("trace.overhead_pct",
             (ratio(dmw::percentile(traced.latency_ms, 50.0),
                    dmw::percentile(plain.latency_ms, 50.0)) -
              1.0) * 100.0,
             "%");
  // Thm. 12's op counts times calibrated cost, against the pool's measured
  // busy time: the residual is the work the counts do not see (codecs,
  // AEAD, allocation) net of what lane-grouped multiplications save.
  const double predicted_ms =
      (mul * cal.ns_per_mul + inv * cal.ns_per_inv) * 1e-6;
  report.add("model.numeric_predicted_ms", predicted_ms, "ms");
  report.add("model.numeric_residual_pct",
             ratio(busy_ms - predicted_ms, busy_ms) * 100.0, "%");
}

/// The two tables whose parts add up to their whole: the driver's (open-loop
/// queue wait + phases + unattributed = latency, untraced window) and the
/// workers' (step self time + idle = workers x phase wall, traced window).
void print_splits(const Window& plain, const Window& traced,
                  const TraceSplit& split) {
  std::printf("driver split (untraced, mean per auction over %zu):\n",
              plain.auctions);
  const double queue = plain.mean(plain.queue_ms);
  double sum = plain.open_loop ? queue : 0.0;
  std::printf("  %-34s %10.4f ms\n",
              plain.open_loop ? "queue wait" : "(closed-loop gap, not latency)",
              queue);
  for (std::size_t k = 0; k < kPhases; ++k) {
    const double ms = plain.per_auction(plain.phase_ms[k]);
    sum += ms;
    std::printf("  %-34s %10.4f ms\n",
                proto::to_string(static_cast<proto::Phase>(k)), ms);
  }
  const double unattributed = plain.per_auction(plain.unattributed_ms);
  sum += unattributed;
  std::printf("  %-34s %10.4f ms\n", "unattributed", unattributed);
  std::printf("  %-34s %10.4f ms  = latency %.4f ms\n", "sum", sum,
              plain.mean(plain.latency_ms));

  const double n = static_cast<double>(traced.auctions);
  std::printf("worker split (traced, per auction over %zu, %zu workers):\n",
              traced.auctions, kWorkers);
  for (const auto& name : split.worker_spans) {
    std::printf("  %-34s %10.4f ms\n", name.c_str(),
                ratio(static_cast<double>(split.self_ns.at(name)) * 1e-6, n));
  }
  std::printf("  %-34s %10.4f ms\n", "idle",
              ratio(static_cast<double>(split.idle_ns) * 1e-6, n));
  double phase_wall_ms = 0;
  for (const double ms : traced.phase_ms) phase_wall_ms += ms;
  const double whole = static_cast<double>(kWorkers) * phase_wall_ms;
  // Worker self times partition their depth-0 spans, so they sum to busy_ns.
  const double parts =
      static_cast<double>(split.busy_ns + split.idle_ns) * 1e-6;
  std::printf("  %-34s %10.4f ms  vs workers x phase wall %.4f ms "
              "(%+.3f%%)\n",
              "sum", ratio(parts, n), ratio(whole, n),
              ratio(parts - whole, whole) * 100.0);
}

// ---- One workload -----------------------------------------------------------

template <num::GroupBackend G, class MakeGroup>
int run(const Workload& w, const Options& opt, MakeGroup make_group) {
  const std::size_t deviations = dmw::exp::deviation_catalogue<G>(w.n).size();
  RequestSource source(w, opt.seed, deviations);
  Checker<G> checker(w);
  const std::size_t warmup = opt.quick ? 1 : w.warmup;
  const std::size_t reps = opt.quick || opt.traced ? 1 : w.setup_reps;
  const std::size_t cap =
      opt.quick ? 3 : std::numeric_limits<std::size_t>::max();

  // Set-up, timed as a user meets it: group, public parameters, engine and
  // pool, then the first (cold) auction. Each repetition starts from
  // nothing; the last one's server stays up for the measured windows.
  std::vector<double> setup_s;
  std::unique_ptr<Server<G>> server;
  const Request first = source.pop();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    server.reset();
    dmw::Stopwatch timer;
    server = std::make_unique<Server<G>>(make_group(), w);
    const Outcome& outcome = server->serve(first);
    setup_s.push_back(timer.seconds());
    checker.check(server->params(), first, outcome);
  }
  for (std::size_t i = 0; i < warmup; ++i) {
    const Request r = source.pop();
    checker.check(server->params(), r, server->serve(r));
  }
  const std::size_t slabs_after_warmup = server->arena_slabs();

  Report report;
  std::size_t steady_slabs = 0;
  if (!opt.traced) {
    const Window win =
        run_window(w, *server, source, checker, opt.seconds, cap);
    steady_slabs = server->arena_slabs() - slabs_after_warmup;
    add_end_to_end(report, win, setup_s);
    std::printf("%s: %zu auctions in %.3f s (seed %llu)\n", w.name,
                win.auctions, win.wall_s,
                static_cast<unsigned long long>(opt.seed));
  } else {
    const Window plain =
        run_window(w, *server, source, checker, opt.seconds / 2, cap);
    steady_slabs = server->arena_slabs() - slabs_after_warmup;

    auto& tracer = trace::Tracer::instance();
    tracer.set_clock_mode(trace::ClockMode::kReal);
    tracer.reset();
    tracer.set_enabled(true);
    server->params().set_tracing(true);
    const Window traced = run_window(w, *server, source, checker,
                                     opt.seconds / 2,
                                     opt.quick ? 2 : w.traced_cap);
    server->params().set_tracing(false);
    tracer.set_enabled(false);
    const auto events = tracer.events();
    const auto counters = trace::counters_snapshot();
    if (tracer.events_dropped() != 0) {
      DMW_WARN() << tracer.events_dropped() << " trace events dropped";
    }
    const TraceSplit split = split_trace(events);

    // Probes run with the server gone, so the process never holds more
    // than kWorkers pool threads.
    const G group = server->params().group();
    const std::size_t sigma = server->params().sigma();
    server.reset();
    const Calibration cal =
        calibrate(group, w.n, sigma, opt.quick ? 0.001 : 0.02);

    add_per_layer(report, plain, traced, split, counters, cal);
    print_splits(plain, traced, split);
  }

  bool correct = checker.failed() == 0 && report.all_finite();
  if (steady_slabs != 0) {
    DMW_WARN() << "arena grew by " << steady_slabs << " slab(s) after warmup";
    correct = false;
  }
  if (checker.digest_complete()) {
    const bool pinned = opt.seed == kDefaultSeed;
    const bool match = checker.digest() == w.pinned_digest;
    std::printf("outcome digest (first %zu requests): %s%s\n", w.digest_prefix,
                checker.digest().c_str(),
                !pinned ? "" : match ? " (matches pin)" : " (PIN MISMATCH)");
    if (pinned && !match) correct = false;
  }
  std::printf("env: nproc=%zu simd=%s compiler=%s build=%s probe_sink=%llu\n",
              dmw::ThreadPool::default_thread_count(),
              num::simd::backend_name(num::simd::active_backend()), __VERSION__,
              DMW_BENCH_BUILD_TYPE, static_cast<unsigned long long>(g_sink));
  report.print_lines();
  report.print_json(correct, checker.attempted(), checker.failed());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

constexpr const char* kUsage =
    "usage: dmw_bench --workload g256_large|g64_stream|g64_attack "
    "[--seed S] [--seconds T] [--trace 0|1] [--quick]\n";

}  // namespace

int main(int argc, char** argv) try {
  dmw::Logger::instance().set_level(dmw::LogLevel::kWarn);
  const dmw::Flags flags(argc, argv,
                         {"workload", "seed", "seconds", "trace", "quick!",
                          "help!"});
  if (flags.get_bool("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  const std::string name = flags.get_string("workload", "");
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads)
    if (name == w.name) workload = &w;
  Options opt;
  opt.seed = flags.get_u64("seed", kDefaultSeed);
  if (flags.has("seconds"))
    opt.seconds = std::strtod(flags.get_string("seconds", "").c_str(), nullptr);
  const std::uint64_t trace_flag = flags.get_u64("trace", 0);
  opt.traced = trace_flag == 1;
  opt.quick = flags.get_bool("quick");
  if (workload == nullptr || !(opt.seconds > 0) || trace_flag > 1) {
    DMW_ERROR() << "bad arguments";
    std::printf("%s", kUsage);
    return 2;
  }
  if (dmw::ThreadPool::default_thread_count() < kWorkers + 1) {
    DMW_WARN() << "nproc < " << kWorkers + 1
               << ": the pool and the driver share cores, timings are inflated";
  }

  if (workload->big_group) {
    return run<num::Group256>(*workload, opt, [] {
      // dmw_serve --backend 256 --p-bits 250 at --seed 1: q has p_bits/2 bits.
      dmw::Xoshiro256ss rng(kParamsSeed ^ 0xdeadbeef);
      return num::Group256::generate(250, 125, rng);
    });
  }
  return run<num::Group64>(*workload, opt, [] {
    // A fresh copy of the test group, so every set-up rebuilds its tables.
    const num::Group64& t = num::Group64::test_group();
    return num::Group64(t.p(), t.q(), t.z1(), t.z2());
  });
} catch (const std::exception& error) {
  DMW_ERROR() << error.what();
  std::printf("%s", kUsage);
  return 2;
}
