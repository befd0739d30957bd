// Marketplace server mode: a persistent engine for streams of auctions.
//
// The one-shot drivers (tools/dmw_sim, ProtocolRunner/ParallelProtocol) pay
// the full setup bill per run: spawn a worker pool, rebuild the
// pseudonym-power matrix and the group's fixed-base commitment tables, then
// tear it all down. A marketplace serving heavy traffic runs *many* auctions
// against one agent set, so ServeEngine inverts the ownership: it holds ONE
// PublicParams (pseudonym powers + fixed-base/MultiExp commitment tables
// built once, immutable, read concurrently), ONE warmed ThreadPool (borrowed
// by each ParallelProtocol via its server-mode constructor), and per-worker
// arenas (support/arena.hpp) for per-auction scratch. Per request it derives
// a fresh instance and secret seed, runs the pipelined engine, folds the
// Outcome into a running SHA-256 stream digest, and rewinds the arenas. After
// warmup the arena slab set is at its high-water mark and the per-auction
// steady state performs zero arena heap allocations — the serve report
// exposes that and tests/CI gate it.
//
// Reproducibility contract: request r with seed s is bit-identical to the
// one-shot drivers —
//
//   instance   = workload generator seeded with s*3+1   (dmw_sim's derivation)
//   secret_seed = serve_secret_seed(base, s)            (public helper below)
//
// so `dmw_sim --seed <master> --instance-seed <s*3+1> --secret-seed <x>`
// replays any single auction from a serve stream, and ServeEngine's own
// check_oneshot mode re-runs every request on the inline executor
// (ProtocolRunner) and compares them with outcomes_identical. The stream
// digest is a function of Outcomes only, so it is bit-identical across
// thread counts (the serve-smoke CI job pins this).
//
// This header is JSON-free on purpose: report assembly (worker counts,
// hardware_concurrency, latency tables) lives in tools/dmw_serve.cpp, keeping
// dmwlint's thread-id-sink rule trivially satisfied for protocol code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "dmw/protocol.hpp"
#include "dmw/strategies.hpp"
#include "mech/problem.hpp"
#include "support/arena.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dmw::proto {

/// Workload families a request can draw its cost matrix from (the same
/// four generators tools/dmw_sim exposes).
enum class WorkloadKind { kUniform, kMachine, kTask, kWorst };

inline const char* to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kUniform: return "uniform";
    case WorkloadKind::kMachine: return "machine";
    case WorkloadKind::kTask: return "task";
    case WorkloadKind::kWorst: return "worst";
  }
  return "?";
}

/// Parse a workload name; DMW_REQUIREs on unknown names (caller validates
/// user input with the same error text dmw_sim uses).
inline WorkloadKind parse_workload(const std::string& name) {
  if (name == "uniform") return WorkloadKind::kUniform;
  if (name == "machine") return WorkloadKind::kMachine;
  if (name == "task") return WorkloadKind::kTask;
  if (name == "worst") return WorkloadKind::kWorst;
  DMW_REQUIRE_MSG(false, "unknown workload: " + name);
  return WorkloadKind::kUniform;
}

/// One auction request in the stream.
struct AuctionRequest {
  std::uint64_t id = 0;    ///< position in the stream (0-based)
  std::uint64_t seed = 0;  ///< drives instance costs and secret randomness
  WorkloadKind workload = WorkloadKind::kUniform;
  std::int64_t arrival_ns = 0;  ///< open-loop arrival, relative to t0
};

/// The instance a request resolves to: the exact derivation dmw_sim uses
/// (generator RNG seeded with seed*3+1), so a serve request and a one-shot
/// run agree bit-for-bit on the cost matrix.
inline mech::SchedulingInstance make_workload_instance(
    WorkloadKind kind, std::size_t n, std::size_t m, const mech::BidSet& bids,
    std::uint64_t request_seed) {
  Xoshiro256ss rng(request_seed * 3 + 1);
  switch (kind) {
    case WorkloadKind::kUniform:
      return mech::make_uniform_instance(n, m, bids, rng);
    case WorkloadKind::kMachine:
      return mech::make_machine_correlated_instance(n, m, bids, rng);
    case WorkloadKind::kTask:
      return mech::make_task_correlated_instance(n, m, bids, rng);
    case WorkloadKind::kWorst:
      return mech::make_minwork_worst_case(n, m, bids);
  }
  return {};
}

/// Per-request secret-randomness seed: the base RunConfig seed xor a
/// splitmix64-finalized mix of the request seed, so distinct requests get
/// decorrelated agent secrets while request 0 with seed 0 degenerates to
/// the plain one-shot default.
inline std::uint64_t serve_secret_seed(std::uint64_t base,
                                       std::uint64_t request_seed) {
  std::uint64_t z = request_seed;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return base ^ z;
}

/// Open-loop arrival process: the stream's arrival times are fixed up front
/// (seeded), independent of service progress — a lagging server accumulates
/// queueing delay instead of silently throttling the offered load.
class ArrivalProcess {
 public:
  enum class Mode { kAsap, kFixed, kPoisson };

  ArrivalProcess(Mode mode, double rate_hz, std::uint64_t seed)
      : mode_(mode), rate_hz_(rate_hz), rng_(seed ^ 0xa44c7a11a44c7a11ULL) {
    DMW_REQUIRE_MSG(mode == Mode::kAsap || rate_hz > 0.0,
                    "arrival rate must be positive");
  }

  static Mode parse(const std::string& name) {
    if (name == "asap") return Mode::kAsap;
    if (name == "fixed") return Mode::kFixed;
    if (name == "poisson") return Mode::kPoisson;
    DMW_REQUIRE_MSG(false, "unknown arrival mode: " + name);
    return Mode::kAsap;
  }

  static const char* to_string(Mode mode) {
    switch (mode) {
      case Mode::kAsap: return "asap";
      case Mode::kFixed: return "fixed";
      case Mode::kPoisson: return "poisson";
    }
    return "?";
  }

  Mode mode() const { return mode_; }
  double rate_hz() const { return rate_hz_; }

  /// Gap to the next arrival. asap: 0. fixed: 1/rate. poisson: exponential
  /// with mean 1/rate (inverse-CDF over the seeded generator, so a stream's
  /// arrival schedule is reproducible).
  std::int64_t next_gap_ns() {
    switch (mode_) {
      case Mode::kAsap:
        return 0;
      case Mode::kFixed:
        return static_cast<std::int64_t>(1e9 / rate_hz_);
      case Mode::kPoisson: {
        // real() is in [0, 1); flip to (0, 1] so log never sees zero.
        const double u = 1.0 - rng_.real();
        return static_cast<std::int64_t>(-std::log(u) * 1e9 / rate_hz_);
      }
    }
    return 0;
  }

 private:
  const Mode mode_;
  const double rate_hz_;
  Xoshiro256ss rng_;
};

/// Generate a request stream: request i gets seed master_seed + i (each
/// expanded through the generators' own seeding), the given workload, and
/// cumulative arrivals from the process.
inline std::vector<AuctionRequest> make_request_stream(
    std::size_t count, std::uint64_t master_seed, WorkloadKind workload,
    ArrivalProcess& arrivals) {
  std::vector<AuctionRequest> stream(count);
  std::int64_t at_ns = 0;
  for (std::size_t i = 0; i < count; ++i) {
    at_ns += arrivals.next_gap_ns();
    stream[i].id = i;
    stream[i].seed = master_seed + i;
    stream[i].workload = workload;
    stream[i].arrival_ns = at_ns;
  }
  return stream;
}

/// Fixed-capacity latency bookkeeping. Capacity is reserved up front;
/// record() never allocates (records past capacity are counted, not stored),
/// and summaries sort a preallocated scratch buffer in place — the
/// per-auction steady state stays heap-quiet, which test_serve pins with a
/// counting operator new.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t capacity) {
    latencies_.reserve(capacity);
    scratch_.reserve(capacity);
  }

  void record(std::int64_t latency_ns) {
    if (latencies_.size() < latencies_.capacity())
      latencies_.push_back(latency_ns);
    else
      ++dropped_;
  }

  std::size_t count() const { return latencies_.size(); }
  std::size_t dropped() const { return dropped_; }

  struct Summary {
    std::size_t count = 0;
    double mean_ms = 0, p50_ms = 0, p95_ms = 0, p99_ms = 0, max_ms = 0;
  };

  /// Summary over every recorded latency (pass 0), or over the trailing
  /// `last` records (an interval window).
  Summary summary(std::size_t last = 0) const {
    Summary out;
    const std::size_t total = latencies_.size();
    if (total == 0) return out;
    const std::size_t window = (last == 0 || last > total) ? total : last;
    scratch_.assign(latencies_.end() - static_cast<std::ptrdiff_t>(window),
                    latencies_.end());
    std::sort(scratch_.begin(), scratch_.end());
    double sum = 0;
    for (const std::int64_t v : scratch_) sum += static_cast<double>(v);
    out.count = window;
    out.mean_ms = sum / static_cast<double>(window) * 1e-6;
    out.p50_ms = sorted_percentile(50.0) * 1e-6;
    out.p95_ms = sorted_percentile(95.0) * 1e-6;
    out.p99_ms = sorted_percentile(99.0) * 1e-6;
    out.max_ms = static_cast<double>(scratch_.back()) * 1e-6;
    return out;
  }

 private:
  /// dmw::percentile's linear-interpolation rank over the sorted scratch,
  /// reimplemented here to stay allocation-free (stats.cpp's takes a copy).
  double sorted_percentile(double p) const {
    const std::size_t size = scratch_.size();
    if (size == 1) return static_cast<double>(scratch_[0]);
    const double rank = p / 100.0 * static_cast<double>(size - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= size) return static_cast<double>(scratch_.back());
    return static_cast<double>(scratch_[lo]) * (1.0 - frac) +
           static_cast<double>(scratch_[lo + 1]) * frac;
  }

  std::vector<std::int64_t> latencies_;
  mutable std::vector<std::int64_t> scratch_;
  std::size_t dropped_ = 0;
};

/// Persistent auction server: shared immutable parameters, one warmed pool,
/// per-worker arenas, honest agents, and a running Outcome-stream digest.
/// Single-threaded driver surface: run_auction() must be called from the
/// owning (non-pool) thread, one request at a time.
template <dmw::num::GroupBackend G>
class ServeEngine {
 public:
  struct Config {
    std::size_t threads = 1;  ///< 0 = hardware concurrency
    /// Inert; must stay false. dmw_bench/ is its only reader.
    bool deterministic_schedule = false;
    bool encrypt_channels = true;
    /// Re-run every request on the inline executor (ProtocolRunner) and
    /// require outcomes_identical (the serve-smoke identity gate). Roughly
    /// doubles the work per request.
    bool check_oneshot = false;
    std::uint64_t base_secret_seed = RunConfig{}.secret_seed;
    std::size_t arena_slab_bytes = Arena::kDefaultSlabBytes;
  };

  ServeEngine(const PublicParams<G>& params, Config config)
      : params_(params),
        config_(config),
        pool_(config.threads == 0 ? ThreadPool::default_thread_count()
                                  : config.threads),
        arenas_(pool_.size(), config.arena_slab_bytes),
        strategies_(params.n(), &honest_) {
    DMW_REQUIRE_MSG(!config.deterministic_schedule,
                    "ServeEngine: static schedule was removed");
    chain_.fill(0);
  }

  std::size_t threads() const { return pool_.size(); }
  const PublicParams<G>& params() const { return params_; }
  WorkerArenas& arenas() { return arenas_; }

  /// Run one request to completion on the shared pool. The returned Outcome
  /// reference is valid until the next run_auction() call.
  const Outcome& run_auction(const AuctionRequest& request) {
    const auto instance = make_workload_instance(
        request.workload, params_.n(), params_.m(), params_.bid_set(),
        request.seed);
    RunConfig config;
    config.secret_seed =
        serve_secret_seed(config_.base_secret_seed, request.seed);
    config.encrypt_channels = config_.encrypt_channels;

    ParallelProtocol<G> engine(params_, instance, strategies_, pool_, config);
    outcome_ = engine.run();

    if (config_.check_oneshot) {
      ProtocolRunner<G> reference(params_, instance, strategies_, config);
      if (!outcomes_identical(outcome_, reference.run())) ++oneshot_mismatches_;
    }

    fold_into_digest(request);
    ++auctions_;
    if (outcome_.aborted) ++aborted_;
    // Auction boundary: engine.run() returned, the pool is quiescent — the
    // per-worker scratch of this request is dead and the slabs rewind.
    arenas_.reset_all();
    return outcome_;
  }

  std::uint64_t auctions() const { return auctions_; }
  std::uint64_t aborted() const { return aborted_; }
  /// Requests whose pooled Outcome differed from the inline re-run
  /// (only ever counted with Config::check_oneshot; the gate is == 0).
  std::uint64_t oneshot_mismatches() const { return oneshot_mismatches_; }
  Arena::Stats arena_stats() const { return arenas_.combined_stats(); }

  /// Hex digest of the Outcome stream so far: a SHA-256 chain over every
  /// request's (id, seed, outcome fields). Equal digests <=> byte-identical
  /// per-auction outcome streams; the serve-smoke job compares them across
  /// thread counts.
  std::string outcome_digest() const { return crypto::digest_hex(chain_); }

 private:
  /// chain <- SHA256(chain || encode(request, outcome)). The encoding is
  /// staged in the driver's arena (per-auction scratch, rewound at the
  /// boundary), not the heap.
  void fold_into_digest(const AuctionRequest& request) {
    ArenaVector<std::uint8_t> buffer{
        ArenaAllocator<std::uint8_t>(arenas_.local())};
    buffer.reserve(64 + 8 * (params_.m() + 3 * params_.n()));
    append_u64(buffer, request.id);
    append_u64(buffer, request.seed);
    append_u64(buffer, outcome_.aborted ? 1 : 0);
    if (outcome_.aborted) {
      append_u64(buffer, outcome_.aborting_agent);
      append_u64(buffer, outcome_.abort_record->task);
      append_u64(buffer,
                 static_cast<std::uint64_t>(outcome_.abort_record->reason));
    } else {
      for (std::size_t j = 0; j < params_.m(); ++j)
        append_u64(buffer, outcome_.schedule.agent_for(j));
      for (const auto price : outcome_.first_prices) append_u64(buffer, price);
      for (const auto price : outcome_.second_prices) append_u64(buffer, price);
    }
    for (const auto payment : outcome_.payments) append_u64(buffer, payment);
    append_u64(buffer, outcome_.rounds);
    append_u64(buffer, outcome_.transcripts_consistent ? 1 : 0);

    crypto::Sha256 hasher;
    hasher.update(std::span<const std::uint8_t>(chain_.data(), chain_.size()));
    hasher.update(std::span<const std::uint8_t>(buffer.data(), buffer.size()));
    chain_ = hasher.finish();
  }

  static void append_u64(ArenaVector<std::uint8_t>& buffer, std::uint64_t v) {
    for (int b = 0; b < 8; ++b)
      buffer.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }

  const PublicParams<G>& params_;
  const Config config_;
  ThreadPool pool_;
  WorkerArenas arenas_;
  HonestStrategy<G> honest_;
  std::vector<Strategy<G>*> strategies_;
  Outcome outcome_;
  crypto::Digest256 chain_;
  std::uint64_t auctions_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t oneshot_mismatches_ = 0;
};

}  // namespace dmw::proto
