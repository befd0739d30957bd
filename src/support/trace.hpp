// dmwtrace — span-based tracing and process metrics for the DMW stack.
//
// The paper states its complexity claims per phase (Thm. 11/12) and its
// faithfulness argument through detected deviations (§5). dmwtrace makes
// both observable in one place:
//
//   - RAII spans (`DMW_SPAN("phase3/price_resolution", task)`) record wall
//     time, the ThreadPool worker id and the OpCounts delta of the enclosed
//     work. Spans nest, and are safe inside pool workers: every thread
//     appends to its own buffer, which the parallel driver flushes at stage
//     barriers (worker-id order), so exported data never depends on
//     scheduling.
//   - A process metrics registry of counters/gauges/histograms (messages
//     and bytes per round, batched vs. replayed commitment checks, aborts
//     by reason, fixed-base table evaluations).
//   - Two exporters: Chrome `trace_event` JSON (load in about:tracing or
//     https://ui.perfetto.dev) and the aggregated, engine-invariant
//     `RunReport` JSON (docs/tracing.md documents the schema).
//
// Overhead contract: tracing is compiled in but OFF by default. A disabled
// span or counter costs one relaxed atomic load and a predicted branch —
// no allocation, no clock read, no registry lookup. The CI trace-overhead
// gate holds the tracing-off simulator inside the perf-regression band.
//
// Clock: ClockMode::kReal (default) reads steady_clock relative to the
// tracer epoch. ClockMode::kLogical counts network rounds — the driver
// advances one tick per SimNetwork::advance_round() — which makes every
// exported duration a pure function of the protocol, so RunReports are
// bit-identical across `--threads T` and across machines.
//
// Threading contract: record() paths (Span, counters) are safe from any
// thread. Structural calls — set_enabled, set_clock_mode, reset, tick,
// flush_thread_buffers, the exporters — are driver-thread-only, called
// between epochs, i.e. after ThreadPool::drain()/parallel_for returns
// (same rule as SimNetwork's round-structural methods).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "numeric/opcount.hpp"
#include "support/thread_pool.hpp"

namespace dmw::trace {

/// Sentinel for spans with no per-task/per-agent id.
inline constexpr std::uint64_t kNoId = ~std::uint64_t{0};

enum class ClockMode {
  kReal,     ///< steady_clock ns since the tracer epoch (human profiling)
  kLogical,  ///< driver-advanced tick counter, 1 tick per network round
};

/// One completed span occurrence.
struct SpanEvent {
  const char* name = nullptr;  ///< static-storage name passed to the Span
  std::uint64_t id = kNoId;    ///< task/agent id, kNoId when absent
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  int worker = -1;             ///< ThreadPool worker id; -1 = driver thread
  std::uint32_t depth = 0;     ///< nesting depth on its thread
  dmw::num::OpCounts ops;      ///< per-thread op-count delta of the span
};

/// Per-name aggregate over all flushed events (worker-id free, so it is
/// identical at any thread count).
struct SpanAggregate {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  dmw::num::OpCounts ops;
};

/// One message-flow endpoint: a send (Chrome "s") or a deliver ("f"),
/// stamped with the monotonic message id that links the pair into one
/// arrow across the round barrier. SimNetwork records these; they only
/// reach the Chrome exporter, never the RunReport (ids are assigned in
/// arrival order, so they are not thread-count invariant).
struct FlowEvent {
  const char* name = nullptr;  ///< static-storage kind label
  std::uint64_t id = 0;        ///< message id (1-based; 0 never recorded)
  std::int64_t ts_ns = 0;
  int worker = -1;  ///< ThreadPool worker id; -1 = driver thread
  bool send = false;  ///< true = flow start ("s"), false = finish ("f")
};

namespace detail {

/// The global on/off latch, inline so a disabled DMW_SPAN/DMW_COUNT costs
/// exactly one relaxed load + branch with no function call.
inline std::atomic<bool> g_enabled{false};

/// Calling thread's span buffer + active-span stack. First use registers
/// the state with the tracer (under the registry lock); subsequent access
/// is lock-free.
struct ThreadState {
  std::vector<SpanEvent> events;
  std::vector<FlowEvent> flows;     ///< buffered message-flow endpoints
  std::vector<const char*> stack;   ///< active span names, innermost last
  std::uint64_t dropped = 0;        ///< events beyond the per-thread cap
  int worker = -1;                  ///< worker id at registration
  std::uint64_t sequence = 0;       ///< registration order (flush tiebreak)
};

ThreadState& thread_state();

/// Per-thread buffer cap between flushes; overflow increments `dropped`
/// instead of reallocating without bound.
inline constexpr std::size_t kMaxBufferedEvents = std::size_t{1} << 16;

}  // namespace detail

/// True when tracing is enabled. The only cost a disabled span pays.
inline bool on() { return detail::g_enabled.load(std::memory_order_relaxed); }

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return on(); }
  void set_enabled(bool enabled);

  ClockMode clock_mode() const;
  /// Driver-only; call before the run being traced.
  void set_clock_mode(ClockMode mode);

  /// Run-relative monotonic now: steady_clock ns since the tracer epoch
  /// (kReal) or the logical tick count (kLogical). Works with tracing
  /// disabled too — the logger uses it for run-relative timestamps.
  std::int64_t now_ns() const;

  /// Advance the logical clock by one tick (no-op unless tracing is
  /// enabled). SimNetwork::advance_round() calls this, so in kLogical mode
  /// every duration is measured in protocol rounds.
  void tick();

  /// Drop all buffered/flushed events, re-arm the epoch and the logical
  /// clock, and zero every registered metric (registry entries survive —
  /// cached Counter& references stay valid). Driver-only.
  void reset();

  /// Move every thread's buffered events into the central log, visiting
  /// buffers in (worker id, registration) order. Driver-only, at an epoch
  /// boundary (ThreadPool::drain() or parallel_for has returned, so the
  /// workers' writes happen-before this read).
  void flush_thread_buffers();

  /// Flush + copy of the central event log. Driver-only.
  std::vector<SpanEvent> events();

  /// Flush + per-name aggregation, sorted by name. Worker ids and event
  /// order do not enter the result. Driver-only.
  std::vector<SpanAggregate> aggregate_spans();

  /// Total events dropped at the per-thread cap (0 in any sane run).
  std::uint64_t events_dropped();

  /// Innermost active span name on the calling thread, nullptr when none.
  const char* active_span() const;

  /// Flush + copy of the central message-flow log. Driver-only.
  std::vector<FlowEvent> flows();

  /// Chrome trace_event JSON ("X" complete events + thread-name metadata +
  /// "s"/"f" message-flow pairs; ts/dur in microseconds). Load in
  /// about:tracing or Perfetto. Driver-only.
  std::string chrome_trace_json();

 private:
  Tracer();
};

/// Record one message-flow endpoint (send when `send` is true, deliver
/// otherwise). `name` must have static storage duration. A no-op while
/// tracing is off; overflow past the per-thread cap counts as dropped.
inline void flow_event(const char* name, std::uint64_t id, bool send) {
  if (!on()) return;
  auto& state = detail::thread_state();
  if (state.flows.size() >= detail::kMaxBufferedEvents) {
    ++state.dropped;
    return;
  }
  FlowEvent event;
  event.name = name;
  event.id = id;
  event.ts_ns = Tracer::instance().now_ns();
  event.worker = ThreadPool::current_worker_id();
  event.send = send;
  state.flows.push_back(event);
}

/// RAII span. `name` must have static storage duration (string literals /
/// to_string tables); the tracer keeps the pointer, not a copy.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = kNoId)
      : active_(on()) {
    if (!active_) return;
    name_ = name;
    id_ = id;
    auto& state = detail::thread_state();
    depth_ = static_cast<std::uint32_t>(state.stack.size());
    state.stack.push_back(name);
    begin_ns_ = Tracer::instance().now_ns();
    ops_begin_ = dmw::num::op_counts();
  }

  ~Span() {
    if (!active_) return;
    auto& state = detail::thread_state();
    state.stack.pop_back();
    if (state.events.size() >= detail::kMaxBufferedEvents) {
      ++state.dropped;
      return;
    }
    SpanEvent event;
    event.name = name_;
    event.id = id_;
    event.begin_ns = begin_ns_;
    event.end_ns = Tracer::instance().now_ns();
    event.worker = ThreadPool::current_worker_id();
    event.depth = depth_;
    event.ops = dmw::num::op_counts() - ops_begin_;
    state.events.push_back(event);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  const char* name_ = nullptr;
  std::uint64_t id_ = kNoId;
  std::int64_t begin_ns_ = 0;
  std::uint32_t depth_ = 0;
  dmw::num::OpCounts ops_begin_;
};

// ---- Metrics registry ------------------------------------------------------

/// Monotone event counter. add() is thread-safe; references returned by
/// counter() stay valid for the process lifetime (reset() zeroes values,
/// it never removes entries).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void clear() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void clear() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Power-of-two histogram: observe(v) lands in bucket bit_width(v), i.e.
/// bucket b holds values in [2^(b-1), 2^b) and bucket 0 holds v == 0.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v);
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Non-empty buckets as (pow2 exponent, count), ascending.
  std::vector<std::pair<unsigned, std::uint64_t>> buckets() const;
  void clear();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Registry lookups: find-or-create by name, thread-safe, stable
/// references. Prefer DMW_COUNT on hot paths — it skips the lookup (and
/// the name allocation) entirely while tracing is off.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Sorted (name, value) snapshots of the non-zero registry entries.
std::vector<std::pair<std::string, std::uint64_t>> counters_snapshot();
std::vector<std::pair<std::string, std::int64_t>> gauges_snapshot();

/// Interval delta between two counters_snapshot() results (both sorted by
/// name): `newer - older`, dropping entries whose delta is zero. The serve
/// driver reports its RunReport-over-interval stream with this — counters
/// are cumulative, so the delta is what one interval actually did.
std::vector<std::pair<std::string, std::uint64_t>> counters_delta(
    const std::vector<std::pair<std::string, std::uint64_t>>& newer,
    const std::vector<std::pair<std::string, std::uint64_t>>& older);

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::pair<unsigned, std::uint64_t>> buckets;
};
std::vector<HistogramSnapshot> histograms_snapshot();

// ---- RunReport -------------------------------------------------------------

/// The stable machine-readable export: per-phase wall time / ops / traffic
/// (filled by proto::make_run_report from the Outcome), per-name span
/// aggregates and the metrics snapshots (filled by collect_into). By
/// design it contains no thread ids, worker counts or event orderings, so
/// under ClockMode::kLogical the JSON is bit-identical at any --threads T
/// (tests/test_trace.cpp and the CI determinism gate pin this).
struct RunReport {
  std::string label;
  std::uint64_t n = 0, m = 0, c = 0;
  bool aborted = false;
  std::string abort_reason;
  std::uint64_t rounds = 0;

  struct PhaseRow {
    std::string name;
    std::int64_t wall_ns = 0;
    dmw::num::OpCounts ops;
    std::uint64_t unicasts = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t p2p_messages = 0;
    std::uint64_t p2p_bytes = 0;
  };
  std::vector<PhaseRow> phases;

  /// One communication-ledger row: the (phase, round, kind, sender)
  /// attribution cell from SimNetwork::comm_rows(), label-resolved by
  /// proto::make_run_report. Ordered by (phase index, round, kind, sender),
  /// so the section is byte-identical across thread counts and schedules.
  struct CommRow {
    std::string phase;  ///< phase label ("II bidding", ...)
    std::uint64_t round = 0;
    std::string kind;  ///< registered kind name ("shares", ...)
    std::uint64_t sender = 0;
    std::uint64_t messages = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t p2p_messages = 0;
    std::uint64_t p2p_bytes = 0;
  };
  std::vector<CommRow> comm;

  std::vector<SpanAggregate> spans;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::uint64_t events_dropped = 0;

  /// Render the report. The top-level tag `"bench": "runreport"` is what
  /// the `identity` rule in BENCH_runreport.json's `gates` block compares,
  /// so tools/check_bench_regression.py refuses other reports (exit 3).
  std::string json() const;
};

/// Fill the spans/metrics/events_dropped sections from the process-wide
/// tracer and registry. Driver-only (flushes thread buffers).
void collect_into(RunReport& report);

/// Prometheus text-format dump of the metrics registry: counters and gauges
/// as one sample each, histograms as summaries (p50/p90/p99 quantile
/// estimates from the pow2 buckets, plus _sum and _count). Names are
/// sanitized to the Prometheus charset ('/' and other separators become
/// '_') and prefixed "dmw_". dmw_serve --telemetry-out writes this
/// periodically for scraping a long-lived server.
std::string prometheus_text();

/// "+1.234567s" run-relative stamp ("t42" under the logical clock), plus
/// the calling thread's active span name when tracing. The logger's
/// default sink prefixes every line with it.
std::string log_stamp();

}  // namespace dmw::trace

#define DMW_TRACE_CONCAT2(a, b) a##b
#define DMW_TRACE_CONCAT(a, b) DMW_TRACE_CONCAT2(a, b)

/// DMW_SPAN("phase3/price_resolution", task) — RAII span over the rest of
/// the enclosing scope. The name must be a literal (or otherwise static).
#define DMW_SPAN(...) \
  ::dmw::trace::Span DMW_TRACE_CONCAT(dmw_span_, __LINE__)(__VA_ARGS__)

/// DMW_COUNT("expwin/fixedbase_evals", 1) — bump a registry counter iff
/// tracing is on. The Counter& is resolved once (lazily, only ever while
/// tracing) and cached in a function-local static, so the off path does no
/// allocation and the on path does no repeated lookup.
#define DMW_COUNT(name, n)                                      \
  do {                                                          \
    if (::dmw::trace::on()) {                                   \
      static ::dmw::trace::Counter& DMW_TRACE_CONCAT(           \
          dmw_counter_, __LINE__) = ::dmw::trace::counter(name); \
      DMW_TRACE_CONCAT(dmw_counter_, __LINE__).add(n);          \
    }                                                           \
  } while (0)
