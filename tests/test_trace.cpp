// dmwtrace: span nesting/balance, the logical clock, the metrics registry,
// exporter schemas (golden files), RunReport bit-identity across thread
// counts and engines, honest-run metric invariants, and the overhead
// contract of tracing-off.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dmw/protocol.hpp"
#include "dmw/strategies.hpp"
#include "mech/minwork.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace dmw::trace {
namespace {

using num::Group64;

const Group64& grp() { return Group64::test_group(); }

/// Every test starts and ends with the process-wide tracer disabled, on the
/// real clock, with all buffers and metrics zeroed, so tests in this binary
/// cannot observe each other's state.
class Trace : public ::testing::Test {
 protected:
  void SetUp() override { restore(); }
  void TearDown() override { restore(); }

  static void restore() {
    auto& tracer = Tracer::instance();
    tracer.set_enabled(false);
    tracer.set_clock_mode(ClockMode::kReal);
    tracer.reset();
  }
};

std::uint64_t counter_value(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    std::string_view name) {
  for (const auto& [key, value] : counters)
    if (key == name) return value;
  return 0;
}

TEST_F(Trace, SpanNestingBalanceAndActiveSpan) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  EXPECT_EQ(tracer.active_span(), nullptr);
  {
    DMW_SPAN("outer");
    EXPECT_STREQ(tracer.active_span(), "outer");
    {
      DMW_SPAN("inner", 7);
      EXPECT_STREQ(tracer.active_span(), "inner");
    }
    EXPECT_STREQ(tracer.active_span(), "outer");
  }
  EXPECT_EQ(tracer.active_span(), nullptr);

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // Inner completes (and is buffered) first; depths record the nesting.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].id, 7u);
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].id, kNoId);
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_LE(events[0].begin_ns, events[0].end_ns);
  EXPECT_LE(events[1].begin_ns, events[0].begin_ns);
  EXPECT_EQ(tracer.events_dropped(), 0u);
}

TEST_F(Trace, AggregateSpansByNameSorted) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  { DMW_SPAN("b/two"); }
  { DMW_SPAN("a/one"); }
  { DMW_SPAN("b/two", 3); }
  const auto aggregates = tracer.aggregate_spans();
  ASSERT_EQ(aggregates.size(), 2u);
  EXPECT_EQ(aggregates[0].name, "a/one");
  EXPECT_EQ(aggregates[0].count, 1u);
  EXPECT_EQ(aggregates[1].name, "b/two");
  EXPECT_EQ(aggregates[1].count, 2u);
}

TEST_F(Trace, LogicalClockTicksOnlyOnDemand) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  tracer.set_clock_mode(ClockMode::kLogical);
  tracer.reset();
  EXPECT_EQ(tracer.now_ns(), 0);
  {
    DMW_SPAN("round");
    tracer.tick();
    tracer.tick();
  }
  EXPECT_EQ(tracer.now_ns(), 2);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].begin_ns, 0);
  EXPECT_EQ(events[0].end_ns, 2);
}

TEST_F(Trace, DisabledTracingRecordsNothing) {
  auto& tracer = Tracer::instance();
  ASSERT_FALSE(on());
  {
    DMW_SPAN("ghost");
    EXPECT_EQ(tracer.active_span(), nullptr);
  }
  DMW_COUNT("ghost/counter", 3);
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(counter_value(counters_snapshot(), "ghost/counter"), 0u);
}

TEST_F(Trace, MetricsRegistryCountersGaugesHistograms) {
  Counter& hits = counter("test/hits");
  hits.add(2);
  hits.add();
  EXPECT_EQ(hits.value(), 3u);
  EXPECT_EQ(&hits, &counter("test/hits"));  // stable reference

  gauge("test/level").set(-4);
  EXPECT_EQ(gauge("test/level").value(), -4);

  Histogram& hist = histogram("test/sizes");
  hist.observe(0);
  hist.observe(1);
  hist.observe(5);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.sum(), 6u);
  const auto buckets = hist.buckets();
  // bucket b = bit_width(v): 0 -> 0, 1 -> 1, 5 -> 3.
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], (std::pair<unsigned, std::uint64_t>{0u, 1u}));
  EXPECT_EQ(buckets[1], (std::pair<unsigned, std::uint64_t>{1u, 1u}));
  EXPECT_EQ(buckets[2], (std::pair<unsigned, std::uint64_t>{3u, 1u}));

  // reset() zeroes values but keeps the entries (cached refs stay valid).
  Tracer::instance().reset();
  EXPECT_EQ(hits.value(), 0u);
  EXPECT_EQ(hist.count(), 0u);
  hits.add(1);
  EXPECT_EQ(counter_value(counters_snapshot(), "test/hits"), 1u);
}

// The exact RunReport schema, as a golden string. A formatting or
// field-order change here is a schema change: bump schema_version and
// update docs/tracing.md and tools/check_bench_regression.py with it.
TEST_F(Trace, RunReportGoldenSchema) {
  RunReport report;
  report.label = "golden";
  report.n = 3;
  report.m = 2;
  report.c = 1;
  report.rounds = 7;
  RunReport::PhaseRow row;
  row.name = "bidding";
  row.wall_ns = 1500;
  row.ops.mul = 4;
  row.ops.pow = 3;
  row.ops.inv = 2;
  row.ops.add = 1;
  row.unicasts = 12;
  row.broadcasts = 3;
  row.p2p_messages = 18;
  row.p2p_bytes = 2048;
  report.phases.push_back(row);
  RunReport::CommRow comm_row;
  comm_row.phase = "bidding";
  comm_row.round = 1;
  comm_row.kind = "shares";
  comm_row.sender = 2;
  comm_row.messages = 4;
  comm_row.wire_bytes = 192;
  comm_row.p2p_messages = 4;
  comm_row.p2p_bytes = 192;
  report.comm.push_back(comm_row);
  SpanAggregate span;
  span.name = "phase3/lambda_psi";
  span.count = 2;
  span.total_ns = 10;
  span.ops.pow = 6;
  report.spans.push_back(span);
  report.counters = {{"batchverify/batches", 2}};
  report.gauges = {{"net/bulletin_postings", 40}};
  HistogramSnapshot hist;
  hist.name = "net/round_p2p_messages";
  hist.count = 2;
  hist.sum = 3;
  hist.buckets = {{1u, 1u}, {2u, 1u}};
  report.histograms.push_back(hist);

  const std::string expected =
      R"({"report":"dmw-run","bench":"runreport","schema_version":2,)"
      R"("label":"golden","n":3,"m":2,"c":1,"aborted":false,)"
      R"("abort_reason":"","rounds":7,"phases":[{"phase":"bidding",)"
      R"("wall_ns":1500,"ops":{"mul":4,"pow":3,"inv":2,"add":1,"total":10},)"
      R"("unicasts":12,"broadcasts":3,"p2p_messages":18,"p2p_bytes":2048}],)"
      R"("comm_report":[{"phase":"bidding","round":1,"kind":"shares",)"
      R"("sender":2,"messages":4,"wire_bytes":192,"p2p_messages":4,)"
      R"("p2p_bytes":192}],)"
      R"("spans":[{"name":"phase3/lambda_psi","count":2,"total_ns":10,)"
      R"("ops":{"mul":0,"pow":6,"inv":0,"add":0,"total":6}}],)"
      R"("metrics":{"counters":{"batchverify/batches":2},)"
      R"("gauges":{"net/bulletin_postings":40},)"
      R"("histograms":[{"name":"net/round_p2p_messages","count":2,"sum":3,)"
      R"("buckets":[{"pow2":1,"count":1},{"pow2":2,"count":1}]}]},)"
      R"("events_dropped":0})";
  EXPECT_EQ(report.json(), expected);
}

// The Chrome exporter's schema, pinned the same way (one driver-thread span
// under the logical clock, so every field is deterministic).
TEST_F(Trace, ChromeTraceGoldenSchema) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  tracer.set_clock_mode(ClockMode::kLogical);
  tracer.reset();
  {
    DMW_SPAN("alpha", 3);
    tracer.tick();
  }
  const std::string expected =
      R"({"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0,)"
      R"("args":{"name":"driver"}},{"name":"alpha","cat":"dmw","ph":"X",)"
      R"("ts":0,"dur":0,"pid":1,"tid":0,"args":{"id":3,"depth":0,)"
      R"("begin_ns":0,"end_ns":1,)"
      R"("ops":{"mul":0,"pow":0,"inv":0,"add":0,"total":0}}}],)"
      R"("displayTimeUnit":"ms"})";
  EXPECT_EQ(tracer.chrome_trace_json(), expected);
}

TEST_F(Trace, RunReportBitIdenticalAcrossThreadCountsAndEngines) {
  auto params = proto::PublicParams<Group64>::make(grp(), 8, 3, 2, 77);
  params.set_tracing(true);
  Xoshiro256ss rng(78);
  const auto instance =
      mech::make_uniform_instance(8, 3, params.bid_set(), rng);
  auto& tracer = Tracer::instance();

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    tracer.set_clock_mode(ClockMode::kLogical);
    tracer.reset();
    const auto outcome = proto::run_parallel_dmw(params, instance, threads);
    tracer.set_enabled(false);
    ASSERT_FALSE(outcome.aborted) << "threads=" << threads;
    const std::string json = proto::make_run_report(params, outcome).json();
    if (reference.empty()) reference = json;
    EXPECT_EQ(json, reference) << "threads=" << threads;
  }

  // The inline executor reproduces the identical report: the spans and
  // metrics are a property of the protocol, not of the executor.
  tracer.set_clock_mode(ClockMode::kLogical);
  tracer.reset();
  const auto outcome = proto::run_honest_dmw(params, instance);
  tracer.set_enabled(false);
  ASSERT_FALSE(outcome.aborted);
  EXPECT_EQ(proto::make_run_report(params, outcome).json(), reference);
}

TEST_F(Trace, HonestRunMetricInvariants) {
  auto params = proto::PublicParams<Group64>::make(grp(), 6, 2, 1, 50);
  params.set_tracing(true);
  Xoshiro256ss rng(51);
  const auto instance =
      mech::make_uniform_instance(6, 2, params.bid_set(), rng);
  Tracer::instance().reset();
  const auto outcome = proto::run_honest_dmw(params, instance);
  Tracer::instance().set_enabled(false);
  ASSERT_FALSE(outcome.aborted);
  const auto report = proto::make_run_report(params, outcome);

  // The invariants tools/check_bench_regression.py gates in CI.
  EXPECT_GT(counter_value(report.counters, "batchverify/batches"), 0u);
  EXPECT_GT(counter_value(report.counters, "batchverify/checks_batched"), 0u);
  EXPECT_GT(counter_value(report.counters, "expwin/fixedbase_evals"), 0u);
  EXPECT_EQ(counter_value(report.counters, "batchverify/replays"), 0u);
  for (const auto& [name, value] : report.counters)
    EXPECT_FALSE(name.starts_with("aborts/")) << name << "=" << value;
  EXPECT_EQ(report.events_dropped, 0u);

  // The network observes the traffic histograms exactly once per round.
  const auto hist = std::find_if(
      report.histograms.begin(), report.histograms.end(),
      [](const HistogramSnapshot& h) {
        return h.name == "net/round_p2p_messages";
      });
  ASSERT_NE(hist, report.histograms.end());
  EXPECT_EQ(hist->count, outcome.rounds);

  // The span table covers the Phase III price resolution of the paper.
  const bool has_resolution = std::any_of(
      report.spans.begin(), report.spans.end(), [](const SpanAggregate& s) {
        return s.name == "phase3/price_resolution";
      });
  EXPECT_TRUE(has_resolution);
}

TEST_F(Trace, DeviantRunCountsReplaysAndAborts) {
  auto params = proto::PublicParams<Group64>::make(grp(), 6, 2, 1, 52);
  params.set_tracing(true);
  Xoshiro256ss rng(53);
  const auto instance =
      mech::make_uniform_instance(6, 2, params.bid_set(), rng);
  Tracer::instance().reset();

  proto::HonestStrategy<Group64> honest;
  proto::InconsistentCommitmentsStrategy<Group64> deviant;
  std::vector<proto::Strategy<Group64>*> strategies(6, &honest);
  strategies[0] = &deviant;
  proto::ProtocolRunner<Group64> runner(params, instance, strategies);
  const auto outcome = runner.run();
  Tracer::instance().set_enabled(false);
  ASSERT_TRUE(outcome.aborted);
  ASSERT_TRUE(outcome.abort_record.has_value());
  EXPECT_EQ(outcome.abort_record->reason,
            proto::AbortReason::kBadShareCommitment);

  // The failed batch was replayed sequentially for attribution, and the
  // abort shows up both in the total and under its reason.
  const auto counters = counters_snapshot();
  EXPECT_GE(counter_value(counters, "batchverify/replays"), 1u);
  EXPECT_GE(counter_value(counters, "aborts/total"), 1u);
  const std::string by_reason =
      std::string("aborts/") +
      proto::to_string(proto::AbortReason::kBadShareCommitment);
  EXPECT_GE(counter_value(counters, by_reason), 1u);
}

// Overhead contract: with tracing off (the default), instrumented code pays
// one relaxed load + branch per span. A full honest run with tracing off
// must not be slower than the same run with tracing on (plus generous noise
// margin) — if it were, the off path would be doing real work.
TEST_F(Trace, TracingOffOverheadSoak) {
  const std::size_t n = 8, m = 3;
  auto params = proto::PublicParams<Group64>::make(grp(), n, m, 2, 91);
  Xoshiro256ss rng(92);
  const auto instance =
      mech::make_uniform_instance(n, m, params.bid_set(), rng);

  const auto median_of_5 = [&]() {
    std::vector<double> seconds;
    for (int i = 0; i < 5; ++i) {
      if (on()) Tracer::instance().reset();
      Stopwatch stopwatch;
      const auto outcome = proto::run_honest_dmw(params, instance);
      seconds.push_back(stopwatch.seconds());
      EXPECT_FALSE(outcome.aborted);
    }
    std::sort(seconds.begin(), seconds.end());
    return seconds[2];
  };

  const double off_s = median_of_5();
  params.set_tracing(true);
  Tracer::instance().reset();
  const double on_s = median_of_5();
  Tracer::instance().set_enabled(false);

  EXPECT_LE(off_s, on_s * 1.25 + 0.05)
      << "tracing-off run slower than tracing-on: off=" << off_s
      << "s on=" << on_s << "s";
}

}  // namespace
}  // namespace dmw::trace
