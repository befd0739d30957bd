// Support utilities: checks, RNG, statistics, hex, logging, stopwatch.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/check.hpp"
#include "support/hex.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dmw {
namespace {

TEST(Check, ThrowsWithExpressionAndMessage) {
  try {
    DMW_CHECK_MSG(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Check, PassingConditionIsSilent) {
  EXPECT_NO_THROW(DMW_CHECK(2 + 2 == 4));
  EXPECT_NO_THROW(DMW_REQUIRE_MSG(true, "fine"));
}

TEST(Rng, SplitMix64KnownSequence) {
  // Reference values for seed 0 (widely published SplitMix64 outputs).
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Rng, XoshiroDeterministic) {
  Xoshiro256ss a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256ss a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowBoundsAndCoverage) {
  Xoshiro256ss rng(7);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 10000; ++i) ++histogram[rng.below(10)];
  for (int h : histogram) {
    EXPECT_GT(h, 800);
    EXPECT_LT(h, 1200);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Xoshiro256ss rng(8);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
  Xoshiro256ss rng(8);
  EXPECT_THROW(rng.below(0), CheckError);
}

TEST(Rng, BetweenInclusive) {
  Xoshiro256ss rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval) {
  Xoshiro256ss rng(10);
  Summary s;
  for (int i = 0; i < 10000; ++i) {
    const double r = rng.real();
    ASSERT_GE(r, 0.0);
    ASSERT_LT(r, 1.0);
    s.add(r);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256ss a(11);
  Xoshiro256ss child = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == child.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, DeterministicShuffleIsPermutationAndStable) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  Xoshiro256ss r1(5), r2(5);
  auto v1 = v, v2 = v;
  deterministic_shuffle(v1, r1);
  deterministic_shuffle(v2, r2);
  EXPECT_EQ(v1, v2);
  std::sort(v1.begin(), v1.end());
  EXPECT_EQ(v1, v);
}

TEST(Stats, SummaryMatchesClosedForm) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.total(), 40.0);
}

TEST(Stats, LineFitExact) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};  // y = 2x + 1
  const auto fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, PowerLawRecoversExponent) {
  std::vector<double> x, y;
  for (double v : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    x.push_back(v);
    y.push_back(3.0 * v * v * std::sqrt(v));  // exponent 2.5
  }
  const auto fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Stats, PowerLawRejectsNonPositive) {
  const std::vector<double> x{1, 2}, y{0, 3};
  EXPECT_THROW(fit_power_law(x, y), CheckError);
}

TEST(Stats, Percentiles) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_THROW(percentile({}, 50), CheckError);
}

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data{0x00, 0xff, 0x12, 0xab};
  EXPECT_EQ(to_hex(data), "00ff12ab");
  EXPECT_EQ(from_hex("00ff12ab"), data);
  EXPECT_EQ(from_hex("00FF12AB"), data);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), CheckError);   // odd length
  EXPECT_THROW(from_hex("zz"), CheckError);    // bad digit
}

TEST(Logging, LevelGatingAndCapture) {
  auto& logger = Logger::instance();
  const auto old_level = logger.level();
  std::vector<std::string> captured;
  auto old_sink = logger.set_sink(
      [&](LogLevel, const std::string& message) { captured.push_back(message); });
  logger.set_level(LogLevel::kInfo);
  DMW_DEBUG() << "hidden";
  DMW_INFO() << "visible " << 42;
  DMW_ERROR() << "also visible";
  logger.set_sink(old_sink);
  logger.set_level(old_level);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "visible 42");
  EXPECT_EQ(captured[1], "also visible");
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(to_string(LogLevel::kWarn), "WARN");
  EXPECT_STREQ(to_string(LogLevel::kTrace), "TRACE");
}

TEST(Logging, ConcurrentStatementsDoNotInterleave) {
  // ThreadPool workers log concurrently (dmw/protocol.hpp does exactly
  // this); every emitted line must arrive at the sink whole, and a
  // concurrent set_level() must not tear. The sink runs under the logger's
  // emission mutex, so the capture vector needs no lock of its own.
  auto& logger = Logger::instance();
  const auto old_level = logger.level();
  std::vector<std::string> captured;
  auto old_sink = logger.set_sink(
      [&](LogLevel, const std::string& message) { captured.push_back(message); });
  logger.set_level(LogLevel::kInfo);

  constexpr std::size_t kMessages = 200;
  ThreadPool pool(4);
  pool.parallel_for(kMessages, [&](std::size_t i) {
    // Both levels pass the kInfo gate, so the message count stays exact
    // while the level atomic is hammered from every worker.
    logger.set_level(i % 2 == 0 ? LogLevel::kInfo : LogLevel::kDebug);
    DMW_INFO() << "worker message " << i << " part " << i * 3 << " end";
  });

  logger.set_sink(old_sink);
  logger.set_level(old_level);
  ASSERT_EQ(captured.size(), kMessages);
  std::vector<bool> seen(kMessages, false);
  for (const auto& message : captured) {
    bool matched = false;
    for (std::size_t i = 0; i < kMessages && !matched; ++i) {
      std::ostringstream expected;
      expected << "worker message " << i << " part " << i * 3 << " end";
      if (message == expected.str()) {
        EXPECT_FALSE(seen[i]) << "duplicate: " << message;
        seen[i] = true;
        matched = true;
      }
    }
    EXPECT_TRUE(matched) << "torn or interleaved line: " << message;
  }
}

TEST(Logging, StampComesFromTracerClock) {
  // The default sink prefixes lines with trace::log_stamp(): run-relative
  // "+<seconds>s" on the real clock, "t<tick>" on the logical clock, plus
  // the active span name while tracing.
  auto& tracer = trace::Tracer::instance();
  tracer.set_enabled(false);
  tracer.set_clock_mode(trace::ClockMode::kReal);
  const std::string real = trace::log_stamp();
  ASSERT_FALSE(real.empty());
  EXPECT_EQ(real.front(), '+');
  EXPECT_EQ(real.back(), 's');

  tracer.set_clock_mode(trace::ClockMode::kLogical);
  tracer.reset();
  tracer.set_enabled(true);
  {
    DMW_SPAN("support/log_stamp");
    EXPECT_EQ(trace::log_stamp(), "t0 support/log_stamp");
  }
  tracer.set_enabled(false);
  tracer.set_clock_mode(trace::ClockMode::kReal);
  tracer.reset();
}

TEST(Stopwatch, MeasuresMonotonically) {
  Stopwatch sw;
  const double t1 = sw.seconds();
  const double t2 = sw.seconds();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0.0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

}  // namespace
}  // namespace dmw
