// Wall-clock stopwatch and the warm-up + min-of-windows timer for the
// experiment harness.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>

namespace dmw {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }
  double micros() const { return seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// ns per call of `fn`: one warm-up call (builds any lazy state, touches
/// caches), then a batch calibrated to windows of at least `window_s`, then
/// the fastest of five windows. The minimum is the least-interfered
/// measurement of deterministic code — on shared hosts the machine speed
/// drifts on sub-second timescales, and a single mean window hands each
/// metric a different slice of that drift, distorting every derived ratio.
inline double bench_ns(const std::function<void()>& fn, double window_s) {
  fn();
  std::size_t iters = 1;
  double window = 0;
  for (;;) {
    Stopwatch timer;
    for (std::size_t i = 0; i < iters; ++i) fn();
    window = timer.seconds();
    if (window >= window_s || iters >= (std::size_t(1) << 30)) break;
    // Aim past the threshold with headroom; cap growth at 16x per round.
    const double scale = window > 0 ? window_s / window * 1.5 : 16.0;
    iters *= static_cast<std::size_t>(std::min(16.0, std::max(2.0, scale)));
  }
  for (int extra = 0; extra < 4; ++extra) {
    Stopwatch timer;
    for (std::size_t i = 0; i < iters; ++i) fn();
    window = std::min(window, timer.seconds());
  }
  return window * 1e9 / static_cast<double>(iters);
}

}  // namespace dmw
