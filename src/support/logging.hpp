// Minimal leveled logger.
//
// The protocol simulator is chatty at Debug level (per-message traces); tests
// and benches run at Warn. The logger is a process-wide singleton with a
// swappable sink so tests can capture output.
#pragma once

#include <atomic>
#include <functional>
#include <sstream>
#include <string>

#include "support/annotations.hpp"

namespace dmw {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

const char* to_string(LogLevel level);

/// Process-wide logger. Thread-safe: ThreadPool workers (dmw/protocol.hpp)
/// log concurrently, so the level gate is an atomic and sink swap + emission
/// are serialized by a mutex — concurrent statements never interleave
/// within a line and never race a set_sink(). Sinks must not log
/// re-entrantly (they run under the emission lock). The default sink
/// prefixes each line with the tracer's run-relative clock and, when
/// tracing, the calling thread's active span (support/trace.hpp).
class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static Logger& instance();

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  bool enabled(LogLevel level) const { return level >= this->level(); }

  /// Replace the output sink; returns the previous one.
  Sink set_sink(Sink sink);

  void log(LogLevel level, const std::string& message);

 private:
  Logger();
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  Mutex mutex_;  ///< guards sink_ (swap and every emission)
  Sink sink_ DMW_GUARDED_BY(mutex_);
};

namespace detail {
/// Stream-style log statement builder; emits on destruction.
class LogStatement {
 public:
  explicit LogStatement(LogLevel level) : level_(level) {}
  ~LogStatement() { Logger::instance().log(level_, stream_.str()); }
  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;

  template <class T>
  LogStatement& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace dmw

#define DMW_LOG(level)                                   \
  if (!::dmw::Logger::instance().enabled(level)) {       \
  } else                                                 \
    ::dmw::detail::LogStatement(level)

#define DMW_TRACE() DMW_LOG(::dmw::LogLevel::kTrace)
#define DMW_DEBUG() DMW_LOG(::dmw::LogLevel::kDebug)
#define DMW_INFO() DMW_LOG(::dmw::LogLevel::kInfo)
#define DMW_WARN() DMW_LOG(::dmw::LogLevel::kWarn)
#define DMW_ERROR() DMW_LOG(::dmw::LogLevel::kError)
