#ifndef HIVESIM_COMMON_LOGGING_H_
#define HIVESIM_COMMON_LOGGING_H_

#include <iostream>
#include <sstream>
#include <string>

namespace hivesim {

/// Log severities, ascending.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Returns the process-wide minimum level; messages below it are dropped.
/// It is kWarning, so library code stays quiet in tests and benches.
LogLevel GetLogLevel();

/// Optional thread-local simulation-clock hook. While a source is
/// registered, every HIVESIM_LOG line on that thread is prefixed with the
/// current simulated time ("t=123.456s"), so interleaved trainer/chaos
/// logs can be correlated with trace spans. `sim::Simulator` registers
/// itself on construction; sources nest LIFO and `ctx` identifies the
/// registration to remove (common/ cannot depend on sim/, hence the
/// function-pointer indirection).
using SimTimeFn = double (*)(const void* ctx);
void PushSimTimeSource(SimTimeFn fn, const void* ctx);
void PopSimTimeSource(const void* ctx);
/// Stores the innermost source's current time in `*out`; false when no
/// source is registered on this thread.
bool CurrentSimTime(double* out);

namespace internal_logging {

/// Stream-style log sink; flushes one line to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

#define HIVESIM_LOG(level)                                     \
  ::hivesim::internal_logging::LogMessage(                     \
      ::hivesim::LogLevel::k##level, __FILE__, __LINE__)

}  // namespace hivesim

#endif  // HIVESIM_COMMON_LOGGING_H_
