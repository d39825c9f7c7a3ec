#include "common/logging.h"

#include <cstdio>
#include <cstring>
#include <vector>

namespace hivesim {

namespace {
constexpr LogLevel kMinLevel = LogLevel::kWarning;

struct SimTimeSource {
  SimTimeFn fn;
  const void* ctx;
};
thread_local std::vector<SimTimeSource> g_sim_time_sources;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}
}  // namespace

LogLevel GetLogLevel() { return kMinLevel; }

void PushSimTimeSource(SimTimeFn fn, const void* ctx) {
  g_sim_time_sources.push_back({fn, ctx});
}

void PopSimTimeSource(const void* ctx) {
  auto& sources = g_sim_time_sources;
  for (auto it = sources.rbegin(); it != sources.rend(); ++it) {
    if (it->ctx == ctx) {
      sources.erase(std::next(it).base());
      return;
    }
  }
}

bool CurrentSimTime(double* out) {
  if (g_sim_time_sources.empty()) return false;
  const SimTimeSource& source = g_sim_time_sources.back();
  *out = source.fn(source.ctx);
  return true;
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= GetLogLevel()) {
  if (enabled_) {
    stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line;
    double sim_time = 0;
    if (CurrentSimTime(&sim_time)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " t=%.3fs", sim_time);
      stream_ << buf;
    }
    stream_ << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    stream_ << "\n";
    std::cerr << stream_.str();
  }
}

}  // namespace internal_logging

}  // namespace hivesim
