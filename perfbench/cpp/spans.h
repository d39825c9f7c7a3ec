#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/host_clock.h"

namespace perfbench {

/// One timed interval of the traced run: a call into a layer, or a
/// grouping (workload, repetition, world, slice) that contains such calls.
/// `name` must have static storage (span names are string literals).
struct Span {
  const char* name = "";
  int parent = -1;  ///< Index of the enclosing span; -1 for a root.
  double start = 0;  ///< Host seconds (HostClock epoch).
  double end = 0;
};

/// In-memory span tree. Spans open and close in LIFO order; each new span's
/// parent is the innermost open one. Nothing is written until the caller
/// asks for the JSON at exit, so tracing costs two clock reads and one
/// vector append per span.
class SpanRecorder {
 public:
  int Begin(const char* name, double now);
  void End(int id, double now);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times `fn` and returns its host seconds; also records it as a span when
/// `spans` is non-null. Used where the untraced run needs the time too
/// (steps, set-up).
template <typename Fn>
double Timed(SpanRecorder* spans, const char* name, Fn&& fn) {
  const double start = hivesim::HostClock::Seconds();
  const int id = spans != nullptr ? spans->Begin(name, start) : -1;
  std::forward<Fn>(fn)();
  const double end = hivesim::HostClock::Seconds();
  if (spans != nullptr) spans->End(id, end);
  return end - start;
}

/// Records `fn` as a span when tracing; runs it untimed otherwise, so the
/// untraced run pays nothing for per-call spans.
template <typename Fn>
void Traced(SpanRecorder* spans, const char* name, Fn&& fn) {
  if (spans == nullptr) {
    std::forward<Fn>(fn)();
    return;
  }
  Timed(spans, name, std::forward<Fn>(fn));
}

/// Self time of every span: its duration minus the part its children
/// cover (children never overlap one another, since spans nest).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Empty when the tree is well formed: every span ends after it starts,
/// lies within its parent, and its children's durations do not exceed its
/// own. Otherwise a description of the first violation.
std::string CheckSpanTree(const std::vector<Span>& spans);

/// The spans as JSON: {"spans": [{"id", "parent", "name", "start_us",
/// "dur_us", "self_us"}, ...]} with times relative to the first span.
std::string SpansToJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
