#include "spans.h"

#include <cstdio>

#include "common/json.h"

namespace perfbench {

int SpanRecorder::Begin(const char* name, double now) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = now;
  span.end = now;
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id, double now) {
  // Spans close innermost first; closing an outer span closes any inner
  // one left open, so the tree stays nested.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    spans_[top].end = now;
    if (top == id) break;
  }
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end - span.start;
    }
  }
  return self;
}

std::string CheckSpanTree(const std::vector<Span>& spans) {
  std::vector<double> child_sum(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    char buf[256];
    if (span.end < span.start) {
      std::snprintf(buf, sizeof buf, "span %zu (%s) ends before it starts", i,
                    span.name);
      return buf;
    }
    if (span.parent < 0) continue;
    if (static_cast<size_t>(span.parent) >= i) {
      std::snprintf(buf, sizeof buf, "span %zu (%s) precedes its parent", i,
                    span.name);
      return buf;
    }
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    if (span.start < parent.start || span.end > parent.end) {
      std::snprintf(buf, sizeof buf,
                    "span %zu (%s) lies outside its parent %d (%s)", i,
                    span.name, span.parent, parent.name);
      return buf;
    }
    child_sum[static_cast<size_t>(span.parent)] += span.end - span.start;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end - spans[i].start;
    // Children are disjoint sub-intervals, so they can only exceed the
    // parent through rounding of the summed doubles.
    if (child_sum[i] > duration * (1 + 1e-9) + 1e-12) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "children of span %zu (%s) sum to %.9g s > its %.9g s", i,
                    spans[i].name, child_sum[i], duration);
      return buf;
    }
  }
  return "";
}

std::string SpansToJson(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  hivesim::JsonWriter json;
  json.BeginObject();
  json.Key("spans").BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    json.BeginObject();
    json.Key("id").Int(static_cast<int64_t>(i));
    json.Key("parent").Int(spans[i].parent);
    json.Key("name").String(spans[i].name);
    json.Key("start_us").Number((spans[i].start - origin) * 1e6);
    json.Key("dur_us").Number((spans[i].end - spans[i].start) * 1e6);
    json.Key("self_us").Number(self[i] * 1e6);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.ToString();
}

}  // namespace perfbench
