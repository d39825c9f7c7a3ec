#include "telemetry/telemetry.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <fstream>

#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_annotations.h"

namespace hivesim::telemetry {

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

// --- TraceRecorder ---

int TraceRecorder::LaneId(std::string_view lane) {
  const auto it = lane_ids_.find(lane);
  if (it != lane_ids_.end()) return it->second;
  const int id = static_cast<int>(lanes_.size());
  lanes_.emplace_back(lane);
  lane_ids_.emplace(lanes_.back(), id);
  return id;
}

void TraceRecorder::Record(double ts_sec, double dur_sec, bool instant,
                           std::string_view lane, std::string_view name,
                           std::string_view args_json) {
  Event e;
  e.ts_sec = ts_sec;
  e.dur_sec = dur_sec;
  e.offset = arena_.size();
  e.name_len = static_cast<uint32_t>(name.size());
  e.args_len = static_cast<uint32_t>(args_json.size());
  e.lane = LaneId(lane);
  e.instant = instant;
  arena_ += name;
  arena_ += args_json;
  events_.push_back(e);
}

void TraceRecorder::Span(double start_sec, double end_sec,
                         std::string_view lane, std::string_view name,
                         std::string_view args_json) {
  Record(start_sec, end_sec > start_sec ? end_sec - start_sec : 0.0,
         /*instant=*/false, lane, name, args_json);
}

void TraceRecorder::Instant(double at_sec, std::string_view lane,
                            std::string_view name,
                            std::string_view args_json) {
  Record(at_sec, 0.0, /*instant=*/true, lane, name, args_json);
}

std::string TraceRecorder::ToChromeJson() const {
  std::string out;
  // Sized from measured lines: 134 bytes on average in the `hivesim
  // fleet` tour (tests/golden/fleet_bad_afternoon.trace.json), 143 over
  // the 400 worlds of `hivesim fuzz --seed 1` (the longest-lined world
  // there averages 157). One allocation then holds
  // the whole rendering; growing a short guess would briefly hold both
  // the old and the doubled buffer.
  out.reserve(128 + (lanes_.size() + events_.size()) * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"hivesim\"}}";
  for (size_t i = 0; i < lanes_.size(); ++i) {
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendInt(&out, static_cast<int64_t>(i + 1));
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendJsonEscaped(&out, lanes_[i]);
    out += "\"}}";
  }
  const std::string_view arena = arena_;
  for (const Event& e : events_) {
    // Chrome trace timestamps are microseconds (%.6f, picosecond
    // resolution); sim time is seconds.
    out += e.instant ? ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":"
                     : ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":";
    AppendInt(&out, e.lane + 1);
    out += ",\"ts\":";
    AppendFixed(&out, e.ts_sec * 1e6, 6);
    if (e.instant) {
      out += ",\"s\":\"t\"";
    } else {
      out += ",\"dur\":";
      AppendFixed(&out, e.dur_sec * 1e6, 6);
    }
    out += ",\"name\":\"";
    AppendJsonEscaped(&out, arena.substr(e.offset, e.name_len));
    out += '"';
    if (e.args_len != 0) {
      out += ",\"args\":";
      out += arena.substr(e.offset + e.name_len, e.args_len);
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool TraceRecorder::WriteChromeJson(const std::string& path) const {
  return WriteFile(path, ToChromeJson());
}

bool TraceRecorder::SameRecording(const TraceRecorder& other) const {
  if (lanes_ != other.lanes_ || arena_ != other.arena_ ||
      events_.size() != other.events_.size()) {
    return false;
  }
  // Bit patterns, not ==: -0.0 and 0.0 render differently, and a NaN
  // timestamp must still equal itself.
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  };
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& a = events_[i];
    const Event& b = other.events_[i];
    if (!same_bits(a.ts_sec, b.ts_sec) || !same_bits(a.dur_sec, b.dur_sec) ||
        a.offset != b.offset || a.name_len != b.name_len ||
        a.args_len != b.args_len || a.lane != b.lane ||
        a.instant != b.instant) {
      return false;
    }
  }
  return true;
}

void TraceRecorder::Clear() {
  lanes_.clear();
  lane_ids_.clear();
  events_.clear();
  arena_.clear();
}

// --- MetricsRegistry ---

namespace {
// Epochs are globally unique across all registries ever constructed, so a
// handle whose cached registry died and whose address was reused by a new
// registry (common with stack-allocated registries in tests and sweep
// cells) can never see a stale epoch match. Atomic because sweep workers
// construct per-cell registries concurrently.
uint64_t NextRegistryEpoch() {
  // Lock-free: a pure fetch_add ticket counter — uniqueness is the whole
  // contract, no other state is published, so relaxed ordering is enough.
  HIVESIM_ATOMIC_LOCK_FREE static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

MetricsRegistry::MetricsRegistry() : epoch_(NextRegistryEpoch()) {}

double* MetricsRegistry::CounterSlot(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return &it->second;
  return &counters_.emplace(std::string(name), 0.0).first->second;
}

void MetricsRegistry::Count(std::string_view name, double delta) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    const double before = it->second;
    it->second += delta;
    if (it->second == before && delta != 0) NoteCounterPrecisionLoss();
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

void MetricsRegistry::NoteCounterPrecisionLoss() {
  // Bumped directly (not via Count) so a saturated loss counter can
  // never recurse; '#' keeps the name out of the regular metric
  // namespace, mirroring the <name>#merge_conflicts idiom.
  const auto it = counters_.find(kPrecisionLossCounter);
  if (it != counters_.end()) {
    it->second += 1.0;
  } else {
    counters_.emplace(std::string(kPrecisionLossCounter), 1.0);
  }
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

void MetricsRegistry::DefineHistogram(std::string_view name,
                                      std::vector<double> bounds) {
  if (histograms_.find(name) != histograms_.end()) return;
  // The header contract requires ascending unique bounds; anything else
  // would misbin every observation ("first bound >= value" only means
  // the right bucket when bounds are sorted) and breaks the binary
  // search below. Fix the definition loudly instead of recording
  // garbage.
  if (!std::is_sorted(bounds.begin(), bounds.end()) ||
      std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
    const size_t given = bounds.size();
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    HIVESIM_LOG(Warning)
        << "histogram '" << std::string(name)
        << "' declared with unsorted or duplicate bounds; sorted to "
        << bounds.size() << " unique bounds (" << given << " given)";
  }
  Histogram h;
  h.bounds = std::move(bounds);
  h.counts.assign(h.bounds.size() + 1, 0);
  histograms_.emplace(std::string(name), std::move(h));
}

void MetricsRegistry::Observe(std::string_view name, double value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    DefineHistogram(name, {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
    it = histograms_.find(name);
  }
  Histogram& h = it->second;
  // First bound >= value, located by binary search (bounds are sorted by
  // construction); everything past the last bound — including NaN, which
  // compares false against every bound — lands in the overflow bucket.
  size_t bucket = h.bounds.size();
  if (!std::isnan(value)) {
    bucket = static_cast<size_t>(
        std::lower_bound(h.bounds.begin(), h.bounds.end(), value) -
        h.bounds.begin());
  }
  ++h.counts[bucket];
  h.sum += value;
  ++h.total;
}

double MetricsRegistry::CounterValue(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0.0;
}

double MetricsRegistry::GaugeOr(std::string_view name, double fallback) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : fallback;
}

uint64_t MetricsRegistry::HistogramCount(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.total : 0;
}

Result<double> MetricsRegistry::HistogramPercentile(std::string_view name,
                                                    double q) const {
  if (!(q >= 0.0 && q <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("quantile must be in [0,1], got %g", q));
  }
  const auto it = histograms_.find(name);
  if (it == histograms_.end() || it->second.total == 0) {
    return Status::FailedPrecondition(
        StrCat("histogram '", std::string(name), "' is empty"));
  }
  const Histogram& h = it->second;
  if (h.bounds.empty()) {
    return Status::FailedPrecondition(
        StrCat("histogram '", std::string(name), "' has no finite buckets"));
  }
  const double target_rank = q * static_cast<double>(h.total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < h.bounds.size(); ++i) {
    const uint64_t in_bucket = h.counts[i];
    if (static_cast<double>(cumulative + in_bucket) >= target_rank &&
        in_bucket > 0) {
      // Observations are assumed uniform inside the bucket; the first
      // bucket's lower edge is min(0, bound) so non-negative series
      // interpolate from zero.
      const double lower = i == 0 ? std::min(0.0, h.bounds[0]) : h.bounds[i - 1];
      const double upper = h.bounds[i];
      const double into_bucket =
          target_rank - static_cast<double>(cumulative);
      const double fraction =
          std::min(1.0, std::max(0.0, into_bucket /
                                          static_cast<double>(in_bucket)));
      return lower + fraction * (upper - lower);
    }
    cumulative += in_bucket;
  }
  // Rank lands in the +inf overflow bucket: the estimate clamps to the
  // last finite bound (matching Prometheus' histogram_quantile).
  return h.bounds.back();
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("counters").BeginObject();
  for (const auto& [name, value] : counters_) {
    json.Key(name).Number(value);
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges_) {
    json.Key(name).Number(value);
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    json.Key(name).BeginObject();
    json.Key("count").Int(static_cast<int64_t>(h.total));
    json.Key("sum").Number(h.sum);
    json.Key("buckets").BeginArray();
    for (size_t i = 0; i < h.counts.size(); ++i) {
      json.BeginObject();
      json.Key("le");
      if (i < h.bounds.size()) {
        json.Number(h.bounds[i]);
      } else {
        json.String("inf");
      }
      json.Key("count").Int(static_cast<int64_t>(h.counts[i]));
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.ToString();
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson() + "\n");
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    Count(name, value);
  }
  for (const auto& [name, value] : other.gauges_) {
    const auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      gauges_.emplace(name, value);
    } else if (value > it->second) {
      it->second = value;
    }
  }
  for (const auto& [name, theirs] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, theirs);
      continue;
    }
    Histogram& ours = it->second;
    if (ours.bounds != theirs.bounds) {
      Count(name + "#merge_conflicts", static_cast<double>(theirs.total));
      continue;
    }
    for (size_t i = 0; i < ours.counts.size(); ++i) {
      ours.counts[i] += theirs.counts[i];
    }
    ours.sum += theirs.sum;
    ours.total += theirs.total;
  }
}

void CounterHandle::Rebind(MetricsRegistry& registry) {
  registry_ = &registry;
  epoch_ = registry.epoch();
  slot_ = registry.CounterSlot(name_);
}

std::string LabeledName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(base);
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += '=';
    out += value;
  }
  out += '}';
  return out;
}

// --- Telemetry ---

TraceRecorder& Telemetry::global_trace() {
  static TraceRecorder recorder;
  return recorder;
}

MetricsRegistry& Telemetry::global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

Telemetry::ScopedSinks::ScopedSinks(TraceRecorder* trace,
                                    MetricsRegistry* metrics)
    : prev_trace_(tls_trace_),
      prev_metrics_(tls_metrics_),
      prev_active_(tls_active_) {
  tls_trace_ = trace;
  tls_metrics_ = metrics;
  tls_active_ = true;
}

Telemetry::ScopedSinks::~ScopedSinks() {
  tls_trace_ = prev_trace_;
  tls_metrics_ = prev_metrics_;
  tls_active_ = prev_active_;
}

}  // namespace hivesim::telemetry
