#ifndef HIVESIM_TELEMETRY_TELEMETRY_H_
#define HIVESIM_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"

namespace hivesim::telemetry {

/// Records named spans and instant events stamped with *simulation* time
/// (never wall clock, so two identically seeded runs produce byte-identical
/// traces). Every event lives on a "lane" — rendered as one thread row per
/// peer/subsystem when the trace is opened in Perfetto/chrome://tracing.
///
/// Callers pass timestamps explicitly (`Simulator::Now()`); the recorder
/// itself has no clock and no dependencies beyond hivesim_common, which is
/// what lets the simulator kernel itself be instrumented without a cycle.
///
/// Storage: each event is one fixed-size record (timestamps, lane, kind,
/// and where its bytes sit), and every event's name and args bytes are
/// appended to one byte arena. Recording copies into two buffers that
/// only grow, so once they hold a run's worth a span allocates nothing.
/// Nothing is rendered until `ToChromeJson`, a pure function of the
/// recorded state; `SameRecording` compares that state directly.
class TraceRecorder {
 public:
  /// A completed span [start_sec, end_sec] on `lane`. `args_json`, when
  /// non-empty, must be a compact JSON object ("{\"bytes\":42}") and is
  /// embedded verbatim as the event's args.
  void Span(double start_sec, double end_sec, std::string_view lane,
            std::string_view name, std::string_view args_json = {});

  /// An instant event at `at_sec` on `lane` (faults, cancellations, ...).
  void Instant(double at_sec, std::string_view lane, std::string_view name,
               std::string_view args_json = {});

  /// The trace as Chrome `trace_event` JSON: load the file in
  /// https://ui.perfetto.dev or chrome://tracing. One metadata-named
  /// thread per lane; timestamps in microseconds of simulation time.
  std::string ToChromeJson() const;

  /// Writes `ToChromeJson()` to a file; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

  /// True when both recorders hold the same recording: the same lanes in
  /// the same first-use order, the same arena bytes, and the same events,
  /// field by field, with timestamps and durations compared bit for bit.
  /// `ToChromeJson` reads nothing else, so equal recordings render equal
  /// bytes; this is at least as strict as comparing the renderings.
  bool SameRecording(const TraceRecorder& other) const;

  size_t size() const { return events_.size(); }
  const std::vector<std::string>& lanes() const { return lanes_; }
  /// Empties the recorder, lanes included. The event list and the arena
  /// keep their capacity, so a recorder refilled to at most its previous
  /// size records without allocating (lanes excepted).
  void Clear();

 private:
  struct Event {
    double ts_sec = 0;
    double dur_sec = 0;  ///< 0 for instants.
    size_t offset = 0;   ///< Name bytes at arena_[offset], args after them.
    uint32_t name_len = 0;
    uint32_t args_len = 0;
    int lane = 0;  ///< Index into lanes_.
    bool instant = false;
  };

  void Record(double ts_sec, double dur_sec, bool instant,
              std::string_view lane, std::string_view name,
              std::string_view args_json);
  int LaneId(std::string_view lane);

  // Transparent hashing lets `LaneId` look a lane up by string_view
  // without building a std::string per recorded event.
  struct LaneHash {
    using is_transparent = void;
    size_t operator()(std::string_view lane) const {
      return std::hash<std::string_view>{}(lane);
    }
  };

  std::vector<std::string> lanes_;  ///< tid = index + 1, first-use order.
  std::unordered_map<std::string, int, LaneHash, std::equal_to<>> lane_ids_;
  std::vector<Event> events_;
  std::string arena_;  ///< Every event's name then args, in event order.
};

/// Counters, gauges, and fixed-bucket histograms, keyed by flat metric
/// names; labels are folded into the name ("net.bytes_delivered{src_zone=
/// gc-us-central1,dst_zone=gc-europe-west1}", see `LabeledName`). All maps
/// are ordered so that `ToJson` output is deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry();

  /// Name of the counter bumped whenever an increment is absorbed by
  /// floating-point rounding (a counter near 2^53 stops moving for small
  /// deltas). A nonzero value means some counter in this registry is
  /// saturated and its total is a lower bound, not an exact count.
  static constexpr std::string_view kPrecisionLossCounter =
      "#counter_precision_loss";

  /// Adds `delta` to a (monotonic) counter, creating it at zero. An add
  /// that does not change the stored value (see `kPrecisionLossCounter`)
  /// is recorded as precision loss instead of vanishing silently.
  void Count(std::string_view name, double delta = 1.0);
  /// Bumps `kPrecisionLossCounter` (shared with `CounterHandle::Add`).
  void NoteCounterPrecisionLoss();
  /// Sets a gauge to its latest value.
  void SetGauge(std::string_view name, double value);

  /// Declares a histogram with explicit upper bucket bounds (ascending,
  /// unique); an implicit +inf overflow bucket is appended. Unsorted or
  /// duplicate bounds are sorted/deduplicated with a warning — `Observe`
  /// bins by "first bound >= value", which is only meaningful on sorted
  /// bounds. No-op if the histogram already exists.
  void DefineHistogram(std::string_view name, std::vector<double> bounds);
  /// Records one observation; auto-defines the histogram with default
  /// bounds {1,2,5,10,20,50,100,200,500,1000} on first use.
  void Observe(std::string_view name, double value);

  /// Current counter value (0 when never incremented).
  double CounterValue(std::string_view name) const;
  /// Current gauge value, or `fallback` when the gauge was never set.
  double GaugeOr(std::string_view name, double fallback) const;
  /// Total observations of a histogram (0 when undefined).
  uint64_t HistogramCount(std::string_view name) const;

  /// The `q`-quantile (q in [0,1]) of a histogram, linearly interpolated
  /// within the bucket containing rank q*total (the Prometheus
  /// `histogram_quantile` estimate). The first bucket interpolates from
  /// lower edge min(0, first bound); ranks landing in the +inf overflow
  /// bucket clamp to the last finite bound. Errors: InvalidArgument for
  /// q outside [0,1], FailedPrecondition for an undefined/empty
  /// histogram or one declared with no finite bounds.
  Result<double> HistogramPercentile(std::string_view name, double q) const;
  /// Convenience p50/p95/p99 wrappers around `HistogramPercentile`.
  Result<double> HistogramP50(std::string_view name) const {
    return HistogramPercentile(name, 0.50);
  }
  Result<double> HistogramP95(std::string_view name) const {
    return HistogramPercentile(name, 0.95);
  }
  Result<double> HistogramP99(std::string_view name) const {
    return HistogramPercentile(name, 0.99);
  }

  /// Stable address of a counter's value slot, creating the counter at
  /// zero. The pointer stays valid until destruction (the backing map is
  /// node-based, so unrelated inserts never move it); `CounterHandle`
  /// caches it together with `epoch()` to detect that.
  double* CounterSlot(std::string_view name);

  /// Identity stamp for cached counter-slot pointers: unique per registry
  /// instance, so a handle that cached a slot can tell "same registry"
  /// apart from "different registry reusing this address" with one
  /// integer compare.
  uint64_t epoch() const { return epoch_; }

  /// Snapshot of everything as a JSON document, keys sorted — callable at
  /// any simulation time, byte-identical for identical runs.
  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;

  /// Folds `other` into this registry so the result is independent of
  /// merge order (the sweep aggregator merges per-run registries from
  /// concurrently completed cells): counters sum, gauges keep the maximum
  /// (a permutation-invariant "peak over runs"), histograms add bucket
  /// counts when the bucket bounds match — mismatched bounds keep the
  /// first definition and fold `other`'s observations into a
  /// `<name>#merge_conflicts` counter instead of silently misbinning.
  void Merge(const MetricsRegistry& other);

 private:
  struct Histogram {
    std::vector<double> bounds;    ///< Ascending upper bounds.
    std::vector<uint64_t> counts;  ///< bounds.size() + 1 (overflow last).
    double sum = 0;
    uint64_t total = 0;
  };

  uint64_t epoch_ = 0;
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Builds "base{k1=v1,k2=v2}" metric names for labeled series.
std::string LabeledName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

/// Process-global telemetry switchboard. Disabled by default: every
/// instrumentation site guards on `Enabled()` (one branch on a plain bool)
/// before touching the recorder, so benches and tests that never opt in
/// pay near-zero overhead.
///
/// Thread-safety contract: the process-global sinks and the enable switch
/// are *not* synchronized — `Enable`/`Disable`/`Reset` must only be
/// called while no other thread is inside instrumented code (the sweep
/// runner flips the switch before spawning its pool and after joining
/// it). Concurrent simulations each install their own sinks with
/// `ScopedSinks`, which routes that thread's recording into private
/// recorders via thread-local pointers; nothing is shared, so no locks
/// sit on the instrumentation fast path.
class Telemetry {
 public:
  static bool Enabled() { return tls_active_ || enabled_; }
  static bool Disabled() { return !Enabled(); }
  static void Enable() { enabled_ = true; }
  static void Disable() { enabled_ = false; }

  /// The calling thread's sinks: the ScopedSinks overrides when one is
  /// installed on this thread, the process-global instances otherwise.
  static TraceRecorder& trace() {
    return tls_trace_ ? *tls_trace_ : global_trace();
  }
  static MetricsRegistry& metrics() {
    return tls_metrics_ ? *tls_metrics_ : global_metrics();
  }

  /// Routes this thread's telemetry into caller-owned sinks for the
  /// scope's lifetime and forces `Enabled()` on this thread, regardless
  /// of the process-global switch. Scopes nest (LIFO); each sweep worker
  /// wraps one cell's simulation so concurrent cells never alias state.
  class ScopedSinks {
   public:
    ScopedSinks(TraceRecorder* trace, MetricsRegistry* metrics);
    ~ScopedSinks();

    ScopedSinks(const ScopedSinks&) = delete;
    ScopedSinks& operator=(const ScopedSinks&) = delete;

   private:
    TraceRecorder* prev_trace_;
    MetricsRegistry* prev_metrics_;
    bool prev_active_;
  };

 private:
  static TraceRecorder& global_trace();
  static MetricsRegistry& global_metrics();

  static inline bool enabled_ = false;
  static inline thread_local TraceRecorder* tls_trace_ = nullptr;
  static inline thread_local MetricsRegistry* tls_metrics_ = nullptr;
  static inline thread_local bool tls_active_ = false;
};

// --- Guarded convenience wrappers (no-ops while telemetry is off) ---

inline bool Enabled() { return Telemetry::Enabled(); }

inline void Span(double start_sec, double end_sec, std::string_view lane,
                 std::string_view name, std::string_view args_json = {}) {
  if (Telemetry::Disabled()) return;
  Telemetry::trace().Span(start_sec, end_sec, lane, name, args_json);
}

inline void Instant(double at_sec, std::string_view lane,
                    std::string_view name, std::string_view args_json = {}) {
  if (Telemetry::Disabled()) return;
  Telemetry::trace().Instant(at_sec, lane, name, args_json);
}

inline void Count(std::string_view name, double delta = 1.0) {
  if (Telemetry::Disabled()) return;
  Telemetry::metrics().Count(name, delta);
}

inline void Gauge(std::string_view name, double value) {
  if (Telemetry::Disabled()) return;
  Telemetry::metrics().SetGauge(name, value);
}

inline void Observe(std::string_view name, double value) {
  if (Telemetry::Disabled()) return;
  Telemetry::metrics().Observe(name, value);
}

/// Pointer-stable handle to one counter: resolves the registry's
/// `std::map<std::string>` slot once and bumps a raw double thereafter,
/// so hot-path call sites (the simulator's per-event accounting, the
/// network's per-delivery byte meters) skip the string hash + map walk
/// that `Count()` pays on every call.
///
/// The cached slot is revalidated with two integer compares per `Add`:
/// the handle rebinds when the calling thread's active registry changes
/// (a `Telemetry::ScopedSinks` installed or removed) or when the cached
/// registry's `epoch()` moved (a new registry at the same address).
/// Like the sinks themselves, a handle instance must only be
/// bumped from one thread at a time — embed it in the per-simulation
/// object whose thread owns the recording.
class CounterHandle {
 public:
  explicit CounterHandle(std::string name) : name_(std::move(name)) {}

  /// Adds `delta` to the counter; no-op while telemetry is off. An add
  /// absorbed by floating-point rounding bumps
  /// `MetricsRegistry::kPrecisionLossCounter`, same as `Count()`.
  void Add(double delta = 1.0) {
    if (Telemetry::Disabled()) return;
    MetricsRegistry& registry = Telemetry::metrics();
    if (&registry != registry_ || registry.epoch() != epoch_) {
      Rebind(registry);
    }
    const double before = *slot_;
    *slot_ = before + delta;
    if (*slot_ == before && delta != 0) registry.NoteCounterPrecisionLoss();
  }

  const std::string& name() const { return name_; }

 private:
  void Rebind(MetricsRegistry& registry);

  std::string name_;
  MetricsRegistry* registry_ = nullptr;
  uint64_t epoch_ = 0;
  double* slot_ = nullptr;
};

}  // namespace hivesim::telemetry

#endif  // HIVESIM_TELEMETRY_TELEMETRY_H_
