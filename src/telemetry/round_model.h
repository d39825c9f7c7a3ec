#ifndef HIVESIM_TELEMETRY_ROUND_MODEL_H_
#define HIVESIM_TELEMETRY_ROUND_MODEL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/json_parse.h"
#include "common/result.h"

namespace hivesim::telemetry {

/// The analyzer's input/round-reconstruction layer (consumed by
/// telemetry/analysis.h). The analyzer reads a trace only in its written
/// form, the Chrome trace_event JSON of `TraceRecorder::ToChromeJson`:
/// `hivesim analyze` parses a file, and `--analysis-out` parses the
/// bytes `--trace-out` would write. Both therefore do their round-model
/// arithmetic on the same microsecond doubles, in file order.

/// One trace event as read from the file, times in microseconds. `args`
/// holds the parsed args object (kNull when the event carried none).
struct TraceEvent {
  bool instant = false;
  double ts_us = 0;
  double dur_us = 0;  ///< 0 for instants.
  std::string lane;
  std::string name;
  JsonValue args;

  double end_us() const { return ts_us + dur_us; }
};

/// A full trace, events in file order (which is recorder order:
/// `ToChromeJson` serializes in recorder order).
struct TraceDataset {
  std::vector<std::string> lanes;  ///< First-use order.
  std::vector<TraceEvent> events;
};

/// Builds the dataset from the text of a Chrome trace_event
/// file written by `TraceRecorder::ToChromeJson`. Lane names come from
/// the thread_name metadata events; non-metadata events must reference
/// a declared tid.
Result<TraceDataset> DatasetFromChromeJson(std::string_view json_text);

/// What a slice of critical-path time was spent on.
enum class Phase {
  kCalc,           ///< Gradient accumulation toward the target batch.
  kMatchmakeWait,  ///< Waiting on group formation, no matchmake span.
  kMatchmake,      ///< Inside a `matchmake` span (external traces; the
                   ///< simulator models the matchmaking floor and
                   ///< records none).
  kFlow,           ///< Bound by a WAN transfer (see Segment::flow).
  kOverhead,       ///< Comm window not covered by any flow (serialize,
                   ///< aggregate, apply, retry backoff).
};

/// A gradient-exchange (or control) transfer assigned to a round,
/// clipped to the round's communication window.
struct FlowRef {
  double start_us = 0;
  double end_us = 0;
  double bytes = 0;
  int src = -1;
  int dst = -1;
  std::string src_zone;  ///< Empty when the trace predates zone args.
  std::string dst_zone;
  std::string link;  ///< "src_zone->dst_zone", or "node<s>->node<d>".
};

/// One slice of a round's critical path. Slices partition
/// [Round::start_us, Round::end_us]; `flow` indexes Round::flows for
/// kFlow slices and is -1 otherwise.
struct Segment {
  double start_us = 0;
  double end_us = 0;
  Phase phase = Phase::kOverhead;
  int flow = -1;

  double dur_us() const { return end_us - start_us; }
};

/// One reconstructed training round (trainer epoch).
struct Round {
  int run = 0;    ///< Trace-segment index (see RoundModel::num_runs).
  int epoch = 0;  ///< Trainer epoch number within the run.
  double start_us = 0;
  double calc_end_us = 0;   ///< End of gradient accumulation.
  double avg_start_us = 0;  ///< Averaging start (== calc_end when the
                            ///< trainer recorded no matchmake wait).
  double end_us = 0;
  std::vector<FlowRef> flows;     ///< Recorder order, clipped.
  std::vector<Segment> critical;  ///< Partition of [start_us, end_us].
  int retries = 0;                ///< round-retry instants in-window.
  bool degraded = false;          ///< round-degraded instant in-window.
  std::vector<std::string> chaos; ///< Chaos instants in-window, in order.

  double dur_us() const { return end_us - start_us; }
};

/// The reconstructed dependency model of a whole trace.
struct RoundModel {
  std::vector<Round> rounds;  ///< Run order, then epoch order.
  /// Number of trace segments. `hivesim run`/`fleet` record several
  /// simulations (each restarting at t=0) into one recorder, separated
  /// by "run-start" instants on the "trace" lane; a marker-free trace
  /// is a single run.
  int num_runs = 1;
  double modeled_us = 0;    ///< Sum of round durations.
  double unmodeled_us = 0;  ///< Traced sim-time outside any complete
                            ///< round (bootstrap head, stopped tail).
};

/// Reconstructs rounds and their critical paths from a dataset.
/// Attribution semantics (docs/OBSERVABILITY.md has the full contract):
///   [start, calc_end]    -> kCalc;
///   [calc_end, avg_start]-> kMatchmake where a matchmake span covers
///                           the instant, kMatchmakeWait elsewhere;
///   [avg_start, end]     -> the covering net flow with the latest end
///                           time (ties: earliest recorded), kOverhead
///                           where no flow is in flight.
Result<RoundModel> BuildRoundModel(const TraceDataset& dataset);

}  // namespace hivesim::telemetry

#endif  // HIVESIM_TELEMETRY_ROUND_MODEL_H_
