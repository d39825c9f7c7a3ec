#include "telemetry/round_model.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/strings.h"

namespace hivesim::telemetry {

Result<TraceDataset> DatasetFromChromeJson(std::string_view json_text) {
  JsonValue doc;
  HIVESIM_ASSIGN_OR_RETURN(doc, ParseJson(json_text));
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument(
        "not a Chrome trace: missing traceEvents array");
  }
  TraceDataset dataset;
  std::map<int, size_t> lane_by_tid;
  for (const JsonValue& ev : events->array) {
    if (!ev.is_object()) {
      return Status::InvalidArgument("traceEvents entry is not an object");
    }
    const JsonValue* ph = ev.Find("ph");
    const std::string kind = ph != nullptr ? ph->StringOr("") : "";
    const int tid = static_cast<int>(
        ev.Find("tid") != nullptr ? ev.Find("tid")->NumberOr(-1) : -1);
    if (kind == "M") {
      const JsonValue* name = ev.Find("name");
      if (name == nullptr || name->StringOr("") != "thread_name") continue;
      const JsonValue* args = ev.Find("args");
      const JsonValue* lane =
          args != nullptr ? args->Find("name") : nullptr;
      if (lane == nullptr || !lane->is_string()) {
        return Status::InvalidArgument("thread_name metadata without name");
      }
      lane_by_tid.emplace(tid, dataset.lanes.size());
      dataset.lanes.push_back(lane->string_value);
      continue;
    }
    if (kind != "X" && kind != "i") continue;  // Unknown phases skipped.
    const auto lane_it = lane_by_tid.find(tid);
    if (lane_it == lane_by_tid.end()) {
      return Status::InvalidArgument(
          StrFormat("event references undeclared tid %d", tid));
    }
    TraceEvent event;
    event.instant = kind == "i";
    const JsonValue* ts = ev.Find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return Status::InvalidArgument("event without numeric ts");
    }
    event.ts_us = ts->number_value;
    if (!event.instant) {
      const JsonValue* dur = ev.Find("dur");
      event.dur_us = dur != nullptr ? dur->NumberOr(0) : 0;
    }
    event.lane = dataset.lanes[lane_it->second];
    const JsonValue* name = ev.Find("name");
    event.name = name != nullptr ? name->StringOr("") : "";
    if (const JsonValue* args = ev.Find("args")) event.args = *args;
    dataset.events.push_back(std::move(event));
  }
  return dataset;
}

namespace {

bool IsRunMarker(const TraceEvent& e) {
  return e.instant && e.lane == "trace" && e.name == "run-start";
}

int ArgInt(const JsonValue& args, const char* key, int fallback) {
  const JsonValue* v = args.Find(key);
  return v != nullptr ? static_cast<int>(v->NumberOr(fallback)) : fallback;
}

/// A candidate covering interval for the sweep, already clipped to the
/// window. `index` is the recorder-order position used for tie-breaks.
struct Cover {
  double start = 0;
  double end = 0;
  int index = -1;
};

/// Partitions [w0, w1]: slices covered by some interval get
/// `covered_phase` attributed to the covering interval with the latest
/// end (ties: earliest recorded); uncovered slices get
/// `uncovered_phase`. Appends merged segments to `out`.
void SweepWindow(double w0, double w1, const std::vector<Cover>& covers,
                 Phase covered_phase, Phase uncovered_phase,
                 std::vector<Segment>* out) {
  if (!(w1 > w0)) return;
  std::vector<double> cuts;
  cuts.reserve(2 + covers.size() * 2);
  cuts.push_back(w0);
  cuts.push_back(w1);
  for (const Cover& c : covers) {
    if (c.start > w0 && c.start < w1) cuts.push_back(c.start);
    if (c.end > w0 && c.end < w1) cuts.push_back(c.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double a = cuts[i];
    const double b = cuts[i + 1];
    const Cover* best = nullptr;
    for (const Cover& c : covers) {
      if (c.start > a || c.end < b || c.end <= c.start) continue;
      if (best == nullptr || c.end > best->end) best = &c;
      // Equal ends keep the earlier `best` (covers are recorder-ordered).
    }
    Segment seg;
    seg.start_us = a;
    seg.end_us = b;
    seg.phase = best != nullptr ? covered_phase : uncovered_phase;
    seg.flow = best != nullptr && covered_phase == Phase::kFlow
                   ? best->index
                   : -1;
    if (!out->empty() && out->back().end_us == a &&
        out->back().phase == seg.phase && out->back().flow == seg.flow) {
      out->back().end_us = b;
    } else {
      out->push_back(seg);
    }
  }
}

void AppendSegment(std::vector<Segment>* out, double start, double end,
                   Phase phase) {
  if (!(end > start)) return;
  if (!out->empty() && out->back().end_us == start &&
      out->back().phase == phase && out->back().flow == -1) {
    out->back().end_us = end;
    return;
  }
  Segment seg;
  seg.start_us = start;
  seg.end_us = end;
  seg.phase = phase;
  out->push_back(seg);
}

}  // namespace

Result<RoundModel> BuildRoundModel(const TraceDataset& dataset) {
  RoundModel model;
  const std::vector<TraceEvent>& events = dataset.events;

  // `hivesim run`/`fleet` record several simulations into one recorder,
  // each restarting at sim-time 0 behind a "run-start" marker. Events
  // are grouped by marker position so flows of run k can never be
  // matched against rounds of run k+1 by timestamp coincidence.
  std::vector<size_t> run_starts{0};
  for (size_t i = 1; i < events.size(); ++i) {
    if (IsRunMarker(events[i])) run_starts.push_back(i);
  }
  model.num_runs = static_cast<int>(run_starts.size());

  for (size_t r = 0; r < run_starts.size(); ++r) {
    const size_t begin = run_starts[r];
    const size_t end = r + 1 < run_starts.size() ? run_starts[r + 1]
                                                 : events.size();
    if (begin >= end) continue;

    double extent_min = events[begin].ts_us;
    double extent_max = events[begin].end_us();
    std::vector<Round> rounds;
    bool pending_comm = false;
    std::vector<std::pair<double, double>> matchmakes;
    std::vector<FlowRef> flows;
    std::vector<double> retry_ts;
    std::vector<double> degraded_ts;
    std::vector<std::pair<double, std::string>> chaos;

    for (size_t i = begin; i < end; ++i) {
      const TraceEvent& e = events[i];
      extent_min = std::min(extent_min, e.ts_us);
      extent_max = std::max(extent_max, e.end_us());
      if (e.lane == "trainer") {
        if (!e.instant && e.name == "calc") {
          if (pending_comm) rounds.pop_back();  // calc without comm.
          Round round;
          round.run = static_cast<int>(r);
          round.epoch = ArgInt(e.args, "epoch", -1);
          round.start_us = e.ts_us;
          round.calc_end_us = e.end_us();
          round.avg_start_us = round.calc_end_us;
          round.end_us = round.calc_end_us;
          rounds.push_back(std::move(round));
          pending_comm = true;
        } else if (!e.instant && e.name == "comm") {
          if (pending_comm) {
            rounds.back().end_us = std::max(rounds.back().calc_end_us,
                                            e.end_us());
            pending_comm = false;
          }
        } else if (!e.instant && e.name == "matchmake-wait") {
          if (!rounds.empty()) {
            Round& round = rounds.back();
            round.avg_start_us = std::min(
                std::max(e.end_us(), round.calc_end_us), round.end_us);
          }
        } else if (!e.instant && e.name == "matchmake") {
          matchmakes.emplace_back(e.ts_us, e.end_us());
        } else if (e.instant && e.name == "round-retry") {
          retry_ts.push_back(e.ts_us);
        } else if (e.instant && e.name == "round-degraded") {
          degraded_ts.push_back(e.ts_us);
        }
      } else if (e.lane == "net" && !e.instant) {
        int src = -1;
        int dst = -1;
        if (std::sscanf(e.name.c_str(), "flow %d->%d", &src, &dst) == 2) {
          FlowRef flow;
          flow.start_us = e.ts_us;
          flow.end_us = e.end_us();
          flow.src = src;
          flow.dst = dst;
          if (const JsonValue* bytes = e.args.Find("bytes")) {
            flow.bytes = bytes->NumberOr(0);
          }
          if (const JsonValue* zone = e.args.Find("src_zone")) {
            flow.src_zone = zone->StringOr("");
          }
          if (const JsonValue* zone = e.args.Find("dst_zone")) {
            flow.dst_zone = zone->StringOr("");
          }
          flow.link = !flow.src_zone.empty() && !flow.dst_zone.empty()
                          ? StrCat(flow.src_zone, "->", flow.dst_zone)
                          : StrFormat("node%d->node%d", src, dst);
          flows.push_back(std::move(flow));
        }
      } else if (e.lane == "chaos" && e.instant) {
        chaos.emplace_back(e.ts_us, e.name);
      }
    }
    if (pending_comm) rounds.pop_back();  // Trainer stopped mid-round.

    double run_modeled = 0;
    for (Round& round : rounds) {
      // Flows overlapping the communication window, clipped to it.
      std::vector<Cover> flow_covers;
      for (const FlowRef& flow : flows) {
        if (flow.end_us <= round.avg_start_us ||
            flow.start_us >= round.end_us) {
          continue;
        }
        FlowRef clipped = flow;
        clipped.start_us = std::max(flow.start_us, round.avg_start_us);
        clipped.end_us = std::min(flow.end_us, round.end_us);
        Cover cover;
        cover.start = clipped.start_us;
        cover.end = clipped.end_us;
        cover.index = static_cast<int>(round.flows.size());
        round.flows.push_back(std::move(clipped));
        flow_covers.push_back(cover);
      }
      std::vector<Cover> mm_covers;
      for (const auto& [mm_start, mm_end] : matchmakes) {
        if (mm_end <= round.calc_end_us || mm_start >= round.avg_start_us) {
          continue;
        }
        Cover cover;
        cover.start = std::max(mm_start, round.calc_end_us);
        cover.end = std::min(mm_end, round.avg_start_us);
        cover.index = static_cast<int>(mm_covers.size());
        mm_covers.push_back(cover);
      }

      AppendSegment(&round.critical, round.start_us, round.calc_end_us,
                    Phase::kCalc);
      SweepWindow(round.calc_end_us, round.avg_start_us, mm_covers,
                  Phase::kMatchmake, Phase::kMatchmakeWait,
                  &round.critical);
      SweepWindow(round.avg_start_us, round.end_us, flow_covers,
                  Phase::kFlow, Phase::kOverhead, &round.critical);

      for (const double ts : retry_ts) {
        if (ts >= round.start_us && ts < round.end_us) ++round.retries;
      }
      for (const double ts : degraded_ts) {
        if (ts >= round.start_us && ts < round.end_us) {
          round.degraded = true;
        }
      }
      for (const auto& [ts, name] : chaos) {
        if (ts >= round.start_us && ts < round.end_us) {
          round.chaos.push_back(name);
        }
      }
      run_modeled += round.dur_us();
    }
    model.modeled_us += run_modeled;
    model.unmodeled_us +=
        std::max(0.0, (extent_max - extent_min) - run_modeled);
    for (Round& round : rounds) model.rounds.push_back(std::move(round));
  }
  return model;
}

}  // namespace hivesim::telemetry
