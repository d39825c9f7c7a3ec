#include "faults/chaos.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "telemetry/telemetry.h"

namespace hivesim::faults {

namespace {
// "<prefix><a><-><b>": the chaos log line of an event on site pair a, b.
std::string PairLine(std::string_view prefix, net::SiteId a, net::SiteId b) {
  std::string line(prefix);
  AppendInt(&line, a);
  line += "<->";
  AppendInt(&line, b);
  return line;
}
}  // namespace

Status ChaosSchedule::Validate() const {
  for (const SpotStormEvent& s : spot_storms) {
    if (s.start_sec < 0 || s.duration_sec <= 0) {
      return Status::InvalidArgument("spot storm needs a positive window");
    }
    if (s.hazard_multiplier < 0) {
      return Status::InvalidArgument("hazard multiplier must be >= 0");
    }
  }
  for (const WanEvent& w : wan_events) {
    if (w.start_sec < 0 || w.duration_sec <= 0) {
      return Status::InvalidArgument("WAN event needs a positive window");
    }
    if (w.bandwidth_factor < 0 || w.bandwidth_factor > 1) {
      return Status::InvalidArgument("bandwidth factor out of [0, 1]");
    }
    if (w.extra_rtt_sec < 0) {
      return Status::InvalidArgument("extra RTT must be >= 0");
    }
  }
  for (const NodeCrashEvent& c : crashes) {
    if (c.at_sec < 0) {
      return Status::InvalidArgument("crash time must be >= 0");
    }
  }
  for (const CrashStormEvent& s : crash_storms) {
    if (s.nodes.empty()) {
      return Status::InvalidArgument("crash storm needs target nodes");
    }
    if (s.crashes < 1) {
      return Status::InvalidArgument("crash storm needs >= 1 crash");
    }
    if (s.start_sec < 0 || s.duration_sec <= 0) {
      return Status::InvalidArgument("crash storm needs a positive window");
    }
  }
  return Status::OK();
}

ChaosInjector::ChaosInjector(sim::Simulator* sim, net::Topology* topology,
                             net::Network* network, uint64_t seed)
    : sim_(sim), topology_(topology), network_(network), rng_(seed) {}

uint64_t ChaosInjector::PairKey(net::SiteId a, net::SiteId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

Status ChaosInjector::Arm(const ChaosSchedule& schedule) {
  HIVESIM_RETURN_IF_ERROR(schedule.Validate());
  if (!schedule.spot_storms.empty() && market_ == nullptr) {
    return Status::FailedPrecondition(
        "schedule has spot storms but no SpotMarket is attached");
  }

  // Spot storms become hazard windows immediately: the market's
  // piecewise sampler scans forward through them, so VMs provisioned
  // after Arm() already carry the storm in their interruption draws.
  for (const SpotStormEvent& s : schedule.spot_storms) {
    market_->AddHazardWindow({s.continent, s.start_sec,
                              s.start_sec + s.duration_sec,
                              s.hazard_multiplier});
    ++stats_.spot_storms;
    std::string line = "spot-storm armed: ";
    line += net::ContinentName(s.continent);
    line += " x";
    AppendFixed(&line, s.hazard_multiplier, 1);
    line += " [";
    AppendFixed(&line, s.start_sec, 0);
    line += "s, ";
    AppendFixed(&line, s.start_sec + s.duration_sec, 0);
    line += "s)";
    AddTrace(std::move(line));
  }

  for (const WanEvent& w : schedule.wan_events) {
    const int id = next_wan_id_++;
    sim_->ScheduleAt(w.start_sec, [this, id, w] { ApplyWan(id, w); });
    sim_->ScheduleAt(w.start_sec + w.duration_sec,
                     [this, id, w] { RestoreWan(id, w); });
  }

  for (const NodeCrashEvent& c : schedule.crashes) {
    sim_->ScheduleAt(c.at_sec, [this, c] {
      Crash(c.node, c.restart_after_sec);
    });
  }

  // Crash storms expand deterministically from the injector's seeded
  // stream at Arm() time.
  for (const CrashStormEvent& s : schedule.crash_storms) {
    for (int i = 0; i < s.crashes; ++i) {
      const double at = s.start_sec + rng_.Uniform(0, s.duration_sec);
      const net::NodeId node = s.nodes[static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(s.nodes.size()) - 1))];
      sim_->ScheduleAt(at, [this, node, restart = s.restart_after_sec] {
        Crash(node, restart);
      });
    }
  }
  return Status::OK();
}

void ChaosInjector::ApplyWan(int id, const WanEvent& event) {
  const uint64_t key = PairKey(event.a, event.b);
  auto path = topology_->PathBetween(event.a, event.b);
  if (!path.ok()) {
    AddTrace(PairLine("wan event skipped: no path ", event.a, event.b));
    return;
  }
  PairState& state = wan_state_[key];
  if (state.active.empty()) state.original = *path;
  state.active.push_back({id, event.bandwidth_factor, event.extra_rtt_sec});
  ReapplyPair(key, event.a, event.b);
  ++stats_.wan_degradations;
  telemetry::Count("chaos.wan_degradations");
  const bool partition = event.bandwidth_factor == 0;
  std::string line =
      PairLine(partition ? "partition " : "wan degrade ", event.a, event.b);
  if (!partition) {
    line += " x";
    AppendFixed(&line, event.bandwidth_factor, 2);
    line += " +";
    AppendFixed(&line, event.extra_rtt_sec * 1000, 0);
    line += "ms";
  }
  AddTrace(std::move(line));
}

void ChaosInjector::RestoreWan(int id, const WanEvent& event) {
  const uint64_t key = PairKey(event.a, event.b);
  auto it = wan_state_.find(key);
  if (it == wan_state_.end()) return;
  auto& active = it->second.active;
  auto match = std::find_if(active.begin(), active.end(),
                            [id](const ActiveWan& w) { return w.id == id; });
  if (match == active.end()) return;
  active.erase(match);
  ReapplyPair(key, event.a, event.b);
  if (active.empty()) wan_state_.erase(it);
  ++stats_.wan_recoveries;
  AddTrace(PairLine("wan recover ", event.a, event.b));
}

void ChaosInjector::ReapplyPair(uint64_t key, net::SiteId a, net::SiteId b) {
  const PairState& state = wan_state_.at(key);
  double bandwidth = state.original.bandwidth_bps;
  double rtt = state.original.rtt_sec;
  double single_stream = state.original.single_stream_bps;
  for (const ActiveWan& w : state.active) {
    bandwidth *= w.bandwidth_factor;
    single_stream *= w.bandwidth_factor;
    rtt += w.extra_rtt_sec;
  }
  topology_->SetPath(a, b, bandwidth, rtt, single_stream);
  network_->Refresh();
}

void ChaosInjector::Crash(net::NodeId node, double restart_after_sec) {
  ++stats_.crashes;
  telemetry::Count("chaos.crashes");
  std::string line = "crash node ";
  AppendInt(&line, node);
  AddTrace(std::move(line));
  if (trainer_ != nullptr) {
    auto spec = trainer_->PeerSpecOf(node);
    if (spec.ok()) {
      crashed_specs_[node] = *spec;
      trainer_->RemovePeer(node).ok();
    }
  }
  if (restart_after_sec >= 0) {
    sim_->Schedule(restart_after_sec, [this, node] { Restart(node); });
  }
}

void ChaosInjector::Restart(net::NodeId node) {
  ++stats_.restarts;
  telemetry::Count("chaos.restarts");
  std::string line = "restart node ";
  AppendInt(&line, node);
  AddTrace(std::move(line));
  if (trainer_ != nullptr) {
    auto it = crashed_specs_.find(node);
    if (it != crashed_specs_.end()) {
      trainer_->JoinPeer(it->second).ok();
      crashed_specs_.erase(it);
    }
  }
}

void ChaosInjector::AddTrace(std::string event) {
  HIVESIM_LOG(Info) << "chaos: " << event;
  if (telemetry::Enabled()) {
    telemetry::Count("chaos.events");
    telemetry::Instant(sim_->Now(), "chaos", event);
  }
  trace_.push_back({sim_->Now(), std::move(event)});
}

uint64_t ChaosInjector::TraceFingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a.
  auto mix = [&h](const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const TraceEntry& e : trace_) {
    mix(&e.at_sec, sizeof(e.at_sec));
    mix(e.event.data(), e.event.size());
  }
  return h;
}

}  // namespace hivesim::faults
