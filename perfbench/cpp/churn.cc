// fleet_churn: one world driven through sim and net directly, with
// BM_Fleet's traffic (bench/bench_fleet.cc) at tens of thousands of
// cloud-VM peers over the eight standard sites. Unlike BM_Fleet, flows
// arrive on a seeded open-loop schedule in simulated time (never from
// completion callbacks), so every StartFlow, CancelFlow and completion
// happens at its own timestamp and pays net::Network's walk over the live
// flows where this benchmark times it. Each step is one fixed
// simulated-time slice (Simulator::RunUntil) followed by a meter read, the
// side lazy flow settlement would make slower.

#include <algorithm>
#include <cmath>
#include <memory>

#include "checks.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "net/network.h"
#include "net/profiles.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

namespace perfbench {

using namespace hivesim;

namespace {

// From BM_Fleet: the peers spread evenly over the eight standard sites,
// peers/8 flows in flight, ~90% of flows within the source's site and ~10%
// to a peer drawn from the whole fleet, a cancel storm of 8 victims every
// 0.5 s, and every peer heartbeating on the whole-second marks.
constexpr int kPeersPerSite = 2500;
constexpr double kWanShare = 0.1;
constexpr double kStormEverySec = 0.5;
constexpr int kVictimsPerStorm = 8;
// Flow sizes: each flow carries the mean transfer of one of the eight
// suitability-study models, drawn uniformly, as paper_grid's own worlds
// move them at TBS 32768 (`perfbench --workload fleet_churn
// --emit-reference` measures these from the grid; RN18 ... RXLM).
// BM_Fleet's 2-16 MB flows would finish in milliseconds and make holding
// peers/8 of them in flight take ~37x the arrivals.
constexpr double kTransferBytes[] = {20.45 * kMB, 44.71 * kMB, 105.6 * kMB,
                                     225.4 * kMB, 346.3 * kMB, 230.4 * kMB,
                                     664.3 * kMB, 1046 * kMB};

// The benchmark's own choices. One repetition covers kHorizonSec simulated
// seconds in kSliceSec steps. Storms start half a period late, so the
// horizon holds two; a storm's cancels land kCancelSpacingSec apart so each
// pays the walk (BM_Fleet cancels its 8 at one instant).
constexpr double kHorizonSec = 1.0;
constexpr double kSliceSec = 0.01;
constexpr double kStormOffsetSec = 0.25;
constexpr double kCancelSpacingSec = 0.5e-3;
// Nodes whose egress each meter read samples (besides all site pairs).
constexpr int kMeterSampleNodes = 256;

struct Arrival {
  double at = 0;
  uint32_t src = 0;  ///< Node index.
  uint32_t dst = 0;
  double bytes = 0;
};

/// One cancel of a storm: at `at`, abort the in-flight flow at position
/// floor(frac * size) of the in-flight list.
struct Cancel {
  double at = 0;
  double frac = 0;
};

/// The workload's inputs, all drawn from the seed up front.
struct ChurnInputs {
  std::vector<Arrival> flows;  ///< Sorted by time; t=0 ones first.
  std::vector<Cancel> cancels;
  std::vector<uint32_t> meter_sample;
};

/// Open-loop arrival rate that holds peers/8 intra-site flows in flight
/// (Little's law): an intra-site flow runs at its site's fabric rate, so it
/// lasts size / rate on average. Cross-site flows come on top; the WAN
/// paths cannot carry them as fast as they arrive, so they accumulate over
/// the horizon, as BM_Fleet's in-flight set drifts toward WAN flows.
double ArrivalsPerSec(const net::Topology& topology, uint32_t peers) {
  double mean_bytes = 0;
  for (const double bytes : kTransferBytes) mean_bytes += bytes;
  mean_bytes /= std::size(kTransferBytes);
  double mean_inverse_rate = 0;
  for (net::SiteId site = 0; site < topology.num_sites(); ++site) {
    mean_inverse_rate += 1.0 / topology.PathBetween(site, site)->bandwidth_bps;
  }
  mean_inverse_rate /= static_cast<double>(topology.num_sites());
  const double intra_per_sec = (peers / 8.0) / (mean_bytes * mean_inverse_rate);
  return intra_per_sec / (1 - kWanShare);
}

ChurnInputs GenerateInputs(uint64_t seed) {
  const net::Topology topology = net::StandardWorld();
  const uint32_t peers =
      static_cast<uint32_t>(topology.num_sites()) * kPeersPerSite;
  const double arrivals_per_sec = ArrivalsPerSec(topology, peers);
  Rng rng(seed);
  ChurnInputs in;
  auto draw = [&](double at, bool residual) {
    Arrival a;
    a.at = at;
    a.src = static_cast<uint32_t>(rng.UniformInt(0, peers - 1));
    if (rng.Bernoulli(kWanShare)) {
      a.dst = static_cast<uint32_t>(rng.UniformInt(0, peers - 1));
    } else {
      // Nodes are numbered site by site, so a site is a contiguous range.
      const uint32_t site_base = a.src - a.src % kPeersPerSite;
      a.dst = site_base +
              static_cast<uint32_t>(rng.UniformInt(0, kPeersPerSite - 1));
    }
    if (a.dst == a.src) a.dst = (a.src + 1) % peers;
    a.bytes = kTransferBytes[rng.UniformInt(0, std::size(kTransferBytes) - 1)];
    if (residual) a.bytes *= rng.Uniform(0.02, 1.0);
    in.flows.push_back(a);
  };
  // BM_Fleet starts peers/8 flows at t=0; these are already part-way done.
  for (uint32_t i = 0; i < peers / 8; ++i) draw(0.0, true);
  for (double t = rng.Exponential(arrivals_per_sec); t < kHorizonSec;
       t += rng.Exponential(arrivals_per_sec)) {
    draw(t, false);
  }
  for (double t = kStormOffsetSec; t < kHorizonSec; t += kStormEverySec) {
    for (int v = 0; v < kVictimsPerStorm; ++v) {
      in.cancels.push_back(Cancel{t + v * kCancelSpacingSec, rng.Uniform()});
    }
  }
  for (int i = 0; i < kMeterSampleNodes; ++i) {
    in.meter_sample.push_back(
        static_cast<uint32_t>(rng.UniformInt(0, peers - 1)));
  }
  return in;
}

/// One repetition's world and its bookkeeping. Callbacks hold a pointer to
/// it, so it lives behind a unique_ptr and never moves.
struct ChurnWorld {
  const ChurnInputs* in = nullptr;
  SpanRecorder* spans = nullptr;
  sim::Simulator sim;
  net::Topology topology;
  std::unique_ptr<net::Network> network;
  std::vector<net::NodeId> nodes;
  std::vector<net::FlowId> flow_ids;  ///< By arrival index.
  std::vector<int> inflight_pos;      ///< -1 when not in flight.
  std::vector<uint32_t> inflight;     ///< Arrival indices in flight.
  ChurnTotals totals;
  uint64_t heartbeats = 0;
  int64_t start_errors = 0;
  int64_t stale_cancels = 0;

  /// Starts flow `i`; `traced` marks the scheduled arrivals, whose calls
  /// pay the live-flow walk (the t=0 starts run before any time passes).
  void Start(uint32_t i, bool traced) {
    const Arrival& a = in->flows[i];
    bool ok = false;
    Traced(traced ? spans : nullptr, "net.start_flow", [&] {
      auto id = network->StartFlow(nodes[a.src], nodes[a.dst], a.bytes,
                                   [this, i] { Complete(i); });
      if (id.ok()) {
        ok = true;
        flow_ids[i] = *id;
      }
    });
    if (!ok) {
      ++start_errors;
      return;
    }
    ++totals.starts;
    totals.started_bytes += a.bytes;
    inflight_pos[i] = static_cast<int>(inflight.size());
    inflight.push_back(i);
  }

  void Complete(uint32_t i) {
    ++totals.completions;
    totals.completed_bytes += in->flows[i].bytes;
    Remove(i);
  }

  void CancelOne(double frac) {
    if (inflight.empty()) return;
    const uint32_t i = inflight[std::min(
        inflight.size() - 1,
        static_cast<size_t>(frac * static_cast<double>(inflight.size())))];
    bool cancelled = false;
    Traced(spans, "net.cancel_flow",
           [&] { cancelled = network->CancelFlow(flow_ids[i]); });
    if (!cancelled) {
      ++stale_cancels;  // The in-flight list says it is live.
      return;
    }
    ++totals.cancels;
    Remove(i);
  }

  void Remove(uint32_t i) {
    const int pos = inflight_pos[i];
    inflight_pos[i] = -1;
    const uint32_t last = inflight.back();
    inflight[static_cast<size_t>(pos)] = last;
    inflight.pop_back();
    if (last != i) inflight_pos[last] = pos;
  }
};

/// Builds the fleet, schedules arrivals, storms and heartbeats, and starts
/// the flows already in flight at t=0.
std::unique_ptr<ChurnWorld> BuildWorld(const ChurnInputs& in,
                                       SpanRecorder* spans) {
  auto w = std::make_unique<ChurnWorld>();
  w->in = &in;
  w->spans = spans;
  w->topology = net::StandardWorld();
  for (net::SiteId site = 0; site < w->topology.num_sites(); ++site) {
    for (int p = 0; p < kPeersPerSite; ++p) {
      w->nodes.push_back(w->topology.AddNode(site, net::CloudVmNetConfig()));
    }
  }
  w->network = std::make_unique<net::Network>(&w->sim, &w->topology);
  w->flow_ids.assign(in.flows.size(), 0);
  w->inflight_pos.assign(in.flows.size(), -1);
  ChurnWorld* world = w.get();
  for (uint32_t i = 0; i < in.flows.size(); ++i) {
    if (in.flows[i].at == 0.0) continue;
    w->sim.ScheduleAt(in.flows[i].at,
                     [world, i] { world->Start(i, /*traced=*/true); });
  }
  for (const Cancel& cancel : in.cancels) {
    const double frac = cancel.frac;
    w->sim.ScheduleAt(cancel.at, [world, frac] { world->CancelOne(frac); });
  }
  // Fleet-wide heartbeats on shared whole-second marks: each mark is one
  // same-timestamp cohort of fleet size.
  for (int mark = 1; mark <= static_cast<int>(kHorizonSec); ++mark) {
    for (size_t p = 0; p < w->nodes.size(); ++p) {
      w->sim.ScheduleAt(mark, [world] { ++world->heartbeats; });
    }
  }
  for (uint32_t i = 0; i < in.flows.size() && in.flows[i].at == 0.0; ++i) {
    w->Start(i, /*traced=*/false);
  }
  return w;
}

class FleetChurn : public WorkloadRunner {
 public:
  explicit FleetChurn(uint64_t seed) : seed_(seed) {}

  Rep RunRep(SpanRecorder* spans) override { return Pass(spans); }

  void LayerMetrics(const std::vector<Span>& spans,
                    const std::vector<int>& rep_ids,
                    const std::vector<Rep>& untraced,
                    Report* report) override {
    telemetry::TraceRecorder trace;
    telemetry::MetricsRegistry metrics;
    Rep counted;
    {
      telemetry::Telemetry::ScopedSinks sinks(&trace, &metrics);
      counted = Pass(nullptr);
    }
    report->problems.insert(report->problems.end(), counted.problems.begin(),
                            counted.problems.end());
    double trace_bytes = 0;
    const double render_s = Timed(nullptr, "", [&] {
      trace_bytes = static_cast<double>(trace.ToChromeJson().size() +
                                        metrics.ToJson().size());
    });

    std::map<std::string, double>& m = report->per_layer;
    for (const char* name :
         {"net.flows_started", "net.flows_completed", "net.flows_cancelled",
          "sim.events_fired", "sim.events_cancelled"}) {
      m[name] = metrics.CounterValue(name);
    }
    struct Call {
      const char* span;
      const char* calls;
      const char* p50;
      const char* p90;
    };
    for (const Call& call :
         {Call{"net.start_flow", "net.start_flow.calls",
               "net.start_flow_us_p50", "net.start_flow_us_p90"},
          Call{"net.cancel_flow", "net.cancel_flow.calls",
               "net.cancel_flow_us_p50", "net.cancel_flow_us_p90"},
          Call{"net.meter_read", "net.meter_read.calls",
               "net.meter_read_us_p50", "net.meter_read_us_p90"}}) {
      const std::vector<double> us = DurationsUs(spans, call.span);
      m[call.calls] = CallsPerRep(spans, rep_ids, call.span);
      m[call.p50] = Percentile(us, 0.5);
      m[call.p90] = Percentile(us, 0.9);
    }
    m["net.active_flows_p50"] = Median(active_flows_);
    m["sim.run_until.self_s"] =
        MedianPerRep(spans, rep_ids, "sim.run_until", true);
    const double slices_s = MedianPerRep(spans, rep_ids, "slice", false);
    m["sim.host_ns_per_event"] =
        timed_events_ > 0 ? slices_s / static_cast<double>(timed_events_) * 1e9
                          : 0.0;
    std::vector<double> off;
    for (const Rep& rep : untraced) off.push_back(rep.setup_s + rep.timed_s);
    m["telemetry.on_off_ratio"] =
        (counted.setup_s + counted.timed_s) / Median(off);
    m["telemetry.render_s"] = render_s;
    m["telemetry.trace_bytes"] = trace_bytes;
  }

 private:
  Rep Pass(SpanRecorder* spans) {
    Rep rep;
    ChurnInputs in;
    std::unique_ptr<ChurnWorld> world;
    rep.setup_s = Timed(spans, "setup", [&] {
      Traced(spans, "churn.generate", [&] {
        in = GenerateInputs(seed_);
      });
      Traced(spans, "churn.build", [&] { world = BuildWorld(in, spans); });
    });
    net::Network& network = *world->network;
    const size_t num_sites = world->topology.num_sites();

    const uint64_t events_before = world->sim.events_fired();
    // Meters are cumulative, so neither read may fall between slices.
    double previous_sites = 0;
    double previous_sample = 0;
    const int slices = static_cast<int>(std::lround(kHorizonSec / kSliceSec));
    for (int k = 1; k <= slices; ++k) {
      double sites = 0;
      double sample = 0;
      rep.Step(spans, "slice", [&] {
        Traced(spans, "sim.run_until",
               [&] { world->sim.RunUntil(k * kSliceSec); });
        Traced(spans, "net.meter_read", [&] {
          for (net::SiteId s = 0; s < num_sites; ++s) {
            for (net::SiteId d = 0; d < num_sites; ++d) {
              sites += network.BytesBetweenSites(s, d);
            }
          }
          for (const uint32_t node : in.meter_sample) {
            sample += network.NodeEgressBytes(world->nodes[node]);
          }
        });
      });
      if (sites < previous_sites || sample < previous_sample) {
        rep.problems.push_back(StrFormat(
            "meters fell at t=%.3f: site pairs %.17g -> %.17g, sampled "
            "egress %.17g -> %.17g",
            k * kSliceSec, previous_sites, sites, previous_sample, sample));
      }
      previous_sites = sites;
      previous_sample = sample;
      if (spans != nullptr) {
        active_flows_.push_back(static_cast<double>(network.active_flows()));
      }
    }
    rep.sim_s = kHorizonSec;
    if (spans != nullptr) timed_events_ = world->sim.events_fired() - events_before;

    Traced(spans, "drain", [&] { world->sim.Run(); });
    Check(*world, &rep);
    return rep;
  }

  void Check(const ChurnWorld& w, Rep* rep) {
    ChurnTotals totals = w.totals;
    const net::Network& network = *w.network;
    for (const net::NodeId node : w.nodes) {
      totals.egress_bytes += network.NodeEgressBytes(node);
      totals.ingress_bytes += network.NodeIngressBytes(node);
    }
    const size_t num_sites = w.topology.num_sites();
    for (net::SiteId s = 0; s < num_sites; ++s) {
      for (net::SiteId d = 0; d < num_sites; ++d) {
        totals.site_pair_bytes += network.BytesBetweenSites(s, d);
      }
    }
    totals.active_after_drain = network.active_flows();
    std::vector<std::string> problems = CheckConservation(totals);
    const uint64_t expected_heartbeats =
        static_cast<uint64_t>(kHorizonSec) * w.nodes.size();
    if (w.heartbeats != expected_heartbeats) {
      problems.push_back(StrCat("heartbeats ", w.heartbeats, " != ",
                                expected_heartbeats));
    }
    if (w.stale_cancels != 0) {
      problems.push_back(StrCat(w.stale_cancels,
                                " cancels of in-flight flows returned false"));
    }
    rep->problems.insert(rep->problems.end(), problems.begin(), problems.end());
    rep->attempted += totals.starts + w.start_errors;
    rep->failed += w.start_errors;
    last_ = totals;
    peers_ = w.nodes.size();
  }

  std::string Summary() const override {
    return StrFormat(
        "%zu peers; per repetition %lld flows started, %lld completed, %lld "
        "cancelled, %.4g GB metered (egress = ingress = site pairs)",
        peers_, static_cast<long long>(last_.starts),
        static_cast<long long>(last_.completions),
        static_cast<long long>(last_.cancels), last_.egress_bytes / 1e9);
  }

  uint64_t seed_;
  ChurnTotals last_;  ///< The last checked repetition's accounting.
  size_t peers_ = 0;
  std::vector<double> active_flows_;  ///< At each traced slice end.
  uint64_t timed_events_ = 0;         ///< Fired in one traced rep's slices.
};

}  // namespace

uint64_t ChurnInputsDigest(uint64_t seed) {
  const ChurnInputs in = GenerateInputs(seed);
  uint64_t digest = kFnvBasis;
  for (const Arrival& a : in.flows) {
    FnvFold(&digest, StrFormat("%a %u %u %a;", a.at, a.src, a.dst, a.bytes));
  }
  for (const Cancel& c : in.cancels) {
    FnvFold(&digest, StrFormat("%a %a;", c.at, c.frac));
  }
  for (const uint32_t node : in.meter_sample) FnvFold(&digest, StrCat(node, ";"));
  return digest;
}

std::unique_ptr<WorkloadRunner> MakeFleetChurn(const RunOptions& options,
                                               Report* /*report*/) {
  return std::make_unique<FleetChurn>(options.seed);
}

}  // namespace perfbench
