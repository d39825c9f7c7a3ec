// Property tests for the incremental fair-share solver: randomized
// arrival/cancel/finish sequences must produce the same rates as a
// retained full-rebuild oracle (the pre-incremental progressive-filling
// algorithm, solving every flow from scratch on each query), the lazily
// settled meters must match an eager per-step integration of those rates,
// and two identically seeded runs must be bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/network.h"
#include "net/profiles.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace hivesim::net {
namespace {

constexpr double kOracleEpsilonRate = 1e-9;

// What the test knows about one live flow; mirrors what it passed to
// StartFlow plus the derived per-flow cap.
struct OracleFlow {
  FlowId id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  double cap_bps = 0;
  double bytes = 0;
};

// The per-flow stream cap exactly as Network::StartFlow derives it:
// `streams` TCP streams, each bounded by min(endpoint windows)/RTT and
// any per-stream pacing, never exceeding the path or the app cap.
double StreamCap(const Topology& topo, NodeId src, NodeId dst,
                 const FlowOptions& options) {
  const Path path = *topo.PathBetweenNodes(src, dst);
  const int streams = std::max(1, options.streams);
  double per_stream = std::numeric_limits<double>::infinity();
  if (path.rtt_sec > 0) {
    const double window = std::min(topo.ConfigOf(src).tcp_window_bytes,
                                   topo.ConfigOf(dst).tcp_window_bytes);
    per_stream = window / path.rtt_sec;
  }
  if (path.single_stream_bps > 0) {
    per_stream = std::min(per_stream, path.single_stream_bps);
  }
  double cap = std::min(path.bandwidth_bps, streams * per_stream);
  return std::min(cap, options.app_rate_cap_bps);
}

// Full-rebuild max-min fair share: the retained reference implementation
// of the solver the incremental version replaced. Progressive filling —
// raise all unfrozen flows uniformly until a per-flow cap or a shared
// resource binds, freeze, repeat.
std::unordered_map<FlowId, double> OracleRates(
    const Topology& topo, const std::vector<OracleFlow>& flows) {
  struct Key {
    int kind;  // 0 egress, 1 ingress, 2 path.
    uint64_t a, b;
    bool operator==(const Key& o) const {
      return kind == o.kind && a == o.a && b == o.b;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.kind) << 62) ^
                                   (k.a * 0x9e3779b97f4a7c15ULL) ^ k.b);
    }
  };
  struct Res {
    double remaining = 0;
    int unfrozen = 0;
  };
  std::unordered_map<Key, Res, KeyHash> resources;
  struct Work {
    const OracleFlow* flow;
    Key keys[3];
    int num_keys = 0;
    double alloc = 0;
    bool frozen = false;
  };
  std::vector<Work> work;
  for (const OracleFlow& f : flows) {
    Work w;
    w.flow = &f;
    const SiteId ssite = topo.SiteOf(f.src);
    const SiteId dsite = topo.SiteOf(f.dst);
    Key keys[3];
    double caps[3];
    int n = 0;
    keys[n] = {0, f.src, 0};
    caps[n++] = topo.EgressCap(f.src);
    keys[n] = {1, f.dst, 0};
    caps[n++] = topo.IngressCap(f.dst);
    if (ssite != dsite) {
      keys[n] = {2, ssite, dsite};
      auto path = topo.PathBetween(ssite, dsite);
      caps[n++] = path.ok() ? path->bandwidth_bps : 0.0;
    }
    for (int i = 0; i < n; ++i) {
      w.keys[i] = keys[i];
      auto [it, inserted] = resources.try_emplace(keys[i]);
      if (inserted) it->second.remaining = caps[i];
      ++it->second.unfrozen;
    }
    w.num_keys = n;
    work.push_back(w);
  }

  size_t frozen_count = 0;
  while (frozen_count < work.size()) {
    double delta = std::numeric_limits<double>::infinity();
    for (const auto& [key, res] : resources) {
      if (res.unfrozen > 0) delta = std::min(delta, res.remaining / res.unfrozen);
    }
    for (const auto& w : work) {
      if (!w.frozen) delta = std::min(delta, w.flow->cap_bps - w.alloc);
    }
    if (!std::isfinite(delta) || delta < 0) delta = 0;
    for (auto& w : work) {
      if (!w.frozen) w.alloc += delta;
    }
    for (auto& [key, res] : resources) {
      res.remaining -= delta * res.unfrozen;
    }
    bool froze_any = false;
    for (auto& w : work) {
      if (w.frozen) continue;
      bool freeze = w.alloc >= w.flow->cap_bps - kOracleEpsilonRate;
      if (!freeze) {
        for (int i = 0; i < w.num_keys; ++i) {
          if (resources.at(w.keys[i]).remaining <= kOracleEpsilonRate) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        w.frozen = true;
        froze_any = true;
        ++frozen_count;
        for (int i = 0; i < w.num_keys; ++i) --resources.at(w.keys[i]).unfrozen;
      }
    }
    if (!froze_any) {
      for (auto& w : work) {
        if (!w.frozen) {
          w.frozen = true;
          ++frozen_count;
        }
      }
    }
  }

  std::unordered_map<FlowId, double> rates;
  for (const Work& w : work) rates[w.flow->id] = w.alloc;
  return rates;
}

// Harness for one randomized churn scenario against the oracle.
class SolverScenario {
 public:
  explicit SolverScenario(uint64_t seed) : rng_(seed) {
    topo_ = StandardWorld();
    for (SiteId site = 0; site < topo_.num_sites(); ++site) {
      for (int i = 0; i < 4; ++i) {
        nodes_.push_back(topo_.AddNode(site, CloudVmNetConfig()));
      }
    }
    network_ = std::make_unique<Network>(&sim_, &topo_);
  }

  void StartRandomFlow() {
    const size_t src_idx =
        static_cast<size_t>(rng_.UniformInt(0, nodes_.size() - 1));
    size_t dst_idx =
        static_cast<size_t>(rng_.UniformInt(0, nodes_.size() - 1));
    if (dst_idx == src_idx) dst_idx = (src_idx + 3) % nodes_.size();
    const NodeId src = nodes_[src_idx];
    const NodeId dst = nodes_[dst_idx];
    FlowOptions options;
    options.streams = static_cast<int>(rng_.UniformInt(1, 8));
    if (rng_.Bernoulli(0.3)) {
      options.app_rate_cap_bps = rng_.Uniform(10 * kMB, 500 * kMB);
    }
    const double bytes = rng_.Uniform(2 * kMB, 80 * kMB);
    // The completion callback erases the flow from the oracle's live set;
    // the id cell is filled in right after StartFlow returns, before any
    // simulated time (and hence the completion) can elapse.
    auto idcell = std::make_shared<FlowId>(0);
    auto id = network_->StartFlow(
        src, dst, bytes, [this, idcell] { live_.erase(*idcell); }, options);
    ASSERT_TRUE(id.ok());
    *idcell = *id;
    live_[*id] =
        OracleFlow{*id, src, dst, StreamCap(topo_, src, dst, options), bytes};
  }

  void CancelRandomFlow() {
    if (live_.empty()) return;
    auto it = live_.begin();
    std::advance(it, rng_.UniformInt(0, live_.size() - 1));
    EXPECT_TRUE(network_->CancelFlow(it->first));
    live_.erase(it);
  }

  void Advance(double dt) { sim_.RunUntil(sim_.Now() + dt); }

  void CheckRatesAgainstOracle() {
    std::vector<OracleFlow> flows;
    flows.reserve(live_.size());
    for (const auto& [id, f] : live_) flows.push_back(f);
    const auto expected = OracleRates(topo_, flows);
    for (const auto& [id, f] : live_) {
      const double got = network_->FlowRate(id);
      const double want = expected.at(id);
      const double tolerance = std::max(1.0, want * 1e-6);
      EXPECT_NEAR(got, want, tolerance)
          << "flow " << id << " src=" << f.src << " dst=" << f.dst
          << " cap=" << f.cap_bps;
    }
  }

  sim::Simulator sim_;
  Topology topo_;
  std::unique_ptr<Network> network_;
  std::vector<NodeId> nodes_;
  std::unordered_map<FlowId, OracleFlow> live_;
  Rng rng_;
};

TEST(NetSolverPropertyTest, RandomChurnMatchesFullRebuildOracle) {
  for (uint64_t seed : {3u, 17u, 101u}) {
    SolverScenario scenario(seed);
    for (int step = 0; step < 120; ++step) {
      const double roll = scenario.rng_.Uniform();
      if (roll < 0.55 || scenario.live_.size() < 4) {
        scenario.StartRandomFlow();
      } else if (roll < 0.8) {
        scenario.CancelRandomFlow();
      } else {
        scenario.Advance(scenario.rng_.Uniform(0.01, 0.5));
      }
      scenario.CheckRatesAgainstOracle();
    }
  }
}

// The same churn, but mutations arrive in same-instant batches inside one
// callback, so each batch is solved by a single cohort-end flush. Right
// after the batch's cohort — before any FlowRate() read could flush —
// every live flow with a positive rate must already hold its one
// completion event, and the rates must match the oracle.
TEST(NetSolverPropertyTest, SameInstantBatchesMatchFullRebuildOracle) {
  for (uint64_t seed : {3u, 17u, 101u}) {
    SolverScenario scenario(seed);
    for (int step = 0; step < 60; ++step) {
      if (scenario.live_.size() >= 4 && scenario.rng_.Uniform() < 0.3) {
        scenario.Advance(scenario.rng_.Uniform(0.01, 0.5));
      } else {
        const int batch = static_cast<int>(scenario.rng_.UniformInt(2, 8));
        scenario.sim_.Schedule(0, [&scenario, batch] {
          for (int i = 0; i < batch; ++i) {
            if (scenario.live_.size() < 4 ||
                scenario.rng_.Uniform() < 0.7) {
              scenario.StartRandomFlow();
            } else {
              scenario.CancelRandomFlow();
            }
          }
        });
        scenario.Advance(0);  // The batch's cohort and its flush.
      }
      const size_t pending = scenario.sim_.pending();
      size_t moving = 0;
      for (const auto& [id, f] : scenario.live_) {
        if (scenario.network_->FlowRate(id) > kOracleEpsilonRate) ++moving;
      }
      EXPECT_EQ(pending, moving) << "seed " << seed << " step " << step;
      scenario.CheckRatesAgainstOracle();
    }
  }
}

// K NIC-bound flows opened in one callback (an all-reduce stage) are
// solved once, after the callback, so no completion event is ever
// scheduled and then cancelled — neither at the start nor when all K
// finish together. Solving per start would cancel 0 + 1 + ... + K-1.
TEST(NetSolverPropertyTest, SameInstantStartsCancelNoCompletionEvents) {
  constexpr int kFlows = 16;
  telemetry::TraceRecorder trace;
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(&trace, &metrics);
  sim::Simulator sim;
  Topology topo = StandardWorld();
  std::vector<NodeId> nodes;
  for (int i = 0; i <= kFlows; ++i) {
    nodes.push_back(topo.AddNode(0, CloudVmNetConfig()));
  }
  Network network(&sim, &topo);
  std::vector<FlowId> ids;
  std::vector<double> done_at;
  sim.Schedule(0, [&] {
    for (int i = 1; i <= kFlows; ++i) {
      auto id = network.StartFlow(nodes[0], nodes[i], 100 * kMB,
                                  [&] { done_at.push_back(sim.Now()); });
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
  });
  sim.RunUntil(0);
  EXPECT_EQ(metrics.CounterValue("sim.events_cancelled"), 0.0);
  EXPECT_EQ(sim.pending(), static_cast<size_t>(kFlows));
  const double share = topo.EgressCap(nodes[0]) / kFlows;
  for (const FlowId id : ids) {
    ASSERT_NEAR(network.FlowRate(id), share, share * 1e-12);
  }

  sim.Run();
  ASSERT_EQ(done_at.size(), static_cast<size_t>(kFlows));
  for (const double t : done_at) EXPECT_EQ(t, done_at.front());
  EXPECT_NEAR(done_at.front(), 100 * kMB / share, 1e-9);
  EXPECT_EQ(metrics.CounterValue("sim.events_cancelled"), 0.0);
}

TEST(NetSolverPropertyTest, RefreshAfterPathChangeMatchesOracle) {
  SolverScenario scenario(/*seed=*/7);
  for (int i = 0; i < 24; ++i) scenario.StartRandomFlow();
  scenario.CheckRatesAgainstOracle();

  // Degrade the first WAN path the topology knows, then recover it; the
  // oracle reads the same topology, so both must track the change.
  scenario.topo_.SetPath(0, 1, MbpsToBytesPerSec(20), MsToSec(300));
  scenario.network_->Refresh();
  scenario.CheckRatesAgainstOracle();

  scenario.topo_.SetPath(0, 1, MbpsToBytesPerSec(210), MsToSec(103));
  scenario.network_->Refresh();
  scenario.CheckRatesAgainstOracle();
}

// Differential meter oracle: the eager semantics lazy settlement replaced.
// The oracle integrates every live flow's FlowRate() over each simulated
// step itself, booking min(remaining, rate * dt) per step as the old
// walk over all flows did on every event, and keeps its own node-pair,
// site-pair, egress and ingress meters. Lazy settlement regroups the same
// products into fewer, longer intervals, so the network's meters must
// agree to rounding (relative 1e-9), plus at most one byte of unbooked
// completion residue per flow that ended on the meter.
class MeterOracle {
 public:
  explicit MeterOracle(SolverScenario* scenario) : s_(scenario) {
    const size_t nodes = s_->topo_.num_nodes();
    const size_t sites = s_->topo_.num_sites();
    node_pair_.resize(nodes * nodes);
    site_pair_.resize(sites * sites);
    egress_.resize(nodes);
    ingress_.resize(nodes);
  }

  /// Picks up the flows started, cancelled or completed at this instant
  /// and snapshots every live flow's rate, valid until the next event.
  void Sync() {
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (s_->live_.count(it->first) != 0) {
        ++it;
        continue;
      }
      for (Meter* meter : MetersOf(it->second)) ++meter->ended;
      it = flows_.erase(it);
    }
    for (const auto& [id, f] : s_->live_) {
      flows_.try_emplace(id, Live{f.src, f.dst, f.bytes, 0});
    }
    for (auto& [id, live] : flows_) live.rate = s_->network_->FlowRate(id);
  }

  /// Fires one event and books each flow's pre-event rate over the step.
  /// Returns false when the simulation has no event left.
  bool Step() {
    const double before = s_->sim_.Now();
    if (!s_->sim_.Step()) return false;
    const double dt = s_->sim_.Now() - before;
    for (auto& [id, live] : flows_) {
      const double moved = std::min(live.remaining, live.rate * dt);
      if (moved <= 0) continue;
      live.remaining -= moved;
      for (Meter* meter : MetersOf(live)) meter->bytes += moved;
    }
    Sync();
    return true;
  }

  /// Reads every meter the network serves and compares it with the
  /// oracle's, then checks that the four meter families conserve bytes.
  void Check() {
    const Network& network = *s_->network_;
    const Topology& topo = s_->topo_;
    const size_t nodes = topo.num_nodes();
    const size_t sites = topo.num_sites();
    double node_pairs = 0, site_pairs = 0, egress = 0, ingress = 0;
    for (NodeId src = 0; src < nodes; ++src) {
      for (NodeId dst = 0; dst < nodes; ++dst) {
        const double got = network.BytesBetweenNodes(src, dst);
        Expect(got, node_pair_[src * nodes + dst], "node pair", src, dst);
        node_pairs += got;
      }
      const double out = network.NodeEgressBytes(src);
      const double in = network.NodeIngressBytes(src);
      Expect(out, egress_[src], "egress", src, src);
      Expect(in, ingress_[src], "ingress", src, src);
      egress += out;
      ingress += in;
    }
    for (SiteId src = 0; src < sites; ++src) {
      for (SiteId dst = 0; dst < sites; ++dst) {
        const double got = network.BytesBetweenSites(src, dst);
        Expect(got, site_pair_[src * sites + dst], "site pair", src, dst);
        site_pairs += got;
      }
    }
    EXPECT_NEAR(ingress, egress, 1e-9 * egress) << "at t=" << s_->sim_.Now();
    EXPECT_NEAR(site_pairs, egress, 1e-9 * egress) << "at t=" << s_->sim_.Now();
    EXPECT_NEAR(node_pairs, egress, 1e-9 * egress) << "at t=" << s_->sim_.Now();
    ++checks_;
  }

  int checks() const { return checks_; }

 private:
  struct Meter {
    double bytes = 0;
    int ended = 0;  ///< Flows on this meter that finished or were cancelled.
  };
  struct Live {
    NodeId src = 0;
    NodeId dst = 0;
    double remaining = 0;
    double rate = 0;
  };

  std::array<Meter*, 4> MetersOf(const Live& live) {
    const size_t nodes = s_->topo_.num_nodes();
    const size_t sites = s_->topo_.num_sites();
    const SiteId src_site = s_->topo_.SiteOf(live.src);
    const SiteId dst_site = s_->topo_.SiteOf(live.dst);
    return {&node_pair_[live.src * nodes + live.dst],
            &site_pair_[src_site * sites + dst_site], &egress_[live.src],
            &ingress_[live.dst]};
  }

  void Expect(double got, const Meter& want, const char* what, uint32_t a,
              uint32_t b) const {
    EXPECT_NEAR(got, want.bytes, 1e-9 * want.bytes + want.ended)
        << what << " " << a << "->" << b << " at t=" << s_->sim_.Now();
  }

  SolverScenario* s_;
  std::map<FlowId, Live> flows_;
  std::vector<Meter> node_pair_;
  std::vector<Meter> site_pair_;
  std::vector<Meter> egress_;
  std::vector<Meter> ingress_;
  int checks_ = 0;
};

TEST(NetSolverPropertyTest, LazyMetersMatchEagerIntegrationOracle) {
  for (uint64_t seed : {5u, 29u, 211u}) {
    SolverScenario scenario(seed);
    MeterOracle oracle(&scenario);
    Rng& rng = scenario.rng_;
    const SiteId sites = static_cast<SiteId>(scenario.topo_.num_sites());
    for (int step = 0; step < 600; ++step) {
      const double roll = rng.Uniform();
      if (roll < 0.2 || scenario.live_.size() < 3) {
        scenario.StartRandomFlow();
      } else if (roll < 0.3) {
        scenario.CancelRandomFlow();
      } else if (roll < 0.35) {
        // Live WAN degradation or recovery on a random site pair.
        const SiteId a = static_cast<SiteId>(rng.UniformInt(0, sites - 1));
        const SiteId b = static_cast<SiteId>(
            (a + rng.UniformInt(1, sites - 1)) % sites);
        scenario.topo_.SetPath(a, b, MbpsToBytesPerSec(rng.Uniform(20, 2000)),
                               MsToSec(rng.Uniform(5, 300)));
        scenario.network_->Refresh();
      } else if (roll < 0.5) {
        oracle.Check();
      } else if (roll < 0.6) {
        // A bare event so the next steps land between flow events too.
        scenario.sim_.Schedule(rng.Uniform(0, 0.05), [] {});
      } else {
        oracle.Step();
      }
      oracle.Sync();
    }
    while (oracle.Step()) {
    }
    EXPECT_TRUE(scenario.live_.empty());
    oracle.Check();
    EXPECT_GT(oracle.checks(), 50) << "seed " << seed;
  }
}

// Fleet-scale oracle check: a single connected component of ten thousand
// flows through the SoA slab path: 100 node-disjoint islands of 100
// intra-site flows each, then 99 cross-site bridge flows chaining the
// islands — and the WAN paths they share — into one component. Every
// start only marks its resources dirty; the first FlowRate() flushes the
// ~30k dirty seeds, which must come to one solve of the whole component.
// The full-rebuild oracle then prices all ~10k flows at once.
TEST(NetSolverPropertyTest, TenThousandFlowComponentMatchesOracle) {
  sim::Simulator sim;
  Topology topo = StandardWorld();
  constexpr int kSets = 100;
  constexpr int kNodesPerSet = 10;
  constexpr int kFlowsPerSet = 100;
  std::vector<std::vector<NodeId>> sets(kSets);
  for (int c = 0; c < kSets; ++c) {
    const SiteId site = static_cast<SiteId>(c) % topo.num_sites();
    for (int i = 0; i < kNodesPerSet; ++i) {
      sets[c].push_back(topo.AddNode(site, CloudVmNetConfig()));
    }
  }
  Network network(&sim, &topo);
  Rng rng(4242);

  std::vector<OracleFlow> flows;
  const auto start = [&](NodeId src, NodeId dst, const FlowOptions& options) {
    // Effectively infinite payloads: nothing completes while the
    // component is assembled, so the oracle sees every flow.
    auto id = network.StartFlow(src, dst, 1e15, nullptr, options);
    ASSERT_TRUE(id.ok());
    flows.push_back(
        OracleFlow{*id, src, dst, StreamCap(topo, src, dst, options)});
  };
  for (int c = 0; c < kSets; ++c) {
    for (int f = 0; f < kFlowsPerSet; ++f) {
      const size_t a =
          static_cast<size_t>(rng.UniformInt(0, kNodesPerSet - 1));
      size_t b = static_cast<size_t>(rng.UniformInt(0, kNodesPerSet - 1));
      if (b == a) b = (a + 1) % kNodesPerSet;
      FlowOptions options;
      // A small palette of stream counts keeps the cap distribution
      // clumpy: long equal-cap runs stress the sorted prefix freeze.
      options.streams = 1 + (f % 4);
      start(sets[c][a], sets[c][b], options);
    }
  }
  for (int c = 0; c + 1 < kSets; ++c) {
    FlowOptions options;
    options.streams = 4;
    // Consecutive islands sit on different sites (c and c+1 differ mod
    // 8), so every bridge is a WAN flow sharing a path resource.
    start(sets[c][0], sets[c + 1][0], options);
  }
  ASSERT_EQ(flows.size(), static_cast<size_t>(kSets * kFlowsPerSet) +
                              static_cast<size_t>(kSets - 1));

  const auto expected = OracleRates(topo, flows);
  int mismatches = 0;
  for (const OracleFlow& f : flows) {
    const double got = network.FlowRate(f.id);
    const double want = expected.at(f.id);
    if (std::fabs(got - want) > std::max(1.0, want * 1e-6)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "flow " << f.id << " src=" << f.src
                      << " dst=" << f.dst << " cap=" << f.cap_bps
                      << ": got " << got << " want " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Boundary regression for the sorted prefix freeze: the solver's round
// loop pops cap-frozen flows with `if (level < cap - eps) break`, so a
// run of *equal* caps must freeze together in one round — an early break
// (or an off-by-epsilon comparison) would strand the tail of the run at
// the wrong level. Exercised exactly at the coincidence point where the
// shared resource drains in the same round the caps bind.
TEST(NetSolverPropertyTest, EqualCapRunFreezesTogetherAtBoundary) {
  sim::Simulator sim;
  Topology topo = StandardWorld();
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(topo.AddNode(0, CloudVmNetConfig()));
  }
  Network network(&sim, &topo);
  const double egress = topo.EgressCap(nodes[0]);
  ASSERT_GT(egress, 0);

  // Four flows out of one NIC to distinct receivers, every one app-capped
  // at exactly a quarter of the NIC: the water level reaches the common
  // cap in the same instant the NIC drains (4 * cap == capacity), firing
  // the cap freeze and the drain freeze in the same round.
  FlowOptions options;
  options.app_rate_cap_bps = egress / 4;
  std::vector<OracleFlow> flows;
  for (int i = 0; i < 4; ++i) {
    auto id = network.StartFlow(nodes[0], nodes[1 + i], 1e15, nullptr,
                                options);
    ASSERT_TRUE(id.ok());
    flows.push_back(OracleFlow{*id, nodes[0], nodes[1 + i],
                               StreamCap(topo, nodes[0], nodes[1 + i],
                                         options)});
  }
  // The scenario only tests the boundary if the app cap is what binds.
  for (const OracleFlow& f : flows) {
    ASSERT_DOUBLE_EQ(f.cap_bps, egress / 4);
  }

  // Every member of the equal-cap run lands on the same water level —
  // bit-identical, not merely close.
  const double first = network.FlowRate(flows[0].id);
  EXPECT_NEAR(first, egress / 4, std::max(1.0, egress * 1e-9));
  for (const OracleFlow& f : flows) {
    EXPECT_EQ(network.FlowRate(f.id), first)
        << "equal-cap flow " << f.id << " stranded at a different level";
  }
  const auto expected = OracleRates(topo, flows);
  for (const OracleFlow& f : flows) {
    EXPECT_NEAR(network.FlowRate(f.id), expected.at(f.id),
                std::max(1.0, expected.at(f.id) * 1e-6));
  }

  // A fifth, uncapped flow joins: the four stay pinned at their cap and
  // the newcomer absorbs the slack fair share.
  auto big = network.StartFlow(nodes[0], nodes[5], 1e15, nullptr);
  ASSERT_TRUE(big.ok());
  flows.push_back(OracleFlow{*big, nodes[0], nodes[5],
                             StreamCap(topo, nodes[0], nodes[5],
                                       FlowOptions())});
  const auto with_big = OracleRates(topo, flows);
  for (const OracleFlow& f : flows) {
    EXPECT_NEAR(network.FlowRate(f.id), with_big.at(f.id),
                std::max(1.0, with_big.at(f.id) * 1e-6))
        << "flow " << f.id;
  }
}

// Completion-order log of one seeded churn run; two runs must match
// exactly (bit-identical times, identical order).
std::vector<std::pair<double, uint64_t>> RunSeededChurn(uint64_t seed) {
  SolverScenario scenario(seed);
  std::vector<std::pair<double, uint64_t>> log;
  for (int i = 0; i < 40; ++i) {
    const NodeId src = scenario.nodes_[i % scenario.nodes_.size()];
    const NodeId dst =
        scenario.nodes_[(i * 7 + 3) % scenario.nodes_.size()];
    if (src == dst) continue;
    const double bytes = scenario.rng_.Uniform(2 * kMB, 40 * kMB);
    const uint64_t tag = i;
    auto id = scenario.network_->StartFlow(
        src, dst, bytes,
        [&log, &scenario, tag] {
          log.emplace_back(scenario.sim_.Now(), tag);
        });
    EXPECT_TRUE(id.ok());
  }
  scenario.sim_.Run();
  return log;
}

TEST(NetSolverPropertyTest, SameSeedTwiceIsBitIdentical) {
  const auto a = RunSeededChurn(23);
  const auto b = RunSeededChurn(23);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "completion time diverged at " << i;
    EXPECT_EQ(a[i].second, b[i].second) << "completion order diverged at " << i;
  }
}

}  // namespace
}  // namespace hivesim::net
