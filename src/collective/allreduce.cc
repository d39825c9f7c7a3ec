#include "collective/allreduce.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"
#include "models/calibration.h"
#include "telemetry/telemetry.h"

namespace hivesim::collective {

namespace {

/// Site -> peer indices, in peer order.
std::map<net::SiteId, std::vector<int>> GroupBySite(
    const std::vector<Peer>& peers, const net::Topology& topology) {
  std::map<net::SiteId, std::vector<int>> groups;
  for (size_t i = 0; i < peers.size(); ++i) {
    groups[topology.SiteOf(peers[i].node)].push_back(static_cast<int>(i));
  }
  return groups;
}

/// Peer with the highest aggregate path bandwidth to all other peers —
/// the natural hub (the US node in the paper's C experiments).
int PickHub(const std::vector<Peer>& peers, const net::Topology& topology) {
  int best = 0;
  double best_score = -1;
  for (size_t i = 0; i < peers.size(); ++i) {
    double score = 0;
    for (size_t j = 0; j < peers.size(); ++j) {
      if (i == j) continue;
      auto path = topology.PathBetweenNodes(peers[i].node, peers[j].node);
      if (path.ok()) score += path->bandwidth_bps;
    }
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

std::string_view StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kAuto:
      return "auto";
    case Strategy::kFlatAllToAll:
      return "flat-all-to-all";
    case Strategy::kRing:
      return "ring";
    case Strategy::kStarViaHub:
      return "star-via-hub";
    case Strategy::kHierarchical:
      return "hierarchical";
  }
  return "?";
}

int Plan::TotalTransfers() const {
  int total = 0;
  for (const auto& stage : stages) total += static_cast<int>(stage.size());
  return total;
}

Strategy ChooseStrategy(const std::vector<Peer>& peers,
                        const net::Topology& topology, Strategy requested) {
  if (requested != Strategy::kAuto) return requested;
  const auto groups = GroupBySite(peers, topology);
  if (groups.size() <= 1) {
    return peers.size() <= 4 ? Strategy::kFlatAllToAll : Strategy::kRing;
  }

  bool all_singletons = true;
  bool all_groups = true;
  std::set<net::Continent> continents;
  for (const auto& [site, members] : groups) {
    if (members.size() > 1) all_singletons = false;
    if (members.size() < 2) all_groups = false;
    continents.insert(topology.site(site).continent);
  }
  if (all_singletons) {
    return groups.size() >= 3 ? Strategy::kStarViaHub
                              : Strategy::kFlatAllToAll;
  }
  // Locality-aware grouping only forms when every site can build a local
  // group (the paper's C-6/C-8 and B-4..8 pattern). Lopsided fleets — a
  // single on-prem box plus a remote cloud pack (settings E/F) — fall
  // back to flat N-to-N, which is why their intercontinental NLP runs
  // collapse (Table 6's E-C-8 at 223.7 SPS).
  if (continents.size() > 1 && all_groups) return Strategy::kHierarchical;
  return Strategy::kFlatAllToAll;
}

Result<Plan> BuildPlan(const std::vector<Peer>& peers,
                       const net::Topology& topology, Strategy requested) {
  if (peers.size() < 2) {
    return Status::InvalidArgument("all-reduce needs at least two peers");
  }
  Plan plan;
  plan.strategy = ChooseStrategy(peers, topology, requested);
  const int n = static_cast<int>(peers.size());

  switch (plan.strategy) {
    case Strategy::kFlatAllToAll: {
      std::vector<Transfer> stage;
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if (i != j) stage.push_back({i, j});
        }
      }
      plan.stages.push_back(std::move(stage));
      break;
    }
    case Strategy::kRing: {
      // Fluid model of a chunked ring all-reduce: each peer streams
      // 2(m-1)/m payloads to its successor over the round.
      std::vector<Transfer> stage;
      const double factor = 2.0 * (n - 1) / n;
      for (int i = 0; i < n; ++i) {
        stage.push_back({i, (i + 1) % n, factor});
      }
      plan.stages.push_back(std::move(stage));
      break;
    }
    case Strategy::kStarViaHub: {
      plan.hub = PickHub(peers, topology);
      // Gather and scatter run as one pipelined stage: the hub streams
      // averaged chunks back while later chunks are still arriving (the
      // fluid view of a chunked reduce-then-broadcast).
      std::vector<Transfer> stage;
      for (int i = 0; i < n; ++i) {
        if (i == plan.hub) continue;
        stage.push_back({i, plan.hub});
        stage.push_back({plan.hub, i});
      }
      plan.stages.push_back(std::move(stage));
      break;
    }
    case Strategy::kHierarchical: {
      const auto groups = GroupBySite(peers, topology);
      std::vector<std::vector<int>> member_lists;
      std::vector<Transfer> gather, exchange, scatter;
      for (const auto& [site, members] : groups) {
        member_lists.push_back(members);
        const int leader = members.front();
        for (size_t m = 1; m < members.size(); ++m) {
          gather.push_back({members[m], leader});
          scatter.push_back({leader, members[m]});
        }
      }
      // Cross-group exchange, chunked over the members of both groups:
      // every member opens its own TCP stream, so the aggregate escapes
      // the per-stream WAN pacing (the Section 7 "one stream per peer"
      // observation; E-B's communication time *drops* with more peers).
      for (const auto& from : member_lists) {
        for (const auto& to : member_lists) {
          if (&from == &to) continue;
          const int k = static_cast<int>(std::max(from.size(), to.size()));
          for (int i = 0; i < k; ++i) {
            exchange.push_back({from[i % from.size()], to[i % to.size()],
                                1.0 / k});
          }
        }
      }
      if (!gather.empty()) plan.stages.push_back(std::move(gather));
      plan.stages.push_back(std::move(exchange));
      if (!scatter.empty()) plan.stages.push_back(std::move(scatter));
      break;
    }
    case Strategy::kAuto:
      return Status::Internal("ChooseStrategy returned kAuto");
  }
  return plan;
}

Status AllReduce::Start(const std::vector<Peer>& peers,
                        const AllReduceOptions& opts, DoneCallback done) {
  if (running_) {
    return Status::FailedPrecondition("all-reduce round already in flight");
  }
  if (opts.payload_bytes <= 0) {
    return Status::InvalidArgument("payload must be positive");
  }
  Plan plan;
  HIVESIM_ASSIGN_OR_RETURN(
      plan, BuildPlan(peers, network_->topology(), opts.strategy));

  running_ = true;
  ++generation_;
  peers_ = peers;
  opts_ = opts;
  plan_ = std::move(plan);
  done_ = std::move(done);
  start_time_ = network_->simulator().Now();
  RunStage(0);
  return Status::OK();
}

void AllReduce::Abort() {
  if (!running_) return;
  for (net::FlowId f : stage_flows_) network_->CancelFlow(f);
  stage_flows_.clear();
  running_ = false;
  ++generation_;
  if (telemetry::Enabled()) {
    telemetry::Count("collective.aborts");
    telemetry::Instant(network_->simulator().Now(), "collective",
                       "allreduce-abort");
  }
  if (done_) {
    DoneCallback cb = std::move(done_);
    cb(Status::Unavailable("all-reduce aborted"));
  }
}

void AllReduce::RunStage(size_t stage_index) {
  if (stage_index >= plan_.stages.size()) {
    running_ = false;
    AllReduceResult result;
    result.wall_sec = network_->simulator().Now() - start_time_;
    result.transfers = plan_.TotalTransfers();
    result.strategy = plan_.strategy;
    if (telemetry::Enabled()) {
      telemetry::Count("collective.rounds");
      telemetry::Count("collective.transfers", result.transfers);
      telemetry::Span(
          start_time_, network_->simulator().Now(), "collective",
          StrCat("allreduce ", StrategyName(result.strategy)),
          StrFormat("{\"transfers\":%d,\"peers\":%zu}", result.transfers,
                    peers_.size()));
    }
    DoneCallback cb = std::move(done_);
    cb(result);
    return;
  }

  const auto& stage = plan_.stages[stage_index];
  stage_start_ = network_->simulator().Now();
  stage_flows_.clear();
  aggregate_cpu_.assign(peers_.size(), 0.0);
  outstanding_flows_ = static_cast<int>(stage.size());
  if (outstanding_flows_ == 0) {
    RunStage(stage_index + 1);
    return;
  }

  const uint64_t gen = generation_;
  const double params = opts_.payload_bytes / 2.0;  // FP16: 2 B/param.

  for (const Transfer& t : stage) {
    const Peer& src = peers_[t.src];
    const Peer& dst = peers_[t.dst];
    // Receiver-side aggregation debt (overlapped with the transfers).
    if (opts_.model_cpu_costs) {
      aggregate_cpu_[t.dst] +=
          models::AccumulateSec(params * t.bytes_factor, dst.host);
    }
    const double serialize =
        opts_.model_cpu_costs ? models::SerializeSec(params, src.host) : 0.0;

    net::FlowOptions flow_opts;
    flow_opts.streams = opts_.streams_per_transfer;
    flow_opts.app_rate_cap_bps =
        std::min(models::GradientStreamCapBps(src.host),
                 models::GradientStreamCapBps(dst.host)) *
        std::max(1, opts_.streams_per_transfer);
    if (!opts_.model_cpu_costs) {
      flow_opts.app_rate_cap_bps =
          std::numeric_limits<double>::infinity();
    }

    // The flow starts once the sender has serialized its gradient.
    network_->simulator().Schedule(
        serialize, [this, gen, t, flow_opts, stage_index] {
          if (gen != generation_) return;
          auto flow = network_->StartFlow(
              peers_[t.src].node, peers_[t.dst].node,
              opts_.payload_bytes * t.bytes_factor,
              [this, gen, stage_index] {
                if (gen != generation_) return;
                if (--outstanding_flows_ == 0) FinishStage(stage_index);
              },
              flow_opts);
          if (flow.ok()) {
            stage_flows_.push_back(*flow);
          } else if (--outstanding_flows_ == 0) {
            FinishStage(stage_index);
          }
        });
  }
}

void AllReduce::FinishStage(size_t stage_index) {
  stage_flows_.clear();
  // Aggregation overlaps with the transfers: a receiver is done at
  // max(last byte in, stage start + its total accumulate CPU). All flows
  // are complete now, so only the CPU residual can extend the stage.
  const double now = network_->simulator().Now();
  double residual = 0;
  for (double cpu : aggregate_cpu_) {
    residual = std::max(residual, (stage_start_ + cpu) - now);
  }
  const uint64_t gen = generation_;
  const double stage_start = stage_start_;
  const size_t transfers = plan_.stages[stage_index].size();
  network_->simulator().Schedule(std::max(0.0, residual),
                                 [this, gen, stage_index, stage_start,
                                  transfers] {
                                   if (gen != generation_) return;
                                   if (telemetry::Enabled()) {
                                     telemetry::Span(
                                         stage_start,
                                         network_->simulator().Now(),
                                         "collective",
                                         StrFormat("stage %zu", stage_index),
                                         StrFormat("{\"transfers\":%zu}",
                                                   transfers));
                                   }
                                   RunStage(stage_index + 1);
                                 });
}

}  // namespace hivesim::collective
