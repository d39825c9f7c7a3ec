#include "collective/allreduce.h"

#include <algorithm>

#include "common/strings.h"
#include "models/calibration.h"
#include "telemetry/telemetry.h"

namespace hivesim::collective {

namespace {

/// Fills `by_site` with every peer, sorted by (site, peer index).
void GroupBySite(const std::vector<Peer>& peers,
                 const net::Topology& topology,
                 std::vector<SitePeer>* by_site) {
  by_site->resize(peers.size());
  for (size_t i = 0; i < peers.size(); ++i) {
    (*by_site)[i] = {topology.SiteOf(peers[i].node), static_cast<int>(i)};
  }
  std::sort(by_site->begin(), by_site->end(),
            [](const SitePeer& a, const SitePeer& b) {
              return a.site != b.site ? a.site < b.site : a.peer < b.peer;
            });
}

/// End of the site group that starts at `begin` in a sorted grouping.
size_t GroupEnd(const std::vector<SitePeer>& by_site, size_t begin) {
  size_t end = begin + 1;
  while (end < by_site.size() && by_site[end].site == by_site[begin].site) {
    ++end;
  }
  return end;
}

/// The effective strategy (kAuto resolved) for a grouping from
/// GroupBySite.
Strategy ChooseGrouped(const std::vector<SitePeer>& by_site,
                       const net::Topology& topology, Strategy requested) {
  if (requested != Strategy::kAuto) return requested;
  size_t groups = 0;
  bool all_singletons = true;
  bool all_groups = true;
  bool many_continents = false;
  for (size_t begin = 0, end = 0; begin < by_site.size(); begin = end) {
    end = GroupEnd(by_site, begin);
    ++groups;
    if (end - begin > 1) all_singletons = false;
    if (end - begin < 2) all_groups = false;
    if (topology.site(by_site[begin].site).continent !=
        topology.site(by_site.front().site).continent) {
      many_continents = true;
    }
  }
  if (groups <= 1) {
    return by_site.size() <= 4 ? Strategy::kFlatAllToAll : Strategy::kRing;
  }
  if (all_singletons) {
    return groups >= 3 ? Strategy::kStarViaHub : Strategy::kFlatAllToAll;
  }
  // Locality-aware grouping only forms when every site can build a local
  // group (the paper's C-6/C-8 and B-4..8 pattern). Lopsided fleets — a
  // single on-prem box plus a remote cloud pack (settings E/F) — fall
  // back to flat N-to-N, which is why their intercontinental NLP runs
  // collapse (Table 6's E-C-8 at 223.7 SPS).
  if (many_continents && all_groups) return Strategy::kHierarchical;
  return Strategy::kFlatAllToAll;
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

Result<Plan> BuildPlan(const std::vector<Peer>& peers,
                       const net::Topology& topology, Strategy requested) {
  Plan plan;
  HIVESIM_RETURN_IF_ERROR(BuildPlan(peers, topology, requested, &plan));
  return plan;
}

Status BuildPlan(const std::vector<Peer>& peers,
                 const net::Topology& topology, Strategy requested,
                 Plan* plan) {
  if (peers.size() < 2) {
    return Status::InvalidArgument("all-reduce needs at least two peers");
  }
  GroupBySite(peers, topology, &plan->by_site);
  plan->strategy = ChooseGrouped(plan->by_site, topology, requested);
  plan->hub = -1;
  const int n = static_cast<int>(peers.size());
  // Stages are sized before any is filled and addressed by index, so no
  // reference outlives a resize. Shrinking frees the dropped stages'
  // buffers; a round that repeats its strategy keeps all of them.
  std::vector<std::vector<Transfer>>& stages = plan->stages;

  switch (plan->strategy) {
    case Strategy::kFlatAllToAll: {
      stages.resize(1);
      stages[0].clear();
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if (i != j) stages[0].push_back({i, j});
        }
      }
      break;
    }
    case Strategy::kRing: {
      // Fluid model of a chunked ring all-reduce: each peer streams
      // 2(m-1)/m payloads to its successor over the round.
      stages.resize(1);
      stages[0].clear();
      const double factor = 2.0 * (n - 1) / n;
      for (int i = 0; i < n; ++i) {
        stages[0].push_back({i, (i + 1) % n, factor});
      }
      break;
    }
    case Strategy::kStarViaHub: {
      const int hub = PickHub(peers, topology);
      plan->hub = hub;
      // Gather and scatter run as one pipelined stage: the hub streams
      // averaged chunks back while later chunks are still arriving (the
      // fluid view of a chunked reduce-then-broadcast).
      stages.resize(1);
      stages[0].clear();
      for (int i = 0; i < n; ++i) {
        if (i == hub) continue;
        stages[0].push_back({i, hub});
        stages[0].push_back({hub, i});
      }
      break;
    }
    case Strategy::kHierarchical: {
      // Gather to each site's leader (its first peer), exchange between
      // the sites, scatter back; the local stages exist only when some
      // site holds more than one peer.
      const std::vector<SitePeer>& by_site = plan->by_site;
      const bool local =
          std::adjacent_find(by_site.begin(), by_site.end(),
                             [](const SitePeer& a, const SitePeer& b) {
                               return a.site == b.site;
                             }) != by_site.end();
      stages.resize(local ? 3 : 1);
      for (std::vector<Transfer>& stage : stages) stage.clear();
      const size_t exchange = local ? 1 : 0;
      for (size_t begin = 0, end = 0; begin < by_site.size(); begin = end) {
        end = GroupEnd(by_site, begin);
        const int leader = by_site[begin].peer;
        for (size_t m = begin + 1; m < end; ++m) {
          stages[0].push_back({by_site[m].peer, leader});
          stages[2].push_back({leader, by_site[m].peer});
        }
      }
      // Cross-group exchange, chunked over the members of both groups:
      // every member opens its own TCP stream, so the aggregate escapes
      // the per-stream WAN pacing (the Section 7 "one stream per peer"
      // observation; E-B's communication time *drops* with more peers).
      for (size_t from = 0, from_end = 0; from < by_site.size();
           from = from_end) {
        from_end = GroupEnd(by_site, from);
        const size_t from_size = from_end - from;
        for (size_t to = 0, to_end = 0; to < by_site.size(); to = to_end) {
          to_end = GroupEnd(by_site, to);
          if (to == from) continue;
          const size_t to_size = to_end - to;
          const int k = static_cast<int>(std::max(from_size, to_size));
          for (int i = 0; i < k; ++i) {
            stages[exchange].push_back({by_site[from + i % from_size].peer,
                                        by_site[to + i % to_size].peer,
                                        1.0 / k});
          }
        }
      }
      break;
    }
    case Strategy::kAuto:
      return Status::Internal("ChooseGrouped returned kAuto");
  }
  return Status::OK();
}

Status AllReduce::Start(const std::vector<Peer>& peers,
                        const AllReduceOptions& opts, DoneCallback done) {
  if (running_) {
    return Status::FailedPrecondition("all-reduce round already in flight");
  }
  if (opts.payload_bytes <= 0) {
    return Status::InvalidArgument("payload must be positive");
  }
  HIVESIM_RETURN_IF_ERROR(
      BuildPlan(peers, network_->topology(), opts.strategy, &plan_));

  running_ = true;
  ++generation_;
  peers_ = peers;
  opts_ = opts;
  done_ = std::move(done);
  start_time_ = network_->simulator().Now();
  stage_ = 0;
  RunStage();
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

void AllReduce::RunStage() {
  if (stage_ >= plan_.stages.size()) {
    running_ = false;
    AllReduceResult result;
    result.wall_sec = network_->simulator().Now() - start_time_;
    result.transfers = plan_.TotalTransfers();
    result.strategy = plan_.strategy;
    if (telemetry::Enabled()) {
      telemetry::Count("collective.rounds");
      telemetry::Count("collective.transfers", result.transfers);
      trace_name_ = "allreduce ";
      trace_name_ += StrategyName(result.strategy);
      trace_args_ = "{\"transfers\":";
      AppendInt(&trace_args_, result.transfers);
      trace_args_ += ",\"peers\":";
      AppendInt(&trace_args_, static_cast<int64_t>(peers_.size()));
      trace_args_ += '}';
      telemetry::Span(start_time_, network_->simulator().Now(), "collective",
                      trace_name_, trace_args_);
    }
    DoneCallback cb = std::move(done_);
    cb(result);
    return;
  }

  const std::vector<Transfer>& stage = plan_.stages[stage_];
  stage_start_ = network_->simulator().Now();
  stage_flows_.clear();
  aggregate_cpu_.assign(peers_.size(), 0.0);
  outstanding_flows_ = static_cast<int>(stage.size());
  if (outstanding_flows_ == 0) {
    ++stage_;
    RunStage();
    return;
  }

  const uint32_t gen = generation_;
  const double params = opts_.payload_bytes / 2.0;  // FP16: 2 B/param.
  for (uint32_t i = 0; i < stage.size(); ++i) {
    const Transfer& t = stage[i];
    // Receiver-side aggregation debt (overlapped with the transfers).
    aggregate_cpu_[t.dst] +=
        models::AccumulateSec(params * t.bytes_factor, peers_[t.dst].host);
    const double serialize = models::SerializeSec(params, peers_[t.src].host);
    // The flow starts once the sender has serialized its gradient.
    network_->simulator().Schedule(serialize, [this, gen, i] {
      if (gen == generation_) StartTransfer(i);
    });
  }
}

void AllReduce::StartTransfer(uint32_t index) {
  const Transfer& t = plan_.stages[stage_][index];
  const Peer& src = peers_[t.src];
  const Peer& dst = peers_[t.dst];
  net::FlowOptions flow_opts;
  flow_opts.streams = opts_.streams_per_transfer;
  flow_opts.app_rate_cap_bps =
      std::min(models::GradientStreamCapBps(src.host),
               models::GradientStreamCapBps(dst.host)) *
      std::max(1, opts_.streams_per_transfer);
  const uint32_t gen = generation_;
  auto flow = network_->StartFlow(
      src.node, dst.node, opts_.payload_bytes * t.bytes_factor,
      [this, gen] {
        if (gen == generation_) TransferDone();
      },
      flow_opts);
  if (flow.ok()) {
    stage_flows_.push_back(*flow);
  } else {
    TransferDone();
  }
}

void AllReduce::TransferDone() {
  if (--outstanding_flows_ == 0) FinishStage();
}

void AllReduce::FinishStage() {
  stage_flows_.clear();
  // Aggregation overlaps with the transfers: a receiver is done at
  // max(last byte in, stage start + its total accumulate CPU). All flows
  // are complete now, so only the CPU residual can extend the stage.
  const double now = network_->simulator().Now();
  double residual = 0;
  for (double cpu : aggregate_cpu_) {
    residual = std::max(residual, (stage_start_ + cpu) - now);
  }
  const uint32_t gen = generation_;
  network_->simulator().Schedule(std::max(0.0, residual), [this, gen] {
    if (gen != generation_) return;
    if (telemetry::Enabled()) {
      trace_name_ = "stage ";
      AppendInt(&trace_name_, static_cast<int64_t>(stage_));
      trace_args_ = "{\"transfers\":";
      AppendInt(&trace_args_,
                static_cast<int64_t>(plan_.stages[stage_].size()));
      trace_args_ += '}';
      telemetry::Span(stage_start_, network_->simulator().Now(), "collective",
                      trace_name_, trace_args_);
    }
    ++stage_;
    RunStage();
  });
}

}  // namespace hivesim::collective
