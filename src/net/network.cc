#include "net/network.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace hivesim::net {

namespace {
// Flows are megabytes; anything below one byte is floating-point residue.
constexpr double kEpsilonBytes = 1.0;
constexpr double kEpsilonRate = 1e-9;

uint64_t NodePairKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

// "flow 3->7" / "flow-cancel 3->7": a flow span's or instant's name,
// written over `*name` (a buffer the network reuses for every event).
std::string_view FlowEventName(std::string* name, std::string_view prefix,
                               NodeId src, NodeId dst) {
  name->assign(prefix);
  AppendInt(name, src);
  *name += "->";
  AppendInt(name, dst);
  return *name;
}

// A flow event's args: {"<bytes_key>":<bytes as %.0f>,"src_zone":"...",
// "dst_zone":"..."}, without the bytes field when `bytes_key` is empty.
// Zone identity lets the critical-path analyzer (telemetry/analysis.h)
// attribute flow time to WAN links without re-deriving the topology.
// Written over `*args`, like `FlowEventName`.
std::string_view ZoneArgs(std::string* args, std::string_view bytes_key,
                          double bytes, std::string_view src_zone,
                          std::string_view dst_zone) {
  args->assign(1, '{');
  if (!bytes_key.empty()) {
    *args += '"';
    *args += bytes_key;
    *args += "\":";
    AppendFixed(args, bytes, 0);
    *args += ',';
  }
  *args += "\"src_zone\":\"";
  *args += src_zone;
  *args += "\",\"dst_zone\":\"";
  *args += dst_zone;
  *args += "\"}";
  return *args;
}
}  // namespace

// Meters are sized on the first delivery (GrowMeters), not here: a world
// that never moves a byte allocates none, and reads are bounds-checked.
Network::Network(sim::Simulator* sim, const Topology* topology)
    : sim_(sim), topology_(topology) {}

void Network::GrowMeters() {
  const size_t nodes = topology_->num_nodes();
  if (node_egress_bytes_.size() < nodes) {
    node_egress_bytes_.resize(nodes, 0.0);
    node_ingress_bytes_.resize(nodes, 0.0);
    node_peak_egress_.resize(nodes, 0.0);
    egress_res_.resize(nodes, kNoRes);
    ingress_res_.resize(nodes, kNoRes);
  }
  const size_t sites = topology_->num_sites();
  if (sites <= site_stride_) return;
  // Re-lay the matrix and its path-slot array at the new stride and
  // re-point the live flows' cached site-pair slots. Sites are added
  // rarely, flows often.
  std::vector<double> grown(sites * sites, 0.0);
  std::vector<ResSlot> grown_paths(sites * sites, kNoRes);
  for (size_t src = 0; src < site_stride_; ++src) {
    std::copy_n(site_pair_bytes_.begin() + src * site_stride_, site_stride_,
                grown.begin() + src * sites);
    std::copy_n(path_res_.begin() + src * site_stride_, site_stride_,
                grown_paths.begin() + src * sites);
  }
  site_pair_bytes_ = std::move(grown);
  path_res_ = std::move(grown_paths);
  if (!zone_counters_.empty()) {  // Only telemetry creates them.
    std::vector<std::unique_ptr<telemetry::CounterHandle>> grown_counters(
        sites * sites);
    for (size_t src = 0; src < site_stride_; ++src) {
      std::move(zone_counters_.begin() + src * site_stride_,
                zone_counters_.begin() + (src + 1) * site_stride_,
                grown_counters.begin() + src * sites);
    }
    zone_counters_ = std::move(grown_counters);
  }
  site_stride_ = sites;
  for (Flow& flow : flow_slab_) {
    if (flow.seq != 0) {
      flow.site_pair = SitePairIndex(flow.src_site, flow.dst_site);
    }
  }
}

uint32_t Network::NodePairSlot(NodeId src, NodeId dst) {
  auto [it, inserted] = node_pair_index_.try_emplace(
      NodePairKey(src, dst), static_cast<uint32_t>(node_pair_bytes_.size()));
  if (inserted) node_pair_bytes_.push_back(0.0);
  return it->second;
}

Network::FlowSlot Network::AllocFlowSlot() {
  ++live_flows_;
  if (!free_flow_slots_.empty()) {
    const FlowSlot slot = free_flow_slots_.back();
    free_flow_slots_.pop_back();
    return slot;
  }
  const FlowSlot slot = static_cast<FlowSlot>(flow_slab_.size());
  flow_slab_.emplace_back();
  user_links_.emplace_back();
  flow_mark_.push_back(0);
  flow_comp_pos_.push_back(0);
  return slot;
}

void Network::FreeFlowSlot(FlowSlot slot) {
  Flow& flow = flow_slab_[slot];
  flow.seq = 0;
  if (++flow.generation == 0) flow.generation = 1;  // Keep handles nonzero.
  flow.on_complete = nullptr;
  flow.has_completion_event = false;
  flow.num_res = 0;
  free_flow_slots_.push_back(slot);
  --live_flows_;
}

bool Network::LiveSlot(FlowId id, FlowSlot* slot) const {
  const FlowSlot s = static_cast<FlowSlot>(id >> 32);
  // A latency-tagged id decodes to a slot >= 2^31, past any slab.
  if (s >= flow_slab_.size()) return false;
  const Flow& flow = flow_slab_[s];
  if (flow.seq == 0 || flow.generation != static_cast<uint32_t>(id)) {
    return false;
  }
  *slot = s;
  return true;
}

Network::ResSlot& Network::ResIndex(const ResourceKey& key) {
  switch (key.kind) {
    case ResourceKind::kEgress:
      return egress_res_[key.a];
    case ResourceKind::kIngress:
      return ingress_res_[key.a];
    case ResourceKind::kPath:
      break;
  }
  return path_res_[SitePairIndex(key.a, key.b)];
}

Network::ResSlot Network::AllocResSlot() {
  if (!free_res_slots_.empty()) {
    const ResSlot slot = free_res_slots_.back();
    free_res_slots_.pop_back();
    return slot;
  }
  const ResSlot slot = static_cast<ResSlot>(res_slab_.size());
  res_slab_.emplace_back();
  res_mark_.push_back(0);
  res_comp_pos_.push_back(0);
  return slot;
}

void Network::FreeResSlot(ResSlot slot) {
  Resource& res = res_slab_[slot];
  res.live = false;
  free_res_slots_.push_back(slot);
}

Result<FlowId> Network::StartFlow(NodeId src, NodeId dst, double bytes,
                                  FlowCallback on_complete,
                                  FlowOptions options) {
  if (src >= topology_->num_nodes() || dst >= topology_->num_nodes()) {
    return Status::InvalidArgument("flow endpoints out of range");
  }
  if (bytes < 0) {
    return Status::InvalidArgument("negative flow size");
  }
  Path path;
  HIVESIM_ASSIGN_OR_RETURN(path, topology_->PathBetweenNodes(src, dst));

  if (bytes <= kEpsilonBytes) {
    // Latency-only delivery. The flow is tracked so it can be cancelled
    // (the completion must not fire after CancelFlow), and its payload is
    // metered on delivery like any other traffic.
    const FlowId id = kLatencyFlowTag | next_latency_id_++;
    LatencyFlow lf;
    lf.src = src;
    lf.dst = dst;
    lf.started_sec = sim_->Now();
    lf.bytes = bytes;
    lf.on_complete = std::move(on_complete);
    lf.completion_event = sim_->Schedule(
        path.rtt_sec / 2.0, [this, id] { FinishLatencyFlow(id); });
    latency_flows_.emplace(id, std::move(lf));
    flows_started_counter_.Add();
    return id;
  }

  GrowMeters();
  const uint32_t node_pair = NodePairSlot(src, dst);
  // Filled in place: the slot keeps its generation.
  const FlowSlot slot = AllocFlowSlot();
  Flow& flow = flow_slab_[slot];
  flow.seq = next_flow_seq_++;
  flow.src = src;
  flow.dst = dst;
  flow.src_site = topology_->SiteOf(src);
  flow.dst_site = topology_->SiteOf(dst);
  flow.node_pair = node_pair;
  flow.site_pair = SitePairIndex(flow.src_site, flow.dst_site);
  flow.started_sec = sim_->Now();
  flow.settled_sec = flow.started_sec;
  flow.total_bytes = bytes;
  flow.remaining_bytes = bytes;
  flow.rate_bps = 0;
  flow.on_complete = std::move(on_complete);
  flows_started_counter_.Add();

  // Per-flow ceiling: `streams` TCP streams, each limited by the smaller
  // of the two endpoints' windows over the path RTT (the send window and
  // the receive window both bound bytes in flight — the paper's RTT-window
  // model for asymmetric endpoints) and any per-stream pacing on the
  // path; the aggregate never exceeds the physical path or the
  // application cap.
  const int streams = std::max(1, options.streams);
  double per_stream = std::numeric_limits<double>::infinity();
  if (path.rtt_sec > 0) {
    const double window =
        std::min(topology_->ConfigOf(src).tcp_window_bytes,
                 topology_->ConfigOf(dst).tcp_window_bytes);
    per_stream = window / path.rtt_sec;
  }
  if (path.single_stream_bps > 0) {
    per_stream = std::min(per_stream, path.single_stream_bps);
  }
  double cap = std::min(path.bandwidth_bps, streams * per_stream);
  cap = std::min(cap, options.app_rate_cap_bps);
  flow.stream_cap_bps = cap;

  // The flow's shared resources, fixed for its lifetime: the endpoint
  // NICs and, cross-site, the directed inter-site path. Capacities are
  // snapshotted when a resource first appears (Refresh re-reads them).
  ResourceKey keys[3];
  double caps[3];
  int n = 0;
  keys[n] = {ResourceKind::kEgress, flow.src, 0};
  caps[n++] = topology_->EgressCap(flow.src);
  keys[n] = {ResourceKind::kIngress, flow.dst, 0};
  caps[n++] = topology_->IngressCap(flow.dst);
  if (flow.src_site != flow.dst_site) {
    // Cross-site flows contend on the directed inter-site path. Intra-
    // site traffic rides a non-blocking fabric: the per-VM-pair rate is
    // already folded into the flow's stream cap, and only the NICs are
    // shared resources.
    keys[n] = {ResourceKind::kPath, flow.src_site, flow.dst_site};
    caps[n++] = path.bandwidth_bps;
  }

  AddFlowToResources(slot, keys, caps, n);
  MarkDirty(flow.res_slots, n);
  return PackHandle(slot, flow.generation);
}

bool Network::CancelFlow(FlowId id) {
  if (id & kLatencyFlowTag) {
    auto lit = latency_flows_.find(id);
    if (lit == latency_flows_.end()) return false;
    sim_->Cancel(lit->second.completion_event);
    if (telemetry::Enabled()) {
      flows_cancelled_counter_.Add();
      telemetry::Instant(
          sim_->Now(), "net",
          FlowEventName(&trace_name_, "flow-cancel ", lit->second.src,
                        lit->second.dst),
          ZoneArgs(&trace_args_, "", 0,
                   topology_->site(topology_->SiteOf(lit->second.src)).name,
                   topology_->site(topology_->SiteOf(lit->second.dst)).name));
    }
    latency_flows_.erase(lit);
    return true;
  }
  FlowSlot slot;
  if (!LiveSlot(id, &slot)) return false;
  Flow& flow = flow_slab_[slot];
  Settle(flow, sim_->Now());
  if (flow.has_completion_event) {
    sim_->Cancel(flow.completion_event);
  }
  if (telemetry::Enabled()) {
    flows_cancelled_counter_.Add();
    telemetry::Instant(sim_->Now(), "net",
                       FlowEventName(&trace_name_, "flow-cancel ", flow.src,
                                     flow.dst),
                       ZoneArgs(&trace_args_, "delivered_bytes",
                                flow.total_bytes - flow.remaining_bytes,
                                topology_->site(flow.src_site).name,
                                topology_->site(flow.dst_site).name));
  }
  ResSlot seed[3];
  std::copy(flow.res_slots, flow.res_slots + flow.num_res, seed);
  const int num_seed = flow.num_res;
  RemoveFlowFromResources(slot);
  FreeFlowSlot(slot);
  MarkDirty(seed, num_seed);
  return true;
}

void Network::Refresh() {
  // Topology paths may have changed (WAN degradation/recovery): re-read
  // every resource's capacity, then re-solve all components. Flows keep
  // their per-flow stream caps by contract. Both passes walk the slabs in
  // slot order — deterministic, and each capacity update is independent.
  // The solves settle each flow before overwriting its rate, and cover
  // every dirty component, so no flush is left to do.
  dirty_seeds_.clear();
  for (Resource& res : res_slab_) {
    if (!res.live) continue;
    switch (res.key.kind) {
      case ResourceKind::kEgress:
        res.capacity_bps = topology_->EgressCap(res.key.a);
        break;
      case ResourceKind::kIngress:
        res.capacity_bps = topology_->IngressCap(res.key.a);
        break;
      case ResourceKind::kPath: {
        auto path = topology_->PathBetween(res.key.a, res.key.b);
        res.capacity_bps = path.ok() ? path->bandwidth_bps : 0.0;
        break;
      }
    }
  }
  const uint64_t already_solved = solve_epoch_;
  for (FlowSlot slot = 0; slot < flow_slab_.size(); ++slot) {
    const Flow& flow = flow_slab_[slot];
    if (flow.seq == 0) continue;
    if (flow_mark_[slot] > already_solved) {
      continue;  // Covered by a prior component.
    }
    SolveComponent(flow.res_slots, flow.num_res);
  }
}

// hivesim-lint: allow(U1) reason=test observer: net_solver_test and net_test check the solver's max-min rates through it, and ROADMAP item 1's fairness certificate will read it
double Network::FlowRate(FlowId id) {
  FlushDirty();
  FlowSlot slot;
  return LiveSlot(id, &slot) ? flow_slab_[slot].rate_bps : 0.0;
}

void Network::Settle(const Flow& flow, double now) const {
  const double dt = now - flow.settled_sec;
  if (dt <= 0) return;
  flow.settled_sec = now;
  const double moved = std::min(flow.remaining_bytes, flow.rate_bps * dt);
  if (moved > 0) {
    flow.remaining_bytes -= moved;
    MeterSlots(flow.node_pair, flow.site_pair, flow.src, flow.dst,
               flow.src_site, flow.dst_site, moved);
  }
}

void Network::SettleAll() const {
  const double now = sim_->Now();
  if (now == settled_all_sec_) return;
  settled_all_sec_ = now;
  for (const Flow& flow : flow_slab_) {
    if (flow.seq != 0) Settle(flow, now);
  }
}

void Network::AddFlowToResources(FlowSlot slot, const ResourceKey* keys,
                                 const double* caps, int num_res) {
  Flow& flow = flow_slab_[slot];
  flow.num_res = num_res;
  for (int i = 0; i < num_res; ++i) {
    ResSlot& index = ResIndex(keys[i]);
    if (index == kNoRes) {
      index = AllocResSlot();
      Resource& res = res_slab_[index];
      res.key = keys[i];
      res.capacity_bps = caps[i];
      res.live = true;
    }
    flow.res_slots[i] = index;
    AppendUser(index, slot);
  }
}

void Network::RemoveFlowFromResources(FlowSlot slot) {
  const Flow& flow = flow_slab_[slot];
  for (int i = 0; i < flow.num_res; ++i) {
    const ResSlot rs = flow.res_slots[i];
    RemoveUser(rs, slot);
    if (res_slab_[rs].users == 0) {
      ResIndex(res_slab_[rs].key) = kNoRes;
      FreeResSlot(rs);
    }
  }
}

void Network::AppendUser(ResSlot rs, FlowSlot fs) {
  Resource& res = res_slab_[rs];
  const int k = static_cast<int>(res.key.kind);
  UserLinks& links = user_links_[fs];
  links.prev[k] = res.tail;
  links.next[k] = kNoFlow;
  if (res.tail == kNoFlow) {
    res.head = fs;
  } else {
    user_links_[res.tail].next[k] = fs;
  }
  res.tail = fs;
  ++res.users;
}

void Network::RemoveUser(ResSlot rs, FlowSlot fs) {
  Resource& res = res_slab_[rs];
  const int k = static_cast<int>(res.key.kind);
  // Detach the last user, then let it take `fs`'s place unless it is `fs`:
  // the order an array erase by swap-with-last leaves. Walks over the list
  // depend on it; the peak-egress sums add in list order.
  const FlowSlot last = res.tail;
  const FlowSlot before_last = user_links_[last].prev[k];
  res.tail = before_last;
  if (before_last == kNoFlow) {
    res.head = kNoFlow;
  } else {
    user_links_[before_last].next[k] = kNoFlow;
  }
  --res.users;
  if (last == fs) return;
  const UserLinks& gone = user_links_[fs];
  UserLinks& moved = user_links_[last];
  moved.prev[k] = gone.prev[k];
  moved.next[k] = gone.next[k];
  if (moved.prev[k] == kNoFlow) {
    res.head = last;
  } else {
    user_links_[moved.prev[k]].next[k] = last;
  }
  if (moved.next[k] == kNoFlow) {
    res.tail = last;
  } else {
    user_links_[moved.next[k]].prev[k] = last;
  }
}

void Network::MarkDirty(const ResSlot* seeds, int num_seeds) {
  if (dirty_seeds_.empty()) {
    sim_->AtCohortEnd([this] { FlushDirty(); });
  }
  dirty_seeds_.insert(dirty_seeds_.end(), seeds, seeds + num_seeds);
}

void Network::FlushDirty() {
  // Seeds go in mutation order, so the solves (and the completion events
  // they schedule) are deterministic. A seed whose resource was freed
  // since is skipped, and so is one in a component solved earlier in this
  // flush: a live resource always has a user, and a solved component's
  // flows carry an epoch newer than the flush start.
  const uint64_t flush_start = solve_epoch_;
  for (const ResSlot rs : dirty_seeds_) {
    const Resource& res = res_slab_[rs];
    if (!res.live || flow_mark_[res.head] > flush_start) continue;
    SolveComponent(&rs, 1);
  }
  dirty_seeds_.clear();
}

void Network::SolveComponent(const ResSlot* seeds, int num_seeds) {
  // --- Gather the dirty component: BFS over the bipartite flow/resource
  // sharing graph starting from the seed resources. Every flow of every
  // visited resource joins, so by closure a resource's unfrozen count is
  // simply its user count. The BFS walks slab indices (resource user
  // lists and per-flow cached slots) and never hashes.
  const uint64_t epoch = ++solve_epoch_;
  comp_flow_slots_.clear();
  comp_res_slots_.clear();
  size_t scan = 0;
  for (int i = 0; i < num_seeds; ++i) {
    const ResSlot rs = seeds[i];
    if (res_mark_[rs] == epoch) continue;
    res_mark_[rs] = epoch;
    comp_res_slots_.push_back(rs);
  }
  while (scan < comp_res_slots_.size()) {
    const ResSlot rs = comp_res_slots_[scan++];
    ForEachUser(rs, [&](FlowSlot fs) {
      if (flow_mark_[fs] == epoch) return;
      flow_mark_[fs] = epoch;
      comp_flow_slots_.push_back(fs);
      const Flow& flow = flow_slab_[fs];
      for (int i = 0; i < flow.num_res; ++i) {
        const ResSlot other = flow.res_slots[i];
        if (res_mark_[other] == epoch) continue;
        res_mark_[other] = epoch;
        comp_res_slots_.push_back(other);
      }
    });
  }
  if (comp_flow_slots_.empty()) return;

  // --- Water-filling over dense per-component arrays. All unfrozen flows
  // always hold the same allocation (the water level L), so the
  // progressive-filling round structure collapses: the binding per-flow
  // cap each round is the smallest cap among unfrozen flows — a
  // sorted-by-cap cursor instead of an O(F) scan — and cap-freezes are a
  // prefix pop. Rounds still freeze at least one flow each, and resources
  // are only touched while they have unfrozen users, so a solve is
  // O(F log F + sum of active resource lists) instead of the old O(F^2)
  // full-fleet iteration. The per-round state lives in parallel arrays
  // (remaining/unfrozen per resource, cap/rate/frozen per flow) so the
  // delta scan and the level update are contiguous, branch-light loops;
  // the arithmetic is unchanged (see docs/PERFORMANCE.md).
  std::sort(comp_flow_slots_.begin(), comp_flow_slots_.end(),
            [this](FlowSlot a, FlowSlot b) {
              const Flow& fa = flow_slab_[a];
              const Flow& fb = flow_slab_[b];
              if (fa.stream_cap_bps != fb.stream_cap_bps) {
                return fa.stream_cap_bps < fb.stream_cap_bps;
              }
              return fa.seq < fb.seq;  // Deterministic tie-break.
            });

  const size_t num_flows = comp_flow_slots_.size();
  const size_t num_res = comp_res_slots_.size();
  comp_flow_cap_.resize(num_flows);
  comp_flow_rate_.assign(num_flows, 0.0);
  comp_flow_frozen_.assign(num_flows, 0);
  comp_res_remaining_.resize(num_res);
  comp_res_unfrozen_.resize(num_res);
  for (size_t i = 0; i < num_flows; ++i) {
    const FlowSlot fs = comp_flow_slots_[i];
    flow_comp_pos_[fs] = static_cast<uint32_t>(i);
    comp_flow_cap_[i] = flow_slab_[fs].stream_cap_bps;
  }
  for (size_t j = 0; j < num_res; ++j) {
    const ResSlot rs = comp_res_slots_[j];
    res_comp_pos_[rs] = static_cast<uint32_t>(j);
    comp_res_remaining_[j] = res_slab_[rs].capacity_bps;
    // Small integer counts held as doubles: exact, and the level update
    // multiplies without int->double conversion in the loop.
    comp_res_unfrozen_[j] = static_cast<double>(res_slab_[rs].users);
  }

  size_t frozen_count = 0;
  size_t cap_cursor = 0;  // First unfrozen flow in cap order.
  size_t active = num_res;  // Resource arrays are compacted in place.
  double level = 0.0;

  // Freezing flow i at the current level removes it from every resource
  // it uses. A compacted-away resource is never touched here: it had no
  // unfrozen users left, and only unfrozen flows are frozen.
  const auto freeze_flow = [&](size_t i) {
    comp_flow_frozen_[i] = 1;
    comp_flow_rate_[i] = level;
    ++frozen_count;
    const Flow& flow = flow_slab_[comp_flow_slots_[i]];
    for (int k = 0; k < flow.num_res; ++k) {
      comp_res_unfrozen_[res_comp_pos_[flow.res_slots[k]]] -= 1.0;
    }
  };

  while (frozen_count < num_flows) {
    // The next freeze level: the tightest resource fair share or the
    // smallest unfrozen per-flow cap, whichever binds first. Contiguous
    // scan over the active prefix of the resource arrays.
    double delta = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < active; ++j) {
      const double u = comp_res_unfrozen_[j];
      const double share = comp_res_remaining_[j] / u;
      if (u > 0 && share < delta) delta = share;
    }
    while (cap_cursor < num_flows && comp_flow_frozen_[cap_cursor]) {
      ++cap_cursor;
    }
    if (cap_cursor < num_flows) {
      delta = std::min(delta, comp_flow_cap_[cap_cursor] - level);
    }
    if (!std::isfinite(delta) || delta < 0) delta = 0;

    level += delta;
    for (size_t j = 0; j < active; ++j) {
      comp_res_remaining_[j] -= delta * comp_res_unfrozen_[j];
    }

    // Freeze flows that reached their cap (a prefix in cap order) or sit
    // on a drained resource.
    bool froze_any = false;
    for (size_t i = cap_cursor; i < num_flows; ++i) {
      if (comp_flow_frozen_[i]) continue;
      if (level < comp_flow_cap_[i] - kEpsilonRate) break;
      freeze_flow(i);
      froze_any = true;
    }
    for (size_t j = 0; j < active; ++j) {
      if (comp_res_remaining_[j] > kEpsilonRate) continue;
      ForEachUser(comp_res_slots_[j], [&](FlowSlot fs) {
        const size_t i = flow_comp_pos_[fs];
        if (comp_flow_frozen_[i]) return;
        freeze_flow(i);
        froze_any = true;
      });
    }

    if (!froze_any) {
      // Numerical safety valve: freeze everything at the current level.
      for (size_t i = 0; i < num_flows; ++i) {
        if (!comp_flow_frozen_[i]) {
          comp_flow_frozen_[i] = 1;
          comp_flow_rate_[i] = level;
          ++frozen_count;
        }
      }
      break;
    }
    // Compact drained resources out of the active prefix, keeping the
    // parallel arrays and the slot->position index in sync.
    size_t w = 0;
    for (size_t j = 0; j < active; ++j) {
      if (comp_res_unfrozen_[j] <= 0) continue;
      if (w != j) {
        comp_res_slots_[w] = comp_res_slots_[j];
        comp_res_remaining_[w] = comp_res_remaining_[j];
        comp_res_unfrozen_[w] = comp_res_unfrozen_[j];
        res_comp_pos_[comp_res_slots_[w]] = static_cast<uint32_t>(w);
      }
      ++w;
    }
    active = w;
  }

  // --- Apply rates in sorted order. Every flow settles at its old rate
  // first, even one whose rate barely moves, since the rate is about to
  // be overwritten. A completion event is only touched when the flow's
  // rate actually moved (epsilon-compared): unchanged flows progress
  // linearly, so their already-scheduled deadline stays exact and the
  // kernel sees no cancel/reschedule churn for them.
  const double now = sim_->Now();
  for (size_t i = 0; i < num_flows; ++i) {
    const FlowSlot fs = comp_flow_slots_[i];
    Flow& flow = flow_slab_[fs];
    Settle(flow, now);
    const double new_rate = comp_flow_rate_[i];
    const bool rate_changed =
        std::fabs(new_rate - flow.rate_bps) > kEpsilonRate;
    flow.rate_bps = new_rate;
    if (flow.has_completion_event) {
      if (!rate_changed) continue;
      sim_->Cancel(flow.completion_event);
      flow.has_completion_event = false;
    }
    if (new_rate > kEpsilonRate) {
      const double eta = flow.remaining_bytes / new_rate;
      // 16 bytes of capture: fits std::function's inline buffer.
      const FlowId handle = PackHandle(fs, flow.generation);
      flow.completion_event =
          sim_->Schedule(eta, [this, handle] { OnFlowDeadline(handle); });
      flow.has_completion_event = true;
    }
  }

  // --- Peak egress tracking, fresh sums per sender in the component
  // (senders outside it kept their rates, so their sums are unchanged).
  // Each sender's egress resource is summed once: the first flow to reach
  // it un-marks it for the rest of this pass. res_slots[0] is always
  // the sender's egress NIC.
  for (size_t i = 0; i < num_flows; ++i) {
    const Flow& flow = flow_slab_[comp_flow_slots_[i]];
    const ResSlot rs = flow.res_slots[0];
    if (res_mark_[rs] != epoch) continue;
    res_mark_[rs] = epoch - 1;  // Sum each sender once.
    double rate = 0;
    ForEachUser(rs, [&](FlowSlot fs) { rate += flow_slab_[fs].rate_bps; });
    if (node_peak_egress_.size() <= flow.src) {
      node_peak_egress_.resize(flow.src + 1, 0.0);
    }
    node_peak_egress_[flow.src] =
        std::max(node_peak_egress_[flow.src], rate);
  }
}

void Network::OnFlowDeadline(FlowId handle) {
  FlowSlot slot;
  if (!LiveSlot(handle, &slot)) return;
  Flow& flow = flow_slab_[slot];
  flow.has_completion_event = false;
  const double now = sim_->Now();
  Settle(flow, now);
  // Done when the payload is delivered up to floating-point residue, or
  // when the residue is so small that rescheduling would not advance the
  // simulation clock (which would loop forever).
  const double eta =
      flow.rate_bps > kEpsilonRate ? flow.remaining_bytes / flow.rate_bps
                                   : std::numeric_limits<double>::infinity();
  const bool clock_would_stall =
      std::isfinite(eta) && now + eta <= now;
  if (flow.remaining_bytes <= kEpsilonBytes || clock_would_stall) {
    FinishFlow(slot);
  } else {
    // Sub-epsilon rate drift left residue; re-solving the component
    // schedules this flow a fresh deadline (its event already fired).
    MarkDirty(flow.res_slots, flow.num_res);
  }
}

void Network::FinishFlow(FlowSlot slot) {
  Flow& flow = flow_slab_[slot];
  if (flow.seq == 0) return;
  if (telemetry::Enabled()) {
    flows_completed_counter_.Add();
    telemetry::Span(flow.started_sec, sim_->Now(), "net",
                    FlowEventName(&trace_name_, "flow ", flow.src, flow.dst),
                    ZoneArgs(&trace_args_, "bytes", flow.total_bytes,
                             topology_->site(flow.src_site).name,
                             topology_->site(flow.dst_site).name));
  }
  FlowCallback cb = std::move(flow.on_complete);
  ResSlot seed[3];
  std::copy(flow.res_slots, flow.res_slots + flow.num_res, seed);
  const int num_seed = flow.num_res;
  RemoveFlowFromResources(slot);
  FreeFlowSlot(slot);
  MarkDirty(seed, num_seed);
  if (cb) cb();
}

void Network::FinishLatencyFlow(FlowId id) {
  auto it = latency_flows_.find(id);
  if (it == latency_flows_.end()) return;
  LatencyFlow lf = std::move(it->second);
  latency_flows_.erase(it);
  if (telemetry::Enabled()) {
    flows_completed_counter_.Add();
    telemetry::Span(lf.started_sec, sim_->Now(), "net",
                    FlowEventName(&trace_name_, "flow ", lf.src, lf.dst),
                    ZoneArgs(&trace_args_, "bytes", lf.bytes,
                             topology_->site(topology_->SiteOf(lf.src)).name,
                             topology_->site(topology_->SiteOf(lf.dst)).name));
  }
  if (lf.bytes > 0) MeterBytes(lf.src, lf.dst, lf.bytes);
  if (lf.on_complete) lf.on_complete();
}

telemetry::CounterHandle& Network::ZoneBytesCounter(uint32_t site_pair,
                                                    SiteId src_site,
                                                    SiteId dst_site) const {
  if (zone_counters_.empty()) {
    zone_counters_.resize(site_stride_ * site_stride_);
  }
  std::unique_ptr<telemetry::CounterHandle>& slot = zone_counters_[site_pair];
  if (slot == nullptr) {
    slot = std::make_unique<telemetry::CounterHandle>(telemetry::LabeledName(
        "net.bytes_delivered", {{"src_zone", topology_->site(src_site).name},
                                {"dst_zone", topology_->site(dst_site).name}}));
  }
  return *slot;
}

void Network::MeterBytes(NodeId src, NodeId dst, double bytes) {
  GrowMeters();
  const SiteId src_site = topology_->SiteOf(src);
  const SiteId dst_site = topology_->SiteOf(dst);
  MeterSlots(NodePairSlot(src, dst), SitePairIndex(src_site, dst_site), src,
             dst, src_site, dst_site, bytes);
}

void Network::MeterSlots(uint32_t node_pair, uint32_t site_pair, NodeId src,
                         NodeId dst, SiteId src_site, SiteId dst_site,
                         double bytes) const {
  node_pair_bytes_[node_pair] += bytes;
  site_pair_bytes_[site_pair] += bytes;
  node_egress_bytes_[src] += bytes;
  node_ingress_bytes_[dst] += bytes;
  if (telemetry::Enabled()) {
    bytes_delivered_counter_.Add(bytes);
    ZoneBytesCounter(site_pair, src_site, dst_site).Add(bytes);
  }
}

double Network::BytesBetweenNodes(NodeId src, NodeId dst) const {
  SettleAll();
  auto it = node_pair_index_.find(NodePairKey(src, dst));
  return it == node_pair_index_.end() ? 0.0 : node_pair_bytes_[it->second];
}

double Network::BytesBetweenSites(SiteId src, SiteId dst) const {
  if (src >= site_stride_ || dst >= site_stride_) return 0.0;
  SettleAll();
  return site_pair_bytes_[SitePairIndex(src, dst)];
}

double Network::NodeEgressBytes(NodeId node) const {
  if (node >= node_egress_bytes_.size()) return 0.0;
  SettleAll();
  return node_egress_bytes_[node];
}

double Network::NodeIngressBytes(NodeId node) const {
  if (node >= node_ingress_bytes_.size()) return 0.0;
  SettleAll();
  return node_ingress_bytes_[node];
}

double Network::NodePeakEgressRate(NodeId node) const {
  return node < node_peak_egress_.size() ? node_peak_egress_[node] : 0.0;
}

}  // namespace hivesim::net
