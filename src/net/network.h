#ifndef HIVESIM_NET_NETWORK_H_
#define HIVESIM_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace hivesim::net {

/// Handle to a transfer in flight. A fair-share flow's handle packs its
/// slab slot (high 32 bits) with the slot's generation (low 32 bits), the
/// way `sim::EventId` does, so a handle kept past its flow's end never
/// names the slot's next occupant. Latency-only flows draw ids with bit 63
/// set, a space no slab handle reaches. Never zero.
using FlowId = uint64_t;

/// Per-flow knobs.
struct FlowOptions {
  /// Application-level rate cap in bytes/sec. Hivemind's gradient
  /// serialization is CPU-bound around ~1.1 Gb/s per stream (Section 4
  /// observed at most 1.1 Gb/s while averaging on a 7 Gb/s network); the
  /// training runtime passes that bound here.
  double app_rate_cap_bps = std::numeric_limits<double>::infinity();
  /// Number of parallel TCP streams carrying this flow. Each stream is
  /// window/RTT-capped individually, so `streams > 1` raises the per-flow
  /// ceiling on high-latency paths (the Section 7 multi-stream insight).
  int streams = 1;
};

/// Flow-level network simulation on top of a `Topology`.
///
/// Every transfer is a fluid flow that receives a max-min fair share of
/// three shared resources — the sender's NIC, the receiver's NIC, and the
/// directed inter-site path — further limited by its TCP window/RTT cap
/// and an optional application cap. All byte progress is metered per node
/// pair so the cloud cost engine can price egress exactly.
///
/// The solver is incremental: each flow's resource keys are computed once
/// at `StartFlow` and kept in a persistent resource table, so a flow
/// arrival/removal only re-solves the *dirty component* — the flows
/// transitively sharing a resource with the changed flow.
///
/// Solves are coalesced per instant. A flow start, cancel or finish does
/// not solve; it marks its resources dirty, and the first change of a
/// cohort of same-time events registers one `Simulator::AtCohortEnd`
/// flush. The flush solves each dirty component once, after the cohort and
/// before the clock moves, so the K transfers a collective opens (or
/// closes) at one instant cost one solve of their component, not K. Until
/// then a dirty component's flows keep their old rates, which stay exact
/// up to `Now()`: meter reads need no flush (a flow started at `Now()`
/// has moved no bytes), and `FlowRate` flushes first.
///
/// Byte progress is settled lazily, per flow. A flow's rate is constant
/// between solves, so each flow keeps the time it was last settled and
/// books `rate * elapsed` into the meters only when that stops being
/// exact or someone looks: just before a solve overwrites its rate, when
/// it is cancelled, and when its deadline fires. A flow change therefore
/// costs O(dirty component), never O(live flows). Meter reads settle
/// every live flow first (one slab walk per distinct `Now()`), so they
/// always see the bytes delivered up to the current instant.
///
/// Storage is structure-of-arrays at fleet scale: flows and resources
/// live in index-based slabs (`flow_slab_` / `res_slab_`, free-listed,
/// never shrinking), a resource's users form a list threaded through a
/// slab-parallel link array, and each flow caches its resources' slab
/// indices and its two meter slots — the component BFS, the freeze
/// bookkeeping, the peak-egress sums and the settle path are all direct
/// array indexing with no hashed lookup. The API boundary does not hash
/// either: a `FlowId` decodes to its slot, and a flow finds its resources
/// through dense per-node and per-site-pair slot arrays. Once the slabs
/// and scratch arrays have grown to a workload's high-water mark,
/// starting, solving and finishing flows allocates nothing (callbacks
/// that fit `std::function`'s inline buffer included).
///
/// Within a component the water-filling rounds run over contiguous
/// parallel arrays (`comp_res_remaining_`, `comp_res_unfrozen_`,
/// `comp_flow_cap_`, ...), so the per-round
/// `delta = min(remaining/unfrozen)` scan and the
/// `remaining -= delta * unfrozen` update are branch-light loops the
/// compiler can vectorize. The arithmetic is bit-identical to
/// progressive filling; see docs/PERFORMANCE.md for the invariants.
///
/// Threading: a `Network` belongs to one world, and each world runs on
/// one thread. The const meter reads settle flows through `mutable`
/// state, so a `Network` must not be read from two threads at once.
///
/// Lifetime: completion events and the pending flush hook call back into
/// the `Network`, so its simulator must not run past the `Network`'s
/// destruction.
class Network {
 public:
  using FlowCallback = std::function<void()>;

  Network(sim::Simulator* sim, const Topology* topology);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Begins transferring `bytes` from `src` to `dst`; `on_complete` fires
  /// (at most once) when the last byte is delivered. Sub-byte flows
  /// complete after one RTT/2 (pure latency); they are tracked and
  /// cancellable like any other flow, and their bytes are metered on
  /// delivery.
  Result<FlowId> StartFlow(NodeId src, NodeId dst, double bytes,
                           FlowCallback on_complete,
                           FlowOptions options = FlowOptions());

  /// Aborts a flow; bytes already delivered stay metered (a cancelled
  /// latency-only flow never delivered, so it meters nothing). Returns
  /// false if the flow already completed.
  bool CancelFlow(FlowId id);

  /// Re-reads the topology and recomputes all flow rates. Call after
  /// changing a path with `Topology::SetPath` mid-simulation (live WAN
  /// degradation/recovery); in-flight flows keep their per-flow stream
  /// caps but shared path capacities take effect immediately. A full
  /// solve: it also covers every component still waiting for a flush.
  void Refresh();

  /// Current fair-share rate of a flow in bytes/sec (0 if unknown).
  /// Solves pending dirty components first, so the rate reflects every
  /// flow change made so far.
  double FlowRate(FlowId id);

  /// Number of flows in flight (fair-share and latency-only).
  size_t active_flows() const {
    return live_flows_ + latency_flows_.size();
  }

  // --- Traffic accounting (all cumulative since construction/reset) ---

  // Reads settle every live flow to `Now()` first (once per distinct
  // instant), so they count the bytes delivered up to the current time.

  /// Bytes delivered from node `src` to node `dst`.
  double BytesBetweenNodes(NodeId src, NodeId dst) const;
  /// Bytes delivered from any node in `src` to any node in `dst`
  /// (directional; includes src == dst for intra-site traffic). Served
  /// from a dense site-pair aggregate maintained alongside the node-pair
  /// meters on every delivery.
  double BytesBetweenSites(SiteId src, SiteId dst) const;
  /// Total bytes sent by a node.
  double NodeEgressBytes(NodeId node) const;
  /// Total bytes received by a node.
  double NodeIngressBytes(NodeId node) const;
  /// Highest instantaneous egress rate the node has reached (bytes/sec).
  /// Covers solved states only: the rates a flush computes after a cohort
  /// of flow changes. A transient between two changes in one cohort (the
  /// first of two flows into one NIC, alone for zero seconds) never
  /// counts.
  double NodePeakEgressRate(NodeId node) const;

  const Topology& topology() const { return *topology_; }
  sim::Simulator& simulator() { return *sim_; }

 private:
  // Shared-resource identifiers for the fair-share solver. A kind is also
  // the position of such a resource in every user's `res_slots`.
  enum class ResourceKind : uint8_t { kEgress, kIngress, kPath };
  // 12 bytes: node and site ids are 32-bit.
  struct ResourceKey {
    ResourceKind kind;
    uint32_t a;  // node id or src site.
    uint32_t b;  // unused or dst site.
  };

  /// Index into `flow_slab_` / `res_slab_`. Slab entries never move, so
  /// slots are stable for an entry's whole lifetime and safe to cache.
  using FlowSlot = uint32_t;
  using ResSlot = uint32_t;
  /// No resource: an empty entry of the dense resource-slot arrays.
  static constexpr ResSlot kNoRes = std::numeric_limits<ResSlot>::max();
  /// No flow: the end of a resource's user list.
  static constexpr FlowSlot kNoFlow = std::numeric_limits<FlowSlot>::max();
  /// Bit 63 tags latency-only flow ids; slab handles keep it clear.
  static constexpr FlowId kLatencyFlowTag = FlowId{1} << 63;

  static constexpr FlowId PackHandle(FlowSlot slot, uint32_t generation) {
    return (static_cast<FlowId>(slot) << 32) | generation;
  }

  struct Flow {
    // Start order, the solver's tie-break among equal stream caps; 0
    // marks a free slab slot.
    uint64_t seq = 0;
    // Bumped (skipping 0) each time the slot is freed, so a handle
    // outliving its flow fails the generation compare.
    uint32_t generation = 1;
    NodeId src = 0;
    NodeId dst = 0;
    SiteId src_site = 0;
    SiteId dst_site = 0;
    // Meter slots: into `node_pair_bytes_` and `site_pair_bytes_`.
    uint32_t node_pair = 0;
    uint32_t site_pair = 0;
    double started_sec = 0;
    double total_bytes = 0;
    // Bytes still to deliver as of `settled_sec`; meter reads settle, so
    // both are mutable.
    mutable double remaining_bytes = 0;
    mutable double settled_sec = 0;
    double rate_bps = 0;       // Current fair share.
    double stream_cap_bps = 0; // min(path, streams * window/RTT, app cap).
    FlowCallback on_complete;
    sim::EventId completion_event = 0;
    bool has_completion_event = false;
    // Slab slots of the resources this flow contends on, fixed at
    // StartFlow (NICs and, cross-site, the directed inter-site path) —
    // valid as long as the flow lives, because a resource outlives its
    // last user. res_slots[k] holds the resource of kind k: [0] is the
    // sender's egress NIC, [1] the receiver's ingress NIC, [2] the path.
    ResSlot res_slots[3];
    int num_res = 0;
  };

  /// A flow's links in the user list of each of its resources, indexed by
  /// resource kind. Kept out of `Flow`, in `user_links_`, so a walk over
  /// a list chases through a dense 24-byte-per-flow array.
  struct UserLinks {
    FlowSlot next[3];
    FlowSlot prev[3];
  };

  /// Persistent per-resource state: the capacity snapshot and the live
  /// flows contending on it, a doubly linked list through the users'
  /// `user_links_` at the resource's kind. The list keeps the order an
  /// array with swap-with-last removal would (see `RemoveUser`), which
  /// fixes the order of every walk over it. Updated on flow add/remove;
  /// capacities are re-read from the topology by `Refresh`.
  struct Resource {
    ResourceKey key{ResourceKind::kEgress, 0, 0};
    bool live = false;  // False marks a free slab slot.
    double capacity_bps = 0;
    FlowSlot head = kNoFlow;
    FlowSlot tail = kNoFlow;
    uint32_t users = 0;
  };

  // A sub-epsilon transfer riding pure latency: no fair-share state, just
  // a cancellable delivery event whose bytes are metered on arrival.
  struct LatencyFlow {
    NodeId src = 0;
    NodeId dst = 0;
    double started_sec = 0;
    double bytes = 0;
    FlowCallback on_complete;
    sim::EventId completion_event = 0;
  };

  /// Takes a flow slab slot from the free list (growing the slab and its
  /// parallel mark/position arrays together when empty).
  FlowSlot AllocFlowSlot();
  /// Clears the slot (seq=0, callback released), bumps its generation and
  /// recycles it.
  void FreeFlowSlot(FlowSlot slot);
  /// Decodes a slab handle into the slot of its live flow; false for a
  /// stale handle, a latency-flow id, or an id never issued.
  bool LiveSlot(FlowId id, FlowSlot* slot) const;
  /// The dense-array entry holding the slot of the resource `key` names
  /// (`kNoRes` while the resource has no users).
  ResSlot& ResIndex(const ResourceKey& key);
  ResSlot AllocResSlot();
  void FreeResSlot(ResSlot slot);

  /// Books the bytes `flow` delivered since it was last settled,
  /// min(remaining, rate * (now - settled_sec)), into the meters. Must run
  /// before the flow's rate changes and before it leaves the slab.
  void Settle(const Flow& flow, double now) const;
  /// Settles every live flow to `Now()`: one slab walk in slot order per
  /// distinct instant (a second read at the same instant walks nothing).
  void SettleAll() const;
  /// Registers the flow at `slot` on the resources `keys`, creating
  /// resources with the given capacity snapshots on first use, and caches
  /// the resource slots on the flow.
  void AddFlowToResources(FlowSlot slot, const ResourceKey* keys,
                          const double* caps, int num_res);
  /// Unregisters the flow at `slot`; resources left without users are
  /// dropped.
  void RemoveFlowFromResources(FlowSlot slot);
  /// Appends flow `fs` to the user list of resource `rs`.
  void AppendUser(ResSlot rs, FlowSlot fs);
  /// Unlinks flow `fs` from the user list of resource `rs`; the list's
  /// last user takes its place, as in an array's swap-with-last erase.
  void RemoveUser(ResSlot rs, FlowSlot fs);
  /// Calls `fn(flow slot)` for each user of resource `rs`, in list order.
  /// `fn` must not change the list.
  template <typename Fn>
  void ForEachUser(ResSlot rs, Fn&& fn) const {
    const Resource& res = res_slab_[rs];
    const int k = static_cast<int>(res.key.kind);
    // The next link is read before `fn` runs, so the chase does not wait
    // behind `fn`'s stores.
    for (FlowSlot fs = res.head; fs != kNoFlow;) {
      const FlowSlot next = user_links_[fs].next[k];
      fn(fs);
      fs = next;
    }
  }
  /// Queues the resources `seeds` of a changed flow for the next flush.
  /// The first seeds after a flush register one with the simulator (a
  /// flush that finds the list already emptied does nothing).
  void MarkDirty(const ResSlot* seeds, int num_seeds);
  /// Solves each component reachable from a dirty seed once, then clears
  /// the dirty list.
  void FlushDirty();
  /// Re-solves the max-min fair allocation for the connected component of
  /// flows reachable from the live resources `seeds` (flows transitively
  /// sharing a resource). Rates outside the component are untouched, and
  /// completion events inside it are only rescheduled when the flow's
  /// rate moved by more than epsilon.
  void SolveComponent(const ResSlot* seeds, int num_seeds);
  /// Fires when the flow `handle` names is expected to finish; a stale
  /// handle does nothing.
  void OnFlowDeadline(FlowId handle);
  void FinishFlow(FlowSlot slot);
  /// Delivers a latency-only flow: meters its bytes and fires the callback.
  void FinishLatencyFlow(FlowId id);
  /// Sizes the per-node meters and resource slots, and the site-pair
  /// matrix with its parallel path-slot array, to the topology (nodes and
  /// sites may be added after construction).
  void GrowMeters();
  /// Slot of the (src, dst) node-pair meter, created on first use. The
  /// only hashed meter lookup; the settle path uses the flow's cached slot.
  uint32_t NodePairSlot(NodeId src, NodeId dst);
  uint32_t SitePairIndex(SiteId src, SiteId dst) const {
    return static_cast<uint32_t>(src * site_stride_ + dst);
  }
  /// Meters a delivery outside the fair-share solver (messages,
  /// latency-only flows).
  void MeterBytes(NodeId src, NodeId dst, double bytes);
  void MeterSlots(uint32_t node_pair, uint32_t site_pair, NodeId src,
                  NodeId dst, SiteId src_site, SiteId dst_site,
                  double bytes) const;
  /// Telemetry handle for the per-zone-pair byte counter of a site pair,
  /// created on first use in the pair's `SitePairIndex` slot.
  telemetry::CounterHandle& ZoneBytesCounter(uint32_t site_pair,
                                             SiteId src_site,
                                             SiteId dst_site) const;

  sim::Simulator* sim_;
  const Topology* topology_;
  uint64_t next_flow_seq_ = 1;
  uint64_t next_latency_id_ = 1;

  // --- SoA slabs -------------------------------------------------------
  // Flows and resources live in flat slabs addressed by slot. A FlowId
  // carries its slot; a resource's slot sits in a dense array indexed by
  // node (NIC resources) or by site pair (paths, parallel to
  // `site_pair_bytes_`). No lookup hashes.
  std::vector<Flow> flow_slab_;
  std::vector<UserLinks> user_links_;  // Parallel to flow_slab_.
  std::vector<FlowSlot> free_flow_slots_;
  size_t live_flows_ = 0;
  std::vector<Resource> res_slab_;
  std::vector<ResSlot> free_res_slots_;
  std::vector<ResSlot> egress_res_;
  std::vector<ResSlot> ingress_res_;
  std::vector<ResSlot> path_res_;

  // Slab-parallel solver bookkeeping: component-visit epochs and the
  // slot's position in the current component's dense arrays. Kept out of
  // the structs so the BFS touches tight arrays, not 100+-byte records.
  std::vector<uint64_t> flow_mark_;
  std::vector<uint32_t> flow_comp_pos_;
  std::vector<uint64_t> res_mark_;
  std::vector<uint32_t> res_comp_pos_;
  uint64_t solve_epoch_ = 0;
  // Resources of the flows changed since the last flush, in change order
  // (repeats and since-freed slots included; the flush skips them).
  std::vector<ResSlot> dirty_seeds_;

  // Per-component SoA scratch (cleared per solve, capacity retained).
  // Flow arrays are parallel and sorted by (stream cap, start seq);
  // resource arrays are parallel and compacted in place as resources
  // drain. `comp_res_unfrozen_` holds small integer counts as doubles so
  // the water-level update multiplies without conversion.
  std::vector<FlowSlot> comp_flow_slots_;
  std::vector<double> comp_flow_cap_;
  std::vector<double> comp_flow_rate_;
  std::vector<uint8_t> comp_flow_frozen_;
  std::vector<ResSlot> comp_res_slots_;
  std::vector<double> comp_res_remaining_;
  std::vector<double> comp_res_unfrozen_;

  std::unordered_map<FlowId, LatencyFlow> latency_flows_;

  // --- Meters -----------------------------------------------------------
  // Reads settle first, so everything a settle writes is mutable (see the
  // threading note on the class). Node-pair bytes live in a slab addressed
  // by the slot `node_pair_index_` hands out; site-pair bytes in a dense
  // row-major `site_stride_`² matrix.
  mutable double settled_all_sec_ = 0.0;
  std::unordered_map<uint64_t, uint32_t> node_pair_index_;
  mutable std::vector<double> node_pair_bytes_;
  mutable std::vector<double> site_pair_bytes_;
  size_t site_stride_ = 0;
  mutable std::vector<double> node_egress_bytes_;
  mutable std::vector<double> node_ingress_bytes_;
  std::vector<double> node_peak_egress_;

  mutable telemetry::CounterHandle bytes_delivered_counter_{
      "net.bytes_delivered"};
  telemetry::CounterHandle flows_started_counter_{"net.flows_started"};
  telemetry::CounterHandle flows_cancelled_counter_{"net.flows_cancelled"};
  telemetry::CounterHandle flows_completed_counter_{"net.flows_completed"};
  /// Per-site-pair byte counters, laid out like `site_pair_bytes_`;
  /// empty until telemetry meters a first delivery.
  mutable std::vector<std::unique_ptr<telemetry::CounterHandle>>
      zone_counters_;
  /// Name and args of the flow event being recorded, reused by every
  /// event so recording builds no string of its own.
  std::string trace_name_;
  std::string trace_args_;
};

}  // namespace hivesim::net

#endif  // HIVESIM_NET_NETWORK_H_
