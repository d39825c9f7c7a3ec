#ifndef HIVESIM_COLLECTIVE_ALLREDUCE_H_
#define HIVESIM_COLLECTIVE_ALLREDUCE_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "compute/host.h"
#include "net/network.h"

namespace hivesim::collective {

/// One participant in a gradient-averaging round.
struct Peer {
  net::NodeId node = 0;            ///< Network endpoint.
  compute::HostClass host = compute::HostClass::kGcN1Standard8;
};

/// Topology-level averaging strategies. `kAuto` picks per the behaviour
/// the paper observed from Hivemind/MoshpitSGD:
///   - up to 4 peers in one site (or several sites within one continent)
///     -> flat N-to-N ("each peer sends its gradients to every other
///     peer", Section 5),
///   - larger single-site fleets -> ring-chunked averaging (MoshpitSGD's
///     grouped all-reduce; per-peer traffic 2(m-1)/m payloads instead of
///     m-1, consistent with the observed ~1.1 Gb/s single-stream peak
///     while averaging on A-8, Section 4(A)),
///   - one peer per site across >= 3 sites -> star via the best-connected
///     hub ("the averaging was done over the US node", Section 4(C)),
///   - site groups across continents -> hierarchical: gather to a site
///     leader, leaders exchange, scatter (the C-8 traffic split of
///     8/20 internal + 12/20 cross-region calls, Section 5(3)).
enum class Strategy : uint8_t {
  kAuto,
  kFlatAllToAll,
  kRing,
  kStarViaHub,
  kHierarchical,
};

std::string_view StrategyName(Strategy s);

/// One gradient transfer between peers (indices into the peer vector).
struct Transfer {
  int src = 0;
  int dst = 0;
  /// Bytes moved as a multiple of the gradient payload (ring transfers
  /// move 2(m-1)/m of a payload; everything else moves exactly one).
  double bytes_factor = 1.0;
};

/// A peer index tagged with the peer's site.
struct SitePeer {
  net::SiteId site = 0;
  int peer = 0;
  bool operator==(const SitePeer&) const = default;
};

/// Staged transfer schedule; stage n+1 starts when stage n has fully
/// completed (Hivemind's averaging is synchronous within a round).
struct Plan {
  Strategy strategy = Strategy::kFlatAllToAll;
  std::vector<std::vector<Transfer>> stages;
  int hub = -1;  ///< Peer index of the star hub / informative only.
  /// Every peer, sorted by (site, peer index): the site groups in site
  /// order, each in peer order.
  std::vector<SitePeer> by_site;

  /// Total number of transfers across stages.
  int TotalTransfers() const;
};


/// Builds the transfer schedule. Requires >= 2 peers.
Result<Plan> BuildPlan(const std::vector<Peer>& peers,
                       const net::Topology& topology, Strategy requested);

/// Rebuilds `plan` in place with the same result, reusing its buffers: a
/// rebuild for the peers and strategy of the previous one allocates
/// nothing.
Status BuildPlan(const std::vector<Peer>& peers,
                 const net::Topology& topology, Strategy requested,
                 Plan* plan);

/// Knobs of one averaging round.
struct AllReduceOptions {
  double payload_bytes = 0;  ///< Gradient size per peer (FP16-compressed).
  Strategy strategy = Strategy::kAuto;
  /// TCP streams per gradient transfer; Hivemind uses one (the Section 7
  /// bottleneck), >1 models the multi-stream improvement.
  int streams_per_transfer = 1;
};

/// Outcome of a completed round.
struct AllReduceResult {
  double wall_sec = 0;       ///< Start to every peer holding the average.
  int transfers = 0;
  Strategy strategy = Strategy::kFlatAllToAll;
};

/// Executes averaging rounds over the flow-level network. Gradient bytes
/// are pushed through `net::Network` flows (so egress meters, fair
/// sharing, and TCP caps all apply) with calibrated CPU costs for
/// serialize/accumulate around them.
///
/// A round on a peer set the instance has seen before allocates nothing:
/// the plan is rebuilt into buffers the instance owns (rebuilt, not
/// cached, because the star hub follows live path bandwidth), and every
/// callback it schedules captures at most 16 bytes — `this`, a 32-bit
/// generation and a transfer index — so it fits `std::function`'s inline
/// buffer.
class AllReduce {
 public:
  using DoneCallback = std::function<void(Result<AllReduceResult>)>;

  AllReduce(net::Network* network) : network_(network) {}

  /// Starts one round; `done` fires when the slowest peer finishes.
  /// Only one round may be in flight per AllReduce instance.
  Status Start(const std::vector<Peer>& peers, const AllReduceOptions& opts,
               DoneCallback done);

  /// Aborts the round in flight (peer failure); pending flows are
  /// cancelled and `done` receives Unavailable.
  void Abort();

  bool running() const { return running_; }

 private:
  /// Starts stage `stage_`, or completes the round past the last one.
  void RunStage();
  /// Opens the flow of transfer `index` of the current stage (its sender
  /// has serialized its gradient).
  void StartTransfer(uint32_t index);
  /// Counts one transfer of the current stage as delivered.
  void TransferDone();
  void FinishStage();

  net::Network* network_;
  bool running_ = false;
  uint32_t generation_ = 0;  // Invalidates callbacks after Abort().
  std::vector<Peer> peers_;
  AllReduceOptions opts_;
  Plan plan_;  // Rebuilt in place by every Start.
  DoneCallback done_;
  double start_time_ = 0;
  size_t stage_ = 0;  // Index of the stage in flight.
  double stage_start_ = 0;
  int outstanding_flows_ = 0;
  std::vector<net::FlowId> stage_flows_;
  // Per-peer CPU aggregation debt for the current stage.
  std::vector<double> aggregate_cpu_;
  // Name and args of the span being recorded, reused by every round and
  // stage so recording builds no string of its own.
  std::string trace_name_;
  std::string trace_args_;
};

}  // namespace hivesim::collective

#endif  // HIVESIM_COLLECTIVE_ALLREDUCE_H_
