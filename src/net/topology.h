#ifndef HIVESIM_NET_TOPOLOGY_H_
#define HIVESIM_NET_TOPOLOGY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/location.h"

namespace hivesim::net {

/// Numeric handle for a host (VM or on-prem machine) attached to a site.
using NodeId = uint32_t;

/// Measured characteristics of the path between two sites. Bandwidth is the
/// physical multi-stream capacity of the path; what a *single* TCP stream
/// achieves additionally depends on the endpoints' TCP windows and the RTT
/// (see `Network::StartFlow`). This distinction is how the paper's
/// Section 7 observation (80 streams reach 6 Gb/s where one stream gets
/// 0.5 Gb/s) is reproduced.
struct Path {
  double bandwidth_bps = 0;  ///< Physical multi-stream capacity, bytes/sec.
  double rtt_sec = 0;        ///< Round-trip time in seconds.
  /// Per-TCP-stream pacing limit in bytes/sec (0 = none beyond the
  /// sender's window/RTT). Wide-area providers pace individual streams
  /// well below path capacity — the paper's iperf numbers (Table 3) are
  /// single-stream measurements, and Section 7 shows multiple streams
  /// reach several times more.
  double single_stream_bps = 0;
};

/// Per-host network parameters.
struct NodeNetConfig {
  /// TCP send window (bytes). Caps a single stream at window/RTT. Cloud
  /// VMs ship with large tuned buffers (8 MB); the paper's on-prem hosts
  /// behave like ~1 MB windows (0.5 Gb/s at 16.5 ms, 55 Mb/s at 150 ms).
  double tcp_window_bytes = 8e6;
};

/// Static description of the world: sites, inter-site paths, and hosts.
/// The dynamic part (flows in flight) lives in `Network`.
class Topology {
 public:
  Topology() = default;

  /// Registers a site and returns its id (ids are dense, insertion order).
  SiteId AddSite(std::string name, Provider provider, Continent continent);

  /// Sets the symmetric path between two sites (also used for a == b to
  /// describe intra-site connectivity). Bandwidth in bytes/sec;
  /// `single_stream_bps` optionally caps each TCP stream below that.
  void SetPath(SiteId a, SiteId b, double bandwidth_bps, double rtt_sec,
               double single_stream_bps = 0);

  /// Looks up the path between two sites; error if it was never set.
  Result<Path> PathBetween(SiteId a, SiteId b) const;

  /// Attaches a host to `site` and returns its node id. Configs are
  /// interned: nodes with bit-identical configs (one VM type) share one
  /// table entry, and each node stores a 4-byte index into it.
  NodeId AddNode(SiteId site, NodeNetConfig config = NodeNetConfig());

  /// Site of a node.
  SiteId SiteOf(NodeId node) const { return node_sites_.at(node); }
  const NodeNetConfig& ConfigOf(NodeId node) const {
    return configs_[node_config_.at(node)];
  }
  /// Number of distinct node configs stored (see `AddNode`).
  size_t num_distinct_configs() const { return configs_.size(); }
  const Site& site(SiteId id) const { return sites_.at(id); }
  size_t num_sites() const { return sites_.size(); }
  size_t num_nodes() const { return node_sites_.size(); }

  /// Path between the sites of two nodes.
  Result<Path> PathBetweenNodes(NodeId a, NodeId b) const;

  /// NIC egress capacity of a node, shared by all its outgoing flows:
  /// every host has a 10 Gb/s NIC.
  double EgressCap(NodeId node) const;
  /// NIC ingress capacity of a node, shared by all its incoming flows.
  double IngressCap(NodeId node) const;

 private:
  /// Grows the path table to at least `sites` x `sites`, keeping every
  /// path already set.
  void GrowPathTable(size_t sites);
  /// Index of `config` in `configs_`, appended if new. O(1) when the
  /// node repeats the previous node's config (fleets add nodes type by
  /// type); otherwise a scan of the distinct configs, which a fleet keeps
  /// to its handful of VM types.
  uint32_t InternConfig(const NodeNetConfig& config);

  std::vector<Site> sites_;
  /// Dense symmetric site-pair table, `path_dim_` x `path_dim_`, row
  /// major; both (a, b) and (b, a) hold a set path. Empty = never set.
  std::vector<std::optional<Path>> paths_;
  size_t path_dim_ = 0;
  std::vector<SiteId> node_sites_;
  std::vector<NodeNetConfig> configs_;  ///< Distinct, first-use order.
  std::vector<uint32_t> node_config_;   ///< Per node, into `configs_`.
};

}  // namespace hivesim::net

#endif  // HIVESIM_NET_TOPOLOGY_H_
