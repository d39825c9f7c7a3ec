#include "net/topology.h"

#include <algorithm>
#include <cstring>

#include "common/strings.h"
#include "common/units.h"

namespace hivesim::net {

namespace {
constexpr double kNicBps = 10e9 / 8.0;  // 10 Gb/s, each direction.

/// Interning keys on exact (bitwise) equality, so ConfigOf returns the
/// very values AddNode was given.
static_assert(sizeof(NodeNetConfig) == sizeof(double),
              "SameBits must not compare padding");
bool SameBits(const NodeNetConfig& a, const NodeNetConfig& b) {
  return std::memcmp(&a, &b, sizeof(NodeNetConfig)) == 0;
}
}  // namespace

SiteId Topology::AddSite(std::string name, Provider provider,
                         Continent continent) {
  Site s;
  s.id = static_cast<SiteId>(sites_.size());
  s.name = std::move(name);
  s.provider = provider;
  s.continent = continent;
  sites_.push_back(std::move(s));
  return sites_.back().id;
}

void Topology::GrowPathTable(size_t sites) {
  if (sites <= path_dim_) return;
  std::vector<std::optional<Path>> grown(sites * sites);
  for (size_t a = 0; a < path_dim_; ++a) {
    std::copy_n(paths_.begin() + a * path_dim_, path_dim_,
                grown.begin() + a * sites);
  }
  paths_ = std::move(grown);
  path_dim_ = sites;
}

void Topology::SetPath(SiteId a, SiteId b, double bandwidth_bps,
                       double rtt_sec, double single_stream_bps) {
  // Sized for every site so far: a world that adds its sites first
  // allocates the table once.
  GrowPathTable(
      std::max(sites_.size(), static_cast<size_t>(std::max(a, b)) + 1));
  const Path path{bandwidth_bps, rtt_sec, single_stream_bps};
  paths_[a * path_dim_ + b] = path;
  paths_[b * path_dim_ + a] = path;
}

Result<Path> Topology::PathBetween(SiteId a, SiteId b) const {
  if (a >= path_dim_ || b >= path_dim_ || !paths_[a * path_dim_ + b]) {
    return Status::NotFound(StrFormat("no path between site %u and %u", a, b));
  }
  return *paths_[a * path_dim_ + b];
}

uint32_t Topology::InternConfig(const NodeNetConfig& config) {
  if (!node_config_.empty() &&
      SameBits(configs_[node_config_.back()], config)) {
    return node_config_.back();
  }
  for (uint32_t i = 0; i < configs_.size(); ++i) {
    if (SameBits(configs_[i], config)) return i;
  }
  configs_.push_back(config);
  return static_cast<uint32_t>(configs_.size() - 1);
}

NodeId Topology::AddNode(SiteId site, NodeNetConfig config) {
  node_config_.push_back(InternConfig(config));
  node_sites_.push_back(site);
  return static_cast<NodeId>(node_sites_.size() - 1);
}

Result<Path> Topology::PathBetweenNodes(NodeId a, NodeId b) const {
  return PathBetween(SiteOf(a), SiteOf(b));
}

double Topology::EgressCap(NodeId /*node*/) const { return kNicBps; }

double Topology::IngressCap(NodeId /*node*/) const { return kNicBps; }

}  // namespace hivesim::net
