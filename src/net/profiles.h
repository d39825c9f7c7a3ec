#ifndef HIVESIM_NET_PROFILES_H_
#define HIVESIM_NET_PROFILES_H_

#include <map>
#include <string>

#include "net/topology.h"

namespace hivesim::net {

/// Builds the unified world topology containing every site the paper's
/// experiments touch, with path bandwidths/latencies set to the paper's
/// measurements:
///   - Table 3: GC inter-zone throughput and latency,
///   - Table 4: GC/AWS/Azure inter-cloud connectivity,
///   - Table 5: on-premise building to EU/US cloud connectivity,
///   - Section 3: LambdaLabs intra-region 3.3 Gb/s / 0.3 ms.
///
/// Path bandwidths are the *physical multi-stream* capacities. Single-
/// stream behaviour (e.g. 50-80 Mb/s from the on-prem hosts to the US at
/// ~150 ms RTT, despite a multi-Gb/s path) emerges from the per-node TCP
/// window in `CloudVmNetConfig` / `OnPremNetConfig`; `hivesim reproduce
/// --figure=table5,sec7_multistream` reproduces the measurements.
Topology StandardWorld();

/// Short names of the standard world's sites ("gc-us", "aws", "onprem",
/// ...), the one table that `hivesim list` prints and that fleet specs
/// and scenario packs name sites by.
const std::map<std::string, SiteId>& SiteAliases();

/// Network config of a cloud VM: large tuned TCP buffers (8 MB), so the
/// physical path capacity is the binding constraint on GC premium-tier
/// routes (Table 3 shows 210 Mb/s single-stream transatlantic).
NodeNetConfig CloudVmNetConfig();

/// Network config of the paper's on-prem hosts: effective ~1.05 MB window,
/// reproducing Table 5 (0.45-0.55 Gb/s to EU at 16.5 ms; 50-80 Mb/s to the
/// US at ~150 ms) and the Section 7 multi-stream microbenchmark.
NodeNetConfig OnPremNetConfig();

}  // namespace hivesim::net

#endif  // HIVESIM_NET_PROFILES_H_
