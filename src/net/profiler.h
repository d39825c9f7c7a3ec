#ifndef HIVESIM_NET_PROFILER_H_
#define HIVESIM_NET_PROFILER_H_

#include "common/result.h"
#include "net/network.h"

namespace hivesim::net {

/// Reproduces the paper's network measurement methodology (iperf single-
/// stream TCP throughput and ICMP ping) inside the simulator. Used by
/// `hivesim reproduce` for Tables 3, 4 and 5 and the Section 7 multi-
/// stream microbenchmark.
///
/// Runs drive the shared simulator forward, so profile before starting
/// training workloads (as the paper did).
class Profiler {
 public:
  explicit Profiler(Network* network) : network_(network) {}

  /// Measures achieved throughput from `src` to `dst` over `duration_sec`
  /// using `streams` parallel TCP connections. Returns bytes/sec.
  Result<double> Iperf(NodeId src, NodeId dst, double duration_sec,
                       int streams = 1);

  /// Round-trip latency in milliseconds (ICMP ping equivalent).
  Result<double> PingMs(NodeId src, NodeId dst);

 private:
  Network* network_;
};

}  // namespace hivesim::net

#endif  // HIVESIM_NET_PROFILER_H_
