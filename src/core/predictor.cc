#include "core/predictor.h"

namespace hivesim::core {

// hivesim-lint: allow(U1) reason=Section 8's best-case speedup bound, which ROADMAP item 1 turns into a sweep oracle (ScalingLawTest holds it today)
double PredictSpeedupFactor(double granularity, double peer_factor) {
  if (granularity < 0 || peer_factor <= 0) return 0;
  return (granularity + 1.0) / (granularity / peer_factor + 1.0);
}

// hivesim-lint: allow(U1) reason=the throughput form of the same bound, for the same ROADMAP item 1 oracle
Result<double> PredictThroughput(double measured_sps, double granularity,
                                 int measured_peers, int target_peers,
                                 double comm_growth_per_peer) {
  if (measured_sps <= 0 || granularity <= 0) {
    return Status::InvalidArgument("need a positive measurement");
  }
  if (measured_peers <= 0 || target_peers <= 0) {
    return Status::InvalidArgument("peer counts must be positive");
  }
  // Normalize epoch time to 1: calc = g/(g+1), comm = 1/(g+1).
  const double calc = granularity / (granularity + 1.0);
  const double comm = 1.0 / (granularity + 1.0);
  const double k =
      static_cast<double>(target_peers) / measured_peers;
  const double new_calc = calc / k;
  const double new_comm =
      comm * (1.0 + comm_growth_per_peer * (target_peers - measured_peers));
  return measured_sps * (calc + comm) / (new_calc + new_comm);
}

}  // namespace hivesim::core
