#ifndef HIVESIM_CORE_ADVISOR_H_
#define HIVESIM_CORE_ADVISOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/experiment.h"
#include "models/model_zoo.h"

namespace hivesim::core {

/// What the practitioner wants (the guidance use case from the paper's
/// Section 8 lessons).
struct AdvisorRequest {
  models::ModelId model = models::ModelId::kConvNextLarge;
  int target_batch_size = 32768;
  /// Minimum acceptable training throughput; 0 = no floor.
  double min_throughput_sps = 0;
  /// Candidate fleet sizes to evaluate per provider.
  std::vector<int> fleet_sizes = {1, 2, 4, 8};
};

/// One evaluated option, priced end to end (instance + egress + data).
struct AdvisorOption {
  std::string description;       ///< e.g. "8x gc-1xT4 @ gc-us-central1".
  ClusterSpec cluster;
  double throughput_sps = 0;
  double granularity = 0;
  double cost_per_hour = 0;
  double cost_per_million = 0;   ///< The ranking key.
  bool meets_target = false;
};

/// Evaluates spot fleets (GC/AWS/Azure T4s, Lambda A10s) and the
/// centralized competitors (DGX-2, 4xT4 DDP) against the request, and
/// returns all options ranked by cost per million samples, options that
/// meet the throughput floor first. This is the paper's decision
/// procedure made executable: measure granularity, then buy the cheapest
/// fleet that still scales.
Result<std::vector<AdvisorOption>> RankTrainingOptions(
    const AdvisorRequest& request);

}  // namespace hivesim::core

#endif  // HIVESIM_CORE_ADVISOR_H_
