#include "core/advisor.h"

#include <algorithm>

#include "common/strings.h"

namespace hivesim::core {

namespace {

// Simulated duration of one candidate evaluation.
constexpr double kEvalDurationSec = 1.5 * 3600.0;

struct Candidate {
  std::string label;
  VmGroup group;  // count is overwritten per fleet size.
};

AdvisorOption EvaluateFleet(const std::string& description,
                            const ClusterSpec& cluster,
                            const AdvisorRequest& request) {
  AdvisorOption option;
  option.description = description;
  option.cluster = cluster;
  ExperimentConfig config;
  config.model = request.model;
  config.target_batch_size = request.target_batch_size;
  config.duration_sec = kEvalDurationSec;
  auto result = RunHivemindExperiment(cluster, config);
  if (!result.ok()) return option;  // Infeasible: stays at 0 throughput.
  option.throughput_sps = result->train.throughput_sps;
  option.granularity = result->train.granularity;
  option.cost_per_hour = result->fleet_cost_per_hour;
  option.cost_per_million = result->cost_per_million;
  return option;
}

AdvisorOption EvaluateCentralized(const std::string& description,
                                  cloud::VmTypeId type,
                                  const AdvisorRequest& request) {
  AdvisorOption option;
  option.description = description;
  auto result = RunCentralizedBaseline(type, request.model);
  if (!result.ok()) return option;  // e.g. OOM on the 4xT4 node.
  option.throughput_sps = result->throughput_sps;
  option.cost_per_hour = result->spot_per_hour;
  option.cost_per_million = result->spot_cost_per_million;
  return option;
}

}  // namespace

Result<std::vector<AdvisorOption>> RankTrainingOptions(
    const AdvisorRequest& request) {
  if (request.fleet_sizes.empty()) {
    return Status::InvalidArgument("no fleet sizes to evaluate");
  }

  const std::vector<Candidate> candidates = {
      {"gc-1xT4 @ us-central1", GcT4s(1, net::kGcUs)},
      {"aws-1xT4 @ us-west-2", AwsT4s(1)},
      {"azure-1xT4 @ us-south-2", AzureT4s(1)},
      {"lambda-1xA10 @ us-west", LambdaA10s(1)},
  };

  std::vector<AdvisorOption> options;
  for (const Candidate& candidate : candidates) {
    for (int n : request.fleet_sizes) {
      if (n <= 0) continue;
      ClusterSpec cluster;
      VmGroup group = candidate.group;
      group.count = n;
      cluster.groups.push_back(group);
      options.push_back(EvaluateFleet(
          StrCat(n, "x ", candidate.label), cluster, request));
    }
  }
  // Geo-distributed candidates: the same GC T4 budget split across the
  // Atlantic (useful when one region is out of spot capacity, Section 5).
  for (int n : request.fleet_sizes) {
    if (n < 2 || n % 2 != 0) continue;
    ClusterSpec cluster;
    cluster.groups = {GcT4s(n / 2, net::kGcUs), GcT4s(n / 2, net::kGcEu)};
    options.push_back(EvaluateFleet(
        StrCat(n / 2, "+", n / 2, "x gc-1xT4 @ US+EU"), cluster, request));
  }
  options.push_back(EvaluateCentralized("DGX-2 (8xV100, DDP)",
                                        cloud::VmTypeId::kGcDgx2, request));
  options.push_back(EvaluateCentralized("gc-4xT4 (DDP)",
                                        cloud::VmTypeId::kGc4xT4, request));

  for (AdvisorOption& option : options) {
    option.meets_target = option.throughput_sps >= request.min_throughput_sps &&
                          option.throughput_sps > 0;
  }
  std::sort(options.begin(), options.end(),
            [](const AdvisorOption& a, const AdvisorOption& b) {
              if (a.meets_target != b.meets_target) return a.meets_target;
              if (a.cost_per_million <= 0) return false;
              if (b.cost_per_million <= 0) return true;
              return a.cost_per_million < b.cost_per_million;
            });
  return options;
}

}  // namespace hivesim::core
