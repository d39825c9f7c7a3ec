#ifndef HIVESIM_CORE_CATALOG_H_
#define HIVESIM_CORE_CATALOG_H_

#include <string>
#include <vector>

#include "core/cluster.h"

namespace hivesim::core {

/// A named fleet from the paper's experiment matrix.
struct NamedExperiment {
  std::string name;  ///< Paper naming: "A-4", "C-8", "E-B-2", "D-3", ...
  ClusterSpec cluster;
};

/// (A) Intra-zone: {1,2,3,4,6,8} GC T4 VMs in us-central1 (Table 2).
std::vector<NamedExperiment> ASeries();

/// (B) Transatlantic: {1,2,3,4} x US + same in EU (Table 2).
std::vector<NamedExperiment> BSeries();

/// (C) Intercontinental: VMs across US/EU/ASIA(/AUS) (Table 2):
/// C-3, C-4, C-6, C-8.
std::vector<NamedExperiment> CSeries();

/// (D) Multi-cloud: D-1 = 4x GC, D-2 = 2x GC + 2x AWS,
/// D-3 = 2x GC + 2x Azure (Section 5).
std::vector<NamedExperiment> DSeries();

/// Where the hybrid experiments rent their cloud GPUs.
enum class HybridVariant {
  kEuT4,   ///< {E,F}-A: GC T4s in the EU (closest to the on-prem site).
  kUsT4,   ///< {E,F}-B: GC T4s in the US.
  kUsA10,  ///< {E,F}-C: LambdaLabs A10s in the US.
};

/// (E) Consumer-grade hybrid: on-prem RTX8000 plus {1,2,4,8} cloud GPUs
/// of the chosen variant (Section 6).
std::vector<NamedExperiment> ESeries(HybridVariant variant);

/// (F) Server-grade hybrid: on-prem DGX-2 plus {1,2,4,8} cloud GPUs.
std::vector<NamedExperiment> FSeries(HybridVariant variant);

/// LambdaLabs A10 scaling fleet for the Section 3 suitability study:
/// {1,2,3,4,8} x A10.
std::vector<NamedExperiment> LambdaSeries();

/// Parses the "site:count,site:count" fleet grammar shared by the CLI
/// (`fleet --spec`, `sweep --fleets`) and the fuzzer's reproducer packs.
/// Sites are `net::SiteAliases` names; on-prem machines are singletons
/// (E/F series) and are rejected.
Result<ClusterSpec> ParseFleetSpec(const std::string& spec);

}  // namespace hivesim::core

#endif  // HIVESIM_CORE_CATALOG_H_
