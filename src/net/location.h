#ifndef HIVESIM_NET_LOCATION_H_
#define HIVESIM_NET_LOCATION_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace hivesim::net {

/// Cloud providers evaluated by the paper (Section 5), plus the on-premise
/// deployment from Section 6.
enum class Provider : uint8_t {
  kGoogleCloud,
  kAws,
  kAzure,
  kLambdaLabs,
  kOnPremise,
};

/// Continents used in the geo-distributed experiments (Table 2). Oceania is
/// abbreviated AUS to match the paper's experiment naming.
enum class Continent : uint8_t { kUs, kEu, kAsia, kAus };

std::string_view ContinentName(Continent c);

/// Numeric handle for a data-center site in the topology.
using SiteId = uint32_t;

/// A physical deployment location: one data center (or on-prem machine
/// room). All VMs in a site share its intra-site connectivity.
struct Site {
  SiteId id = 0;
  std::string name;        ///< e.g. "gc-us-central1".
  Provider provider = Provider::kGoogleCloud;
  Continent continent = Continent::kUs;
};

/// The standard sites used across the paper's experiments. Indices are
/// stable; `StandardWorld()` (profiles.h) registers them in this order.
enum StandardSite : SiteId {
  kGcUs = 0,        ///< GC us-central1 (Iowa), Sections 4-6.
  kGcEu = 1,        ///< GC europe-west1 (Belgium).
  kGcAsia = 2,      ///< GC asia-east1 (Taiwan).
  kGcAus = 3,       ///< GC australia-southeast1 (Sydney).
  kAwsUsWest = 4,   ///< AWS us-west-2 (g4dn.2xlarge), Section 5.
  kAzureUsSouth = 5,///< Azure us-south-2 (NC4as_T4_v3), Section 5.
  kLambdaUsWest = 6,///< LambdaLabs US-West (A10), Section 3.
  kOnPremEu = 7,    ///< On-premise building in Europe (RTX8000 / DGX-2).
  kNumStandardSites = 8,
};

}  // namespace hivesim::net

#endif  // HIVESIM_NET_LOCATION_H_
