#ifndef HIVESIM_FUZZ_INTERNAL_H_
#define HIVESIM_FUZZ_INTERNAL_H_

#include "net/location.h"
#include "scenario/scenario.h"

namespace hivesim::fuzz::internal {

/// Sites a fuzz fleet may rent in, with the continent each lives on: the
/// `net::SiteAliases` table minus the singleton on-prem machines, which
/// `ParseFleetSpec` rejects in counted groups. The generator draws sites
/// by index, so this order is part of the pinned campaign digest.
struct SiteChoice {
  const char* alias;
  net::Continent continent;
};
inline constexpr SiteChoice kSites[] = {
    {"gc-us", net::Continent::kUs},   {"gc-eu", net::Continent::kEu},
    {"gc-asia", net::Continent::kAsia}, {"gc-aus", net::Continent::kAus},
    {"aws", net::Continent::kUs},     {"azure", net::Continent::kUs},
    {"lambda", net::Continent::kUs},
};

/// Spec-level predicates the injected-ordering-bug test hook keys on
/// (exposed for the fuzzer's own unit tests).
bool PackHasFullPartition(const scenario::ScenarioPack& pack);
bool PackHasCrash(const scenario::ScenarioPack& pack);

}  // namespace hivesim::fuzz::internal

#endif  // HIVESIM_FUZZ_INTERNAL_H_
