#include "cloud/pricing.h"

#include <array>

namespace hivesim::cloud {

namespace {

using compute::GpuModel;
using compute::HostClass;
using net::Continent;
using net::Provider;

// Table 1 (us-west, April '23) for the T4 instances; Section 7 for the
// DGX-2 ($6.30 spot / $14.60 on-demand) and the 4xT4 node ($0.72/h spot,
// derived from its $0.96 per 1M samples at 207 SPS); Section 11 for the
// A100 ($2.02/h, derived from $12.19 per 1M samples at 46 SPS);
// LambdaLabs advertises the A10 at $0.60/h on-demand with no spot tier.
// On-premise machines are sunk cost: $0/h in the comparisons.
constexpr std::array<VmType, 9> kVmTypes = {{
    {VmTypeId::kGcT4, "gc-1xT4", Provider::kGoogleCloud, GpuModel::kT4, 1,
     HostClass::kGcN1Standard8, 0.180, 0.572},
    {VmTypeId::kAwsT4, "aws-1xT4", Provider::kAws, GpuModel::kT4, 1,
     HostClass::kAwsG4dn2xlarge, 0.395, 0.802},
    {VmTypeId::kAzureT4, "azure-1xT4", Provider::kAzure, GpuModel::kT4, 1,
     HostClass::kAzureNC4asT4v3, 0.134, 0.489},
    {VmTypeId::kLambdaA10, "lambda-1xA10", Provider::kLambdaLabs,
     GpuModel::kA10, 1, HostClass::kLambdaA10Host, 0.60, 0.60},
    {VmTypeId::kGc4xT4, "gc-4xT4", Provider::kGoogleCloud, GpuModel::kT4, 4,
     HostClass::kGcN1Standard8, 0.72, 2.29},
    {VmTypeId::kGcDgx2, "gc-dgx2-8xV100", Provider::kGoogleCloud,
     GpuModel::kV100, 8, HostClass::kDgx2Host, 6.30, 14.60},
    {VmTypeId::kGcA100, "gc-1xA100", Provider::kGoogleCloud,
     GpuModel::kA100_80GB, 1, HostClass::kDgx2Host, 2.02, 5.07},
    {VmTypeId::kOnPremRtx8000, "onprem-rtx8000", Provider::kOnPremise,
     GpuModel::kRtx8000, 1, HostClass::kOnPremWorkstation, 0.0, 0.0},
    {VmTypeId::kOnPremDgx2, "onprem-dgx2-8xV100", Provider::kOnPremise,
     GpuModel::kV100, 8, HostClass::kDgx2Host, 0.0, 0.0},
}};

struct EgressSchedule {
  double inter_zone;           // Same provider, same continent.
  double inter_region_us;      // Cross-provider exit, per continent.
  double inter_region_eu;
  double inter_region_asia;
  double inter_region_oce;
  double any_oce;              // Anything touching Oceania.
  double between_continents;   // Other intercontinental.
};

// Table 1 egress rows.
constexpr EgressSchedule kGcEgress = {0.01, 0.01, 0.02, 0.05, 0.08, 0.15,
                                      0.08};
constexpr EgressSchedule kAwsEgress = {0.01, 0.01, 0.01, 0.01, 0.01, 0.02,
                                       0.02};
constexpr EgressSchedule kAzureEgress = {0.00, 0.02, 0.02, 0.08, 0.08, 0.08,
                                         0.02};

const EgressSchedule* ScheduleFor(Provider p) {
  switch (p) {
    case Provider::kGoogleCloud:
      return &kGcEgress;
    case Provider::kAws:
      return &kAwsEgress;
    case Provider::kAzure:
      return &kAzureEgress;
    case Provider::kLambdaLabs:
    case Provider::kOnPremise:
      return nullptr;  // Free egress.
  }
  return nullptr;
}

double InterRegionRate(const EgressSchedule& s, Continent c) {
  switch (c) {
    case Continent::kUs:
      return s.inter_region_us;
    case Continent::kEu:
      return s.inter_region_eu;
    case Continent::kAsia:
      return s.inter_region_asia;
    case Continent::kAus:
      return s.inter_region_oce;
  }
  return s.inter_region_us;
}

}  // namespace

const VmType& GetVmType(VmTypeId id) {
  return kVmTypes[static_cast<size_t>(id)];
}

double EgressPricePerGb(Provider src_provider, Continent src_continent,
                        Provider dst_provider, Continent dst_continent) {
  const EgressSchedule* s = ScheduleFor(src_provider);
  if (s == nullptr) return 0.0;
  if (src_continent == Continent::kAus || dst_continent == Continent::kAus) {
    // Intra-AUS same-provider traffic is still zone-local.
    if (src_continent == dst_continent && src_provider == dst_provider) {
      return s->inter_zone;
    }
    return s->any_oce;
  }
  if (src_continent != dst_continent) return s->between_continents;
  if (src_provider == dst_provider) return s->inter_zone;
  return InterRegionRate(*s, src_continent);
}

double EgressPricePerGb(const net::Site& src, const net::Site& dst) {
  return EgressPricePerGb(src.provider, src.continent, dst.provider,
                          dst.continent);
}

double DataIngressPricePerGb() { return 0.01; }

}  // namespace hivesim::cloud
