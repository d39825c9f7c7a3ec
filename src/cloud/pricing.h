#ifndef HIVESIM_CLOUD_PRICING_H_
#define HIVESIM_CLOUD_PRICING_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"
#include "compute/gpu.h"
#include "compute/host.h"
#include "net/location.h"

namespace hivesim::cloud {

/// Instance (VM) types rented in the paper's experiments.
enum class VmTypeId : uint8_t {
  kGcT4,          ///< GC n1-standard-8 + 1 T4 (Sections 4-6).
  kAwsT4,         ///< AWS g4dn.2xlarge + 1 T4 (Section 5).
  kAzureT4,       ///< Azure NC4as_T4_v3 + 1 T4 (Section 5).
  kLambdaA10,     ///< LambdaLabs 1xA10, on-demand only (Section 3).
  kGc4xT4,        ///< Best multi-T4 single node on GC (PyTorch DDP).
  kGcDgx2,        ///< DGX-2 (8xV100) on GC (Sections 6-7).
  kGcA100,        ///< A100 80GB (Section 11 ASR case study).
  kOnPremRtx8000, ///< On-prem consumer workstation (setting E). Sunk cost.
  kOnPremDgx2,    ///< On-prem DGX-2 (setting F). Sunk cost.
};

/// Static description and pricing of a VM type (Table 1 and Section 7).
struct VmType {
  VmTypeId id;
  std::string_view name;
  net::Provider provider;
  compute::GpuModel gpu;
  int gpu_count;
  compute::HostClass host;
  double spot_per_hour;      ///< Spot/preemptible $/h (== on-demand if none).
  double ondemand_per_hour;  ///< On-demand $/h (0 for on-prem sunk cost).
};

const VmType& GetVmType(VmTypeId id);

/// Egress price in $/GB for a byte leaving a VM of `src_provider` in
/// `src_continent` toward `dst_continent` under `dst_provider`.
/// Implements the Table 1 schedule:
///   - traffic touching Oceania uses the ANY-OCE rate
///     (GC $0.15, AWS $0.02, Azure $0.08),
///   - other intercontinental traffic uses the between-continents rate
///     (GC $0.08, AWS $0.02, Azure $0.02),
///   - same-continent, same-provider traffic uses the inter-zone rate
///     (GC $0.01, AWS $0.01, Azure $0.00),
///   - same-continent, cross-provider traffic exits to the internet at the
///     inter-region rate for that continent,
///   - LambdaLabs and on-premise hosts do not charge egress.
double EgressPricePerGb(net::Provider src_provider,
                        net::Continent src_continent,
                        net::Provider dst_provider,
                        net::Continent dst_continent);

/// Convenience overload on sites.
double EgressPricePerGb(const net::Site& src, const net::Site& dst);

/// Backblaze B2 egress rate for dataset streaming: $0.01/GB worldwide.
double DataIngressPricePerGb();

}  // namespace hivesim::cloud

#endif  // HIVESIM_CLOUD_PRICING_H_
