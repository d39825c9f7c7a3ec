#ifndef HIVESIM_COMPUTE_GPU_H_
#define HIVESIM_COMPUTE_GPU_H_

#include <cstdint>
#include <string_view>

namespace hivesim::compute {

/// Accelerators the paper evaluates. T4 is the cheap spot workhorse at
/// GC/AWS/Azure; A10 is LambdaLabs' competitively priced Ampere card; the
/// V100 appears only inside the DGX-2 baseline; the RTX8000 is the
/// consumer-grade on-prem card (Section 6, setting E); the A100 appears in
/// the ASR case study (Section 11).
enum class GpuModel : uint8_t {
  kT4,
  kA10,
  kV100,
  kRtx8000,
  kA100_80GB,
};

/// Static hardware description of a GPU model.
struct GpuSpec {
  GpuModel model;
  std::string_view name;
  double fp16_tflops;     ///< Peak FP16 tensor throughput.
  double memory_bytes;    ///< On-device HBM/GDDR capacity.
  /// Generic speed multiplier vs. a T4 for dense training math. Used only
  /// as a fallback when the per-(model, GPU) calibration table has no
  /// anchor; anchored entries always win.
  double speed_vs_t4;
};

/// Catalog lookup; every enumerator has a spec.
const GpuSpec& GetGpuSpec(GpuModel model);

/// Short display name ("T4", "A10", ...).
std::string_view GpuName(GpuModel model);

}  // namespace hivesim::compute

#endif  // HIVESIM_COMPUTE_GPU_H_
