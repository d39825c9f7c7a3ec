#include "compute/gpu.h"

#include <array>

#include "common/units.h"

namespace hivesim::compute {

namespace {
// Peak FP16 tensor-core numbers from vendor datasheets; `speed_vs_t4`
// reflects *achieved* training throughput ratios (the paper's A10 runs
// ~2.3x a T4 on ConvNextLarge: 185 vs 80 SPS), which are far below the
// raw TFLOPs ratios.
constexpr std::array<GpuSpec, 5> kGpuSpecs = {{
    {GpuModel::kT4, "T4", 65.0, 16 * kGiB, 1.0},
    {GpuModel::kA10, "A10", 125.0, 24 * kGiB, 2.31},
    {GpuModel::kV100, "V100", 112.0, 32 * kGiB, 1.6},
    {GpuModel::kRtx8000, "RTX8000", 130.0, 48 * kGiB, 2.4},
    {GpuModel::kA100_80GB, "A100-80GB", 312.0, 80 * kGiB, 4.5},
}};
}  // namespace

const GpuSpec& GetGpuSpec(GpuModel model) {
  return kGpuSpecs[static_cast<size_t>(model)];
}

std::string_view GpuName(GpuModel model) { return GetGpuSpec(model).name; }

}  // namespace hivesim::compute
