#include "baselines/baselines.h"

#include "models/calibration.h"
#include "models/memory.h"

namespace hivesim::baselines {

namespace {

using compute::GpuModel;
using models::ModelId;

/// Paper-measured DDP anchors; checked before the ring model.
struct DdpAnchor {
  ModelId model;
  GpuModel gpu;
  int gpu_count;
  double sps;
};
constexpr DdpAnchor kDdpAnchors[] = {
    {ModelId::kConvNextLarge, GpuModel::kV100, 8, 413.0},
    {ModelId::kRobertaXlm, GpuModel::kV100, 8, 1811.0},
    {ModelId::kConvNextLarge, GpuModel::kT4, 4, 207.0},
    {ModelId::kWhisperSmall, GpuModel::kT4, 4, 24.0},
    {ModelId::kWhisperSmall, GpuModel::kA100_80GB, 1, 46.0},
};

// Effective all-reduce bandwidth between a node's GPUs in bytes/sec.
// NVLink inside a DGX-2 sustains ~120 GB/s; the 4xT4 node's shared PCIe
// fabric is calibrated to ~5.4 GB/s from the paper's 207 SPS.
constexpr double kNvlinkBytesPerSec = 120e9;
constexpr double kPcieBytesPerSec = 5.4e9;

}  // namespace

Result<double> SingleGpuThroughput(models::ModelId model,
                                   compute::GpuModel gpu,
                                   compute::HostClass host) {
  HIVESIM_RETURN_IF_ERROR(models::CheckFits(
      model, models::TrainerKind::kLocalBaseline, gpu, host));
  return models::BaselineSps(model, gpu);
}

Result<double> DdpThroughput(const DdpNodeConfig& config) {
  if (config.gpu_count < 1) {
    return Status::InvalidArgument("DDP node needs at least one GPU");
  }
  HIVESIM_RETURN_IF_ERROR(models::CheckFits(
      config.model, models::TrainerKind::kDdp, config.gpu, config.host));

  for (const DdpAnchor& anchor : kDdpAnchors) {
    if (anchor.model == config.model && anchor.gpu == config.gpu &&
        anchor.gpu_count == config.gpu_count) {
      return anchor.sps;
    }
  }

  double per_gpu_sps = 0;
  HIVESIM_ASSIGN_OR_RETURN(per_gpu_sps,
                           models::BaselineSps(config.model, config.gpu));
  if (config.gpu_count == 1) return per_gpu_sps;

  // Ring all-reduce per microbatch step: each GPU moves
  // 2*(G-1)/G * fp32-gradient bytes across the interconnect, overlapping
  // nothing (synchronous DDP without no_sync).
  const models::ModelSpec& spec = models::GetModelSpec(config.model);
  const int microbatch = models::DefaultMicrobatch(config.model);
  const double calc_sec = microbatch / per_gpu_sps;
  const double ring_bytes = 2.0 * (config.gpu_count - 1) / config.gpu_count *
                            spec.GradientBytesFp32();
  const double interconnect_bytes_per_sec =
      config.gpu == GpuModel::kV100 ? kNvlinkBytesPerSec : kPcieBytesPerSec;
  const double comm_sec = ring_bytes / interconnect_bytes_per_sec;
  const double efficiency = calc_sec / (calc_sec + comm_sec);
  return config.gpu_count * per_gpu_sps * efficiency;
}

}  // namespace hivesim::baselines
