#ifndef HIVESIM_BASELINES_BASELINES_H_
#define HIVESIM_BASELINES_BASELINES_H_

#include "common/result.h"
#include "compute/gpu.h"
#include "compute/host.h"
#include "models/model_zoo.h"

namespace hivesim::baselines {

/// Throughput of the paper's baseline setup: a single GPU reaching the
/// target batch size via native PyTorch gradient accumulation. Verifies
/// the model fits the device (OutOfMemory otherwise).
Result<double> SingleGpuThroughput(models::ModelId model,
                                   compute::GpuModel gpu,
                                   compute::HostClass host);

/// A multi-GPU single-node PyTorch DDP configuration (the centralized
/// competitors: DGX-2 with 8 V100s over NVLink, the best GC multi-T4 node
/// with 4 T4s over PCIe, or a single A100).
struct DdpNodeConfig {
  models::ModelId model = models::ModelId::kConvNextLarge;
  compute::GpuModel gpu = compute::GpuModel::kV100;
  int gpu_count = 8;
  compute::HostClass host = compute::HostClass::kDgx2Host;
};

/// Throughput of synchronous DDP on one node: every microbatch step ring-
/// all-reduces the FP32 gradients across the node's GPUs, over NVLink for
/// V100s (the DGX-2) and over PCIe otherwise. Anchored cases (DGX-2:
/// 413/1811 SPS; 4xT4: 207 SPS CV, 24 SPS WhisperSmall) return the
/// paper's measurements exactly; other configurations use the ring model.
/// Returns OutOfMemory where the paper's runs OOMed (RoBERTa-XLM on the
/// 4xT4 node).
Result<double> DdpThroughput(const DdpNodeConfig& config);

}  // namespace hivesim::baselines

#endif  // HIVESIM_BASELINES_BASELINES_H_
