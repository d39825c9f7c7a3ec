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
  /// Effective all-reduce bandwidth between the GPUs in bytes/sec.
  /// NVLink inside a DGX-2 sustains ~120 GB/s; the 4xT4 node's shared
  /// PCIe fabric is calibrated to ~5.4 GB/s from the paper's 207 SPS.
  double interconnect_bytes_per_sec = 120e9;
};

/// A DGX-2 (8xV100 over NVLink) running `model`.
DdpNodeConfig Dgx2Node(models::ModelId model);

/// Throughput of synchronous DDP on one node: every microbatch step ring-
/// all-reduces the FP32 gradients across the node's GPUs. Anchored cases
/// (DGX-2: 413/1811 SPS; 4xT4: 207 SPS CV, 24 SPS WhisperSmall) return
/// the paper's measurements exactly; other configurations use the ring
/// model. Returns OutOfMemory where the paper's runs OOMed (RoBERTa-XLM
/// on the 4xT4 node).
Result<double> DdpThroughput(const DdpNodeConfig& config);

}  // namespace hivesim::baselines

#endif  // HIVESIM_BASELINES_BASELINES_H_
