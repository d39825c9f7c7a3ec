#ifndef HIVESIM_MODELS_MODEL_ZOO_H_
#define HIVESIM_MODELS_MODEL_ZOO_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace hivesim::models {

/// Task domains covered by the study (Section 3 and the Section 11 ASR
/// case study).
enum class Domain : uint8_t { kCV, kNLP, kASR };

/// Peer-to-peer gradient compression schemes. The paper runs everything
/// with FP16; its conclusion names "better compression" as the lever for
/// further communication-time improvements, which kInt8 models
/// (block-wise 8-bit quantization a la Dettmers 2016: 1 byte/param plus
/// ~3% for per-block scales).
enum class Compression : uint8_t { kNone, kFp16, kInt8 };

std::string_view CompressionName(Compression c);

/// Wire bytes per parameter under a compression scheme.
double BytesPerParam(Compression c);

std::string_view DomainName(Domain d);

/// The eleven models trained in the paper.
enum class ModelId : uint8_t {
  // CV: extended ResNet family on ImageNet-1K classification.
  kResNet18,
  kResNet50,
  kResNet152,
  kWideResNet101,
  kConvNextLarge,
  // NLP: RoBERTa family on Wikipedia masked language modeling.
  kRobertaBase,
  kRobertaLarge,
  kRobertaXlm,
  // ASR: Whisper on CommonVoice transcription (Section 11).
  kWhisperTiny,
  kWhisperBase,
  kWhisperSmall,
};

/// Number of entries in ModelId.
inline constexpr int kNumModels = 11;

/// Static description of a training workload.
struct ModelSpec {
  ModelId id;
  std::string_view name;        ///< Paper abbreviation ("RN18", "CONV"...).
  std::string_view full_name;   ///< e.g. "ConvNextLarge".
  Domain domain;
  double params;                ///< Parameter count (Section 3).
  double train_gflops_per_sample;  ///< Fwd+bwd compute per sample.
  /// Bytes one dataset sample occupies on the wire when streamed from B2
  /// (ImageNet JPEGs ~110 KB, tokenized Wikipedia ~7.7 KB, CommonVoice
  /// Log-Mel spectrograms ~240 KB). Drives the data-loading cost rows in
  /// Fig. 11.
  double sample_bytes;
  /// Peak activation memory per sample held on the GPU during a step;
  /// used by the OOM feasibility checks (e.g. RoBERTa-XLM under DDP does
  /// not fit a 16 GB T4, Section 7).
  double activation_bytes_per_sample;

  /// Gradient payload exchanged between peers per averaging round with
  /// FP16 compression enabled (the paper's default).
  double GradientBytesFp16() const { return params * 2.0; }
  /// Gradient payload without compression (FP32), for the ablation.
  double GradientBytesFp32() const { return params * 4.0; }
  /// Gradient payload under an arbitrary compression scheme.
  double GradientBytes(Compression c) const {
    return params * BytesPerParam(c);
  }
};

/// Catalog lookup; every enumerator has a spec.
const ModelSpec& GetModelSpec(ModelId id);

/// Paper abbreviation ("RN18", "RXLM", ...).
std::string_view ModelName(ModelId id);

/// Parses a paper abbreviation back to the id.
Result<ModelId> ParseModelId(std::string_view name);

/// The three trainable-on-T4 Whisper sizes in ascending order.
const std::vector<ModelId>& AsrModels();
/// CV followed by NLP (the Section 3 evaluation order).
const std::vector<ModelId>& SuitabilityStudyModels();

}  // namespace hivesim::models

#endif  // HIVESIM_MODELS_MODEL_ZOO_H_
