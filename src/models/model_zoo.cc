#include "models/model_zoo.h"

#include <array>

#include "common/strings.h"
#include "common/units.h"

namespace hivesim::models {

namespace {

// Parameter counts from Section 3 (CV: 11.7M..197.8M, NLP: 124.7M..560.1M)
// and Section 11 (Whisper Tiny/Base/Small). Training GFLOPs are forward+
// backward estimates (~3x forward) from the architectures' published
// forward FLOPs at the paper's input sizes (224x224 images, 128-token
// sequences, 30 s Log-Mel windows). They drive FLOPs-based interpolation
// for GPUs without a measured anchor; anchored throughput always wins
// (see calibration.cc).
constexpr std::array<ModelSpec, kNumModels> kModelSpecs = {{
    {ModelId::kResNet18, "RN18", "ResNet18", Domain::kCV, 11.7e6, 5.4,
     110 * kKB, 12 * kMB},
    {ModelId::kResNet50, "RN50", "ResNet50", Domain::kCV, 25.6e6, 12.3,
     110 * kKB, 36 * kMB},
    {ModelId::kResNet152, "RN152", "ResNet152", Domain::kCV, 60.2e6, 34.5,
     110 * kKB, 60 * kMB},
    {ModelId::kWideResNet101, "WRN101", "WideResNet101_2", Domain::kCV,
     126.9e6, 68.4, 110 * kKB, 48 * kMB},
    {ModelId::kConvNextLarge, "CONV", "ConvNextLarge", Domain::kCV, 197.8e6,
     103.2, 110 * kKB, 80 * kMB},
    {ModelId::kRobertaBase, "RBase", "RoBERTa-Base", Domain::kNLP, 124.7e6,
     29.0, 23.7 * kKB, 24 * kMB},
    {ModelId::kRobertaLarge, "RLrg", "RoBERTa-Large", Domain::kNLP, 355.4e6,
     103.0, 23.7 * kKB, 64 * kMB},
    {ModelId::kRobertaXlm, "RXLM", "RoBERTa-XLM", Domain::kNLP, 560.1e6,
     120.0, 23.7 * kKB, 70 * kMB},
    {ModelId::kWhisperTiny, "WhTiny", "WhisperTiny", Domain::kASR, 37.8e6,
     90.0, 240 * kKB, 90 * kMB},
    {ModelId::kWhisperBase, "WhBase", "WhisperBase", Domain::kASR, 72.6e6,
     170.0, 240 * kKB, 140 * kMB},
    {ModelId::kWhisperSmall, "WhSmall", "WhisperSmall", Domain::kASR,
     241.7e6, 430.0, 240 * kKB, 300 * kMB},
}};

}  // namespace

std::string_view CompressionName(Compression c) {
  switch (c) {
    case Compression::kNone:
      return "fp32";
    case Compression::kFp16:
      return "fp16";
    case Compression::kInt8:
      return "int8";
  }
  return "?";
}

double BytesPerParam(Compression c) {
  switch (c) {
    case Compression::kNone:
      return 4.0;
    case Compression::kFp16:
      return 2.0;
    case Compression::kInt8:
      return 1.03;  // 1 byte plus per-block quantization scales.
  }
  return 4.0;
}

std::string_view DomainName(Domain d) {
  switch (d) {
    case Domain::kCV:
      return "CV";
    case Domain::kNLP:
      return "NLP";
    case Domain::kASR:
      return "ASR";
  }
  return "?";
}

const ModelSpec& GetModelSpec(ModelId id) {
  return kModelSpecs[static_cast<size_t>(id)];
}

std::string_view ModelName(ModelId id) { return GetModelSpec(id).name; }

Result<ModelId> ParseModelId(std::string_view name) {
  for (const ModelSpec& spec : kModelSpecs) {
    if (spec.name == name || spec.full_name == name) return spec.id;
  }
  return Status::NotFound(StrCat("unknown model: ", name));
}

const std::vector<ModelId>& AsrModels() {
  static const auto& models = *new std::vector<ModelId>{
      ModelId::kWhisperTiny, ModelId::kWhisperBase, ModelId::kWhisperSmall};
  return models;
}

const std::vector<ModelId>& SuitabilityStudyModels() {
  static const auto& models = *new std::vector<ModelId>{
      ModelId::kResNet18,      ModelId::kResNet50,
      ModelId::kResNet152,     ModelId::kWideResNet101,
      ModelId::kConvNextLarge, ModelId::kRobertaBase,
      ModelId::kRobertaLarge,  ModelId::kRobertaXlm};
  return models;
}

}  // namespace hivesim::models
