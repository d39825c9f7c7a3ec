#include <gtest/gtest.h>

#include "compute/gpu.h"
#include "compute/host.h"
#include "models/calibration.h"
#include "models/memory.h"
#include "models/model_zoo.h"

namespace hivesim::models {
namespace {

using compute::GpuModel;
using compute::HostClass;

// --- GPU / host catalogs ---

TEST(GpuTest, CatalogComplete) {
  for (auto g : {GpuModel::kT4, GpuModel::kA10, GpuModel::kV100,
                 GpuModel::kRtx8000, GpuModel::kA100_80GB}) {
    const auto& spec = compute::GetGpuSpec(g);
    EXPECT_EQ(spec.model, g);
    EXPECT_GT(spec.fp16_tflops, 0);
    EXPECT_GT(spec.memory_bytes, 0);
    EXPECT_GT(spec.speed_vs_t4, 0);
  }
}

TEST(HostTest, PaperHostShapes) {
  const auto& gc = compute::GetHostSpec(HostClass::kGcN1Standard8);
  EXPECT_EQ(gc.vcpus, 8);
  EXPECT_NEAR(gc.ram_bytes, 30e9, 1e9);
  const auto& azure = compute::GetHostSpec(HostClass::kAzureNC4asT4v3);
  EXPECT_EQ(azure.vcpus, 4);  // The paper's forced compromise.
  // LambdaLabs hosts are markedly faster per param than the GC VMs.
  EXPECT_LT(compute::GetHostSpec(HostClass::kLambdaA10Host).cpu_ns_per_param,
            gc.cpu_ns_per_param);
}

// --- Model zoo ---

TEST(ModelZooTest, ParameterCountsMatchPaper) {
  EXPECT_NEAR(GetModelSpec(ModelId::kResNet18).params, 11.7e6, 1e5);
  EXPECT_NEAR(GetModelSpec(ModelId::kResNet50).params, 25.6e6, 1e5);
  EXPECT_NEAR(GetModelSpec(ModelId::kResNet152).params, 60.2e6, 1e5);
  EXPECT_NEAR(GetModelSpec(ModelId::kWideResNet101).params, 126.9e6, 1e5);
  EXPECT_NEAR(GetModelSpec(ModelId::kConvNextLarge).params, 197.8e6, 1e5);
  EXPECT_NEAR(GetModelSpec(ModelId::kRobertaBase).params, 124.7e6, 1e5);
  EXPECT_NEAR(GetModelSpec(ModelId::kRobertaLarge).params, 355.4e6, 1e5);
  EXPECT_NEAR(GetModelSpec(ModelId::kRobertaXlm).params, 560.1e6, 1e5);
}

TEST(ModelZooTest, ConvNextAlmostTwentyTimesResNet18) {
  // Section 3: ConvNextLarge "is almost 20 times larger than RN18".
  const double ratio = GetModelSpec(ModelId::kConvNextLarge).params /
                       GetModelSpec(ModelId::kResNet18).params;
  EXPECT_GT(ratio, 15);
  EXPECT_LT(ratio, 20);
}

TEST(ModelZooTest, GradientBytesFollowFp16Compression) {
  const auto& conv = GetModelSpec(ModelId::kConvNextLarge);
  EXPECT_DOUBLE_EQ(conv.GradientBytesFp16(), conv.params * 2);
  EXPECT_DOUBLE_EQ(conv.GradientBytesFp32(), conv.params * 4);
}

/// The suitability-study models of one domain, in study order.
std::vector<ModelId> StudyModelsIn(Domain domain) {
  std::vector<ModelId> out;
  for (ModelId m : SuitabilityStudyModels()) {
    if (GetModelSpec(m).domain == domain) out.push_back(m);
  }
  return out;
}

TEST(ModelZooTest, DomainsAndFamilies) {
  // Five CV models followed by three NLP models (Section 3's order).
  EXPECT_EQ(SuitabilityStudyModels().size(), 8u);
  EXPECT_EQ(StudyModelsIn(Domain::kCV).size(), 5u);
  EXPECT_EQ(StudyModelsIn(Domain::kNLP).size(), 3u);
  EXPECT_EQ(GetModelSpec(SuitabilityStudyModels()[4]).domain, Domain::kCV);
  EXPECT_EQ(GetModelSpec(SuitabilityStudyModels()[5]).domain, Domain::kNLP);
  EXPECT_EQ(AsrModels().size(), 3u);
  for (ModelId m : AsrModels()) {
    EXPECT_EQ(GetModelSpec(m).domain, Domain::kASR);
  }
  EXPECT_EQ(DomainName(Domain::kASR), "ASR");
}

TEST(ModelZooTest, ParseNamesBothForms) {
  auto a = ParseModelId("CONV");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, ModelId::kConvNextLarge);
  auto b = ParseModelId("RoBERTa-XLM");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, ModelId::kRobertaXlm);
  EXPECT_FALSE(ParseModelId("GPT-4").ok());
}

TEST(ModelZooTest, FamiliesAscendInSize) {
  auto ascending = [](const std::vector<ModelId>& family) {
    for (size_t i = 1; i < family.size(); ++i) {
      EXPECT_LT(GetModelSpec(family[i - 1]).params,
                GetModelSpec(family[i]).params);
    }
  };
  ascending(StudyModelsIn(Domain::kCV));
  ascending(StudyModelsIn(Domain::kNLP));
  ascending(AsrModels());
}

// --- Calibration anchors ---

TEST(CalibrationTest, PaperAnchorsExact) {
  EXPECT_DOUBLE_EQ(
      BaselineSps(ModelId::kConvNextLarge, GpuModel::kT4).value(), 80.0);
  EXPECT_DOUBLE_EQ(
      BaselineSps(ModelId::kConvNextLarge, GpuModel::kA10).value(), 185.0);
  EXPECT_DOUBLE_EQ(
      BaselineSps(ModelId::kConvNextLarge, GpuModel::kRtx8000).value(),
      194.8);
  EXPECT_DOUBLE_EQ(
      BaselineSps(ModelId::kRobertaXlm, GpuModel::kRtx8000).value(), 431.8);
  EXPECT_DOUBLE_EQ(
      BaselineSps(ModelId::kWhisperSmall, GpuModel::kT4).value(), 12.7);
  EXPECT_DOUBLE_EQ(
      BaselineSps(ModelId::kWhisperSmall, GpuModel::kA100_80GB).value(),
      46.0);
}

TEST(CalibrationTest, DgxEffectiveRatesReproduceBaselines) {
  // 8 V100s under DDP must reproduce 413 SPS (CV) and 1811 SPS (NLP).
  EXPECT_NEAR(
      8 * BaselineSps(ModelId::kConvNextLarge, GpuModel::kV100).value(), 413,
      1.0);
  EXPECT_NEAR(8 * BaselineSps(ModelId::kRobertaXlm, GpuModel::kV100).value(),
              1811, 1.0);
}

TEST(CalibrationTest, EveryModelGpuPairHasAThroughput) {
  for (int m = 0; m < kNumModels; ++m) {
    for (auto g : {GpuModel::kT4, GpuModel::kA10, GpuModel::kV100,
                   GpuModel::kRtx8000, GpuModel::kA100_80GB}) {
      auto sps = BaselineSps(static_cast<ModelId>(m), g);
      ASSERT_TRUE(sps.ok());
      EXPECT_GT(*sps, 0);
    }
  }
}

TEST(CalibrationTest, PenaltyWorstForConvBestForRn152) {
  // Fig. 2: Hivemind local throughput reaches at best 78% (RN152) and at
  // worst 48% (CONV) of the baseline.
  EXPECT_DOUBLE_EQ(HivemindLocalPenalty(ModelId::kResNet152), 0.78);
  EXPECT_DOUBLE_EQ(HivemindLocalPenalty(ModelId::kConvNextLarge), 0.48);
  for (ModelId m : SuitabilityStudyModels()) {
    EXPECT_GE(HivemindLocalPenalty(m), 0.48);
    EXPECT_LE(HivemindLocalPenalty(m), 0.78);
  }
}

TEST(CalibrationTest, StreamCapScalesWithHostSpeed) {
  // The GC T4 hosts serialize at ~1.1 Gb/s; the Lambda hosts are faster.
  const double gc = GradientStreamCapBps(HostClass::kGcN1Standard8);
  EXPECT_NEAR(gc * 8 / 1e9, 1.1, 0.01);
  EXPECT_GT(GradientStreamCapBps(HostClass::kLambdaA10Host), 2 * gc);
}

TEST(CalibrationTest, CpuCostsOrdered) {
  const double params = 560.1e6;
  const auto host = HostClass::kGcN1Standard8;
  EXPECT_LT(SerializeSec(params, host), AccumulateSec(params, host) * 2);
  EXPECT_LT(AccumulateSec(params, host), ApplySec(params, host));
  // RoBERTa-XLM apply on the GC hosts is seconds, not milliseconds.
  EXPECT_GT(ApplySec(params, host), 5.0);
  EXPECT_LT(ApplySec(params, host), 15.0);
}

TEST(CalibrationTest, MatchmakingFloorIsFiveSeconds) {
  EXPECT_DOUBLE_EQ(MinMatchmakingSec(), 5.0);
}

// --- Memory / OOM feasibility ---

TEST(MemoryTest, RobertaXlmDdpOomOnT4) {
  // Section 7: "The NLP experiments ran OOM" on the 4xT4 DDP node.
  Status s = CheckFits(ModelId::kRobertaXlm, TrainerKind::kDdp, GpuModel::kT4,
                       HostClass::kGcN1Standard8);
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
}

TEST(MemoryTest, RobertaXlmHivemindFitsT4) {
  EXPECT_TRUE(CheckFits(ModelId::kRobertaXlm, TrainerKind::kHivemind,
                        GpuModel::kT4, HostClass::kGcN1Standard8)
                  .ok());
}

TEST(MemoryTest, RobertaXlmDdpFitsV100) {
  // The DGX-2 trains it fine (1811 SPS baseline).
  EXPECT_TRUE(CheckFits(ModelId::kRobertaXlm, TrainerKind::kDdp,
                        GpuModel::kV100, HostClass::kDgx2Host)
                  .ok());
}

TEST(MemoryTest, FifteenGbHostTooSmallForXlmGradientApply) {
  // Section 4: "the smaller image with 15 GB was insufficient to meet the
  // memory requirements for gradient application on the CPU with the
  // biggest models".
  Status small = CheckFits(ModelId::kRobertaXlm, TrainerKind::kHivemind,
                           GpuModel::kT4, HostClass::kGcN1Standard8Small);
  EXPECT_EQ(small.code(), StatusCode::kOutOfMemory);
  EXPECT_NE(small.message().find("host RAM"), std::string::npos);
}

TEST(MemoryTest, AllStudyModelsFitHivemindOnT4) {
  for (ModelId m : SuitabilityStudyModels()) {
    EXPECT_TRUE(CheckFits(m, TrainerKind::kHivemind, GpuModel::kT4,
                          HostClass::kGcN1Standard8)
                    .ok())
        << ModelName(m);
  }
}

TEST(MemoryTest, WhisperFamilyTrainableOnT4) {
  // Section 11: Tiny, Base and Small are the T4-trainable sizes.
  for (ModelId m : AsrModels()) {
    EXPECT_TRUE(CheckFits(m, TrainerKind::kHivemind, GpuModel::kT4,
                          HostClass::kGcN1Standard8)
                    .ok())
        << ModelName(m);
    EXPECT_TRUE(CheckFits(m, TrainerKind::kDdp, GpuModel::kT4,
                          HostClass::kGcN1Standard8)
                    .ok())
        << ModelName(m);
  }
}

TEST(MemoryTest, ConvDdpFitsT4) {
  // The paper ran the 4xT4 DDP CV baseline (207 SPS).
  EXPECT_TRUE(CheckFits(ModelId::kConvNextLarge, TrainerKind::kDdp,
                        GpuModel::kT4, HostClass::kGcN1Standard8)
                  .ok());
}

TEST(MemoryTest, EstimatesMonotoneInMicrobatch) {
  const auto a =
      EstimateMemory(ModelId::kConvNextLarge, TrainerKind::kHivemind, 8);
  const auto b =
      EstimateMemory(ModelId::kConvNextLarge, TrainerKind::kHivemind, 64);
  EXPECT_LT(a.gpu_bytes, b.gpu_bytes);
  EXPECT_DOUBLE_EQ(a.host_bytes, b.host_bytes);
}

TEST(MemoryTest, DdpHeavierThanHivemindOnGpu) {
  for (int m = 0; m < kNumModels; ++m) {
    const auto id = static_cast<ModelId>(m);
    const int mb = DefaultMicrobatch(id);
    EXPECT_GT(EstimateMemory(id, TrainerKind::kDdp, mb).gpu_bytes,
              EstimateMemory(id, TrainerKind::kHivemind, mb).gpu_bytes);
  }
}

TEST(MemoryTest, DefaultMicrobatchPerDomain) {
  EXPECT_EQ(DefaultMicrobatch(ModelId::kResNet50), 32);
  EXPECT_EQ(DefaultMicrobatch(ModelId::kRobertaLarge), 16);
  EXPECT_EQ(DefaultMicrobatch(ModelId::kWhisperBase), 8);
}

}  // namespace
}  // namespace hivesim::models
