#include <gtest/gtest.h>

#include "common/units.h"
#include "data/loader.h"

namespace hivesim::data {
namespace {

// --- Dataset profiles & ingress metering ---

TEST(DatasetProfileTest, PerDomainProfiles) {
  const auto& cv = DatasetFor(models::ModelId::kConvNextLarge);
  EXPECT_EQ(cv.name, "imagenet-1k");
  EXPECT_NEAR(cv.sample_bytes, 110 * kKB, 1.0);
  const auto& nlp = DatasetFor(models::ModelId::kRobertaXlm);
  EXPECT_EQ(nlp.name, "wikipedia-03-22");
  const auto& asr = DatasetFor(models::ModelId::kWhisperSmall);
  EXPECT_EQ(asr.name, "commonvoice-mel");
  // Images cost more wire bytes than text (Fig. 11 discussion).
  EXPECT_GT(cv.sample_bytes, nlp.sample_bytes);
}

TEST(IngressMeterTest, StreamsThenCaches) {
  StreamingIngressMeter meter(/*dataset_share_samples=*/1000,
                              /*sample_bytes=*/100);
  meter.OnSamplesConsumed(300);
  EXPECT_DOUBLE_EQ(meter.StreamedBytes(), 30000);
  EXPECT_FALSE(meter.FullyCached());
  meter.OnSamplesConsumed(900);  // Past the end: re-reads are cached.
  EXPECT_DOUBLE_EQ(meter.StreamedBytes(), 100000);
  EXPECT_TRUE(meter.FullyCached());
  meter.OnSamplesConsumed(5000);
  EXPECT_DOUBLE_EQ(meter.StreamedBytes(), 100000);
}

}  // namespace
}  // namespace hivesim::data
