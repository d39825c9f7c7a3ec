#include <gtest/gtest.h>

#include <cmath>

#include "cloud/cost.h"
#include "cloud/pricing.h"
#include "cloud/spot_market.h"
#include "cloud/vm.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/profiles.h"

namespace hivesim::cloud {
namespace {

using net::Continent;
using net::Provider;

net::Site MakeSite(Provider p, Continent c) {
  net::Site s;
  s.provider = p;
  s.continent = c;
  return s;
}

// --- Pricing: Table 1 ---

TEST(PricingTest, Table1SpotPrices) {
  EXPECT_DOUBLE_EQ(GetVmType(VmTypeId::kGcT4).spot_per_hour, 0.180);
  EXPECT_DOUBLE_EQ(GetVmType(VmTypeId::kAwsT4).spot_per_hour, 0.395);
  EXPECT_DOUBLE_EQ(GetVmType(VmTypeId::kAzureT4).spot_per_hour, 0.134);
}

TEST(PricingTest, Table1OnDemandPrices) {
  EXPECT_DOUBLE_EQ(GetVmType(VmTypeId::kGcT4).ondemand_per_hour, 0.572);
  EXPECT_DOUBLE_EQ(GetVmType(VmTypeId::kAwsT4).ondemand_per_hour, 0.802);
  EXPECT_DOUBLE_EQ(GetVmType(VmTypeId::kAzureT4).ondemand_per_hour, 0.489);
}

TEST(PricingTest, SpotDiscountsMatchSection5) {
  // GC saves 69%, Azure 73%, AWS only 51% over on-demand.
  auto discount = [](VmTypeId id) {
    const VmType& vm = GetVmType(id);
    return 1.0 - vm.spot_per_hour / vm.ondemand_per_hour;
  };
  EXPECT_NEAR(discount(VmTypeId::kGcT4), 0.69, 0.01);
  EXPECT_NEAR(discount(VmTypeId::kAzureT4), 0.73, 0.01);
  EXPECT_NEAR(discount(VmTypeId::kAwsT4), 0.51, 0.01);
}

TEST(PricingTest, DgxAndLambdaPricing) {
  EXPECT_DOUBLE_EQ(GetVmType(VmTypeId::kGcDgx2).spot_per_hour, 6.30);
  EXPECT_DOUBLE_EQ(GetVmType(VmTypeId::kGcDgx2).ondemand_per_hour, 14.60);
  // LambdaLabs has no spot tier: both rates are $0.60.
  EXPECT_DOUBLE_EQ(GetVmType(VmTypeId::kLambdaA10).spot_per_hour, 0.60);
  EXPECT_DOUBLE_EQ(GetVmType(VmTypeId::kLambdaA10).ondemand_per_hour, 0.60);
}

TEST(PricingTest, EgressIntraProviderInterZone) {
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kGoogleCloud, Continent::kUs,
                                    Provider::kGoogleCloud, Continent::kUs),
                   0.01);
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kAzure, Continent::kUs,
                                    Provider::kAzure, Continent::kUs),
                   0.00);
}

TEST(PricingTest, EgressCrossProviderSameContinent) {
  // Fig. 11a: the D experiments bill US-zone traffic at $0.01 (GC) and
  // $0.02 (Azure) per GB.
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kGoogleCloud, Continent::kUs,
                                    Provider::kAws, Continent::kUs),
                   0.01);
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kAzure, Continent::kUs,
                                    Provider::kGoogleCloud, Continent::kUs),
                   0.02);
}

TEST(PricingTest, EgressIntercontinental) {
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kGoogleCloud, Continent::kUs,
                                    Provider::kGoogleCloud, Continent::kEu),
                   0.08);
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kAws, Continent::kUs,
                                    Provider::kAws, Continent::kEu),
                   0.02);
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kAzure, Continent::kEu,
                                    Provider::kAzure, Continent::kAsia),
                   0.02);
}

TEST(PricingTest, AnythingToOceaniaIsPremium) {
  // "Traffic ANY-OCE": GC $0.15/GB, AWS $0.02, Azure $0.08.
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kGoogleCloud, Continent::kEu,
                                    Provider::kGoogleCloud, Continent::kAus),
                   0.15);
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kGoogleCloud, Continent::kAus,
                                    Provider::kGoogleCloud, Continent::kUs),
                   0.15);
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kAws, Continent::kUs,
                                    Provider::kAws, Continent::kAus),
                   0.02);
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kAzure, Continent::kAsia,
                                    Provider::kAzure, Continent::kAus),
                   0.08);
}

TEST(PricingTest, IntraAusSameProviderStaysZonal) {
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kGoogleCloud, Continent::kAus,
                                    Provider::kGoogleCloud, Continent::kAus),
                   0.01);
}

TEST(PricingTest, LambdaAndOnPremEgressFree) {
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kLambdaLabs, Continent::kUs,
                                    Provider::kGoogleCloud, Continent::kAus),
                   0.0);
  EXPECT_DOUBLE_EQ(EgressPricePerGb(Provider::kOnPremise, Continent::kEu,
                                    Provider::kGoogleCloud, Continent::kUs),
                   0.0);
}

TEST(PricingTest, BackblazeRates) {
  EXPECT_DOUBLE_EQ(DataIngressPricePerGb(), 0.01);
}

// --- Cost engine ---

TEST(CostTest, InstanceCostSpotVsOnDemand) {
  VmUsage usage;
  usage.type = VmTypeId::kGcT4;
  usage.site = MakeSite(Provider::kGoogleCloud, Continent::kUs);
  usage.hours = 10;
  usage.spot = true;
  EXPECT_NEAR(PriceVm(usage).instance, 1.80, 1e-9);
  usage.spot = false;
  EXPECT_NEAR(PriceVm(usage).instance, 5.72, 1e-9);
}

TEST(CostTest, EgressSplitInternalExternal) {
  VmUsage usage;
  usage.type = VmTypeId::kGcT4;
  usage.site = MakeSite(Provider::kGoogleCloud, Continent::kUs);
  usage.hours = 1;
  // 10 GB to the same-cloud partner (internal, $0.01/GB), 20 GB to AWS in
  // the same region (external, $0.01/GB), 5 GB to GC AUS ($0.15/GB).
  usage.egress_bytes_by_dst = {
      {MakeSite(Provider::kGoogleCloud, Continent::kUs), 10 * kGB},
      {MakeSite(Provider::kAws, Continent::kUs), 20 * kGB},
      {MakeSite(Provider::kGoogleCloud, Continent::kAus), 5 * kGB},
  };
  const CostBreakdown cost = PriceVm(usage);
  EXPECT_NEAR(cost.internal_egress, 0.10, 1e-9);
  EXPECT_NEAR(cost.external_egress, 0.20 + 0.75, 1e-9);
}

TEST(CostTest, DataLoadingPricedAtB2Rate) {
  VmUsage usage;
  usage.type = VmTypeId::kAzureT4;
  usage.site = MakeSite(Provider::kAzure, Continent::kUs);
  usage.hours = 0;
  usage.data_ingress_bytes = 50 * kGB;
  EXPECT_NEAR(PriceVm(usage).data_loading, 0.50, 1e-9);
}

TEST(CostTest, FleetSumsBreakdowns) {
  VmUsage a;
  a.type = VmTypeId::kGcT4;
  a.site = MakeSite(Provider::kGoogleCloud, Continent::kUs);
  a.hours = 1;
  VmUsage b = a;
  b.type = VmTypeId::kAzureT4;
  const CostBreakdown total = PriceFleet({a, b});
  EXPECT_NEAR(total.instance, 0.180 + 0.134, 1e-9);
  EXPECT_NEAR(total.Total(), total.instance, 1e-9);
}

TEST(CostTest, CostPerMillionSamplesMatchesFig1Anchors) {
  // Fig. 1: the DGX-2 at 413 SPS and $6.30/h spot costs $4.24/1M samples.
  EXPECT_NEAR(CostPerMillionSamples(6.30, 413), 4.24, 0.02);
  // 1xT4 at 80 SPS and $0.18/h -> $0.62/1M.
  EXPECT_NEAR(CostPerMillionSamples(0.18, 80), 0.625, 0.01);
  EXPECT_DOUBLE_EQ(CostPerMillionSamples(1.0, 0), 0);
}

// --- Spot market ---

TEST(SpotMarketTest, LocalHourUsesZoneOffsets) {
  // At simulation time 0 (00:00 UTC): Iowa 18:00, Belgium 01:00,
  // Taiwan 08:00, Sydney 10:00.
  EXPECT_DOUBLE_EQ(SpotMarket::LocalHour(Continent::kUs, 0), 18.0);
  EXPECT_DOUBLE_EQ(SpotMarket::LocalHour(Continent::kEu, 0), 1.0);
  EXPECT_DOUBLE_EQ(SpotMarket::LocalHour(Continent::kAsia, 0), 8.0);
  EXPECT_DOUBLE_EQ(SpotMarket::LocalHour(Continent::kAus, 0), 10.0);
  EXPECT_DOUBLE_EQ(SpotMarket::LocalHour(Continent::kEu, 23 * kHour), 0.0);
}

TEST(SpotMarketTest, InterruptionDelaysPositiveAndFinite) {
  SpotMarket market(Rng(42));
  for (int i = 0; i < 100; ++i) {
    const double d = market.SampleInterruptionDelay(Continent::kUs, 0);
    EXPECT_GT(d, 0);
    EXPECT_LT(d, 10 * 365 * 24 * kHour);
  }
}

TEST(SpotMarketTest, DaytimeInterruptsMoreOften) {
  // A storm on both zones makes every VM die within its first day or
  // night segment, so the mean delays compare the two hazards directly.
  SpotMarket market(Rng(7));
  market.AddHazardWindow({Continent::kAus, 0.0, 24 * kHour, 1e4});
  market.AddHazardWindow({Continent::kEu, 0.0, 24 * kHour, 1e4});
  // Sydney at sim time 0 is 10:00 (day); Belgium is 01:00 (night).
  double day_sum = 0, night_sum = 0;
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    day_sum += market.SampleInterruptionDelay(Continent::kAus, 0);
    night_sum += market.SampleInterruptionDelay(Continent::kEu, 0);
  }
  // Night mean ~41 min (well inside Belgium's 7 night hours), day mean
  // ~7 min: the ratio is the daylight multiplier.
  EXPECT_LT(night_sum / kN, 2 * kHour);
  EXPECT_NEAR(night_sum / day_sum, SpotMarket::kDaylightMultiplier, 1.5);
}

TEST(SpotMarketTest, StartupDelayWithinConfiguredRange) {
  SpotMarket market(Rng(3));
  for (int i = 0; i < 100; ++i) {
    const double d = market.SampleStartupDelay();
    EXPECT_GE(d, SpotMarket::kVmStartupMinSec);
    EXPECT_LT(d, SpotMarket::kVmStartupMaxSec);
  }
}

TEST(SpotMarketTest, ZeroHazardNeverInterruptsAndDrawsNothing) {
  SpotMarket zero(Rng(11), 0.0);
  EXPECT_TRUE(std::isinf(zero.SampleInterruptionDelay(Continent::kUs, 0)));
  // "Never" must come without consuming random draws (or scanning ten
  // years of hourly segments): the next startup delay matches a fresh
  // same-seed market draw-for-draw.
  SpotMarket fresh(Rng(11), 0.0);
  EXPECT_DOUBLE_EQ(zero.SampleStartupDelay(), fresh.SampleStartupDelay());
}

TEST(SpotMarketTest, HazardWindowsConcentrateInterruptions) {
  SpotMarket calm(Rng(5), 0.05);
  SpotMarket stormy(Rng(5), 0.05);
  // A scripted capacity crunch: day-long window with a 5000x hazard.
  stormy.AddHazardWindow({Continent::kUs, 0.0, 24 * kHour, 5000.0});
  double calm_mean = 0, storm_mean = 0;
  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i) {
    calm_mean += calm.SampleInterruptionDelay(Continent::kUs, 0) / kN;
    storm_mean += stormy.SampleInterruptionDelay(Continent::kUs, 0) / kN;
  }
  EXPECT_LT(storm_mean, calm_mean / 50);
  EXPECT_EQ(stormy.hazard_windows().size(), 1u);
  stormy.ClearHazardWindows();
  EXPECT_TRUE(stormy.hazard_windows().empty());
}

// --- VM lifecycle ---

class VmTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  // A zero-rate market: its VMs are never interrupted.
  SpotMarket calm_market_{Rng(5), 0.0};
};

TEST_F(VmTest, StartProvisionsThenRuns) {
  VmInstance vm(&sim_, &calm_market_, Continent::kUs);
  int running_count = 0;
  vm.on_running = [&] { ++running_count; };
  EXPECT_EQ(vm.state(), VmState::kPending);
  vm.Start();
  EXPECT_EQ(vm.state(), VmState::kProvisioning);
  sim_.Run();
  EXPECT_EQ(vm.state(), VmState::kRunning);
  EXPECT_EQ(running_count, 1);
  EXPECT_GE(sim_.Now(), SpotMarket::kVmStartupMinSec);
}

TEST_F(VmTest, BilledHoursAccumulateWhileRunning) {
  VmInstance vm(&sim_, &calm_market_, Continent::kUs);
  vm.Start();
  sim_.Run();  // Now running.
  const double start = sim_.Now();
  sim_.RunUntil(start + 2 * kHour);
  EXPECT_NEAR(vm.BilledHours(), 2.0, 1e-9);
  vm.Stop();
  sim_.RunUntil(start + 5 * kHour);
  EXPECT_NEAR(vm.BilledHours(), 2.0, 1e-9);
  EXPECT_EQ(vm.state(), VmState::kStopped);
}

TEST_F(VmTest, SpotVmEventuallyInterrupted) {
  // A storm over the whole window; the replacement VMs get interrupted
  // too, so the run stops at a deadline (Run() would never return).
  SpotMarket hot_market(Rng(11));
  hot_market.AddHazardWindow({Continent::kUs, 0.0, 24 * kHour, 1e4});
  VmInstance vm(&sim_, &hot_market, Continent::kUs);
  int interrupted = 0;
  vm.on_interrupted = [&] {
    ++interrupted;
    EXPECT_EQ(vm.state(), VmState::kInterrupted);
  };
  vm.Start();
  sim_.RunUntil(24 * kHour);
  EXPECT_GT(interrupted, 0);
  EXPECT_EQ(vm.interruptions(), interrupted);
}

TEST_F(VmTest, AutoRestartReplacesInterruptedVm) {
  SpotMarket hot_market(Rng(13));
  hot_market.AddHazardWindow({Continent::kUs, 0.0, 24 * kHour, 1e4});
  VmInstance vm(&sim_, &hot_market, Continent::kUs);
  int running_count = 0;
  vm.on_running = [&] {
    ++running_count;
    if (running_count >= 3) vm.Stop();
  };
  vm.Start();
  sim_.RunUntil(24 * kHour);
  EXPECT_GE(running_count, 3);
  EXPECT_GE(vm.interruptions(), 2);
  EXPECT_EQ(vm.state(), VmState::kStopped);
}

TEST_F(VmTest, UninterruptibleSpotVmNeverDies) {
  // The paper's measurement mode: a zero-rate market never interrupts.
  VmInstance vm(&sim_, &calm_market_, Continent::kUs);
  vm.Start();
  sim_.Run();
  sim_.RunUntil(sim_.Now() + 100 * kHour);
  EXPECT_EQ(vm.state(), VmState::kRunning);
}

}  // namespace
}  // namespace hivesim::cloud
