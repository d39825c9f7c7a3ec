#include "faults/chaos.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cloud/spot_market.h"
#include "cloud/vm.h"
#include "common/units.h"
#include "hivemind/trainer.h"
#include "net/profiles.h"
#include "sim/simulator.h"

namespace hivesim::faults {
namespace {

/// Validate() of a schedule that holds only `event`, in `events`.
template <typename Event>
bool ValidAlone(std::vector<Event> ChaosSchedule::*events, Event event) {
  ChaosSchedule schedule;
  (schedule.*events).push_back(std::move(event));
  return schedule.Validate().ok();
}

TEST(ChaosScheduleTest, ValidateRejectsMalformedEvents) {
  const net::Continent us = net::Continent::kUs;
  EXPECT_TRUE(ChaosSchedule().Validate().ok());
  EXPECT_FALSE(ValidAlone(&ChaosSchedule::spot_storms, {us, 0, -1, 2}));
  EXPECT_FALSE(ValidAlone(&ChaosSchedule::spot_storms, {us, 0, 10, -2}));
  EXPECT_FALSE(ValidAlone(&ChaosSchedule::wan_events, {0, 1, 0, 10, 1.5}));
  EXPECT_FALSE(
      ValidAlone(&ChaosSchedule::wan_events, {0, 1, 0, 10, 0.5, -1}));
  EXPECT_FALSE(ValidAlone(&ChaosSchedule::crashes, {0, -1}));
  EXPECT_FALSE(ValidAlone(&ChaosSchedule::crash_storms, {{}, 0, 10, 1}));
  EXPECT_FALSE(ValidAlone(&ChaosSchedule::crash_storms, {{0}, 0, 10, 0}));
  ChaosSchedule valid;
  valid.spot_storms.push_back({net::Continent::kEu, 0, 3600, 100});
  valid.wan_events.push_back({0, 1, 60, 60, 0});
  valid.crash_storms.push_back({{0, 1}, 0, 600, 3, 120});
  EXPECT_TRUE(valid.Validate().ok());
}

TEST(ChaosInjectorTest, ArmRequiresMarketForSpotStorms) {
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);
  ChaosInjector injector(&sim, &topo, &network);
  ChaosSchedule schedule;
  schedule.spot_storms.push_back({net::Continent::kUs, 0, 3600, 100});
  EXPECT_EQ(injector.Arm(schedule).code(), StatusCode::kFailedPrecondition);
  cloud::SpotMarket market(Rng(1));
  injector.AttachSpotMarket(&market);
  EXPECT_TRUE(injector.Arm(schedule).ok());
  EXPECT_EQ(market.hazard_windows().size(), 1u);
}

TEST(ChaosWanTest, PartitionStallsFlowUntilRecovery) {
  sim::Simulator sim;
  net::Topology topo;
  const net::SiteId a =
      topo.AddSite("a", net::Provider::kGoogleCloud, net::Continent::kUs);
  const net::SiteId b =
      topo.AddSite("b", net::Provider::kGoogleCloud, net::Continent::kEu);
  topo.SetPath(a, b, MbpsToBytesPerSec(100), MsToSec(10));
  const net::NodeId n0 = topo.AddNode(a);
  const net::NodeId n1 = topo.AddNode(b);
  net::Network network(&sim, &topo);

  ChaosInjector injector(&sim, &topo, &network);
  ChaosSchedule schedule;
  schedule.wan_events.push_back({a, b, 1.0, 4.0, 0});  // Partition.
  ASSERT_TRUE(injector.Arm(schedule).ok());

  // 25 MB at 12.5 MB/s: 2 s unimpeded. The partition hits at t=1 with
  // half the payload delivered, freezes the flow for 4 s, and recovery
  // lets the rest through: completion at t=6.
  double done_at = -1;
  ASSERT_TRUE(
      network.StartFlow(n0, n1, 25 * kMB, [&] { done_at = sim.Now(); }).ok());
  sim.Run();
  EXPECT_NEAR(done_at, 6.0, 1e-6);
  EXPECT_EQ(injector.stats().wan_degradations, 1);
  EXPECT_EQ(injector.stats().wan_recoveries, 1);
  EXPECT_NEAR(network.BytesBetweenNodes(n0, n1), 25 * kMB, 1.0);
}

TEST(ChaosWanTest, OverlappingWindowsCompoundAndRestore) {
  sim::Simulator sim;
  net::Topology topo;
  const net::SiteId a =
      topo.AddSite("a", net::Provider::kGoogleCloud, net::Continent::kUs);
  const net::SiteId b =
      topo.AddSite("b", net::Provider::kGoogleCloud, net::Continent::kEu);
  const double base_bw = MbpsToBytesPerSec(100);
  const double base_rtt = MsToSec(10);
  topo.SetPath(a, b, base_bw, base_rtt);
  net::Network network(&sim, &topo);

  ChaosInjector injector(&sim, &topo, &network);
  ChaosSchedule schedule;
  schedule.wan_events.push_back({a, b, 1.0, 9.0, 0.5, MsToSec(20)});
  schedule.wan_events.push_back({a, b, 2.0, 2.0, 0.5, MsToSec(20)});
  ASSERT_TRUE(injector.Arm(schedule).ok());

  sim.RunUntil(2.5);  // Both windows active: factors compound.
  auto path = topo.PathBetween(a, b);
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path->bandwidth_bps, base_bw * 0.25);
  EXPECT_DOUBLE_EQ(path->rtt_sec, base_rtt + MsToSec(40));

  sim.RunUntil(5.0);  // Inner window ended at t=4.
  path = topo.PathBetween(a, b);
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path->bandwidth_bps, base_bw * 0.5);
  EXPECT_DOUBLE_EQ(path->rtt_sec, base_rtt + MsToSec(20));

  sim.RunUntil(11.0);  // Fully recovered at t=10.
  path = topo.PathBetween(a, b);
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path->bandwidth_bps, base_bw);
  EXPECT_DOUBLE_EQ(path->rtt_sec, base_rtt);
  EXPECT_EQ(injector.stats().wan_degradations, 2);
  EXPECT_EQ(injector.stats().wan_recoveries, 2);
}

TEST(ChaosCrashTest, CrashRemovesPeerAndRestartRejoins) {
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);
  hivemind::TrainerConfig config;
  config.model = models::ModelId::kConvNextLarge;
  hivemind::Trainer trainer(&network, config);
  std::vector<hivemind::PeerSpec> peers;
  for (int i = 0; i < 3; ++i) {
    hivemind::PeerSpec p;
    p.node = topo.AddNode(net::kGcUs, net::CloudVmNetConfig());
    peers.push_back(p);
    ASSERT_TRUE(trainer.AddPeer(p).ok());
  }

  ChaosInjector injector(&sim, &topo, &network, 3);
  injector.AttachTrainer(&trainer);
  ChaosSchedule schedule;
  schedule.crashes.push_back(
      {peers[0].node, 600.0, /*restart_after_sec=*/900.0});
  ASSERT_TRUE(injector.Arm(schedule).ok());
  ASSERT_TRUE(trainer.Start().ok());

  sim.RunUntil(700);
  EXPECT_EQ(trainer.ActivePeers(), 2);
  EXPECT_FALSE(trainer.PeerSpecOf(peers[0].node).ok());

  sim.RunUntil(2 * kHour);
  trainer.Stop();
  EXPECT_EQ(trainer.ActivePeers(), 3);
  EXPECT_TRUE(trainer.PeerSpecOf(peers[0].node).ok());
  EXPECT_EQ(injector.stats().crashes, 1);
  EXPECT_EQ(injector.stats().restarts, 1);
  EXPECT_EQ(injector.trace().size(), 2u);
}

TEST(ChaosSpotTest, SpotStormInterruptsVms) {
  auto run = [](bool storm) {
    sim::Simulator sim;
    net::Topology topo = net::StandardWorld();
    net::Network network(&sim, &topo);
    cloud::SpotMarket market(Rng(9), 0.05);
    ChaosInjector injector(&sim, &topo, &network, 9);
    injector.AttachSpotMarket(&market);
    if (storm) {
      ChaosSchedule schedule;
      schedule.spot_storms.push_back(
          {net::Continent::kUs, 0, 24 * kHour, 10000.0});
      EXPECT_TRUE(injector.Arm(schedule).ok());
    }
    std::vector<std::unique_ptr<cloud::VmInstance>> vms;
    for (int i = 0; i < 4; ++i) {
      vms.push_back(std::make_unique<cloud::VmInstance>(&sim, &market,
                                                        net::Continent::kUs));
      vms.back()->Start();
    }
    sim.RunUntil(24 * kHour);
    int interruptions = 0;
    for (auto& vm : vms) {
      interruptions += vm->interruptions();
      vm->Stop();
    }
    return interruptions;
  };
  const int calm = run(false);
  const int stormy = run(true);
  // At 5%/month a calm day is almost interruption-free; the scripted
  // storm reclaims the fleet repeatedly.
  EXPECT_GE(stormy, 4);
  EXPECT_GT(stormy, calm);
}

// --- Deterministic replay ---

struct ReplayResult {
  uint64_t fingerprint = 0;
  double total_samples = 0;
  int epochs = 0;
  int crashes = 0;
  int restarts = 0;
};

// A full chaos scenario: transatlantic fleet, mid-run partition, WAN
// degradation, and a randomized crash storm, all driven by `seed`.
ReplayResult RunReplayScenario(uint64_t seed) {
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);
  hivemind::TrainerConfig config;
  config.model = models::ModelId::kConvNextLarge;
  config.seed = seed;
  config.churn_hardened = true;
  hivemind::Trainer trainer(&network, config);
  std::vector<hivemind::PeerSpec> peers;
  for (int i = 0; i < 4; ++i) {
    hivemind::PeerSpec p;
    p.node = topo.AddNode(i < 2 ? net::kGcUs : net::kGcEu,
                          net::CloudVmNetConfig());
    peers.push_back(p);
    EXPECT_TRUE(trainer.AddPeer(p).ok());
  }

  ChaosInjector injector(&sim, &topo, &network, seed);
  injector.AttachTrainer(&trainer);
  ChaosSchedule schedule;
  schedule.wan_events.push_back({net::kGcUs, net::kGcEu, 1800, 900, 0});
  schedule.wan_events.push_back(
      {net::kGcUs, net::kGcEu, 4000, 600, 0.1, MsToSec(50)});
  schedule.crash_storms.push_back({{peers[1].node, peers[3].node}, 5000,
                                   1000, 2, /*restart_after_sec=*/300});
  EXPECT_TRUE(injector.Arm(schedule).ok());
  EXPECT_TRUE(trainer.Start().ok());
  sim.RunUntil(3 * kHour);
  trainer.Stop();

  ReplayResult r;
  r.fingerprint = injector.TraceFingerprint();
  const hivemind::RunStats stats = trainer.Stats();
  r.total_samples = stats.total_samples;
  r.epochs = stats.epochs;
  r.crashes = injector.stats().crashes;
  r.restarts = injector.stats().restarts;
  return r;
}

TEST(ChaosReplayTest, IdenticalSeedsReplayBitIdentically) {
  const ReplayResult a = RunReplayScenario(42);
  const ReplayResult b = RunReplayScenario(42);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.total_samples, b.total_samples);  // Bit-exact, not NEAR.
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_GT(a.epochs, 0);
  EXPECT_EQ(a.crashes, 2);
}

TEST(ChaosReplayTest, DifferentSeedsDiverge) {
  // Crash-storm expansion draws from the injector's seeded stream, so a
  // different seed scripts a different storm.
  const ReplayResult a = RunReplayScenario(1);
  const ReplayResult b = RunReplayScenario(2);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

}  // namespace
}  // namespace hivesim::faults
