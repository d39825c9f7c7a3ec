// Steady-state all-reduce rounds must not touch the heap, with the
// telemetry sinks off or recording. This binary replaces the global
// operator new with a counting one, so it runs alone: every allocation
// in the process, gtest's included, is counted, and each test reads the
// counter only around the rounds it measures.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "collective/allreduce.h"
#include "net/network.h"
#include "net/profiles.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hivesim::collective {
namespace {

constexpr int kRounds = 8;

class AllocTest : public ::testing::Test {
 protected:
  AllocTest() : topo_(net::StandardWorld()), network_(&sim_, &topo_) {}

  void AddPeers(net::SiteId site, int count) {
    for (int i = 0; i < count; ++i) {
      peers_.push_back({topo_.AddNode(site, net::CloudVmNetConfig()),
                        compute::HostClass::kGcN1Standard8});
    }
  }

  /// Runs one round to completion; counts it in `rounds_ok_` if it
  /// started and finished with OK. Checks nothing itself, so a measured
  /// round allocates only what the simulator stack does.
  void RunRound(Strategy strategy) {
    AllReduceOptions opts;
    opts.payload_bytes = 64e6;
    opts.strategy = strategy;
    const Status started = allreduce_.Start(
        peers_, opts, [this](Result<AllReduceResult> r) {
          if (r.ok()) ++rounds_ok_;
          strategy_ = r.ok() ? r->strategy : Strategy::kAuto;
        });
    if (started.ok()) sim_.Run();
  }

  /// Allocations made by `kRounds` rounds after one warm-up round.
  uint64_t SteadyStateAllocations(Strategy strategy) {
    RunRound(strategy);
    const uint64_t before = g_allocations.load();
    for (int k = 0; k < kRounds; ++k) RunRound(strategy);
    return g_allocations.load() - before;
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::Network network_;
  AllReduce allreduce_{&network_};
  std::vector<Peer> peers_;
  int rounds_ok_ = 0;
  Strategy strategy_ = Strategy::kAuto;
};

TEST_F(AllocTest, CounterSeesAllocations) {
  const uint64_t before = g_allocations.load();
  void* p = ::operator new(64);
  ::operator delete(p);
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

TEST_F(AllocTest, FlatRoundsAllocateNothing) {
  AddPeers(net::kGcUs, 4);
  EXPECT_EQ(SteadyStateAllocations(Strategy::kFlatAllToAll), 0u);
  EXPECT_EQ(rounds_ok_, kRounds + 1);
  EXPECT_EQ(strategy_, Strategy::kFlatAllToAll);
}

TEST_F(AllocTest, RingRoundsAllocateNothing) {
  AddPeers(net::kGcUs, 8);
  EXPECT_EQ(SteadyStateAllocations(Strategy::kRing), 0u);
  EXPECT_EQ(rounds_ok_, kRounds + 1);
  EXPECT_EQ(strategy_, Strategy::kRing);
}

TEST_F(AllocTest, StarRoundsAllocateNothing) {
  AddPeers(net::kGcUs, 1);
  AddPeers(net::kGcEu, 1);
  AddPeers(net::kGcAsia, 1);
  AddPeers(net::kGcAus, 1);
  EXPECT_EQ(SteadyStateAllocations(Strategy::kStarViaHub), 0u);
  EXPECT_EQ(rounds_ok_, kRounds + 1);
  EXPECT_EQ(strategy_, Strategy::kStarViaHub);
}

TEST_F(AllocTest, HierarchicalRoundsAllocateNothing) {
  AddPeers(net::kGcUs, 3);
  AddPeers(net::kGcEu, 2);
  AddPeers(net::kGcAsia, 2);
  EXPECT_EQ(SteadyStateAllocations(Strategy::kHierarchical), 0u);
  EXPECT_EQ(rounds_ok_, kRounds + 1);
  EXPECT_EQ(strategy_, Strategy::kHierarchical);
}

// kAuto resolves per round through the same grouping, without allocating.
TEST_F(AllocTest, AutoRoundsAllocateNothing) {
  AddPeers(net::kGcUs, 2);
  AddPeers(net::kGcEu, 2);
  EXPECT_EQ(SteadyStateAllocations(Strategy::kAuto), 0u);
  EXPECT_EQ(rounds_ok_, kRounds + 1);
  EXPECT_EQ(strategy_, Strategy::kHierarchical);
}

// With private sinks on, every round records its flows, stages and the
// round itself into the trace recorder and bumps its counters. Warm-up:
// kRounds + 1 recorded rounds grow the recorder's event list and byte
// arena to hold that many rounds and create every counter; Clear() keeps
// both capacities but forgets the lanes, so SteadyStateAllocations' own
// warm-up round learns them again. Its kRounds measured rounds then
// refill the recorder to exactly the warm-up's size.
TEST_F(AllocTest, RecordedRoundsAllocateNothing) {
  AddPeers(net::kGcUs, 3);
  AddPeers(net::kGcEu, 2);
  telemetry::TraceRecorder trace;
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(&trace, &metrics);
  for (int k = 0; k <= kRounds; ++k) RunRound(Strategy::kHierarchical);
  const size_t warm_events = trace.size();
  trace.Clear();

  EXPECT_EQ(SteadyStateAllocations(Strategy::kHierarchical), 0u);
  EXPECT_EQ(rounds_ok_, 2 * (kRounds + 1));
  EXPECT_EQ(strategy_, Strategy::kHierarchical);
  // The measured rounds did record: flows, stages and rounds, on the
  // lanes the warm-up saw.
  EXPECT_GT(warm_events, static_cast<size_t>(3 * (kRounds + 1)));
  EXPECT_EQ(trace.size(), warm_events);
  ASSERT_EQ(trace.lanes().size(), 2u);
  EXPECT_EQ(trace.lanes()[0], "net");
  EXPECT_EQ(trace.lanes()[1], "collective");
  EXPECT_EQ(metrics.CounterValue("collective.rounds"), 2.0 * (kRounds + 1));
}

}  // namespace
}  // namespace hivesim::collective
