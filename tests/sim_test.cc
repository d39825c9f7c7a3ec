#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace hivesim::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
  EXPECT_EQ(sim.events_fired(), 3u);
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(2.0, [] {});
  sim.Run();
  bool fired = false;
  sim.Schedule(-1.0, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // Double-cancel reports false.
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  EventId id = sim.Schedule(1.0, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> tick = [&] {
    times.push_back(sim.Now());
    if (times.size() < 5) sim.Schedule(1.5, tick);
  };
  sim.Schedule(0.0, tick);
  sim.Run();
  ASSERT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.back(), 6.0);
}

TEST(SimulatorTest, EventCanCancelAnotherPendingEvent) {
  Simulator sim;
  bool victim_fired = false;
  EventId victim = sim.Schedule(2.0, [&] { victim_fired = true; });
  sim.Schedule(1.0, [&] { EXPECT_TRUE(sim.Cancel(victim)); });
  sim.Run();
  EXPECT_FALSE(victim_fired);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulatorTest, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  std::vector<double> fired;
  sim.Schedule(1.0, [&] { fired.push_back(1.0); });
  sim.Schedule(5.0, [&] { fired.push_back(5.0); });
  sim.RunUntil(3.0);
  EXPECT_EQ(fired, std::vector<double>{1.0});
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
  sim.Run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 5.0}));
}

TEST(SimulatorTest, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(3.0, [&] { fired = true; });
  sim.RunUntil(3.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, PendingCountsLiveEventsOnly) {
  Simulator sim;
  EventId a = sim.Schedule(1.0, [] {});
  sim.Schedule(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, EventsFiredExcludesCancelled) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(sim.Schedule(i + 1.0, [] {}));
  EXPECT_TRUE(sim.Cancel(ids[1]));
  EXPECT_TRUE(sim.Cancel(ids[3]));
  sim.Run();
  EXPECT_EQ(sim.events_fired(), 3u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, StepAdvancesAccountingOneEventAtATime) {
  Simulator sim;
  sim.Schedule(1.0, [] {});
  sim.Schedule(2.0, [] {});
  EXPECT_EQ(sim.events_fired(), 0u);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.events_fired(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(SimulatorTest, RunUntilFiresOnlyDueEventsAndCountsThem) {
  Simulator sim;
  sim.Schedule(1.0, [] {});
  sim.Schedule(5.0, [] {});
  sim.RunUntil(2.0);
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntil(5.0);
  EXPECT_EQ(sim.events_fired(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  double last = -1;
  int count = 0;
  for (int i = 0; i < 5000; ++i) {
    const double when = (i * 7919) % 1000 / 10.0;
    sim.Schedule(when, [&, when] {
      EXPECT_GE(when, last);
      last = when;
      ++count;
    });
  }
  sim.Run();
  EXPECT_EQ(count, 5000);
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.Schedule(4.0, [] {});
  sim.Run();
  double fired_at = -1;
  sim.ScheduleAt(1.0, [&] { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST(SimulatorTest, CancelThenPendingDropsImmediately) {
  // pending() excludes a cancelled event the moment Cancel returns, even
  // though its stale heap entry is only discarded lazily on pop.
  Simulator sim;
  EventId a = sim.Schedule(1.0, [] {});
  EventId b = sim.Schedule(2.0, [] {});
  EventId c = sim.Schedule(3.0, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_TRUE(sim.Cancel(b));
  EXPECT_EQ(sim.pending(), 2u);  // No lag waiting for the heap to drain.
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_TRUE(sim.Cancel(c));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.Step());  // Only stale entries remain in the heap.
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(SimulatorTest, StaleIdAfterSlotReuseDoesNotCancelNewEvent) {
  // Cancelling frees the pool slot; the next Schedule may reuse it. The
  // old id carries the old generation and must not touch the new event.
  Simulator sim;
  EventId old_id = sim.Schedule(1.0, [] { FAIL() << "cancelled event fired"; });
  EXPECT_TRUE(sim.Cancel(old_id));
  bool fired = false;
  EventId new_id = sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(sim.Cancel(old_id));  // Stale generation: a no-op.
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, IdFromFiredEventStaysInvalidAcrossReuse) {
  Simulator sim;
  EventId first = sim.Schedule(1.0, [] {});
  sim.Run();
  // The slot is free again; reschedule (likely reusing it) and verify the
  // fired event's id can no longer cancel anything.
  bool fired = false;
  sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_FALSE(sim.Cancel(first));
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CallbackCanReuseItsOwnSlot) {
  // A firing event's slot is released before its callback runs, so the
  // callback's own Schedule may land in the same slot. The new event must
  // be live and cancellable under its fresh generation.
  Simulator sim;
  EventId inner = 0;
  bool inner_fired = false;
  sim.Schedule(1.0, [&] {
    inner = sim.Schedule(1.0, [&] { inner_fired = true; });
  });
  sim.RunUntil(1.5);
  ASSERT_NE(inner, 0u);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.Cancel(inner));
  sim.Run();
  EXPECT_FALSE(inner_fired);
}

TEST(SimulatorTest, HeavyCancelRescheduleKeepsPoolConsistent) {
  // Storm of schedule/cancel cycles across a small live set: every id
  // stays unique-per-lifetime, cancelled events never fire, survivors all
  // fire exactly once in time order.
  Simulator sim;
  std::vector<EventId> live;
  int fired = 0;
  double last = 0.0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 8; ++i) {
      live.push_back(sim.Schedule(1.0 + (round * 8 + i) % 13, [&] {
        EXPECT_GE(sim.Now(), last);
        last = sim.Now();
        ++fired;
      }));
    }
    // Cancel half of what we just scheduled.
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(sim.Cancel(live[live.size() - 1 - 2 * i]));
    }
  }
  sim.Run();
  EXPECT_EQ(fired, 200 * 4);
  EXPECT_EQ(sim.pending(), 0u);
}

// Run() dispatches same-timestamp cohorts in one heap drain; the
// observable order must be exactly the (when, seq) order that repeated
// Step() produces. Build an interleaved schedule (several timestamps,
// several events each, scheduled out of timestamp order so seq and when
// disagree), trace both dispatch styles, and compare.
TEST(SimulatorTest, BatchedCohortDispatchMatchesSingleStepOrder) {
  const auto build = [](Simulator& sim, std::vector<int>& order) {
    int tag = 0;
    for (int round = 0; round < 3; ++round) {
      for (double when : {2.0, 1.0, 3.0, 1.0, 2.0}) {
        const int id = tag++;
        sim.ScheduleAt(when, [&order, id] { order.push_back(id); });
      }
    }
  };
  Simulator stepped;
  std::vector<int> stepped_order;
  build(stepped, stepped_order);
  while (stepped.Step()) {
  }
  Simulator batched;
  std::vector<int> batched_order;
  build(batched, batched_order);
  batched.Run();
  EXPECT_EQ(batched_order, stepped_order);
  EXPECT_EQ(batched.events_fired(), stepped.events_fired());
  EXPECT_EQ(batched.Now(), stepped.Now());
}

// A cohort member cancelled by an earlier member of the same cohort must
// not fire, exactly as if its stale heap entry had been skipped.
TEST(SimulatorTest, EventCanCancelLaterMemberOfItsOwnCohort) {
  Simulator sim;
  std::vector<int> order;
  EventId victim = 0;
  sim.Schedule(1.0, [&] {
    order.push_back(0);
    EXPECT_TRUE(sim.Cancel(victim));
  });
  victim = sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(1.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sim.events_fired(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

// An event scheduled *for the current timestamp* by a cohort member
// carries a larger seq, so it fires after the rest of the cohort — the
// same order single-stepping produces.
TEST(SimulatorTest, CohortMemberSchedulingAtSameTimeFiresAfterCohort) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1.0, [&] {
    order.push_back(0);
    sim.Schedule(0.0, [&order] { order.push_back(3); });
  });
  sim.Schedule(1.0, [&order] { order.push_back(1); });
  sim.Schedule(1.0, [&order] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// RunUntil must leave a cohort strictly past the bound fully queued —
// draining it into scratch and re-pushing would be observable through
// pending() only, but leaving it queued is the contract.
TEST(SimulatorTest, RunUntilLeavesFutureCohortIntact) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.Schedule(2.0, [&order, i] { order.push_back(i); });
  }
  sim.RunUntil(1.0);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_EQ(sim.Now(), 1.0);
  sim.RunUntil(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// A cohort-end hook runs once every event of its instant has fired —
// including same-time events scheduled after the hook was registered —
// and before any later-time event. It is not an event: events_fired and
// pending() never see it.
TEST(SimulatorTest, CohortEndHookRunsAfterCohortBeforeLaterEvents) {
  Simulator sim;
  std::vector<int> order;
  double hook_time = -1;
  sim.Schedule(1.0, [&] {
    order.push_back(0);
    sim.AtCohortEnd([&] {
      order.push_back(-1);
      hook_time = sim.Now();
    });
    EXPECT_EQ(sim.pending(), 3u);
  });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(1.0, [&] { order.push_back(2); });
  sim.Schedule(2.0, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, -1, 3}));
  EXPECT_EQ(hook_time, 1.0);
  EXPECT_EQ(sim.events_fired(), 4u);
  EXPECT_EQ(sim.pending(), 0u);
}

// An event a hook schedules at Now() fires before the clock moves, and a
// hook registered by a hook runs in the same drain.
TEST(SimulatorTest, CohortEndHookSchedulingAtNowFiresBeforeClockMoves) {
  Simulator sim;
  std::vector<std::pair<int, double>> log;
  sim.Schedule(1.0, [&] {
    sim.AtCohortEnd([&] {
      log.emplace_back(0, sim.Now());
      sim.Schedule(0.0, [&] { log.emplace_back(1, sim.Now()); });
      sim.AtCohortEnd([&] { log.emplace_back(2, sim.Now()); });
    });
  });
  sim.Schedule(2.0, [&] { log.emplace_back(3, sim.Now()); });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::pair<int, double>>{
                     {0, 1.0}, {2, 1.0}, {1, 1.0}, {3, 2.0}}));
  EXPECT_EQ(sim.events_fired(), 3u);
}

// RunUntil drains pending hooks even when no event is due, and those of
// the last due cohort run at that cohort's time, before RunUntil moves the
// clock to the bound and returns.
TEST(SimulatorTest, RunUntilRunsPendingHooksWithNoEventDue) {
  Simulator sim;
  std::vector<double> hook_times;
  sim.AtCohortEnd([&] { hook_times.push_back(sim.Now()); });
  sim.Schedule(5.0, [] {});
  sim.RunUntil(1.0);
  EXPECT_EQ(hook_times, (std::vector<double>{0.0}));
  EXPECT_EQ(sim.events_fired(), 0u);
  EXPECT_EQ(sim.Now(), 1.0);

  sim.Schedule(0.5, [&] {
    sim.AtCohortEnd([&] { hook_times.push_back(sim.Now()); });
  });
  sim.RunUntil(3.0);
  EXPECT_EQ(hook_times, (std::vector<double>{0.0, 1.5}));
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_EQ(sim.Now(), 3.0);
  EXPECT_EQ(sim.pending(), 1u);
}

// Step drains hooks before it pops, so a hook queued outside the run loop
// runs ahead of the next event, and an empty queue still runs it.
TEST(SimulatorTest, StepDrainsHooksFirst) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.AtCohortEnd([&] { order.push_back(0); });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  sim.AtCohortEnd([&] { order.push_back(2); });
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.events_fired(), 1u);
}

}  // namespace
}  // namespace hivesim::sim
