#ifndef HIVESIM_SIM_SIMULATOR_H_
#define HIVESIM_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "telemetry/telemetry.h"

namespace hivesim::sim {

/// Opaque handle to a scheduled event; usable to cancel it. Internally a
/// pool-slot index packed with a generation tag (see `Simulator`), so a
/// handle kept past its event's firing can never alias a recycled slot.
/// Never zero for a real event, so 0 works as a "no event" sentinel.
using EventId = uint64_t;

/// Deterministic discrete-event simulation kernel.
///
/// All higher layers (network flows, VM lifecycles, training loops) are
/// callback state machines driven by this queue. Two events scheduled for
/// the same timestamp fire in scheduling order (FIFO tie-break), which
/// keeps runs bit-reproducible.
///
/// Events live in a slab pool: each `Schedule` takes a slot from a free
/// list (no per-event heap allocation) and the heap stores plain
/// {when, seq, slot, generation} entries. `Cancel` bumps the slot's
/// generation, which simultaneously invalidates the stale heap entry
/// (detected lazily on pop) and every outstanding `EventId` for that
/// slot — there is no cancellation map to maintain on the hot path.
///
/// Cohort-end hooks (`AtCohortEnd`) let a layer batch work that many
/// events of one instant would otherwise each repeat: a hook runs once,
/// after the cohort of same-time events that registered it (one event
/// under `Step`) and before the clock moves. Hooks are not events — they take no seq number and are
/// not counted in `events_fired` or the `sim.events_*` counters.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Registers this simulator as the thread's log-timestamp source, so
  /// HIVESIM_LOG lines emitted while it exists carry `t=<Now()>s`.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds since simulation start.
  double Now() const { return now_; }

  /// Schedules `cb` to run `delay` seconds from now. Negative delays are
  /// clamped to zero (fire at the current time, after already-queued
  /// same-time events).
  EventId Schedule(double delay, Callback cb);

  /// Schedules `cb` at absolute time `when`; times in the past are clamped
  /// to `Now()`.
  EventId ScheduleAt(double when, Callback cb);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool Cancel(EventId id);

  /// Registers a one-shot hook that runs at the current time after the
  /// dispatch that registered it: under `Run`/`RunUntil`, once every event
  /// of the current same-time cohort has fired; under `Step`, right after
  /// the current event. `Step` and the cohort dispatch drain pending hooks
  /// (in registration order, including hooks registered by hooks) on
  /// entry, before the next event is popped, so a hook always runs before
  /// time advances, and before `Run`/`RunUntil` return. Events a hook
  /// schedules at `Now()` fire before the clock moves. Hooks registered
  /// outside the run loop wait for the next `Step`, `Run` or `RunUntil`.
  void AtCohortEnd(Callback hook) { hooks_.push_back(std::move(hook)); }

  /// Drains pending hooks, then runs a single event. Returns false when
  /// the queue is empty.
  bool Step();

  /// Runs until the event queue drains. Dispatches in same-timestamp
  /// cohorts (see `FireCohort`); the observable fire order is identical
  /// to repeated `Step()`.
  void Run();

  /// Runs events with timestamps <= `when`, then advances the clock to
  /// `when` even if no event fired exactly there.
  void RunUntil(double when);

  /// Number of events that have fired so far.
  uint64_t events_fired() const { return events_fired_; }
  /// Number of events currently pending. Cancelled events leave this
  /// count immediately, even while their stale heap entries are still
  /// queued awaiting lazy removal.
  size_t pending() const { return live_events_; }

 private:
  // An EventId packs the pool-slot index (high 32 bits) with the slot's
  // generation at scheduling time (low 32 bits). Firing or cancelling
  // bumps the generation, so stale ids and stale heap entries both fail
  // the one-compare validity check. Generations skip 0 on wrap, which
  // keeps every valid id nonzero.
  static constexpr EventId PackId(uint32_t slot, uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }
  static constexpr uint32_t SlotOf(EventId id) {
    return static_cast<uint32_t>(id >> 32);
  }
  static constexpr uint32_t GenerationOf(EventId id) {
    return static_cast<uint32_t>(id);
  }

  struct Slot {
    Callback cb;
    uint32_t generation = 1;
  };

  struct QueueEntry {
    double when;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };

  /// Two-tier event queue: a small 4-ary min-heap holding the *near
  /// horizon* (every entry with `when <= near_bound_`) plus an unsorted
  /// staging vector holding everything farther out (`when >
  /// near_bound_`, strictly). Scheduling past the horizon — or into an
  /// empty heap, where there is nothing to order against — is an O(1)
  /// append: no sift, no heap growth, and a bulk load (schedule N, then
  /// run) stages everything. The heap the pop path sifts through stays
  /// window-sized instead of fleet-sized. When it drains, the next
  /// `top()` lazily runs `Refill`: one scan of the staging vector picks
  /// the next window bound from the observed key range (a pure function of queue
  /// content, so replays see identical behavior), and migrates the
  /// window into the heap — dropping entries whose slot generation went
  /// stale while they staged, so mass-cancelled events never pay a heap
  /// operation at all.
  ///
  /// Pop order is untouched by the split: whenever the heap is
  /// non-empty (the only state in which the minimum is read), every
  /// staged entry is strictly later than `near_bound_` and every heap
  /// entry is at or before it, so the global (when, seq) minimum always
  /// sits at the heap top, and same-`when` entries can never straddle
  /// the two tiers — a refill migrates a `when` either entirely or not
  /// at all. Any conforming queue pops the exact same sequence — replay
  /// order and goldens cannot change.
  ///
  /// The heap itself is 4-ary instead of the binary layout
  /// std::priority_queue uses: half the tree height, all four children
  /// in one-and-a-half cache lines (QueueEntry is 24 bytes), hole-based
  /// sifting with one copy per level.
  class EventHeap {
   public:
    /// Wires up the slot pool so stale staged entries can be dropped at
    /// migration time (vector address is stable even as it reallocates).
    void BindSlots(const std::vector<Slot>* slots) { slots_ = slots; }
    /// Non-const (like `top`): staging may hold only stale entries, and
    /// deciding emptiness means refilling until one live entry reaches
    /// the heap or both tiers drain. After a false return the minimum
    /// is at the heap top.
    bool empty() {
      if (entries_.empty()) Refill();
      return entries_.empty();
    }
    /// Valid whenever `empty()` just returned false. Non-const: the
    /// refill is lazy (pushes into an empty heap stage unsorted), so
    /// peeking the minimum may first migrate the next window into the
    /// heap.
    const QueueEntry& top() {
      if (entries_.empty()) Refill();
      return entries_.front();
    }
    /// Key of the minimum entry; callers peek this to detect
    /// same-timestamp cohorts without copying the full entry.
    double top_when() {
      if (entries_.empty()) Refill();
      return entries_.front().when;
    }
    void push(const QueueEntry& entry);
    void pop();

   private:
    static constexpr size_t kArity = 4;
    static bool Earlier(const QueueEntry& a, const QueueEntry& b) {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
    /// Moves the next window of staged entries into the (empty) near
    /// heap; loops until the heap is non-empty or staging is exhausted
    /// (a window can evaporate entirely if every member went stale).
    void Refill();

    std::vector<QueueEntry> entries_;
    std::vector<QueueEntry> far_;  // Unsorted staging.
    double near_bound_ = 0.0;      // Meaningless while both tiers empty.
    // Staged key range, maintained incrementally by `push` and
    // recomputed during the `Refill` partition pass; meaningless while
    // `far_` is empty. Lets a refill pick its window in a single pass.
    double far_min_ = 0.0;
    double far_max_ = 0.0;
    const std::vector<Slot>* slots_ = nullptr;
  };

  /// Takes a pool slot, stores `cb`, and returns the packed id.
  EventId AllocateSlot(Callback cb, uint32_t* slot_out);
  /// Invalidates a slot (bumps generation) and returns it to the free
  /// list; the caller has already moved the callback out if it needs it.
  void ReleaseSlot(uint32_t slot);
  /// Pops heap entries until one still matches its slot's generation.
  /// Returns false when the heap is exhausted.
  bool PopNextLive(QueueEntry* entry);
  /// Pops the entire cohort of events sharing the next due timestamp in
  /// one heap drain (seq order preserved — the heap pops the strict
  /// (when, seq) total order) and fires them back-to-back: one clock
  /// update and one dispatch loop per timestamp instead of per event.
  /// Each member's generation is re-checked right before its callback
  /// runs, so a cohort member cancelled by an earlier member is skipped
  /// exactly as the stale-entry pop path would have skipped it. With
  /// `bounded`, a cohort strictly past `bound` is left queued. Returns
  /// the number of events fired (0 means nothing was due).
  size_t FireCohort(double bound, bool bounded);
  /// Runs pending cohort-end hooks, including hooks they register, until
  /// none are left.
  void DrainHooks();

  double now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t events_fired_ = 0;
  size_t live_events_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  EventHeap queue_;
  // Recycled cohort buffer for FireCohort. Moved out for the duration of
  // a dispatch, so a callback that re-enters the run loop gets a fresh
  // (empty) buffer instead of clobbering the in-flight cohort.
  std::vector<QueueEntry> cohort_scratch_;
  // Pending cohort-end hooks, in registration order.
  std::vector<Callback> hooks_;

  telemetry::CounterHandle scheduled_counter_{"sim.events_scheduled"};
  telemetry::CounterHandle cancelled_counter_{"sim.events_cancelled"};
  telemetry::CounterHandle fired_counter_{"sim.events_fired"};
};

}  // namespace hivesim::sim

#endif  // HIVESIM_SIM_SIMULATOR_H_
