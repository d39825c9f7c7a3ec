#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.h"

namespace hivesim::sim {

// Both sifts move a hole instead of swapping: one copy per level plus a
// final store, versus three per level for std::swap.
void Simulator::EventHeap::push(const QueueEntry& entry) {
  if (entries_.empty() || entry.when > near_bound_) {
    // Past the near horizon — or the heap is empty, in which case there
    // is nothing to order against and *any* entry can stage. Either way
    // this is an O(1) append; the entry pays its heap operations at the
    // next refill, or never, if it gets cancelled first. Bulk loads
    // (schedule N, then run) therefore never build a heap at all.
    if (far_.empty()) {
      far_min_ = entry.when;
      far_max_ = entry.when;
    } else {
      far_min_ = std::min(far_min_, entry.when);
      far_max_ = std::max(far_max_, entry.when);
    }
    far_.push_back(entry);
    return;
  }
  size_t hole = entries_.size();
  entries_.push_back(entry);
  while (hole > 0) {
    const size_t parent = (hole - 1) / kArity;
    if (!Earlier(entry, entries_[parent])) break;
    entries_[hole] = entries_[parent];
    hole = parent;
  }
  entries_[hole] = entry;
}

void Simulator::EventHeap::Refill() {
  while (entries_.empty() && !far_.empty()) {
    // Window sizing: aim for a heap of ~1/8 of staging (floor kWindow)
    // assuming keys are spread evenly over the staged range — large
    // enough that refills stay rare, small enough that the heap stays
    // cache-resident. The staged min/max is maintained incrementally by
    // `push`, so a refill is a single partition pass. Everything here
    // is a pure function of current queue content, so identically
    // seeded runs refill identically. Worst cases stay safe: a skewed
    // spread just migrates a smaller or larger slice, and entries equal
    // to the staged minimum always migrate, so progress is guaranteed.
    constexpr size_t kWindow = 1024;
    double bound = far_max_;
    const size_t target = std::max(kWindow, far_.size() / 8);
    if (far_.size() > target) {
      bound = far_min_ + (far_max_ - far_min_) *
                             (static_cast<double>(target) /
                              static_cast<double>(far_.size()));
      if (bound < far_min_) bound = far_min_;
    }
    // Partition in place: migrate `when <= bound` into the heap (minus
    // entries whose slot was cancelled while staged — they vanish here,
    // never costing a sift), keep the rest staged, and recompute the
    // kept slice's min/max in the same pass.
    size_t keep = 0;
    double keep_min = 0.0;
    double keep_max = 0.0;
    for (size_t i = 0; i < far_.size(); ++i) {
      const QueueEntry& e = far_[i];
      if (e.when > bound) {
        if (keep == 0) {
          keep_min = e.when;
          keep_max = e.when;
        } else {
          keep_min = std::min(keep_min, e.when);
          keep_max = std::max(keep_max, e.when);
        }
        far_[keep++] = e;
        continue;
      }
      if ((*slots_)[e.slot].generation != e.generation) continue;
      size_t hole = entries_.size();
      entries_.push_back(e);
      while (hole > 0) {
        const size_t parent = (hole - 1) / kArity;
        if (!Earlier(e, entries_[parent])) break;
        entries_[hole] = entries_[parent];
        hole = parent;
      }
      entries_[hole] = e;
    }
    far_.resize(keep);
    far_min_ = keep_min;
    far_max_ = keep_max;
    near_bound_ = bound;
  }
}

void Simulator::EventHeap::pop() {
  const QueueEntry displaced = entries_.back();
  entries_.pop_back();
  if (entries_.empty()) return;
  const size_t size = entries_.size();
  size_t hole = 0;
  while (true) {
    const size_t first_child = hole * kArity + 1;
    if (first_child >= size) break;
    size_t best = first_child;
    const size_t end = std::min(first_child + kArity, size);
    for (size_t child = first_child + 1; child < end; ++child) {
      if (Earlier(entries_[child], entries_[best])) best = child;
    }
    if (!Earlier(entries_[best], displaced)) break;
    entries_[hole] = entries_[best];
    hole = best;
  }
  entries_[hole] = displaced;
}

Simulator::Simulator() {
  queue_.BindSlots(&slots_);
  PushSimTimeSource(
      [](const void* ctx) { return static_cast<const Simulator*>(ctx)->Now(); },
      this);
}

Simulator::~Simulator() { PopSimTimeSource(this); }

EventId Simulator::AllocateSlot(Callback cb, uint32_t* slot_out) {
  uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  *slot_out = index;
  return PackId(index, slot.generation);
}

void Simulator::ReleaseSlot(uint32_t index) {
  Slot& slot = slots_[index];
  if (++slot.generation == 0) slot.generation = 1;  // Keep ids nonzero.
  slot.cb = nullptr;  // Release captured state eagerly.
  free_slots_.push_back(index);
}

EventId Simulator::Schedule(double delay, Callback cb) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(cb));
}

EventId Simulator::ScheduleAt(double when, Callback cb) {
  if (when < now_) when = now_;
  uint32_t slot;
  const EventId id = AllocateSlot(std::move(cb), &slot);
  queue_.push(QueueEntry{when, next_seq_++, slot, GenerationOf(id)});
  ++live_events_;
  scheduled_counter_.Add();
  return id;
}

bool Simulator::Cancel(EventId id) {
  const uint32_t index = SlotOf(id);
  if (index >= slots_.size()) return false;
  if (slots_[index].generation != GenerationOf(id)) {
    return false;  // Already fired, already cancelled, or never existed.
  }
  ReleaseSlot(index);  // The heap entry goes stale and is skipped on pop.
  --live_events_;
  cancelled_counter_.Add();
  return true;
}

bool Simulator::PopNextLive(QueueEntry* entry) {
  while (!queue_.empty()) {
    const QueueEntry top = queue_.top();
    // The slot index is effectively random, so the generation check
    // below is a dependent cache miss into the multi-megabyte slot pool
    // on fleet-sized runs. Issue the fetch now and let it overlap the
    // sift-down the pop is about to do.
    __builtin_prefetch(&slots_[top.slot]);
    queue_.pop();
    if (slots_[top.slot].generation == top.generation) {
      *entry = top;
      return true;
    }
  }
  return false;
}

void Simulator::DrainHooks() {
  // By index, since a hook may register further hooks. Each is taken out
  // before it runs, so a hook that re-enters the run loop cannot run one
  // twice.
  for (size_t i = 0; i < hooks_.size(); ++i) {
    Callback hook = std::exchange(hooks_[i], nullptr);
    if (hook) hook();
  }
  hooks_.clear();
}

// hivesim-lint: allow(U1) reason=the one-event reference for Run's cohort dispatch: sim_test checks Run against repeated Step, and net_solver_test's rate oracle steps through it
bool Simulator::Step() {
  DrainHooks();
  QueueEntry entry;
  if (!PopNextLive(&entry)) return false;
  assert(entry.when >= now_);
  now_ = entry.when;
  --live_events_;
  ++events_fired_;
  fired_counter_.Add();
  // Move the callback out before releasing the slot so the event can
  // schedule/cancel freely (including reusing this very slot).
  Callback cb = std::move(slots_[entry.slot].cb);
  ReleaseSlot(entry.slot);
  cb();
  return true;
}

size_t Simulator::FireCohort(double bound, bool bounded) {
  // Hooks of the previous cohort run at its time, before the next pop; an
  // event a hook schedules at `Now()` is therefore due in this call.
  DrainHooks();
  QueueEntry entry;
  if (!PopNextLive(&entry)) return 0;
  if (bounded && entry.when > bound) {
    // Not due yet: push it back and stop. The entry is still valid (its
    // slot was not released), so re-pushing preserves its identity.
    queue_.push(entry);
    return 0;
  }
  assert(entry.when >= now_);
  const double when = entry.when;
  now_ = when;

  // Singleton fast path: nothing else queued at this timestamp (the
  // common case under randomized timers), so fire inline and skip the
  // cohort buffer entirely.
  if (queue_.empty() || queue_.top_when() != when) {
    --live_events_;
    ++events_fired_;
    fired_counter_.Add();
    Callback cb = std::move(slots_[entry.slot].cb);
    ReleaseSlot(entry.slot);
    cb();
    return 1;
  }

  // Recycle the scratch buffer; on a reentrant run-loop call the member
  // is empty and the inner dispatch simply builds its own.
  std::vector<QueueEntry> cohort = std::move(cohort_scratch_);
  cohort.clear();
  cohort.push_back(entry);
  while (!queue_.empty() && queue_.top_when() == when) {
    const QueueEntry next = queue_.top();
    __builtin_prefetch(&slots_[next.slot]);  // Overlap with the sift.
    queue_.pop();
    if (slots_[next.slot].generation == next.generation) {
      cohort.push_back(next);
    }
  }

  size_t fired = 0;
  for (const QueueEntry& e : cohort) {
    if (slots_[e.slot].generation != e.generation) {
      continue;  // Cancelled by an earlier cohort member.
    }
    --live_events_;
    ++events_fired_;
    fired_counter_.Add();
    ++fired;
    // Move the callback out before releasing the slot so the event can
    // schedule/cancel freely (including reusing this very slot). Events
    // it schedules for the current timestamp carry larger seq values, so
    // they fire after this cohort — exactly the single-step order.
    Callback cb = std::move(slots_[e.slot].cb);
    ReleaseSlot(e.slot);
    cb();
  }
  cohort_scratch_ = std::move(cohort);
  return fired;
}

void Simulator::Run() {
  while (FireCohort(0.0, /*bounded=*/false) > 0) {
  }
}

void Simulator::RunUntil(double when) {
  while (FireCohort(when, /*bounded=*/true) > 0) {
  }
  if (now_ < when) now_ = when;
}

}  // namespace hivesim::sim
