// Deterministic discrete-event loop on a virtual nanosecond clock.
//
// Every experiment in this repo runs on one EventLoop. Determinism contract:
// events run in (time, scheduling order); events at equal timestamps fire in
// the order they were scheduled (FIFO tie-break), so a fixed seed yields a
// bit-identical run.
//
// Layout: the heap holds trivially copyable {when, seq, slot} entries, where
// `seq` is a counter bumped on every Schedule (the FIFO tie-break). Callbacks
// live in a slab of slots recycled through a free list. A TimerId packs the
// slot index with the slot's generation, which is bumped whenever the slot is
// freed, so Cancel is an O(1) generation check: an id whose event already ran
// (its slot freed, maybe reused) no longer matches. A cancelled callback stays
// in its slot until its heap entry is popped, and is destroyed then.
#ifndef MOPEYE_SIM_EVENT_LOOP_H_
#define MOPEYE_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/time.h"

namespace mopsim {

using moputil::SimDuration;
using moputil::SimTime;

// (generation << 32) | slot. Generations start at 1, so no id is ever 0.
using TimerId = uint64_t;
constexpr TimerId kInvalidTimer = 0;

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` from now (>= 0). Returns a cancelable id.
  TimerId Schedule(SimDuration delay, std::function<void()> fn);
  // Schedules at an absolute time (clamped to now if in the past).
  TimerId ScheduleAt(SimTime when, std::function<void()> fn);
  // Runs `fn` after all already-scheduled events at the current instant.
  TimerId Post(std::function<void()> fn) { return Schedule(0, std::move(fn)); }

  // Cancels a pending event. Returns false if it already ran, was already
  // cancelled, or is unknown.
  bool Cancel(TimerId id);

  // Runs until the queue drains or Stop() is called. Returns events executed.
  size_t Run();
  // Runs events with time <= deadline; clock lands on `deadline` afterward
  // (even if the queue drained earlier), so successive RunUntil calls advance
  // monotonically.
  size_t RunUntil(SimTime deadline);
  size_t RunFor(SimDuration d) { return RunUntil(now_ + d); }
  void Stop() { stopped_ = true; }

  // Events scheduled and neither run nor cancelled.
  size_t pending_events() const { return pending_; }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;  // FIFO among equal timestamps
    }
  };
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 1;
    bool armed = false;  // scheduled and not cancelled
  };

  // Pops and runs one event; false if none eligible (w.r.t. limit).
  bool RunOne(SimTime limit);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  size_t pending_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace mopsim

#endif  // MOPEYE_SIM_EVENT_LOOP_H_
