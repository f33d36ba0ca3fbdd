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
//
// Ordered event streams (EventStream below) share the same key space. A push
// takes the loop's next `seq` exactly as a Schedule would, and the stream
// requires its (when, seq) keys to rise in push order, so each stream is
// already sorted. Only a stream's head entry sits in the heap; when it runs,
// the next entry enters the heap with the key it was given at push time.
// Merging sorted runs through a heap of their heads yields the same total
// order as pushing every entry into the heap, so a stream changes the heap's
// depth, never the schedule.
#ifndef MOPEYE_SIM_EVENT_LOOP_H_
#define MOPEYE_SIM_EVENT_LOOP_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/time.h"

namespace mopsim {

using moputil::SimDuration;
using moputil::SimTime;

// (generation << 32) | slot. Generations start at 1, so no id is ever 0.
using TimerId = uint64_t;
constexpr TimerId kInvalidTimer = 0;

class EventLoop;

namespace internal {

// FIFO on a power-of-two ring. Allocates nothing until the first push, so an
// idle stream costs no buffer, and keeps its capacity once grown.
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const T& front() const { return buf_[head_]; }
  const T& back() const { return buf_[(head_ + size_ - 1) & (buf_.size() - 1)]; }

  void push_back(T v) {
    if (size_ == buf_.size()) {
      Grow();
    }
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }
  T pop_front() {
    T v = std::move(buf_[head_]);
    buf_[head_] = T();
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return v;
  }

 private:
  void Grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : buf_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

// The type-erased part of an EventStream that the loop drives. The owning
// EventStream holds one reference; the loop holds another while the stream
// has queued entries, so entries still run after their owner is gone.
class StreamCore {
 public:
  explicit StreamCore(EventLoop* loop) : loop_(loop) {}
  virtual ~StreamCore() = default;
  StreamCore(const StreamCore&) = delete;
  StreamCore& operator=(const StreamCore&) = delete;

 protected:
  friend class mopsim::EventLoop;

  // Pops the head entry, hands the next head (if any) to the loop, then runs
  // the popped entry.
  virtual void RunHead() = 0;
  // Destroys the queued entries unrun (loop teardown).
  virtual void Clear() = 0;

  SimTime Now() const;
  // Counts one more pending event and returns its FIFO tie-break.
  uint64_t TakeSeq();
  // Puts the first head of an idle stream in the heap.
  void Queue(std::shared_ptr<StreamCore> self, SimTime when, uint64_t seq);
  // After a pop: the next head's key enters the heap.
  void Requeue(SimTime when, uint64_t seq);
  // After a pop that emptied the stream: the loop lets go of it.
  void Retire();
  bool queued() const { return queued_; }

 private:
  EventLoop* loop_;
  uint32_t index_ = 0;  // in EventLoop::streams_ while queued
  bool queued_ = false;
};

}  // namespace internal

class EventLoop {
 public:
  EventLoop() = default;
  ~EventLoop();
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

  // Events scheduled and neither run nor cancelled, stream entries included.
  size_t pending_events() const { return pending_; }
  // Most entries the heap has held at once: plain events (cancelled ones
  // until popped) plus one head per non-empty stream.
  size_t peak_heap_depth() const { return peak_heap_depth_; }

 private:
  friend class internal::StreamCore;

  struct Entry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;  // a slot index, or kStreamTag | stream index
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
  static constexpr uint32_t kStreamTag = 1u << 31;

  void PushEntry(Entry e);
  // Pops and runs one event; false if none eligible (w.r.t. limit).
  bool RunOne(SimTime limit);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  size_t pending_ = 0;
  size_t peak_heap_depth_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  // Streams with queued entries, indexed by their heap tag.
  std::vector<std::shared_ptr<internal::StreamCore>> streams_;
  std::vector<uint32_t> free_streams_;
};

// An ordered event stream: a FIFO of events delivered to one sink. `Sink` is
// a type with a nested `Item` and `void operator()(Item&)`; each pushed item
// runs `sink(item)` at its time, as one loop event.
//
// Invariant: each push's time (clamped to now, as ScheduleAt does) is >= the
// time of the stream's last queued entry, and its seq is taken at push time.
// Under it the run order and clock at every event are exactly those of
// scheduling each entry directly (see the header comment). Entries cannot be
// cancelled; events that may be cancelled or that can overtake the stream
// stay plain Schedule calls.
//
// Entries pushed before the EventStream is destroyed still run. Destroying
// the loop destroys queued entries without running them.
template <typename Sink>
class EventStream {
 public:
  using Item = typename Sink::Item;

  EventStream(EventLoop* loop, Sink sink)
      : core_(std::make_shared<Core>(loop, std::move(sink))) {}
  EventStream(const EventStream&) = delete;
  EventStream& operator=(const EventStream&) = delete;

  // Queues `item` to reach the sink at `when`.
  void Push(SimTime when, Item item) { core_->Push(core_, when, std::move(item)); }

  Sink& sink() { return core_->sink; }
  const Sink& sink() const { return core_->sink; }
  // Entries pushed and not yet run.
  size_t queued() const { return core_->entries.size(); }

 private:
  struct Entry {
    SimTime when = 0;
    uint64_t seq = 0;
    Item item{};
  };

  struct Core final : internal::StreamCore {
    Core(EventLoop* loop, Sink s) : StreamCore(loop), sink(std::move(s)) {}

    void Push(const std::shared_ptr<Core>& self, SimTime when, Item item) {
      when = std::max(when, Now());
      MOP_DCHECK(entries.empty() || when >= entries.back().when)
          << "stream push at " << when << " precedes its tail at " << entries.back().when;
      uint64_t seq = TakeSeq();
      entries.push_back(Entry{when, seq, std::move(item)});
      if (!queued()) {
        Queue(self, when, seq);
      }
    }

    void RunHead() override {
      Entry head = entries.pop_front();
      if (entries.empty()) {
        Retire();
      } else {
        Requeue(entries.front().when, entries.front().seq);
      }
      sink(head.item);
    }

    void Clear() override {
      internal::Ring<Entry> doomed;
      std::swap(doomed, entries);
    }

    Sink sink;
    internal::Ring<Entry> entries;
  };

  std::shared_ptr<Core> core_;
};

}  // namespace mopsim

#endif  // MOPEYE_SIM_EVENT_LOOP_H_
