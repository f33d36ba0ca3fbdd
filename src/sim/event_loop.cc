#include "sim/event_loop.h"

#include <algorithm>

#include "util/logging.h"

namespace mopsim {

namespace {
// Publishes the loop's virtual clock to the log prefix for the duration of a
// Run()/RunUntil(), restoring whatever was installed before (nested RunFor
// inside a driver's Run keeps the same clock; real-thread code that never
// drives a loop keeps none).
class ScopedLogClock {
 public:
  explicit ScopedLogClock(const SimTime* now) : prev_(moputil::GetLogClock()) {
    moputil::SetLogClock(now);
  }
  ~ScopedLogClock() { moputil::SetLogClock(prev_); }
  ScopedLogClock(const ScopedLogClock&) = delete;
  ScopedLogClock& operator=(const ScopedLogClock&) = delete;

 private:
  const int64_t* prev_;
};
}  // namespace

namespace internal {

SimTime StreamCore::Now() const { return loop_->now_; }

uint64_t StreamCore::TakeSeq() {
  ++loop_->pending_;
  return loop_->next_seq_++;
}

void StreamCore::Queue(std::shared_ptr<StreamCore> self, SimTime when, uint64_t seq) {
  EventLoop& loop = *loop_;
  if (loop.free_streams_.empty()) {
    index_ = static_cast<uint32_t>(loop.streams_.size());
    MOP_CHECK_LT(index_, EventLoop::kStreamTag);
    loop.streams_.push_back(std::move(self));
  } else {
    index_ = loop.free_streams_.back();
    loop.free_streams_.pop_back();
    loop.streams_[index_] = std::move(self);
  }
  queued_ = true;
  loop.PushEntry({when, seq, EventLoop::kStreamTag | index_});
}

void StreamCore::Requeue(SimTime when, uint64_t seq) {
  loop_->PushEntry({when, seq, EventLoop::kStreamTag | index_});
}

void StreamCore::Retire() {
  queued_ = false;
  loop_->streams_[index_].reset();  // RunOne still holds a reference
  loop_->free_streams_.push_back(index_);
}

}  // namespace internal

EventLoop::~EventLoop() {
  // A queued entry may own the last reference to its own stream's owner (a
  // task capturing the object that holds the lane), so the entries go first;
  // the cores then die with their last reference.
  std::vector<std::shared_ptr<internal::StreamCore>> streams = std::move(streams_);
  for (const auto& core : streams) {
    if (core) {
      core->Clear();
    }
  }
}

void EventLoop::PushEntry(Entry e) {
  heap_.push(e);
  peak_heap_depth_ = std::max(peak_heap_depth_, heap_.size());
}

TimerId EventLoop::Schedule(SimDuration delay, std::function<void()> fn) {
  MOP_CHECK_GE(delay, 0) << "negative event delay";
  return ScheduleAt(now_ + delay, std::move(fn));
}

TimerId EventLoop::ScheduleAt(SimTime when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.armed = true;
  PushEntry({when, next_seq_++, slot});
  ++pending_;
  return (static_cast<TimerId>(s.generation) << 32) | slot;
}

bool EventLoop::Cancel(TimerId id) {
  uint32_t slot = static_cast<uint32_t>(id);
  if (slot >= slots_.size()) {
    return false;
  }
  Slot& s = slots_[slot];
  if (s.generation != static_cast<uint32_t>(id >> 32) || !s.armed) {
    return false;
  }
  s.armed = false;
  --pending_;
  return true;
}

bool EventLoop::RunOne(SimTime limit) {
  while (!heap_.empty()) {
    Entry top = heap_.top();
    if (top.when > limit) {
      return false;
    }
    heap_.pop();
    if (top.slot & kStreamTag) {
      std::shared_ptr<internal::StreamCore> core = streams_[top.slot & ~kStreamTag];
      --pending_;
      now_ = top.when;
      core->RunHead();
      return true;
    }
    Slot& s = slots_[top.slot];
    bool armed = s.armed;
    std::function<void()> fn = std::move(s.fn);
    s.fn = nullptr;
    s.armed = false;
    if (++s.generation == 0) {
      s.generation = 1;  // keep kInvalidTimer unissued across wraparound
    }
    free_slots_.push_back(top.slot);
    if (!armed) {  // cancelled: `fn` is destroyed here
      continue;
    }
    --pending_;
    now_ = top.when;
    fn();
    return true;
  }
  return false;
}

size_t EventLoop::Run() {
  ScopedLogClock clock(&now_);
  stopped_ = false;
  size_t n = 0;
  while (!stopped_ && RunOne(INT64_MAX)) {
    ++n;
  }
  return n;
}

size_t EventLoop::RunUntil(SimTime deadline) {
  ScopedLogClock clock(&now_);
  stopped_ = false;
  size_t n = 0;
  while (!stopped_ && RunOne(deadline)) {
    ++n;
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

}  // namespace mopsim
