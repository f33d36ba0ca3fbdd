#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/actor.h"
#include "sim/event_loop.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/time.h"

namespace {

using mopsim::ActorLane;
using mopsim::EventLoop;
using mopsim::EventStream;
using moputil::Millis;

// A stream sink that appends each item to a log.
struct Append {
  using Item = int;
  std::vector<int>* log;
  void operator()(int& v) const { log->push_back(v); }
};

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(Millis(3), [&] { order.push_back(3); });
  loop.Schedule(Millis(1), [&] { order.push_back(1); });
  loop.Schedule(Millis(2), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), Millis(3));
}

TEST(EventLoop, FifoAmongEqualTimestamps) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoop, CancelPreventsRun) {
  EventLoop loop;
  bool ran = false;
  auto id = loop.Schedule(Millis(1), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // double cancel
  loop.Run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelAfterRunReturnsFalse) {
  EventLoop loop;
  auto id = loop.Schedule(0, [] {});
  loop.Run();
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoop, StaleIdDoesNotCancelReusedSlot) {
  EventLoop loop;
  auto stale = loop.Schedule(Millis(1), [] {});
  loop.Run();
  bool ran = false;
  auto fresh = loop.Schedule(Millis(1), [&] { ran = true; });
  EXPECT_NE(fresh, stale);
  EXPECT_FALSE(loop.Cancel(stale));
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, InvalidTimerIsNeverIssuedNorCancellable) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(mopsim::kInvalidTimer));
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_NE(loop.Schedule(Millis(i), [] {}), mopsim::kInvalidTimer);
    }
    loop.Run();
  }
}

TEST(EventLoop, PendingEventsExcludeCancelled) {
  EventLoop loop;
  loop.Schedule(Millis(1), [] {});
  auto b = loop.Schedule(Millis(2), [] {});
  loop.Schedule(Millis(3), [] {});
  EXPECT_EQ(loop.pending_events(), 3u);
  EXPECT_TRUE(loop.Cancel(b));
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.RunUntil(Millis(1));
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_EQ(loop.pending_events(), 0u);
}

// Random times, random cancels, and callbacks that schedule and cancel other
// events: the run order must be the surviving events sorted by
// (time, schedule order), and Cancel must report exactly what was pending.
TEST(EventLoop, RandomScheduleAndCancelKeepsTimeThenFifoOrder) {
  EventLoop loop;
  moputil::Rng rng(2024);
  struct Scheduled {
    moputil::SimTime when;
    mopsim::TimerId id;
    bool pending;
    bool cancelled;
  };
  std::vector<Scheduled> events;
  std::vector<size_t> run_order;
  std::function<void(size_t)> fire;
  auto schedule = [&](moputil::SimDuration delay) {
    size_t index = events.size();
    auto id = loop.Schedule(delay, [&fire, index] { fire(index); });
    events.push_back({loop.Now() + delay, id, true, false});
  };
  auto cancel_random = [&] {
    Scheduled& victim = events[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(events.size()) - 1))];
    EXPECT_EQ(loop.Cancel(victim.id), victim.pending);
    if (victim.pending) {
      victim.pending = false;
      victim.cancelled = true;
    }
  };
  fire = [&](size_t index) {
    ASSERT_TRUE(events[index].pending) << "event " << index;
    events[index].pending = false;
    EXPECT_EQ(loop.Now(), events[index].when);
    run_order.push_back(index);
    if (events.size() < 10000 && rng.Bernoulli(0.6)) {
      schedule(Millis(rng.UniformInt(0, 20)));
    }
    if (rng.Bernoulli(0.2)) {
      cancel_random();
    }
  };
  for (int i = 0; i < 5000; ++i) {
    schedule(Millis(rng.UniformInt(0, 50)));
    if (rng.Bernoulli(0.1)) {
      cancel_random();
    }
  }
  size_t live = 0;
  for (const auto& e : events) {
    live += e.pending ? 1 : 0;
  }
  EXPECT_EQ(loop.pending_events(), live);
  loop.Run();
  EXPECT_EQ(loop.pending_events(), 0u);

  std::vector<size_t> expected;
  for (size_t i = 0; i < events.size(); ++i) {
    if (!events[i].cancelled) {
      expected.push_back(i);
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&](size_t a, size_t b) { return events[a].when < events[b].when; });
  EXPECT_GT(events.size(), 9000u);
  EXPECT_EQ(run_order, expected);
}

TEST(EventLoop, RunUntilAdvancesClockToDeadline) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(Millis(1), [&] { ++count; });
  loop.Schedule(Millis(10), [&] { ++count; });
  loop.RunUntil(Millis(5));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.Now(), Millis(5));
  loop.RunUntil(Millis(20));
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      loop.Schedule(Millis(1), chain);
    }
  };
  loop.Schedule(0, chain);
  loop.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.Now(), Millis(4));
}

TEST(EventLoop, StopHaltsExecution) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(Millis(1), [&] {
    ++count;
    loop.Stop();
  });
  loop.Schedule(Millis(2), [&] { ++count; });
  loop.Run();
  EXPECT_EQ(count, 1);
  loop.Run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, PastScheduleClampsToNow) {
  EventLoop loop;
  loop.Schedule(Millis(5), [&] {
    bool ran = false;
    loop.ScheduleAt(0, [&ran] { ran = true; });  // in the past
    (void)ran;
  });
  loop.Run();
  EXPECT_EQ(loop.Now(), Millis(5));
}

TEST(ActorLane, SerializesTasks) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  std::vector<std::pair<moputil::SimTime, moputil::SimTime>> spans;
  // Two tasks submitted at t=0 with 5ms service each: second starts at 5ms.
  lane.Submit(0, Millis(5), [&](moputil::SimTime s, moputil::SimTime e) {
    spans.emplace_back(s, e);
  });
  lane.Submit(0, Millis(5), [&](moputil::SimTime s, moputil::SimTime e) {
    spans.emplace_back(s, e);
  });
  loop.Run();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], std::make_pair(moputil::SimTime(0), Millis(5)));
  EXPECT_EQ(spans[1], std::make_pair(Millis(5), Millis(10)));
  EXPECT_EQ(lane.busy_time(), Millis(10));
  EXPECT_EQ(lane.tasks_run(), 2u);
}

TEST(ActorLane, WakeLatencyDelaysStart) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  moputil::SimTime start = -1;
  lane.Submit(Millis(2), Millis(1), [&](moputil::SimTime s, moputil::SimTime) { start = s; });
  loop.Run();
  EXPECT_EQ(start, Millis(2));
}

TEST(ActorLane, IdleLaneStartsImmediately) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  loop.Schedule(Millis(10), [&] {
    lane.Submit(0, Millis(1), [&](moputil::SimTime s, moputil::SimTime) {
      EXPECT_EQ(s, Millis(10));
    });
  });
  loop.Run();
  EXPECT_TRUE(lane.IsBusyAt(Millis(10)));
  EXPECT_FALSE(lane.IsBusyAt(Millis(11)));
}

TEST(ActorLane, QueueingBehindBusyLane) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  // First task busy 0-10ms; a task arriving at 3ms with 1ms wake runs at 10.
  lane.Submit(0, Millis(10), [] {});
  moputil::SimTime start = -1;
  loop.Schedule(Millis(3), [&] {
    lane.Submit(Millis(1), Millis(2), [&](moputil::SimTime s, moputil::SimTime) { start = s; });
  });
  loop.Run();
  EXPECT_EQ(start, Millis(10));
  EXPECT_EQ(lane.busy_time(), Millis(12));
}

TEST(ActorLane, TaskQueuedOnDestroyedLaneStillRunsInOrder) {
  EventLoop loop;
  auto lane = std::make_unique<ActorLane>(&loop, "retired-lane");
  std::vector<std::pair<int, moputil::SimTime>> runs;
  std::vector<std::string> tokens;
  for (int i = 0; i < 3; ++i) {
    lane->Submit(Millis(1), Millis(2), [&, i] {
      runs.emplace_back(i, loop.Now());
      tokens.emplace_back(moputil::GetLogLaneToken());
    });
  }
  lane.reset();
  EXPECT_EQ(loop.pending_events(), 3u);
  loop.Run();
  EXPECT_EQ(runs, (std::vector<std::pair<int, moputil::SimTime>>{
                      {0, Millis(3)}, {1, Millis(5)}, {2, Millis(7)}}));
  // The log token names the lane even though the lane object is gone.
  EXPECT_EQ(tokens, (std::vector<std::string>(3, "retired-lane")));
}

TEST(EventStream, PendingEventsCountQueuedEntries) {
  EventLoop loop;
  std::vector<int> log;
  EventStream<Append> stream(&loop, Append{&log});
  for (int i = 0; i < 5; ++i) {
    stream.Push(Millis(i + 1), i);
  }
  loop.Schedule(Millis(2), [] {});
  EXPECT_EQ(loop.pending_events(), 6u);
  EXPECT_EQ(stream.queued(), 5u);
  loop.RunUntil(Millis(2));
  EXPECT_EQ(loop.pending_events(), 3u);
  EXPECT_EQ(stream.queued(), 3u);
  loop.Run();
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventStream, HeapHoldsOnlyTheHead) {
  EventLoop loop;
  std::vector<int> log;
  EventStream<Append> a(&loop, Append{&log});
  EventStream<Append> b(&loop, Append{&log});
  for (int i = 0; i < 1000; ++i) {
    a.Push(Millis(i), i);
    b.Push(Millis(i), -i);
  }
  loop.Schedule(Millis(5), [] {});
  EXPECT_EQ(loop.pending_events(), 2001u);
  EXPECT_EQ(loop.peak_heap_depth(), 3u);
  loop.Run();
  EXPECT_EQ(log.size(), 2000u);
  // Equal times interleave the two streams in push order.
  EXPECT_EQ(log[0], 0);
  EXPECT_EQ(log[1], 0);
  EXPECT_EQ(log[2], 1);
  EXPECT_EQ(log[3], -1);
  EXPECT_EQ(loop.peak_heap_depth(), 3u);
}

#ifndef NDEBUG
TEST(EventStreamDeathTest, PushBeforeTheTailDies) {
  EventLoop loop;
  std::vector<int> log;
  EventStream<Append> stream(&loop, Append{&log});
  stream.Push(Millis(5), 1);
  EXPECT_DEATH(stream.Push(Millis(4), 2), "precedes its tail");
}
#endif

TEST(EventStream, EntriesOutliveTheStreamObject) {
  EventLoop loop;
  std::vector<int> log;
  auto stream = std::make_unique<EventStream<Append>>(&loop, Append{&log});
  stream->Push(Millis(1), 1);
  stream->Push(Millis(1), 2);
  stream.reset();
  loop.Run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

// Destroying the loop destroys queued entries unrun, including an entry that
// owns the last reference to the object holding its own lane (a cycle only
// the loop can break). LSan reports a leak if it is not broken.
TEST(EventStream, LoopTeardownFreesQueuedEntries) {
  struct Owner {
    explicit Owner(EventLoop* loop, bool* destroyed) : lane(loop, "owner"), destroyed(destroyed) {}
    ~Owner() { *destroyed = true; }
    ActorLane lane;
    bool* destroyed;
  };
  struct Hold {
    using Item = std::shared_ptr<int>;
    void operator()(Item&) const {}
  };
  bool destroyed = false;
  std::weak_ptr<int> payload;
  bool ran = false;
  {
    EventLoop loop;
    auto owner = std::make_shared<Owner>(&loop, &destroyed);
    owner->lane.Submit(0, Millis(1), [owner, &ran] { ran = true; });
    owner.reset();
    auto held = std::make_shared<int>(7);
    payload = held;
    auto stream = std::make_unique<EventStream<Hold>>(&loop, Hold{});
    stream->Push(Millis(2), std::move(held));
    stream.reset();
    EXPECT_FALSE(destroyed);
    EXPECT_FALSE(payload.expired());
  }
  EXPECT_FALSE(ran);
  EXPECT_TRUE(destroyed);
  EXPECT_TRUE(payload.expired());
}

// The run order and the clock at every run must be those of a reference that
// schedules every lane task and stream entry as its own event. A seeded
// program mixes plain timers with cancels, lane submits (tasks submit more
// tasks to their own lane) and pushes onto several streams; the same program
// runs once through lanes and streams and once through ScheduleAt alone.
class MixedProgram {
 public:
  static constexpr size_t kLanes = 4;
  static constexpr size_t kStreams = 3;
  static constexpr size_t kMaxRuns = 6000;
  // Cancel outcomes are logged as runs with these ids.
  static constexpr int kCancelled = -1;
  static constexpr int kNotCancelled = -2;

  struct Fire {
    using Item = int;
    MixedProgram* program;
    void operator()(int& id) const { program->Ran(id); }
  };

  struct Run {
    int id;
    moputil::SimTime now;
    size_t pending;
    friend bool operator==(const Run&, const Run&) = default;
  };

  MixedProgram(bool direct, uint64_t seed) : direct_(direct), rng_(seed) {
    for (size_t i = 0; i < kLanes; ++i) {
      lanes_.push_back(std::make_unique<ActorLane>(&loop_, "lane-" + std::to_string(i)));
      free_at_.push_back(0);
    }
    for (size_t i = 0; i < kStreams; ++i) {
      streams_.push_back(std::make_unique<EventStream<Fire>>(&loop_, Fire{this}));
      tail_.push_back(0);
    }
  }

  std::vector<Run> Execute() {
    for (int i = 0; i < 2000; ++i) {
      Act(-1);
    }
    loop_.Run();
    EXPECT_EQ(loop_.pending_events(), 0u);
    return runs_;
  }

 private:
  void Act(int lane) {
    switch (rng_.UniformInt(0, 3)) {
      case 0: {
        int id = next_id_++;
        timers_.push_back(loop_.Schedule(Millis(rng_.UniformInt(0, 6)), [this, id] { Ran(id); }));
        break;
      }
      case 1:
        if (!timers_.empty()) {
          size_t victim = static_cast<size_t>(
              rng_.UniformInt(0, static_cast<int64_t>(timers_.size()) - 1));
          bool cancelled = loop_.Cancel(timers_[victim]);
          runs_.push_back({cancelled ? kCancelled : kNotCancelled, loop_.Now(),
                           loop_.pending_events()});
        }
        break;
      case 2: {
        // A task's follow-up goes to its own lane half the time.
        size_t l = lane >= 0 && rng_.Bernoulli(0.5)
                       ? static_cast<size_t>(lane)
                       : static_cast<size_t>(rng_.UniformInt(0, kLanes - 1));
        Submit(l, Millis(rng_.UniformInt(0, 2)), Millis(rng_.UniformInt(0, 3)));
        break;
      }
      default: {
        size_t s = static_cast<size_t>(rng_.UniformInt(0, kStreams - 1));
        // Monotone per stream; may land in the past of Now() (clamped).
        tail_[s] += Millis(rng_.UniformInt(0, 2));
        int id = next_id_++;
        if (direct_) {
          loop_.ScheduleAt(tail_[s], [this, id] { Ran(id); });
        } else {
          streams_[s]->Push(tail_[s], id);
        }
        tail_[s] = std::max(tail_[s], loop_.Now());
        break;
      }
    }
  }

  void Submit(size_t lane, moputil::SimDuration wake, moputil::SimDuration service) {
    int id = next_id_++;
    auto task = [this, id, lane] {
      Ran(id);
      if (runs_.size() < kMaxRuns && rng_.Bernoulli(0.5)) {
        Act(static_cast<int>(lane));
      }
    };
    if (direct_) {
      moputil::SimTime start = std::max(loop_.Now() + wake, free_at_[lane]);
      free_at_[lane] = start + service;
      loop_.ScheduleAt(free_at_[lane], task);
    } else {
      lanes_[lane]->Submit(wake, service, task);
    }
  }

  void Ran(int id) {
    runs_.push_back({id, loop_.Now(), loop_.pending_events()});
    if (runs_.size() < kMaxRuns && rng_.Bernoulli(0.4)) {
      Act(-1);
    }
  }

  bool direct_;
  moputil::Rng rng_;
  EventLoop loop_;
  std::vector<std::unique_ptr<ActorLane>> lanes_;
  std::vector<moputil::SimTime> free_at_;
  std::vector<std::unique_ptr<EventStream<Fire>>> streams_;
  std::vector<moputil::SimTime> tail_;
  std::vector<mopsim::TimerId> timers_;
  std::vector<Run> runs_;
  int next_id_ = 0;
};

TEST(EventStream, MergedOrderEqualsDirectScheduling) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<MixedProgram::Run> streamed = MixedProgram(false, seed).Execute();
    std::vector<MixedProgram::Run> direct = MixedProgram(true, seed).Execute();
    EXPECT_GT(streamed.size(), 1000u);
    ASSERT_EQ(streamed.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      ASSERT_EQ(streamed[i], direct[i]) << "run " << i << ": id " << streamed[i].id << " vs "
                                        << direct[i].id;
    }
  }
}

}  // namespace
