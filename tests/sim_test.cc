#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/actor.h"
#include "sim/event_loop.h"
#include "util/rng.h"
#include "util/time.h"

namespace {

using mopsim::ActorLane;
using mopsim::EventLoop;
using moputil::Millis;

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

}  // namespace
