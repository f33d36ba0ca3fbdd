// Real-thread tests for the mopcc primitives: correctness under genuine
// contention, and the oldPut/newPut behavioral difference the paper's Table 1
// is about.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "concurrent/lane_affinity.h"
#include "concurrent/packet_queue.h"
#include "concurrent/steal_board.h"

namespace {

using mopcc::PacketQueue;
using mopcc::PutMode;

TEST(PacketQueue, FifoSingleThread) {
  PacketQueue<int> q(PutMode::kOldPut);
  q.Put(1);
  q.Put(2);
  q.Put(3);
  EXPECT_EQ(q.TryTake().value(), 1);
  EXPECT_EQ(q.TryTake().value(), 2);
  EXPECT_EQ(q.TryTake().value(), 3);
  EXPECT_FALSE(q.TryTake().has_value());
}

TEST(PacketQueue, StopUnblocksConsumer) {
  PacketQueue<int> q(PutMode::kOldPut);
  std::thread consumer([&] {
    auto item = q.Take();
    EXPECT_FALSE(item.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Stop();
  consumer.join();
}

class PacketQueueModes : public ::testing::TestWithParam<PutMode> {};

TEST_P(PacketQueueModes, NoLossUnderConcurrentProducers) {
  PacketQueue<int> q(GetParam());
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::atomic<int64_t> sum{0};
  std::atomic<int> received{0};
  std::thread consumer([&] {
    while (true) {
      auto item = q.Take();
      if (!item.has_value()) {
        return;
      }
      sum += *item;
      ++received;
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.Put(p * kPerProducer + i);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  while (received.load() < kProducers * kPerProducer) {
    std::this_thread::yield();
  }
  q.Stop();
  consumer.join();
  int64_t expect = 0;
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    expect += i;
  }
  EXPECT_EQ(sum.load(), expect);
}

TEST_P(PacketQueueModes, OrderPreservedPerProducer) {
  PacketQueue<std::pair<int, int>> q(GetParam());
  constexpr int kPerProducer = 3000;
  // The main thread spin-reads last_seen while the consumer writes it, so
  // both must be atomic (TSan flagged the original plain int version).
  std::array<std::atomic<int>, 2> last_seen = {-1, -1};
  std::atomic<bool> order_ok = true;
  std::thread consumer([&] {
    while (true) {
      auto item = q.Take();
      if (!item.has_value()) {
        return;
      }
      auto [producer, seq] = *item;
      auto& slot = last_seen[static_cast<size_t>(producer)];
      if (seq <= slot.load(std::memory_order_relaxed)) {
        order_ok = false;
      }
      slot.store(seq, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.Put({p, i});
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  while (last_seen[0].load() < kPerProducer - 1 ||
         last_seen[1].load() < kPerProducer - 1) {
    std::this_thread::yield();
  }
  q.Stop();
  consumer.join();
  EXPECT_TRUE(order_ok);
}

INSTANTIATE_TEST_SUITE_P(Modes, PacketQueueModes,
                         ::testing::Values(PutMode::kOldPut, PutMode::kNewPut));

TEST(PacketQueue, NewPutParksLessThanOldPut) {
  // Bursty producer: packets in clusters with sub-spin gaps. The oldPut
  // consumer parks between every burst; the newPut consumer's spin window
  // rides across the gaps.
  auto run = [](PutMode mode) {
    PacketQueue<int> q(mode, /*spin_rounds=*/20000);
    std::thread consumer([&q] {
      while (q.Take().has_value()) {
      }
    });
    for (int burst = 0; burst < 50; ++burst) {
      for (int i = 0; i < 20; ++i) {
        q.Put(i);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    // Give the consumer time to drain, then stop.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.Stop();
    consumer.join();
    return q.waits();
  };
  uint64_t old_waits = run(PutMode::kOldPut);
  uint64_t new_waits = run(PutMode::kNewPut);
  EXPECT_LT(new_waits, old_waits);
}

// ---- StealBoard: one-slot-per-lane elephant-flow publication board ----

TEST(StealBoard, PublishTakeRoundTrip) {
  mopcc::StealBoard<int> board(4);
  EXPECT_EQ(board.lanes(), 4u);
  EXPECT_FALSE(board.pending(2));
  board.Publish(2, /*flow=*/77, /*depth=*/31);
  EXPECT_TRUE(board.pending(2));
  EXPECT_FALSE(board.pending(0));

  mopcc::StealBoard<int>::Publication pub;
  ASSERT_TRUE(board.Take(2, &pub));
  EXPECT_EQ(pub.flow, 77);
  EXPECT_EQ(pub.depth, 31u);
  EXPECT_TRUE(pub.valid);
  // Take clears the slot: a second read finds nothing.
  EXPECT_FALSE(board.pending(2));
  EXPECT_FALSE(board.Take(2, &pub));
}

TEST(StealBoard, PendingPublicationIsNotOverwritten) {
  // A lane must not spam the board faster than the consumer judges offers:
  // while a publication is pending, later ones from the same lane are
  // dropped, so the consumer always sees the offer it was first shown.
  mopcc::StealBoard<int> board(2);
  board.Publish(1, 10, 8);
  board.Publish(1, 99, 200);  // ignored: slot still pending
  mopcc::StealBoard<int>::Publication pub;
  ASSERT_TRUE(board.Take(1, &pub));
  EXPECT_EQ(pub.flow, 10);
  EXPECT_EQ(pub.depth, 8u);
  // Once judged, the lane may publish again.
  board.Publish(1, 99, 200);
  ASSERT_TRUE(board.Take(1, &pub));
  EXPECT_EQ(pub.flow, 99);
}

TEST(StealBoard, SlotsArePerLane) {
  mopcc::StealBoard<int> board(3);
  board.Publish(0, 5, 40);
  board.Publish(2, 6, 50);
  mopcc::StealBoard<int>::Publication pub;
  EXPECT_FALSE(board.Take(1, &pub));
  ASSERT_TRUE(board.Take(0, &pub));
  EXPECT_EQ(pub.flow, 5);
  ASSERT_TRUE(board.Take(2, &pub));
  EXPECT_EQ(pub.flow, 6);
}

// --- Lane-affinity checker ---------------------------------------------------
// Active in debug builds (MOPEYE_LANE_CHECKS); compiled out to empty no-op
// classes under NDEBUG, which the #else branch below pins down.

#if MOPEYE_LANE_CHECKS

TEST(LaneAffinity, SameContextRepeatedAccessOk) {
  mopcc::LaneAffinityChecker checker;
  EXPECT_FALSE(checker.bound());
  checker.Check();
  checker.Check();
  EXPECT_TRUE(checker.bound());
}

TEST(LaneAffinity, LaneScopeNestingRestoresOuterLane) {
  mopcc::LaneAffinityChecker outer;
  mopcc::LaneScope scope(3);
  outer.Check();
  {
    mopcc::LaneScope inner(4);
    mopcc::LaneAffinityChecker other;
    other.Check();
  }
  outer.Check();  // would abort if the inner scope leaked its token
}

TEST(LaneAffinity, RebindTransfersOwnership) {
  mopcc::LaneAffinityChecker checker;
  {
    mopcc::LaneScope scope(1);
    checker.Check();
  }
  checker.Rebind();
  mopcc::LaneScope scope(2);
  checker.Check();
}

TEST(LaneAffinityDeathTest, CrossLaneAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  mopcc::LaneAffinityChecker checker;
  {
    mopcc::LaneScope scope(1);
    checker.Check();
  }
  EXPECT_DEATH(
      {
        mopcc::LaneScope scope(2);
        checker.Check();
      },
      "lane-affinity violation");
}

TEST(LaneAffinityDeathTest, CrossThreadAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  mopcc::LaneAffinityChecker checker;
  checker.Check();  // binds to this thread
  EXPECT_DEATH(std::thread([&] { checker.Check(); }).join(),
               "lane-affinity violation");
}

#else  // !MOPEYE_LANE_CHECKS

TEST(LaneAffinity, CompiledOutInRelease) {
  mopcc::LaneAffinityChecker checker;
  checker.Check();
  std::thread([&] { checker.Check(); }).join();  // must be silent
  EXPECT_FALSE(checker.bound());
}

#endif  // MOPEYE_LANE_CHECKS

}  // namespace
