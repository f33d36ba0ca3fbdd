// Real-thread implementation of the §3.5.1 write queue.
//
// The virtual-time TunWriter models these algorithms for deterministic
// experiments; this class is the same design under genuine std::thread
// contention, used by the real-thread tests and the google-benchmark micro
// benches to show the modeled effect (newPut's spin counter avoiding the
// producer-visible notify) is real.
//
//  * PutMode::kOldPut — classic mutex+condvar queue: the consumer waits
//    whenever the queue is empty, so nearly every leading packet of a burst
//    makes the producer's put() perform a futex wake.
//  * PutMode::kNewPut — the paper's sleep counter: the consumer keeps
//    re-checking the queue for a bounded number of rounds (decaying the
//    counter on nonempty finds) before parking, so producers almost never
//    pay the notify.
//
// Locking discipline is machine-checked: queue_ and stopped_ are
// MOP_GUARDED_BY(mu_), and the wait loops are written as explicit
// while-not-ready loops so Clang's -Wthread-safety sees every guarded read
// under the lock.
#ifndef MOPEYE_CONCURRENT_PACKET_QUEUE_H_
#define MOPEYE_CONCURRENT_PACKET_QUEUE_H_

#include <atomic>
#include <deque>
#include <optional>
#include <thread>

#include "util/thread_annotations.h"

namespace mopcc {

enum class PutMode { kOldPut, kNewPut };

template <typename T>
class PacketQueue {
 public:
  explicit PacketQueue(PutMode mode, int spin_rounds = 4096)
      : mode_(mode), spin_rounds_(spin_rounds) {}

  // Producer side. Returns true if this put had to notify a parked consumer
  // (the expensive path the sleep counter exists to avoid).
  bool Put(T item) MOP_EXCLUDES(mu_) {
    bool notified = false;
    {
      moputil::MutexLock lock(mu_);
      queue_.push_back(std::move(item));
    }
    if (mode_ == PutMode::kOldPut) {
      // Traditional scheme: always signal.
      cv_.NotifyOne();
      notified = consumer_waiting_.load(std::memory_order_acquire);
    } else if (consumer_waiting_.load(std::memory_order_acquire)) {
      cv_.NotifyOne();
      notified = true;
    }
    return notified;
  }

  // Consumer side: blocks until an item arrives or Stop() is called.
  std::optional<T> Take() MOP_EXCLUDES(mu_) {
    int counter = 0;
    while (true) {
      {
        moputil::MutexLock lock(mu_);
        if (!queue_.empty()) {
          T item = std::move(queue_.front());
          queue_.pop_front();
          counter /= 2;  // §3.5.1: decay on a nonempty find
          return item;
        }
        if (stopped_) {
          return std::nullopt;
        }
      }
      if (mode_ == PutMode::kNewPut && counter < spin_rounds_) {
        ++counter;
        std::this_thread::yield();
        continue;
      }
      Park(&counter);
    }
  }

  // Non-blocking pop.
  std::optional<T> TryTake() MOP_EXCLUDES(mu_) {
    moputil::MutexLock lock(mu_);
    if (queue_.empty()) {
      return std::nullopt;
    }
    T item = std::move(queue_.front());
    queue_.pop_front();
    return item;
  }

  void Stop() MOP_EXCLUDES(mu_) {
    {
      moputil::MutexLock lock(mu_);
      stopped_ = true;
    }
    cv_.NotifyAll();
  }

  size_t size() const MOP_EXCLUDES(mu_) {
    moputil::MutexLock lock(mu_);
    return queue_.size();
  }
  // Times the consumer actually parked in wait().
  uint64_t waits() const { return waits_.load(); }

 private:
  // Parks until a producer notifies (or Stop). Resets the spin counter only
  // if this call actually waited.
  void Park(int* counter) MOP_EXCLUDES(mu_) {
    moputil::MutexLock lock(mu_);
    if (!queue_.empty() || stopped_) {
      return;  // raced with a producer: re-run the fast path
    }
    consumer_waiting_.store(true, std::memory_order_release);
    ++waits_;
    while (queue_.empty() && !stopped_) {
      cv_.Wait(mu_);
    }
    consumer_waiting_.store(false, std::memory_order_release);
    *counter = 0;
  }

  PutMode mode_;
  int spin_rounds_;
  mutable moputil::Mutex mu_;
  moputil::CondVar cv_;
  std::deque<T> queue_ MOP_GUARDED_BY(mu_);
  bool stopped_ MOP_GUARDED_BY(mu_) = false;
  std::atomic<bool> consumer_waiting_{false};
  std::atomic<uint64_t> waits_{0};
};

}  // namespace mopcc

#endif  // MOPEYE_CONCURRENT_PACKET_QUEUE_H_
