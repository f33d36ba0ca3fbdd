#include "core/tun_writer.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace mopeye {

TunWriter::TunWriter(mopsim::EventLoop* loop, mopdroid::TunDevice* tun, const Config* config,
                     moputil::Rng rng)
    : loop_(loop), tun_(tun), config_(config), rng_(rng), lane_(loop, "TunWriter") {
  MOP_CHECK(tun != nullptr);
}

moputil::SimDuration TunWriter::SubmitPacket(moppkt::PacketBuf packet) {
  if (stopped_ || tun_->closed()) {
    return 0;
  }
  const CostModels& costs = config_->costs;

  if (config_->write_scheme == Config::WriteScheme::kDirectWrite) {
    // The producer writes the shared fd itself: it pays the write() syscall
    // plus the occasional contention stall when another thread holds the fd
    // (the stochastic tail in tun_write_contention). Deliveries stay FIFO.
    moputil::SimTime now = loop_->Now();
    moputil::SimDuration cost = costs.tun_write_syscall->Sample(rng_) +
                                costs.tun_write_contention->Sample(rng_);
    moputil::SimTime delivery = std::max(now + cost, fd_busy_until_ + 1);
    fd_busy_until_ = delivery;
    ++packets_written_;
    ++write_bursts_;
    mopdroid::TunDevice* tun = tun_;
    loop_->ScheduleAt(delivery, [tun, packet = std::move(packet)]() mutable {
      tun->WriteIncoming(std::move(packet));
    });
    producer_overhead_ms_.Add(moputil::ToMillis(cost));
    tunnel_write_ms_.Add(moputil::ToMillis(cost));
    if (stage_hist_ != nullptr) {
      stage_hist_->Observe(0, moputil::ToMillis(cost));
    }
    return cost;
  }

  // kQueueWrite: enqueue and let the TunWriter thread drain.
  queue_.push_back(std::move(packet));
  queue_high_water_ = std::max(queue_high_water_, queue_.size());
  moputil::SimDuration overhead = costs.enqueue->Sample(rng_);

  // The traditional scheme signals on every put — the producer eats the
  // notify() syscall (and its futex tail) even when the writer is running.
  // newPut only ever signals a genuinely parked writer.
  if (config_->put_scheme == Config::PutScheme::kOldPut &&
      state_ != WriterState::kWaiting) {
    overhead += costs.queue_notify->Sample(rng_);
  }
  switch (state_) {
    case WriterState::kWaiting:
      // Writer is parked in wait(): this put pays the notify.
      ++notifies_;
      overhead += costs.queue_notify->Sample(rng_);
      state_ = WriterState::kProcessing;
      ++spin_epoch_;
      lane_.Submit(costs.thread_wake->Sample(rng_), 0, [this] { Pump(); });
      break;
    case WriterState::kSpinning:
      // Writer is inside its check loop; it will see the packet within one
      // spin round — no notify needed (the newPut win). The spin ends here,
      // so only the time actually spun counts as CPU.
      spin_busy_ += static_cast<moputil::SimDuration>(
          static_cast<double>(loop_->Now() - spin_started_) * config_->spin_cpu_fraction);
      state_ = WriterState::kProcessing;
      ++spin_epoch_;
      lane_.Submit(costs.spin_check->Sample(rng_), 0, [this] { Pump(); });
      break;
    case WriterState::kProcessing:
      break;  // the pump chain will pick it up
  }

  producer_overhead_ms_.Add(moputil::ToMillis(overhead));
  return overhead;
}

void TunWriter::Pump() {
  pump_affinity_.Check();
  if (stopped_ || tun_->closed()) {
    return;
  }
  const CostModels& costs = config_->costs;
  if (queue_.empty()) {
    if (config_->put_scheme == Config::PutScheme::kNewPut) {
      // Sleep-counter: keep checking for `newput_spin_rounds` rounds before
      // parking. The check loop burns CPU but leaves the "lane" responsive —
      // a packet arriving mid-spin is picked up within one round, and only
      // the time actually spent spinning is charged (spin_busy_).
      state_ = WriterState::kSpinning;
      spin_started_ = loop_->Now();
      uint64_t epoch = ++spin_epoch_;
      moputil::SimDuration spin_window =
          config_->newput_spin_rounds * costs.spin_check->Sample(rng_);
      loop_->Schedule(spin_window, [this, epoch, spin_window] {
        if (spin_epoch_ == epoch && state_ == WriterState::kSpinning) {
          // No packet showed up during the whole window: park.
          spin_busy_ += static_cast<moputil::SimDuration>(
              static_cast<double>(spin_window) * config_->spin_cpu_fraction);
          state_ = WriterState::kWaiting;
          ++waits_;
        }
      });
    } else {
      state_ = WriterState::kWaiting;
      ++waits_;
    }
    return;
  }
  state_ = WriterState::kProcessing;
  if (config_->write_batching) {
    // Writev-style burst: everything queued right now leaves in one
    // submission — one syscall-class cost for the first packet plus a small
    // marginal cost per extra iovec, and a single lane round-trip instead of
    // one per packet.
    std::deque<moppkt::PacketBuf> burst;
    burst.swap(queue_);
    moputil::SimDuration cost = costs.tun_write_syscall->Sample(rng_);
    for (size_t i = 1; i < burst.size(); ++i) {
      cost += costs.tun_write_batch_extra->Sample(rng_);
    }
    tunnel_write_ms_.Add(moputil::ToMillis(cost));
    if (stage_hist_ != nullptr) {
      stage_hist_->Observe(0, moputil::ToMillis(cost));
    }
    packets_written_ += burst.size();
    ++write_bursts_;
    lane_.Submit(0, cost, [this, burst = std::move(burst)]() mutable {
      for (auto& packet : burst) {
        tun_->WriteIncoming(std::move(packet));
      }
      Pump();
    });
    return;
  }
  moppkt::PacketBuf packet = std::move(queue_.front());
  queue_.pop_front();
  moputil::SimDuration cost = costs.tun_write_syscall->Sample(rng_);
  tunnel_write_ms_.Add(moputil::ToMillis(cost));
  if (stage_hist_ != nullptr) {
    stage_hist_->Observe(0, moputil::ToMillis(cost));
  }
  ++packets_written_;
  ++write_bursts_;
  lane_.Submit(0, cost, [this, packet = std::move(packet)]() mutable {
    tun_->WriteIncoming(std::move(packet));
    Pump();
  });
}

void TunWriter::Stop() {
  stopped_ = true;
  queue_.clear();
}

}  // namespace mopeye
