#include "core/config.h"

namespace mopeye {

namespace {
using moputil::FixedDelay;
using moputil::LogNormalDelay;
using moputil::Micros;
using moputil::Millis;
using moputil::MixtureDelay;
using moputil::UniformDelay;

std::shared_ptr<moputil::DelayModel> LogN(SimDuration median, double sigma, SimDuration lo,
                                          SimDuration hi = 0) {
  return std::make_shared<LogNormalDelay>(median, sigma, lo, hi);
}
}  // namespace

CostModels CostModels::Default() {
  CostModels m;
  m.thread_wake = LogN(Micros(35), 0.45, Micros(8), Micros(400));
  m.thread_spawn = LogN(Micros(90), 0.40, Micros(30), Millis(1));
  // Selector dispatch is usually fast but carries a multi-ms tail when the
  // runtime is busy — the very inaccuracy §2.4 sidesteps for timestamps.
  m.selector_dispatch = std::make_shared<MixtureDelay>(std::vector<MixtureDelay::Component>{
      {0.80, LogN(Micros(120), 0.5, Micros(25))},
      {0.17, std::make_shared<UniformDelay>(Millis(1), Millis(4))},
      {0.03, std::make_shared<UniformDelay>(Millis(4), Millis(9))},
  });
  m.tun_read_syscall = LogN(Micros(18), 0.35, Micros(6), Micros(200));
  // Tunnel writes sit around 0.1 ms (§3.5.1 calls writing "at the 0.1 ms
  // level") with an occasional slow write.
  m.tun_write_syscall = std::make_shared<MixtureDelay>(std::vector<MixtureDelay::Component>{
      {0.988, LogN(Micros(95), 0.35, Micros(30), Micros(900))},
      {0.012, std::make_shared<UniformDelay>(Millis(1), Millis(2))},
  });
  // Contention tail on the shared fd: what directWrite exposes producers to,
  // and what every gathered lane flush pays once per burst.
  m.tun_write_contention = std::make_shared<MixtureDelay>(std::vector<MixtureDelay::Component>{
      {0.972, std::make_shared<FixedDelay>(0)},
      {0.020, std::make_shared<UniformDelay>(Millis(1), Millis(2))},
      {0.0055, std::make_shared<UniformDelay>(Millis(2), Millis(5))},
      {0.0020, std::make_shared<UniformDelay>(Millis(5), Millis(10))},
      {0.0005, std::make_shared<UniformDelay>(Millis(10), Millis(25))},
  });
  // notify() while the consumer waits: mostly cheap, sometimes a futex-wake
  // stall in the 1-5 ms range (Table 1's oldPut tail).
  m.queue_notify = std::make_shared<MixtureDelay>(std::vector<MixtureDelay::Component>{
      {0.925, LogN(Micros(9), 0.5, Micros(2), Micros(600))},
      {0.065, std::make_shared<UniformDelay>(Millis(1), Millis(5))},
      {0.010, std::make_shared<UniformDelay>(Millis(5), Millis(9))},
  });
  m.enqueue = LogN(Micros(3), 0.4, Micros(1), Micros(60));
  m.spin_check = std::make_shared<FixedDelay>(Micros(2));
  m.packet_parse = LogN(Micros(9), 0.35, Micros(3), Micros(120));
  m.sm_process = LogN(Micros(7), 0.35, Micros(2), Micros(100));
  m.socket_op = LogN(Micros(22), 0.40, Micros(6), Micros(400));
  // register() is "sometimes very expensive" (§3.4).
  m.selector_register = std::make_shared<MixtureDelay>(std::vector<MixtureDelay::Component>{
      {0.90, LogN(Micros(60), 0.5, Micros(15))},
      {0.10, std::make_shared<UniformDelay>(Millis(1), Millis(5))},
  });
  m.dns_process = LogN(Micros(60), 0.4, Micros(20), Millis(1));
  // A gathered write amortizes the syscall: each extra packet in the burst
  // costs roughly the per-iovec copy, an order of magnitude below write().
  m.tun_write_batch_extra = LogN(Micros(8), 0.30, Micros(3), Micros(60));
  // A gathered read amortizes the same way: each extra packet in the burst
  // costs the per-mmsghdr copy/bookkeeping, well below a full read().
  m.tun_read_batch_extra = LogN(SimDuration(2500), 0.30, Micros(1), Micros(30));
  return m;
}

}  // namespace mopeye
