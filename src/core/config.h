// MopEye engine configuration.
//
// Every §3 design decision is a knob here so the ablation benches can flip
// exactly one axis at a time:
//   read_mode        — §3.1 blocking tun reads vs ToyVpn/Haystack sleeping
//   write_scheme     — §3.5.1 directWrite vs queueWrite
//   put_scheme       — §3.5.1 oldPut (wait/notify) vs newPut (sleep counter)
//   mapping          — §3.3 naive per-SYN vs cache-based (Haystack) vs lazy
//   timestamp_mode   — §2.4 blocking socket-connect thread vs selector event
//   protect_mode     — §3.5.2 per-socket protect() vs addDisallowedApplication
#ifndef MOPEYE_CORE_CONFIG_H_
#define MOPEYE_CORE_CONFIG_H_

#include <cstdint>
#include <memory>

#include "util/rng.h"
#include "util/time.h"

namespace mopeye {

using moputil::SimDuration;

// Latency/cost models for everything the simulated threads do. Defaults are
// calibrated to a 2016-era flagship (Nexus 6 class), the paper's testbed.
struct CostModels {
  // Wakeup of a blocked thread (futex wake -> running).
  std::shared_ptr<moputil::DelayModel> thread_wake;
  // Spawning a temporary socket-connect thread.
  std::shared_ptr<moputil::DelayModel> thread_spawn;
  // Selector dispatch: event queued -> select() returns in the main loop.
  std::shared_ptr<moputil::DelayModel> selector_dispatch;
  // read() on the tun fd when a packet is available.
  std::shared_ptr<moputil::DelayModel> tun_read_syscall;
  // write() on the tun fd, uncontended.
  std::shared_ptr<moputil::DelayModel> tun_write_syscall;
  // Extra write() tail when several threads hit the shared fd: sampled by
  // directWrite producers and by every gathered lane flush (lane_tun_write).
  std::shared_ptr<moputil::DelayModel> tun_write_contention;
  // Producer-visible cost of notify() when the consumer sits in wait()
  // (oldPut's 1-5 ms tail, Table 1).
  std::shared_ptr<moputil::DelayModel> queue_notify;
  // Plain enqueue (lock + push) cost.
  std::shared_ptr<moputil::DelayModel> enqueue;
  // One spin-check round of the newPut sleep counter.
  std::shared_ptr<moputil::DelayModel> spin_check;
  // IP/TCP header parse of one tunnel packet.
  std::shared_ptr<moputil::DelayModel> packet_parse;
  // One state-machine step + packet build.
  std::shared_ptr<moputil::DelayModel> sm_process;
  // Socket read()/write() syscall on an external channel.
  std::shared_ptr<moputil::DelayModel> socket_op;
  // Selector register() — the "sometimes very expensive" call of §3.4.
  std::shared_ptr<moputil::DelayModel> selector_register;
  // DNS message parse + UDP socket setup in the DNS thread.
  std::shared_ptr<moputil::DelayModel> dns_process;
  // Marginal cost of each additional packet in a batched (writev-style)
  // tunnel write burst; only sampled when Config::write_batching is on.
  std::shared_ptr<moputil::DelayModel> tun_write_batch_extra;
  // Marginal cost of each additional packet in a batched (readv/recvmmsg
  // style) tunnel read burst; only sampled when Config::tun_read_batch > 1.
  std::shared_ptr<moputil::DelayModel> tun_read_batch_extra;

  static CostModels Default();
};

struct Config {
  enum class TunReadMode {
    kBlocking,       // §3.1: dedicated TunReader thread, fd in blocking mode
    kSleepFixed,     // ToyVpn: sleep a fixed interval between read() batches
    kSleepAdaptive,  // Haystack-style: back off when idle, reset on traffic
  };
  TunReadMode read_mode = TunReadMode::kBlocking;
  SimDuration sleep_interval = moputil::Millis(100);      // kSleepFixed
  SimDuration adaptive_min_sleep = moputil::Millis(1);    // kSleepAdaptive
  SimDuration adaptive_max_sleep = moputil::Millis(100);  // kSleepAdaptive

  enum class WriteScheme { kDirectWrite, kQueueWrite };
  WriteScheme write_scheme = WriteScheme::kQueueWrite;

  enum class PutScheme { kOldPut, kNewPut };
  PutScheme put_scheme = PutScheme::kNewPut;
  // Batched tunnel writes: the TunWriter drains its whole queue in one
  // writev-style submission (one syscall-class cost plus a small marginal
  // cost per extra packet) instead of one write() per packet. Off by
  // default: the paper's tables model per-packet write(), and the checked-in
  // experiment baselines depend on that cost stream.
  bool write_batching = false;
  // Spin rounds before the writer gives up and wait()s (§3.5.1's counter
  // threshold). The window must outlast typical intra-burst packet gaps so
  // producers almost never find the writer parked.
  int newput_spin_rounds = 1500;
  // Fraction of spin wall-time charged as CPU: the check loop yields between
  // rounds, so it shares the core rather than burning it outright.
  double spin_cpu_fraction = 0.35;

  enum class MappingStrategy { kNaivePerSyn, kCacheBased, kLazy };
  MappingStrategy mapping = MappingStrategy::kLazy;
  // Sleep slice a non-parsing socket-connect thread waits for the working
  // thread's results (§3.3 picks 50 ms).
  SimDuration lazy_wait_slice = moputil::Millis(50);

  enum class TimestampMode { kBlockingConnectThread, kSelector };
  TimestampMode timestamp_mode = TimestampMode::kBlockingConnectThread;

  enum class ProtectMode {
    kAuto,           // addDisallowedApplication on SDK >= 21, else per-socket
    kPerSocket,      // always protect() each socket
    kDisallowedApp,  // always addDisallowedApplication (fails on SDK < 21)
  };
  ProtectMode protect_mode = ProtectMode::kAuto;

  // ---- Worker-lane sharding (thread model v2) ----
  // Number of MainWorker lanes the relay engine runs. 1 (the default) is the
  // paper's single-MainWorker model and keeps every checked-in bench baseline
  // byte-identical. With N > 1 the TunReader classifies each packet by
  // FlowKeyHash % N and enqueues it on the owning lane; each lane owns its
  // own selector, TCP-client table, DNS relay state, buffer pool, and
  // measurement shard, so no flow state is ever shared across lanes. The
  // scaled configuration also turns write_batching on (all lanes feed the
  // single TunWriter, and per-packet write() would re-serialize them there).
  int worker_lanes = 1;

  // ---- Burst ingress + work stealing (thread model v3) ----
  // Max packets the TunReader pulls off the tun fd per syscall-class burst
  // (readv/recvmmsg model): one tun_read_syscall plus tun_read_batch_extra
  // per additional packet, then ONE queue push-batch and ONE selector wakeup
  // per lane per burst. 1 (the default) is the paper's per-packet read and
  // keeps every checked-in baseline byte-identical.
  int tun_read_batch = 1;
  // Elephant-flow work stealing: an overloaded lane publishes its hottest
  // TCP flow; the TunReader re-homes that whole flow to the idlest lane via
  // handoff tokens through the read queue, so per-flow FIFO order and the
  // single-lane-per-flow affinity invariant survive — a steal re-homes a
  // flow, it never interleaves one. Off by default (paper model).
  bool steal_enabled = false;
  // Queue depth at which a lane declares itself overloaded and publishes its
  // hottest flow as stealable.
  int steal_queue_threshold = 24;
  // Thread model v3 egress: each MainWorker lane gathers the packets it
  // produced and flushes them with one writev-style gathered write to the
  // tun fd from its own thread (one tun_write_syscall plus
  // tun_write_batch_extra per additional packet, plus a shared-fd
  // tun_write_contention sample per flush), instead of funneling every
  // packet through the single TunWriter actor — whose per-packet marginal
  // drain cost is a global serializer no lane count can beat. Off by
  // default: the paper model routes all writes through §3.5.1's schemes and
  // the checked-in baselines depend on that cost stream.
  bool lane_tun_write = false;

  // Self-measurement plane (moptel): lane-sharded metrics registry, stage
  // histograms, and the per-lane flight recorder. Off (the default) the
  // engine allocates none of it and the relay hot paths pay one untaken
  // branch — all bench baselines stay byte-identical. On, counters cost a
  // plain per-lane uint64_t increment and histograms an add into
  // preallocated buckets (no atomics, locks, or steady-state allocation).
  bool telemetry = false;

  // Cross-tier record tracing: when > 0, every measurement is stamped with a
  // compact TraceContext at creation (device hash, lane, seq, birth time) and
  // records whose trace id falls in a 1/N hash slice ride upload telemetry
  // frames with per-hop span timings (device -> collector -> fold ->
  // durable). 0 (the default) stamps nothing — measurements, CSV output, and
  // the batch wire format are byte-identical to pre-tracing builds.
  uint32_t trace_sample_period = 0;

  // Relay TCP parameters (§3.4).
  uint16_t mss = 1460;
  uint16_t window = 65535;
  // Socket read buffer (and write buffer) per client.
  size_t socket_buffer = 65535;

  bool measure_dns = true;
  bool relay_non_dns_udp = true;

  // ---- Baseline hooks (Haystack emulation) ----
  // Per-packet traffic content inspection cost, charged on the MainWorker for
  // every relayed packet in both directions (null = none; MopEye performs no
  // content inspection, §5).
  std::shared_ptr<moputil::DelayModel> content_inspection;
  // Extra resident memory: per relay client and flat (inspection buffers,
  // caches). Zero for MopEye.
  size_t extra_memory_per_client = 0;
  size_t extra_memory_base = 0;

  CostModels costs = CostModels::Default();
};

}  // namespace mopeye

#endif  // MOPEYE_CORE_CONFIG_H_
