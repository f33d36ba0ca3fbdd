// Tunnel read path (paper §3.1).
//
// The Android VPN paradigm gives you a tun fd and a choice:
//  * poll it with sleeps (ToyVpn: fixed 100 ms; Haystack: adaptive back-off)
//    and pay packet-retrieval delay plus idle CPU, or
//  * put the fd in blocking mode on a dedicated thread (MopEye: via fcntl at
//    the native level or the hidden IoUtils.setBlocking — modeled by the
//    `blocking_supported` flag) for zero-delay retrieval.
//
// Stopping a blocked reader needs the dummy-packet trick: nothing arrives,
// read() never returns, Thread.interrupt() doesn't help — so the engine
// triggers a download (SDK >= 21) or writes a self packet (SDK < 21).
//
// Thread model v3: the reader pulls packets off the tun in bursts of up to
// Config::tun_read_batch (readv/recvmmsg model: one syscall-class cost plus a
// small marginal cost per extra packet), classifies the whole burst by flow,
// and then does ONE queue push-batch and ONE selector wakeup per lane per
// burst. With tun_read_batch == 1 and a single sink this degenerates to
// exactly the paper's per-packet TunReader -> MainWorker hand-off.
//
// The reader is also the steal broker: overloaded lanes publish their hottest
// flow on a StealBoard, and the reader — sole owner of the flow -> lane
// routing decision — re-homes whole flows by installing a routing override
// and threading handoff tokens through both lanes' read queues. Because the
// tokens ride the same FIFO queues as packets, per-flow order and the
// one-lane-per-flow affinity invariant survive: a steal re-homes a flow, it
// never interleaves one.
#ifndef MOPEYE_CORE_TUN_READER_H_
#define MOPEYE_CORE_TUN_READER_H_

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "android/tun_device.h"
#include "concurrent/lane_affinity.h"
#include "concurrent/steal_board.h"
#include "netpkt/packet.h"
#include "netpkt/packet_buf.h"
#include "core/config.h"
#include "net/selector.h"
#include "sim/actor.h"
#include "telemetry/metrics.h"
#include "util/stats.h"

namespace mopeye {

// Packets handed from TunReader to a worker lane, stamped with enqueue time.
// Entries keep their pooled tun-read buffer; the slab is reused once the
// owning lane finishes with the packet. Besides packets the queue carries
// flow-handoff tokens: markers the steal path threads through both lanes'
// FIFOs so a re-homed flow changes owner at a well-defined point in each
// lane's packet order.
struct ReadQueue {
  enum class Kind : uint8_t {
    kPacket,      // ordinary tunnel packet
    kHandoffIn,   // thief side: `flow` is arriving — park its packets until
                  // the old owner finishes and the flow state is installed
    kHandoffOut,  // victim side: `flow` has left — everything before this
                  // token was the victim's to process; hand the state over
  };
  struct Item {
    moputil::SimTime t = 0;
    moppkt::PacketBuf pkt;   // kPacket only
    moppkt::FlowKey flow;    // valid when flow_valid (classified packets and
                             // both token kinds)
    Kind kind = Kind::kPacket;
    bool flow_valid = false;
    size_t peer_lane = 0;    // tokens: the other lane of the handoff
  };
  std::deque<Item> items;

  // Burst path: Append per packet, one Commit per burst — a single
  // high-water update instead of one per packet.
  void Append(Item item) { items.push_back(std::move(item)); }
  void Commit() { high_water_.SetMax(0, items.size()); }

  // Single-packet convenience (the tun_read_batch == 1 paper model).
  void Push(moputil::SimTime t, moppkt::PacketBuf pkt) {
    Item item;
    item.t = t;
    item.pkt = std::move(pkt);
    Append(std::move(item));
    Commit();
  }

  size_t high_water() const { return static_cast<size_t>(high_water_.Value()); }

 private:
  moptel::Gauge high_water_{1, moptel::GaugeMerge::kMax};
};

class TunReader {
 public:
  // One dispatch target per worker lane: the lane's read queue, the
  // lane-owned selector whose wakeup() signals the lane (§3.2), and the
  // lane's actor (the steal path compares lane backlogs to pick a thief).
  struct LaneSink {
    ReadQueue* queue = nullptr;
    mopnet::Selector* selector = nullptr;
    mopsim::ActorLane* lane = nullptr;
  };

  TunReader(mopsim::EventLoop* loop, mopdroid::TunDevice* tun, const Config* config,
            moputil::Rng rng, std::vector<LaneSink> sinks);

  void Start();
  // Marks the reader as stopping; in blocking mode the caller must also
  // arrange a dummy packet so the blocked read() returns.
  void RequestStop();
  bool stopped() const { return stopped_; }

  // Time from packet injection into the tun to its arrival in the read
  // queue — the §3.1 "packet retrieval delay".
  const moputil::Samples& retrieval_delay_ms() const { return retrieval_delay_ms_; }
  uint64_t packets_read() const { return packets_read_.Value(); }
  uint64_t empty_polls() const { return empty_polls_.Value(); }
  uint64_t steals() const { return steals_.Value(); }
  moputil::SimDuration busy_time() const { return lane_.busy_time(); }

  // The lane a packet with this flow identity is dispatched to by hash alone
  // (steal overrides not applied — use RouteOf for the live routing).
  size_t LaneOf(const moppkt::FlowKey& flow) const {
    return moppkt::FlowLaneOf(flow, sinks_.size());
  }
  // The lane this flow's packets are currently routed to: a steal override
  // if one exists, the flow hash otherwise.
  size_t RouteOf(const moppkt::FlowKey& flow) const {
    if (!overrides_.empty()) {
      auto it = overrides_.find(flow);
      if (it != overrides_.end()) {
        return it->second;
      }
    }
    return LaneOf(flow);
  }

  // Steal brokering: the engine owns the board; lanes publish, the reader
  // consumes after each dispatched burst. Null (the default) disables
  // stealing regardless of Config::steal_enabled.
  void set_steal_board(mopcc::StealBoard<moppkt::FlowKey>* board) { steal_board_ = board; }
  // Called by the engine (thief lane context) once a handoff finishes — the
  // flow is installed on (or abandoned by) its new lane, so the reader may
  // broker it again. Loop-thread confined, like the board itself.
  void NoteHandoffComplete(const moppkt::FlowKey& flow) { pending_handoffs_.erase(flow); }

  // Telemetry: per-read() syscall cost lands in `h` (lane 0 — the reader is
  // a single actor, not sharded). Null (the default) disables observation.
  void set_stage_histogram(moptel::Histogram* h) { stage_hist_ = h; }

 private:
  void OnTunReadable();   // blocking mode wake
  void DrainLoop();       // blocking mode read chain
  void SchedulePoll(moputil::SimDuration sleep);  // polling modes
  void Poll();
  // Classifies a whole burst onto the owning lanes' queues, then commits and
  // wakes each touched lane once.
  void DispatchBurst(std::vector<mopdroid::TunDevice::OutPacket> burst);
  // Consumes StealBoard publications: validates, picks the idlest thief, and
  // initiates the flow handoff.
  void ProcessStealRequests();
  void InitiateSteal(const moppkt::FlowKey& flow, size_t victim, size_t thief);

  mopsim::EventLoop* loop_;
  mopdroid::TunDevice* tun_;
  const Config* config_;
  moputil::Rng rng_;
  std::vector<LaneSink> sinks_;
  mopsim::ActorLane lane_;
  // Debug-only: DispatchBurst (the classify + enqueue + wake step) must only
  // ever run on the reader's own context — per-lane ingress in a future PR
  // must re-home this stamp explicitly, not silently share it.
  mopcc::LaneAffinityChecker dispatch_affinity_;

  bool started_ = false;
  bool stopped_ = false;
  bool blocked_ = true;   // blocking mode: reader parked in read()
  bool draining_ = false;
  moputil::SimDuration adaptive_sleep_;

  // Burst scratch, reused across reads so the steady state allocates nothing.
  std::vector<mopdroid::TunDevice::OutPacket> burst_;
  std::vector<size_t> dirty_lanes_;
  std::vector<uint8_t> lane_dirty_;

  // Steal state. Overrides persist for the engine's lifetime: once re-homed,
  // a flow stays on its new lane until stolen again.
  mopcc::StealBoard<moppkt::FlowKey>* steal_board_ = nullptr;
  std::unordered_map<moppkt::FlowKey, size_t, moppkt::FlowKeyHash> overrides_;
  std::unordered_set<moppkt::FlowKey, moppkt::FlowKeyHash> pending_handoffs_;

  moputil::Samples retrieval_delay_ms_;
  moptel::Counter packets_read_{1};
  moptel::Counter empty_polls_{1};
  moptel::Counter steals_{1};
  moptel::Histogram* stage_hist_ = nullptr;
};

}  // namespace mopeye

#endif  // MOPEYE_CORE_TUN_READER_H_
