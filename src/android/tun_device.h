// The TUN virtual network device (/dev/tun) behind Android's VpnService.
//
// A TUN device is a virtual point-to-point IP link (paper §2.2): the kernel
// routes every app's IP datagrams into it, and whatever the VPN app writes
// back is injected into the kernel as if received from a network. This model
// keeps the fd semantics that drive the paper's §3.1 problem: reads either
// block until a packet arrives or return "no packet" immediately (forcing
// user-space polling), and there is exactly one shared fd for all writers.
#ifndef MOPEYE_ANDROID_TUN_DEVICE_H_
#define MOPEYE_ANDROID_TUN_DEVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "netpkt/packet_buf.h"
#include "sim/event_loop.h"
#include "util/time.h"

namespace mopdroid {

using moputil::SimDuration;
using moputil::SimTime;

class TunDevice {
 public:
  explicit TunDevice(mopsim::EventLoop* loop);

  // ---- App/kernel side ----
  // The kernel routes an app datagram into the tunnel (tun fd becomes
  // readable for the VPN app). The pooled overload is the zero-copy path;
  // the vector overload copies into a pooled slab at the boundary.
  void InjectOutgoing(moppkt::PacketBuf datagram);
  void InjectOutgoing(std::vector<uint8_t> datagram);
  // Fired at the exact instant a datagram is injected; the VPN app's reader
  // uses this to model blocking-read wakeups.
  std::function<void()> on_outgoing_ready;
  // Datagrams the VPN app wrote back are handed to the kernel, which
  // delivers them to the owning app's socket. The receiver owns the pooled
  // buffer; views into it die when the buffer does.
  std::function<void(moppkt::PacketBuf datagram)> on_deliver_to_apps;

  // ---- VPN app side ----
  struct OutPacket {
    SimTime injected_at = 0;
    moppkt::PacketBuf data;
  };
  // Non-destructive check.
  bool HasOutgoing() const { return !outgoing_.empty(); }
  size_t OutgoingDepth() const { return outgoing_.size(); }
  // Pops one datagram (the read() syscall's data part; the caller pays the
  // syscall cost in its own lane).
  std::optional<OutPacket> ReadOutgoing();
  // Pops up to `max` datagrams into `out` (appending) — the data part of a
  // readv/recvmmsg-style gathered read. Returns the number popped; the
  // caller pays one amortized syscall cost for the whole burst in its own
  // lane. Buffers stay pooled end to end, exactly like ReadOutgoing.
  size_t ReadOutgoingBurst(size_t max, std::vector<OutPacket>* out);
  // Writes one datagram toward the apps; delivery is immediate (in-kernel
  // handoff of the pooled buffer). The caller pays the write() cost in its
  // own lane.
  void WriteIncoming(moppkt::PacketBuf datagram);
  void WriteIncoming(std::vector<uint8_t> datagram);

  // fd teardown (VPN revoked / service stopped).
  void Close();
  bool closed() const { return closed_; }

  // ---- Stats (Table 4 accounting) ----
  uint64_t packets_out() const { return packets_out_; }   // app -> VPN app
  uint64_t packets_in() const { return packets_in_; }     // VPN app -> app
  uint64_t bytes_out() const { return bytes_out_; }
  uint64_t bytes_in() const { return bytes_in_; }
  size_t outgoing_high_water() const { return outgoing_high_water_; }

 private:
  mopsim::EventLoop* loop_;
  std::deque<OutPacket> outgoing_;
  bool closed_ = false;
  uint64_t packets_out_ = 0;
  uint64_t packets_in_ = 0;
  uint64_t bytes_out_ = 0;
  uint64_t bytes_in_ = 0;
  // android sits below telemetry in the layering DAG; the engine exports
  // this peak via AddExternalGauge.
  size_t outgoing_high_water_ = 0;  // moplint-allow: raw-counter
};

}  // namespace mopdroid

#endif  // MOPEYE_ANDROID_TUN_DEVICE_H_
