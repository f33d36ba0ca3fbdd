// Kernel-socket stand-ins for MopEye's *external* connections.
//
// SocketChannel mirrors the slice of java.nio.SocketChannel the paper uses:
// connect (run in blocking mode on a socket-connect thread, §2.4),
// non-blocking read/write with a Selector (§2.3 "Processing socket packets"),
// close/reset. Event callbacks fire at exact wire times; all software-side
// latencies (thread wakeup, selector dispatch, parse cost) are added by the
// engine's ActorLanes, so the capture log doubles as tcpdump ground truth.
//
// Bytes cross the simulated kernel without per-byte work. A sender wraps its
// payload once in an immutable shared buffer, and every MSS piece in flight
// is a ByteSlice of it, not a copy. The receive buffer is a queue of those
// slices plus a byte count; Read() memcpys slice by slice. Pattern payloads
// (ServerConn::SendBytes) all view one process-wide buffer of kMss + 256
// bytes holding i & 0xff at index i: the piece at stream offset o starts at
// o & 0xff, so it carries exactly the bytes o, o+1, ... (mod 256).
//
// Each wire direction of a connection is one mopsim::EventStream of pieces
// (a null-buffer piece is the FIN). Client-bound pieces and the server's FIN
// arrive at times forced monotone by last_client_delivery_; server-bound
// pieces arrive at departure from the shared FIFO uplink plus the fixed
// data_one_way_, and the half-close is pushed after the last of them. Both
// streams thus push non-decreasing times, so they run at the same instants
// and in the same order as one scheduled event per piece did. Resets,
// handshake steps and timers stay plain events.
#ifndef MOPEYE_NET_SOCKET_H_
#define MOPEYE_NET_SOCKET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/net_context.h"
#include "net/server.h"
#include "netpkt/ip.h"
#include "sim/event_loop.h"
#include "util/status.h"

namespace mopnet {

class Selector;

// A view of `len` bytes at `offset` into a shared immutable buffer; holding
// the slice keeps the buffer alive.
struct ByteSlice {
  std::shared_ptr<const std::vector<uint8_t>> buf;
  size_t offset = 0;
  size_t len = 0;

  std::span<const uint8_t> bytes() const { return {buf->data() + offset, len}; }
};

enum class ChannelState {
  kCreated,
  kConnecting,
  kConnected,
  kPeerClosed,   // remote FIN seen, local still open
  kLocalClosed,  // local FIN sent, remote still open
  kClosed,
  kFailed,
};

const char* ChannelStateName(ChannelState s);

// Selector interest ops (java.nio style).
enum SocketInterest : uint32_t {
  kOpRead = 1u << 0,
  kOpWrite = 1u << 1,
  kOpConnect = 1u << 2,
};

enum class SocketEventType {
  kConnected,
  kConnectFailed,
  kReadable,
  kWritable,
  kPeerClosed,
  kReset,
};

const char* SocketEventTypeName(SocketEventType t);

class SocketChannel : public std::enable_shared_from_this<SocketChannel> {
 public:
  // Channels are shared_ptr-managed: in-flight wire events hold weak refs and
  // become no-ops if the channel is destroyed first.
  static std::shared_ptr<SocketChannel> Create(NetContext* ctx);
  ~SocketChannel();

  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  // VpnService.protect() marks the socket as tunnel-bypassing (§3.5.2).
  void set_protected_socket(bool p) { protected_ = p; }
  bool protected_socket() const { return protected_; }
  // Uid of the app owning this socket (for /proc/net and the disallowed-app
  // protection check).
  void set_owner_uid(int uid) { owner_uid_ = uid; }
  int owner_uid() const { return owner_uid_; }

  // Starts the handshake. `cb` fires at the exact SYN/ACK (or failure)
  // instant; the caller models its own thread-wakeup latency on top.
  void Connect(const moppkt::SocketAddr& remote, std::function<void(moputil::Status)> cb);

  // Queues `data` toward the server. Never blocks (kernel buffer semantics).
  void Write(std::vector<uint8_t> data);

  // Reads up to out.size() bytes from the receive buffer.
  size_t Read(std::span<uint8_t> out);
  size_t available() const { return recv_bytes_; }

  // Graceful close: FIN toward the server; half-close only ships pending data.
  void Close();
  // Abortive close: RST.
  void Reset();

  // Selector integration. Register/deregister mirror java.nio; the register()
  // *cost* is paid by the engine (paper §3.4 notes it can be expensive).
  void RegisterWith(Selector* selector, uint32_t interest);
  void SetInterest(uint32_t interest);
  void Deregister();
  // The one sanctioned way a channel changes selectors: the work-stealing
  // re-homing. Extracts any events still queued at the old selector and
  // re-enqueues them (in order) at the new one, so nothing in flight is
  // lost. Interest ops carry over. A never-registered channel just registers.
  void MigrateTo(Selector* selector);

  // Direct callbacks used while not registered with a selector.
  std::function<void()> on_readable;
  std::function<void()> on_peer_close;
  std::function<void()> on_reset;

  ChannelState state() const { return state_; }
  const moppkt::SocketAddr& local() const { return local_; }
  const moppkt::SocketAddr& remote() const { return remote_; }
  NetContext* context() { return ctx_; }
  // SYN / SYN-ACK wire times of the successful handshake attempt.
  moputil::SimTime syn_sent_time() const { return syn_sent_time_; }
  moputil::SimTime synack_recv_time() const { return synack_recv_time_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

  // Number of SYN retransmissions before the handshake resolved.
  int syn_retransmits() const { return syn_retransmits_; }

 private:
  friend class ServerConn;
  explicit SocketChannel(NetContext* ctx);

  void AttemptSyn(int attempt);
  void HandleSynAtServer(moputil::SimDuration syn_ow);
  void CompleteConnect(moputil::SimDuration synack_ow);
  void FailConnect(moputil::Status status);
  void EmitEvent(SocketEventType type);

  // Server-side plumbing (called by ServerConn at wire-arrival times).
  void DeliverFromServer(ByteSlice piece);
  void ServerClosed();
  void ServerReset();
  // The channel's side of the connection ended (reset either way).
  void DropServerConn();

  // Wire-arrival sinks of the two streams.
  struct ToClient {
    using Item = ByteSlice;
    std::weak_ptr<SocketChannel> channel;
    void operator()(ByteSlice& piece) const;
  };
  struct ToServer {
    using Item = ByteSlice;
    // Set at accept. Queued pieces keep the conn alive: once the channel
    // lets go of it, the last `release_after` pieces still reach it.
    std::shared_ptr<ServerConn> conn;
    size_t release_after = 0;
    void operator()(ByteSlice& piece);
  };

  NetContext* ctx_;
  ChannelState state_ = ChannelState::kCreated;
  moppkt::SocketAddr local_;
  moppkt::SocketAddr remote_;
  bool protected_ = false;
  int owner_uid_ = -1;

  std::function<void(moputil::Status)> connect_cb_;
  moputil::SimTime syn_sent_time_ = 0;
  moputil::SimTime synack_recv_time_ = 0;
  int syn_retransmits_ = 0;

  std::deque<ByteSlice> recv_buf_;  // unread pieces, oldest first
  size_t recv_bytes_ = 0;           // sum of recv_buf_ lengths
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;

  // Fixed per-connection one-way delay used for the data phase.
  moputil::SimDuration data_one_way_ = 0;
  // Order guard for client-bound deliveries.
  moputil::SimTime last_client_delivery_ = 0;
  // Arrival of the last data piece written toward the server: a FIN sent by
  // Close() must not overtake bytes still serializing on the uplink.
  moputil::SimTime last_server_delivery_ = 0;

  std::shared_ptr<ServerConn> server_conn_;
  mopsim::EventStream<ToClient> downlink_;
  mopsim::EventStream<ToServer> uplink_;

  Selector* selector_ = nullptr;
  uint32_t interest_ = 0;

  static constexpr int kMaxSynAttempts = 3;
  static constexpr moputil::SimDuration kSynRetryBase = moputil::kSecond;
};

// Connectionless socket for the DNS relay (paper §2.2: UDP is relayed, DNS is
// measured).
class UdpSocket : public std::enable_shared_from_this<UdpSocket> {
 public:
  static std::shared_ptr<UdpSocket> Create(NetContext* ctx);

  void set_owner_uid(int uid) { owner_uid_ = uid; }
  int owner_uid() const { return owner_uid_; }
  void set_protected_socket(bool p) { protected_ = p; }
  bool protected_socket() const { return protected_; }

  // Sends one datagram; any response is delivered to on_datagram at its
  // exact arrival time.
  void SendTo(const moppkt::SocketAddr& dst, std::vector<uint8_t> payload);
  void Close() { closed_ = true; }

  std::function<void(const moppkt::SocketAddr& from, std::vector<uint8_t> payload)> on_datagram;

  const moppkt::SocketAddr& local() const { return local_; }
  moputil::SimTime last_send_time() const { return last_send_time_; }

 private:
  explicit UdpSocket(NetContext* ctx);

  NetContext* ctx_;
  moppkt::SocketAddr local_;
  int owner_uid_ = -1;
  bool protected_ = false;
  bool closed_ = false;
  moputil::SimTime last_send_time_ = 0;
};

}  // namespace mopnet

#endif  // MOPEYE_NET_SOCKET_H_
