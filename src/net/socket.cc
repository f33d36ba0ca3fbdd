#include "net/socket.h"

#include <algorithm>

#include "net/selector.h"
#include "util/logging.h"

namespace mopnet {

const char* ChannelStateName(ChannelState s) {
  switch (s) {
    case ChannelState::kCreated:
      return "created";
    case ChannelState::kConnecting:
      return "connecting";
    case ChannelState::kConnected:
      return "connected";
    case ChannelState::kPeerClosed:
      return "peer-closed";
    case ChannelState::kLocalClosed:
      return "local-closed";
    case ChannelState::kClosed:
      return "closed";
    case ChannelState::kFailed:
      return "failed";
  }
  return "?";
}

const char* SocketEventTypeName(SocketEventType t) {
  switch (t) {
    case SocketEventType::kConnected:
      return "connected";
    case SocketEventType::kConnectFailed:
      return "connect-failed";
    case SocketEventType::kReadable:
      return "readable";
    case SocketEventType::kWritable:
      return "writable";
    case SocketEventType::kPeerClosed:
      return "peer-closed";
    case SocketEventType::kReset:
      return "reset";
  }
  return "?";
}

namespace {
constexpr size_t kMss = 1460;

std::vector<uint8_t> PatternBytes(size_t n) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(i & 0xff);
  }
  return v;
}
}  // namespace

// ---------------- ServerConn ----------------

ServerConn::ServerConn(std::weak_ptr<SocketChannel> client, NetContext* ctx,
                       moppkt::SocketAddr server_addr, moputil::SimDuration one_way)
    : client_(std::move(client)), ctx_(ctx), server_addr_(server_addr), one_way_(one_way) {}

mopsim::EventLoop* ServerConn::loop() { return ctx_->loop(); }

void ServerConn::Send(std::vector<uint8_t> data) {
  if (closed_) {
    return;
  }
  auto client = client_.lock();
  if (!client) {
    return;
  }
  moputil::SimTime now = ctx_->loop()->Now();
  size_t offset = 0;
  while (offset < data.size()) {
    size_t chunk = std::min(kMss, data.size() - offset);
    std::vector<uint8_t> piece(data.begin() + static_cast<long>(offset),
                               data.begin() + static_cast<long>(offset + chunk));
    moputil::SimTime arrival = ctx_->downlink().DeliverAfter(now + one_way_, chunk);
    arrival = std::max(arrival, client->last_client_delivery_);
    client->last_client_delivery_ = arrival;
    std::weak_ptr<SocketChannel> weak = client_;
    ctx_->loop()->ScheduleAt(arrival, [weak, piece = std::move(piece)]() mutable {
      if (auto ch = weak.lock()) {
        ch->DeliverFromServer(std::move(piece));
      }
    });
    offset += chunk;
  }
}

void ServerConn::SendBytes(size_t n) { Send(PatternBytes(n)); }

void ServerConn::Close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  auto client = client_.lock();
  if (!client) {
    return;
  }
  moputil::SimTime now = ctx_->loop()->Now();
  moputil::SimTime arrival = std::max(now + one_way_, client->last_client_delivery_ + 1);
  client->last_client_delivery_ = arrival;
  std::weak_ptr<SocketChannel> weak = client_;
  ctx_->loop()->ScheduleAt(arrival, [weak] {
    if (auto ch = weak.lock()) {
      ch->ServerClosed();
    }
  });
}

void ServerConn::Reset() {
  if (closed_) {
    return;
  }
  closed_ = true;
  auto client = client_.lock();
  if (!client) {
    return;
  }
  moputil::SimTime arrival = ctx_->loop()->Now() + one_way_;
  std::weak_ptr<SocketChannel> weak = client_;
  ctx_->loop()->ScheduleAt(arrival, [weak] {
    if (auto ch = weak.lock()) {
      ch->ServerReset();
    }
  });
}

// ---------------- SocketChannel ----------------

std::shared_ptr<SocketChannel> SocketChannel::Create(NetContext* ctx) {
  return std::shared_ptr<SocketChannel>(new SocketChannel(ctx));
}

SocketChannel::SocketChannel(NetContext* ctx) : ctx_(ctx) { MOP_CHECK(ctx != nullptr); }

SocketChannel::~SocketChannel() {
  if (server_conn_ && server_conn_->behavior() != nullptr) {
    server_conn_->behavior()->OnClosed(*server_conn_);
  }
}

void SocketChannel::Connect(const moppkt::SocketAddr& remote,
                            std::function<void(moputil::Status)> cb) {
  MOP_CHECK(state_ == ChannelState::kCreated) << "connect on " << ChannelStateName(state_);
  remote_ = remote;
  local_ = moppkt::SocketAddr{ctx_->external_ip(), ctx_->AllocateEphemeralPort()};
  connect_cb_ = std::move(cb);
  if (!ctx_->MayBypassTunnel(*this)) {
    // Unprotected socket under an active VPN: the SYN would be routed back
    // into the tunnel, forming the data loop §3.5.2 warns about.
    ctx_->NoteLoopViolation();
    FailConnect(moputil::FailedPrecondition("socket not protected: VPN data loop"));
    return;
  }
  state_ = ChannelState::kConnecting;
  AttemptSyn(1);
}

void SocketChannel::AttemptSyn(int attempt) {
  if (state_ != ChannelState::kConnecting) {
    return;
  }
  moputil::SimTime now = ctx_->loop()->Now();
  if (attempt == 1) {
    syn_sent_time_ = now;
  } else {
    ++syn_retransmits_;
  }
  ctx_->capture().Record(now, CaptureEvent::kTcpSyn, CaptureDir::kOut, local_, remote_);
  std::weak_ptr<SocketChannel> weak = weak_from_this();
  if (ctx_->SampleLoss(remote_.ip)) {
    if (attempt >= kMaxSynAttempts) {
      ctx_->loop()->Schedule(kSynRetryBase, [weak] {
        if (auto ch = weak.lock()) {
          ch->FailConnect(moputil::Unavailable("connect timed out"));
        }
      });
      return;
    }
    ctx_->loop()->Schedule(kSynRetryBase << (attempt - 1), [weak, attempt] {
      if (auto ch = weak.lock()) {
        ch->AttemptSyn(attempt + 1);
      }
    });
    return;
  }
  moputil::SimDuration syn_ow = ctx_->SampleOneWay(remote_.ip);
  ctx_->loop()->Schedule(syn_ow, [weak, syn_ow] {
    if (auto ch = weak.lock()) {
      ch->HandleSynAtServer(syn_ow);
    }
  });
}

void SocketChannel::HandleSynAtServer(moputil::SimDuration syn_ow) {
  if (state_ != ChannelState::kConnecting) {
    return;
  }
  const ServerFarm::TcpEntry* entry = ctx_->farm()->FindTcp(remote_);
  std::weak_ptr<SocketChannel> weak = weak_from_this();
  if (entry == nullptr) {
    // RST from the network: connection refused.
    moputil::SimDuration rst_ow = ctx_->SampleOneWay(remote_.ip);
    ctx_->loop()->Schedule(rst_ow, [weak] {
      if (auto ch = weak.lock()) {
        ch->ctx_->capture().Record(ch->ctx_->loop()->Now(), CaptureEvent::kTcpRst,
                                   CaptureDir::kIn, ch->local_, ch->remote_);
        ch->FailConnect(moputil::Unavailable("connection refused"));
      }
    });
    return;
  }
  moputil::SimDuration accept_delay =
      entry->accept_delay ? entry->accept_delay->Sample(ctx_->rng()) : 0;
  // The server conn exists from accept time so behaviors can push data
  // immediately (BulkSource).
  moputil::SimDuration synack_ow = ctx_->SampleOneWay(remote_.ip);
  data_one_way_ = (syn_ow + synack_ow) / 2;
  server_conn_ = std::make_shared<ServerConn>(weak_from_this(), ctx_, remote_, data_one_way_);
  server_conn_->set_behavior(entry->factory());
  auto conn = server_conn_;
  ctx_->loop()->Schedule(accept_delay, [weak, conn, synack_ow] {
    auto ch = weak.lock();
    if (!ch || ch->state_ != ChannelState::kConnecting) {
      return;
    }
    conn->behavior()->OnConnect(*conn);
    ch->ctx_->loop()->Schedule(synack_ow, [weak, synack_ow] {
      if (auto ch2 = weak.lock()) {
        ch2->CompleteConnect(synack_ow);
      }
    });
  });
}

void SocketChannel::CompleteConnect(moputil::SimDuration synack_ow) {
  (void)synack_ow;
  if (state_ != ChannelState::kConnecting) {
    return;
  }
  synack_recv_time_ = ctx_->loop()->Now();
  ctx_->capture().Record(synack_recv_time_, CaptureEvent::kTcpSynAck, CaptureDir::kIn, local_,
                         remote_);
  state_ = ChannelState::kConnected;
  if (connect_cb_) {
    auto cb = std::move(connect_cb_);
    connect_cb_ = nullptr;
    cb(moputil::OkStatus());
  }
  if (selector_ != nullptr && (interest_ & kOpConnect)) {
    EmitEvent(SocketEventType::kConnected);
  }
}

void SocketChannel::FailConnect(moputil::Status status) {
  if (state_ == ChannelState::kFailed) {
    return;
  }
  state_ = ChannelState::kFailed;
  if (connect_cb_) {
    auto cb = std::move(connect_cb_);
    connect_cb_ = nullptr;
    cb(status);
  }
  if (selector_ != nullptr && (interest_ & kOpConnect)) {
    EmitEvent(SocketEventType::kConnectFailed);
  }
}

void SocketChannel::Write(std::vector<uint8_t> data) {
  MOP_CHECK(state_ == ChannelState::kConnected || state_ == ChannelState::kPeerClosed)
      << "write on " << ChannelStateName(state_);
  if (data.empty() || !server_conn_) {
    return;
  }
  bytes_sent_ += data.size();
  moputil::SimTime now = ctx_->loop()->Now();
  ctx_->capture().Record(now, CaptureEvent::kTcpData, CaptureDir::kOut, local_, remote_,
                         data.size());
  size_t offset = 0;
  auto conn = server_conn_;
  while (offset < data.size()) {
    size_t chunk = std::min(kMss, data.size() - offset);
    std::vector<uint8_t> piece(data.begin() + static_cast<long>(offset),
                               data.begin() + static_cast<long>(offset + chunk));
    moputil::SimTime departed = ctx_->uplink().DeliverAfter(now, chunk);
    moputil::SimTime arrival = departed + data_one_way_;
    last_server_delivery_ = arrival;
    ctx_->loop()->ScheduleAt(arrival, [conn, piece = std::move(piece)]() mutable {
      if (!conn->client_alive() || conn->behavior() == nullptr) {
        return;
      }
      conn->add_bytes_received(piece.size());
      conn->behavior()->OnData(*conn, piece);
    });
    offset += chunk;
  }
}

size_t SocketChannel::Read(std::span<uint8_t> out) {
  size_t n = std::min(out.size(), recv_buf_.size());
  for (size_t i = 0; i < n; ++i) {
    out[i] = recv_buf_.front();
    recv_buf_.pop_front();
  }
  return n;
}

void SocketChannel::Close() {
  if (state_ == ChannelState::kClosed || state_ == ChannelState::kFailed) {
    return;
  }
  moputil::SimTime now = ctx_->loop()->Now();
  ctx_->capture().Record(now, CaptureEvent::kTcpFin, CaptureDir::kOut, local_, remote_);
  if (server_conn_) {
    auto conn = server_conn_;
    moputil::SimTime arrival = std::max(now + data_one_way_, last_server_delivery_ + 1);
    ctx_->loop()->ScheduleAt(arrival, [conn] {
      if (conn->behavior() != nullptr) {
        conn->behavior()->OnHalfClose(*conn);
      }
    });
  }
  state_ = state_ == ChannelState::kPeerClosed ? ChannelState::kClosed
                                               : ChannelState::kLocalClosed;
}

void SocketChannel::Reset() {
  if (state_ == ChannelState::kClosed || state_ == ChannelState::kFailed) {
    return;
  }
  moputil::SimTime now = ctx_->loop()->Now();
  ctx_->capture().Record(now, CaptureEvent::kTcpRst, CaptureDir::kOut, local_, remote_);
  if (server_conn_) {
    auto conn = server_conn_;
    ctx_->loop()->Schedule(data_one_way_, [conn] {
      if (conn->behavior() != nullptr) {
        conn->behavior()->OnClosed(*conn);
      }
    });
    server_conn_.reset();
  }
  state_ = ChannelState::kClosed;
}

void SocketChannel::RegisterWith(Selector* selector, uint32_t interest) {
  MOP_CHECK(selector != nullptr);
  // Wakeup ownership is per-lane in the sharded engine: a channel belongs to
  // the selector of its flow's owning worker lane for its whole life.
  // Re-registering with a different selector would let two lanes observe one
  // flow's events — exactly the shared state the lane model forbids.
  MOP_CHECK(selector_ == nullptr || selector_ == selector)
      << "channel re-registered with a different selector (cross-lane migration)";
  selector_ = selector;
  interest_ = interest;
  selector->AddChannel(shared_from_this());
  // Level-trigger semantics on registration: data that arrived before the
  // register() call must still produce a read event.
  if ((interest_ & kOpRead) && !recv_buf_.empty()) {
    EmitEvent(SocketEventType::kReadable);
  }
}

void SocketChannel::SetInterest(uint32_t interest) { interest_ = interest; }

void SocketChannel::MigrateTo(Selector* selector) {
  MOP_CHECK(selector != nullptr);
  if (selector_ == selector) {
    return;
  }
  std::vector<PendingEvent> in_flight;
  if (selector_ != nullptr) {
    in_flight = selector_->ExtractPending(this);
  }
  selector_ = selector;
  selector->AddChannel(shared_from_this());
  for (const PendingEvent& p : in_flight) {
    selector->Enqueue(shared_from_this(), p.type);
  }
  // Level-trigger safety net: a readable edge consumed at the old selector
  // but not yet acted on must not strand buffered data.
  if (in_flight.empty() && (interest_ & kOpRead) && !recv_buf_.empty()) {
    EmitEvent(SocketEventType::kReadable);
  }
}

void SocketChannel::Deregister() {
  if (selector_ != nullptr) {
    selector_->RemoveChannel(this);
    selector_ = nullptr;
  }
}

void SocketChannel::EmitEvent(SocketEventType type) {
  if (selector_ != nullptr) {
    selector_->Enqueue(shared_from_this(), type);
  }
}

void SocketChannel::DeliverFromServer(std::vector<uint8_t> bytes) {
  if (state_ != ChannelState::kConnected && state_ != ChannelState::kLocalClosed) {
    return;
  }
  moputil::SimTime now = ctx_->loop()->Now();
  ctx_->capture().Record(now, CaptureEvent::kTcpData, CaptureDir::kIn, local_, remote_,
                         bytes.size());
  bytes_received_ += bytes.size();
  recv_buf_.insert(recv_buf_.end(), bytes.begin(), bytes.end());
  if (selector_ != nullptr) {
    if (interest_ & kOpRead) {
      EmitEvent(SocketEventType::kReadable);
    }
  } else if (on_readable) {
    on_readable();
  }
}

void SocketChannel::ServerClosed() {
  if (state_ == ChannelState::kClosed || state_ == ChannelState::kFailed) {
    return;
  }
  moputil::SimTime now = ctx_->loop()->Now();
  ctx_->capture().Record(now, CaptureEvent::kTcpFin, CaptureDir::kIn, local_, remote_);
  state_ = state_ == ChannelState::kLocalClosed ? ChannelState::kClosed
                                                : ChannelState::kPeerClosed;
  if (selector_ != nullptr) {
    EmitEvent(SocketEventType::kPeerClosed);
  } else if (on_peer_close) {
    on_peer_close();
  }
}

void SocketChannel::ServerReset() {
  if (state_ == ChannelState::kClosed || state_ == ChannelState::kFailed) {
    return;
  }
  moputil::SimTime now = ctx_->loop()->Now();
  ctx_->capture().Record(now, CaptureEvent::kTcpRst, CaptureDir::kIn, local_, remote_);
  state_ = ChannelState::kClosed;
  server_conn_.reset();
  if (selector_ != nullptr) {
    EmitEvent(SocketEventType::kReset);
  } else if (on_reset) {
    on_reset();
  }
}

// ---------------- UdpSocket ----------------

std::shared_ptr<UdpSocket> UdpSocket::Create(NetContext* ctx) {
  return std::shared_ptr<UdpSocket>(new UdpSocket(ctx));
}

UdpSocket::UdpSocket(NetContext* ctx) : ctx_(ctx) {
  local_ = moppkt::SocketAddr{ctx->external_ip(), ctx->AllocateEphemeralPort()};
}

void UdpSocket::SendTo(const moppkt::SocketAddr& dst, std::vector<uint8_t> payload) {
  if (closed_) {
    return;
  }
  moputil::SimTime now = ctx_->loop()->Now();
  last_send_time_ = now;
  ctx_->capture().Record(now, CaptureEvent::kUdpQuery, CaptureDir::kOut, local_, dst,
                         payload.size());
  moputil::SimDuration ow = ctx_->SampleOneWay(dst.ip);
  if (ctx_->SampleLoss(dst.ip)) {
    return;  // lost; DNS client retries at a higher layer if it cares
  }
  moputil::SimTime departed = ctx_->uplink().DeliverAfter(now, payload.size());
  std::weak_ptr<UdpSocket> weak = weak_from_this();
  NetContext* ctx = ctx_;
  moppkt::SocketAddr local = local_;
  ctx_->loop()->ScheduleAt(departed + ow, [weak, ctx, local, dst,
                                           payload = std::move(payload)]() mutable {
    const UdpHandler* handler = ctx->farm()->FindUdp(dst);
    if (handler == nullptr) {
      return;  // ICMP unreachable in real life; silence is fine for DNS
    }
    UdpReplyFn reply = [weak, ctx, dst, local](std::vector<uint8_t> response,
                                               moputil::SimDuration think) {
      ctx->loop()->Schedule(think, [weak, ctx, dst, local, response = std::move(response)]() mutable {
        moputil::SimDuration back_ow = ctx->SampleOneWay(dst.ip);
        moputil::SimTime arrival =
            ctx->downlink().DeliverAfter(ctx->loop()->Now() + back_ow, response.size());
        ctx->loop()->ScheduleAt(arrival, [weak, ctx, dst, local,
                                          response = std::move(response)]() mutable {
          auto sock = weak.lock();
          if (!sock || sock->closed_) {
            return;
          }
          ctx->capture().Record(ctx->loop()->Now(), CaptureEvent::kUdpResponse, CaptureDir::kIn,
                                local, dst, response.size());
          if (sock->on_datagram) {
            sock->on_datagram(dst, std::move(response));
          }
        });
      });
    };
    (*handler)(local, payload, reply);
  });
}

// ---------------- Stock behaviors ----------------

void EchoBehavior::OnData(ServerConn& conn, std::span<const uint8_t> data) {
  conn.Send(std::vector<uint8_t>(data.begin(), data.end()));
}

HttpLikeBehavior::HttpLikeBehavior(size_t request_size, size_t response_size,
                                   moputil::SimDuration think, bool close_after)
    : request_size_(request_size),
      response_size_(response_size),
      think_(think),
      close_after_(close_after) {}

void HttpLikeBehavior::OnData(ServerConn& conn, std::span<const uint8_t> data) {
  received_ += data.size();
  if (received_ < request_size_) {
    return;
  }
  received_ = 0;
  size_t response = response_size_;
  bool close_after = close_after_;
  if (think_ <= 0) {
    conn.SendBytes(response);
    if (close_after) {
      conn.Close();
    }
    return;
  }
  auto conn_ref = conn.shared_from_this();
  conn.loop()->Schedule(think_, [conn_ref, response, close_after] {
    if (!conn_ref->client_alive()) {
      return;
    }
    conn_ref->SendBytes(response);
    if (close_after) {
      conn_ref->Close();
    }
  });
}

void BulkSourceBehavior::OnConnect(ServerConn& conn) { conn.SendBytes(total_bytes_); }

void SizeEncodedBehavior::OnData(ServerConn& conn, std::span<const uint8_t> data) {
  constexpr uint64_t kMaxResponse = 64ull * 1024 * 1024;
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  while (buffer_.size() >= request_size_) {
    uint64_t size = 0;
    for (int i = 0; i < 8; ++i) {
      size = (size << 8) | buffer_[static_cast<size_t>(i)];
    }
    // Malformed/garbage requests must not allocate the universe.
    size = std::min(size, kMaxResponse);
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(request_size_));
    auto conn_ref = conn.shared_from_this();
    if (think_ <= 0) {
      conn.SendBytes(size);
    } else {
      conn.loop()->Schedule(think_, [conn_ref, size] {
        if (conn_ref->client_alive()) {
          conn_ref->SendBytes(size);
        }
      });
    }
  }
}

std::vector<uint8_t> EncodeSizedRequest(uint64_t response_bytes, size_t request_size) {
  if (request_size < 8) {
    request_size = 8;
  }
  std::vector<uint8_t> req(request_size, 0);
  for (int i = 0; i < 8; ++i) {
    req[static_cast<size_t>(i)] = static_cast<uint8_t>(response_bytes >> (56 - 8 * i));
  }
  return req;
}

void CloseAfterBehavior::OnConnect(ServerConn& conn) {
  auto conn_ref = conn.shared_from_this();
  conn.loop()->Schedule(delay_, [conn_ref] {
    if (conn_ref->client_alive()) {
      conn_ref->Close();
    }
  });
}

}  // namespace mopnet
