#include <gtest/gtest.h>

#include "net/capture.h"
#include "net/conn_table.h"
#include "net/dns_server.h"
#include "net/link.h"
#include "net/net_context.h"
#include "net/selector.h"
#include "net/server.h"
#include "net/socket.h"
#include "netpkt/dns.h"
#include "sim/event_loop.h"

namespace {

using moppkt::IpAddr;
using moppkt::SocketAddr;
using moputil::Millis;
using moputil::Seconds;

struct NetFixture {
  mopsim::EventLoop loop;
  mopnet::PathTable paths;
  mopnet::ServerFarm farm;
  mopnet::NetContext ctx;

  NetFixture()
      : ctx(&loop, MakeProfile(), &paths, &farm, moputil::Rng(7)) {
    paths.SetDefault(std::make_shared<moputil::FixedDelay>(Millis(10)));
  }

  static mopnet::NetworkProfile MakeProfile() {
    mopnet::NetworkProfile p;
    p.first_hop_one_way = std::make_shared<moputil::FixedDelay>(Millis(1));
    return p;
  }
};

TEST(Link, SerializationDelay) {
  mopsim::EventLoop loop;
  mopnet::Link link(&loop, 8e6);  // 1 byte/us
  // 1000 bytes at 8 Mbps = 1 ms.
  EXPECT_EQ(link.DeliverAfter(0, 1000), Millis(1));
  // Second transmission queues behind the first.
  EXPECT_EQ(link.DeliverAfter(0, 1000), Millis(2));
  EXPECT_EQ(link.bytes_carried(), 2000u);
  EXPECT_EQ(link.busy_time(), Millis(2));
}

TEST(Link, InfiniteRateIsImmediate) {
  mopsim::EventLoop loop;
  mopnet::Link link(&loop, 0);
  EXPECT_EQ(link.DeliverAfter(Millis(5), 100000), Millis(5));
}

TEST(Link, EarliestRespected) {
  mopsim::EventLoop loop;
  mopnet::Link link(&loop, 8e6);
  EXPECT_EQ(link.DeliverAfter(Millis(10), 1000), Millis(11));
}

TEST(SocketChannel, ConnectMeasuresWireRtt) {
  NetFixture f;
  f.farm.AddTcpServer({IpAddr(93, 0, 0, 1), 80},
                      [] { return std::make_unique<mopnet::SizeEncodedBehavior>(); });
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  bool ok = false;
  ch->Connect({IpAddr(93, 0, 0, 1), 80}, [&](moputil::Status st) { ok = st.ok(); });
  f.loop.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(ch->state(), mopnet::ChannelState::kConnected);
  // One-way 11ms -> RTT exactly 22ms.
  EXPECT_EQ(ch->synack_recv_time() - ch->syn_sent_time(), Millis(22));
}

TEST(SocketChannel, ConnectionRefusedWithoutServer) {
  NetFixture f;
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  moputil::Status status;
  ch->Connect({IpAddr(93, 0, 0, 9), 81}, [&](moputil::Status st) { status = st; });
  f.loop.Run();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ch->state(), mopnet::ChannelState::kFailed);
}

TEST(SocketChannel, SynLossRetransmits) {
  NetFixture f;
  IpAddr ip(93, 0, 0, 2);
  // 100% loss: all retries fail and the connect times out.
  f.paths.SetPath(ip, std::make_shared<moputil::FixedDelay>(Millis(5)), 1.0);
  f.farm.AddTcpServer({ip, 80}, [] { return std::make_unique<mopnet::EchoBehavior>(); });
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  moputil::Status status;
  ch->Connect({ip, 80}, [&](moputil::Status st) { status = st; });
  f.loop.Run();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ch->syn_retransmits(), 2);  // 3 attempts total
}

TEST(SocketChannel, EchoDataRoundTrip) {
  NetFixture f;
  IpAddr ip(93, 0, 0, 3);
  f.farm.AddTcpServer({ip, 7}, [] { return std::make_unique<mopnet::EchoBehavior>(); });
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  ch->Connect({ip, 7}, [&](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    ch->Write({1, 2, 3, 4, 5});
  });
  size_t got = 0;
  ch->on_readable = [&] {
    uint8_t buf[16];
    got += ch->Read(buf);
  };
  f.loop.Run();
  EXPECT_EQ(got, 5u);
  EXPECT_EQ(ch->bytes_sent(), 5u);
  EXPECT_EQ(ch->bytes_received(), 5u);
}

TEST(SocketChannel, SizeEncodedBehaviorHonorsRequest) {
  NetFixture f;
  IpAddr ip(93, 0, 0, 4);
  f.farm.AddTcpServer({ip, 80}, [] { return std::make_unique<mopnet::SizeEncodedBehavior>(); });
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  ch->Connect({ip, 80}, [&](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    ch->Write(mopnet::EncodeSizedRequest(10000));
  });
  size_t got = 0;
  ch->on_readable = [&] {
    uint8_t buf[4096];
    size_t n;
    while ((n = ch->Read(buf)) > 0) {
      got += n;
    }
  };
  f.loop.Run();
  EXPECT_EQ(got, 10000u);
}

TEST(SocketChannel, ServerCloseDeliversEof) {
  NetFixture f;
  IpAddr ip(93, 0, 0, 5);
  f.farm.AddTcpServer({ip, 80},
                      [] { return std::make_unique<mopnet::CloseAfterBehavior>(Millis(5)); });
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  bool eof = false;
  ch->on_peer_close = [&] { eof = true; };
  ch->Connect({ip, 80}, [](moputil::Status) {});
  f.loop.Run();
  EXPECT_TRUE(eof);
  EXPECT_EQ(ch->state(), mopnet::ChannelState::kPeerClosed);
}

// A sink that records when each byte and the half-close reach the server.
class ArrivalLog : public mopnet::ServerBehavior {
 public:
  ArrivalLog(size_t* bytes, size_t* bytes_at_half_close)
      : bytes_(bytes), bytes_at_half_close_(bytes_at_half_close) {}
  void OnData(mopnet::ServerConn&, std::span<const uint8_t> data) override {
    *bytes_ += data.size();
  }
  void OnHalfClose(mopnet::ServerConn& conn) override {
    *bytes_at_half_close_ = *bytes_;
    conn.Close();
  }

 private:
  size_t* bytes_;
  size_t* bytes_at_half_close_;
};

TEST(SocketChannel, CloseDoesNotOvertakeQueuedUplinkData) {
  NetFixture f;  // 25 Mbps uplink: 100 kB takes 32 ms to serialize
  IpAddr ip(93, 0, 0, 6);
  size_t bytes = 0;
  size_t bytes_at_half_close = 0;
  f.farm.AddTcpServer({ip, 80}, [&] {
    return std::make_unique<ArrivalLog>(&bytes, &bytes_at_half_close);
  });
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  ch->Connect({ip, 80}, [&](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    ch->Write(std::vector<uint8_t>(100000, 0x5a));
    ch->Close();
  });
  f.loop.Run();
  EXPECT_EQ(bytes, 100000u);
  EXPECT_EQ(bytes_at_half_close, 100000u);
}

TEST(SocketChannel, ResetBehaviorDeliversReset) {
  NetFixture f;
  IpAddr ip(93, 0, 0, 6);
  f.farm.AddTcpServer({ip, 80}, [] { return std::make_unique<mopnet::ResetBehavior>(); });
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  bool reset = false;
  ch->on_reset = [&] { reset = true; };
  ch->Connect({ip, 80}, [](moputil::Status) {});
  f.loop.Run();
  EXPECT_TRUE(reset);
  EXPECT_EQ(ch->state(), mopnet::ChannelState::kClosed);
}

TEST(SocketChannel, VpnLoopGuardBlocksUnprotectedSockets) {
  NetFixture f;
  // VPN active: only protected sockets may bypass.
  f.ctx.set_protection_checker(
      [](const mopnet::SocketChannel& ch) { return ch.protected_socket(); });
  f.farm.AddTcpServer({IpAddr(93, 0, 0, 7), 80},
                      [] { return std::make_unique<mopnet::EchoBehavior>(); });
  auto unprotected = mopnet::SocketChannel::Create(&f.ctx);
  moputil::Status st1;
  unprotected->Connect({IpAddr(93, 0, 0, 7), 80}, [&](moputil::Status st) { st1 = st; });
  auto protected_ch = mopnet::SocketChannel::Create(&f.ctx);
  protected_ch->set_protected_socket(true);
  moputil::Status st2;
  protected_ch->Connect({IpAddr(93, 0, 0, 7), 80}, [&](moputil::Status st) { st2 = st; });
  f.loop.Run();
  EXPECT_FALSE(st1.ok());
  EXPECT_EQ(f.ctx.loop_violations(), 1);
  EXPECT_TRUE(st2.ok());
}

TEST(Selector, BatchesEventsIntoOneWakeup) {
  NetFixture f;
  mopnet::Selector selector(&f.loop);
  int wakeups = 0;
  std::vector<mopnet::ReadyEvent> drained;
  selector.on_wakeup = [&] {
    ++wakeups;
    auto events = selector.TakeReady();
    drained.insert(drained.end(), events.begin(), events.end());
  };
  selector.Wakeup();
  selector.Wakeup();
  selector.Wakeup();
  f.loop.Run();
  EXPECT_EQ(wakeups, 1);  // coalesced
  EXPECT_EQ(drained.size(), 3u);
}

TEST(Selector, ReadEventsDeliveredToRegisteredChannel) {
  NetFixture f;
  mopnet::Selector selector(&f.loop);
  IpAddr ip(93, 0, 0, 8);
  f.farm.AddTcpServer({ip, 7}, [] { return std::make_unique<mopnet::EchoBehavior>(); });
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  int readable_events = 0;
  selector.on_wakeup = [&] {
    for (auto& ev : selector.TakeReady()) {
      if (ev.channel && ev.type == mopnet::SocketEventType::kReadable) {
        ++readable_events;
        uint8_t buf[64];
        ev.channel->Read(buf);
      }
    }
  };
  ch->Connect({ip, 7}, [&](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    ch->RegisterWith(&selector, mopnet::kOpRead);
    ch->Write({9, 9, 9});
  });
  f.loop.Run();
  EXPECT_GE(readable_events, 1);
}

// Regression: events sitting undrained in the selector's ready queue must not
// extend a channel's lifetime. Before the weak-ref queue, this pinned every
// channel whose events were never drained (LeakSanitizer flagged apps_test).
TEST(SocketChannel, TeardownReleasesChannelWithUndrainedEvents) {
  NetFixture f;
  mopnet::Selector selector(&f.loop);
  IpAddr ip(93, 0, 0, 8);
  f.farm.AddTcpServer({ip, 7}, [] { return std::make_unique<mopnet::EchoBehavior>(); });
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  std::weak_ptr<mopnet::SocketChannel> weak = ch;
  // No on_wakeup handler: queued events are never drained.
  ch->RegisterWith(&selector, mopnet::kOpConnect | mopnet::kOpRead);
  ch->Connect({ip, 7}, [&](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    ch->Write({1, 2, 3});  // echoed back -> queues a readable event
  });
  f.loop.Run();
  ASSERT_GT(selector.pending(), 0u);
  ch->Close();
  ch.reset();    // drop the only external strong ref
  f.loop.Run();  // let in-flight wire events (weak refs) resolve
  EXPECT_TRUE(weak.expired());
  EXPECT_TRUE(selector.TakeReady().empty());  // dead-channel events dropped
}

// java.nio cancelled-key semantics: deregistering purges the channel's queued
// events so a closed connection cannot deliver stale readiness.
TEST(Selector, DeregisterPurgesQueuedEvents) {
  NetFixture f;
  mopnet::Selector selector(&f.loop);
  IpAddr ip(93, 0, 0, 10);
  f.farm.AddTcpServer({ip, 7}, [] { return std::make_unique<mopnet::EchoBehavior>(); });
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  ch->Connect({ip, 7}, [&](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    ch->RegisterWith(&selector, mopnet::kOpRead);
    ch->Write({9});
  });
  f.loop.Run();
  ASSERT_GT(selector.pending(), 0u);
  ch->Deregister();
  EXPECT_EQ(selector.pending(), 0u);
  EXPECT_TRUE(selector.TakeReady().empty());
}

TEST(DnsServer, ResolvesFromTable) {
  NetFixture f;
  f.farm.resolution().Add("www.test.example", IpAddr(93, 1, 1, 1));
  mopnet::DnsServer dns(&f.farm, {IpAddr(8, 8, 8, 8), 53},
                        std::make_shared<moputil::FixedDelay>(Millis(1)), moputil::Rng(3),
                        /*auto_assign=*/false);
  auto sock = mopnet::UdpSocket::Create(&f.ctx);
  moppkt::IpAddr answer;
  bool nx = false;
  sock->on_datagram = [&](const SocketAddr&, std::vector<uint8_t> payload) {
    auto msg = moppkt::DecodeDns(payload);
    ASSERT_TRUE(msg.ok());
    if (msg.value().rcode == moppkt::DnsRcode::kNxDomain) {
      nx = true;
    } else {
      answer = msg.value().answers[0].address;
    }
  };
  sock->SendTo({IpAddr(8, 8, 8, 8), 53},
               moppkt::EncodeDns(moppkt::DnsMessage::Query(1, "www.test.example")));
  f.loop.Run();
  EXPECT_EQ(answer, IpAddr(93, 1, 1, 1));
  EXPECT_FALSE(nx);
  EXPECT_EQ(dns.queries_served(), 1u);
}

TEST(DnsServer, NxDomainWithoutAutoAssign) {
  NetFixture f;
  mopnet::DnsServer dns(&f.farm, {IpAddr(8, 8, 8, 8), 53}, nullptr, moputil::Rng(3),
                        /*auto_assign=*/false);
  auto sock = mopnet::UdpSocket::Create(&f.ctx);
  bool nx = false;
  sock->on_datagram = [&](const SocketAddr&, std::vector<uint8_t> payload) {
    auto msg = moppkt::DecodeDns(payload);
    nx = msg.ok() && msg.value().rcode == moppkt::DnsRcode::kNxDomain;
  };
  sock->SendTo({IpAddr(8, 8, 8, 8), 53},
               moppkt::EncodeDns(moppkt::DnsMessage::Query(2, "nope.example")));
  f.loop.Run();
  EXPECT_TRUE(nx);
}

TEST(ResolutionTable, AutoAssignIsDeterministicAndCollisionFree) {
  mopnet::ResolutionTable a, b;
  auto ip1 = a.AutoAssign("x.example.com");
  EXPECT_EQ(b.AutoAssign("x.example.com"), ip1);
  EXPECT_EQ(a.AutoAssign("x.example.com"), ip1);  // idempotent
  // Many domains, no duplicate addresses.
  std::set<uint32_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto ip = a.AutoAssign("host" + std::to_string(i) + ".example.net");
    EXPECT_TRUE(seen.insert(ip.value()).second);
  }
  EXPECT_EQ(a.ReverseLookup(ip1).value(), "x.example.com");
}

TEST(ConnTable, RegisterLookupUnregister) {
  mopnet::KernelConnTable table;
  mopnet::ConnEntry e;
  e.proto = moppkt::IpProto::kTcp;
  e.local = {IpAddr(10, 0, 0, 2), 40000};
  e.remote = {IpAddr(93, 1, 1, 1), 443};
  e.uid = 10123;
  auto h = table.Register(e);
  EXPECT_EQ(table.LookupUid(moppkt::IpProto::kTcp, 40000, e.remote), 10123);
  EXPECT_EQ(table.LookupUid(moppkt::IpProto::kUdp, 40000, e.remote), -1);
  // Port-only fallback when the remote differs.
  EXPECT_EQ(table.LookupUid(moppkt::IpProto::kTcp, 40000, {IpAddr(1, 1, 1, 1), 1}), 10123);
  table.Unregister(h);
  EXPECT_EQ(table.LookupUid(moppkt::IpProto::kTcp, 40000, e.remote), -1);
}

TEST(Capture, HandshakeRttPairsSynWithSynAck) {
  mopnet::CaptureLog log;
  SocketAddr local{IpAddr(10, 0, 0, 2), 40000};
  SocketAddr remote{IpAddr(93, 1, 1, 1), 443};
  log.Record(Millis(5), mopnet::CaptureEvent::kTcpSyn, mopnet::CaptureDir::kOut, local, remote);
  log.Record(Millis(47), mopnet::CaptureEvent::kTcpSynAck, mopnet::CaptureDir::kIn, local,
             remote);
  auto rtt = log.HandshakeRtt(local, remote);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_EQ(*rtt, Millis(42));
  EXPECT_EQ(log.AllHandshakeRtts(remote).size(), 1u);
}

}  // namespace
