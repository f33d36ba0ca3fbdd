#include <gtest/gtest.h>

#include <vector>

#include "android/device.h"
#include "android/proc_net.h"
#include "android/tun_device.h"
#include "android/vpn_service.h"
#include "net/net_context.h"
#include "net/server.h"
#include "netpkt/packet.h"
#include "netpkt/tcp.h"
#include "sim/event_loop.h"

namespace {

using moppkt::IpAddr;
using moputil::Millis;

// A parseable app->tunnel TCP datagram; the app-side port names the flow.
std::vector<uint8_t> FlowDatagram(uint16_t app_port) {
  moppkt::TcpSegmentSpec spec;
  spec.src_port = app_port;
  spec.dst_port = 443;
  spec.seq = 101;
  spec.ack = 5001;
  spec.flags = moppkt::AckFlag();
  return moppkt::BuildTcpDatagram(spec, IpAddr(10, 0, 0, 2), IpAddr(93, 1, 2, 3));
}

struct DroidFixture {
  mopsim::EventLoop loop;
  mopnet::PathTable paths;
  mopnet::ServerFarm farm;
  mopdroid::AndroidDevice device;

  explicit DroidFixture(int sdk = 24)
      : device(&loop, MakeProfile(), &paths, &farm, 11, sdk) {}

  static mopnet::NetworkProfile MakeProfile() {
    mopnet::NetworkProfile p;
    p.first_hop_one_way = std::make_shared<moputil::FixedDelay>(Millis(1));
    return p;
  }
};

TEST(TunDevice, QueueAndReadBack) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  int notifications = 0;
  tun.on_outgoing_ready = [&] { ++notifications; };
  tun.InjectOutgoing({1, 2, 3});
  tun.InjectOutgoing({4, 5});
  EXPECT_EQ(notifications, 2);
  EXPECT_EQ(tun.OutgoingDepth(), 2u);
  auto p1 = tun.ReadOutgoing();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->data.ToVector(), (std::vector<uint8_t>{1, 2, 3}));
  auto p2 = tun.ReadOutgoing();
  ASSERT_TRUE(p2.has_value());
  EXPECT_FALSE(tun.ReadOutgoing().has_value());
  EXPECT_EQ(tun.packets_out(), 2u);
  EXPECT_EQ(tun.bytes_out(), 5u);
  EXPECT_EQ(tun.outgoing_high_water(), 2u);
}

TEST(TunDevice, InjectTimestamps) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  loop.Schedule(Millis(7), [&] { tun.InjectOutgoing({1}); });
  loop.Run();
  auto p = tun.ReadOutgoing();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->injected_at, Millis(7));
}

TEST(TunDevice, WriteIncomingDelivers) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  std::vector<uint8_t> got;
  tun.on_deliver_to_apps = [&](moppkt::PacketBuf d) { got = d.ToVector(); };
  tun.WriteIncoming({9, 8, 7});
  EXPECT_EQ(got, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(tun.packets_in(), 1u);
}

TEST(TunDevice, ClosedDropsTraffic) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  tun.Close();
  tun.InjectOutgoing({1});
  EXPECT_FALSE(tun.HasOutgoing());
}

TEST(TunDevice, KeepsFifoOrderAcrossFlows) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  for (uint16_t port = 40000; port < 40008; ++port) {
    tun.InjectOutgoing(FlowDatagram(port));
  }
  // Strict injection order across flows: one FIFO, no sharding, no rotation.
  for (uint16_t port = 40000; port < 40008; ++port) {
    auto p = tun.ReadOutgoing();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(moppkt::ParsePacket(p->data.bytes()).value().tcp->src_port, port);
  }
}

TEST(ProcNet, RenderParsesBackExactly) {
  mopnet::KernelConnTable table;
  mopnet::ConnEntry e;
  e.proto = moppkt::IpProto::kTcp;
  e.local = {IpAddr(10, 0, 0, 2), 40001};
  e.remote = {IpAddr(93, 12, 34, 56), 443};
  e.state = mopnet::ConnState::kEstablished;
  e.uid = 10077;
  table.Register(e);
  e.local.port = 40002;
  e.remote = {IpAddr(8, 8, 8, 8), 53};
  e.proto = moppkt::IpProto::kUdp;
  e.uid = 10099;
  table.Register(e);

  mopdroid::ProcNet proc(&table);
  auto tcp_rows = mopdroid::ParseProcNet(proc.Render(moppkt::IpProto::kTcp));
  ASSERT_TRUE(tcp_rows.ok());
  ASSERT_EQ(tcp_rows.value().size(), 1u);
  EXPECT_EQ(tcp_rows.value()[0].local.ToString(), "10.0.0.2:40001");
  EXPECT_EQ(tcp_rows.value()[0].remote.ToString(), "93.12.34.56:443");
  EXPECT_EQ(tcp_rows.value()[0].uid, 10077);
  EXPECT_EQ(tcp_rows.value()[0].state, mopnet::ConnState::kEstablished);

  auto udp_rows = mopdroid::ParseProcNet(proc.Render(moppkt::IpProto::kUdp));
  ASSERT_TRUE(udp_rows.ok());
  ASSERT_EQ(udp_rows.value().size(), 1u);
  EXPECT_EQ(udp_rows.value()[0].uid, 10099);
}

TEST(ProcNet, KernelHexFormat) {
  // The kernel prints little-endian hex: 10.0.0.2:40001 -> "0200000A:9C41".
  mopnet::KernelConnTable table;
  mopnet::ConnEntry e;
  e.proto = moppkt::IpProto::kTcp;
  e.local = {IpAddr(10, 0, 0, 2), 40001};
  e.remote = {IpAddr(93, 12, 34, 56), 443};
  table.Register(e);
  mopdroid::ProcNet proc(&table);
  std::string text = proc.Render(moppkt::IpProto::kTcp);
  EXPECT_NE(text.find("0200000A:9C41"), std::string::npos);
  EXPECT_NE(text.find("38220C5D:01BB"), std::string::npos);
}

TEST(ProcNet, ParseRejectsGarbage) {
  auto r = mopdroid::ParseProcNet("header\nthis is not a row\n");
  EXPECT_FALSE(r.ok());
}

TEST(ProcNet, ParseCostGrowsWithRows) {
  mopnet::KernelConnTable small_table, big_table;
  for (int i = 0; i < 5; ++i) {
    mopnet::ConnEntry e;
    e.proto = moppkt::IpProto::kTcp;
    e.local = {IpAddr(10, 0, 0, 2), static_cast<uint16_t>(40000 + i)};
    small_table.Register(e);
  }
  for (int i = 0; i < 400; ++i) {
    mopnet::ConnEntry e;
    e.proto = moppkt::IpProto::kTcp;
    e.local = {IpAddr(10, 0, 0, 2), static_cast<uint16_t>(40000 + i)};
    big_table.Register(e);
  }
  mopdroid::ProcNet small_proc(&small_table), big_proc(&big_table);
  moputil::Rng rng(5);
  double small_mean = 0, big_mean = 0;
  for (int i = 0; i < 200; ++i) {
    small_mean += moputil::ToMillis(small_proc.SampleParseCost(moppkt::IpProto::kTcp, rng));
    big_mean += moputil::ToMillis(big_proc.SampleParseCost(moppkt::IpProto::kTcp, rng));
  }
  EXPECT_GT(big_mean, small_mean * 1.5);  // more connections -> pricier parse
}

TEST(PackageManager, InstallLookupUninstall) {
  mopdroid::PackageManager pm;
  EXPECT_TRUE(pm.Install(10001, "com.a", "A"));
  EXPECT_FALSE(pm.Install(10001, "com.b", "B"));  // uid taken
  EXPECT_FALSE(pm.Install(10002, "com.a", "A2"));  // package taken
  EXPECT_EQ(pm.GetPackageForUid(10001)->label, "A");
  EXPECT_EQ(pm.GetPackageByName("com.a")->uid, 10001);
  pm.Uninstall(10001);
  EXPECT_FALSE(pm.GetPackageForUid(10001).has_value());
}

TEST(VpnService, EstablishActivatesRouting) {
  DroidFixture f;
  mopdroid::VpnService vpn(&f.device);
  mopdroid::VpnService::Builder builder(&vpn);
  builder.addAddress(IpAddr(10, 0, 0, 2)).setSession("test");
  mopdroid::TunDevice* tun = builder.establish();
  ASSERT_NE(tun, nullptr);
  EXPECT_TRUE(vpn.active());
  EXPECT_TRUE(f.device.vpn_active());
  // App packets now route into the tunnel.
  EXPECT_TRUE(f.device.KernelSendFromApp({1, 2, 3}));
  EXPECT_TRUE(tun->HasOutgoing());
  vpn.Stop();
  EXPECT_FALSE(f.device.vpn_active());
  EXPECT_FALSE(f.device.KernelSendFromApp({1}));
}

TEST(VpnService, EstablishRequiresAddress) {
  DroidFixture f;
  mopdroid::VpnService vpn(&f.device);
  mopdroid::VpnService::Builder builder(&vpn);
  EXPECT_EQ(builder.establish(), nullptr);
}

TEST(VpnService, DisallowedApplicationNeedsLollipop) {
  DroidFixture old_device(mopdroid::kSdkKitKat);
  old_device.device.package_manager().Install(10050, "com.mopeye", "MopEye");
  mopdroid::VpnService vpn(&old_device.device);
  mopdroid::VpnService::Builder builder(&vpn);
  auto st = builder.addDisallowedApplication("com.mopeye");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), moputil::StatusCode::kUnimplemented);

  DroidFixture new_device(mopdroid::kSdkLollipop);
  new_device.device.package_manager().Install(10050, "com.mopeye", "MopEye");
  mopdroid::VpnService vpn2(&new_device.device);
  mopdroid::VpnService::Builder builder2(&vpn2);
  EXPECT_TRUE(builder2.addDisallowedApplication("com.mopeye").ok());
  EXPECT_FALSE(builder2.addDisallowedApplication("com.not.installed").ok());
}

TEST(VpnService, ProtectMarksSocketAndCosts) {
  DroidFixture f;
  mopdroid::VpnService vpn(&f.device);
  auto ch = mopnet::SocketChannel::Create(&f.device.net());
  EXPECT_FALSE(ch->protected_socket());
  auto cost = vpn.protect(*ch);
  EXPECT_TRUE(ch->protected_socket());
  EXPECT_GT(cost, 0);
  EXPECT_EQ(vpn.protect_calls(), 1);
}

TEST(VpnService, DisallowedUidBypassesWithoutProtect) {
  DroidFixture f;
  f.device.package_manager().Install(10050, "com.mopeye", "MopEye");
  mopdroid::VpnService vpn(&f.device);
  mopdroid::VpnService::Builder builder(&vpn);
  builder.addAddress(IpAddr(10, 0, 0, 2));
  ASSERT_TRUE(builder.addDisallowedApplication("com.mopeye").ok());
  ASSERT_NE(builder.establish(), nullptr);

  f.paths.SetDefault(std::make_shared<moputil::FixedDelay>(Millis(5)));
  f.farm.AddTcpServer({IpAddr(93, 3, 3, 3), 80},
                      [] { return std::make_unique<mopnet::EchoBehavior>(); });
  // Unprotected socket of the disallowed app connects fine.
  auto ch = mopnet::SocketChannel::Create(&f.device.net());
  ch->set_owner_uid(10050);
  moputil::Status st;
  ch->Connect({IpAddr(93, 3, 3, 3), 80}, [&](moputil::Status s) { st = s; });
  f.loop.Run();
  EXPECT_TRUE(st.ok());
  // A normal app's unprotected socket loops.
  auto ch2 = mopnet::SocketChannel::Create(&f.device.net());
  ch2->set_owner_uid(10051);
  moputil::Status st2;
  ch2->Connect({IpAddr(93, 3, 3, 3), 80}, [&](moputil::Status s) { st2 = s; });
  f.loop.Run();
  EXPECT_FALSE(st2.ok());
  EXPECT_EQ(f.device.net().loop_violations(), 1);
}

TEST(AndroidDevice, DownloadManagerInjectsDummyPacket) {
  DroidFixture f;
  mopdroid::VpnService vpn(&f.device);
  mopdroid::VpnService::Builder builder(&vpn);
  builder.addAddress(IpAddr(10, 0, 0, 2));
  mopdroid::TunDevice* tun = builder.establish();
  ASSERT_NE(tun, nullptr);
  f.device.DownloadManagerEnqueue();
  f.loop.Run();
  EXPECT_GE(tun->packets_out(), 1u);  // the dummy download SYN
}

}  // namespace
