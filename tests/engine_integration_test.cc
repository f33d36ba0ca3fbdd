// End-to-end relay tests: real app TCP through the TUN, spliced by MopEye's
// user-space stack onto simulated kernel sockets, against scripted servers.
#include <gtest/gtest.h>

#include <algorithm>

#include "netpkt/dns.h"
#include "netpkt/packet_buf.h"
#include "telemetry/metrics.h"
#include "tests/test_world.h"

namespace {

using moptest::TestWorld;
using moptest::WorldOptions;
using moputil::Millis;

TEST(EngineIntegration, RelaysHandshakeAndMeasuresRtt) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  // Server 10ms one-way => 20ms RTT + 2ms first-hop RTT = 22ms wire RTT.
  auto addr = w.AddServer(moppkt::IpAddr(93, 10, 0, 1), 80, Millis(10));
  auto* app = w.MakeApp(10100, "com.example.web", "WebApp");

  auto conn = app->CreateConn();
  bool connected = false;
  conn->Connect(addr, [&](moputil::Status st) { connected = st.ok(); });
  w.RunMs(2000);
  EXPECT_TRUE(connected);

  // One TCP measurement recorded, attributed to the right app.
  const auto& recs = w.engine().store().records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].kind, mopeye::MeasureKind::kTcpConnect);
  EXPECT_EQ(recs[0].uid, 10100);
  EXPECT_EQ(recs[0].app, "WebApp");
  EXPECT_EQ(recs[0].server.ToString(), "93.10.0.1:80");
  // Wire RTT is 22ms; MopEye's measurement must be within 1ms (Table 2).
  double rtt_ms = moputil::ToMillis(recs[0].rtt);
  EXPECT_GE(rtt_ms, 22.0);
  EXPECT_LE(rtt_ms, 23.0);
}

TEST(EngineIntegration, AccuracyMatchesTcpdumpWithinOneMs) {
  // Re-creates Table 2's setup: destinations at three RTT scales, ten runs
  // each, MopEye mean vs tcpdump mean.
  for (double one_way_ms : {2.0, 18.0, 140.0}) {
    TestWorld w;
    ASSERT_TRUE(w.StartEngine().ok());
    auto addr =
        w.AddServer(moppkt::IpAddr(93, 20, 0, 1), 443, Millis(one_way_ms));
    auto* app = w.MakeApp(10100, "com.example.probe", "Probe");

    for (int i = 0; i < 10; ++i) {
      auto conn = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
      conn->Connect(addr, [conn](moputil::Status) {});
      w.RunMs(one_way_ms * 2 + 500);
    }

    auto mop = w.engine().store().RttsMs();
    auto wire = w.device().net().capture().AllHandshakeRtts(addr);
    ASSERT_EQ(mop.count(), 10u);
    ASSERT_EQ(wire.size(), 10u);
    double wire_mean = 0;
    for (auto r : wire) {
      wire_mean += moputil::ToMillis(r);
    }
    wire_mean /= 10.0;
    EXPECT_NEAR(mop.Mean(), wire_mean, 1.0) << "one_way " << one_way_ms;
    EXPECT_GE(mop.Mean(), wire_mean);  // software delays only ever add
  }
}

TEST(EngineIntegration, RelaysDataBothWays) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  // Echo server: bytes we send come back verbatim.
  auto addr = w.AddServer(moppkt::IpAddr(93, 10, 0, 2), 7, Millis(5),
                          [] { return std::make_unique<mopnet::EchoBehavior>(); });
  auto* app = w.MakeApp(10101, "com.example.echo", "EchoApp");

  auto conn = app->CreateConn();
  size_t received = 0;
  conn->on_data = [&](size_t n) { received += n; };
  conn->Connect(addr, [&](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    conn->SendBytes(5000);
  });
  w.RunMs(3000);
  EXPECT_EQ(received, 5000u);
  EXPECT_EQ(w.engine().counters().bytes_app_to_server, 5000u);
  EXPECT_EQ(w.engine().counters().bytes_server_to_app, 5000u);
  EXPECT_GT(w.engine().counters().pure_acks_discarded, 0u);
}

TEST(EngineIntegration, PayloadContentSurvivesRelay) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 10, 0, 3), 7, Millis(5),
                          [] { return std::make_unique<mopnet::EchoBehavior>(); });
  // Use the raw tunnel connection to check bytes, not just counts.
  auto conn = mopapps::AppTcpConnection::Create(&w.stack(), 10102);
  std::vector<uint8_t> sent;
  for (int i = 0; i < 3000; ++i) {
    sent.push_back(static_cast<uint8_t>((i * 7 + 3) & 0xff));
  }
  std::vector<uint8_t> got;
  conn->on_data = [&](std::span<const uint8_t> d) { got.insert(got.end(), d.begin(), d.end()); };
  conn->Connect(addr, [&](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    conn->Send(sent);
  });
  w.RunMs(3000);
  EXPECT_EQ(got, sent);
}

TEST(EngineIntegration, ConnectionRefusedSendsRstToApp) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  // No server registered at this address.
  moppkt::SocketAddr addr{moppkt::IpAddr(93, 66, 0, 1), 81};
  auto* app = w.MakeApp(10103, "com.example.dead", "DeadApp");
  auto conn = app->CreateConn();
  bool failed = false;
  conn->Connect(addr, [&](moputil::Status st) { failed = !st.ok(); });
  w.RunMs(2000);
  EXPECT_TRUE(failed);
  EXPECT_EQ(w.engine().counters().connects_failed, 1u);
  EXPECT_EQ(w.engine().active_clients(), 0u);
}

TEST(EngineIntegration, ServerCloseReachesApp) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 10, 0, 4), 80, Millis(5), [] {
    return std::make_unique<mopnet::CloseAfterBehavior>(Millis(50));
  });
  auto* app = w.MakeApp(10104, "com.example.closer", "Closer");
  auto conn = app->CreateConn();
  bool peer_closed = false;
  conn->on_peer_close = [&] { peer_closed = true; };
  conn->Connect(addr, [](moputil::Status) {});
  w.RunMs(2000);
  EXPECT_TRUE(peer_closed);
}

TEST(EngineIntegration, AppCloseReachesServerAndClientRetires) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 10, 0, 5), 80, Millis(5));
  auto* app = w.MakeApp(10105, "com.example.finisher", "Finisher");
  auto conn = app->CreateConn();
  conn->Connect(addr, [&](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    conn->Close();
  });
  w.RunMs(2000);
  EXPECT_EQ(w.engine().active_clients(), 0u);
  EXPECT_GT(w.engine().counters().fins, 0u);
}

TEST(EngineIntegration, DnsQueriesAreMeasuredAndRelayed) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  w.farm().resolution().Add("www.demo.test", moppkt::IpAddr(93, 77, 0, 1));
  // DNS path: default 10ms one-way => ~22ms RTT with first hop.
  auto* app = w.MakeApp(10106, "com.example.dnsy", "Dnsy");
  moppkt::IpAddr resolved;
  bool done = false;
  app->Resolve("www.demo.test", [&](moputil::Result<mopapps::DnsResult> r) {
    ASSERT_TRUE(r.ok());
    resolved = r.value().address;
    done = true;
  });
  w.RunMs(2000);
  ASSERT_TRUE(done);
  EXPECT_EQ(resolved, moppkt::IpAddr(93, 77, 0, 1));

  ASSERT_EQ(w.engine().store().CountKind(mopeye::MeasureKind::kDns), 1u);
  const auto& rec = w.engine().store().records()[0];
  EXPECT_EQ(rec.domain, "www.demo.test");
  EXPECT_EQ(rec.app, "(dns)");
  double rtt = moputil::ToMillis(rec.rtt);
  EXPECT_GE(rtt, 22.0);
  EXPECT_LE(rtt, 24.0);
}

TEST(EngineIntegration, ConcurrentAppsAttributedCorrectly) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr1 = w.AddServer(moppkt::IpAddr(93, 10, 1, 1), 80, Millis(8));
  auto addr2 = w.AddServer(moppkt::IpAddr(93, 10, 1, 2), 80, Millis(25));
  auto* app_a = w.MakeApp(10110, "com.example.aaa", "AppA");
  auto* app_b = w.MakeApp(10111, "com.example.bbb", "AppB");

  std::vector<std::shared_ptr<mopapps::AppConn>> conns;
  for (int i = 0; i < 5; ++i) {
    auto ca = std::shared_ptr<mopapps::AppConn>(app_a->CreateConn().release());
    ca->Connect(addr1, [](moputil::Status) {});
    conns.push_back(ca);
    auto cb = std::shared_ptr<mopapps::AppConn>(app_b->CreateConn().release());
    cb->Connect(addr2, [](moputil::Status) {});
    conns.push_back(cb);
  }
  w.RunMs(5000);

  int a_count = 0, b_count = 0;
  for (const auto& r : w.engine().store().records()) {
    if (r.app == "AppA") {
      ++a_count;
      EXPECT_EQ(r.server.ip, moppkt::IpAddr(93, 10, 1, 1));
    } else if (r.app == "AppB") {
      ++b_count;
      EXPECT_EQ(r.server.ip, moppkt::IpAddr(93, 10, 1, 2));
    }
  }
  EXPECT_EQ(a_count, 5);
  EXPECT_EQ(b_count, 5);
  EXPECT_EQ(w.engine().mapper().misattributions(), 0);
  // Lazy mapping should have let some threads reuse another's parse.
  EXPECT_LE(w.engine().mapper().parses(), w.engine().mapper().requests());
}

TEST(EngineIntegration, UnprotectedModeOnOldSdkStillWorks) {
  WorldOptions opts;
  opts.sdk_version = mopdroid::kSdkKitKat;  // Android 4.4: per-socket protect()
  TestWorld w(opts);
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 10, 2, 1), 80, Millis(10));
  auto* app = w.MakeApp(10112, "com.example.kitkat", "KitKat");
  auto conn = app->CreateConn();
  bool ok = false;
  conn->Connect(addr, [&](moputil::Status st) { ok = st.ok(); });
  w.RunMs(2000);
  EXPECT_TRUE(ok);
  EXPECT_GT(w.engine().vpn().protect_calls(), 0);
  EXPECT_EQ(w.device().net().loop_violations(), 0);
}

TEST(EngineIntegration, DisallowedAppModeSkipsPerSocketProtect) {
  TestWorld w;  // SDK 24
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 10, 2, 2), 80, Millis(10));
  auto* app = w.MakeApp(10113, "com.example.lollipop", "Lollipop");
  auto conn = app->CreateConn();
  conn->Connect(addr, [](moputil::Status) {});
  w.RunMs(2000);
  EXPECT_EQ(w.engine().vpn().protect_calls(), 0);
  EXPECT_EQ(w.device().net().loop_violations(), 0);
}

TEST(EngineIntegration, ForcedDisallowedOnOldSdkFailsToStart) {
  WorldOptions opts;
  opts.sdk_version = mopdroid::kSdkKitKat;
  TestWorld w(opts);
  mopeye::Config cfg;
  cfg.protect_mode = mopeye::Config::ProtectMode::kDisallowedApp;
  auto st = w.StartEngine(cfg);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), moputil::StatusCode::kUnimplemented);
}

TEST(EngineIntegration, StopReleasesBlockedReaderViaDummyPacket) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  // No traffic at all: the reader is parked in a blocking read().
  w.RunMs(100);
  w.engine().Stop();
  w.RunMs(100);
  EXPECT_FALSE(w.engine().running());
  EXPECT_TRUE(w.engine().tun_reader()->stopped());
  // The dummy download's SYN released the read (packet counted by the tun).
  EXPECT_GE(w.device().vpn_tun() != nullptr ? 1 : 1, 1);
}

TEST(EngineIntegration, SelectorTimestampModeInflatesRtt) {
  // Ablation for §2.4: event-notification timestamps vs blocking connect.
  double blocking_mean = 0, selector_mean = 0;
  for (int mode = 0; mode < 2; ++mode) {
    TestWorld w;
    mopeye::Config cfg;
    cfg.timestamp_mode = mode == 0 ? mopeye::Config::TimestampMode::kBlockingConnectThread
                                   : mopeye::Config::TimestampMode::kSelector;
    ASSERT_TRUE(w.StartEngine(cfg).ok());
    auto addr = w.AddServer(moppkt::IpAddr(93, 10, 3, 1), 80, Millis(10));
    auto* app = w.MakeApp(10114, "com.example.ts", "Ts");
    for (int i = 0; i < 20; ++i) {
      auto conn = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
      conn->Connect(addr, [conn](moputil::Status) {});
      w.RunMs(200);
    }
    auto rtts = w.engine().store().RttsMs();
    ASSERT_GE(rtts.count(), 20u);
    (mode == 0 ? blocking_mean : selector_mean) = rtts.Mean();
  }
  EXPECT_GT(selector_mean, blocking_mean);
}

TEST(EngineIntegration, SteadyStateRelayReusesPooledBuffers) {
  // End-to-end pool discipline: after a first transfer warms the shared pool,
  // a second identical transfer must be served entirely from the free list —
  // no new slab allocations, no oversize fallbacks, no hidden deep copies.
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 10, 0, 9), 7, Millis(5),
                          [] { return std::make_unique<mopnet::EchoBehavior>(); });
  auto* app = w.MakeApp(10160, "com.example.pool", "Pool");

  auto run_transfer = [&] {
    auto conn = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
    size_t received = 0;
    conn->on_data = [&](size_t n) { received += n; };
    conn->Connect(addr, [conn](moputil::Status st) {
      ASSERT_TRUE(st.ok());
      conn->SendBytes(50000);
    });
    w.RunMs(5000);
    EXPECT_EQ(received, 50000u);
  };

  run_transfer();  // warm the pool
  auto before = moppkt::BufPool::Default().stats();
  run_transfer();
  auto after = moppkt::BufPool::Default().stats();
  EXPECT_EQ(after.slab_allocs, before.slab_allocs);
  EXPECT_EQ(after.oversize_allocs, before.oversize_allocs);
  EXPECT_EQ(after.copies, before.copies);
  EXPECT_GT(after.acquires, before.acquires);  // traffic really flowed
}

// ---- Worker-lane sharding (thread model v2) ----

// One deterministic multi-client run against `lanes` worker lanes: 8 raw
// tunnel connections from two apps to 8 distinct servers (flows spread over
// the lane hash), each echoing a distinct payload, plus two DNS lookups.
struct LaneRunResult {
  std::vector<std::string> records;              // canonical projection, sorted
  std::vector<double> tcp_rtts_ms;               // sorted
  std::vector<std::vector<uint8_t>> received;    // per connection, index order
  std::vector<std::vector<uint8_t>> sent;        // per connection, index order
  uint64_t bytes_app_to_server = 0;
  uint64_t bytes_server_to_app = 0;
  uint64_t unknown_flow = 0;
  uint64_t parse_errors = 0;
};

LaneRunResult RunLaneScenario(int lanes) {
  constexpr int kConns = 8;
  TestWorld w;
  mopeye::Config cfg;
  cfg.worker_lanes = lanes;
  EXPECT_TRUE(w.StartEngine(cfg).ok());
  w.farm().resolution().Add("lanes.demo.test", moppkt::IpAddr(93, 88, 0, 1));
  w.farm().resolution().Add("shard.demo.test", moppkt::IpAddr(93, 88, 0, 2));
  auto* app_a = w.MakeApp(10170, "com.example.lanes.a", "LaneAppA");
  auto* app_b = w.MakeApp(10171, "com.example.lanes.b", "LaneAppB");

  LaneRunResult out;
  out.received.resize(kConns);
  out.sent.resize(kConns);
  std::vector<std::shared_ptr<mopapps::AppTcpConnection>> conns;
  for (int i = 0; i < kConns; ++i) {
    auto addr = w.AddServer(moppkt::IpAddr(93, 40, 0, static_cast<uint8_t>(1 + i)), 7,
                            Millis(10),
                            [] { return std::make_unique<mopnet::EchoBehavior>(); });
    auto conn = mopapps::AppTcpConnection::Create(&w.stack(),
                                                  i % 2 == 0 ? 10170 : 10171);
    for (int b = 0; b < 2000 + 137 * i; ++b) {
      out.sent[i].push_back(static_cast<uint8_t>((b * 31 + i) & 0xff));
    }
    conn->on_data = [&out, i](std::span<const uint8_t> d) {
      out.received[i].insert(out.received[i].end(), d.begin(), d.end());
    };
    auto payload = out.sent[i];
    conn->Connect(addr, [conn, payload = std::move(payload)](moputil::Status st) mutable {
      ASSERT_TRUE(st.ok());
      conn->Send(std::move(payload));
    });
    conns.push_back(std::move(conn));
  }
  app_a->Resolve("lanes.demo.test", [](moputil::Result<mopapps::DnsResult>) {});
  app_b->Resolve("shard.demo.test", [](moputil::Result<mopapps::DnsResult>) {});
  w.RunMs(8000);

  for (const auto& r : w.engine().store().records()) {
    std::string kind = r.kind == mopeye::MeasureKind::kTcpConnect ? "tcp" : "dns";
    out.records.push_back(kind + "|" + std::to_string(r.uid) + "|" + r.app + "|" +
                          r.server.ToString() + "|" + r.domain);
    if (r.kind == mopeye::MeasureKind::kTcpConnect) {
      out.tcp_rtts_ms.push_back(moputil::ToMillis(r.rtt));
    }
  }
  std::sort(out.records.begin(), out.records.end());
  std::sort(out.tcp_rtts_ms.begin(), out.tcp_rtts_ms.end());
  auto counters = w.engine().counters();
  out.bytes_app_to_server = counters.bytes_app_to_server;
  out.bytes_server_to_app = counters.bytes_server_to_app;
  out.unknown_flow = counters.unknown_flow;
  out.parse_errors = counters.parse_errors;
  return out;
}

TEST(EngineLanes, FourLanesProduceSameRecordsAndPayloadsAsOne) {
  LaneRunResult one = RunLaneScenario(1);
  LaneRunResult four = RunLaneScenario(4);

  // Byte-identical relayed payloads, connection by connection.
  for (size_t i = 0; i < one.sent.size(); ++i) {
    EXPECT_EQ(one.received[i], one.sent[i]) << "conn " << i << " (lanes=1)";
    EXPECT_EQ(four.received[i], four.sent[i]) << "conn " << i << " (lanes=4)";
    EXPECT_EQ(one.received[i], four.received[i]) << "conn " << i;
  }

  // Identical measurement records (kind, uid, app, server, domain).
  EXPECT_EQ(one.records, four.records);
  ASSERT_EQ(one.records.size(), 10u);  // 8 TCP + 2 DNS

  // RTTs measure the same wire path: same count, sub-ms software jitter.
  ASSERT_EQ(one.tcp_rtts_ms.size(), four.tcp_rtts_ms.size());
  for (size_t i = 0; i < one.tcp_rtts_ms.size(); ++i) {
    EXPECT_NEAR(one.tcp_rtts_ms[i], four.tcp_rtts_ms[i], 1.5) << "rtt " << i;
  }

  // Exact relay byte accounting matches across thread models.
  EXPECT_EQ(one.bytes_app_to_server, four.bytes_app_to_server);
  EXPECT_EQ(one.bytes_server_to_app, four.bytes_server_to_app);
  EXPECT_EQ(four.unknown_flow, 0u);
  EXPECT_EQ(four.parse_errors, 0u);
}

TEST(EngineLanes, RawStorePointerSeesLaneShardRecords) {
  // The Uploader captures &engine.store() once at composition time and polls
  // it for its whole lifetime. With the store sharded per lane, those reads
  // must still observe lane records (the store's refill hook), or the whole
  // crowdsourcing upload pipeline would silently see an empty store.
  TestWorld w;
  mopeye::Config cfg;
  cfg.worker_lanes = 4;
  ASSERT_TRUE(w.StartEngine(cfg).ok());
  mopeye::MeasurementStore* store = &w.engine().store();  // captured once
  ASSERT_EQ(store->size(), 0u);

  auto* app = w.MakeApp(10173, "com.example.upload", "UploadApp");
  std::vector<std::shared_ptr<mopapps::AppConn>> conns;
  for (int i = 0; i < 3; ++i) {
    auto addr = w.AddServer(moppkt::IpAddr(93, 42, 0, static_cast<uint8_t>(1 + i)), 80,
                            Millis(5));
    auto conn = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
    conn->Connect(addr, [](moputil::Status) {});
    conns.push_back(std::move(conn));
  }
  w.RunMs(2000);

  // Reads through the long-lived raw pointer pull the lane shards in.
  EXPECT_EQ(store->size(), 3u);
  std::vector<mopeye::Measurement> drained = store->TakeRecords();
  EXPECT_EQ(drained.size(), 3u);
  EXPECT_EQ(store->size(), 0u);
}

TEST(EngineLanes, FlowsAreAffineToTheirHashedLane) {
  constexpr int kConns = 12;
  TestWorld w;
  mopeye::Config cfg;
  cfg.worker_lanes = 4;
  ASSERT_TRUE(w.StartEngine(cfg).ok());
  ASSERT_EQ(w.engine().lane_count(), 4u);
  auto* app = w.MakeApp(10172, "com.example.affine", "Affine");
  (void)app;

  std::vector<std::shared_ptr<mopapps::AppTcpConnection>> conns;
  for (int i = 0; i < kConns; ++i) {
    auto addr = w.AddServer(moppkt::IpAddr(93, 41, 0, static_cast<uint8_t>(1 + i)), 80,
                            Millis(5),
                            [] { return std::make_unique<mopnet::EchoBehavior>(); });
    auto conn = mopapps::AppTcpConnection::Create(&w.stack(), 10172);
    conn->Connect(addr, [conn](moputil::Status st) {
      ASSERT_TRUE(st.ok());
      conn->SendBytes(4000);
    });
    conns.push_back(std::move(conn));
  }
  w.RunMs(5000);

  // Every flow's SYN (and all of its traffic) must have landed on exactly
  // the lane its key hashes to — no flow observed on two lanes.
  std::vector<uint64_t> expected_syns(4, 0);
  for (const auto& conn : conns) {
    moppkt::FlowKey flow;
    flow.proto = moppkt::IpProto::kTcp;
    flow.local = conn->local();
    flow.remote = conn->remote();
    ++expected_syns[w.engine().LaneOf(flow)];
  }
  uint64_t total_syns = 0;
  for (size_t lane = 0; lane < 4; ++lane) {
    const auto& shard = w.engine().lane_counters(lane);
    EXPECT_EQ(shard.syns, expected_syns[lane]) << "lane " << lane;
    EXPECT_EQ(shard.unknown_flow, 0u) << "lane " << lane;
    total_syns += shard.syns;
  }
  EXPECT_EQ(total_syns, static_cast<uint64_t>(kConns));
  // The scenario actually spread flows (hash quality): no lane owns them all.
  uint64_t max_lane = *std::max_element(expected_syns.begin(), expected_syns.end());
  EXPECT_LT(max_lane, static_cast<uint64_t>(kConns));
  // All data relayed correctly despite the sharding.
  EXPECT_EQ(w.engine().counters().bytes_app_to_server,
            static_cast<uint64_t>(kConns) * 4000u);
  EXPECT_EQ(w.engine().counters().bytes_server_to_app,
            static_cast<uint64_t>(kConns) * 4000u);
}

TEST(EngineLanes, ClientsHighWaterMergesAsMaxNotSum) {
  // Open connections one at a time, closing each before the next, across
  // enough distinct servers to land on several lanes. Every lane then records
  // a per-lane peak of ~1 concurrent client, so the legacy sum-of-peaks
  // counter overstates the true concurrent peak — the telemetry gauge must
  // report the max-merge (and the engine the true global peak) instead.
  constexpr int kConns = 8;
  TestWorld w;
  mopeye::Config cfg;
  cfg.worker_lanes = 4;
  cfg.telemetry = true;
  ASSERT_TRUE(w.StartEngine(cfg).ok());
  auto* app = w.MakeApp(10174, "com.example.peak", "Peak");
  (void)app;

  std::vector<size_t> lanes_used;
  for (int i = 0; i < kConns; ++i) {
    auto addr = w.AddServer(moppkt::IpAddr(93, 43, 0, static_cast<uint8_t>(1 + i)), 80,
                            Millis(5),
                            [] { return std::make_unique<mopnet::EchoBehavior>(); });
    auto conn = mopapps::AppTcpConnection::Create(&w.stack(), 10174);
    conn->Connect(addr, [conn](moputil::Status st) {
      ASSERT_TRUE(st.ok());
      conn->SendBytes(500);
    });
    w.RunMs(1000);
    moppkt::FlowKey flow;
    flow.proto = moppkt::IpProto::kTcp;
    flow.local = conn->local();
    flow.remote = conn->remote();
    lanes_used.push_back(w.engine().LaneOf(flow));
    conn->Close();
    w.RunMs(1000);  // FIN handshake completes; the relay client is removed
  }

  std::sort(lanes_used.begin(), lanes_used.end());
  lanes_used.erase(std::unique(lanes_used.begin(), lanes_used.end()), lanes_used.end());
  ASSERT_GE(lanes_used.size(), 2u) << "scenario must exercise multiple lanes";

  // Sequential connections: the true concurrent peak is 1 client...
  EXPECT_EQ(w.engine().global_clients_high_water(), 1u);
  // ...while the legacy sum-of-lane-peaks overcounts it (one peak per lane
  // touched). It survives as resources()'s conservative memory bound.
  size_t lane_peak_sum = w.engine().counters().clients_high_water;
  EXPECT_EQ(lane_peak_sum, lanes_used.size());
  EXPECT_GT(lane_peak_sum, w.engine().global_clients_high_water());

  // The registry exports both with honest merge semantics.
  moptel::Registry* reg = w.engine().telemetry_registry();
  ASSERT_NE(reg, nullptr);
  uint64_t v = 0;
  ASSERT_TRUE(reg->GaugeValue("mopeye_engine_clients_high_water", &v));
  EXPECT_EQ(v, w.engine().global_clients_high_water());
  ASSERT_TRUE(reg->GaugeValue("mopeye_engine_lane_clients_high_water", &v));
  size_t lane_max = 0;
  for (size_t lane = 0; lane < w.engine().lane_count(); ++lane) {
    lane_max = std::max(lane_max, w.engine().lane_counters(lane).clients_high_water);
  }
  EXPECT_EQ(v, lane_max);
  EXPECT_EQ(v, 1u);  // max-merge, not the sum

  // Engine counters surfaced through the registry agree with direct reads.
  uint64_t syns = 0;
  ASSERT_TRUE(reg->CounterValue("mopeye_engine_syns_total", &syns));
  EXPECT_EQ(syns, w.engine().counters().syns);
}

// ---- Elephant-flow work stealing (thread model v3) ----

// One adversarially skewed run: every flow's key hashes to lane 0, so the
// flow-affine shard does zero load spreading on its own and only stealing can
// move work off the hot lane. Server IPs are searched against the FlowLaneOf
// oracle — the stack hands out local ports sequentially from 40000, so flow
// i's key is known before Connect.
struct SkewRunResult {
  std::vector<std::string> records;            // canonical projection, sorted
  std::vector<std::vector<uint8_t>> received;  // per connection, index order
  std::vector<std::vector<uint8_t>> sent;      // per connection, index order
  uint64_t steals = 0;          // reader-brokered re-homings
  uint64_t steal_handoffs = 0;  // victim-side handoff completions
  uint64_t unknown_flow = 0;
  uint64_t parse_errors = 0;
  size_t rehomed_flows = 0;  // flows whose live route left their hash lane
};

SkewRunResult RunSkewedScenario(bool steal_enabled) {
  constexpr int kConns = 8;
  constexpr size_t kLanes = 4;
  TestWorld w;
  mopeye::Config cfg;
  cfg.worker_lanes = static_cast<int>(kLanes);
  cfg.tun_read_batch = 8;
  cfg.steal_enabled = steal_enabled;
  cfg.steal_queue_threshold = 4;  // test-scale traffic must cross it
  cfg.lane_tun_write = true;      // gathered egress races re-homing hardest
  EXPECT_TRUE(w.StartEngine(cfg).ok());
  auto* app = w.MakeApp(10180, "com.example.skew", "SkewApp");
  (void)app;
  const moppkt::IpAddr local_ip = w.device().tun_address();

  SkewRunResult out;
  out.received.resize(kConns);
  out.sent.resize(kConns);
  std::vector<std::shared_ptr<mopapps::AppTcpConnection>> conns;
  uint32_t ip_cursor = 0;
  for (int i = 0; i < kConns; ++i) {
    moppkt::FlowKey flow;
    flow.proto = moppkt::IpProto::kTcp;
    flow.local = {local_ip, static_cast<uint16_t>(40000 + i)};
    moppkt::IpAddr server_ip;
    do {
      ++ip_cursor;
      server_ip = moppkt::IpAddr(93, 70, static_cast<uint8_t>(ip_cursor / 250),
                                 static_cast<uint8_t>(1 + ip_cursor % 250));
      flow.remote = {server_ip, 7};
    } while (moppkt::FlowLaneOf(flow, kLanes) != 0);
    auto addr = w.AddServer(server_ip, 7, Millis(5),
                            [] { return std::make_unique<mopnet::EchoBehavior>(); });
    auto conn = mopapps::AppTcpConnection::Create(&w.stack(), 10180);
    for (int b = 0; b < 24000 + 997 * i; ++b) {
      out.sent[i].push_back(static_cast<uint8_t>((b * 13 + i) & 0xff));
    }
    conn->on_data = [&out, i](std::span<const uint8_t> d) {
      out.received[i].insert(out.received[i].end(), d.begin(), d.end());
    };
    auto payload = out.sent[i];
    conn->Connect(addr, [conn, payload = std::move(payload)](moputil::Status st) mutable {
      ASSERT_TRUE(st.ok());
      conn->Send(std::move(payload));
    });
    // The port prediction the IP search relied on must have held.
    EXPECT_EQ(conn->local().port, 40000 + i);
    conns.push_back(std::move(conn));
  }
  w.RunMs(30000);

  for (const auto& conn : conns) {
    moppkt::FlowKey flow;
    flow.proto = moppkt::IpProto::kTcp;
    flow.local = conn->local();
    flow.remote = conn->remote();
    EXPECT_EQ(w.engine().LaneOf(flow), 0u);  // the skew premise
    if (w.engine().tun_reader()->RouteOf(flow) != 0) {
      ++out.rehomed_flows;
    }
  }
  for (const auto& r : w.engine().store().records()) {
    std::string kind = r.kind == mopeye::MeasureKind::kTcpConnect ? "tcp" : "dns";
    out.records.push_back(kind + "|" + std::to_string(r.uid) + "|" + r.app + "|" +
                          r.server.ToString() + "|" + r.domain);
  }
  std::sort(out.records.begin(), out.records.end());
  auto counters = w.engine().counters();
  out.steals = w.engine().tun_reader()->steals();
  out.steal_handoffs = counters.steal_handoffs;
  out.unknown_flow = counters.unknown_flow;
  out.parse_errors = counters.parse_errors;
  return out;
}

TEST(EngineSteal, AdversarialSkewStealsFlowsAndKeepsPerFlowFifo) {
  SkewRunResult r = RunSkewedScenario(/*steal_enabled=*/true);

  // Stealing actually happened: the reader brokered re-homings, victims
  // completed handoffs, and at least one flow now routes off lane 0.
  EXPECT_GT(r.steals, 0u);
  EXPECT_GT(r.steal_handoffs, 0u);
  EXPECT_GE(r.steal_handoffs, r.steals);
  EXPECT_GT(r.rehomed_flows, 0u);

  // Per-flow FIFO across every re-homing: each echoed stream comes back
  // byte-for-byte — any reordering or loss at a handoff would corrupt the
  // TCP streams and show up here as a mismatch (the app-side TCP has no
  // retransmit path toward the relay to paper over a relay drop).
  for (size_t i = 0; i < r.sent.size(); ++i) {
    EXPECT_EQ(r.received[i], r.sent[i]) << "conn " << i;
  }
  // No packet was ever orphaned mid-handoff.
  EXPECT_EQ(r.unknown_flow, 0u);
  EXPECT_EQ(r.parse_errors, 0u);
}

TEST(EngineSteal, StealingPreservesExactMeasurementRecords) {
  // Identical skewed scenario with and without stealing: measurement output
  // (the product of the system) must be exactly the same set of records —
  // stealing is a scheduling optimization, not a semantic change.
  SkewRunResult stolen = RunSkewedScenario(/*steal_enabled=*/true);
  SkewRunResult pinned = RunSkewedScenario(/*steal_enabled=*/false);

  EXPECT_GT(stolen.steals, 0u);
  EXPECT_EQ(pinned.steals, 0u);
  EXPECT_EQ(pinned.steal_handoffs, 0u);
  EXPECT_EQ(pinned.rehomed_flows, 0u);

  EXPECT_EQ(stolen.records, pinned.records);
  ASSERT_EQ(stolen.records.size(), 8u);  // one TCP connect per flow
  for (size_t i = 0; i < stolen.sent.size(); ++i) {
    EXPECT_EQ(stolen.received[i], stolen.sent[i]) << "conn " << i << " (steal)";
    EXPECT_EQ(pinned.received[i], pinned.sent[i]) << "conn " << i << " (pinned)";
  }
}

// ---- Gathered lane egress vs the TunWriter path ----

// A sink that keeps every byte it receives, for byte-exact upload checks.
class CollectingSink : public mopnet::ServerBehavior {
 public:
  explicit CollectingSink(std::vector<uint8_t>* got) : got_(got) {}
  void OnData(mopnet::ServerConn&, std::span<const uint8_t> data) override {
    got_->insert(got_->end(), data.begin(), data.end());
  }

 private:
  std::vector<uint8_t>* got_;
};

// One deterministic upload-heavy run: sink servers never send payload back,
// so after the handshake the relay->app traffic of a sink flow is its pure
// ACKs, one per flushed socket write (§2.3 "Socket Write"). Echo connections
// interleave data segments, and one connection closes mid-run so FIN
// traffic lands inside the others' uploads.
struct UploadRunResult {
  std::vector<std::string> records;            // canonical projection, sorted
  std::vector<std::vector<uint8_t>> received;  // per connection, index order
  std::vector<std::vector<uint8_t>> sent;      // per connection, index order
  std::vector<std::vector<uint8_t>> at_server;  // per connection, index order
  uint64_t bytes_app_to_server = 0;
  uint64_t bytes_server_to_app = 0;
  uint64_t data_segments = 0;   // app->relay segments carrying payload
  uint64_t tun_packets_in = 0;  // relay->app packets written to the tun
  uint64_t unknown_flow = 0;
  uint64_t parse_errors = 0;
};

UploadRunResult RunUploadScenario(bool lane_tun_write) {
  constexpr int kConns = 6;
  TestWorld w;
  mopeye::Config cfg;
  cfg.worker_lanes = 4;
  cfg.tun_read_batch = 8;
  cfg.lane_tun_write = lane_tun_write;
  EXPECT_TRUE(w.StartEngine(cfg).ok());
  auto* app = w.MakeApp(10190, "com.example.upload.acks", "AckApp");
  (void)app;

  UploadRunResult out;
  out.received.resize(kConns);
  out.sent.resize(kConns);
  out.at_server.resize(kConns);
  std::vector<std::shared_ptr<mopapps::AppTcpConnection>> conns;
  for (int i = 0; i < kConns; ++i) {
    // Conns 0-2 bulk-upload into sinks, conns 3-4 echo (reflected data
    // segments interleave with the ACKs), conn 5 uploads a little then
    // closes early (its FIN handshake lands mid-run for everyone else).
    const bool echo = i == 3 || i == 4;
    std::vector<uint8_t>* at_server = &out.at_server[i];
    auto addr = w.AddServer(
        moppkt::IpAddr(93, 44, 0, static_cast<uint8_t>(1 + i)), 7, Millis(5),
        echo ? mopnet::BehaviorFactory(
                   [] { return std::make_unique<mopnet::EchoBehavior>(); })
             : mopnet::BehaviorFactory(
                   [at_server] { return std::make_unique<CollectingSink>(at_server); }));
    auto conn = mopapps::AppTcpConnection::Create(&w.stack(), 10190);
    const int bytes = i == 5 ? 8000 : 120000 + 7919 * i;
    for (int b = 0; b < bytes; ++b) {
      out.sent[i].push_back(static_cast<uint8_t>((b * 17 + i) & 0xff));
    }
    conn->on_data = [&out, i](std::span<const uint8_t> d) {
      out.received[i].insert(out.received[i].end(), d.begin(), d.end());
    };
    auto payload = out.sent[i];
    conn->Connect(addr, [conn, payload = std::move(payload)](moputil::Status st) mutable {
      ASSERT_TRUE(st.ok());
      conn->Send(std::move(payload));
    });
    conns.push_back(std::move(conn));
  }
  w.RunMs(4000);
  conns[5]->Close();  // FIN mid-run, while the bulk uploads are still going
  w.RunMs(26000);

  for (const auto& r : w.engine().store().records()) {
    std::string kind = r.kind == mopeye::MeasureKind::kTcpConnect ? "tcp" : "dns";
    out.records.push_back(kind + "|" + std::to_string(r.uid) + "|" + r.app + "|" +
                          r.server.ToString() + "|" + r.domain);
  }
  std::sort(out.records.begin(), out.records.end());
  auto counters = w.engine().counters();
  out.bytes_app_to_server = counters.bytes_app_to_server;
  out.bytes_server_to_app = counters.bytes_server_to_app;
  out.data_segments = counters.data_segments;
  out.tun_packets_in = w.engine().vpn().tun()->packets_in();
  out.unknown_flow = counters.unknown_flow;
  out.parse_errors = counters.parse_errors;
  return out;
}

TEST(EngineLaneEgress, UploadMatchesTunWriterPathWithOneAckPerSocketWrite) {
  UploadRunResult lane = RunUploadScenario(/*lane_tun_write=*/true);
  UploadRunResult writer = RunUploadScenario(/*lane_tun_write=*/false);

  // Byte-level stream equivalence: every upload reached its server in full
  // and the echo streams came back byte-identical on both egress paths.
  uint64_t total_sent = 0;
  for (size_t i = 0; i < lane.sent.size(); ++i) {
    total_sent += lane.sent[i].size();
    if (i == 3 || i == 4) {
      EXPECT_EQ(lane.received[i], lane.sent[i]) << "conn " << i << " (lane egress)";
      EXPECT_EQ(writer.received[i], writer.sent[i]) << "conn " << i << " (TunWriter)";
    } else {
      EXPECT_EQ(lane.at_server[i], lane.sent[i]) << "conn " << i << " (lane egress)";
      EXPECT_EQ(writer.at_server[i], writer.sent[i]) << "conn " << i << " (TunWriter)";
      EXPECT_TRUE(lane.received[i].empty()) << "conn " << i;  // sinks never reply
      EXPECT_TRUE(writer.received[i].empty()) << "conn " << i;
    }
  }
  EXPECT_EQ(lane.bytes_app_to_server, total_sent);
  EXPECT_EQ(writer.bytes_app_to_server, total_sent);
  EXPECT_EQ(lane.bytes_server_to_app, writer.bytes_server_to_app);

  // Identical measurement records: the egress path is a scheduling choice,
  // invisible to the product of the system.
  EXPECT_EQ(lane.records, writer.records);
  ASSERT_EQ(lane.records.size(), 6u);  // one TCP connect per flow
  EXPECT_EQ(lane.unknown_flow, 0u);
  EXPECT_EQ(lane.parse_errors, 0u);
  EXPECT_EQ(writer.unknown_flow, 0u);
  EXPECT_EQ(writer.parse_errors, 0u);

  // One ACK per socket write, not per staged data segment: a flush that
  // batches several segments answers them with a single cumulative ACK, so
  // the relay sends the app fewer packets than the app sent data segments.
  EXPECT_LT(lane.tun_packets_in, lane.data_segments);
}

// An app that sends and closes at once must not lose its tail. Two things
// must hold: an app FIN handled while a flushed socket write is still
// waiting out its socket_op cost must not close the channel under that
// write, and the socket's FIN must not overtake data queued on the uplink.
TEST(EngineLaneEgress, SendThenCloseDeliversEveryByte) {
  constexpr int kConns = 48;
  for (int read_batch : {1, 32}) {
    SCOPED_TRACE("tun_read_batch=" + std::to_string(read_batch));
    TestWorld w;
    mopeye::Config cfg;
    cfg.worker_lanes = 8;
    cfg.tun_read_batch = read_batch;
    cfg.lane_tun_write = true;
    ASSERT_TRUE(w.StartEngine(cfg).ok());
    w.MakeApp(10191, "com.example.upload.close", "CloseApp");

    std::vector<std::vector<uint8_t>> sent(kConns);
    std::vector<std::vector<uint8_t>> at_server(kConns);
    std::vector<std::shared_ptr<mopapps::AppTcpConnection>> conns;
    for (int i = 0; i < kConns; ++i) {
      std::vector<uint8_t>* sink = &at_server[i];
      auto addr = w.AddServer(moppkt::IpAddr(93, 45, 0, static_cast<uint8_t>(1 + i)), 80,
                              Millis(5),
                              [sink] { return std::make_unique<CollectingSink>(sink); });
      auto conn = mopapps::AppTcpConnection::Create(&w.stack(), 10191);
      for (int b = 0; b < 20000 + 4099 * i; ++b) {
        sent[i].push_back(static_cast<uint8_t>((b * 29 + i) & 0xff));
      }
      auto payload = sent[i];
      conn->Connect(addr, [conn, payload = std::move(payload)](moputil::Status st) mutable {
        ASSERT_TRUE(st.ok());
        conn->Send(std::move(payload));
        conn->Close();  // FIN queued right behind the last data segment
      });
      conns.push_back(std::move(conn));
    }
    w.RunMs(20000);

    uint64_t total_sent = 0;
    for (int i = 0; i < kConns; ++i) {
      total_sent += sent[i].size();
      EXPECT_EQ(at_server[i].size(), sent[i].size()) << "conn " << i;
      EXPECT_TRUE(at_server[i] == sent[i]) << "conn " << i;
    }
    EXPECT_EQ(w.engine().counters().bytes_app_to_server, total_sent);
  }
}

TEST(EngineIntegration, BrowsingSessionEndToEnd) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto* app = w.MakeApp(10115, "com.android.chrome", "Chrome");
  mopapps::BrowsingSession::Config cfg;
  cfg.pages = 3;
  cfg.domains = {"news.site-a.test", "shop.site-b.test"};
  mopapps::BrowsingSession session(app, &w.farm(), cfg, moputil::Rng(7));
  bool done = false;
  session.Start([&] { done = true; });
  w.RunMs(60000);
  ASSERT_TRUE(done);
  const auto& m = session.metrics();
  EXPECT_EQ(m.failures, 0);
  EXPECT_GE(m.connections, 3 * cfg.min_conns_per_page);
  EXPECT_EQ(m.page_load_ms.count(), 3u);
  // Every connection produced a TCP measurement; every page a DNS one.
  EXPECT_EQ(w.engine().store().CountKind(mopeye::MeasureKind::kTcpConnect),
            static_cast<size_t>(m.connections));
  EXPECT_GE(w.engine().store().CountKind(mopeye::MeasureKind::kDns), 2u);
}

}  // namespace
