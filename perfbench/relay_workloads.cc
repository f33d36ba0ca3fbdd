// The three relay workloads: bulk_download, bulk_upload and short_flows.
//
// Every connection gets its own remote address, so the external capture log
// (the reproduction's tcpdump) identifies each connection's flow, and each
// measurement record names the connection it belongs to by its server.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/presets.h"
#include "netpkt/packet_buf.h"
#include "perfbench/workloads.h"
#include "telemetry/metrics.h"
#include "tests/test_world.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using moputil::SimDuration;
using moputil::SimTime;

// The paper preset scaled out for multi-Gbps relaying: the table3 lane-sweep
// configuration (8 worker lanes, burst tun reads, elephant-flow stealing,
// gathered lane egress). Every scaled workload gets its engine config here.
mopeye::Config ScaledRelayConfig() {
  mopeye::Config cfg = mopbase::MopEyeConfig();
  cfg.worker_lanes = 8;
  cfg.tun_read_batch = 32;
  cfg.steal_enabled = true;
  cfg.lane_tun_write = true;
  return cfg;
}

constexpr size_t kPingBytes = 64;

std::string Label(const char* what, size_t i) {
  std::string s = what;
  s.append(" #");
  s.append(std::to_string(i));
  return s;
}

// One app connection the benchmark checks: its remote is unique in the world.
struct Conn {
  int uid = 0;
  std::string app;
  moppkt::SocketAddr server;
  std::shared_ptr<mopapps::AppTcpConnection> tcp;
  bool connect_failed = false;
};

// A 64 B echo client on an open-loop virtual-time schedule. Each ping is
// timed from when it was due; the echo of ping k is complete once the
// stream has returned (k+1)*64 bytes.
struct Pinger {
  Conn* conn = nullptr;
  std::vector<SimTime> due;
  std::vector<SimTime> answered;
  uint64_t received = 0;
};

// Scaffolding shared by the relay workloads: the simulated world, its app
// connections and pingers, the sliced run and the per-layer readout.
class RelayWorld {
 public:
  RelayWorld(const moptest::WorldOptions& opts, mopeye::Config cfg, int run, Tracer* tracer)
      : run_(run), tracer_(tracer) {
    cfg.telemetry = tracer != nullptr;
    world_ = std::make_unique<moptest::TestWorld>(opts);
    start_status_ = world_->StartEngine(cfg);
    pool_before_ = moppkt::BufPool::Default().stats();
  }

  bool started() const { return start_status_.ok(); }
  moptest::TestWorld& w() { return *world_; }
  mopsim::EventLoop& loop() { return world_->loop(); }

  mopapps::App* AddApp(int uid, const std::string& label) {
    return world_->MakeApp(uid, "org.perfbench." + label, label);
  }

  Conn* AddConn(const mopapps::App* app, const moppkt::SocketAddr& server) {
    conns_.push_back(std::make_unique<Conn>());
    Conn* c = conns_.back().get();
    c->uid = app->uid();
    c->app = app->label();
    c->server = server;
    c->tcp = mopapps::AppTcpConnection::Create(&world_->stack(), app->uid());
    return c;
  }

  // Pingers connect at `start` (staggered) and ping every `interval` until
  // StopPings(); the stop is checked when each ping falls due.
  void AddPingers(const mopapps::App* app, int count, SimTime start, SimDuration interval) {
    for (int i = 0; i < count; ++i) {
      auto addr = world_->AddServer(moppkt::IpAddr(93, 80, 0, static_cast<uint8_t>(1 + i)), 7,
                                    moputil::Millis(2),
                                    [] { return std::make_unique<mopnet::EchoBehavior>(); });
      pingers_.push_back(std::make_unique<Pinger>());
      Pinger* p = pingers_.back().get();
      p->conn = AddConn(app, addr);
      p->conn->tcp->on_data = [this, p](std::span<const uint8_t> data) {
        p->received += data.size();
        while (p->answered.size() < p->due.size() &&
               p->received >= (p->answered.size() + 1) * kPingBytes) {
          p->answered.push_back(loop().Now());
        }
      };
      SimTime at = start + interval * i / count;
      loop().ScheduleAt(at, [this, p, interval] {
        p->conn->tcp->Connect(p->conn->server, [this, p, interval](moputil::Status st) {
          if (!st.ok()) {
            p->conn->connect_failed = true;
            return;
          }
          SchedulePing(p, loop().Now(), interval);
        });
      });
    }
  }
  void StopPings() { pings_stopped_ = true; }
  bool PingsSettled() const {
    if (!pings_stopped_) {
      return false;
    }
    for (const auto& p : pingers_) {
      if (!p->conn->connect_failed && p->answered.size() < p->due.size()) {
        return false;
      }
    }
    return true;
  }

  // Runs the loop in fixed virtual-time slices until `done()` holds at a
  // slice edge (or `deadline`), then closes the pingers and drains `drain`.
  // The slice grid is the same traced or not, so it cannot move a modeled
  // metric; traced, each slice is a span carrying counters sampled at its
  // edge.
  void Run(SimDuration slice, SimTime deadline, SimDuration drain,
           const std::function<bool()>& done) {
    ScopedSpan run_span(tracer_, "sim.run", run_);
    bool finished = false;
    while (!finished && loop().Now() < deadline) {
      RunSlice(loop().Now() + slice);
      finished = done();
    }
    completed_ = finished;
    pings_stopped_ = true;
    for (auto& p : pingers_) {
      p->conn->tcp->Close();
    }
    RunSlice(loop().Now() + drain);
  }
  bool completed() const { return completed_; }

  // Checks every connection's measurement record and every ping. Returns
  // each ping's relay-added latency in ms: the app round trip minus the same
  // exchange on the external socket.
  std::vector<double> CheckRecordsAndPings(Tally* tally) {
    std::vector<const mopeye::Measurement*> tcp_records;
    {
      ScopedSpan span(tracer_, "engine.store", run_);
      for (const auto& m : world_->engine().store().records()) {
        if (m.kind == mopeye::MeasureKind::kTcpConnect) {
          tcp_records.push_back(&m);
        } else {
          ++dns_records_;
        }
      }
    }
    std::map<moppkt::SocketAddr, std::vector<const mopeye::Measurement*>> by_server;
    for (const auto* m : tcp_records) {
      by_server[m->server].push_back(m);
    }
    size_t matched = 0;
    for (const auto& c : conns_) {
      auto it = by_server.find(c->server);
      size_t n = it == by_server.end() ? 0 : it->second.size();
      if (c->connect_failed) {
        tally->Check(n == 0, "record for a failed connect to " + c->server.ToString());
        continue;
      }
      matched += n;
      bool one = n == 1;
      tally->Check(one, moputil::StrFormat("%zu records for %s", n, c->server.ToString().c_str()));
      if (one) {
        const auto* m = it->second.front();
        tally->Check(m->uid == c->uid && m->app == c->app,
                     "record for " + c->server.ToString() + " attributed to " + m->app);
        record_of_[c->server] = m;
      }
    }
    tally->Check(matched == tcp_records.size(),
                 moputil::StrFormat("%zu TCP records match no connection",
                                    tcp_records.size() - matched));

    std::vector<moppkt::SocketAddr> servers;
    for (const auto& p : pingers_) {
      servers.push_back(p->conn->server);
    }
    auto marks = EchoMarksByRemote(world_->device().net().capture().records(), servers,
                                   kPingBytes);
    std::vector<double> added;
    for (size_t i = 0; i < pingers_.size(); ++i) {
      const Pinger& p = *pingers_[i];
      const StreamMarks& m = marks[p.conn->server];
      for (size_t k = 0; k < p.due.size(); ++k) {
        bool ok = k < p.answered.size() && k < m.out.size() && k < m.in.size();
        tally->Op(ok, Label("unanswered ping", k));
        if (ok) {
          SimDuration app_rtt = p.answered[k] - p.due[k];
          SimDuration wire_rtt = m.in[k] - m.out[k];
          added.push_back(moputil::ToMillis(app_rtt - wire_rtt));
        }
      }
      tally->Op(!p.conn->connect_failed, "ping connect failed");
    }
    return added;
  }

  const mopeye::Measurement* RecordOf(const moppkt::SocketAddr& server) const {
    auto it = record_of_.find(server);
    return it == record_of_.end() ? nullptr : it->second;
  }

  double CpuPercent(SimTime wall) const {
    return world_->engine().resources().CpuPercent(wall);
  }

  // Per-layer readings of a traced world (see PerLayerMetrics()).
  void ReadLayers(std::map<std::string, double>* out, uint64_t conns_ok, uint64_t conns_failed,
                  uint64_t app_bytes_in, uint64_t app_bytes_out) {
    auto& L = *out;
    auto& engine = world_->engine();
    const auto c = engine.counters();
    L["sim.events"] = static_cast<double>(events_);
    L["sim.run_s"] = tracer_->TotalSecondsOf("sim.run_until", run_);
    L["sim.ns_per_event"] = events_ > 0 ? L["sim.run_s"] * 1e9 / static_cast<double>(events_) : 0;
    L["sim.pending_peak"] = static_cast<double>(pending_peak_);
    auto* tun = world_->device().vpn_tun();
    const double pkts = static_cast<double>(tun->packets_out() + tun->packets_in());
    L["sim.events_per_pkt"] = pkts > 0 ? static_cast<double>(events_) / pkts : 0;
    const auto res = engine.resources();
    L["sim.busy_ms.reader"] = moputil::ToMillis(res.busy_reader);
    L["sim.busy_ms.writer"] = moputil::ToMillis(res.busy_writer);
    L["sim.busy_ms.main"] = moputil::ToMillis(res.busy_main);
    L["sim.busy_ms.workers"] = moputil::ToMillis(res.busy_workers);

    const auto& capture = world_->device().net().capture().records();
    L["net.capture_records"] = static_cast<double>(capture.size());
    double retx = 0;
    for (const auto& [remote, h] : HandshakesByRemote(capture)) {
      retx += h.syns > 1 ? 1 : 0;
    }
    L["net.syn_retx_handshakes"] = retx;
    L["net.bytes_per_socket_read"] =
        c.socket_read_events > 0 ? static_cast<double>(c.bytes_server_to_app) /
                                       static_cast<double>(c.socket_read_events)
                                 : 0;

    const auto pool = moppkt::BufPool::Default().stats();
    L["netpkt.acquires_per_pkt"] =
        pkts > 0 ? static_cast<double>(pool.acquires - pool_before_.acquires) / pkts : 0;
    L["netpkt.slab_allocs"] = static_cast<double>(pool.slab_allocs - pool_before_.slab_allocs);
    L["netpkt.copies"] = static_cast<double>(pool.copies - pool_before_.copies);
    L["netpkt.in_use_peak"] = static_cast<double>(pool.in_use_high_water);

    L["android.tun_packets_out"] = static_cast<double>(tun->packets_out());
    L["android.tun_packets_in"] = static_cast<double>(tun->packets_in());
    L["android.tun_outgoing_peak"] = static_cast<double>(tun->outgoing_high_water());
    L["android.mapper_parses_per_request"] =
        engine.mapper().requests() > 0 ? static_cast<double>(engine.mapper().parses()) /
                                             engine.mapper().requests()
                                       : 0;

    L["core.tun_packets"] = static_cast<double>(c.tun_packets);
    L["core.data_segments"] = static_cast<double>(c.data_segments);
    L["core.pure_acks_discarded"] = static_cast<double>(c.pure_acks_discarded);
    L["core.acks_coalesced"] = static_cast<double>(c.acks_coalesced);
    L["core.syn_duplicates"] = static_cast<double>(c.syn_duplicates);
    L["core.dns_queries"] = static_cast<double>(c.dns_queries);
    L["core.steal_handoffs"] = static_cast<double>(c.steal_handoffs);
    L["core.records"] = static_cast<double>(engine.store().size());
    L["core.reader_empty_polls"] = static_cast<double>(engine.tun_reader()->empty_polls());
    L["core.writer_queue_peak"] = static_cast<double>(engine.tun_writer()->queue_high_water());
    L["core.pkts_per_flush"] = c.lane_write_bursts > 0
                                   ? static_cast<double>(c.lane_write_packets) /
                                         static_cast<double>(c.lane_write_bursts)
                                   : 0;
    double lane_max = 0, lane_sum = 0;
    for (size_t i = 0; i < engine.lane_count(); ++i) {
      double v = static_cast<double>(engine.lane_counters(i).tun_packets);
      lane_max = std::max(lane_max, v);
      lane_sum += v;
    }
    L["core.lane_skew"] =
        lane_sum > 0 ? lane_max / (lane_sum / static_cast<double>(engine.lane_count())) : 0;

    if (const moptel::Registry* reg = engine.telemetry_registry()) {
      for (const char* stage : {"tun_read", "dispatch", "parse", "tcp", "socket_write",
                                "socket_read", "dns", "tun_write"}) {
        std::string metric = "mopeye_relay_stage_";
        metric.append(stage);
        metric.append("_ms");
        const moptel::Histogram* h = reg->FindHistogram(metric);
        moputil::LogQuantile merged = h != nullptr ? h->Merged() : moputil::LogQuantile();
        std::string key = "core.stage.";
        key.append(stage);
        bool any = merged.count() > 0;
        L[key + ".p50_us"] = any ? merged.Quantile(50.0) * 1000.0 : 0;
        L[key + ".p95_us"] = any ? merged.Quantile(95.0) * 1000.0 : 0;
      }
    }

    L["apps.conns_ok"] = static_cast<double>(conns_ok);
    L["apps.conns_failed"] = static_cast<double>(conns_failed);
    L["apps.bytes_in"] = static_cast<double>(app_bytes_in);
    L["apps.bytes_out"] = static_cast<double>(app_bytes_out);
  }

  const std::vector<std::unique_ptr<Conn>>& conns() const { return conns_; }
  const std::vector<std::unique_ptr<Pinger>>& pingers() const { return pingers_; }
  size_t dns_records() const { return dns_records_; }

 private:
  void SchedulePing(Pinger* p, SimTime at, SimDuration interval) {
    loop().ScheduleAt(at, [this, p, interval] {
      if (pings_stopped_) {
        return;
      }
      p->due.push_back(loop().Now());
      p->conn->tcp->SendBytes(kPingBytes);
      SchedulePing(p, loop().Now() + interval, interval);
    });
  }

  void RunSlice(SimTime until) {
    ScopedSpan span(tracer_, "sim.run_until", run_);
    size_t events = loop().RunUntil(until);
    events_ += events;
    pending_peak_ = std::max(pending_peak_, loop().pending_events());
    if (tracer_ != nullptr) {
      const auto c = world_->engine().counters();
      span.Sample("virtual_ms", moputil::ToMillis(until));
      span.Sample("events", static_cast<double>(events));
      span.Sample("pending_events", static_cast<double>(loop().pending_events()));
      span.Sample("core.tun_packets", static_cast<double>(c.tun_packets));
      span.Sample("core.bytes_app_to_server", static_cast<double>(c.bytes_app_to_server));
      span.Sample("core.bytes_server_to_app", static_cast<double>(c.bytes_server_to_app));
      span.Sample("core.connects_ok", static_cast<double>(c.connects_ok));
      span.Sample("android.tun_outgoing_depth",
                  static_cast<double>(world_->device().vpn_tun()->OutgoingDepth()));
    }
  }

  int run_;
  Tracer* tracer_;
  // Declared first so the world outlives every connection and callback.
  std::unique_ptr<moptest::TestWorld> world_;
  moputil::Status start_status_;
  moppkt::BufPool::Stats pool_before_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<Pinger>> pingers_;
  bool pings_stopped_ = false;
  bool completed_ = false;
  uint64_t events_ = 0;
  size_t pending_peak_ = 0;
  size_t dns_records_ = 0;
  std::map<moppkt::SocketAddr, const mopeye::Measurement*> record_of_;
};

// Goodput over the steady window between 10% and 90% of the payload: it
// leaves out the SYN burst at the start and the stragglers at the end.
// `timeline` holds (time, cumulative bytes) in time order.
double SteadyMbps(const std::vector<std::pair<SimTime, uint64_t>>& timeline, uint64_t total) {
  auto at_share = [&](double share) {
    auto target = static_cast<uint64_t>(share * static_cast<double>(total));
    auto it = std::lower_bound(timeline.begin(), timeline.end(), target,
                               [](const auto& e, uint64_t t) { return e.second < t; });
    return it == timeline.end() ? timeline.back() : *it;
  };
  if (timeline.empty()) {
    return 0;
  }
  auto lo = at_share(0.1);
  auto hi = at_share(0.9);
  if (hi.first <= lo.first) {
    return 0;
  }
  return static_cast<double>(hi.second - lo.second) * 8.0 /
         moputil::ToSeconds(hi.first - lo.first) / 1e6;
}

void AddTimingPair(WorldResult* out, const std::string& base, const std::vector<double>& v,
                   Tally* tally) {
  // A _p99 needs 1000 samples (ten beyond it); fewer is a failed check, not
  // a quietly shallower percentile.
  tally->Check(SamplesBeyond(v.size(), 99.0) >= kMinBeyond,
               moputil::StrFormat("%s: only %zu samples for p99", base.c_str(), v.size()));
  out->modeled.push_back({base + "_p50_ms", "ms", v.empty() ? 0 : Percentile(v, 50.0), v.size()});
  out->modeled.push_back({base + "_p99_ms", "ms", v.empty() ? 0 : Percentile(v, 99.0), v.size()});
}

// ---- bulk_download / bulk_upload ----

constexpr int kBulkApps = 8;
constexpr int kBulkClients = 48;
constexpr size_t kBulkBytes = 2u << 20;
constexpr int kBulkPingers = 8;
constexpr SimDuration kBulkPingInterval = moputil::Millis(1);
// With no payload progress for this long, the load is over: transfers that
// are still short then fail their checks.
constexpr SimDuration kBulkStall = moputil::Millis(200);
// An upload ends like an HTTP POST: the server answers once it holds the
// whole body, and the app closes when the answer arrives.
constexpr size_t kUploadReplyBytes = 16;

// Counts what an upload server receives, and when; replies once the whole
// upload has arrived.
class CountingSink : public mopnet::SinkBehavior {
 public:
  CountingSink(uint64_t* bytes, std::vector<std::pair<SimTime, uint64_t>>* timeline,
               uint64_t* total)
      : bytes_(bytes), timeline_(timeline), total_(total) {}
  void OnData(mopnet::ServerConn& conn, std::span<const uint8_t> data) override {
    *bytes_ += data.size();
    *total_ += data.size();
    timeline_->emplace_back(conn.loop()->Now(), *total_);
    if (*bytes_ == kBulkBytes) {
      conn.SendBytes(kUploadReplyBytes);
    }
  }

 private:
  uint64_t* bytes_;
  std::vector<std::pair<SimTime, uint64_t>>* timeline_;
  uint64_t* total_;
};

WorldResult RunBulkWorld(bool upload, uint64_t seed, int run, Tracer* tracer) {
  WorldResult out;
  ScopedSpan world_span(tracer, "world", run);
  const double t_setup = WallSeconds();
  moptest::WorldOptions opts;
  opts.seed = seed;
  opts.first_hop_one_way = moputil::Micros(200);
  opts.default_path_one_way = moputil::Millis(2);
  opts.uplink_bps = 10e9;
  opts.downlink_bps = 10e9;

  // Declared before the world: its servers and callbacks point into these.
  std::vector<uint64_t> sink_bytes(kBulkClients, 0);
  std::vector<std::pair<SimTime, uint64_t>> timeline;
  uint64_t delivered = 0;
  size_t complete = 0;
  std::unique_ptr<RelayWorld> rw;
  std::vector<Conn*> clients;
  {
    ScopedSpan span(tracer, "world.setup", run);
    rw = std::make_unique<RelayWorld>(opts, ScaledRelayConfig(), run, tracer);
    if (!rw->started()) {
      out.tally.Op(false, "engine start failed");
      return out;
    }
    std::vector<mopapps::App*> apps;
    for (int a = 0; a < kBulkApps; ++a) {
      apps.push_back(rw->AddApp(10150 + a, "Bulk" + std::to_string(a)));
    }
    timeline.reserve(upload ? 80000 : 160000);
    for (int i = 0; i < kBulkClients; ++i) {
      moppkt::IpAddr ip(93, 50, static_cast<uint8_t>(i / 250), static_cast<uint8_t>(1 + i % 250));
      mopnet::BehaviorFactory factory;
      if (upload) {
        uint64_t* bytes = &sink_bytes[static_cast<size_t>(i)];
        factory = [bytes, &timeline, &delivered] {
          return std::make_unique<CountingSink>(bytes, &timeline, &delivered);
        };
      } else {
        factory = [] { return std::make_unique<mopnet::BulkSourceBehavior>(kBulkBytes); };
      }
      auto addr = rw->w().AddServer(ip, 80, moputil::Millis(2), std::move(factory));
      Conn* c = rw->AddConn(apps[static_cast<size_t>(i % kBulkApps)], addr);
      clients.push_back(c);
      auto* loop = &rw->loop();
      if (upload) {
        c->tcp->on_data = [&complete, c](std::span<const uint8_t>) {
          if (c->tcp->bytes_received() == kUploadReplyBytes) {
            ++complete;
            c->tcp->Close();
          }
        };
      } else {
        c->tcp->on_data = [loop, &timeline, &delivered, &complete, c](
                              std::span<const uint8_t> data) {
          delivered += data.size();
          timeline.emplace_back(loop->Now(), delivered);
          if (c->tcp->bytes_received() == kBulkBytes) {
            ++complete;
            c->tcp->Close();
          }
        };
      }
      // A short stagger keeps the SYN burst out of most of the window.
      loop->Schedule(moputil::Micros(500) * i, [c, upload] {
        c->tcp->Connect(c->server, [c, upload](moputil::Status st) {
          if (!st.ok()) {
            c->connect_failed = true;
            return;
          }
          if (upload) {
            c->tcp->SendBytes(kBulkBytes);
          }
        });
      });
    }
    rw->AddPingers(rw->AddApp(10190, "Ping"), kBulkPingers, moputil::Millis(1),
                   kBulkPingInterval);
  }
  out.setup_s = WallSeconds() - t_setup;

  // The load is over once every download has arrived or every upload has
  // been answered, or once payload has stopped moving for kBulkStall; the
  // checks then report any short transfer.
  const uint64_t expected = uint64_t{kBulkClients} * kBulkBytes;
  uint64_t last_delivered = 0;
  SimTime last_progress = 0;
  const double t_work = WallSeconds();
  rw->Run(moputil::Millis(10), moputil::Seconds(120), moputil::Millis(50), [&] {
    SimTime now = rw->loop().Now();
    if (delivered != last_delivered) {
      last_delivered = delivered;
      last_progress = now;
    }
    if (complete == clients.size() || now - last_progress >= kBulkStall) {
      rw->StopPings();
    }
    return rw->PingsSettled();
  });
  out.work_s = WallSeconds() - t_work;

  ScopedSpan check_span(tracer, "check", run);
  Tally& tally = out.tally;
  tally.Check(rw->completed(), "world did not finish before its deadline");
  uint64_t ok_bytes = 0, app_in = 0, app_out = 0;
  for (size_t i = 0; i < clients.size(); ++i) {
    const Conn& c = *clients[i];
    uint64_t got = upload ? sink_bytes[i] : c.tcp->bytes_received();
    bool ok = !c.connect_failed && got == kBulkBytes &&
              (!upload || c.tcp->bytes_received() == kUploadReplyBytes);
    tally.Op(ok, moputil::StrFormat("bulk client %zu moved %llu of %zu bytes (%llu B back)", i,
                                    static_cast<unsigned long long>(got), kBulkBytes,
                                    static_cast<unsigned long long>(c.tcp->bytes_received())));
    ok_bytes += ok ? got : 0;
  }
  for (const auto& c : rw->conns()) {
    app_in += c->tcp->bytes_received();
    app_out += c->tcp->bytes_sent();
  }
  std::vector<double> added = rw->CheckRecordsAndPings(&tally);

  out.work_units = static_cast<double>(ok_bytes) / 1e6;
  out.modeled.push_back(
      {"relay_mbps", "Mbps", SteadyMbps(timeline, expected), 0});
  AddTimingPair(&out, "data_added", added, &tally);
  SimTime end = timeline.empty() ? 0 : timeline.back().first;
  out.modeled.push_back({"modeled_cpu_pct", "%", rw->CpuPercent(end), 0});

  if (tracer != nullptr) {
    uint64_t conns_failed = 0;
    for (const auto& c : rw->conns()) {
      conns_failed += c->connect_failed ? 1 : 0;
    }
    rw->ReadLayers(&out.layers, rw->conns().size() - conns_failed, conns_failed, app_in,
                   app_out);
  }
  return out;
}

// ---- short_flows ----

constexpr int kShortApps = 24;
constexpr int kShortFlows = 1500;
constexpr double kShortFlowsPerSecond = 100;
// Every short-flow server path drops this share of SYNs, so a few percent
// of handshakes are retransmitted: the case Karn's rule exists for.
constexpr double kSynLoss = 0.03;
constexpr int kShortPingers = 4;
constexpr SimDuration kShortPingInterval = moputil::Millis(40);
// After its response a connection idles this long before the app closes it,
// as an HTTP/1.1 client keeps a connection alive for reuse.
constexpr SimDuration kShortKeepAlive = moputil::Seconds(1);

struct Flow {
  mopapps::App* app = nullptr;
  std::string domain;
  size_t response = 0;
  Conn* conn = nullptr;  // set once DNS resolves
  bool dns_failed = false;
  bool done = false;
  uint64_t received = 0;
  SimTime done_at = 0;
};

}  // namespace

WorldResult RunBulkDownloadWorld(uint64_t world_seed, int run_index, Tracer* tracer) {
  return RunBulkWorld(false, world_seed, run_index, tracer);
}

WorldResult RunBulkUploadWorld(uint64_t world_seed, int run_index, Tracer* tracer) {
  return RunBulkWorld(true, world_seed, run_index, tracer);
}

WorldResult RunShortFlowsWorld(uint64_t seed, int run, Tracer* tracer) {
  WorldResult out;
  ScopedSpan world_span(tracer, "world", run);
  const double t_setup = WallSeconds();
  moptest::WorldOptions opts;
  opts.seed = seed;
  opts.first_hop_one_way = moputil::Millis(2);
  opts.default_path_one_way = moputil::Millis(15);

  // Declared before the world: its callbacks point into these.
  std::vector<Flow> flows(kShortFlows);
  size_t settled = 0;
  std::unique_ptr<RelayWorld> rw;
  {
    ScopedSpan span(tracer, "world.setup", run);
    rw = std::make_unique<RelayWorld>(opts, mopbase::MopEyeConfig(), run, tracer);
    if (!rw->started()) {
      out.tally.Op(false, "engine start failed");
      return out;
    }
    std::vector<mopapps::App*> apps;
    for (int a = 0; a < kShortApps; ++a) {
      apps.push_back(rw->AddApp(10200 + a, "Short" + std::to_string(a)));
    }
    moputil::Rng rng(seed, 0x73686f7274);
    SimTime due = 0;
    for (int i = 0; i < kShortFlows; ++i) {
      Flow& f = flows[static_cast<size_t>(i)];
      f.app = apps[static_cast<size_t>(rng.UniformInt(0, kShortApps - 1))];
      f.response = static_cast<size_t>(rng.UniformInt(512, 8192));
      f.domain = moputil::StrFormat("f%d.perfbench.test", i);
      moppkt::IpAddr ip(93, 70, static_cast<uint8_t>(i / 250), static_cast<uint8_t>(1 + i % 250));
      auto one_way = moputil::Millis(rng.Uniform(5, 60));
      auto addr = rw->w().AddServer(ip, 80, one_way);
      rw->w().paths().SetPath(ip, std::make_shared<moputil::FixedDelay>(one_way), kSynLoss);
      rw->w().farm().resolution().Add(f.domain, ip);
      // Open loop: Poisson arrivals at a rate below saturation.
      due += moputil::Millis(rng.Exponential(1000.0 / kShortFlowsPerSecond));
      rw->loop().ScheduleAt(due, [&rw, &f, &settled, addr] {
        f.app->Resolve(f.domain, [&rw, &f, &settled, addr](
                                     moputil::Result<mopapps::DnsResult> r) {
          if (!r.ok() || r.value().address != addr.ip) {
            f.dns_failed = true;
            ++settled;
            return;
          }
          f.conn = rw->AddConn(f.app, addr);
          auto* loop = &rw->loop();
          f.conn->tcp->on_data = [loop, &f, &settled](std::span<const uint8_t> data) {
            f.received += data.size();
            if (!f.done && f.received >= f.response) {
              f.done = true;
              f.done_at = loop->Now();
              loop->Schedule(kShortKeepAlive, [&f, &settled] {
                f.conn->tcp->Close();
                ++settled;
              });
            }
          };
          f.conn->tcp->Connect(addr, [&f, &settled](moputil::Status st) {
            if (!st.ok()) {
              f.conn->connect_failed = true;
              ++settled;
              return;
            }
            f.conn->tcp->Send(mopnet::EncodeSizedRequest(f.response));
          });
        });
      });
    }
    rw->AddPingers(rw->AddApp(10290, "Ping"), kShortPingers, moputil::Millis(5),
                   kShortPingInterval);
  }
  out.setup_s = WallSeconds() - t_setup;

  const double t_work = WallSeconds();
  rw->Run(moputil::Millis(100), moputil::Seconds(300), moputil::Millis(500), [&] {
    if (settled == flows.size()) {
      rw->StopPings();
    }
    return rw->PingsSettled();
  });
  out.work_s = WallSeconds() - t_work;

  ScopedSpan check_span(tracer, "check", run);
  Tally& tally = out.tally;
  tally.Check(rw->completed(), "world did not finish before its deadline");
  auto handshakes = HandshakesByRemote(rw->w().device().net().capture().records());
  std::vector<double> connect_added, rtt_err;
  uint64_t completed = 0, network_failures = 0;
  SimTime end = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    if (f.dns_failed || f.conn == nullptr) {
      tally.Op(false, Label("DNS lookup failed for flow", i));
      continue;
    }
    const Handshake* h = nullptr;
    if (auto it = handshakes.find(f.conn->server); it != handshakes.end()) {
      h = &it->second;
    }
    if (f.conn->connect_failed) {
      // Every SYN lost on the path: the relay must report the failure to
      // the app (and record nothing). A correct outcome, counted apart.
      bool wire_failed = h != nullptr && !h->complete();
      tally.Op(wire_failed, Label("connect failed with a completed external handshake", i));
      network_failures += wire_failed ? 1 : 0;
      continue;
    }
    bool ok = f.done && f.received == f.response && h != nullptr && h->complete();
    tally.Op(ok, moputil::StrFormat("flow %zu: %llu of %zu response bytes", i,
                                    static_cast<unsigned long long>(f.received), f.response));
    if (!ok) {
      continue;
    }
    ++completed;
    end = std::max(end, f.done_at);
    connect_added.push_back(moputil::ToMillis(f.conn->tcp->connect_latency() - h->connect_time()));
  }
  std::vector<double> added = rw->CheckRecordsAndPings(&tally);
  size_t lookups = 0;
  for (const auto& f : flows) {
    lookups += f.conn != nullptr ? 1 : 0;
  }
  tally.Check(rw->dns_records() == lookups,
              moputil::StrFormat("%zu DNS records for %zu lookups", rw->dns_records(), lookups));
  for (const auto& f : flows) {
    if (f.conn == nullptr || !f.done) {
      continue;
    }
    const Handshake& h = handshakes[f.conn->server];
    if (const mopeye::Measurement* m = rw->RecordOf(f.conn->server)) {
      rtt_err.push_back(std::abs(moputil::ToMillis(m->rtt - h.karn_rtt())));
    }
  }
  for (const auto& p : rw->pingers()) {
    if (!p->answered.empty()) {
      end = std::max(end, p->answered.back());
    }
  }

  out.work_units = static_cast<double>(completed);
  AddTimingPair(&out, "connect_added", connect_added, &tally);
  AddTimingPair(&out, "data_added", added, &tally);
  tally.Check(SamplesBeyond(rtt_err.size(), 99.0) >= kMinBeyond, "too few RTT records for p99");
  out.modeled.push_back(
      {"rtt_err_p99_ms", "ms", rtt_err.empty() ? 0 : Percentile(rtt_err, 99.0), rtt_err.size()});
  out.modeled.push_back({"modeled_cpu_pct", "%", rw->CpuPercent(end), 0});
  out.modeled.push_back({"network_failures", "count", static_cast<double>(network_failures), 0});

  if (tracer != nullptr) {
    uint64_t failed = 0, app_in = 0, app_out = 0;
    for (const auto& c : rw->conns()) {
      failed += c->connect_failed ? 1 : 0;
      app_in += c->tcp->bytes_received();
      app_out += c->tcp->bytes_sent();
    }
    rw->ReadLayers(&out.layers, rw->conns().size() - failed, failed, app_in, app_out);
  }
  return out;
}

}  // namespace perfbench
