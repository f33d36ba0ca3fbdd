// google-benchmark micro benches over the relay's hot paths: packet
// parse/build, checksums, DNS codec, the TCP state machine, and the
// real-thread queue algorithms (oldPut vs newPut) under contention.
//
// The README performance section records before/after numbers for the
// zero-copy refactor; re-run with --benchmark_min_time=0.2s when updating it.
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/presets.h"
#include "concurrent/packet_queue.h"
#include "core/tcp_state_machine.h"
#include "netpkt/checksum.h"
#include "netpkt/dns.h"
#include "netpkt/packet.h"
#include "netpkt/packet_buf.h"
#include "netpkt/tcp.h"
#include "netpkt/tcp_template.h"
#include "telemetry/metrics.h"
#include "tests/test_world.h"
#include "util/rng.h"
#include "util/time.h"

namespace {

moppkt::FlowKey BenchFlow() {
  moppkt::FlowKey f;
  f.local = {moppkt::IpAddr(10, 0, 0, 2), 40000};
  f.remote = {moppkt::IpAddr(93, 1, 2, 3), 443};
  return f;
}

void BM_ChecksumPayload(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moppkt::Checksum(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChecksumPayload)->Arg(64)->Arg(1460);

// Forced-implementation variants so the scalar/SSE2/AVX2 gap is visible in
// one run; unsupported impls are skipped rather than silently falling back.
void BM_ChecksumPayloadImpl(benchmark::State& state) {
  auto impl = static_cast<moppkt::ChecksumImpl>(state.range(0));
  if (!moppkt::ChecksumImplSupported(impl)) {
    state.SkipWithError("impl not supported on this machine");
    return;
  }
  state.SetLabel(moppkt::ChecksumImplName(impl));
  std::vector<uint8_t> data(static_cast<size_t>(state.range(1)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moppkt::ChecksumPartialWith(impl, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(1));
}
BENCHMARK(BM_ChecksumPayloadImpl)
    ->ArgsProduct({{static_cast<int64_t>(moppkt::ChecksumImpl::kScalar),
                    static_cast<int64_t>(moppkt::ChecksumImpl::kSse2),
                    static_cast<int64_t>(moppkt::ChecksumImpl::kAvx2)},
                   {64, 1460, 9000}});

void BM_BuildTcpDatagram(benchmark::State& state) {
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0x42);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 443;
  spec.dst_port = 40000;
  spec.seq = 1;
  spec.ack = 2;
  spec.flags = moppkt::PshAckFlag();
  spec.payload = payload;
  moppkt::IpAddr src(93, 1, 2, 3), dst(10, 0, 0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moppkt::BuildTcpDatagram(spec, src, dst));
  }
}
BENCHMARK(BM_BuildTcpDatagram)->Arg(0)->Arg(1460);

void BM_ParsePacket(benchmark::State& state) {
  // View-based parse: no ownership transfer, no copy — the packet is parsed
  // in place exactly as the engine parses a pooled tun-read buffer.
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0x42);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 40000;
  spec.dst_port = 443;
  spec.flags = moppkt::PshAckFlag();
  spec.payload = payload;
  auto pkt = moppkt::BuildTcpDatagram(spec, moppkt::IpAddr(10, 0, 0, 2),
                                      moppkt::IpAddr(93, 1, 2, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(moppkt::ParsePacket(pkt));
  }
}
BENCHMARK(BM_ParsePacket)->Arg(0)->Arg(1460);

void BM_BuildTcpDatagramInto(benchmark::State& state) {
  // In-place build into a pooled slab: the allocation-free variant of
  // BM_BuildTcpDatagram.
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0x42);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 443;
  spec.dst_port = 40000;
  spec.seq = 1;
  spec.ack = 2;
  spec.flags = moppkt::PshAckFlag();
  spec.payload = payload;
  moppkt::IpAddr src(93, 1, 2, 3), dst(10, 0, 0, 2);
  moppkt::BufPool pool;
  moppkt::PacketBuf buf = pool.Acquire();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        moppkt::BuildTcpDatagramInto(spec, src, dst, 7, 64, buf.writable()));
  }
}
BENCHMARK(BM_BuildTcpDatagramInto)->Arg(0)->Arg(1460);

void BM_TemplateEmit(benchmark::State& state) {
  // Per-flow prototype stamping (header memcpy + RFC 1624 incremental
  // checksums): what the engine does for every steady-state segment.
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0x42);
  moppkt::IpAddr src(93, 1, 2, 3), dst(10, 0, 0, 2);
  moppkt::TcpPacketTemplate tmpl(src, dst, 443, 40000);
  moppkt::BufPool pool;
  moppkt::PacketBuf buf = pool.Acquire();
  uint16_t ip_id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmpl.Emit(1, 2, moppkt::PshAckFlag(), 65535, ip_id++,
                                       payload, buf.writable()));
  }
}
BENCHMARK(BM_TemplateEmit)->Arg(0)->Arg(1460);

void BM_ChecksumIncremental(benchmark::State& state) {
  // RFC 1624 header-edit update vs re-summing the packet.
  uint16_t csum = 0x1234;
  uint16_t word = 0;
  for (auto _ : state) {
    csum = moppkt::ChecksumIncrementalUpdate(csum, word, static_cast<uint16_t>(word + 1));
    ++word;
    benchmark::DoNotOptimize(csum);
  }
}
BENCHMARK(BM_ChecksumIncremental);

void BM_RelayHotPath(benchmark::State& state) {
  // The full steady-state relay of one 1460-byte data segment: pooled parse
  // -> TCP state machine -> template-stamped ACK, zero allocations.
  std::vector<uint8_t> payload(1460, 0x55);
  moppkt::FlowKey flow = BenchFlow();
  moppkt::BufPool pool;

  // Prebuild the inbound data packet once; each iteration re-parses it from
  // a pooled buffer like a fresh tun read.
  moppkt::TcpSegmentSpec data_spec;
  data_spec.src_port = flow.local.port;
  data_spec.dst_port = flow.remote.port;
  data_spec.seq = 101;
  data_spec.ack = 5001;
  data_spec.flags = moppkt::PshAckFlag();
  data_spec.payload = payload;
  auto wire = moppkt::BuildTcpDatagram(data_spec, flow.local.ip, flow.remote.ip);
  moppkt::PacketBuf in = pool.AcquireCopy(wire);
  moppkt::PacketBuf out = pool.Acquire();
  moppkt::TcpPacketTemplate tmpl(flow.remote.ip, flow.local.ip, flow.remote.port,
                                 flow.local.port);

  mopeye::TcpStateMachine sm(flow, 5000, 1460, 65535);
  moppkt::TcpSegment syn;
  syn.flags = moppkt::SynFlag();
  syn.seq = 100;
  sm.NoteSyn(syn);
  (void)sm.MakeSynAck();
  moppkt::TcpSegment ack;
  ack.flags = moppkt::AckFlag();
  ack.seq = 101;
  ack.ack = 5001;
  (void)sm.OnAppSegment(ack);

  uint16_t ip_id = 0;
  uint32_t expected_seq = 101;
  for (auto _ : state) {
    auto parsed = moppkt::ParsePacket(in.bytes());
    auto seg = *parsed.value().tcp;
    seg.seq = expected_seq;  // keep the segment in-order across iterations
    auto sm_out = sm.OnAppSegment(seg);
    benchmark::DoNotOptimize(sm_out.to_socket.data());
    out.set_size(tmpl.Emit(sm.snd_nxt(), sm.rcv_nxt(), moppkt::AckFlag(), 65535,
                           ip_id++, {}, out.writable()));
    expected_seq += 1460;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1460);
}
BENCHMARK(BM_RelayHotPath);

// ---- Per-packet relay iteration, with and without telemetry ----
//
// The engine's actual per-segment path is wider than the BM_RelayHotPath
// kernel: every tun read is copied into a pooled buffer, hops the
// TunReader->lane queue, is lane-dispatched by flow hash, looked up in the
// flow table, parsed, run through the state machine, and the stamped reply
// hops the lane->TunWriter queue. Both variants below run that full
// iteration and draw the same lognormal stage-cost samples the engine's
// DelayModels produce; the telemetry variant additionally performs the three
// per-segment stage observations (dispatch, parse, tcp) the engine adds with
// Config::telemetry on. The README records the throughput delta between the
// two; the acceptance bar is <= 2%.
struct RelayIterationFixture {
  static constexpr size_t kTickMask = 4095;

  std::vector<uint8_t> payload = std::vector<uint8_t>(1460, 0x55);
  moppkt::FlowKey flow = BenchFlow();
  moppkt::BufPool pool;
  mopcc::PacketQueue<moppkt::PacketBuf> read_q{mopcc::PutMode::kNewPut};
  mopcc::PacketQueue<moppkt::PacketBuf> write_q{mopcc::PutMode::kNewPut};
  std::unordered_map<moppkt::FlowKey, int, moppkt::FlowKeyHash> flows;
  std::vector<uint8_t> wire;
  moppkt::TcpPacketTemplate tmpl{flow.remote.ip, flow.local.ip, flow.remote.port,
                                 flow.local.port};
  mopeye::TcpStateMachine sm{flow, 5000, 1460, 65535};
  std::vector<int64_t> ticks = std::vector<int64_t>(kTickMask + 1);

  RelayIterationFixture() {
    moppkt::TcpSegmentSpec data_spec;
    data_spec.src_port = flow.local.port;
    data_spec.dst_port = flow.remote.port;
    data_spec.seq = 101;
    data_spec.ack = 5001;
    data_spec.flags = moppkt::PshAckFlag();
    data_spec.payload = payload;
    wire = moppkt::BuildTcpDatagram(data_spec, flow.local.ip, flow.remote.ip);

    // A realistic uid mix in the flow table so the lookup is not a
    // single-entry cache hit.
    for (int i = 0; i < 64; ++i) {
      moppkt::FlowKey k = flow;
      k.local.port = static_cast<uint16_t>(40000 + i);
      flows[k] = 10150 + (i % 4);
    }

    moppkt::TcpSegment syn;
    syn.flags = moppkt::SynFlag();
    syn.seq = 100;
    sm.NoteSyn(syn);
    (void)sm.MakeSynAck();
    moppkt::TcpSegment ack;
    ack.flags = moppkt::AckFlag();
    ack.seq = 101;
    ack.ack = 5001;
    (void)sm.OnAppSegment(ack);

    // Pre-sample stage costs from the same distribution family the engine's
    // cost models use (engine.cc samples these regardless of telemetry; the
    // telemetry variant pays only the ms conversion and the Observe).
    moputil::Rng rng(0x7e1e);
    moputil::LogNormalDelay cost(moputil::Micros(9), 0.35, moputil::Micros(3),
                                 moputil::Micros(120));
    for (int64_t& t : ticks) t = cost.Sample(rng);
  }

  // One full relay iteration; returns the sampled stage-cost base index.
  template <typename Telemetry>
  void Run(benchmark::State& state, Telemetry&& observe) {
    uint16_t ip_id = 0;
    uint32_t expected_seq = 101;
    size_t it = 0;
    for (auto _ : state) {
      moppkt::PacketBuf in = pool.AcquireCopy(wire);  // tun read -> pooled buf
      read_q.Put(std::move(in));                      // TunReader -> lane hop
      moppkt::PacketBuf pkt = std::move(*read_q.TryTake());
      size_t lane = moppkt::FlowLaneOf(flow, 4);  // flow-affine dispatch
      benchmark::DoNotOptimize(lane);             // the engine computes this either way
      auto fit = flows.find(flow);                // per-packet flow-table lookup
      benchmark::DoNotOptimize(fit->second);
      auto parsed = moppkt::ParsePacket(pkt.bytes());
      auto seg = *parsed.value().tcp;
      seg.seq = expected_seq;  // keep the segment in-order across iterations
      auto sm_out = sm.OnAppSegment(seg);
      benchmark::DoNotOptimize(sm_out.to_socket.data());
      moppkt::PacketBuf out = pool.Acquire();
      out.set_size(tmpl.Emit(sm.snd_nxt(), sm.rcv_nxt(), moppkt::AckFlag(), 65535,
                             ip_id++, {}, out.writable()));
      write_q.Put(std::move(out));  // lane -> TunWriter hop
      moppkt::PacketBuf flushed = std::move(*write_q.TryTake());
      benchmark::DoNotOptimize(flushed.bytes().data());
      // The engine samples its three stage costs whether or not telemetry is
      // on; both variants consume them, only one observes them.
      size_t base = (it += 3) & kTickMask;
      int64_t dispatch_t = ticks[base];
      int64_t parse_t = ticks[(base + 1) & kTickMask];
      int64_t tcp_t = ticks[(base + 2) & kTickMask];
      benchmark::DoNotOptimize(dispatch_t + parse_t + tcp_t);
      observe(lane, dispatch_t, parse_t, tcp_t);
      expected_seq += 1460;
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1460);
  }
};

void BM_HistogramObserve(benchmark::State& state) {
  // One stage-histogram observation with engine-like lognormal samples: the
  // unit cost the per-segment telemetry hooks pay (cell-table fast path; the
  // exact log() fallback only on bucket-boundary slivers).
  moptel::Registry registry(4);
  moptel::Histogram* h = registry.AddHistogram("bench_ms", "bench");
  moputil::Rng rng(0x7e1e);
  moputil::LogNormalDelay cost(moputil::Micros(9), 0.35, moputil::Micros(3),
                               moputil::Micros(120));
  constexpr size_t kMask = 4095;
  std::vector<double> ms(kMask + 1);
  for (double& v : ms) v = moputil::ToMillis(cost.Sample(rng));
  size_t i = 0;
  for (auto _ : state) {
    h->Observe(1, ms[i++ & kMask]);
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_RelayPerPacket(benchmark::State& state) {
  RelayIterationFixture fx;
  fx.Run(state, [](size_t, int64_t, int64_t, int64_t) {});
}
BENCHMARK(BM_RelayPerPacket);

void BM_RelayPerPacketTelemetry(benchmark::State& state) {
  RelayIterationFixture fx;
  moptel::Registry registry(4);
  moptel::Histogram* stage_dispatch =
      registry.AddHistogram("mopeye_relay_stage_dispatch_ms", "bench");
  moptel::Histogram* stage_parse =
      registry.AddHistogram("mopeye_relay_stage_parse_ms", "bench");
  moptel::Histogram* stage_tcp = registry.AddHistogram("mopeye_relay_stage_tcp_ms", "bench");
  fx.Run(state, [&](size_t lane, int64_t dispatch_t, int64_t parse_t, int64_t tcp_t) {
    stage_dispatch->Observe(lane, moputil::ToMillis(dispatch_t));
    stage_parse->Observe(lane, moputil::ToMillis(parse_t));
    stage_tcp->Observe(lane, moputil::ToMillis(tcp_t));
  });
}
BENCHMARK(BM_RelayPerPacketTelemetry);

// Engine-level relay throughput, telemetry off vs on. The per-packet kernel
// above is an adversarial floor: it strips a relayed segment down to ~250 ns,
// so even a few nanoseconds of instrumentation read as several percent. This
// one answers the question the README records — what Config::telemetry costs
// the actual relay — by pushing the same fixed bulk workload through the real
// engine and wall-clock timing it end to end.
void BM_EngineRelay(benchmark::State& state) {
  const bool telemetry = state.range(0) != 0;
  constexpr int kClients = 6;
  constexpr size_t kBytesPerClient = 2 * 1024 * 1024;
  uint64_t relayed = 0;
  for (auto _ : state) {
    moptest::WorldOptions opts;
    opts.seed = 0x5eed;
    opts.first_hop_one_way = moputil::Micros(200);
    opts.default_path_one_way = moputil::Millis(2);
    // Fat link so the relay engine, not the radio, is the bottleneck.
    opts.uplink_bps = 10e9;
    opts.downlink_bps = 10e9;
    moptest::TestWorld w(opts);
    mopeye::Config cfg = mopbase::MopEyeConfig();
    cfg.worker_lanes = 4;
    cfg.telemetry = telemetry;
    if (!w.StartEngine(cfg).ok()) {
      state.SkipWithError("engine start failed");
      return;
    }
    w.MakeApp(10150, "com.example.bulk", "Bulk");
    std::vector<std::shared_ptr<mopapps::AppTcpConnection>> conns;
    for (int i = 0; i < kClients; ++i) {
      auto addr = w.AddServer(
          moppkt::IpAddr(93, 70, 0, static_cast<uint8_t>(1 + i)), 80,
          moputil::Millis(2),
          [kBytesPerClient] { return std::make_unique<mopnet::BulkSourceBehavior>(kBytesPerClient); });
      auto conn = mopapps::AppTcpConnection::Create(&w.stack(), 10150);
      conns.push_back(conn);
      w.loop().Schedule(moputil::Millis(5) * i,
                        [conn, addr] { conn->Connect(addr, [](moputil::Status) {}); });
    }
    w.loop().RunUntil(moputil::Seconds(120));
    for (const auto& conn : conns) relayed += conn->bytes_received();
  }
  state.SetBytesProcessed(static_cast<int64_t>(relayed));
}
BENCHMARK(BM_EngineRelay)->Arg(0)->Arg(1)->ArgNames({"telemetry"})->Unit(benchmark::kMillisecond);

void BM_DnsEncodeDecode(benchmark::State& state) {
  auto query = moppkt::DnsMessage::Query(1234, "graph.facebook.com");
  for (auto _ : state) {
    auto bytes = moppkt::EncodeDns(query);
    benchmark::DoNotOptimize(moppkt::DecodeDns(bytes));
  }
}
BENCHMARK(BM_DnsEncodeDecode);

void BM_TcpStateMachineRelay(benchmark::State& state) {
  // One full handshake + data exchange per iteration.
  std::vector<uint8_t> payload(1460, 0x55);
  for (auto _ : state) {
    mopeye::TcpStateMachine sm(BenchFlow(), 5000, 1460, 65535);
    moppkt::TcpSegment syn;
    syn.src_port = 40000;
    syn.dst_port = 443;
    syn.flags = moppkt::SynFlag();
    syn.seq = 100;
    syn.mss = 1460;
    sm.NoteSyn(syn);
    benchmark::DoNotOptimize(sm.MakeSynAck());
    moppkt::TcpSegment ack;
    ack.flags = moppkt::AckFlag();
    ack.seq = 101;
    ack.ack = 5001;
    benchmark::DoNotOptimize(sm.OnAppSegment(ack));
    moppkt::TcpSegment data;
    data.flags = moppkt::PshAckFlag();
    data.seq = 101;
    data.ack = 5001;
    data.payload = payload;
    benchmark::DoNotOptimize(sm.OnAppSegment(data));
    benchmark::DoNotOptimize(sm.MakeData(payload));
  }
}
BENCHMARK(BM_TcpStateMachineRelay);

// Real-thread producer put() cost with a live consumer: the Table 1
// algorithms under genuine contention.
void BM_QueuePut(benchmark::State& state) {
  mopcc::PutMode mode =
      state.range(0) == 0 ? mopcc::PutMode::kOldPut : mopcc::PutMode::kNewPut;
  mopcc::PacketQueue<int> q(mode, 20000);
  std::thread consumer([&q] {
    while (q.Take().has_value()) {
    }
  });
  int i = 0;
  for (auto _ : state) {
    q.Put(i++);
  }
  state.counters["consumer_waits"] = static_cast<double>(q.waits());
  q.Stop();
  consumer.join();
}
BENCHMARK(BM_QueuePut)->Arg(0)->Arg(1)->ArgNames({"newput"});

// Burst drain cost: popping a 64-packet burst one Take at a time (64 lock
// round-trips) vs one TakeAll swap (a single round-trip) — the writev-style
// drain the TunWriter uses.
void BM_QueueDrainBurst(benchmark::State& state) {
  constexpr int kBurst = 64;
  bool batched = state.range(0) != 0;
  mopcc::PacketQueue<int> q(mopcc::PutMode::kNewPut);
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      q.Put(i);
    }
    if (batched) {
      benchmark::DoNotOptimize(q.TryTakeAll());
    } else {
      while (q.TryTake().has_value()) {
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_QueueDrainBurst)->Arg(0)->Arg(1)->ArgNames({"takeall"});

}  // namespace

BENCHMARK_MAIN();
