// Table 4: CPU / battery / memory overhead of MopEye vs Haystack while
// streaming HD video (the paper's 58-minute 1080p YouTube run; we simulate a
// slice and report rates, which is what CPU% and battery%/h are).
#include "baselines/presets.h"
#include "bench/bench_util.h"
#include "telemetry/metrics.h"
#include "tests/test_world.h"

namespace {

struct Resources {
  double cpu_pct = 0;
  double battery_pct_hour = 0;
  double memory_mb = 0;
  int stalls = 0;
};

// Battery model: the measurable *overhead* share of an hour of video =
// a fixed service cost plus CPU-proportional drain, calibrated against the
// paper's CPU-to-battery pairing.
double BatteryPctPerHour(double cpu_pct) { return 0.30 + 0.105 * cpu_pct; }

// Per-lane accounting for the sharded run: how evenly the video flows landed
// and what each lane's relay stages cost. Read from the engine's telemetry
// registry before the world goes away.
std::string RenderLaneTable(moptest::TestWorld& w, int lanes) {
  const moptel::Registry* reg = w.engine().telemetry_registry();
  const moptel::Histogram* tcp = reg->FindHistogram("mopeye_relay_stage_tcp_ms");
  const moptel::Histogram* wr = reg->FindHistogram("mopeye_relay_stage_socket_write_ms");
  moputil::Table t({"lane", "tun packets", "clients peak", "tcp stage p50 (n)",
                    "sock write p50 (n)"});
  for (int l = 0; l < lanes; ++l) {
    size_t lane = static_cast<size_t>(l);
    const auto& c = w.engine().lane_counters(lane);
    auto cell = [](const moptel::Histogram* h, size_t lane) -> std::string {
      if (h == nullptr || h->LaneCount(lane) == 0) {
        return "-";
      }
      return mopbench::Num(h->LaneQuantile(lane, 50.0) * 1000.0) + "us (" +
             std::to_string(h->LaneCount(lane)) + ")";
    };
    t.AddRow({std::to_string(l), std::to_string(c.tun_packets),
              std::to_string(c.clients_high_water), cell(tcp, lane), cell(wr, lane)});
  }
  return t.Render();
}

Resources RunVideo(uint64_t seed, const mopeye::Config& engine_cfg, double minutes,
                   std::string* lane_table = nullptr) {
  moptest::WorldOptions opts;
  opts.seed = seed;
  opts.first_hop_one_way = moputil::Millis(2);
  opts.default_path_one_way = moputil::Millis(6);
  opts.downlink_bps = 40e6;  // video CDN peering is not the bottleneck
  moptest::TestWorld w(opts);
  if (!w.StartEngine(engine_cfg).ok()) {
    std::fprintf(stderr, "engine start failed\n");
    std::exit(1);
  }
  auto* app = w.MakeApp(10160, "com.google.android.youtube", "YouTube",
                        mopapps::App::Mode::kTunnel);
  mopapps::VideoSession::Config cfg;
  // 1080p in 2016 ~ 3 Mbps: one 1.5 MB chunk every 4 s.
  cfg.chunk_bytes = static_cast<size_t>(1.5 * 1024 * 1024);
  cfg.chunk_interval = moputil::Seconds(4);
  cfg.chunks = static_cast<int>(minutes * 60 / 4);
  mopapps::VideoSession session(app, &w.farm(), cfg, moputil::Rng(seed ^ 0x51));
  bool done = false;
  session.Start([&] { done = true; });
  moputil::SimTime t0 = w.loop().Now();
  w.loop().RunUntil(moputil::Seconds(minutes * 60 + 60));
  moputil::SimDuration wall = w.loop().Now() - t0;

  Resources r;
  auto usage = w.engine().resources();
  r.cpu_pct = usage.CpuPercent(wall);
  r.battery_pct_hour = BatteryPctPerHour(r.cpu_pct);
  r.memory_mb = static_cast<double>(usage.memory_bytes) / (1024.0 * 1024.0);
  r.stalls = session.stalls();
  if (lane_table != nullptr && w.engine().telemetry_registry() != nullptr) {
    *lane_table = RenderLaneTable(w, static_cast<int>(w.engine().lane_count()));
  }
  if (!done) {
    std::fprintf(stderr, "video session did not finish\n");
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = mopbench::ParseFlags(argc, argv);
  double minutes = flags.scale >= 1.0 ? 10.0 : std::max(2.0, 10.0 * flags.scale);
  if (flags.lanes > 0) {
    // Worker-lane sweep: the same video workload against the sharded engine.
    // Resource accounting must stay honest when the relay fans out — total
    // CPU is summed across lanes, so more lanes must not hide busy time.
    mopbench::PrintHeader("Table 4 (lanes sweep)",
                          "resource overhead of the sharded relay (HD video)");
    std::printf("simulating %.0f minutes of 1080p streaming, preset=scaled "
                "worker_lanes=%d...\n\n",
                minutes, flags.lanes);
    mopeye::Config cfg = mopbase::ScaledConfig(flags.lanes);
    cfg.telemetry = true;  // per-lane stage timing rides along, cost ≈ noise
    std::string lane_table;
    Resources lanes_r = RunVideo(flags.seed, cfg, minutes, &lane_table);
    Resources one = RunVideo(flags.seed, mopbase::MopEyeConfig(), minutes);
    moputil::Table t({"resource", "lanes=" + std::to_string(flags.lanes), "lanes=1"});
    t.AddRow({"CPU", mopbench::Num(lanes_r.cpu_pct) + "%", mopbench::Num(one.cpu_pct) + "%"});
    t.AddRow({"Battery (per hour)", mopbench::Num(lanes_r.battery_pct_hour) + "%",
              mopbench::Num(one.battery_pct_hour) + "%"});
    t.AddRow({"Memory", mopbench::Num(lanes_r.memory_mb) + "MB",
              mopbench::Num(one.memory_mb) + "MB"});
    t.AddRow({"Playback stalls", std::to_string(lanes_r.stalls), std::to_string(one.stalls)});
    std::printf("%s\n", t.Render().c_str());
    if (!lane_table.empty()) {
      std::printf("per-lane breakdown (lanes=%d run, from the telemetry registry):\n%s\n",
                  flags.lanes, lane_table.c_str());
    }
    return 0;
  }
  mopbench::PrintHeader("Table 4",
                        "resource overhead while streaming HD video (MopEye vs Haystack)");
  std::printf("simulating %.0f minutes of 1080p streaming per system...\n\n", minutes);

  Resources mop = RunVideo(flags.seed, mopbase::MopEyeConfig(), minutes);
  Resources hay = RunVideo(flags.seed + 1, mopbase::HaystackConfig(), minutes);

  moputil::Table t({"resource", "MopEye", "paper MopEye", "Haystack", "paper Haystack"});
  t.AddRow({"CPU", mopbench::Num(mop.cpu_pct) + "%", "2.74%", mopbench::Num(hay.cpu_pct) + "%",
            "9.56%"});
  t.AddRow({"Battery (per hour)", mopbench::Num(mop.battery_pct_hour) + "%", "1%",
            mopbench::Num(hay.battery_pct_hour) + "%", "2%"});
  t.AddRow({"Memory", mopbench::Num(mop.memory_mb) + "MB", "12MB",
            mopbench::Num(hay.memory_mb) + "MB", "148MB"});
  t.AddRow({"Playback stalls", std::to_string(mop.stalls), "-", std::to_string(hay.stalls),
            "-"});
  std::printf("%s\n", t.Render().c_str());
  return 0;
}
