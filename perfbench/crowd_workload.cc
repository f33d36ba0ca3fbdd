// crowd_pipeline: the collection path with no simulation in it. A crowd
// study is generated, shipped as device-batched upload frames, ingested by
// a sharded collector fleet, snapshotted, merged into a fleet view and
// queried.
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "collector/server.h"
#include "collector/wire.h"
#include "crowd/analysis.h"
#include "crowd/study.h"
#include "crowd/world.h"
#include "fleet/router.h"
#include "fleet/snapshot.h"
#include "fleet/view.h"
#include "perfbench/workloads.h"
#include "util/strings.h"

namespace perfbench {
namespace {

constexpr double kStudyScale = 0.03;  // ~158k records from 70 devices
constexpr size_t kBatchRecords = 500;
constexpr size_t kCollectors = 3;
constexpr size_t kTopApps = 10;

mopeye::Measurement ToMeasurement(const mopcrowd::CrowdRecord& r,
                                  const mopcrowd::CrowdDataset& ds,
                                  const mopcrowd::World& world) {
  mopeye::Measurement m;
  m.kind = r.kind == mopcrowd::RecordKind::kDns ? mopeye::MeasureKind::kDns
                                                : mopeye::MeasureKind::kTcpConnect;
  m.rtt = moputil::Millis(r.rtt_ms);
  m.net_type = static_cast<mopnet::NetType>(r.net_type);
  if (r.app_id != mopcrowd::kNoApp) {
    m.app = world.apps()[r.app_id].label;
  }
  if (r.isp_id != mopcrowd::kNoIsp) {
    m.isp = world.isps()[r.isp_id].name;
  }
  m.country = world.countries()[r.country_id].code;
  m.domain = ds.DomainName(r.domain_id);
  return m;
}

struct Frame {
  uint32_t device = 0;
  std::vector<uint8_t> bytes;  // length-prefixed
};

}  // namespace

WorldResult RunCrowdPipelineWorld(uint64_t seed, int run, Tracer* tracer) {
  WorldResult out;
  Tally& tally = out.tally;
  ScopedSpan world_span(tracer, "world", run);
  const double t_setup = WallSeconds();
  std::optional<mopcrowd::World> world;
  {
    ScopedSpan span(tracer, "world.setup", run);
    world = mopcrowd::World::Default();
  }
  out.setup_s = WallSeconds() - t_setup;

  const double t_work = WallSeconds();
  double check_s = 0;  // output checks inside the timed stretch, subtracted
  mopcrowd::CrowdDataset ds;
  {
    ScopedSpan span(tracer, "crowd.generate", run);
    mopcrowd::StudyConfig cfg;
    cfg.scale = kStudyScale;
    cfg.seed = seed;
    ds = mopcrowd::Study(&*world, cfg).Run();
  }

  // 1. Device-batched upload frames (the study emits records device by device).
  std::vector<Frame> frames;
  uint64_t wire_bytes = 0;
  {
    ScopedSpan span(tracer, "collector.encode", run);
    const auto& recs = ds.records();
    std::unordered_map<uint32_t, uint32_t> next_seq;
    size_t i = 0;
    while (i < recs.size()) {
      uint32_t device = recs[i].device_id;
      mopcollect::BatchBuilder batch(device, next_seq[device]++);
      for (; i < recs.size() && recs[i].device_id == device &&
             batch.record_count() < kBatchRecords;
           ++i) {
        batch.Add(ToMeasurement(recs[i], ds, *world));
      }
      frames.push_back({device, mopcollect::EncodeBatchFrame(batch.TakeBatch())});
      wire_bytes += frames.back().bytes.size();
    }
  }

  // 2. Sharded ingest across the fleet.
  std::vector<moppkt::SocketAddr> addrs;
  for (size_t c = 0; c < kCollectors; ++c) {
    addrs.push_back({moppkt::IpAddr(10, 99, 0, static_cast<uint8_t>(c + 1)), 9000});
  }
  mopfleet::FleetRouter router(addrs);
  std::vector<mopcollect::CollectorServer> collectors(kCollectors);
  uint64_t frames_rejected = 0;
  {
    ScopedSpan span(tracer, "collector.ingest", run);
    for (const Frame& f : frames) {
      auto accepted = collectors[router.ShardOf(f.device)].IngestPayload(
          std::span<const uint8_t>(f.bytes).subspan(4));
      frames_rejected += accepted.ok() ? 0 : 1;
      tally.Op(accepted.ok(), "frame rejected");
    }
  }

  // 3. Snapshot round-trip, 4. merged fleet view.
  std::vector<std::vector<uint8_t>> snapshots;
  std::vector<mopcollect::CollectorState> decoded;
  uint64_t store_bytes = 0;
  {
    ScopedSpan span(tracer, "fleet.snapshot_encode", run);
    for (const auto& c : collectors) {
      snapshots.push_back(mopfleet::EncodeSnapshot(c.ExportState()));
      store_bytes += c.store().ApproxMemoryBytes();
    }
  }
  {
    ScopedSpan span(tracer, "fleet.snapshot_decode", run);
    for (const auto& bytes : snapshots) {
      auto state = mopfleet::DecodeSnapshot(bytes);
      tally.Op(state.ok(), "snapshot does not decode");
      decoded.push_back(state.ok() ? std::move(state).value() : mopcollect::CollectorState());
    }
  }
  {
    ScopedSpan span(tracer, "check", run);
    const double t = WallSeconds();
    for (size_t c = 0; c < decoded.size(); ++c) {
      tally.Check(mopfleet::EncodeSnapshot(decoded[c]) == snapshots[c],
                  moputil::StrFormat("snapshot %zu does not re-encode byte-identically", c));
    }
    check_s += WallSeconds() - t;
  }
  mopfleet::FleetView view;
  {
    ScopedSpan span(tracer, "fleet.refresh", run);
    for (auto& state : decoded) {
      view.AttachState(std::move(state));
    }
    view.Refresh();
  }

  // 5. Per-app and per-ISP quantile queries and a few analyses.
  std::vector<mopcollect::AppStat> app_stats;
  std::vector<mopcollect::IspDnsStat> isp_stats;
  {
    ScopedSpan span(tracer, "fleet.query", run);
    app_stats = view.TcpAppStats();
    isp_stats = view.IspDnsStats();
  }
  size_t analysis_items = 0;
  {
    ScopedSpan span(tracer, "crowd.analysis", run);
    analysis_items += mopcrowd::AppRtts(ds).all.count();
    analysis_items += mopcrowd::PerAppMedians(ds, 200).count();
    analysis_items += mopcrowd::IspDnsStats(ds, *world).size();
  }
  out.work_s = WallSeconds() - t_work - check_s;

  ScopedSpan check_span(tracer, "check", run);
  tally.Op(view.records_ingested() == ds.size(),
           moputil::StrFormat("fleet holds %llu of %zu records",
                              static_cast<unsigned long long>(view.records_ingested()),
                              ds.size()));
  tally.Check(!isp_stats.empty() && analysis_items > 0, "empty query or analysis result");

  // Merged per-app p95 against the exact p95 of the generated records.
  std::unordered_map<std::string, std::vector<double>> exact;
  for (const auto& r : ds.records()) {
    if (r.kind == mopcrowd::RecordKind::kTcp) {
      exact[world->apps()[r.app_id].label].push_back(r.rtt_ms);
    }
  }
  double worst = 0;
  for (size_t i = 0; i < app_stats.size() && i < kTopApps; ++i) {
    const auto& s = app_stats[i];
    const auto& v = exact[s.app];
    bool ok = v.size() == s.count && !v.empty();
    tally.Op(ok, moputil::StrFormat("app %s: fleet counts %zu records, study made %zu",
                                    s.app.c_str(), s.count, v.size()));
    if (ok) {
      double p95 = Percentile(v, 95.0);
      worst = std::max(worst, 100.0 * std::fabs(s.p95_ms - p95) / p95);
    }
  }
  out.modeled.push_back({"crowd_err_p95_pct", "%", worst, 0});
  out.work_units = static_cast<double>(ds.size());

  if (tracer != nullptr) {
    auto& L = out.layers;
    const double n = static_cast<double>(ds.size());
    L["crowd.generate_s"] = tracer->SelfSecondsOf("crowd.generate", run);
    L["crowd.analysis_s"] = tracer->SelfSecondsOf("crowd.analysis", run);
    L["collector.encode_s"] = tracer->SelfSecondsOf("collector.encode", run);
    L["collector.ingest_s"] = tracer->SelfSecondsOf("collector.ingest", run);
    L["collector.wire_bytes_per_record"] = static_cast<double>(wire_bytes) / n;
    L["collector.store_bytes_per_record"] = static_cast<double>(store_bytes) / n;
    L["collector.frames_rejected"] = static_cast<double>(frames_rejected);
    L["fleet.snapshot_encode_s"] = tracer->SelfSecondsOf("fleet.snapshot_encode", run);
    L["fleet.snapshot_decode_s"] = tracer->SelfSecondsOf("fleet.snapshot_decode", run);
    uint64_t snapshot_bytes = 0;
    for (const auto& s : snapshots) {
      snapshot_bytes += s.size();
    }
    L["fleet.snapshot_bytes_per_record"] = static_cast<double>(snapshot_bytes) / n;
    L["fleet.refresh_s"] = tracer->SelfSecondsOf("fleet.refresh", run);
    L["fleet.query_s"] = tracer->SelfSecondsOf("fleet.query", run);
  }
  return out;
}

}  // namespace perfbench
