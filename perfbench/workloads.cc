#include "perfbench/workloads.h"

#include "util/rng.h"

namespace perfbench {

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      {"bulk_download",
       "48 concurrent downloads through the scaled relay on a 10 Gbps link: the per-byte path "
       "(socket receive, server->app relay, tun egress) does almost all the work, the "
       "per-connection path almost none",
       "scaled", "worker_lanes=8 tun_read_batch=32 steal_enabled=1 lane_tun_write=1 "
       "tun_queues=1 ack_coalescing=0; 48 clients x 2 MiB, 8 apps; 8 echo pingers, 64 B every "
       "1 ms open loop; 10 Gbps, 0.4 ms first-hop RTT, 4 ms path RTT",
       3, "host_mb_per_s", "MB/s", RunBulkDownloadWorld},
      {"bulk_upload",
       "the same shape uploading to sink servers: the only workload with app->server data "
       "segments and relay pure ACKs toward the app at volume, so a change that helps download "
       "at upload's cost shows here",
       "scaled", "worker_lanes=8 tun_read_batch=32 steal_enabled=1 lane_tun_write=1 "
       "tun_queues=1 ack_coalescing=0; 48 clients x 2 MiB, 8 apps, each closing after the "
       "server's 16 B reply to the whole upload; 8 echo pingers, 64 B every 1 ms open loop; "
       "10 Gbps, 0.4 ms first-hop RTT, 4 ms path RTT",
       3, "host_mb_per_s", "MB/s", RunBulkUploadWorld},
      {"short_flows",
       "Poisson short connections (DNS, connect, small request and response, close) on the "
       "paper preset: per-connection and smallest-packet cost dominate, and every connection "
       "yields one RTT record",
       "paper", "worker_lanes=1 (mopbase::MopEyeConfig); 1500 flows at 100/s Poisson from 24 "
       "apps, 0.5-8 KiB responses, closed after 1 s keep-alive idle, 10-120 ms path RTT, 3% "
       "SYN loss per server path; 4 echo pingers, 64 B every 40 ms open loop",
       3, "host_conns_per_s", "1/s", RunShortFlowsWorld},
      {"crowd_pipeline",
       "crowd study -> device-batched frames -> sharded collector ingest -> snapshot "
       "round-trip -> merged fleet view -> quantile queries; no simulation runs, so relay "
       "changes leave it flat",
       "none", "Study scale=0.03; 500-record frames; 3 collectors behind a FleetRouter; top-10 "
       "app p95 checked against exact",
       5, "host_records_per_s", "1/s", RunCrowdPipelineWorld},
  };
  return kWorkloads;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"sim.events", "count"},
        {"sim.run_s", "s"},
        {"sim.ns_per_event", "ns"},
        {"sim.pending_peak", "count"},
        {"sim.events_per_pkt", "count"},
        {"sim.busy_ms.reader", "ms"},
        {"sim.busy_ms.writer", "ms"},
        {"sim.busy_ms.main", "ms"},
        {"sim.busy_ms.workers", "ms"},
        {"net.capture_records", "count"},
        {"net.syn_retx_handshakes", "count"},
        {"net.bytes_per_socket_read", "B"},
        {"netpkt.acquires_per_pkt", "count"},
        {"netpkt.slab_allocs", "count"},
        {"netpkt.copies", "count"},
        {"netpkt.in_use_peak", "count"},
        {"android.tun_packets_out", "count"},
        {"android.tun_packets_in", "count"},
        {"android.tun_outgoing_peak", "count"},
        {"android.mapper_parses_per_request", "ratio"},
        {"core.tun_packets", "count"},
        {"core.data_segments", "count"},
        {"core.pure_acks_discarded", "count"},
        {"core.acks_coalesced", "count"},
        {"core.syn_duplicates", "count"},
        {"core.dns_queries", "count"},
        {"core.steal_handoffs", "count"},
        {"core.records", "count"},
        {"core.reader_empty_polls", "count"},
        {"core.writer_queue_peak", "count"},
        {"core.pkts_per_flush", "ratio"},
        {"core.lane_skew", "ratio"},
    };
    for (const char* stage : {"tun_read", "dispatch", "parse", "tcp", "socket_write",
                              "socket_read", "dns", "tun_write"}) {
      std::string base = "core.stage.";
      base.append(stage);
      m.emplace_back(base + ".p50_us", "us");
      m.emplace_back(base + ".p95_us", "us");
    }
    std::vector<std::pair<std::string, std::string>> rest = {
        {"apps.conns_ok", "count"},
        {"apps.conns_failed", "count"},
        {"apps.bytes_in", "B"},
        {"apps.bytes_out", "B"},
        {"crowd.generate_s", "s"},
        {"crowd.analysis_s", "s"},
        {"collector.encode_s", "s"},
        {"collector.ingest_s", "s"},
        {"collector.wire_bytes_per_record", "B"},
        {"collector.store_bytes_per_record", "B"},
        {"collector.frames_rejected", "count"},
        {"fleet.snapshot_encode_s", "s"},
        {"fleet.snapshot_decode_s", "s"},
        {"fleet.snapshot_bytes_per_record", "B"},
        {"fleet.refresh_s", "s"},
        {"fleet.query_s", "s"},
        {"trace.overhead_pct", "%"},
        // The workload-specific end-to-end metrics ride the traced result
        // too: the modeled ones are asserted equal to the untraced run's.
        {"relay_mbps", "Mbps"},
        {"connect_added_p50_ms", "ms"},
        {"connect_added_p99_ms", "ms"},
        {"data_added_p50_ms", "ms"},
        {"data_added_p99_ms", "ms"},
        {"rtt_err_p99_ms", "ms"},
        {"modeled_cpu_pct", "%"},
        {"crowd_err_p95_pct", "%"},
        {"error_rate", "ratio"},
        {"host_mb_per_s", "MB/s"},
        {"host_conns_per_s", "1/s"},
        {"host_records_per_s", "1/s"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

std::vector<uint64_t> WorldSeeds(uint64_t seed, int worlds) {
  moputil::Rng rng(seed, 0x776f726c64);
  std::vector<uint64_t> out;
  for (int i = 0; i < worlds; ++i) {
    out.push_back(rng.NextU64());
  }
  return out;
}

}  // namespace perfbench
