// The benchmark's workloads. Each one runs a "world" — a fixed amount of
// work built from one world seed — through the public functions of the
// library modules, checks its outputs, and reports what it measured.
#ifndef MOPEYE_PERFBENCH_WORKLOADS_H_
#define MOPEYE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {

// A modeled quantity: measured in virtual time, exact for a world seed.
struct Modeled {
  std::string name;
  std::string unit;
  double value = 0;
  size_t n = 0;  // samples behind the value (0 = not a sample statistic)
};

struct WorldResult {
  double setup_s = 0;     // wall: world construction, engine start, servers, apps
  double work_s = 0;      // wall: the timed work
  double work_units = 0;  // MB relayed, connections completed or records carried
  std::vector<Modeled> modeled;
  Tally tally;
  // Per-layer readings (traced worlds only); layer-metric name -> value.
  std::map<std::string, double> layers;
};

struct Workload {
  std::string name;
  std::string why;
  std::string preset;  // engine preset, for the manifest
  std::string knobs;   // sizes and knob values, for the manifest
  int worlds = 1;      // world seeds per run
  std::string host_metric;  // host throughput name: work_units / work_s
  std::string host_unit;
  // `tracer` null = untraced: telemetry off and no spans.
  WorldResult (*run)(uint64_t world_seed, int run_index, Tracer* tracer);
};

const std::vector<Workload>& AllWorkloads();

WorldResult RunBulkDownloadWorld(uint64_t world_seed, int run_index, Tracer* tracer);
WorldResult RunBulkUploadWorld(uint64_t world_seed, int run_index, Tracer* tracer);
WorldResult RunShortFlowsWorld(uint64_t world_seed, int run_index, Tracer* tracer);
WorldResult RunCrowdPipelineWorld(uint64_t world_seed, int run_index, Tracer* tracer);

// Every per-layer metric the traced run reports, with its unit, in output
// order. A workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// World seeds of one run: derived from the benchmark seed only.
std::vector<uint64_t> WorldSeeds(uint64_t seed, int worlds);

}  // namespace perfbench

#endif  // MOPEYE_PERFBENCH_WORKLOADS_H_
