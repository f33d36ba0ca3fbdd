// Shared helpers for the experiment binaries: paper-vs-measured tables and
// dataset construction flags.
//
// Every bench accepts:
//   --scale=<f>   crowd-study scale factor (1.0 = the full 5.25M-record
//                 dataset; smaller for quick runs)
//   --seed=<n>    RNG seed
//   --lanes=<n>   engine worker-lane sweep (table3/table4 only): run the
//                 relay-scaling section with Config::worker_lanes = n.
//                 Unset (0) keeps the default paper-model output unchanged,
//                 so the checked-in baselines never see this section.
#ifndef MOPEYE_BENCH_BENCH_UTIL_H_
#define MOPEYE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "crowd/analysis.h"
#include "crowd/study.h"
#include "crowd/world.h"
#include "util/strings.h"
#include "util/table.h"

namespace mopbench {

struct Flags {
  double scale = 1.0;
  uint64_t seed = 20160516;
  int lanes = 0;  // 0 = flag not given; benches keep their default output
  // table3 --lanes mode: write the final sweep run's stage-histogram summary
  // (count/sum/p50/p95/p99 per stage) as JSON here, for tools/perf_gate.py.
  std::string stage_json;
};

inline Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      f.scale = std::atof(arg + 8);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      f.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--lanes=", 8) == 0) {
      f.lanes = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--stage-json=", 13) == 0) {
      f.stage_json = arg + 13;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("flags: --scale=<f> --seed=<n> --lanes=<n> --stage-json=<path>\n");
      std::exit(0);
    }
  }
  return f;
}

inline mopcrowd::CrowdDataset RunStudy(const mopcrowd::World& world, const Flags& flags) {
  mopcrowd::StudyConfig cfg;
  cfg.scale = flags.scale;
  cfg.seed = flags.seed;
  mopcrowd::Study study(&world, cfg);
  std::printf("[study] generating dataset (scale=%.2f, seed=%llu)...\n", flags.scale,
              static_cast<unsigned long long>(flags.seed));
  auto ds = study.Run();
  std::printf("[study] %s measurements from %zu devices\n",
              moputil::WithCommas(static_cast<int64_t>(ds.size())).c_str(),
              ds.devices().size());
  return ds;
}

inline std::string Pct(double frac) { return moputil::StrFormat("%.1f%%", frac * 100.0); }
inline std::string Ms(double v) { return moputil::StrFormat("%.1fms", v); }
inline std::string Num(double v) { return moputil::StrFormat("%.2f", v); }

inline void PrintHeader(const char* id, const char* title) {
  std::printf("\n==== %s — %s ====\n\n", id, title);
}

}  // namespace mopbench

#endif  // MOPEYE_BENCH_BENCH_UTIL_H_
