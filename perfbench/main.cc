// perfbench: the repo benchmark binary (perfbench/run.py builds and
// runs it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <spans.json>] [--git-sha <sha>]
//
// --trace 0 (timed run): repeats passes over the run's world seeds until
// --seconds have gone by; host metrics are medians over passes, modeled
// metrics come from the first pass and every later pass must reproduce them
// exactly. --trace 1 (traced run): alternates untraced and traced passes
// (telemetry on, spans recorded), asserts the modeled metrics are equal in
// both, and reports the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "util/strings.h"

namespace perfbench {
namespace {

// A pass must repeat at least this often for its median to mean anything.
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a->trace = value == "1";
      if (value != "0" && value != "1") {
        return false;
      }
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else if (flag == "--git-sha") {
      a->git_sha = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a->seconds > 0;
}

double Median(std::vector<double> v) { return v.empty() ? 0 : Percentile(std::move(v), 50.0); }

// Mean over worlds of each modeled metric (sample counts add up).
std::vector<Modeled> MeanOverWorlds(const std::vector<std::vector<Modeled>>& per_world) {
  std::vector<Modeled> out = per_world.front();
  for (auto& m : out) {
    m.value = 0;
    m.n = 0;
  }
  for (const auto& world : per_world) {
    for (size_t i = 0; i < out.size() && i < world.size(); ++i) {
      out[i].value += world[i].value / static_cast<double>(per_world.size());
      out[i].n += world[i].n;
    }
  }
  return out;
}

bool SameModeled(const std::vector<Modeled>& a, const std::vector<Modeled>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].value != b[i].value || a[i].n != b[i].n) {
      return false;
    }
  }
  return true;
}

std::string Num(double v) { return moputil::StrFormat("%.17g", v); }

void PrintManifest(const Workload& wl, const Args& args, const std::vector<uint64_t>& seeds,
                   const CpuRotation& rotation) {
  std::string world_seeds;
  for (uint64_t s : seeds) {
    world_seeds += (world_seeds.empty() ? "" : ", ") + std::to_string(s);
  }
  std::string cpus;
  for (int cpu : rotation.cpus()) {
    cpus += (cpus.empty() ? "" : ", ") + std::to_string(cpu);
  }
  std::printf(
      "manifest: {\"workload\": \"%s\", \"seed\": %llu, \"world_seeds\": [%s], "
      "\"preset\": \"%s\", \"knobs\": \"%s\", \"seconds\": %s, \"trace\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"git_sha\": \"%s\", \"nproc\": %u, "
      "\"pass_cpus\": [%s]}\n",
      wl.name.c_str(), static_cast<unsigned long long>(args.seed), world_seeds.c_str(),
      wl.preset.c_str(), wl.knobs.c_str(), Num(args.seconds).c_str(), args.trace ? 1 : 0,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, args.git_sha.c_str(),
      std::thread::hardware_concurrency(), cpus.c_str());
  std::printf("why: %s\n", wl.why.c_str());
}

void PrintFailures(const Tally& tally) {
  for (const auto& f : tally.first_failures()) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }
}

void PrintModeled(const std::vector<Modeled>& modeled) {
  for (const auto& m : modeled) {
    std::printf("  %-24s %14.6f %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.n > 0) {
      std::printf("  (n=%zu; reportable up to p%g)", m.n, HighestReportablePercentile(m.n));
    }
    std::printf("\n");
  }
}

// A host timing: median, and the highest percentile the sample count allows.
void PrintTiming(const char* name, const std::vector<double>& samples, const char* what) {
  TimingSummary s = Summarize(samples);
  std::printf("  %-24s %14.6f s     (median of n=%zu %s", name, s.p50, s.n, what);
  if (s.tail_pct > 0) {
    std::printf("; p%g %.6f s", s.tail_pct, s.tail);
  }
  std::printf(")\n");
}

void PrintJson(const Tally& tally, const std::vector<std::pair<std::string, std::string>>& names,
               const std::map<std::string, double>& values) {
  std::string metrics;
  for (const auto& [name, unit] : names) {
    auto it = values.find(name);
    double v = it == values.end() ? 0.0 : it->second;
    metrics += moputil::StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                                  metrics.empty() ? "" : ", ", name.c_str(), Num(v).c_str(),
                                  unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()), metrics.c_str());
}

int RunTimed(const Workload& wl, const Args& args) {
  const auto seeds = WorldSeeds(args.seed, wl.worlds);
  CpuRotation rotation;
  PrintManifest(wl, args, seeds, rotation);
  Tally tally;
  std::vector<std::vector<Modeled>> first;
  std::vector<uint64_t> first_failed;
  std::vector<double> setups, pass_work;
  double units = 0;
  double peak_rss_mb = 0;
  const double t0 = WallSeconds();
  for (int pass = 0; pass < kMinPasses || WallSeconds() - t0 < args.seconds; ++pass) {
    rotation.Pin(pass);
    double work = 0;
    for (size_t i = 0; i < seeds.size(); ++i) {
      WorldResult r = wl.run(seeds[i], static_cast<int>(i), nullptr);
      setups.push_back(r.setup_s);
      work += r.work_s;
      if (pass == 0) {
        first.push_back(r.modeled);
        first_failed.push_back(r.tally.failed());
        tally.Merge(r.tally);
        units += r.work_units;
      } else {
        // Repeats are the same work: they add no operations, but must
        // reproduce the first pass exactly.
        tally.Check(r.tally.failed() == first_failed[i] && SameModeled(first[i], r.modeled),
                    moputil::StrFormat("world %zu did not repeat its first pass", i));
      }
    }
    pass_work.push_back(work);
    if (pass == 0) {
      // The first pass does all the distinct work; later passes repeat it,
      // so only heap reuse, not the workload, could move the peak further.
      peak_rss_mb = PeakRssMb();
    }
  }
  const double host_wall_s = Median(pass_work);
  const std::vector<Modeled> modeled = MeanOverWorlds(first);
  const double setup_s = Median(setups);

  std::printf("end-to-end metrics (%zu passes over %zu worlds):\n", pass_work.size(),
              seeds.size());
  PrintTiming("setup_s", setups, "world set-ups");
  PrintTiming("host_wall_s", pass_work, "passes");
  std::string passes;
  for (double w : pass_work) {
    passes += moputil::StrFormat(" %.4f", w);
  }
  std::printf("  %-24s%s\n", "  pass walls (s):", passes.c_str());
  std::printf("  %-24s %14.6f %s\n", wl.host_metric.c_str(), units / host_wall_s,
              wl.host_unit.c_str());
  std::printf("  %-24s %14.6f MB    (after the first pass)\n", "peak_rss_mb", peak_rss_mb);
  PrintModeled(modeled);
  std::printf("  %-24s %14.6f ratio (%llu failed of %llu attempted)\n", "error_rate",
              tally.error_rate(), static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted()));
  PrintFailures(tally);

  static const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
      {"setup_s", "s"}, {"host_wall_s", "s"}, {"peak_rss_mb", "MB"}};
  PrintJson(tally, kEndToEnd,
            {{"setup_s", setup_s}, {"host_wall_s", host_wall_s}, {"peak_rss_mb", peak_rss_mb}});
  return 0;
}

int RunTraced(const Workload& wl, const Args& args) {
  const auto seeds = WorldSeeds(args.seed, wl.worlds);
  CpuRotation rotation;
  PrintManifest(wl, args, seeds, rotation);
  Tracer tracer;
  Tally tally;
  std::vector<std::vector<Modeled>> untraced_modeled;
  bool same_science = true;
  std::vector<std::map<std::string, double>> layers;
  std::vector<double> untraced_work, overhead_pct;
  double units = 0;
  const double t0 = WallSeconds();
  int run_id = 0;
  for (int pass = 0; pass < 1 || WallSeconds() - t0 < args.seconds; ++pass) {
    rotation.Pin(pass);  // each untraced/traced pair shares a CPU
    double work_u = 0, work_t = 0;
    for (size_t i = 0; i < seeds.size(); ++i) {
      WorldResult u = wl.run(seeds[i], run_id++, nullptr);
      WorldResult t = wl.run(seeds[i], run_id++, &tracer);
      work_u += u.work_s;
      work_t += t.work_s;
      if (pass == 0) {
        tally.Merge(u.tally);
        units += u.work_units;
        untraced_modeled.push_back(u.modeled);
        layers.push_back(t.layers);
        // Telemetry must not move the science.
        bool same = SameModeled(u.modeled, t.modeled);
        same_science = same_science && same;
        tally.Check(same, moputil::StrFormat("world %zu: traced modeled metrics differ", i));
        tally.Check(t.tally.failed() == u.tally.failed(),
                    moputil::StrFormat("world %zu: traced run failed other checks", i));
      }
    }
    untraced_work.push_back(work_u);
    overhead_pct.push_back(100.0 * (work_t / work_u - 1.0));
  }

  std::map<std::string, double> values;
  for (const auto& world : layers) {
    for (const auto& [name, v] : world) {
      values[name] += v / static_cast<double>(layers.size());
    }
  }
  values["trace.overhead_pct"] = Median(overhead_pct);
  const std::vector<Modeled> modeled = MeanOverWorlds(untraced_modeled);
  for (const auto& m : modeled) {
    values[m.name] = m.value;
  }
  values["error_rate"] = tally.error_rate();
  values[wl.host_metric] = units / Median(untraced_work);

  std::printf("modeled metrics, untraced (traced run: %s):\n",
              same_science ? "identical" : "DIFFERENT");
  PrintModeled(modeled);
  std::printf("per-layer metrics (traced pass; mean over %zu worlds):\n", layers.size());
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    std::printf("  %-36s %16.6f %s\n", name.c_str(), it == values.end() ? 0.0 : it->second,
                unit.c_str());
  }
  PrintFailures(tally);
  if (!args.trace_out.empty()) {
    if (FILE* f = std::fopen(args.trace_out.c_str(), "w")) {
      std::fputs(tracer.ToJson().c_str(), f);
      std::fclose(f);
      std::printf("spans: %zu written to %s\n", tracer.spans().size(), args.trace_out.c_str());
    } else {
      tally.Check(false, "cannot write " + args.trace_out);
    }
  }
  PrintJson(tally, PerLayerMetrics(), values);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>] [--git-sha <sha>]\n");
    return 2;
  }
  for (const auto& wl : perfbench::AllWorkloads()) {
    if (wl.name == args.workload) {
      return args.trace ? perfbench::RunTraced(wl, args) : perfbench::RunTimed(wl, args);
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
