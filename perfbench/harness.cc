#include "perfbench/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace perfbench {

// ---- Timing summaries ----

size_t SamplesBeyond(size_t n, double pct) {
  // Integer arithmetic in units of 0.01%: 1000 samples have exactly 10
  // beyond p99, which floating point could round to 9.999...
  const auto basis = static_cast<uint64_t>(std::llround(pct * 100.0));
  if (basis >= 10000) {
    return 0;
  }
  return static_cast<size_t>(static_cast<uint64_t>(n) * (10000 - basis) / 10000);
}

double HighestReportablePercentile(size_t n) {
  constexpr double kTailLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0};
  for (double pct : kTailLadder) {
    if (SamplesBeyond(n, pct) >= kMinBeyond) {
      return pct;
    }
  }
  return 0;
}

double Percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    return v[0];
  }
  double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

TimingSummary Summarize(const std::vector<double>& v) {
  TimingSummary s;
  s.n = v.size();
  if (v.empty()) {
    return s;
  }
  s.p50 = Percentile(v, 50.0);
  s.tail_pct = HighestReportablePercentile(v.size());
  if (s.tail_pct > 0) {
    s.tail = Percentile(v, s.tail_pct);
  }
  return s;
}

// ---- Output checks ----

void Tally::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    Fail(what);
  }
}

void Tally::Check(bool ok, const std::string& what) {
  if (!ok) {
    Fail(what);
  }
}

void Tally::Fail(const std::string& what) {
  ++failed_;
  if (first_failures_.size() < 8) {
    first_failures_.push_back(what);
  }
}

void Tally::Merge(const Tally& o) {
  attempted_ += o.attempted_;
  failed_ += o.failed_;
  for (const auto& f : o.first_failures_) {
    if (first_failures_.size() < 8) {
      first_failures_.push_back(f);
    }
  }
}

// ---- Spans ----

Tracer::Tracer() : t0_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

int Tracer::Begin(const std::string& name, int run) {
  int parent = open_.empty() ? -1 : open_.back();
  int id = Add(name, Now(), -1, parent, run);
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_s = Now();
  // Spans close innermost-first; anything opened inside and left open is
  // closed with its parent.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == id) {
      break;
    }
    spans_[static_cast<size_t>(top)].end_s = spans_[static_cast<size_t>(id)].end_s;
  }
}

void Tracer::Sample(int id, const std::string& counter, double value) {
  spans_[static_cast<size_t>(id)].counters.emplace_back(counter, value);
}

int Tracer::Add(const std::string& name, double start_s, double end_s, int parent, int run) {
  spans_.push_back(Span{name, start_s, end_s, parent, run, {}});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::SelfSeconds(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_) {
    if (c.parent == id) {
      double lo = std::max(c.start_s, s.start_s);
      double hi = std::min(c.end_s, s.end_s);
      if (hi > lo) {
        kids.emplace_back(lo, hi);
      }
    }
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0;
  double reach = s.start_s;
  for (const auto& [lo, hi] : kids) {
    double from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return (s.end_s - s.start_s) - covered;
}

double Tracer::SelfSecondsOf(const std::string& name, int run) const {
  double total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name && (run < 0 || spans_[i].run == run)) {
      total += SelfSeconds(static_cast<int>(i));
    }
  }
  return total;
}

double Tracer::TotalSecondsOf(const std::string& name, int run) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name && (run < 0 || s.run == run)) {
      total += s.end_s - s.start_s;
    }
  }
  return total;
}

std::string Tracer::ToJson() const {
  std::string out = "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string counters;
    for (const auto& [name, value] : s.counters) {
      counters += moputil::StrFormat("%s\"%s\": %.17g", counters.empty() ? "" : ", ",
                                     name.c_str(), value);
    }
    out += moputil::StrFormat(
        "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
        "\"parent\": %d, \"run\": %d, \"self_s\": %.9f, \"counters\": {%s}}%s\n",
        i, s.name.c_str(), s.start_s, s.end_s, s.parent, s.run,
        SelfSeconds(static_cast<int>(i)), counters.c_str(), i + 1 < spans_.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

// ---- Capture-log ground truth ----

std::map<moppkt::SocketAddr, Handshake> HandshakesByRemote(
    const std::vector<mopnet::CaptureRecord>& records) {
  std::map<moppkt::SocketAddr, Handshake> out;
  for (const auto& r : records) {
    if (r.event == mopnet::CaptureEvent::kTcpSyn && r.dir == mopnet::CaptureDir::kOut) {
      Handshake& h = out[r.remote];
      if (h.complete()) {
        continue;  // a SYN after the SYN/ACK belongs to no handshake we time
      }
      if (h.syns == 0) {
        h.first_syn = r.time;
      }
      h.last_syn = r.time;
      ++h.syns;
    } else if (r.event == mopnet::CaptureEvent::kTcpSynAck &&
               r.dir == mopnet::CaptureDir::kIn) {
      auto it = out.find(r.remote);
      if (it != out.end() && !it->second.complete()) {
        it->second.synack = r.time;
      }
    }
  }
  return out;
}

std::map<moppkt::SocketAddr, StreamMarks> EchoMarksByRemote(
    const std::vector<mopnet::CaptureRecord>& records,
    const std::vector<moppkt::SocketAddr>& remotes, size_t unit) {
  std::map<moppkt::SocketAddr, StreamMarks> out;
  std::map<moppkt::SocketAddr, std::pair<size_t, size_t>> cumulative;  // (out, in)
  for (const auto& r : remotes) {
    out[r];
    cumulative[r] = {0, 0};
  }
  for (const auto& r : records) {
    if (r.event != mopnet::CaptureEvent::kTcpData) {
      continue;
    }
    auto it = cumulative.find(r.remote);
    if (it == cumulative.end()) {
      continue;
    }
    bool outbound = r.dir == mopnet::CaptureDir::kOut;
    size_t& total = outbound ? it->second.first : it->second.second;
    std::vector<moputil::SimTime>& marks = outbound ? out[r.remote].out : out[r.remote].in;
    total += r.bytes;
    while ((marks.size() + 1) * unit <= total) {
      marks.push_back(r.time);
    }
  }
  return out;
}

// ---- Host probes ----

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) {
    CPU_SET(cpu, &set);
  }
  if (!cpus_.empty()) {
    sched_setaffinity(0, sizeof(set), &set);
  }
}

void CpuRotation::Pin(int pass) {
  if (cpus_.empty()) {
    return;  // affinity unknown: leave placement to the scheduler
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[static_cast<size_t>(pass) % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace perfbench
