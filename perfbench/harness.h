// Workload-independent pieces of the repo benchmark: the timing-summary
// rule, output-check accounting, in-memory spans with self time, and the
// Karn-aware handshake ground truth read from a capture log.
#ifndef MOPEYE_PERFBENCH_HARNESS_H_
#define MOPEYE_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/capture.h"
#include "netpkt/ip.h"
#include "util/time.h"

namespace perfbench {

// ---- Timing summaries ----

// A timing is reported as its median plus the highest percentile of
// kTailLadder that has at least kMinBeyond samples beyond it.
constexpr size_t kMinBeyond = 10;

struct TimingSummary {
  size_t n = 0;
  double p50 = 0;
  double tail_pct = 0;  // 0 when fewer than kMinBeyond samples exist
  double tail = 0;
};

// Number of samples strictly beyond percentile `pct` out of `n`.
size_t SamplesBeyond(size_t n, double pct);
// The highest ladder percentile (90, 95, 99, 99.9, 99.99) with at least
// kMinBeyond samples beyond it, or 0 if none qualifies.
double HighestReportablePercentile(size_t n);
// Linear-interpolated percentile of `v` (sorted copy; v must be non-empty).
double Percentile(std::vector<double> v, double pct);
TimingSummary Summarize(const std::vector<double>& v);

// ---- Output checks ----

// Counts attempted operations and failed checks. Every failure counts in
// error_rate; the first few are kept verbatim for the report.
class Tally {
 public:
  // One attempted operation whose outputs passed (ok) or failed a check.
  void Op(bool ok, const std::string& what);
  // A check that is not an operation of its own (it fails the op count
  // only when it fails).
  void Check(bool ok, const std::string& what);
  void Merge(const Tally& o);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double error_rate() const {
    return attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }
  const std::vector<std::string>& first_failures() const { return first_failures_; }

 private:
  void Fail(const std::string& what);

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> first_failures_;
};

// ---- Spans ----

// Spans recorded from the benchmark's own code around calls into a layer.
// Kept in memory; written out once when the benchmark ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;  // seconds since the tracer was created
    double end_s = -1;   // < 0 while open
    int parent = -1;     // index into spans(), -1 = root
    int run = 0;         // world index the span belongs to
    // Counters sampled when the span closed (e.g. at a RunUntil slice edge).
    std::vector<std::pair<std::string, double>> counters;
  };

  Tracer();

  // Opens a span as a child of the innermost open span. Returns its id.
  int Begin(const std::string& name, int run);
  void End(int id);
  void Sample(int id, const std::string& counter, double value);
  // Adds an already-timed span (tests and replay).
  int Add(const std::string& name, double start_s, double end_s, int parent, int run);

  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the part of the span its direct children cover.
  double SelfSeconds(int id) const;
  // Sums over every span named `name` (of world `run`; -1 = all worlds).
  double SelfSecondsOf(const std::string& name, int run = -1) const;
  double TotalSecondsOf(const std::string& name, int run = -1) const;
  std::string ToJson() const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer makes it a no-op, so untraced runs pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int run)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name, run) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  void Sample(const std::string& counter, double value) {
    if (tracer_ != nullptr) {
      tracer_->Sample(id_, counter, value);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- Capture-log ground truth ----

struct Handshake {
  moputil::SimTime first_syn = -1;
  moputil::SimTime last_syn = -1;  // last SYN sent before the SYN/ACK
  moputil::SimTime synack = -1;    // -1: never completed
  int syns = 0;                    // SYNs sent before the SYN/ACK (or in total)

  bool complete() const { return synack >= 0; }
  // Karn's rule: a SYN/ACK answers the most recent SYN, so the unambiguous
  // wire RTT is measured from the last SYN.
  moputil::SimDuration karn_rtt() const { return synack - last_syn; }
  // What the app waits for on the external socket: first SYN to SYN/ACK.
  moputil::SimDuration connect_time() const { return synack - first_syn; }
};

// External-interface handshakes, keyed by remote address (the benchmark
// gives every connection its own remote, so the key is the flow).
std::map<moppkt::SocketAddr, Handshake> HandshakesByRemote(
    const std::vector<mopnet::CaptureRecord>& records);

// Times at which the cumulative TCP payload of one flow crossed each
// multiple of `unit` bytes, per direction: out[k] is when byte (k+1)*unit
// left toward the server, in[k] when it arrived back.
struct StreamMarks {
  std::vector<moputil::SimTime> out, in;
};
std::map<moppkt::SocketAddr, StreamMarks> EchoMarksByRemote(
    const std::vector<mopnet::CaptureRecord>& records,
    const std::vector<moppkt::SocketAddr>& remotes, size_t unit);

// ---- Host probes ----

double WallSeconds();  // steady clock, seconds
double PeakRssMb();    // peak resident set of this process

// On a shared host each CPU runs at its own, drifting speed. Pinning pass k
// to the k-th CPU the process may use gives every run the same mix of CPUs,
// so the median over passes does not depend on where the scheduler happened
// to put the run. The destructor restores the original affinity.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Pin(int pass);
  const std::vector<int>& cpus() const { return cpus_; }

 private:
  std::vector<int> cpus_;
};

}  // namespace perfbench

#endif  // MOPEYE_PERFBENCH_HARNESS_H_
