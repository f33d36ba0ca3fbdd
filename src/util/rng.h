// Deterministic random number generation and the latency distributions used
// by the simulation substrate.
//
// Everything is seeded explicitly; two runs with the same seed produce
// identical event streams. We use our own PCG32 instead of <random> engines so
// the stream is stable across standard-library implementations.
#ifndef MOPEYE_UTIL_RNG_H_
#define MOPEYE_UTIL_RNG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/time.h"

namespace moputil {

// splitmix64: used to derive child seeds from a master seed.
uint64_t SplitMix64(uint64_t& state);

// Running sums of non-negative weights (not all zero), added in index order:
// prefix()[i] = w[0] + ... + w[i]. Build once for repeated WeightedIndex draws
// over the same weights.
class WeightedCdf {
 public:
  WeightedCdf() = default;
  explicit WeightedCdf(const std::vector<double>& weights);
  const std::vector<double>& prefix() const { return prefix_; }

 private:
  std::vector<double> prefix_;
};

// PCG32 (pcg_xsh_rr_64_32). Small, fast, statistically solid, and stable.
class Rng {
 public:
  explicit Rng(uint64_t seed, uint64_t stream = 0xda3e39cb94b95bdbULL);

  // Derives an independent child generator; advancing the child does not
  // perturb this generator's stream.
  Rng Fork();

  uint32_t NextU32();
  uint64_t NextU64();

  // Uniform in [0, 1).
  double NextDouble();
  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);
  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);
  // Standard normal via Box-Muller (no cached spare: keeps the stream simple).
  double Gaussian();
  // Lognormal with the given *median* and sigma of the underlying normal.
  double LogNormalMedian(double median, double sigma);
  // Exponential with the given mean.
  double Exponential(double mean);
  // Samples an index according to `weights` (need not be normalized): the
  // first i with r < prefix()[i], for r uniform in [0, total).
  size_t WeightedIndex(const WeightedCdf& cdf);
  // One-off draw; builds the CDF on the spot (same draw as above).
  size_t WeightedIndex(const std::vector<double>& weights) {
    return WeightedIndex(WeightedCdf(weights));
  }

 private:
  uint64_t state_;
  uint64_t inc_;
  // Stream-derivation sequence number, not a tally.
  uint64_t fork_counter_ = 0;  // moplint-allow: raw-counter
};

// A sampled distribution of durations. Used for every latency knob in the
// simulation (thread wakeup, selector dispatch, syscall cost, ...), so that
// benches can swap cost models without touching engine code.
class DelayModel {
 public:
  virtual ~DelayModel() = default;
  // Samples one delay. Must never return a negative duration.
  virtual SimDuration Sample(Rng& rng) = 0;
};

// Always the same delay.
class FixedDelay : public DelayModel {
 public:
  explicit FixedDelay(SimDuration d) : delay_(d) {}
  SimDuration Sample(Rng&) override { return delay_; }

 private:
  SimDuration delay_;
};

// Uniform in [lo, hi].
class UniformDelay : public DelayModel {
 public:
  UniformDelay(SimDuration lo, SimDuration hi) : lo_(lo), hi_(hi) {}
  SimDuration Sample(Rng& rng) override;

 private:
  SimDuration lo_;
  SimDuration hi_;
};

// Lognormal with a median and shape; clamped to [min, max].
class LogNormalDelay : public DelayModel {
 public:
  LogNormalDelay(SimDuration median, double sigma, SimDuration min_d = 0,
                 SimDuration max_d = 0);
  SimDuration Sample(Rng& rng) override;

 private:
  double median_ns_;
  double sigma_;
  SimDuration min_;
  SimDuration max_;  // 0 = unbounded
};

// A mixture of component models with weights; models "usually fast, sometimes
// hit by the scheduler" latencies (the paper's >10 ms outliers in Table 1).
class MixtureDelay : public DelayModel {
 public:
  struct Component {
    double weight;
    std::shared_ptr<DelayModel> model;
  };
  explicit MixtureDelay(std::vector<Component> components);
  SimDuration Sample(Rng& rng) override;

 private:
  std::vector<Component> components_;
  WeightedCdf cdf_;
};

}  // namespace moputil

#endif  // MOPEYE_UTIL_RNG_H_
