#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace moputil {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed, uint64_t stream) {
  // Standard PCG32 seeding sequence.
  state_ = 0;
  inc_ = (stream << 1u) | 1u;
  NextU32();
  state_ += seed;
  NextU32();
}

Rng Rng::Fork() {
  uint64_t derive = state_ ^ (0x632be59bd9b4e019ULL + (++fork_counter_) * 0x9e3779b97f4a7c15ULL);
  uint64_t seed = SplitMix64(derive);
  uint64_t stream = SplitMix64(derive);
  return Rng(seed, stream);
}

uint32_t Rng::NextU32() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

uint64_t Rng::NextU64() {
  return (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
}

double Rng::NextDouble() {
  // 53 random bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::Bernoulli(double p) {
  if (p <= 0) {
    return false;
  }
  if (p >= 1) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::Gaussian() {
  // Box-Muller; draw u1 away from zero to keep log() finite.
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::LogNormalMedian(double median, double sigma) {
  assert(median > 0);
  return median * std::exp(sigma * Gaussian());
}

double Rng::Exponential(double mean) {
  assert(mean > 0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -mean * std::log(u);
}

WeightedCdf::WeightedCdf(const std::vector<double>& weights) {
  prefix_.reserve(weights.size());
  double acc = 0;
  for (double w : weights) {
    assert(w >= 0);
    acc += w;
    prefix_.push_back(acc);
  }
}

size_t Rng::WeightedIndex(const WeightedCdf& cdf) {
  const std::vector<double>& prefix = cdf.prefix();
  assert(!prefix.empty() && prefix.back() > 0);
  double r = NextDouble() * prefix.back();
  // Prefix sums never fall, so the first r < prefix[i] is the upper bound.
  auto it = std::upper_bound(prefix.begin(), prefix.end(), r);
  return it == prefix.end() ? prefix.size() - 1 : static_cast<size_t>(it - prefix.begin());
}

SimDuration UniformDelay::Sample(Rng& rng) {
  return std::max<SimDuration>(0, rng.UniformInt(lo_, hi_));
}

LogNormalDelay::LogNormalDelay(SimDuration median, double sigma, SimDuration min_d,
                               SimDuration max_d)
    : median_ns_(static_cast<double>(median)), sigma_(sigma), min_(min_d), max_(max_d) {}

SimDuration LogNormalDelay::Sample(Rng& rng) {
  double v = rng.LogNormalMedian(median_ns_, sigma_);
  auto d = static_cast<SimDuration>(v);
  d = std::max(d, min_);
  if (max_ > 0) {
    d = std::min(d, max_);
  }
  return d;
}

MixtureDelay::MixtureDelay(std::vector<Component> components)
    : components_(std::move(components)) {
  std::vector<double> weights;
  weights.reserve(components_.size());
  for (const auto& c : components_) {
    weights.push_back(c.weight);
  }
  cdf_ = WeightedCdf(weights);
}

SimDuration MixtureDelay::Sample(Rng& rng) {
  size_t idx = rng.WeightedIndex(cdf_);
  return components_[idx].model->Sample(rng);
}

}  // namespace moputil
