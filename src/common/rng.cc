// Copyright 2026 The AmnesiaDB Authors

#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <utility>

#include "common/bitmap.h"

namespace amnesia {

namespace {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) s = sm.Next();
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  // Lemire's multiply-shift rejection method: unbiased, one division in the
  // rare rejection path only.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < span) {
    const uint64_t threshold = (0 - span) % span;
    while (l < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * span;
      l = static_cast<uint64_t>(m);
    }
  }
  return lo + static_cast<int64_t>(m >> 64);
}

size_t Rng::UniformIndex(size_t n) {
  assert(n > 0);
  return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * mul;
  has_spare_gaussian_ = true;
  return u * mul;
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  std::vector<size_t> out;
  if (n == 0 || k == 0) return out;
  if (k >= n) {
    out.resize(n);
    for (size_t i = 0; i < n; ++i) out[i] = i;
    Shuffle(&out);
    return out;
  }
  // Floyd's algorithm. Membership is one bit per candidate: n/64 words to
  // clear, then one bit test and set per draw.
  Bitmap chosen(n);
  out.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(j)));
    if (chosen.Test(t)) t = j;
    chosen.Set(t);
    out.push_back(t);
  }
  Shuffle(&out);
  return out;
}

std::vector<size_t> Rng::WeightedSampleWithoutReplacement(
    const std::vector<double>& weights, size_t k) {
  // Efraimidis-Spirakis: key_i = u^(1/w_i); take the k largest keys.
  // Equivalently take the k smallest of -log(u)/w_i (exponential keys),
  // which is numerically friendlier.
  using Entry = std::pair<double, size_t>;  // (exp key, index)
  std::vector<size_t> out;
  const size_t n = weights.size();
  if (n == 0 || k == 0) return out;
  k = std::min(k, n);

  std::priority_queue<Entry> heap;  // max-heap on key: keep k smallest keys
  std::vector<size_t> zero_weight;
  for (size_t i = 0; i < n; ++i) {
    const double w = weights[i];
    if (!(w > 0.0)) {
      zero_weight.push_back(i);
      continue;
    }
    double u = NextDouble();
    if (u <= 0.0) u = 0x1.0p-53;
    const double key = -std::log(u) / w;
    if (heap.size() < k) {
      heap.emplace(key, i);
    } else if (key < heap.top().first) {
      heap.pop();
      heap.emplace(key, i);
    }
  }
  out.reserve(k);
  while (!heap.empty()) {
    out.push_back(heap.top().second);
    heap.pop();
  }
  // Top up from zero-weight items only when positive-weight items ran out.
  if (out.size() < k && !zero_weight.empty()) {
    Shuffle(&zero_weight);
    for (size_t i = 0; i < zero_weight.size() && out.size() < k; ++i) {
      out.push_back(zero_weight[i]);
    }
  }
  return out;
}

}  // namespace amnesia
