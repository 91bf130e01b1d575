// Copyright 2026 The AmnesiaDB Authors
//
// Deterministic pseudo-random number generation. Every randomized component
// of AmnesiaDB (workload generators, amnesia policies, the simulator) takes
// an explicit Rng so experiments are exactly reproducible from a seed.
//
// The core generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 as its authors recommend. It is far faster than std::mt19937_64
// and has no measurable bias in the statistics this project relies on.

#ifndef AMNESIA_COMMON_RNG_H_
#define AMNESIA_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace amnesia {

/// \brief SplitMix64: tiny generator used for seeding and hashing.
///
/// Passes BigCrush when used standalone; here it expands one 64-bit seed
/// into the 256-bit state of Xoshiro256.
class SplitMix64 {
 public:
  /// Constructs the generator with the given seed.
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit value.
  uint64_t Next();

 private:
  uint64_t state_;
};

/// \brief xoshiro256**: the project-wide pseudo-random generator.
///
/// All sampling helpers (uniform ints, doubles, normals, Bernoulli,
/// shuffles, weighted choices) live on this class so call sites never touch
/// raw bits.
class Rng {
 public:
  /// Constructs a generator from a single 64-bit seed (expanded through
  /// SplitMix64). The same seed always produces the same stream.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Returns the next raw 64-bit value.
  uint64_t NextU64();

  /// Returns a double uniformly distributed in [0, 1).
  double NextDouble();

  /// Returns an integer uniformly distributed in [lo, hi] (inclusive).
  /// Precondition: lo <= hi. Uses Lemire's unbiased bounded technique.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns an index uniformly distributed in [0, n). Precondition: n > 0.
  size_t UniformIndex(size_t n);

  /// Returns true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Returns a sample from the standard normal distribution
  /// (Marsaglia polar method with caching of the spare deviate).
  double NextGaussian();

  /// Returns a sample from N(mean, stddev).
  double Normal(double mean, double stddev);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = UniformIndex(i + 1);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Samples `k` distinct indices uniformly from [0, n) without replacement.
  /// Returns fewer than k indices when k > n (all of them, shuffled).
  /// Uses Floyd's algorithm with a bitmap of the ranks chosen so far:
  /// O(k + n/64) time and n bits of scratch besides the k-entry output.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Samples `k` distinct indices from [0, n) with probability proportional
  /// to weights[i], without replacement (Efraimidis-Spirakis exponential
  /// keys). Zero/negative weights are never selected unless there are not
  /// enough positive-weight items. Returns min(k, n) indices.
  std::vector<size_t> WeightedSampleWithoutReplacement(
      const std::vector<double>& weights, size_t k);

 private:
  uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace amnesia

#endif  // AMNESIA_COMMON_RNG_H_
