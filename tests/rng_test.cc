// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the RNG and the Zipf sampler, including parameterized
// statistical property sweeps.

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/zipf.h"

namespace amnesia {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(1234), b(1234);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SeedsProduceDistinctStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntIsApproximatelyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(0, 9)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);  // within 10%
  }
}

TEST(RngTest, UniformIndexBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformIndex(17), 17u);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, NormalScalesAndShifts) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(100.0, 5.0);
  EXPECT_NEAR(sum / n, 100.0, 0.2);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleEmptyAndSingle) {
  Rng rng(23);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{9};
  rng.Shuffle(&one);
  EXPECT_EQ(one[0], 9);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndBounded) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementWholePopulation) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementOverask) {
  Rng rng(29);
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 50).size(), 5u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(0, 5).empty());
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

// The sampler's exact output is part of every seeded experiment: uniform
// victim choice, and with it the journal, the digests and the on-disk
// files, follows from it. Any change to how the sampler tracks chosen
// ranks must reproduce these samples and leave the generator in the same
// state.
TEST(RngTest, SampleWithoutReplacementSequenceIsPinned) {
  // FNV-1a over the sampled indices, for the samples too long to list.
  auto fnv = [](const std::vector<size_t>& sample) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t s : sample) {
      h ^= static_cast<uint64_t>(s);
      h *= 0x100000001b3ull;
    }
    return h;
  };
  struct Pinned {
    uint64_t seed;
    size_t n, k;
    std::vector<size_t> head;  // the first entries of the sample
    size_t size;
    uint64_t fnv;
    uint64_t next;  // the generator's next output after sampling
  };
  const Pinned cases[] = {
      {1, 10, 3, {5, 9, 4}, 3, 0xae1c451853a1399dull, 0x24c123126ffda722ull},
      {7, 100, 20, {13, 99, 24, 35, 53, 49, 45, 5, 42, 93, 75, 69, 9, 56, 22,
                    67, 84, 15, 87, 82},
       20, 0xa8b5363ad9436afbull, 0xfbb791ae9afdb47aull},
      {2026, 64, 63, {50, 5, 62, 9, 21, 49, 58, 39}, 63,
       0xecb4bef00a53ab3eull, 0x5e709709136fcff7ull},
      {42, 5000, 2500, {1931, 258, 4314, 263, 2001, 4996, 4916, 4733}, 2500,
       0x8098712724e7ca60ull, 0x4b77d3ba01db1bb4ull},
      {5, 1000000, 10,
       {602077, 288408, 503888, 808659, 516711, 821545, 784520, 362536,
        649542, 380942},
       10, 0x2d2b38f8b559a0c1ull, 0xb850737f0583768full},
      // k >= n: the whole population, shuffled.
      {11, 6, 9, {2, 3, 5, 4, 0, 1}, 6, 0x9b0017b41e3d1a88ull,
       0x4e820951419a2d8full},
      {99, 5000, 5000, {3329, 1439, 773, 3229, 3797, 4701, 4484, 3648}, 5000,
       0x6bc2c35f1683682bull, 0x8fc128d7c0132585ull},
  };
  for (const Pinned& c : cases) {
    Rng rng(c.seed);
    const std::vector<size_t> sample = rng.SampleWithoutReplacement(c.n, c.k);
    ASSERT_EQ(sample.size(), c.size) << "seed " << c.seed;
    EXPECT_TRUE(std::equal(c.head.begin(), c.head.end(), sample.begin()))
        << "seed " << c.seed;
    EXPECT_EQ(fnv(sample), c.fnv) << "seed " << c.seed;
    EXPECT_EQ(rng.NextU64(), c.next) << "seed " << c.seed;
  }
}

TEST(RngTest, SampleWithoutReplacementIsUnbiased) {
  Rng rng(31);
  std::vector<int> hits(10, 0);
  const int rounds = 20000;
  for (int r = 0; r < rounds; ++r) {
    for (size_t s : rng.SampleWithoutReplacement(10, 3)) ++hits[s];
  }
  // Each index should be picked with probability 3/10.
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / rounds, 0.3, 0.02);
  }
}

TEST(RngTest, WeightedSampleRespectsK) {
  Rng rng(37);
  std::vector<double> w{1.0, 1.0, 1.0, 1.0};
  EXPECT_EQ(rng.WeightedSampleWithoutReplacement(w, 2).size(), 2u);
  EXPECT_EQ(rng.WeightedSampleWithoutReplacement(w, 10).size(), 4u);
  EXPECT_TRUE(rng.WeightedSampleWithoutReplacement({}, 3).empty());
}

TEST(RngTest, WeightedSampleDistinct) {
  Rng rng(37);
  std::vector<double> w(50, 1.0);
  const auto sample = rng.WeightedSampleWithoutReplacement(w, 25);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 25u);
}

TEST(RngTest, WeightedSampleFavorsHeavyItems) {
  Rng rng(41);
  std::vector<double> w{100.0, 1.0, 1.0, 1.0};
  int heavy_hits = 0;
  const int rounds = 5000;
  for (int r = 0; r < rounds; ++r) {
    const auto s = rng.WeightedSampleWithoutReplacement(w, 1);
    ASSERT_EQ(s.size(), 1u);
    if (s[0] == 0) ++heavy_hits;
  }
  // P(idx 0) = 100/103 ~ 0.97.
  EXPECT_GT(static_cast<double>(heavy_hits) / rounds, 0.9);
}

TEST(RngTest, WeightedSampleAvoidsZeroWeightWhenPossible) {
  Rng rng(43);
  std::vector<double> w{0.0, 1.0, 0.0, 1.0};
  for (int r = 0; r < 100; ++r) {
    for (size_t s : rng.WeightedSampleWithoutReplacement(w, 2)) {
      EXPECT_TRUE(s == 1 || s == 3);
    }
  }
}

TEST(RngTest, WeightedSampleFallsBackToZeroWeight) {
  Rng rng(43);
  std::vector<double> w{0.0, 1.0, 0.0};
  const auto s = rng.WeightedSampleWithoutReplacement(w, 3);
  std::set<size_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 3u);  // everything selected, zeros last resort
}

// ------------------------------------------------------------------ Zipf

TEST(ZipfTest, BoundsRespected) {
  Rng rng(47);
  ZipfSampler zipf(100, 1.0);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(&rng), 100u);
}

TEST(ZipfTest, SingleRankAlwaysZero) {
  Rng rng(47);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Next(&rng), 0u);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(50, 0.8);
  double sum = 0.0;
  for (uint64_t k = 0; k < 50; ++k) sum += zipf.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PmfIsDecreasingInRank) {
  ZipfSampler zipf(20, 1.2);
  for (uint64_t k = 1; k < 20; ++k) {
    EXPECT_GT(zipf.Pmf(k - 1), zipf.Pmf(k));
  }
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  Rng rng(53);
  ZipfSampler zipf(10, 1.0);
  std::vector<int> counts(10, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Next(&rng)];
  for (uint64_t k = 0; k < 10; ++k) {
    const double expected = zipf.Pmf(k);
    const double observed = static_cast<double>(counts[k]) / n;
    EXPECT_NEAR(observed, expected, 0.01) << "rank " << k;
  }
}

// Parameterized sweep: the rank-0 mass grows with theta, and the sampler
// stays in bounds for a spread of (n, theta) combinations.
class ZipfSweepTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(ZipfSweepTest, InBoundsAndHeadHeavy) {
  const auto [n, theta] = GetParam();
  Rng rng(59);
  ZipfSampler zipf(n, theta);
  uint64_t head = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const uint64_t r = zipf.Next(&rng);
    ASSERT_LT(r, n);
    if (r == 0) ++head;
  }
  // Rank 0 must be sampled at least as often as the uniform share.
  EXPECT_GT(static_cast<double>(head) / draws, 1.0 / static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    ZipfGrid, ZipfSweepTest,
    ::testing::Combine(::testing::Values<uint64_t>(2, 10, 1000, 100000),
                       ::testing::Values(0.5, 0.99, 1.0, 1.5)));

TEST(ZipfTest, HigherThetaMoreSkew) {
  Rng rng1(61), rng2(61);
  ZipfSampler mild(1000, 0.5), strong(1000, 1.5);
  int mild_head = 0, strong_head = 0;
  for (int i = 0; i < 20000; ++i) {
    if (mild.Next(&rng1) < 10) ++mild_head;
    if (strong.Next(&rng2) < 10) ++strong_head;
  }
  EXPECT_GT(strong_head, mild_head);
}

}  // namespace
}  // namespace amnesia
