// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the query engine: scans under the three visibilities, the
// one-pass aggregate kernel, the ground-truth oracle, the executor's plan
// equivalence and the summary blending.

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/index_manager.h"
#include "obs/engine_metrics.h"
#include "query/executor.h"
#include "query/oracle.h"
#include "query/predicate.h"
#include "query/scan.h"
#include "storage/table.h"

namespace amnesia {
namespace {

Table MakeTableWithValues(const std::vector<Value>& values) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  for (Value v : values) {
    EXPECT_TRUE(t.AppendRow({v}).ok());
  }
  return t;
}

// -------------------------------------------------------------- Predicate

TEST(PredicateTest, Matches) {
  RangePredicate p{0, 10, 20};
  EXPECT_TRUE(p.Matches(10));
  EXPECT_TRUE(p.Matches(19));
  EXPECT_FALSE(p.Matches(20));
  EXPECT_FALSE(p.Matches(9));
}

TEST(PredicateTest, AllMatchesEverything) {
  RangePredicate p = RangePredicate::All(0);
  EXPECT_TRUE(p.Matches(0));
  EXPECT_TRUE(p.Matches(-1'000'000'000));
  EXPECT_TRUE(p.Matches(1'000'000'000));
  EXPECT_FALSE(p.Empty());
}

TEST(PredicateTest, EmptyAndWidth) {
  EXPECT_TRUE((RangePredicate{0, 5, 5}).Empty());
  EXPECT_TRUE((RangePredicate{0, 6, 5}).Empty());
  EXPECT_EQ((RangePredicate{0, 5, 15}).Width(), 10u);
  EXPECT_EQ((RangePredicate{0, 9, 5}).Width(), 0u);
}

TEST(PredicateTest, WidthAtDomainExtremes) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  // The full domain: a signed hi - lo would overflow (UB); the unsigned
  // computation measures it exactly as 2^64 - 1.
  EXPECT_EQ((RangePredicate{0, kMin, kMax}).Width(),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(RangePredicate::All(0).Width(),
            std::numeric_limits<uint64_t>::max());
  // Half-domain spans crossing zero.
  EXPECT_EQ((RangePredicate{0, kMin, 0}).Width(), uint64_t{1} << 63);
  EXPECT_EQ((RangePredicate{0, 0, kMax}).Width(),
            (uint64_t{1} << 63) - 1);
  EXPECT_EQ((RangePredicate{0, -1, kMax}).Width(), uint64_t{1} << 63);
  // Single-value ranges at both extremes.
  EXPECT_EQ((RangePredicate{0, kMin, kMin + 1}).Width(), 1u);
  EXPECT_EQ((RangePredicate{0, kMax - 1, kMax}).Width(), 1u);
  // Empty/inverted ranges at the extremes stay width 0.
  EXPECT_EQ((RangePredicate{0, kMax, kMax}).Width(), 0u);
  EXPECT_EQ((RangePredicate{0, kMax, kMin}).Width(), 0u);
  // UnsignedSpan is the vectorized kernel's comparison constant: a value
  // is inside iff uint64(v) - uint64(lo) < UnsignedSpan().
  const RangePredicate full{0, kMin, kMax};
  const auto inside = [&](Value v) {
    return static_cast<uint64_t>(v) - static_cast<uint64_t>(full.lo) <
           full.UnsignedSpan();
  };
  EXPECT_TRUE(inside(kMin));
  EXPECT_TRUE(inside(0));
  EXPECT_TRUE(inside(kMax - 1));
  EXPECT_FALSE(inside(kMax));
}

// ------------------------------------------------------------------ Scan

TEST(ScanTest, ActiveOnlyHidesForgotten) {
  Table t = MakeTableWithValues({10, 20, 30});
  ASSERT_TRUE(t.Forget(1).ok());
  const ResultSet r =
      ScanRange(t, RangePredicate{0, 0, 100}, Visibility::kActiveOnly)
          .value();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.values[0], 10);
  EXPECT_EQ(r.values[1], 30);
}

TEST(ScanTest, AllSeesForgotten) {
  Table t = MakeTableWithValues({10, 20, 30});
  ASSERT_TRUE(t.Forget(1).ok());
  const ResultSet r =
      ScanRange(t, RangePredicate{0, 0, 100}, Visibility::kAll).value();
  EXPECT_EQ(r.size(), 3u);
}

TEST(ScanTest, ForgottenOnly) {
  Table t = MakeTableWithValues({10, 20, 30});
  ASSERT_TRUE(t.Forget(1).ok());
  const ResultSet r =
      ScanRange(t, RangePredicate{0, 0, 100}, Visibility::kForgottenOnly)
          .value();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.values[0], 20);
}

TEST(ScanTest, PredicateBoundsAreHalfOpen) {
  Table t = MakeTableWithValues({10, 20, 30});
  EXPECT_EQ(ScanRange(t, RangePredicate{0, 10, 30}, Visibility::kAll)
                .value()
                .size(),
            2u);
}

TEST(ScanTest, BadColumnRejected) {
  Table t = MakeTableWithValues({10});
  EXPECT_EQ(
      ScanRange(t, RangePredicate{4, 0, 1}, Visibility::kAll).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(ScanTest, CountMatchesScan) {
  Table t = MakeTableWithValues({1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(t.Forget(0).ok());
  ASSERT_TRUE(t.Forget(5).ok());
  const RangePredicate pred{0, 2, 6};
  const uint64_t count = CountRange(t, pred, Visibility::kActiveOnly).value();
  const ResultSet scan = ScanRange(t, pred, Visibility::kActiveOnly).value();
  EXPECT_EQ(count, scan.size());
}

TEST(ScanTest, AggregateKernelComputesAllAggregates) {
  Table t = MakeTableWithValues({2, 4, 6, 8});
  const AggregateResult agg =
      AggregateRange(t, RangePredicate::All(0), Visibility::kActiveOnly)
          .value();
  EXPECT_EQ(agg.count, 4u);
  EXPECT_DOUBLE_EQ(agg.sum, 20.0);
  EXPECT_DOUBLE_EQ(agg.avg, 5.0);
  EXPECT_DOUBLE_EQ(agg.min, 2.0);
  EXPECT_DOUBLE_EQ(agg.max, 8.0);
  EXPECT_DOUBLE_EQ(agg.variance, 5.0);
  EXPECT_DOUBLE_EQ(agg.Get(AggregateKind::kCount), 4.0);
  EXPECT_DOUBLE_EQ(agg.Get(AggregateKind::kAvg), 5.0);
  EXPECT_DOUBLE_EQ(agg.Get(AggregateKind::kVariance), 5.0);
}

TEST(ScanTest, AggregateEmptyResult) {
  Table t = MakeTableWithValues({2});
  const AggregateResult agg =
      AggregateRange(t, RangePredicate{0, 100, 200}, Visibility::kActiveOnly)
          .value();
  EXPECT_EQ(agg.count, 0u);
  EXPECT_DOUBLE_EQ(agg.avg, 0.0);
}

// ---------------------------------------------------------------- Oracle

TEST(OracleTest, CountRangeAfterSeal) {
  GroundTruthOracle oracle;
  for (Value v : {5, 1, 9, 5, 3}) oracle.Append(v);
  oracle.Seal();
  EXPECT_EQ(oracle.size(), 5u);
  EXPECT_EQ(oracle.CountRange(1, 6).value(), 4u);
  EXPECT_EQ(oracle.CountRange(5, 6).value(), 2u);
  EXPECT_EQ(oracle.CountRange(10, 20).value(), 0u);
  EXPECT_EQ(oracle.CountRange(6, 1).value(), 0u);
}

TEST(OracleTest, UnsealedQueriesFail) {
  GroundTruthOracle oracle;
  oracle.Append(1);
  EXPECT_EQ(oracle.CountRange(0, 10).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(oracle.AggregateRange(0, 10).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(oracle.ValueAt(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(OracleTest, SealIsIdempotentAndIncremental) {
  GroundTruthOracle oracle;
  oracle.Append(5);
  oracle.Seal();
  oracle.Seal();
  oracle.Append(1);
  oracle.Seal();
  EXPECT_EQ(oracle.CountRange(0, 10).value(), 2u);
  EXPECT_EQ(oracle.ValueAt(0).value(), 1);
  EXPECT_EQ(oracle.ValueAt(1).value(), 5);
  EXPECT_EQ(oracle.ValueAt(2).status().code(), StatusCode::kOutOfRange);
}

TEST(OracleTest, MinMaxSeen) {
  GroundTruthOracle oracle;
  oracle.Append(5);
  oracle.Append(-2);
  oracle.Append(11);
  EXPECT_EQ(oracle.min_seen(), -2);
  EXPECT_EQ(oracle.max_seen(), 11);
}

TEST(OracleTest, AggregateRangeMatchesManualComputation) {
  GroundTruthOracle oracle;
  for (Value v : {2, 4, 6, 8, 100}) oracle.Append(v);
  oracle.Seal();
  const AggregateResult agg = oracle.AggregateRange(2, 9).value();
  EXPECT_EQ(agg.count, 4u);
  EXPECT_DOUBLE_EQ(agg.avg, 5.0);
  EXPECT_DOUBLE_EQ(agg.min, 2.0);
  EXPECT_DOUBLE_EQ(agg.max, 8.0);
  EXPECT_DOUBLE_EQ(agg.variance, 5.0);
  EXPECT_EQ(oracle.AggregateRange(50, 10).value().count, 0u);
}

/// Bit pattern of a double, so answers compare bit for bit.
uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// The oracle's answers computed the way a full re-sort of the whole
/// history does: sort everything, sum prefixes from index 0.
class ResortedHistory {
 public:
  void Append(Value v) { values_.push_back(v); }

  void Resort() {
    std::sort(values_.begin(), values_.end());
    sum_.assign(values_.size() + 1, 0.0);
    sq_.assign(values_.size() + 1, 0.0);
    for (size_t i = 0; i < values_.size(); ++i) {
      const double v = static_cast<double>(values_[i]);
      sum_[i + 1] = sum_[i] + v;
      sq_[i + 1] = sq_[i] + v * v;
    }
  }

  const std::vector<Value>& values() const { return values_; }

  AggregateResult Aggregate(Value lo, Value hi) const {
    AggregateResult out;
    if (lo >= hi) return out;
    const size_t first = static_cast<size_t>(
        std::lower_bound(values_.begin(), values_.end(), lo) -
        values_.begin());
    const size_t last = static_cast<size_t>(
        std::lower_bound(values_.begin(), values_.end(), hi) -
        values_.begin());
    if (first >= last) return out;
    const double count = static_cast<double>(last - first);
    out.count = last - first;
    out.sum = sum_[last] - sum_[first];
    out.avg = out.sum / count;
    out.min = static_cast<double>(values_[first]);
    out.max = static_cast<double>(values_[last - 1]);
    out.variance = (sq_[last] - sq_[first]) / count - out.avg * out.avg;
    if (out.variance < 0.0) out.variance = 0.0;
    return out;
  }

 private:
  std::vector<Value> values_;
  std::vector<double> sum_;
  std::vector<double> sq_;
};

TEST(OracleTest, MergeOnSealMatchesAFullResortBitForBit) {
  // Batches of every shape the merge has an edge for: duplicates and
  // negatives, all-equal values, a batch wholly below the history's
  // minimum or above its maximum, and values large enough that double
  // sums round, so any change in summation order shows in the bits. The
  // first seal lands on an empty history.
  //
  // Prefix sums are built only when an aggregate asks, from the lowest
  // index any seal moved since the last build. The first pass aggregates
  // after every seal; the second only after a random subset of seals,
  // none in the first 20 and then gaps of 1-6 seals, so one build spans
  // several merges. ValueAt and CountRange are checked after every seal.
  for (const bool every_seal : {true, false}) {
    GroundTruthOracle oracle;
    ResortedHistory reference;
    Rng rng(20260417);
    Rng schedule(20261017);
    int next_aggregate = every_seal ? 0 : 20;
    constexpr Value kHuge = Value{1} << 60;
    for (int seal = 0; seal < 300; ++seal) {
      const int shape =
          seal == 0 ? 0 : static_cast<int>(rng.UniformInt(0, 5));
      const int n = static_cast<int>(rng.UniformInt(1, 40));
      const Value equal = rng.UniformInt(-20, 20);
      for (int i = 0; i < n; ++i) {
        Value v = 0;
        switch (shape) {
          case 0: v = rng.UniformInt(-20, 20); break;  // duplicates, negatives
          case 1: v = equal; break;                    // all equal
          case 2: v = oracle.min_seen() - rng.UniformInt(1, 1000); break;
          case 3: v = oracle.max_seen() + rng.UniformInt(1, 1000); break;
          case 4: v = rng.UniformInt(-kHuge, kHuge); break;  // sums round
          default: v = rng.UniformInt(-1000, 1000); break;
        }
        oracle.Append(v);
        reference.Append(v);
      }
      oracle.Seal();
      reference.Resort();
      const bool aggregate = seal == next_aggregate;
      if (aggregate) {
        next_aggregate += every_seal ? 1 : static_cast<int>(
                                               schedule.UniformInt(1, 6));
      }

      const std::vector<Value>& values = reference.values();
      ASSERT_EQ(oracle.size(), values.size());
      for (uint64_t i = 0; i < values.size(); ++i) {
        ASSERT_EQ(oracle.ValueAt(i).value(), values[i]) << "seal " << seal;
      }
      for (int q = 0; q < 20; ++q) {
        Value lo = values[rng.UniformIndex(values.size())];
        Value hi = values[rng.UniformIndex(values.size())];
        if (q % 4 == 0) hi = lo + rng.UniformInt(-2, 3);  // narrow or empty
        if (q == 0) {
          lo = std::numeric_limits<Value>::min();
          hi = std::numeric_limits<Value>::max();
        }
        const AggregateResult want = reference.Aggregate(lo, hi);
        EXPECT_EQ(oracle.CountRange(lo, hi).value(), want.count)
            << "seal " << seal << " q " << q;
        if (!aggregate) continue;
        const AggregateResult got = oracle.AggregateRange(lo, hi).value();
        ASSERT_EQ(got.count, want.count) << "seal " << seal << " q " << q;
        EXPECT_EQ(Bits(got.sum), Bits(want.sum)) << "seal " << seal;
        EXPECT_EQ(Bits(got.avg), Bits(want.avg)) << "seal " << seal;
        EXPECT_EQ(Bits(got.min), Bits(want.min)) << "seal " << seal;
        EXPECT_EQ(Bits(got.max), Bits(want.max)) << "seal " << seal;
        EXPECT_EQ(Bits(got.variance), Bits(want.variance))
            << "seal " << seal;
      }
    }
  }
}

/// Checks every answer of `oracle` against `reference`, which must hold
/// the same values, freshly re-sorted: size, ValueAt at both ends, past
/// the end and at 1,000 sampled indices (every index of a smaller
/// history), CountRange over 20 ranges, and, when `aggregate`,
/// AggregateRange over 10 of them, bit for bit.
void ExpectSameAnswers(GroundTruthOracle* oracle,
                       const ResortedHistory& reference, bool aggregate,
                       Rng* rng, int seal) {
  const std::vector<Value>& values = reference.values();
  ASSERT_EQ(oracle->size(), values.size()) << "seal " << seal;
  const uint64_t n = values.size();
  ASSERT_EQ(oracle->ValueAt(0).value(), values.front()) << "seal " << seal;
  ASSERT_EQ(oracle->ValueAt(n - 1).value(), values.back()) << "seal " << seal;
  ASSERT_EQ(oracle->ValueAt(n).status().code(), StatusCode::kOutOfRange);
  for (uint64_t s = 0; s < std::min<uint64_t>(n, 1000); ++s) {
    const uint64_t i = n <= 1000 ? s : rng->UniformIndex(n);
    ASSERT_EQ(oracle->ValueAt(i).value(), values[i])
        << "seal " << seal << " index " << i;
  }
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  for (int q = 0; q < 20; ++q) {
    Value lo = values[rng->UniformIndex(n)];
    Value hi = values[rng->UniformIndex(n)];
    if (q % 4 == 1) {  // narrow or empty, saturating at the domain's ends
      const Value d = rng->UniformInt(-2, 3);
      hi = d < 0 ? (lo < kMin - d ? kMin : lo + d)
                 : (lo > kMax - d ? kMax : lo + d);
    }
    if (q == 0) {
      lo = kMin;
      hi = kMax;
    }
    const AggregateResult want = reference.Aggregate(lo, hi);
    ASSERT_EQ(oracle->CountRange(lo, hi).value(), want.count)
        << "seal " << seal << " q " << q;
    if (!aggregate || q >= 10) continue;
    const AggregateResult got = oracle->AggregateRange(lo, hi).value();
    ASSERT_EQ(got.count, want.count) << "seal " << seal << " q " << q;
    EXPECT_EQ(Bits(got.sum), Bits(want.sum)) << "seal " << seal;
    EXPECT_EQ(Bits(got.avg), Bits(want.avg)) << "seal " << seal;
    EXPECT_EQ(Bits(got.min), Bits(want.min)) << "seal " << seal;
    EXPECT_EQ(Bits(got.max), Bits(want.max)) << "seal " << seal;
    EXPECT_EQ(Bits(got.variance), Bits(want.variance)) << "seal " << seal;
  }
}

TEST(OracleTest, DeltaAndFoldsMatchAFullResortAtScale) {
  // Batches of 1-4,000 values over 200 seals, so the delta folds into the
  // history at many sizes. Aggregates, which fold first, come on a random
  // schedule with gaps of 1-12 seals, so some folds are the 1/8 rule's
  // and some an aggregate's. Batch shapes: uniform values, all-equal
  // batches, the int64 extremes with values over the whole domain (sums
  // round, so a change of summation order shows in the bits), and batches
  // wholly below or above every earlier value.
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  const Value extremes[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  GroundTruthOracle oracle;
  ResortedHistory reference;
  Rng rng(20261025);
  Rng checks(20261026);
  int next_aggregate = static_cast<int>(rng.UniformInt(1, 12));
  for (int seal = 0; seal < 200; ++seal) {
    const int64_t n = seal % 8 == 3 ? rng.UniformInt(1, 4000)
                                    : rng.UniformInt(1, 300);
    const int shape = seal == 0 ? 0 : static_cast<int>(rng.UniformInt(0, 4));
    const Value equal = rng.UniformInt(-1000, 1000);
    for (int64_t i = 0; i < n; ++i) {
      Value v = 0;
      switch (shape) {
        case 0: v = rng.UniformInt(-1000000, 1000000); break;
        case 1: v = equal; break;
        case 2:
          v = i % 2 == 0 ? extremes[rng.UniformIndex(7)]
                         : static_cast<Value>(rng.NextU64());
          break;
        case 3:  // below every earlier value
          v = oracle.min_seen() > kMin + 10000
                  ? oracle.min_seen() - rng.UniformInt(1, 10000)
                  : kMin;
          break;
        default:  // above every earlier value
          v = oracle.max_seen() < kMax - 10000
                  ? oracle.max_seen() + rng.UniformInt(1, 10000)
                  : kMax;
          break;
      }
      oracle.Append(v);
      reference.Append(v);
    }
    oracle.Seal();
    reference.Resort();
    const bool aggregate = seal == next_aggregate;
    if (aggregate) next_aggregate += static_cast<int>(rng.UniformInt(1, 12));
    ExpectSameAnswers(&oracle, reference, aggregate, &checks, seal);
    if (HasFatalFailure()) return;
  }
}

TEST(OracleTest, IncreasingBatchesMoveNothingAndMatchAFullResort) {
  // kSerial-like ingest: every batch lies above every earlier value, so
  // no merge moves a value, seal or fold. Equal runs of the current
  // maximum included. Aggregates on a random schedule.
  GroundTruthOracle oracle;
  ResortedHistory reference;
  Rng rng(20261027);
  Rng checks(20261028);
  const uint64_t moved_before = obs::EngineMetrics::Get()
                                    .oracle_values_merged->Value();
  Value next = -5000;
  for (int seal = 0; seal < 200; ++seal) {
    const int64_t n = seal % 8 == 3 ? rng.UniformInt(1, 4000)
                                    : rng.UniformInt(1, 300);
    for (int64_t i = 0; i < n; ++i) {
      next += rng.UniformInt(0, 2);
      oracle.Append(next);
      reference.Append(next);
    }
    oracle.Seal();
    reference.Resort();
    ExpectSameAnswers(&oracle, reference, rng.UniformInt(0, 5) == 0,
                      &checks, seal);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(obs::EngineMetrics::Get().oracle_values_merged->Value(),
            moved_before);
}

TEST(OracleTest, TheDeltaFoldsAtAnEighthOfTheHistory) {
#if defined(AMNESIA_NO_METRICS)
  GTEST_SKIP() << "metrics compiled out (AMNESIA_NO_METRICS)";
#endif
  obs::Counter* folds = obs::EngineMetrics::Get().oracle_folds;
  GroundTruthOracle oracle;
  // The initial load folds at once: the history is empty.
  uint64_t folded = folds->Value();
  for (Value v = 0; v < 800; ++v) oracle.Append(v * 3);
  oracle.Seal();
  EXPECT_EQ(folds->Value(), folded + 1);
  // Ten-value batches fold once the delta holds 100 = 800 / 8 values.
  folded = folds->Value();
  for (int seal = 1; seal <= 10; ++seal) {
    for (Value v = 0; v < 10; ++v) oracle.Append(v * 7 + seal);
    oracle.Seal();
    EXPECT_EQ(folds->Value(), folded + (seal == 10 ? 1 : 0)) << seal;
  }
  // An aggregate folds what the delta holds; with none, it folds nothing.
  oracle.Append(5);
  oracle.Seal();
  folded = folds->Value();
  EXPECT_EQ(oracle.AggregateRange(-1, 3000).value().count, 901u);
  EXPECT_EQ(oracle.AggregateRange(-1, 3000).value().count, 901u);
  EXPECT_EQ(folds->Value(), folded + 1);
}

TEST(OracleTest, ScanAndOracleAgreeWithoutAmnesia) {
  Table t = MakeTableWithValues({3, 1, 4, 1, 5, 9, 2, 6});
  GroundTruthOracle oracle;
  for (RowId r = 0; r < t.num_rows(); ++r) oracle.Append(t.value(0, r));
  oracle.Seal();
  for (Value lo = 0; lo < 10; ++lo) {
    for (Value hi = lo; hi < 11; ++hi) {
      EXPECT_EQ(
          CountRange(t, RangePredicate{0, lo, hi}, Visibility::kActiveOnly)
              .value(),
          oracle.CountRange(lo, hi).value());
    }
  }
}

// -------------------------------------------------------------- Executor

TEST(ExecutorTest, PlansAgreeOnResults) {
  std::vector<Value> values;
  Rng rng(71);
  for (int i = 0; i < 500; ++i) values.push_back(rng.UniformInt(0, 300));
  Table t = MakeTableWithValues(values);
  for (int i = 0; i < 100; ++i) {
    // Double-forgets are rejected by the table; skipping them is fine here.
    const Status s = t.Forget(static_cast<RowId>(rng.UniformInt(0, 499)));
    (void)s;
  }
  IndexManager mgr;
  Executor exec(&t, &mgr);

  for (int q = 0; q < 30; ++q) {
    const Value lo = rng.UniformInt(0, 300);
    const RangePredicate pred{0, lo, lo + rng.UniformInt(1, 50)};
    ExecOptions full, brin, btree;
    full.plan = PlanKind::kFullScan;
    brin.plan = PlanKind::kBrinScan;
    btree.plan = PlanKind::kBTreeProbe;
    full.record_access = brin.record_access = btree.record_access = false;
    const ResultSet rf = exec.ExecuteRange(pred, full).value();
    const ResultSet rb = exec.ExecuteRange(pred, brin).value();
    const ResultSet rt = exec.ExecuteRange(pred, btree).value();
    EXPECT_EQ(rf.rows, rb.rows);
    EXPECT_EQ(rf.rows, rt.rows);
    EXPECT_EQ(rf.values, rt.values);
  }
  EXPECT_GT(exec.stats().full_scans, 0u);
  EXPECT_GT(exec.stats().brin_scans, 0u);
  EXPECT_GT(exec.stats().btree_probes, 0u);
  EXPECT_EQ(exec.stats().queries, 90u);
}

TEST(ExecutorTest, NullIndexManagerFallsBackToFullScan) {
  Table t = MakeTableWithValues({1, 2, 3});
  Executor exec(&t, nullptr);
  ExecOptions opts;
  opts.plan = PlanKind::kBTreeProbe;
  const ResultSet r = exec.ExecuteRange(RangePredicate{0, 0, 10}, opts).value();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(exec.stats().full_scans, 1u);
  EXPECT_EQ(exec.stats().btree_probes, 0u);
}

TEST(ExecutorTest, RecordAccessBumpsResultTuples) {
  Table t = MakeTableWithValues({5, 50});
  IndexManager mgr;
  Executor exec(&t, &mgr);
  ExecOptions opts;
  opts.record_access = true;
  ASSERT_TRUE(exec.ExecuteRange(RangePredicate{0, 0, 10}, opts).ok());
  EXPECT_EQ(t.access_count(0), 1u);
  EXPECT_EQ(t.access_count(1), 0u);
  opts.record_access = false;
  ASSERT_TRUE(exec.ExecuteRange(RangePredicate{0, 0, 10}, opts).ok());
  EXPECT_EQ(t.access_count(0), 1u);
}

TEST(ExecutorTest, AggregateMatchesScanKernel) {
  Table t = MakeTableWithValues({2, 4, 6, 8, 10});
  ASSERT_TRUE(t.Forget(4).ok());
  IndexManager mgr;
  Executor exec(&t, &mgr);
  ExecOptions full, btree;
  full.plan = PlanKind::kFullScan;
  btree.plan = PlanKind::kBTreeProbe;
  const AggregateResult a =
      exec.ExecuteAggregate(RangePredicate{0, 0, 100}, full).value();
  const AggregateResult b =
      exec.ExecuteAggregate(RangePredicate{0, 0, 100}, btree).value();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.avg, b.avg);
  EXPECT_DOUBLE_EQ(a.avg, 5.0);
}

TEST(ExecutorTest, BadColumnRejected) {
  Table t = MakeTableWithValues({1});
  IndexManager mgr;
  Executor exec(&t, &mgr);
  EXPECT_FALSE(exec.ExecuteRange(RangePredicate{9, 0, 1}, ExecOptions{}).ok());
}

// -------------------------------------------------------- Summary blending

TEST(BlendTest, EmptyForgottenIsIdentity) {
  AggregateResult active;
  active.count = 2;
  active.sum = 10;
  active.avg = 5;
  active.min = 1;
  active.max = 9;
  const AggregateResult out = BlendAggregates(active, Summary{});
  EXPECT_EQ(out.count, 2u);
  EXPECT_DOUBLE_EQ(out.avg, 5.0);
}

TEST(BlendTest, CombinesCountsSumsAndExtremes) {
  AggregateResult active;
  active.count = 2;
  active.sum = 10.0;
  active.avg = 5.0;
  active.min = 4.0;
  active.max = 6.0;
  Summary forgotten;
  forgotten.Add(0);
  forgotten.Add(20);
  const AggregateResult out = BlendAggregates(active, forgotten);
  EXPECT_EQ(out.count, 4u);
  EXPECT_DOUBLE_EQ(out.sum, 30.0);
  EXPECT_DOUBLE_EQ(out.avg, 7.5);
  EXPECT_DOUBLE_EQ(out.min, 0.0);
  EXPECT_DOUBLE_EQ(out.max, 20.0);
}

TEST(BlendTest, EmptyActiveTakesForgottenShape) {
  AggregateResult active;  // count == 0
  Summary forgotten;
  forgotten.Add(10);
  const AggregateResult out = BlendAggregates(active, forgotten);
  EXPECT_EQ(out.count, 1u);
  EXPECT_DOUBLE_EQ(out.avg, 10.0);
  EXPECT_DOUBLE_EQ(out.min, 10.0);
}

TEST(ExecutorTest, AggregateWithSummaryRecoversForgottenMass) {
  Table t = MakeTableWithValues({10, 20, 30, 40});
  SummaryStore summaries;
  // Forget rows 0 and 3, folding them into the summary tier.
  summaries.AddForgotten(0, 0, 10);
  summaries.AddForgotten(0, 0, 40);
  ASSERT_TRUE(t.Forget(0).ok());
  ASSERT_TRUE(t.Forget(3).ok());
  IndexManager mgr;
  Executor exec(&t, &mgr);

  ExecOptions opts;
  const AggregateResult naked =
      exec.ExecuteAggregate(RangePredicate::All(0), opts).value();
  EXPECT_DOUBLE_EQ(naked.avg, 25.0);  // only 20 and 30 remain

  const AggregateResult blended =
      exec.ExecuteAggregateWithSummary(RangePredicate::All(0), summaries, opts)
          .value();
  EXPECT_EQ(blended.count, 4u);
  // Summary range estimation is approximate (midpoint), but a full-range
  // query recovers the exact count and a close sum.
  EXPECT_NEAR(blended.avg, 25.0, 2.0);
  EXPECT_DOUBLE_EQ(blended.min, 10.0);
  EXPECT_DOUBLE_EQ(blended.max, 40.0);
}

}  // namespace
}  // namespace amnesia
