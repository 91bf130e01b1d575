// Copyright 2026 The AmnesiaDB Authors
//
// Vectorized/scalar equivalence for the batch-at-a-time execution engine.
// The contract under test: for every table shape, visibility, amnesia
// policy, shard count and parallelism, Engine::kVectorized returns exactly
// the rows/values of Engine::kScalar, CountRange and the COUNT/MIN/MAX
// aggregates are bit-identical, and SUM/AVG/variance agree within FP
// reassociation tolerance. Plus unit coverage for the selection-bitmap
// kernels themselves (branch-free range select, visibility AND, morsel
// skip, dense/sparse accumulation).

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "amnesia/controller.h"
#include "amnesia/registry.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "index/index_manager.h"
#include "query/executor.h"
#include "query/oracle.h"
#include "query/predicate.h"
#include "query/scan.h"
#include "query/vector_kernels.h"
#include "storage/schema.h"
#include "storage/sharded_table.h"
#include "storage/table.h"

namespace amnesia {
namespace {

constexpr Visibility kAllVisibilities[] = {
    Visibility::kActiveOnly, Visibility::kAll, Visibility::kForgottenOnly};

// Small morsels so even modest tables span many of them.
constexpr uint64_t kTestMorselRows = 97;

constexpr Value kValueMin = std::numeric_limits<Value>::min();
constexpr Value kValueMax = std::numeric_limits<Value>::max();

Table MakeRandomTable(uint64_t rows, double forget_fraction, uint64_t seed,
                      Value lo = -1000, Value hi = 1000) {
  Table t = Table::Make(Schema::SingleColumn("a", -1000, 1000)).value();
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({rng.UniformInt(lo, hi)}).ok());
  }
  for (RowId r = 0; r < rows; ++r) {
    if (rng.NextDouble() < forget_fraction) {
      EXPECT_TRUE(t.Forget(r).ok());
    }
  }
  return t;
}

// Relative FP tolerance for the reassociation-sensitive aggregates.
void ExpectRelNear(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_NEAR(a, b, 1e-9 * scale);
}

// Bit-identical rows/values/COUNT/MIN/MAX, FP-tolerant SUM/AVG/variance.
void ExpectAggEqual(const AggregateResult& scalar,
                    const AggregateResult& vectorized) {
  EXPECT_EQ(scalar.count, vectorized.count);
  EXPECT_EQ(scalar.min, vectorized.min);
  EXPECT_EQ(scalar.max, vectorized.max);
  ExpectRelNear(scalar.sum, vectorized.sum);
  ExpectRelNear(scalar.avg, vectorized.avg);
  ExpectRelNear(scalar.variance, vectorized.variance);
}

// Runs every operator under both engines and checks the contract, serial
// and morsel-parallel at widths 1 and 4.
void ExpectEnginesAgree(const Table& table, const RangePredicate& pred) {
  ThreadPool pool(3);  // plus the caller: 4-way scans
  for (Visibility vis : kAllVisibilities) {
    const ResultSet scalar_rows =
        ScanRange(table, pred, vis, Engine::kScalar).value();
    const ResultSet vec_rows =
        ScanRange(table, pred, vis, Engine::kVectorized).value();
    EXPECT_EQ(scalar_rows.rows, vec_rows.rows);
    EXPECT_EQ(scalar_rows.values, vec_rows.values);

    const uint64_t scalar_count =
        CountRange(table, pred, vis, Engine::kScalar).value();
    EXPECT_EQ(scalar_count,
              CountRange(table, pred, vis, Engine::kVectorized).value());
    EXPECT_EQ(scalar_count, scalar_rows.rows.size());

    const AggregateResult scalar_agg =
        AggregateRange(table, pred, vis, Engine::kScalar).value();
    ExpectAggEqual(scalar_agg,
                   AggregateRange(table, pred, vis, Engine::kVectorized)
                       .value());

    for (size_t workers : {size_t{1}, size_t{4}}) {
      const ResultSet par =
          ScanRangeParallel(table, pred, vis, pool, kTestMorselRows, workers,
                            Engine::kVectorized)
              .value();
      EXPECT_EQ(scalar_rows.rows, par.rows);
      EXPECT_EQ(scalar_rows.values, par.values);
      EXPECT_EQ(scalar_count,
                CountRangeParallel(table, pred, vis, pool, kTestMorselRows,
                                   workers, Engine::kVectorized)
                    .value());
      ExpectAggEqual(scalar_agg,
                     AggregateRangeParallel(table, pred, vis, pool,
                                            kTestMorselRows, workers,
                                            Engine::kVectorized)
                         .value());
    }
  }
}

// ------------------------------------------------------ kernel units

TEST(SelectRangeTest, MatchesScalarPredicateIncludingExtremes) {
  const std::vector<Value> data = {0,   -5,        17,       kValueMin,
                                   999, kValueMax, -1000000, 63,
                                   64,  65,        -1,       1};
  const RangePredicate preds[] = {
      {0, -5, 64},
      {0, kValueMin, kValueMax},       // full domain minus the max value
      {0, kValueMin, 0},               // negative half
      {0, 0, kValueMax},               // non-negative half
      {0, kValueMax - 1, kValueMax},   // one value at the top
      {0, kValueMin, kValueMin + 1},   // one value at the bottom
      {0, 10, 10},                     // empty
      {0, 10, 5},                      // inverted = empty
  };
  SelectionVector sel;
  for (const RangePredicate& pred : preds) {
    SelectRange(data.data(), data.size(), pred.lo, pred.hi, &sel);
    ASSERT_EQ(sel.lanes(), data.size());
    for (uint64_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(sel.Test(i), pred.Matches(data[i]))
          << "value " << data[i] << " in [" << pred.lo << ", " << pred.hi
          << ")";
    }
  }
}

TEST(SelectRangeTest, TailBitsPastLanesStayZero) {
  std::vector<Value> data(70, 5);  // every lane matches
  SelectionVector sel;
  SelectRange(data.data(), data.size(), 0, 10, &sel);
  ASSERT_EQ(sel.word_count(), 2u);
  EXPECT_EQ(sel.words()[0], ~uint64_t{0});
  EXPECT_EQ(sel.words()[1], (uint64_t{1} << 6) - 1);  // 6 tail lanes only
  EXPECT_EQ(sel.CountSet(), 70u);
}

TEST(ApplyVisibilityTest, ThreeModesAtUnalignedOffsets) {
  // 300 rows, forget every third; scan window [97, 230) is word-unaligned
  // on both sides.
  Table t = MakeRandomTable(300, 0.0, 7);
  for (RowId r = 0; r < 300; r += 3) ASSERT_TRUE(t.Forget(r).ok());
  const RowId first = 97, end = 230;
  const uint64_t n = end - first;
  std::vector<uint64_t> scratch;
  for (Visibility vis : kAllVisibilities) {
    SelectionVector sel;
    std::vector<Value> ones(n, 1);
    SelectRange(ones.data(), n, 0, 2, &sel);  // select everything
    ApplyVisibility(t.active_bitmap(), first, vis, &sel, &scratch);
    for (uint64_t i = 0; i < n; ++i) {
      const bool active = t.IsActive(first + i);
      const bool expect = vis == Visibility::kAll ||
                          (vis == Visibility::kActiveOnly ? active : !active);
      EXPECT_EQ(sel.Test(i), expect) << "lane " << i;
    }
  }
}

TEST(MorselSkipTest, FullyForgottenAndFullyLiveMorselsAreSkipped) {
  // Three default-size morsels; the first is forgotten wholesale.
  const uint64_t rows = 2 * kDefaultMorselRows + 1234;
  Table t = MakeRandomTable(rows, 0.0, 11);
  for (RowId r = 0; r < kDefaultMorselRows; ++r) {
    ASSERT_TRUE(t.Forget(r).ok());
  }
  const MorselRange morsels = t.Morsels();
  ASSERT_EQ(morsels.count(), 3u);
  EXPECT_EQ(MorselLiveCount(t, morsels.at(0)), 0u);
  EXPECT_EQ(MorselLiveCount(t, morsels.at(1)), kDefaultMorselRows);

  VectorScanContext ctx;
  const RangePredicate all = RangePredicate::All(0);
  // Forgotten morsel contributes nothing to the amnesic view...
  EXPECT_FALSE(
      SelectMorsel(t, all, Visibility::kActiveOnly, morsels.at(0), &ctx));
  // ...and a fully-live morsel nothing to the forgotten-only view.
  EXPECT_FALSE(
      SelectMorsel(t, all, Visibility::kForgottenOnly, morsels.at(1), &ctx));
  // The skip must not change any operator's answer.
  ExpectEnginesAgree(t, all);
}

TEST(VectorAggStateTest, EmptyFinishMatchesEmptyRunningStats) {
  const AggregateResult scalar = ToAggregateResult(RunningStats());
  const AggregateResult vec = VectorAggState().Finish();
  EXPECT_EQ(vec.count, 0u);
  EXPECT_EQ(vec.min, scalar.min);  // +inf
  EXPECT_EQ(vec.max, scalar.max);  // -inf
  EXPECT_EQ(vec.sum, scalar.sum);
  EXPECT_EQ(vec.variance, scalar.variance);
}

TEST(VectorAggStateTest, AggregateValuesMatchesWelfordFold) {
  Rng rng(3);
  std::vector<Value> values;
  for (int i = 0; i < 517; ++i) values.push_back(rng.UniformInt(-500, 500));
  RunningStats stats;
  for (Value v : values) stats.Add(static_cast<double>(v));
  ExpectAggEqual(ToAggregateResult(stats), AggregateValues(values).Finish());
}

TEST(AccumulateSelectedTest, DenseAndSparseWordsAgreeWithScalar) {
  // 192 values: word 0 all-ones (dense path), word 1 sparse, word 2 zero.
  std::vector<Value> data;
  Rng rng(5);
  for (int i = 0; i < 192; ++i) data.push_back(rng.UniformInt(-100, 100));
  SelectionVector sel;
  SelectRange(data.data(), data.size(), -1000, 1000, &sel);  // all match
  sel.words()[1] = 0x8000000000000001ull;
  sel.words()[2] = 0;
  VectorAggState agg;
  AccumulateSelected(data.data(), sel, &agg);
  RunningStats stats;
  for (uint64_t i = 0; i < data.size(); ++i) {
    if (sel.Test(i)) stats.Add(static_cast<double>(data[i]));
  }
  ExpectAggEqual(ToAggregateResult(stats), agg.Finish());
}

// ------------------------------------------------- engine equivalence

TEST(EngineEquivalenceTest, TableShapesAndForgetFractions) {
  const uint64_t sizes[] = {0, 1, 63, 64, 65, 97, 401, 1000, 4113};
  const double fractions[] = {0.0, 0.25, 0.97, 1.0};
  uint64_t seed = 100;
  for (uint64_t rows : sizes) {
    for (double fraction : fractions) {
      const Table t = MakeRandomTable(rows, fraction, seed++);
      ExpectEnginesAgree(t, RangePredicate{0, -250, 333});
      ExpectEnginesAgree(t, RangePredicate::All(0));
      ExpectEnginesAgree(t, RangePredicate{0, 10, 10});  // empty range
    }
  }
}

TEST(EngineEquivalenceTest, DomainExtremePredicates) {
  Table t = MakeRandomTable(500, 0.3, 42);
  ASSERT_TRUE(t.AppendRow({kValueMin}).ok());
  ASSERT_TRUE(t.AppendRow({kValueMax}).ok());
  ExpectEnginesAgree(t, RangePredicate{0, kValueMin, kValueMax});
  ExpectEnginesAgree(t, RangePredicate{0, kValueMin, 0});
  ExpectEnginesAgree(t, RangePredicate{0, kValueMax - 1, kValueMax});
}

TEST(EngineEquivalenceTest, EveryAmnesiaPolicy) {
  for (PolicyKind kind : AllPolicyKinds()) {
    Table t = MakeRandomTable(600, 0.0, 17 + static_cast<uint64_t>(kind), 0,
                              1000);
    GroundTruthOracle oracle;
    for (RowId r = 0; r < t.num_rows(); ++r) oracle.Append(t.value(0, r));
    oracle.Seal();
    PolicyOptions popts;
    popts.kind = kind;
    auto policy = CreatePolicy(popts, &oracle).value();
    ControllerOptions copts;
    copts.dbsize_budget = 350;
    auto ctrl = AmnesiaController::Make(copts, policy.get(), &t).value();
    Rng rng(99);
    ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
    ASSERT_EQ(t.num_active(), 350u);
    ExpectEnginesAgree(t, RangePredicate{0, 100, 700});
    ExpectEnginesAgree(t, RangePredicate::All(0));
  }
}

TEST(EngineEquivalenceTest, ScrubbedRowsUnderDeleteBackend) {
  Table t = MakeRandomTable(400, 0.0, 23, 0, 1000);
  PolicyOptions popts;
  popts.kind = PolicyKind::kUniform;
  auto policy = CreatePolicy(popts).value();
  ControllerOptions copts;
  copts.dbsize_budget = 250;
  copts.backend = BackendKind::kDelete;
  copts.compact_every_n_rounds = 0;  // scrub in place, keep the holes
  auto ctrl = AmnesiaController::Make(copts, policy.get(), &t).value();
  Rng rng(7);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  ASSERT_EQ(t.num_active(), 250u);
  ASSERT_EQ(t.num_rows(), 400u);
  ExpectEnginesAgree(t, RangePredicate{0, 0, 500});
  ExpectEnginesAgree(t, RangePredicate::All(0));
}

// --------------------------------------------------- sharded engines

void ExpectShardedEnginesAgree(const ShardedTable& table,
                               const RangePredicate& pred) {
  ThreadPool pool(3);
  for (Visibility vis : kAllVisibilities) {
    const ResultSet scalar_rows =
        ScanRange(table, pred, vis, Engine::kScalar).value();
    const ResultSet vec_rows =
        ScanRange(table, pred, vis, Engine::kVectorized).value();
    EXPECT_EQ(scalar_rows.rows, vec_rows.rows);
    EXPECT_EQ(scalar_rows.values, vec_rows.values);

    const uint64_t scalar_count =
        CountRange(table, pred, vis, Engine::kScalar).value();
    EXPECT_EQ(scalar_count,
              CountRange(table, pred, vis, Engine::kVectorized).value());

    const AggregateResult scalar_agg =
        AggregateRange(table, pred, vis, Engine::kScalar).value();
    ExpectAggEqual(scalar_agg,
                   AggregateRange(table, pred, vis, Engine::kVectorized)
                       .value());

    for (size_t workers : {size_t{1}, size_t{4}}) {
      const ResultSet par =
          ScanRangeParallel(table, pred, vis, pool, kTestMorselRows, workers,
                            Engine::kVectorized)
              .value();
      EXPECT_EQ(scalar_rows.rows, par.rows);
      EXPECT_EQ(scalar_rows.values, par.values);
      EXPECT_EQ(scalar_count,
                CountRangeParallel(table, pred, vis, pool, kTestMorselRows,
                                   workers, Engine::kVectorized)
                    .value());
      ExpectAggEqual(scalar_agg,
                     AggregateRangeParallel(table, pred, vis, pool,
                                            kTestMorselRows, workers,
                                            Engine::kVectorized)
                         .value());
    }
  }
}

TEST(ShardedEngineEquivalenceTest, FourShardsSerialAndParallel) {
  ShardedTable t =
      ShardedTable::Make(Schema::SingleColumn("a", -1000, 1000), 4).value();
  Rng rng(31);
  std::vector<RowId> ids;
  for (uint64_t i = 0; i < 1000; ++i) {
    auto id = t.AppendRow({rng.UniformInt(-1000, 1000)});
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (RowId id : ids) {
    if (rng.NextDouble() < 0.3) {
      ASSERT_TRUE(t.Forget(id).ok());
    }
  }
  ExpectShardedEnginesAgree(t, RangePredicate{0, -400, 500});
  ExpectShardedEnginesAgree(t, RangePredicate::All(0));
}

// ------------------------------------------------------ executor knob

TEST(ExecutorEngineTest, FullScanPlansAgreeIncludingAccessCounts) {
  Table scalar_t = MakeRandomTable(900, 0.3, 83);
  Table vec_t = MakeRandomTable(900, 0.3, 83);
  Executor scalar_exec(&scalar_t, nullptr);
  Executor vec_exec(&vec_t, nullptr);

  const RangePredicate pred{0, -300, 600};
  for (int parallelism : {1, 4}) {
    ExecOptions scalar_opts;
    scalar_opts.parallelism = parallelism;
    scalar_opts.engine = Engine::kScalar;
    ExecOptions vec_opts = scalar_opts;
    vec_opts.engine = Engine::kVectorized;

    const ResultSet a = scalar_exec.ExecuteRange(pred, scalar_opts).value();
    const ResultSet b = vec_exec.ExecuteRange(pred, vec_opts).value();
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.values, b.values);

    ExpectAggEqual(scalar_exec.ExecuteAggregate(pred, scalar_opts).value(),
                   vec_exec.ExecuteAggregate(pred, vec_opts).value());
  }
  // record_access bumped the same rows the same number of times.
  for (RowId r = 0; r < scalar_t.num_rows(); ++r) {
    EXPECT_EQ(scalar_t.access_count(r), vec_t.access_count(r));
  }
  EXPECT_EQ(scalar_exec.stats().rows_returned,
            vec_exec.stats().rows_returned);
}

TEST(ExecutorEngineTest, IndexPlanAggregateFoldAgrees) {
  Table t = MakeRandomTable(600, 0.2, 91, 0, 1000);
  IndexManager scalar_indexes, vec_indexes;
  Executor scalar_exec(&t, &scalar_indexes);
  Executor vec_exec(&t, &vec_indexes);
  for (PlanKind plan : {PlanKind::kBrinScan, PlanKind::kBTreeProbe}) {
    ExecOptions scalar_opts;
    scalar_opts.plan = plan;
    scalar_opts.engine = Engine::kScalar;
    scalar_opts.record_access = false;
    ExecOptions vec_opts = scalar_opts;
    vec_opts.engine = Engine::kVectorized;
    const RangePredicate pred{0, 100, 800};
    ExpectAggEqual(scalar_exec.ExecuteAggregate(pred, scalar_opts).value(),
                   vec_exec.ExecuteAggregate(pred, vec_opts).value());
  }
}

}  // namespace
}  // namespace amnesia
