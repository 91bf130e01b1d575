// Copyright 2026 The AmnesiaDB Authors
//
// Vectorized/scalar equivalence for the batch-at-a-time execution engine.
// The contract under test: for every table shape, visibility, amnesia
// policy, shard count and parallelism, Engine::kVectorized returns exactly
// the rows/values of Engine::kScalar, CountRange and the COUNT/MIN/MAX
// aggregates are bit-identical, and SUM/AVG/variance agree within FP
// reassociation tolerance. The kernels' edge cases (domain extremes, tail
// lanes, unaligned visibility, dense/sparse words, wholesale skips) run
// through the operators, and the live candidate list behind kActiveOnly
// scans and counts must follow every mutation and survive racing first
// readers.

#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "amnesia/controller.h"
#include "amnesia/registry.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "index/index_manager.h"
#include "obs/metrics.h"
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

#if defined(AMNESIA_NO_METRICS)
constexpr bool kMetricsEnabled = false;
#else
constexpr bool kMetricsEnabled = true;
#endif

// Returns the registry's scan.morsels_skipped count (0 without metrics).
uint64_t SkippedMorsels() {
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Global().SnapshotAll();
  const auto it = snap.counters.find("scan.morsels_skipped");
  return it == snap.counters.end() ? 0 : it->second;
}

// Checks ScanRange and CountRange of both engines, serial and on parallel
// morsels of 64 and 97 rows (the latter unaligned to the 64-lane words),
// against the predicate evaluated row by row under every visibility.
void ExpectScansMatchPredicate(const TableShards& table,
                               const RangePredicate& pred) {
  ThreadPool pool(3);
  for (Visibility vis : kAllVisibilities) {
    ResultSet expect;
    for (uint32_t s = 0; s < table.num_shards(); ++s) {
      const Table& shard = table.shard(s);
      for (RowId r = 0; r < shard.num_rows(); ++r) {
        const bool visible =
            vis == Visibility::kAll ||
            (vis == Visibility::kActiveOnly) == shard.IsActive(r);
        const Value v = shard.value(pred.col, r);
        if (visible && pred.Matches(v)) {
          expect.rows.push_back(MakeGlobalRowId(s, r));
          expect.values.push_back(v);
        }
      }
    }
    for (Engine engine : {Engine::kScalar, Engine::kVectorized}) {
      const ResultSet serial = ScanRange(table, pred, vis, engine).value();
      EXPECT_EQ(serial.rows, expect.rows);
      EXPECT_EQ(serial.values, expect.values);
      EXPECT_EQ(CountRange(table, pred, vis, engine).value(),
                expect.rows.size());
      for (uint64_t morsel_rows : {uint64_t{64}, kTestMorselRows}) {
        const ResultSet par = ScanRangeParallel(table, pred, vis, pool,
                                                morsel_rows, 4, engine)
                                  .value();
        EXPECT_EQ(par.rows, expect.rows);
        EXPECT_EQ(par.values, expect.values);
        EXPECT_EQ(CountRangeParallel(table, pred, vis, pool, morsel_rows, 4,
                                     engine)
                      .value(),
                  expect.rows.size());
      }
    }
  }
}

// ------------------------------------------------------ kernel units

TEST(MorselSkipTest, FullyForgottenAndFullyLiveMorselsAreSkipped) {
  // Three default-size morsels; the first is forgotten wholesale.
  const uint64_t rows = 2 * kDefaultMorselRows + 1234;
  Table t = MakeRandomTable(rows, 0.0, 11);
  for (RowId r = 0; r < kDefaultMorselRows; ++r) {
    ASSERT_TRUE(t.Forget(r).ok());
  }
  const MorselRange morsels = t.Morsels();
  ASSERT_EQ(morsels.count(), 3u);
  const Morsel dead = morsels.at(0);
  const Morsel live = morsels.at(1);
  EXPECT_EQ(MorselLiveCount(t, dead), 0u);
  EXPECT_EQ(MorselLiveCount(t, live), kDefaultMorselRows);
  // Forgotten morsel contributes nothing to the amnesic view...
  EXPECT_TRUE(SkipsWholesale(Visibility::kActiveOnly, 0, dead.size()));
  // ...and a fully-live morsel nothing to the forgotten-only view.
  EXPECT_TRUE(SkipsWholesale(Visibility::kForgottenOnly, live.size(),
                             live.size()));
  EXPECT_FALSE(SkipsWholesale(Visibility::kAll, 0, dead.size()));
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

// The kernels' edge cases, through the operators.

TEST(EngineEquivalenceTest, DomainExtremeValuesUnderEveryPredicateShape) {
  // The twelve values cycle over 300 rows, so each lands in full words, in
  // the tail word and at both edges of a 64-lane word; every third row is
  // forgotten, so each visibility sees a different part of them.
  const std::vector<Value> values = {0,   -5,        17,       kValueMin,
                                     999, kValueMax, -1000000, 63,
                                     64,  65,        -1,       1};
  Table t = Table::Make(Schema::SingleColumn("a", -1000, 1000)).value();
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(t.AppendRow({values[i % values.size()]}).ok());
  }
  for (RowId r = 0; r < 300; r += 3) ASSERT_TRUE(t.Forget(r).ok());
  const RangePredicate preds[] = {
      {0, -5, 64},
      {0, kValueMin, kValueMax},      // full domain minus the max value
      {0, kValueMin, 0},              // negative half
      {0, 0, kValueMax},              // non-negative half
      {0, kValueMax - 1, kValueMax},  // one value at the top
      {0, kValueMin, kValueMin + 1},  // one value at the bottom
      {0, 10, 10},                    // empty
      {0, 10, 5},                     // inverted = empty
  };
  for (const RangePredicate& pred : preds) {
    SCOPED_TRACE("[" + std::to_string(pred.lo) + ", " +
                 std::to_string(pred.hi) + ")");
    ExpectScansMatchPredicate(t, pred);
  }
}

TEST(EngineEquivalenceTest, TailLanesPastTheLastRowNeverMatch) {
  // 70 rows, all matching: one full word plus a 6-lane tail word. The
  // first six rows are forgotten, so kForgottenOnly complements a
  // visibility word whose lanes past row 70 are zero; none may leak in.
  Table t = Table::Make(Schema::SingleColumn("a", 0, 10)).value();
  for (int i = 0; i < 70; ++i) ASSERT_TRUE(t.AppendRow({5}).ok());
  for (RowId r = 0; r < 6; ++r) ASSERT_TRUE(t.Forget(r).ok());
  const RangePredicate pred{0, 0, 10};
  EXPECT_EQ(CountRange(t, pred, Visibility::kAll).value(), 70u);
  EXPECT_EQ(CountRange(t, pred, Visibility::kActiveOnly).value(), 64u);
  EXPECT_EQ(CountRange(t, pred, Visibility::kForgottenOnly).value(), 6u);
  EXPECT_EQ(ScanRange(t, pred, Visibility::kAll).value().rows.back(), 69u);
  ExpectScansMatchPredicate(t, pred);
}

TEST(EngineEquivalenceTest, VisibilityAtUnalignedMorselOffsets) {
  // 300 rows, every third forgotten. The 97-row parallel morsels of
  // ExpectScansMatchPredicate start at rows 97, 194 and 291, so their
  // visibility words and live-list slices start mid-word.
  Table t = MakeRandomTable(300, 0.0, 7);
  for (RowId r = 0; r < 300; r += 3) ASSERT_TRUE(t.Forget(r).ok());
  const RangePredicate all = RangePredicate::All(0);
  EXPECT_EQ(CountRange(t, all, Visibility::kAll).value(), 300u);
  EXPECT_EQ(CountRange(t, all, Visibility::kActiveOnly).value(), 200u);
  EXPECT_EQ(CountRange(t, all, Visibility::kForgottenOnly).value(), 100u);
  ExpectScansMatchPredicate(t, all);
  ExpectScansMatchPredicate(t, RangePredicate{0, -300, 300});
}

TEST(EngineEquivalenceTest, DenseSparseAndEmptyVisibilityWords) {
  // 192 rows: word 0 all live (the dense accumulation path), word 1 live
  // only at its two edge lanes (sparse), word 2 all forgotten (skipped).
  Table t = MakeRandomTable(192, 0.0, 5, -100, 100);
  for (RowId r = 65; r < 127; ++r) ASSERT_TRUE(t.Forget(r).ok());
  for (RowId r = 128; r < 192; ++r) ASSERT_TRUE(t.Forget(r).ok());
  ExpectEnginesAgree(t, RangePredicate{0, -1000, 1000});
  ExpectEnginesAgree(t, RangePredicate{0, -50, 50});
  ExpectScansMatchPredicate(t, RangePredicate{0, -1000, 1000});
}

TEST(EngineEquivalenceTest, FullyForgottenAndFullyLiveMorselsAreSkipped) {
  // Three default-size morsels; the first is forgotten wholesale.
  const uint64_t rows = 2 * kDefaultMorselRows + 1234;
  Table t = MakeRandomTable(rows, 0.0, 11);
  for (RowId r = 0; r < kDefaultMorselRows; ++r) {
    ASSERT_TRUE(t.Forget(r).ok());
  }
  const RangePredicate all = RangePredicate::All(0);
  // Morsels each visibility skips wholesale: the dead one under
  // kActiveOnly, the two fully live ones under kForgottenOnly.
  const std::pair<Visibility, uint64_t> skips[] = {
      {Visibility::kActiveOnly, 1},
      {Visibility::kAll, 0},
      {Visibility::kForgottenOnly, 2}};
  for (const auto& [vis, expected_skips] : skips) {
    const uint64_t before = SkippedMorsels();
    const uint64_t count = CountRange(t, all, vis).value();
    const uint64_t after_count = SkippedMorsels();
    EXPECT_EQ(ScanRange(t, all, vis).value().rows.size(), count);
    const uint64_t after_scan = SkippedMorsels();
    if (kMetricsEnabled) {
      EXPECT_EQ(after_count - before, expected_skips);
      EXPECT_EQ(after_scan - after_count, expected_skips);
    }
    EXPECT_EQ(count, vis == Visibility::kActiveOnly ? rows - kDefaultMorselRows
                     : vis == Visibility::kAll      ? rows
                                                    : kDefaultMorselRows);
  }
  // The skip must not change any operator's answer.
  ExpectEnginesAgree(t, all);
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
  std::vector<Value> values(1000);
  for (Value& v : values) v = rng.UniformInt(-1000, 1000);
  ASSERT_TRUE(t.AppendColumns({values}).ok());
  // Row i of the append sits on shard i % 4, at local row i / 4.
  for (uint64_t i = 0; i < values.size(); ++i) {
    if (rng.NextDouble() < 0.3) {
      ASSERT_TRUE(t.mutable_shard(i % 4).Forget(i / 4).ok());
    }
  }
  ExpectShardedEnginesAgree(t, RangePredicate{0, -400, 500});
  ExpectShardedEnginesAgree(t, RangePredicate::All(0));
}

// ------------------------------------------------- live candidate list

// ExpectScansMatchPredicate over predicates matching every row, a middle
// range, the range the ScrubRow step writes into, and none.
void ExpectScansMatchAfterMutation(const TableShards& table) {
  const RangePredicate preds[] = {RangePredicate::All(0), {0, 100, 600},
                                  {0, 700, 800}, {0, 5, 5}};
  for (const RangePredicate& pred : preds) {
    ExpectScansMatchPredicate(table, pred);
  }
}

// Global ids of the rows whose active state is `active`, ascending.
std::vector<RowId> RowsWhere(const TableShards& table, bool active) {
  std::vector<RowId> out;
  for (uint32_t s = 0; s < table.num_shards(); ++s) {
    const Table& shard = table.shard(s);
    for (RowId r = 0; r < shard.num_rows(); ++r) {
      if (shard.IsActive(r) == active) out.push_back(MakeGlobalRowId(s, r));
    }
  }
  return out;
}

std::vector<Value> RandomValues(uint64_t n, Rng* rng) {
  std::vector<Value> out;
  for (uint64_t i = 0; i < n; ++i) out.push_back(rng->UniformInt(0, 999));
  return out;
}

// The table holding global row `r`, which it addresses as LocalRowOf(r):
// an unsharded Table is its own shard 0, whose global ids are its local
// ones.
Table& ShardOf(Table* t, RowId) { return *t; }
Table& ShardOf(ShardedTable* t, RowId r) {
  return t->mutable_shard(ShardOfRow(r));
}

void CompactEveryShard(Table* t) { t->CompactForgotten(); }
void CompactEveryShard(ShardedTable* t) {
  for (uint32_t s = 0; s < t->num_shards(); ++s) {
    CompactEveryShard(&t->mutable_shard(s));
  }
}

Status DropFirstPartition(Table* t) {
  if (!t->mapped()) return Status::OK();
  return t->DropPartition(0).status();
}
Status DropFirstPartition(ShardedTable* t) {
  for (uint32_t s = 0; s < t->num_shards(); ++s) {
    AMNESIA_RETURN_NOT_OK(DropFirstPartition(&t->mutable_shard(s)));
  }
  return Status::OK();
}

Status Restore(Table* t) {
  AMNESIA_ASSIGN_OR_RETURN(Table restored, Table::FromParts(t->ToParts()));
  *t = std::move(restored);
  return Status::OK();
}
Status Restore(ShardedTable* t) {
  std::vector<Table> shards;
  for (uint32_t s = 0; s < t->num_shards(); ++s) {
    AMNESIA_ASSIGN_OR_RETURN(Table shard,
                             Table::FromParts(t->shard(s).ToParts()));
    shards.push_back(std::move(shard));
  }
  AMNESIA_ASSIGN_OR_RETURN(
      ShardedTable restored,
      ShardedTable::FromShards(std::move(shards), t->ingest_cursor()));
  *t = std::move(restored);
  return Status::OK();
}

// The mutation steps, applied in order to one table. Each changes the
// live set or a live value (or, for a move, the object holding the list)
// right after the previous check built the list, so the next check finds
// it stale.
template <typename T>
std::vector<std::pair<const char*, std::function<Status(T*)>>>
MutationSteps() {
  return {
      {"one-row append",
       [](T* t) { return t->AppendColumns({{321}}).status(); }},
      {"AppendColumns",
       [](T* t) {
         Rng rng(2);
         return t->AppendColumns({RandomValues(40, &rng)}).status();
       }},
      // 64-row partitions: 256 more rows fill every shard's tail at least
      // once, so each mapped shard seals.
      {"seal",
       [](T* t) {
         Rng rng(3);
         return t->AppendColumns({RandomValues(256, &rng)}).status();
       }},
      {"Forget",
       [](T* t) {
         const std::vector<RowId> live = RowsWhere(*t, true);
         for (size_t i = 0; i < live.size(); i += 5) {
           AMNESIA_RETURN_NOT_OK(
               ShardOf(t, live[i]).Forget(LocalRowOf(live[i])));
         }
         return Status::OK();
       }},
      {"ScrubRow",
       [](T* t) {
         // 750 lies in [700, 800): a stale list would show the old value.
         const RowId dead = RowsWhere(*t, false).back();
         return ShardOf(t, dead).ScrubRow(LocalRowOf(dead), 750);
       }},
      {"Revive",
       [](T* t) {
         const RowId dead = RowsWhere(*t, false).back();
         return ShardOf(t, dead).Revive(LocalRowOf(dead));
       }},
      {"Forget one, Revive another",
       [](T* t) {
         // Row and active counts stay the same; the live set does not.
         const RowId dead = RowsWhere(*t, false).front();
         const RowId live = RowsWhere(*t, true).back();
         AMNESIA_RETURN_NOT_OK(ShardOf(t, live).Forget(LocalRowOf(live)));
         return ShardOf(t, dead).Revive(LocalRowOf(dead));
       }},
      {"CompactForgotten",
       [](T* t) {
         CompactEveryShard(t);
         return Status::OK();
       }},
      {"DropPartition", [](T* t) { return DropFirstPartition(t); }},
      {"FromParts(ToParts())", [](T* t) { return Restore(t); }},
      {"move",
       [](T* t) {
         T moved(std::move(*t));
         *t = std::move(moved);
         return Status::OK();
       }},
      {"Forget after the move",
       [](T* t) {
         const RowId live = RowsWhere(*t, true).front();
         return ShardOf(t, live).Forget(LocalRowOf(live));
       }},
  };
}

template <typename T>
void ExpectListFollowsEveryMutation(T table) {
  ExpectScansMatchAfterMutation(table);
  for (const auto& [name, step] : MutationSteps<T>()) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(step(&table).ok());
    ExpectScansMatchAfterMutation(table);
  }
}

TEST(LiveCandidatesTest, ListFollowsEveryMutation) {
  const Schema schema = Schema::SingleColumn("a", 0, 1000);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "amnesia_live_list_test";
  for (bool mapped : {false, true}) {
    SCOPED_TRACE(mapped ? "mapped" : "vector");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    StorageOptions storage;
    if (mapped) {
      storage.backend = StorageBackend::kMapped;
      storage.partition_rows = 64;
    }
    Rng rng(1);
    storage.dir = (dir / "table").string();
    Table table = Table::Make(schema, storage).value();
    ASSERT_TRUE(table.AppendColumns({RandomValues(150, &rng)}).ok());
    ExpectListFollowsEveryMutation(std::move(table));

    storage.dir = (dir / "sharded").string();
    ShardedTable sharded = ShardedTable::Make(schema, 4, storage).value();
    ASSERT_TRUE(sharded.AppendColumns({RandomValues(600, &rng)}).ok());
    ExpectListFollowsEveryMutation(std::move(sharded));
    std::filesystem::remove_all(dir);
  }
}

TEST(LiveCandidatesTest, RestoredTableRestartsAtVersionOne) {
  Table t = MakeRandomTable(300, 0.2, 13, 0, 1000);
  ExpectScansMatchAfterMutation(t);  // builds the list at the old version
  Table restored = Table::FromParts(t.ToParts()).value();
  ASSERT_EQ(restored.version(), 1u);
  ExpectScansMatchAfterMutation(restored);  // builds it at version 1
  // Another restored table, also at version 1, replaces it: the list built
  // for the first one must not answer for the second.
  Table other = MakeRandomTable(200, 0.5, 17, 0, 1000);
  Table other_restored = Table::FromParts(other.ToParts()).value();
  ASSERT_EQ(other_restored.version(), 1u);
  restored = std::move(other_restored);
  ExpectScansMatchAfterMutation(restored);
  // Forget and revive one row: same live set, new version, rebuilt.
  const RowId r = restored.ActiveRows().front();
  ASSERT_TRUE(restored.Forget(r).ok());
  ASSERT_TRUE(restored.Revive(r).ok());
  ExpectScansMatchAfterMutation(restored);
}

TEST(LiveCandidatesTest, RacingFirstScansAfterAMutationAgree) {
  for (uint32_t shards : {1u, 4u}) {
    ShardedTable t =
        ShardedTable::Make(Schema::SingleColumn("a", -1000, 1000), shards)
            .value();
    Rng rng(61);
    std::vector<Value> values;
    for (int i = 0; i < 5000; ++i) {
      values.push_back(rng.UniformInt(-1000, 1000));
    }
    ASSERT_TRUE(t.AppendColumns({values}).ok());
    const RangePredicate pred{0, -300, 500};
    ThreadPool pool(2);
    for (int round = 0; round < 20; ++round) {
      // A mutation right before the race: both threads find the list stale.
      const std::vector<RowId> live = RowsWhere(t, true);
      const RowId victim = live[rng.UniformIndex(live.size())];
      ASSERT_TRUE(
          t.mutable_shard(ShardOfRow(victim)).Forget(LocalRowOf(victim)).ok());
      const ResultSet expect =
          ScanRange(t, pred, Visibility::kActiveOnly, Engine::kScalar).value();

      std::atomic<int> ready{0};
      ResultSet got[2];
      uint64_t counts[2] = {0, 0};
      auto scan = [&](int i) {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        if (i == 0) {
          got[i] = ScanRange(t, pred, Visibility::kActiveOnly).value();
          counts[i] = CountRange(t, pred, Visibility::kActiveOnly).value();
        } else {
          counts[i] = CountRangeParallel(t, pred, Visibility::kActiveOnly,
                                         pool, 256)
                          .value();
          got[i] = ScanRangeParallel(t, pred, Visibility::kActiveOnly, pool,
                                     256)
                       .value();
        }
      };
      std::thread a(scan, 0);
      std::thread b(scan, 1);
      a.join();
      b.join();
      for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(got[i].rows, expect.rows) << "thread " << i;
        EXPECT_EQ(got[i].values, expect.values) << "thread " << i;
        EXPECT_EQ(counts[i], expect.rows.size()) << "thread " << i;
      }
    }
  }
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
