// Copyright 2026 The AmnesiaDB Authors
//
// Equivalence suite for the sharded storage subsystem. The contract under
// test: a ShardedTable with one shard is bit-identical to the unsharded
// Table path — same scan rows/values, same COUNT/MIN/MAX, and the same
// forget-pass victims for every PolicyKind — and any shard count preserves
// the global invariants (budget enforcement, value multiset, parallel =
// serial dispatch). Plus unit coverage for the RowId codec, the
// shard-major morsel range, the budget splitter, bulk ingest and sharded
// checkpointing.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "amnesia/registry.h"
#include "amnesia/sharded_controller.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "durability/checkpointer.h"
#include "query/oracle.h"
#include "query/predicate.h"
#include "query/scan.h"
#include "storage/checkpoint.h"
#include "storage/schema.h"
#include "storage/shard.h"
#include "storage/sharded_table.h"

namespace amnesia {
namespace {

constexpr Visibility kAllVisibilities[] = {
    Visibility::kActiveOnly, Visibility::kAll, Visibility::kForgottenOnly};

Schema TestSchema() { return Schema::SingleColumn("a", 0, 1000); }

/// Returns shard `s` of either table type for mutation: an unsharded
/// Table is its own shard 0.
Table& MutableShard(Table* table, uint32_t) { return *table; }
Table& MutableShard(ShardedTable* table, uint32_t s) {
  return table->mutable_shard(s);
}

/// Appends the same pseudo-random rows to an empty table of any shard
/// count, then forgets a seeded fraction of them in insertion order. Row i
/// sits on shard i % n at local row i / n.
template <typename TableLike>
void FillRows(TableLike* table, uint64_t rows, uint64_t seed,
              double forget_fraction = 0.0) {
  ASSERT_EQ(table->num_rows(), 0u);
  Rng rng(seed);
  std::vector<Value> values(rows);
  for (Value& v : values) v = rng.UniformInt(0, 1000);
  ASSERT_EQ(table->AppendColumns({values}).value(), rows);
  const uint32_t n = TableShards(*table).num_shards();
  for (uint64_t i = 0; i < rows; ++i) {
    if (rng.NextDouble() < forget_fraction) {
      Table& shard = MutableShard(table, static_cast<uint32_t>(i % n));
      ASSERT_TRUE(shard.Forget(i / n).ok());
    }
  }
}

// -------------------------------------------------------- RowId codec

TEST(ShardRowIdTest, CodecRoundTripsAndShardZeroIsIdentity) {
  EXPECT_EQ(MakeGlobalRowId(0, 12345u), RowId{12345});
  EXPECT_EQ(ShardOfRow(12345), 0u);
  EXPECT_EQ(LocalRowOf(12345), RowId{12345});

  const RowId g = MakeGlobalRowId(7, (RowId{1} << 40) + 3);
  EXPECT_EQ(ShardOfRow(g), 7u);
  EXPECT_EQ(LocalRowOf(g), (RowId{1} << 40) + 3);

  // Rows of a higher shard always sort after rows of a lower shard:
  // shard-major merge order == ascending global RowId order.
  EXPECT_LT(MakeGlobalRowId(1, kShardLocalMask), MakeGlobalRowId(2, 0));
  // kInvalidRow stays outside every legal (shard < kMaxShards) encoding.
  EXPECT_GE(ShardOfRow(kInvalidRow), kMaxShards);
}

// ------------------------------------------------- ShardedMorselRange

TEST(ShardedMorselRangeTest, CoversEveryShardRowExactlyOnceInOrder) {
  // Each shard keeps its own morsel size: shard 2's is 50.
  const ShardedMorselRange range({MorselRange(250, 97), MorselRange(0, 97),
                                  MorselRange(97, 50), MorselRange(10, 97)});
  // shard 0: 3 morsels, shard 1: 0, shard 2: 2, shard 3: 1.
  EXPECT_EQ(range.count(), 6u);
  std::vector<uint64_t> covered(4, 0);
  uint32_t last_shard = 0;
  RowId expect_begin = 0;
  for (ShardMorsel sm : range) {
    ASSERT_GE(sm.shard, last_shard);  // shard-major enumeration
    if (sm.shard != last_shard) {
      last_shard = sm.shard;
      expect_begin = 0;
    }
    EXPECT_EQ(sm.morsel.begin, expect_begin);
    EXPECT_GT(sm.morsel.end, sm.morsel.begin);
    EXPECT_LE(sm.morsel.size(), sm.shard == 2 ? 50u : 97u);
    covered[sm.shard] += sm.morsel.size();
    expect_begin = sm.morsel.end;
  }
  EXPECT_EQ(covered, (std::vector<uint64_t>{250, 0, 97, 10}));
}

TEST(ShardedMorselRangeTest, EmptyShardsYieldNoMorsels) {
  const ShardedMorselRange range(
      {MorselRange(0, 64), MorselRange(0, 64), MorselRange(0, 64)});
  EXPECT_EQ(range.count(), 0u);
}

TEST(ShardedMorselRangeTest, ZeroMorselRowsClampsToOne) {
  const ShardedMorselRange range({MorselRange(3, 0), MorselRange(2, 0)});
  EXPECT_EQ(range.count(), 5u);  // one row per morsel after the clamp
  for (ShardMorsel sm : range) EXPECT_EQ(sm.morsel.size(), 1u);
}

// ------------------------------------------------------- ShardedTable

TEST(ShardedTableTest, MakeValidatesShardCount) {
  EXPECT_FALSE(ShardedTable::Make(TestSchema(), 0).ok());
  EXPECT_FALSE(ShardedTable::Make(TestSchema(), kMaxShards + 1).ok());
  EXPECT_TRUE(ShardedTable::Make(TestSchema(), kMaxShards).ok());
}

TEST(ShardedTableTest, RoundRobinPlacementAndShardAccess) {
  ShardedTable t = ShardedTable::Make(TestSchema(), 3).value();
  // One row per call: each call continues where the previous one stopped.
  for (Value v = 0; v < 7; ++v) {
    ASSERT_EQ(t.AppendColumns({{v * 10}}).value(), 1u);
  }
  EXPECT_EQ(t.ingest_cursor(), 7u);
  EXPECT_EQ(t.num_rows(), 7u);
  EXPECT_EQ(t.num_active(), 7u);
  ASSERT_EQ(t.shard(0).num_rows(), 3u);
  ASSERT_EQ(t.shard(1).num_rows(), 2u);
  ASSERT_EQ(t.shard(2).num_rows(), 2u);
  EXPECT_EQ(t.lifetime_inserted(), 7u);
  // Row i lands on shard i % 3 at local row i / 3, and its global id
  // encodes both: the row is reached through its shard.
  for (uint64_t i = 0; i < 7; ++i) {
    const RowId id = MakeGlobalRowId(static_cast<uint32_t>(i % 3), i / 3);
    const Table& shard = t.shard(ShardOfRow(id));
    EXPECT_EQ(shard.value(0, LocalRowOf(id)), static_cast<Value>(i) * 10)
        << "row " << i;
    EXPECT_TRUE(shard.IsActive(LocalRowOf(id)));
  }
  EXPECT_EQ(t.min_seen(0), 0);
  EXPECT_EQ(t.max_seen(0), 60);

  // Row 4 is shard 1's local row 1; the summed counters follow its shard.
  Table& owner = t.mutable_shard(1);
  ASSERT_TRUE(owner.Forget(1).ok());
  EXPECT_EQ(t.num_active(), 6u);
  EXPECT_EQ(t.num_forgotten(), 1u);
  EXPECT_EQ(t.lifetime_forgotten(), 1u);
  EXPECT_FALSE(owner.IsActive(1));
  EXPECT_EQ(owner.Forget(1).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(owner.Revive(1).ok());
  EXPECT_TRUE(owner.IsActive(1));
  EXPECT_EQ(t.num_active(), 7u);

  // A local row past its shard's end is out of range.
  EXPECT_EQ(owner.Forget(50).code(), StatusCode::kOutOfRange);

  // Row 2 is shard 2's local row 0.
  t.mutable_shard(2).BumpAccess(0);
  t.mutable_shard(2).BumpAccess(0);
  EXPECT_EQ(t.shard(2).access_count(0), 2u);
}

TEST(ShardedTableTest, BeginBatchKeepsShardsInLockstep) {
  ShardedTable t = ShardedTable::Make(TestSchema(), 4).value();
  EXPECT_EQ(t.current_batch(), 0u);
  t.BeginBatch();
  t.BeginBatch();
  EXPECT_EQ(t.current_batch(), 2u);
  ASSERT_TRUE(t.AppendColumns({{5, 6, 7, 8}}).ok());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(t.shard(s).current_batch(), 2u);
    ASSERT_EQ(t.shard(s).num_rows(), 1u);
    EXPECT_EQ(t.shard(s).batch_of(0), 2u) << "shard " << s;
  }
}

TEST(ShardedTableTest, CompactForgottenIsShardLocal) {
  ShardedTable t = ShardedTable::Make(TestSchema(), 2).value();
  ASSERT_TRUE(t.AppendColumns({{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}).ok());
  // Forget rows 0, 3, 6 and 9: row i is shard i % 2's local row i / 2.
  for (uint64_t i = 0; i < 10; i += 3) {
    ASSERT_TRUE(t.mutable_shard(i % 2).Forget(i / 2).ok());
  }
  const uint64_t active = t.num_active();
  ASSERT_EQ(active, 6u);
  std::vector<RowMapping> mappings;
  for (uint32_t s = 0; s < t.num_shards(); ++s) {
    mappings.push_back(t.mutable_shard(s).CompactForgotten());
  }
  EXPECT_EQ(t.num_rows(), active);
  EXPECT_EQ(t.num_forgotten(), 0u);
  // Each shard removed its own two forgotten rows.
  EXPECT_EQ(mappings[0].removed, 2u);
  EXPECT_EQ(mappings[1].removed, 2u);
  // Lifetime counters survive compaction.
  EXPECT_EQ(t.lifetime_inserted(), 10u);
  EXPECT_EQ(t.lifetime_forgotten(), 10u - active);
  // Ingest resumes from the cursor, not from the compacted row counts:
  // row 10 goes to shard 0.
  ASSERT_TRUE(t.AppendColumns({{10}}).ok());
  EXPECT_EQ(t.shard(0).num_rows(), 4u);
  EXPECT_EQ(t.shard(0).value(0, 3), 10);
}

// ------------------------------------------------------- bulk ingest

TEST(AppendColumnsTest, TableBulkMatchesRowAtATime) {
  // Vector storage, then mapped storage with 64-row partitions. Batches
  // start mid-partition, and the 500-, 150- and 200-row calls each cross
  // at least two seal boundaries in one bulk append.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "amnesia_bulk_append_test";
  for (const bool mapped : {false, true}) {
    std::filesystem::remove_all(dir);
    StorageOptions bulk_storage;
    StorageOptions serial_storage;
    if (mapped) {
      for (StorageOptions* storage : {&bulk_storage, &serial_storage}) {
        storage->backend = StorageBackend::kMapped;
        storage->partition_rows = 64;
      }
      bulk_storage.dir = (dir / "bulk").string();
      serial_storage.dir = (dir / "serial").string();
      std::filesystem::create_directories(bulk_storage.dir);
      std::filesystem::create_directories(serial_storage.dir);
    }
    Table bulk = Table::Make(TestSchema(), bulk_storage).value();
    Table serial = Table::Make(TestSchema(), serial_storage).value();
    Rng rng(11);
    uint64_t appended = 0;
    for (const size_t batch_rows : {500u, 150u, 3u, 64u, 200u, 1u, 129u}) {
      std::vector<Value> values;
      for (size_t i = 0; i < batch_rows; ++i) {
        values.push_back(rng.UniformInt(0, 1000));
      }
      serial.BeginBatch();
      bulk.BeginBatch();
      for (Value v : values) ASSERT_TRUE(serial.AppendRow({v}).ok());
      ASSERT_EQ(bulk.AppendColumns({values}).value(), batch_rows);
      appended += batch_rows;
    }

    ASSERT_EQ(bulk.num_rows(), appended);
    ASSERT_EQ(bulk.num_rows(), serial.num_rows());
    EXPECT_EQ(bulk.num_active(), serial.num_active());
    EXPECT_EQ(bulk.version(), serial.version());  // the checkpoint epoch
    EXPECT_EQ(bulk.min_seen(0), serial.min_seen(0));
    EXPECT_EQ(bulk.max_seen(0), serial.max_seen(0));
    for (RowId r = 0; r < bulk.num_rows(); ++r) {
      ASSERT_EQ(bulk.value(0, r), serial.value(0, r));
      ASSERT_EQ(bulk.insert_tick(r), serial.insert_tick(r));
      ASSERT_EQ(bulk.batch_of(r), serial.batch_of(r));
      ASSERT_TRUE(bulk.IsActive(r));
    }
    EXPECT_EQ(CheckpointTable(bulk), CheckpointTable(serial))
        << (mapped ? "mapped" : "vector");
    ASSERT_EQ(bulk.partitions().size(), serial.partitions().size());
    EXPECT_EQ(bulk.partitions().size(), mapped ? appended / 64 : 0u);
    for (size_t p = 0; p < bulk.partitions().size(); ++p) {
      EXPECT_EQ(bulk.partitions()[p].epoch_lo, serial.partitions()[p].epoch_lo);
      EXPECT_EQ(bulk.partitions()[p].epoch_hi, serial.partitions()[p].epoch_hi);
      EXPECT_EQ(bulk.partitions()[p].dropped, serial.partitions()[p].dropped);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(AppendColumnsTest, ValidatesArityAndRaggedness) {
  // Refused before any row lands: on a Table, and on a ShardedTable
  // mid-round-robin, which also keeps its cursor.
  const Schema schema({ColumnDef{"a", 0, 10}, ColumnDef{"b", 0, 10}});
  const std::vector<std::vector<std::vector<Value>>> bad = {
      {},                   // no columns
      {{1, 2, 3}},          // one column of two
      {{1, 2, 3}, {4, 5}},  // ragged: the second column ends first
  };
  Table t = Table::Make(schema).value();
  ShardedTable sharded = ShardedTable::Make(schema, 3).value();
  ASSERT_TRUE(sharded.AppendColumns({{1}, {2}}).ok());
  for (const auto& columns : bad) {
    EXPECT_EQ(t.AppendColumns(columns).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(sharded.AppendColumns(columns).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(t.AppendColumns({{}, {}}).value(), 0u);
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(sharded.ingest_cursor(), 1u);
  EXPECT_EQ(sharded.num_rows(), 1u);
}

TEST(AppendColumnsTest, ShardedPlacementFollowsRoundRobin) {
  // The placement rule, restated here so the check shares no code with
  // AppendRoundRobin: row k of a call lands on shard (cursor + k) % n, at
  // that shard's next local row. Two columns, so a row's cells must stay
  // together; the 3-row call leaves every later call starting
  // mid-round-robin on 2, 4 and 7 shards.
  const Schema schema({ColumnDef{"a", 0, 1000}, ColumnDef{"b", 0, 1000}});
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardedTable t = ShardedTable::Make(schema, shards).value();
    // Expected (a, b, batch) of each shard's rows, in local row order.
    std::vector<std::vector<std::vector<Value>>> expect(shards);
    Rng rng(13);
    uint64_t cursor = 0;
    for (const size_t call_rows : {3u, 97u, 200u}) {
      t.BeginBatch();
      std::vector<Value> a(call_rows);
      std::vector<Value> b(call_rows);
      for (size_t k = 0; k < call_rows; ++k) {
        a[k] = rng.UniformInt(0, 1000);
        b[k] = rng.UniformInt(0, 1000);
      }
      ASSERT_EQ(t.AppendColumns({a, b}).value(), call_rows);
      for (size_t k = 0; k < call_rows; ++k) {
        expect[(cursor + k) % shards].push_back(
            {a[k], b[k], static_cast<Value>(t.current_batch())});
      }
      cursor += call_rows;
      ASSERT_EQ(t.ingest_cursor(), cursor);
    }
    for (uint32_t s = 0; s < shards; ++s) {
      const Table& shard = t.shard(s);
      ASSERT_EQ(shard.num_rows(), expect[s].size()) << "shard " << s;
      for (RowId r = 0; r < shard.num_rows(); ++r) {
        ASSERT_EQ(shard.value(0, r), expect[s][r][0]) << "shard " << s;
        ASSERT_EQ(shard.value(1, r), expect[s][r][1]) << "shard " << s;
        ASSERT_EQ(static_cast<Value>(shard.batch_of(r)), expect[s][r][2]);
        ASSERT_EQ(shard.insert_tick(r), r);  // ticks are shard-local
      }
    }
  }
}

// ------------------------------------------ scan kernel equivalence

TEST(ShardedScanTest, SingleShardIsBitIdenticalToUnshardedSerial) {
  Table flat = Table::Make(TestSchema()).value();
  ShardedTable sharded = ShardedTable::Make(TestSchema(), 1).value();
  FillRows(&flat, 2013, /*seed=*/3, /*forget_fraction=*/0.3);
  FillRows(&sharded, 2013, /*seed=*/3, /*forget_fraction=*/0.3);

  ThreadPool pool(3);
  const std::vector<RangePredicate> preds = {
      RangePredicate::All(0), {0, 100, 900}, {0, 500, 501}, {0, 700, 300}};
  for (Engine engine : {Engine::kScalar, Engine::kVectorized}) {
    for (Visibility vis : kAllVisibilities) {
      for (const RangePredicate& pred : preds) {
        const ResultSet fs = ScanRange(flat, pred, vis, engine).value();
        const ResultSet ss = ScanRange(sharded, pred, vis, engine).value();
        EXPECT_EQ(ss.rows, fs.rows);  // bit-identical global == local ids
        EXPECT_EQ(ss.values, fs.values);
        const ResultSet sp = ScanRangeParallel(sharded, pred, vis, pool, 97,
                                               /*max_workers=*/0, engine)
                                 .value();
        EXPECT_EQ(sp.rows, fs.rows);
        EXPECT_EQ(sp.values, fs.values);

        const uint64_t fc = CountRange(flat, pred, vis, engine).value();
        EXPECT_EQ(CountRange(sharded, pred, vis, engine).value(), fc);
        EXPECT_EQ(CountRangeParallel(sharded, pred, vis, pool, 97,
                                     /*max_workers=*/0, engine)
                      .value(),
                  fc);

        const AggregateResult fa =
            AggregateRange(flat, pred, vis, engine).value();
        const AggregateResult sa =
            AggregateRange(sharded, pred, vis, engine).value();
        EXPECT_EQ(sa.count, fa.count);
        EXPECT_EQ(sa.min, fa.min);  // bit-identical incl. empty-range +inf
        EXPECT_EQ(sa.max, fa.max);
        EXPECT_EQ(sa.sum, fa.sum);  // one shard: same morsels, same order
        const AggregateResult pa =
            AggregateRangeParallel(sharded, pred, vis, pool, 97,
                                   /*max_workers=*/0, engine)
                .value();
        EXPECT_EQ(pa.count, fa.count);
        EXPECT_EQ(pa.min, fa.min);
        EXPECT_EQ(pa.max, fa.max);
        EXPECT_NEAR(pa.sum, fa.sum, 1e-6 * (std::abs(fa.sum) + 1.0));
      }
    }
  }
}

TEST(ShardedScanTest, AnyShardCountPreservesValuesAndAggregates) {
  // The same physical rows partitioned across any number of shards must
  // produce the same value multiset, COUNT, MIN and MAX as the unsharded
  // table; only the row-id labels differ.
  Table flat = Table::Make(TestSchema()).value();
  FillRows(&flat, 1531, /*seed=*/21);
  Rng rng(21);
  std::vector<Value> values;
  for (int i = 0; i < 1531; ++i) values.push_back(rng.UniformInt(0, 1000));

  ThreadPool pool(3);
  const RangePredicate pred{0, 200, 800};
  const uint64_t flat_count =
      CountRange(flat, pred, Visibility::kAll).value();
  const AggregateResult flat_agg =
      AggregateRange(flat, pred, Visibility::kAll).value();
  ResultSet flat_scan = ScanRange(flat, pred, Visibility::kAll).value();
  std::sort(flat_scan.values.begin(), flat_scan.values.end());

  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    ShardedTable t = ShardedTable::Make(TestSchema(), shards).value();
    ASSERT_EQ(t.AppendColumns({values}).value(), values.size());

    EXPECT_EQ(CountRange(t, pred, Visibility::kAll).value(), flat_count);
    const AggregateResult agg =
        AggregateRange(t, pred, Visibility::kAll).value();
    EXPECT_EQ(agg.count, flat_agg.count);
    EXPECT_EQ(agg.min, flat_agg.min);
    EXPECT_EQ(agg.max, flat_agg.max);
    EXPECT_NEAR(agg.sum, flat_agg.sum, 1e-6 * (std::abs(flat_agg.sum) + 1.0));

    ResultSet scan = ScanRange(t, pred, Visibility::kAll).value();
    // Shard-major order: global row ids are strictly increasing.
    for (size_t i = 1; i < scan.rows.size(); ++i) {
      ASSERT_LT(scan.rows[i - 1], scan.rows[i]);
    }
    std::sort(scan.values.begin(), scan.values.end());
    EXPECT_EQ(scan.values, flat_scan.values);

    // Parallel dispatch returns exactly the serial sharded result.
    const ResultSet serial = ScanRange(t, pred, Visibility::kAll).value();
    const ResultSet parallel =
        ScanRangeParallel(t, pred, Visibility::kAll, pool, 97).value();
    EXPECT_EQ(parallel.rows, serial.rows);
    EXPECT_EQ(parallel.values, serial.values);
  }
}

// --------------------------------------------------- budget splitter

TEST(SplitBudgetTest, ProportionalSumPreservingAndDeterministic) {
  // Identity for one shard.
  EXPECT_EQ(SplitBudget(1000, {700}), (std::vector<uint64_t>{1000}));
  // Proportional with largest-remainder: sums exactly to the budget.
  const std::vector<uint64_t> split = SplitBudget(5, {3, 7});
  EXPECT_EQ(std::accumulate(split.begin(), split.end(), uint64_t{0}), 5u);
  EXPECT_EQ(split, (std::vector<uint64_t>{2, 3}));
  // When budget <= total active, no shard is allotted more than it holds.
  for (uint64_t budget : {0u, 1u, 17u, 99u, 100u}) {
    const std::vector<uint64_t> active = {40, 0, 25, 35};
    const std::vector<uint64_t> b = SplitBudget(budget, active);
    EXPECT_EQ(std::accumulate(b.begin(), b.end(), uint64_t{0}), budget);
    for (size_t s = 0; s < active.size(); ++s) {
      EXPECT_LE(b[s], active[s]) << "budget " << budget << " shard " << s;
    }
  }
  // Nothing active: even split, remainder to the low shards.
  EXPECT_EQ(SplitBudget(10, {0, 0, 0}), (std::vector<uint64_t>{4, 3, 3}));
  // Empty shard list.
  EXPECT_TRUE(SplitBudget(10, {}).empty());
}

// ------------------------------------------ forget-pass equivalence

struct PolicyCase {
  PolicyKind kind;
};

class ShardedForgetTest : public ::testing::TestWithParam<PolicyCase> {};

PolicyOptions MakePolicyOptions(PolicyKind kind) {
  PolicyOptions popts;
  popts.kind = kind;
  return popts;
}

/// Runs `rounds` ingest+enforce rounds against any table/controller pair,
/// mirroring the simulator's loop; `enforce` is called after each batch.
template <typename TableLike, typename Enforce>
void RunRounds(TableLike* table, GroundTruthOracle* oracle, uint32_t rounds,
               uint64_t per_round, const Enforce& enforce) {
  Rng data_rng(5);
  for (uint32_t b = 0; b < rounds; ++b) {
    table->BeginBatch();
    std::vector<Value> values(per_round);
    for (Value& v : values) {
      v = data_rng.UniformInt(0, 1000);
      oracle->Append(v);
    }
    ASSERT_TRUE(table->AppendColumns({values}).ok());
    oracle->Seal();
    enforce();
  }
}

TEST_P(ShardedForgetTest, SingleShardForgetsExactlyTheUnshardedVictims) {
  const PolicyKind kind = GetParam().kind;
  constexpr uint64_t kBudget = 220;
  constexpr uint64_t kPerRound = 90;
  constexpr uint32_t kRounds = 6;
  constexpr uint64_t kSeed = 1234;

  // Unsharded path: one policy, one controller, Rng(kSeed + 0) — exactly
  // the stream the sharded controller hands shard 0.
  Table flat = Table::Make(TestSchema()).value();
  GroundTruthOracle flat_oracle;
  auto flat_policy = CreatePolicy(MakePolicyOptions(kind), &flat_oracle);
  ASSERT_TRUE(flat_policy.ok());
  ControllerOptions copts;
  copts.dbsize_budget = kBudget;
  auto flat_ctrl =
      AmnesiaController::Make(copts, flat_policy.value().get(), &flat);
  ASSERT_TRUE(flat_ctrl.ok());
  Rng flat_rng(kSeed + 0);
  RunRounds(&flat, &flat_oracle, kRounds, kPerRound, [&] {
    ASSERT_TRUE(flat_ctrl.value().EnforceBudget(&flat_rng).ok());
  });

  ShardedTable sharded = ShardedTable::Make(TestSchema(), 1).value();
  GroundTruthOracle sharded_oracle;
  ShardedControllerOptions sopts;
  sopts.dbsize_budget = kBudget;
  sopts.seed = kSeed;
  auto sharded_ctrl = ShardedAmnesiaController::Make(
      sopts, MakePolicyOptions(kind), &sharded, &sharded_oracle);
  ASSERT_TRUE(sharded_ctrl.ok());
  RunRounds(&sharded, &sharded_oracle, kRounds, kPerRound, [&] {
    ASSERT_TRUE(sharded_ctrl.value().EnforceBudget().ok());
  });

  ASSERT_EQ(sharded.num_rows(), flat.num_rows());
  EXPECT_EQ(sharded.num_active(), flat.num_active());
  EXPECT_EQ(sharded.lifetime_forgotten(), flat.lifetime_forgotten());
  for (RowId r = 0; r < flat.num_rows(); ++r) {
    ASSERT_EQ(sharded.shard(0).IsActive(r), flat.IsActive(r))
        << PolicyKindToString(kind) << " row " << r;
  }
}

TEST_P(ShardedForgetTest, EveryShardCountEnforcesTheGlobalBudget) {
  const PolicyKind kind = GetParam().kind;
  constexpr uint64_t kBudget = 200;
  constexpr uint64_t kPerRound = 80;
  constexpr uint32_t kRounds = 5;

  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    ShardedTable table = ShardedTable::Make(TestSchema(), shards).value();
    GroundTruthOracle oracle;
    ShardedControllerOptions sopts;
    sopts.dbsize_budget = kBudget;
    sopts.seed = 99;
    auto ctrl = ShardedAmnesiaController::Make(
        sopts, MakePolicyOptions(kind), &table, &oracle);
    ASSERT_TRUE(ctrl.ok());
    ThreadPool pool(3);

    uint64_t inserted = 0;
    RunRounds(&table, &oracle, kRounds, kPerRound, [&] {
      inserted += kPerRound;
      ASSERT_TRUE(ctrl.value().EnforceBudget(&pool).ok());
      // The budget splitter sums to the global budget, so the pass lands
      // exactly on it whenever there was overflow.
      const uint64_t expect =
          std::min<uint64_t>(inserted, kBudget);
      ASSERT_EQ(table.num_active(), expect)
          << PolicyKindToString(kind) << " shards " << shards;
      ASSERT_EQ(ctrl.value().Overflow(), 0u);
    });

    // Mark-only backend: every inserted value is still physically present.
    ASSERT_EQ(table.num_rows(), inserted);
    EXPECT_EQ(ctrl.value().stats().tuples_forgotten,
              inserted - table.num_active());
    // Per-shard active counts match the last split.
    const std::vector<uint64_t>& budgets = ctrl.value().last_budgets();
    ASSERT_EQ(budgets.size(), shards);
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_EQ(table.shard(s).num_active(), budgets[s]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ShardedForgetTest,
    ::testing::ValuesIn([] {
      std::vector<PolicyCase> cases;
      for (PolicyKind kind : AllPolicyKinds()) cases.push_back({kind});
      return cases;
    }()),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      std::string name(PolicyKindToString(info.param.kind));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ShardedForgetTest, PoolAndSerialPassesProduceIdenticalState) {
  for (uint32_t shards : {2u, 4u}) {
    ShardedTable serial_t = ShardedTable::Make(TestSchema(), shards).value();
    ShardedTable pooled_t = ShardedTable::Make(TestSchema(), shards).value();
    GroundTruthOracle o1, o2;
    ShardedControllerOptions sopts;
    sopts.dbsize_budget = 150;
    sopts.seed = 31;
    PolicyOptions popts = MakePolicyOptions(PolicyKind::kUniform);
    auto serial_c =
        ShardedAmnesiaController::Make(sopts, popts, &serial_t, &o1);
    auto pooled_c =
        ShardedAmnesiaController::Make(sopts, popts, &pooled_t, &o2);
    ASSERT_TRUE(serial_c.ok());
    ASSERT_TRUE(pooled_c.ok());
    ThreadPool pool(3);
    RunRounds(&serial_t, &o1, 4, 70,
              [&] { ASSERT_TRUE(serial_c.value().EnforceBudget().ok()); });
    RunRounds(&pooled_t, &o2, 4, 70,
              [&] { ASSERT_TRUE(pooled_c.value().EnforceBudget(&pool).ok()); });

    ASSERT_EQ(pooled_t.num_rows(), serial_t.num_rows());
    for (uint32_t s = 0; s < shards; ++s) {
      const Table& a = serial_t.shard(s);
      const Table& b = pooled_t.shard(s);
      ASSERT_EQ(a.num_rows(), b.num_rows());
      for (RowId r = 0; r < a.num_rows(); ++r) {
        ASSERT_EQ(a.IsActive(r), b.IsActive(r));
      }
    }
  }
}

TEST(ShardedForgetTest, DeleteBackendCompactsEveryShard) {
  ShardedTable table = ShardedTable::Make(TestSchema(), 4).value();
  GroundTruthOracle oracle;
  ShardedControllerOptions sopts;
  sopts.dbsize_budget = 100;
  sopts.backend = BackendKind::kDelete;
  sopts.compact_every_n_rounds = 1;
  auto ctrl = ShardedAmnesiaController::Make(
      sopts, MakePolicyOptions(PolicyKind::kFifo), &table, &oracle);
  ASSERT_TRUE(ctrl.ok());
  ThreadPool pool(3);
  RunRounds(&table, &oracle, 5, 60,
            [&] { ASSERT_TRUE(ctrl.value().EnforceBudget(&pool).ok()); });

  // Compaction physically removed every forgotten row, shard by shard.
  EXPECT_EQ(table.num_active(), 100u);
  EXPECT_EQ(table.num_rows(), 100u);
  EXPECT_EQ(table.num_forgotten(), 0u);
  EXPECT_EQ(table.lifetime_inserted(), 300u);
  EXPECT_EQ(table.lifetime_forgotten(), 200u);
  const ControllerStats stats = ctrl.value().stats();
  EXPECT_EQ(stats.rows_compacted, 200u);
  EXPECT_GT(stats.compactions, 0u);
}

TEST(ShardedForgetTest, RejectsPerTableBackends) {
  ShardedTable table = ShardedTable::Make(TestSchema(), 2).value();
  ShardedControllerOptions sopts;
  sopts.backend = BackendKind::kSummary;
  EXPECT_FALSE(ShardedAmnesiaController::Make(
                   sopts, MakePolicyOptions(PolicyKind::kFifo), &table)
                   .ok());
}

// --------------------------------------------------------- checkpoint

TEST(ShardedCheckpointTest, RoundTripsShardsIndependently) {
  ShardedTable table = ShardedTable::Make(TestSchema(), 3).value();
  FillRows(&table, 500, /*seed=*/17, /*forget_fraction=*/0.25);
  table.BeginBatch();
  ASSERT_TRUE(table.AppendColumns({{42}}).ok());

  // A sharded table persists through the checkpointer: one blob per
  // shard, committed by one manifest with the ingest cursor.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_sharded_ckpt_test")
          .string();
  std::filesystem::remove_all(dir);
  ThreadPool pool(2);
  CheckpointerOptions opts;
  opts.dir = dir;
  opts.pool = &pool;
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, /*covered_lsn=*/0).ok());
  EXPECT_EQ(ckpt.stats().shards_written, 3u);
  RecoveredState state = Recover(dir, "").value();
  std::filesystem::remove_all(dir);
  auto restored =
      ShardedTable::FromShards(std::move(state.shards), state.ingest_cursor);
  ASSERT_TRUE(restored.ok());
  ShardedTable& r = restored.value();

  ASSERT_EQ(r.num_shards(), table.num_shards());
  EXPECT_EQ(r.num_active(), table.num_active());
  EXPECT_EQ(r.ingest_cursor(), table.ingest_cursor());
  EXPECT_EQ(r.current_batch(), table.current_batch());
  EXPECT_EQ(r.lifetime_forgotten(), table.lifetime_forgotten());
  for (uint32_t s = 0; s < table.num_shards(); ++s) {
    EXPECT_EQ(CheckpointTable(r.shard(s)), CheckpointTable(table.shard(s)))
        << "shard " << s;
  }

  // Round-robin ingest resumes where the checkpoint left off.
  const uint32_t next =
      static_cast<uint32_t>(table.ingest_cursor() % table.num_shards());
  const uint64_t local = r.shard(next).num_rows();
  ASSERT_TRUE(r.AppendColumns({{7}}).ok());
  ASSERT_EQ(r.shard(next).num_rows(), local + 1);
  EXPECT_EQ(r.shard(next).value(0, local), 7);
}

}  // namespace
}  // namespace amnesia
