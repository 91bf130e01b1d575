// Copyright 2026 The AmnesiaDB Authors
//
// Tests for table checkpoint/restore (§5 explicit backup recovery).

#include <cstdio>

#include <gtest/gtest.h>

#include "amnesia/controller.h"
#include "amnesia/fifo.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "storage/checkpoint.h"

namespace amnesia {
namespace {

Table MakeRichTable() {
  Table t = Table::Make(
                Schema({ColumnDef{"a", 0, 1000}, ColumnDef{"b", -50, 50}}))
                .value();
  Rng rng(101);
  for (int batch = 0; batch < 4; ++batch) {
    if (batch > 0) t.BeginBatch();
    for (int i = 0; i < 25; ++i) {
      EXPECT_TRUE(
          t.AppendRow({rng.UniformInt(0, 999), rng.UniformInt(-49, 49)})
              .ok());
    }
  }
  // Mixed state: some forgotten, some accessed.
  for (RowId r = 0; r < 100; r += 3) EXPECT_TRUE(t.Forget(r).ok());
  for (RowId r = 1; r < 100; r += 5) t.BumpAccess(r);
  return t;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  EXPECT_TRUE(a.schema().Equals(b.schema()));
  EXPECT_EQ(a.num_active(), b.num_active());
  EXPECT_EQ(a.lifetime_inserted(), b.lifetime_inserted());
  EXPECT_EQ(a.lifetime_forgotten(), b.lifetime_forgotten());
  EXPECT_EQ(a.current_batch(), b.current_batch());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.min_seen(c), b.min_seen(c));
    EXPECT_EQ(a.max_seen(c), b.max_seen(c));
  }
  for (RowId r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.IsActive(r), b.IsActive(r)) << "row " << r;
    EXPECT_EQ(a.insert_tick(r), b.insert_tick(r)) << "row " << r;
    EXPECT_EQ(a.batch_of(r), b.batch_of(r)) << "row " << r;
    EXPECT_EQ(a.access_count(r), b.access_count(r)) << "row " << r;
    for (size_t c = 0; c < a.num_columns(); ++c) {
      EXPECT_EQ(a.value(c, r), b.value(c, r)) << "row " << r;
    }
  }
}

TEST(CheckpointTest, RoundTripRichTable) {
  const Table original = MakeRichTable();
  const std::vector<uint8_t> buffer = CheckpointTable(original);
  EXPECT_GT(buffer.size(), 0u);
  const Table restored = RestoreTable(buffer).value();
  ExpectTablesEqual(original, restored);
}

TEST(CheckpointTest, RoundTripEmptyTable) {
  const Table original =
      Table::Make(Schema::SingleColumn("a", 0, 10)).value();
  const Table restored = RestoreTable(CheckpointTable(original)).value();
  ExpectTablesEqual(original, restored);
}

TEST(CheckpointTest, BlobBodyIsReservedOnceAtItsExactSize) {
  // CheckpointTable reserves everything after the schema prefix in one
  // step. Too small a reservation regrows the buffer (holding a doubled,
  // half-empty copy at the peak); too large leaves capacity unused.
  Table single = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  for (int i = 0; i < 1001; ++i) ASSERT_TRUE(single.AppendRow({i}).ok());
  const std::vector<uint8_t> blob = CheckpointTable(single);
  EXPECT_EQ(blob.capacity(), blob.size());
  const std::vector<uint8_t> rich = CheckpointTable(MakeRichTable());
  EXPECT_EQ(rich.capacity(), rich.size());
}

TEST(CheckpointTest, RoundTripAfterCompaction) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(t.AppendRow({i * 7}).ok());
  for (RowId r = 0; r < 25; ++r) ASSERT_TRUE(t.Forget(r).ok());
  t.CompactForgotten();  // ticks become non-dense, extrema historical
  const Table restored = RestoreTable(CheckpointTable(t)).value();
  ExpectTablesEqual(t, restored);
  // Historical max survives even though the row carrying it may be gone.
  EXPECT_EQ(restored.max_seen(0), 49 * 7);
}

TEST(CheckpointTest, RestoredTableRemainsUsable) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  ASSERT_TRUE(t.AppendRow({5}).ok());
  Table restored = RestoreTable(CheckpointTable(t)).value();
  const RowId r = restored.AppendRow({9}).value();
  EXPECT_EQ(restored.insert_tick(r), 1u);  // tick sequence continues
  EXPECT_TRUE(restored.Forget(0).ok());
  EXPECT_EQ(restored.num_active(), 1u);
}

TEST(CheckpointTest, RejectsGarbage) {
  EXPECT_EQ(RestoreTable({}).status().code(), StatusCode::kInvalidArgument);
  std::vector<uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(RestoreTable(junk).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, RejectsTruncatedBuffer) {
  const Table t = MakeRichTable();
  std::vector<uint8_t> buffer = CheckpointTable(t);
  for (size_t cut : {buffer.size() / 2, buffer.size() - 1, size_t{9}}) {
    std::vector<uint8_t> truncated(buffer.begin(),
                                   buffer.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(RestoreTable(truncated).ok()) << "cut at " << cut;
  }
}

TEST(CheckpointTest, RejectsWrongVersion) {
  const Table t = MakeRichTable();
  std::vector<uint8_t> buffer = CheckpointTable(t);
  buffer[4] = 0xFF;  // version field
  EXPECT_EQ(RestoreTable(buffer).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, FileRoundTrip) {
  const Table original = MakeRichTable();
  const std::string path = "/tmp/amnesia_checkpoint_test.bin";
  ASSERT_TRUE(WriteCheckpointFile(original, path).ok());
  const Table restored = ReadCheckpointFile(path).value();
  ExpectTablesEqual(original, restored);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadCheckpointFile("/tmp/definitely_missing_amnesia.bin")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(RawPartsTest, ValidatesShapes) {
  Table::RawParts parts;
  parts.schema = Schema::SingleColumn("a", 0, 10);
  parts.columns = {{1, 2}};
  parts.min_seen = {1};
  parts.max_seen = {2};
  parts.insert_ticks = {0, 1};
  parts.batches = {0, 0};
  parts.access_counts = {0, 0};
  parts.active = {true, true};
  parts.next_tick = 2;
  EXPECT_TRUE(Table::FromRawParts(parts).ok());

  auto bad = parts;
  bad.insert_ticks = {0};
  EXPECT_FALSE(Table::FromRawParts(bad).ok());

  bad = parts;
  bad.next_tick = 1;  // below row count
  EXPECT_FALSE(Table::FromRawParts(bad).ok());

  bad = parts;
  bad.min_seen = {};
  EXPECT_FALSE(Table::FromRawParts(bad).ok());

  bad = parts;
  bad.columns = {{1, 2}, {3}};
  EXPECT_FALSE(Table::FromRawParts(bad).ok());
}


// ------------------------------------------------------ database level

Database MakeRichDatabase() {
  Database db;
  Table* customers =
      db.CreateTable("customers", Schema::SingleColumn("id", 0, 100)).value();
  Table* orders =
      db.CreateTable("orders", Schema::SingleColumn("customer_id", 0, 100))
          .value();
  EXPECT_TRUE(
      db.AddForeignKey(ForeignKey{"orders", 0, "customers", 0}).ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(customers->AppendRow({i}).ok());
    EXPECT_TRUE(orders->AppendRow({i}).ok());
    EXPECT_TRUE(orders->AppendRow({i}).ok());
  }
  EXPECT_TRUE(customers->Forget(9).ok());
  return db;
}

TEST(DatabaseCheckpointTest, RoundTrip) {
  const Database original = MakeRichDatabase();
  const std::vector<uint8_t> buffer = CheckpointDatabase(original);
  const Database restored = RestoreDatabase(buffer).value();
  EXPECT_EQ(restored.num_tables(), 2u);
  EXPECT_EQ(restored.foreign_keys().size(), 1u);
  ExpectTablesEqual(*original.GetTable("customers").value(),
                    *restored.GetTable("customers").value());
  ExpectTablesEqual(*original.GetTable("orders").value(),
                    *restored.GetTable("orders").value());
  // FK metadata survives and integrity checking still works (and still
  // reports the dangling orders of the forgotten customer 9).
  EXPECT_FALSE(restored.CheckReferentialIntegrity().ok());
}

TEST(DatabaseCheckpointTest, EmptyDatabase) {
  Database db;
  const Database restored = RestoreDatabase(CheckpointDatabase(db)).value();
  EXPECT_EQ(restored.num_tables(), 0u);
}

TEST(DatabaseCheckpointTest, RejectsTableMagicAsDatabase) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 10)).value();
  EXPECT_EQ(RestoreDatabase(CheckpointTable(t)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseCheckpointTest, RejectsTruncation) {
  const Database db = MakeRichDatabase();
  std::vector<uint8_t> buffer = CheckpointDatabase(db);
  buffer.resize(buffer.size() / 2);
  EXPECT_FALSE(RestoreDatabase(buffer).ok());
}


// ------------------------------------------------------- sharded parallel

TEST(ShardedCheckpointTest, PooledWriterIsBitIdenticalToSerial) {
  ShardedTable table =
      ShardedTable::Make(Schema({ColumnDef{"a", 0, 1000},
                                 ColumnDef{"b", -50, 50}}),
                         4)
          .value();
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        table.AppendRow({rng.UniformInt(0, 999), rng.UniformInt(-49, 49)})
            .ok());
  }
  for (RowId r = 0; r < 500; r += 3) {
    // Dense global ids only exist per shard; forget via (shard, local).
    ASSERT_TRUE(table.Forget(MakeGlobalRowId(r % 4, r / 4)).ok());
  }

  const std::vector<uint8_t> serial = CheckpointShardedTable(table);
  ThreadPool pool(3);
  const std::vector<uint8_t> pooled = CheckpointShardedTable(table, &pool);
  EXPECT_EQ(pooled, serial);

  const ShardedTable restored = RestoreShardedTable(pooled).value();
  EXPECT_EQ(restored.num_shards(), 4u);
  EXPECT_EQ(restored.ingest_cursor(), table.ingest_cursor());
  for (uint32_t s = 0; s < 4; ++s) {
    ExpectTablesEqual(restored.shard(s).table(), table.shard(s).table());
  }
}

TEST(ShardedCheckpointTest, FileRoundTripReportsIoErrors) {
  ShardedTable table =
      ShardedTable::Make(Schema::SingleColumn("a", 0, 100), 2).value();
  ASSERT_TRUE(table.AppendRow({5}).ok());
  const std::string path = "/tmp/amnesia_sharded_checkpoint_test.bin";
  ASSERT_TRUE(WriteShardedCheckpointFile(table, path).ok());
  const ShardedTable restored = ReadShardedCheckpointFile(path).value();
  EXPECT_EQ(restored.num_rows(), 1u);
  std::remove(path.c_str());

  // Unwritable target directory surfaces as Status, not a crash.
  EXPECT_FALSE(
      WriteShardedCheckpointFile(table, "/proc/nope/checkpoint.bin").ok());
  EXPECT_EQ(ReadShardedCheckpointFile("/tmp/missing_amnesia_sharded.bin")
                .status()
                .code(),
            StatusCode::kNotFound);
}


// ------------------------------------------------------------- tier stores

TEST(ColdStoreCheckpointTest, RoundTripPreservesTuplesAndAccounting) {
  ColdStorageModel model;
  model.retrieval_usd_per_tb = 17.5;
  ColdStore store(model);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    store.Put(ColdTuple{static_cast<RowId>(i), rng.UniformInt(0, 999),
                        static_cast<Tick>(i), static_cast<BatchId>(i % 7)});
  }
  // Exercise the recall economics so the accounting is non-trivial.
  const auto recalled = store.RecallValueRange(100, 500);
  ASSERT_GT(recalled.size(), 0u);

  ColdStore restored =
      RestoreColdStore(CheckpointColdStore(store)).value();
  ASSERT_EQ(restored.size(), store.size());
  for (size_t i = 0; i < store.tuples().size(); ++i) {
    EXPECT_EQ(restored.tuples()[i].origin_row, store.tuples()[i].origin_row);
    EXPECT_EQ(restored.tuples()[i].value, store.tuples()[i].value);
    EXPECT_EQ(restored.tuples()[i].insert_tick,
              store.tuples()[i].insert_tick);
    EXPECT_EQ(restored.tuples()[i].batch, store.tuples()[i].batch);
  }
  EXPECT_EQ(restored.accounting().recall_requests,
            store.accounting().recall_requests);
  EXPECT_EQ(restored.accounting().tuples_recalled,
            store.accounting().tuples_recalled);
  EXPECT_EQ(restored.accounting().simulated_latency_ms,
            store.accounting().simulated_latency_ms);
  EXPECT_EQ(restored.accounting().simulated_recall_usd,
            store.accounting().simulated_recall_usd);
  EXPECT_EQ(restored.model().retrieval_usd_per_tb, 17.5);
  // A recall against the restored tier returns the same tuples and
  // charges the same model.
  EXPECT_EQ(restored.RecallValueRange(100, 500).size(), recalled.size());
  EXPECT_EQ(restored.HoldingCostPerYearUsd(), store.HoldingCostPerYearUsd());

  EXPECT_FALSE(RestoreColdStore({1, 2, 3}).ok());
}

TEST(SummaryStoreCheckpointTest, RoundTripPreservesEstimates) {
  SummaryStore store;
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    store.AddForgotten(0, static_cast<BatchId>(i % 5),
                       rng.UniformInt(0, 9999));
  }
  SummaryStore restored =
      RestoreSummaryStore(CheckpointSummaryStore(store)).value();
  EXPECT_EQ(restored.num_cells(), store.num_cells());
  EXPECT_EQ(CheckpointSummaryStore(restored), CheckpointSummaryStore(store));
  // Precision-relevant reads are identical: totals, per-batch cells and
  // range estimates (exact double equality — sums round-trip by bit).
  const Summary total_a = store.Total(0);
  const Summary total_b = restored.Total(0);
  EXPECT_EQ(total_a.count, total_b.count);
  EXPECT_EQ(total_a.sum, total_b.sum);
  EXPECT_EQ(total_a.min, total_b.min);
  EXPECT_EQ(total_a.max, total_b.max);
  for (BatchId b = 0; b < 5; ++b) {
    EXPECT_EQ(store.ForBatch(0, b).count, restored.ForBatch(0, b).count);
  }
  const Summary est_a = store.EstimateRange(0, 1000, 8000);
  const Summary est_b = restored.EstimateRange(0, 1000, 8000);
  EXPECT_EQ(est_a.count, est_b.count);
  EXPECT_EQ(est_a.sum, est_b.sum);

  EXPECT_FALSE(RestoreSummaryStore({9, 9, 9}).ok());
}

/// Forget into both tiers through a real controller, checkpoint table +
/// tier, restore both, and confirm the recovered pair answers like the
/// original (the satellite's "forget to a tier, checkpoint, restore,
/// verify" loop).
TEST(TierCheckpointTest, ControllerDrivenRoundTrip) {
  for (const BackendKind backend :
       {BackendKind::kColdStorage, BackendKind::kSummary}) {
    Table table = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
    Rng data_rng(3);
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(table.AppendRow({data_rng.UniformInt(0, 999)}).ok());
    }
    ColdStore cold;
    SummaryStore summaries;
    FifoPolicy policy;
    ControllerOptions copts;
    copts.dbsize_budget = 80;
    copts.backend = backend;
    AmnesiaController ctrl =
        AmnesiaController::Make(copts, &policy, &table, nullptr, &cold,
                                &summaries)
            .value();
    Rng rng(8);
    ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
    ASSERT_EQ(table.num_active(), 80u);

    const Table table_restored =
        RestoreTable(CheckpointTable(table)).value();
    ExpectTablesEqual(table, table_restored);
    if (backend == BackendKind::kColdStorage) {
      ColdStore cold_restored =
          RestoreColdStore(CheckpointColdStore(cold)).value();
      EXPECT_EQ(cold_restored.size(), 40u);
      EXPECT_EQ(CheckpointColdStore(cold_restored),
                CheckpointColdStore(cold));
    } else {
      SummaryStore sum_restored =
          RestoreSummaryStore(CheckpointSummaryStore(summaries)).value();
      EXPECT_EQ(sum_restored.Total(0).count, 40u);
      EXPECT_EQ(CheckpointSummaryStore(sum_restored),
                CheckpointSummaryStore(summaries));
    }
  }
}

}  // namespace
}  // namespace amnesia
