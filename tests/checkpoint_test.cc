// Copyright 2026 The AmnesiaDB Authors
//
// Tests for table checkpoint/restore (§5 explicit backup recovery).

#include <cstdio>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "amnesia/controller.h"
#include "amnesia/fifo.h"
#include "common/fs.h"
#include "common/rng.h"
#include "storage/checkpoint.h"
#include "storage/checkpoint_io.h"

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
  // Both callers of the self-contained writer reserve everything after
  // the schema prefix in one step. Too small a reservation regrows the
  // buffer (holding a doubled, half-empty copy at the peak); too large
  // leaves capacity unused.
  Table single = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  for (int i = 0; i < 1001; ++i) ASSERT_TRUE(single.AppendRow({i}).ok());
  const Table rich = MakeRichTable();
  for (const Table* table : std::vector<const Table*>{&single, &rich}) {
    const std::vector<uint8_t> blob = CheckpointTable(*table);
    EXPECT_EQ(blob.capacity(), blob.size());
    const std::vector<uint8_t> image = EncodeTableParts(table->ToParts());
    EXPECT_EQ(image.capacity(), image.size());
    EXPECT_EQ(image, blob);
  }
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
  // Every strict prefix fails: the layout ends with a required field.
  const Table t = MakeRichTable();
  std::vector<uint8_t> buffer = CheckpointTable(t);
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
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
  ASSERT_TRUE(WriteBytesFileAtomic(CheckpointTable(original), path).ok());
  const Table restored = RestoreTable(ReadBytesFile(path).value()).value();
  ExpectTablesEqual(original, restored);
  std::remove(path.c_str());
  // An unwritable target directory surfaces as a Status, not a crash.
  EXPECT_FALSE(
      WriteBytesFileAtomic(CheckpointTable(original), "/proc/nope/ckpt.bin")
          .ok());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadBytesFile("/tmp/definitely_missing_amnesia.bin")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, DirectoryIsNotReadAsAFile) {
  // A directory opens for reading, but it has no byte size to allocate:
  // reading one must fail with a Status, not abort the process.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_read_dir_test")
          .string();
  std::filesystem::create_directories(dir);
  EXPECT_EQ(ReadBytesFile(dir).status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, BlobLayoutsMatchHandEncodedBytes) {
  // Both table-blob layouts are pinned byte for byte, so checkpoint
  // directories written by earlier builds keep restoring: the leading
  // magic and version as literals, the rest assembled by hand from how
  // the tables were built. The mapped layout is version 3; the version 2
  // bytes earlier builds wrote for the same tables must still restore
  // them.
  const std::vector<uint8_t> self_contained_head = {
      'E', 'N', 'M', 'A', 1, 0, 0, 0};  // magic "AMNE", version 1
  const auto mapped_head = [](uint8_t version) {
    return std::vector<uint8_t>{'E', 'N', 'M', 'A', version, 0, 0, 0};
  };

  // A two-column vector table over two batches, with forgotten and
  // accessed rows.
  Table vec = Table::Make(Schema({ColumnDef{"a", 0, 1000},
                                  ColumnDef{"b", -50, 50}}))
                  .value();
  ASSERT_TRUE(vec.AppendRow({10, -5}).ok());
  ASSERT_TRUE(vec.AppendRow({700, 20}).ok());
  ASSERT_TRUE(vec.AppendRow({3, -40}).ok());
  vec.BeginBatch();
  ASSERT_TRUE(vec.AppendRow({999, 0}).ok());
  ASSERT_TRUE(vec.AppendRow({42, 50}).ok());
  ASSERT_TRUE(vec.Forget(1).ok());
  ASSERT_TRUE(vec.Forget(4).ok());
  vec.BumpAccess(0);
  vec.BumpAccess(0);
  vec.BumpAccess(3);

  std::vector<uint8_t> vec_blob = self_contained_head;
  ckpt::Writer vw(&vec_blob);
  vw.U64(2);  // columns: name, domain
  vw.String("a");
  vw.I64(0);
  vw.I64(1000);
  vw.String("b");
  vw.I64(-50);
  vw.I64(50);
  vw.U64(5);  // rows
  vw.U64(5);  // next tick
  vw.U64(2);  // lifetime forgotten
  vw.U32(1);  // current batch
  vw.I64(3);  // column a: min, max, payload
  vw.I64(999);
  vw.I64Array({10, 700, 3, 999, 42});
  vw.I64(-40);  // column b
  vw.I64(50);
  vw.I64Array({-5, 20, -40, 0, 50});
  vw.U64Array({0, 1, 2, 3, 4});  // insert ticks
  vw.U32Array({0, 0, 0, 1, 1});  // batches
  vw.U64Array({2, 0, 0, 1, 0});  // access counts
  vw.BitArray({true, false, true, true, false});

  EXPECT_EQ(CheckpointTable(vec), vec_blob);
  EXPECT_EQ(EncodeTableParts(vec.ToParts()), vec_blob);

  // A mapped table with 64-row partitions: rows 0-63 sealed and live,
  // rows 64-127 sealed and dropped, rows 128-139 the unsealed tail. Row r
  // holds the value r.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_blob_bytes_test")
          .string();
  std::filesystem::remove_all(dir);
  StorageOptions storage;
  storage.backend = StorageBackend::kMapped;
  storage.dir = dir;
  storage.partition_rows = 64;
  Table mapped =
      Table::Make(Schema::SingleColumn("v", 0, 1000), storage).value();
  for (Value v = 0; v < 100; ++v) ASSERT_TRUE(mapped.AppendRow({v}).ok());
  mapped.BeginBatch();
  for (Value v = 100; v < 140; ++v) ASSERT_TRUE(mapped.AppendRow({v}).ok());
  ASSERT_TRUE(mapped.Forget(130).ok());
  ASSERT_EQ(mapped.DropPartition(1).value(), 64u);
  mapped.BumpAccess(5);
  mapped.BumpAccess(5);
  mapped.BumpAccess(129);

  std::vector<bool> active(140, true);
  for (size_t r = 64; r < 128; ++r) active[r] = false;
  active[130] = false;
  std::vector<uint32_t> batches(140, 0);
  for (size_t r = 100; r < 140; ++r) batches[r] = 1;
  std::vector<uint64_t> access(140, 0);
  access[5] = 2;
  access[129] = 1;

  // CheckpointTable splices the sealed payload in (the dropped partition
  // reads as the scrub value 0) and writes the self-contained layout.
  std::vector<Value> payload(140);
  std::iota(payload.begin(), payload.end(), Value{0});
  std::fill(payload.begin() + 64, payload.begin() + 128, Value{0});
  std::vector<uint64_t> ticks(140);
  std::iota(ticks.begin(), ticks.end(), uint64_t{0});
  std::vector<uint8_t> spliced_blob = self_contained_head;
  ckpt::Writer sw(&spliced_blob);
  sw.U64(1);  // columns
  sw.String("v");
  sw.I64(0);
  sw.I64(1000);
  sw.U64(140);  // rows
  sw.U64(140);  // next tick
  sw.U64(65);   // lifetime forgotten: row 130 plus partition 1
  sw.U32(1);    // current batch
  sw.I64(0);    // min, max, payload
  sw.I64(139);
  sw.I64Array(payload);
  sw.U64Array(ticks);
  sw.U32Array(batches);
  sw.U64Array(access);
  sw.BitArray(active);
  EXPECT_EQ(CheckpointTable(mapped), spliced_blob);

  // The table's image records the partitions and the tail only. Its first
  // partition is live, so row_base is 0 and the access counts and active
  // bits cover every row.
  std::vector<uint8_t> mapped_blob = mapped_head(3);
  std::vector<uint8_t> mapped_v2_blob = mapped_head(2);
  for (std::vector<uint8_t>* blob : {&mapped_blob, &mapped_v2_blob}) {
    ckpt::Writer mw(blob);
    mw.U64(1);  // columns
    mw.String("v");
    mw.I64(0);
    mw.I64(1000);
    mw.U64(140);  // rows
    mw.U64(140);  // next tick
    mw.U64(65);   // lifetime forgotten
    mw.U32(1);    // current batch
    mw.U64(64);   // partition rows
    mw.U64(2);    // partitions: epoch_lo, epoch_hi, dropped
    mw.U64(0);
    mw.U64(63);
    mw.U8(0);
    mw.U64(64);
    mw.U64(127);
    mw.U8(1);
    if (blob == &mapped_blob) mw.U64(0);  // row_base (version 3 only)
    mw.I64(0);                            // min, max, tail
    mw.I64(139);
    mw.I64Array({128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139});
    mw.U64(2);  // batch runs: (batch, count)
    mw.U32(0);
    mw.U64(100);
    mw.U32(1);
    mw.U64(40);
    mw.U8(1);   // access counts run-length encoded
    mw.U64(5);  // access runs: (count value, rows)
    for (const auto& [value, rows] :
         {std::pair<uint64_t, uint64_t>{0, 5}, {2, 1}, {0, 123}, {1, 1},
          {0, 10}}) {
      mw.U64(value);
      mw.U64(rows);
    }
    mw.BitArray(active);
  }
  EXPECT_EQ(EncodeTableParts(mapped.ToParts()), mapped_blob);
  EXPECT_EQ(CheckpointTable(RestoreTable(mapped_v2_blob, dir).value()),
            spliced_blob);

  // A second mapped table whose partitions 0-1 were accessed and then
  // dropped: row_base is 128, so its access counts and active bits start
  // at row 128. Rows 0-99 are batch 0, rows 100-199 batch 1; rows 0-191
  // are sealed in three partitions, rows 192-199 the tail.
  const std::string prefix_dir = dir + "-prefix";
  std::filesystem::remove_all(prefix_dir);
  storage.dir = prefix_dir;
  Table prefix =
      Table::Make(Schema::SingleColumn("v", 0, 1000), storage).value();
  for (Value v = 0; v < 100; ++v) ASSERT_TRUE(prefix.AppendRow({v}).ok());
  prefix.BeginBatch();
  for (Value v = 100; v < 200; ++v) ASSERT_TRUE(prefix.AppendRow({v}).ok());
  prefix.BumpAccess(10);
  prefix.BumpAccess(10);
  prefix.BumpAccess(70);
  prefix.BumpAccess(150);
  ASSERT_TRUE(prefix.Forget(140).ok());
  ASSERT_EQ(prefix.DropPartition(0).value(), 64u);
  ASSERT_EQ(prefix.DropPartition(1).value(), 64u);
  EXPECT_EQ(prefix.access_count(10), 0u);  // a drop resets the counts
  EXPECT_EQ(prefix.access_count(70), 0u);
  EXPECT_EQ(prefix.ToParts().row_base, 128u);

  const auto write_prefix_head = [](ckpt::Writer* w) {
    w->U64(1);  // columns
    w->String("v");
    w->I64(0);
    w->I64(1000);
    w->U64(200);  // rows
    w->U64(200);  // next tick
    w->U64(129);  // lifetime forgotten: row 140 plus partitions 0-1
    w->U32(1);    // current batch
    w->U64(64);   // partition rows
    w->U64(3);    // partitions: epoch_lo, epoch_hi, dropped
    for (uint64_t p = 0; p < 3; ++p) {
      w->U64(64 * p);
      w->U64(64 * p + 63);
      w->U8(p < 2 ? 1 : 0);
    }
  };
  const auto write_prefix_body = [](ckpt::Writer* w) {
    w->I64(0);  // min, max, tail
    w->I64(199);
    w->I64Array({192, 193, 194, 195, 196, 197, 198, 199});
    w->U64(2);  // batch runs: (batch, count)
    w->U32(0);
    w->U64(100);
    w->U32(1);
    w->U64(100);
  };
  std::vector<uint8_t> prefix_blob = mapped_head(3);
  ckpt::Writer pw(&prefix_blob);
  write_prefix_head(&pw);
  pw.U64(128);  // row_base
  write_prefix_body(&pw);
  pw.U8(1);   // access counts of rows 128-199, run-length encoded
  pw.U64(3);  // access runs: (count value, rows)
  for (const auto& [value, rows] :
       {std::pair<uint64_t, uint64_t>{0, 22}, {1, 1}, {0, 49}}) {
    pw.U64(value);
    pw.U64(rows);
  }
  std::vector<bool> suffix_active(72, true);
  suffix_active[140 - 128] = false;
  pw.BitArray(suffix_active);
  EXPECT_EQ(EncodeTableParts(prefix.ToParts()), prefix_blob);

  // Earlier builds kept the dropped rows' access counts and wrote every
  // row's count and bit. Those bytes restore the same table, the counts
  // of the dropped rows reset to 0.
  std::vector<uint8_t> prefix_v2_blob = mapped_head(2);
  ckpt::Writer p2w(&prefix_v2_blob);
  write_prefix_head(&p2w);
  write_prefix_body(&p2w);
  p2w.U8(1);  // access counts of rows 0-199, run-length encoded
  p2w.U64(7);
  for (const auto& [value, rows] :
       {std::pair<uint64_t, uint64_t>{0, 10}, {2, 1}, {0, 59}, {1, 1},
        {0, 79}, {1, 1}, {0, 49}}) {
    p2w.U64(value);
    p2w.U64(rows);
  }
  std::vector<bool> all_active(200, true);
  std::fill(all_active.begin(), all_active.begin() + 128, false);
  all_active[140] = false;
  p2w.BitArray(all_active);
  const Table from_v2 = RestoreTable(prefix_v2_blob, prefix_dir).value();
  EXPECT_EQ(from_v2.access_count(10), 0u);
  EXPECT_EQ(CheckpointTable(from_v2), CheckpointTable(prefix));
  EXPECT_EQ(EncodeTableParts(from_v2.ToParts()), prefix_blob);
  EXPECT_EQ(CheckpointTable(RestoreTable(prefix_blob, prefix_dir).value()),
            CheckpointTable(prefix));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(prefix_dir);
}

/// Two active rows of a one-column table, valid as the parts of a vector
/// table and as the tail of a mapped one.
Table::Parts TwoRowParts() {
  Table::Parts parts;
  parts.schema = Schema::SingleColumn("a", 0, 10);
  parts.columns = {{1, 2}};
  parts.min_seen = {1};
  parts.max_seen = {2};
  parts.insert_ticks = {0, 1};
  parts.batches = {{0, 2}};
  parts.access_counts = {0, 0};
  parts.active = {true, true};
  parts.next_tick = 2;
  return parts;
}

TEST(PartsTest, ValidatesShapes) {
  const Table::Parts parts = TwoRowParts();
  EXPECT_TRUE(Table::FromParts(parts).ok());

  auto bad = parts;
  bad.insert_ticks = {0};
  EXPECT_FALSE(Table::FromParts(bad).ok());

  bad = parts;
  bad.next_tick = 1;  // below row count
  EXPECT_FALSE(Table::FromParts(bad).ok());

  bad = parts;
  bad.min_seen = {};
  EXPECT_FALSE(Table::FromParts(bad).ok());

  bad = parts;
  bad.columns = {{1, 2}, {3}};
  EXPECT_FALSE(Table::FromParts(bad).ok());

  // A vector table has no sealed partitions to name.
  bad = parts;
  bad.partitions = {PartitionMeta{0, 63, true}};
  EXPECT_FALSE(Table::FromParts(bad).ok());
}

TEST(PartsTest, ValidatesMappedShapes) {
  // No sealed partitions: the two rows are the tail, so nothing is mapped.
  // A mapped image carries no ticks; the table derives them.
  Table::Parts parts = TwoRowParts();
  parts.storage.backend = StorageBackend::kMapped;
  parts.storage.dir =
      (std::filesystem::temp_directory_path() / "amnesia_parts_test").string();
  parts.storage.partition_rows = 64;
  parts.insert_ticks.clear();
  parts.next_tick = 5;
  const Table table = Table::FromParts(parts).value();
  EXPECT_TRUE(table.mapped());
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.insert_tick(0), 3u);
  EXPECT_EQ(table.insert_tick(1), 4u);

  // Ticks on a mapped image are rejected, as partitions on a vector one.
  auto ticked = parts;
  ticked.insert_ticks = {3, 4};
  EXPECT_FALSE(Table::FromParts(ticked).ok());

  for (const uint64_t partition_rows : {uint64_t{0}, uint64_t{32},
                                        uint64_t{100}}) {
    auto bad = parts;
    bad.storage.partition_rows = partition_rows;
    EXPECT_FALSE(Table::FromParts(bad).ok()) << partition_rows;
  }
  auto bad = parts;
  bad.storage.dir.clear();
  EXPECT_FALSE(Table::FromParts(bad).ok());

  // A tail as long as a partition would have been sealed.
  Table::Parts full = parts;
  full.columns = {std::vector<Value>(64, 1)};
  full.batches = {{0, 64}};
  full.access_counts.assign(64, 0);
  full.active.assign(64, true);
  full.next_tick = 64;
  EXPECT_FALSE(Table::FromParts(full).ok());
  full.storage.partition_rows = 128;
  EXPECT_TRUE(Table::FromParts(full).ok());
}

/// Mapped table with 64-row partitions under `dir`: 300 rows over three
/// batches (rows 0-99, 100-199, 200-299), partitions 0-1 accessed and
/// then dropped, partition 3 dropped, row 140 forgotten and row 150
/// accessed. Partitions 0-3 are sealed and rows 256-299 are the tail, so
/// its image has row_base 128 and a dropped partition above it.
Table MakeDroppedPrefixTable(const std::string& dir) {
  std::filesystem::remove_all(dir);
  StorageOptions storage;
  storage.backend = StorageBackend::kMapped;
  storage.dir = dir;
  storage.partition_rows = 64;
  Table t = Table::Make(Schema::SingleColumn("v", 0, 1000), storage).value();
  for (Value v = 0; v < 300; ++v) {
    if (v == 100 || v == 200) t.BeginBatch();
    EXPECT_TRUE(t.AppendRow({v}).ok());
  }
  t.BumpAccess(10);
  t.BumpAccess(70);
  t.BumpAccess(150);
  EXPECT_TRUE(t.Forget(140).ok());
  for (size_t p : {size_t{0}, size_t{1}, size_t{3}}) {
    EXPECT_EQ(t.DropPartition(p).value(), 64u);
  }
  return t;
}

TEST(PartsTest, RejectsImagesThatBreakAnInvariant) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_parts_invariants")
          .string();
  const Table table = MakeDroppedPrefixTable(dir);
  const Table::Parts parts = table.ToParts();
  ASSERT_EQ(parts.row_base, 128u);
  ASSERT_EQ(parts.active.size(), 172u);
  ASSERT_EQ(parts.batches.size(), 3u);
  ASSERT_EQ(CheckpointTable(Table::FromParts(parts).value()),
            CheckpointTable(table));

  // Each case breaks one invariant of an otherwise valid image and must
  // be refused by the check that names it.
  struct Case {
    const char* message;
    std::function<void(Table::Parts*)> mutate;
  };
  const std::vector<Case> cases = {
      {"empty batch run",
       [](Table::Parts* p) {
         p->batches.insert(p->batches.begin() + 1, Table::BatchRun{0, 0});
       }},
      {"batch runs decrease",
       [](Table::Parts* p) { std::swap(p->batches[0], p->batches[1]); }},
      {"batch run past the current batch",
       [](Table::Parts* p) { p->current_batch = 1; }},
      {"batch runs cover too few rows",
       [](Table::Parts* p) { --p->batches.back().rows; }},
      {"batch runs exceed rows",
       [](Table::Parts* p) { ++p->batches.back().rows; }},
      {"row_base off a partition boundary",
       [](Table::Parts* p) {
         p->row_base = 127;
         p->access_counts.insert(p->access_counts.begin(), 0);
         p->active.insert(p->active.begin(), false);
       }},
      {"row_base past the sealed rows",
       [](Table::Parts* p) {
         for (PartitionMeta& m : p->partitions) m.dropped = true;
         p->row_base = 5 * 64;
       }},
      {"live partition below row_base",
       [](Table::Parts* p) {
         p->row_base = 192;
         p->access_counts.erase(p->access_counts.begin(),
                                p->access_counts.begin() + 64);
         p->active.erase(p->active.begin(), p->active.begin() + 64);
       }},
      {"metadata length mismatch",  // the access counts
       [](Table::Parts* p) { p->access_counts.push_back(0); }},
      {"metadata length mismatch",  // the active bits
       [](Table::Parts* p) { p->active.pop_back(); }},
      {"active row inside a dropped partition",
       [](Table::Parts* p) { p->active[3 * 64 - 128 + 5] = true; }},
      {"row_base on a vector table",
       [](Table::Parts* p) {
         *p = TwoRowParts();
         p->row_base = 1;
         p->access_counts = {0};
         p->active = {true};
       }},
      {"more rows than an image may restore",  // one huge dropped prefix
       [](Table::Parts* p) {
         const uint64_t huge = Table::kMaxImageRows * 2;
         p->storage.partition_rows = huge;
         p->partitions.resize(1);
         p->partitions[0].dropped = true;
         p->row_base = huge;
         p->columns[0].clear();
         p->access_counts.clear();
         p->active.clear();
         p->batches = {Table::BatchRun{0, huge}};
         p->next_tick = huge;
       }},
  };
  for (const Case& c : cases) {
    Table::Parts bad = parts;
    c.mutate(&bad);
    const Status status = Table::FromParts(std::move(bad)).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.message;
    EXPECT_NE(status.message().find(c.message), std::string::npos)
        << c.message << ": " << status.ToString();
  }

  // An image may carry a dropped row's access count (version 2 blobs
  // did); the restored table reads 0 there.
  Table::Parts stale = parts;
  stale.access_counts[3 * 64 - 128 + 7] = 9;
  const Table restored = Table::FromParts(stale).value();
  EXPECT_EQ(restored.access_count(3 * 64 + 7), 0u);
  EXPECT_EQ(restored.access_count(150), 1u);
  std::filesystem::remove_all(dir);
}

TEST(PartsTest, ADroppedRowNeitherRevivesNorCountsAccesses) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_parts_revive")
          .string();
  Table table = MakeDroppedPrefixTable(dir);
  EXPECT_EQ(table.Revive(5).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(table.Revive(3 * 64).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(table.IsActive(5));
  // A forgotten row of a live partition still revives.
  EXPECT_TRUE(table.Revive(140).ok());
  EXPECT_TRUE(table.IsActive(140));

  // A kAll scan returns dropped rows as the scrub value; counting them
  // would break the image's zero prefix, so their counts stay 0.
  const uint64_t epoch = table.access_epoch();
  table.BumpAccess(5);
  table.BumpAccess(3 * 64 + 1);
  EXPECT_EQ(table.access_count(5), 0u);
  EXPECT_EQ(table.access_count(3 * 64 + 1), 0u);
  EXPECT_EQ(table.access_epoch(), epoch);
  table.BumpAccess(150);
  EXPECT_EQ(table.access_count(150), 2u);
  EXPECT_EQ(CheckpointTable(Table::FromParts(table.ToParts()).value()),
            CheckpointTable(table));
  std::filesystem::remove_all(dir);
}

TEST(PartsTest, BatchRunsFollowEveryRunLength) {
  // ToParts finds each run's end by galloping from its start. Runs of one
  // row, of powers of two and one either side of them, a batch with no
  // rows and a long last run must each come back as exactly one run.
  Table t = Table::Make(Schema::SingleColumn("v", 0, 1000)).value();
  std::vector<Table::BatchRun> expect;
  for (const uint64_t rows :
       {3u, 1u, 2u, 0u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 64u, 65u, 1000u}) {
    if (rows > 0) {
      ASSERT_TRUE(t.AppendColumns({std::vector<Value>(rows, 7)}).ok());
      expect.push_back(Table::BatchRun{t.current_batch(), rows});
    }
    t.BeginBatch();
  }
  const Table::Parts parts = t.ToParts();
  ASSERT_EQ(parts.batches.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(parts.batches[i].batch, expect[i].batch) << "run " << i;
    EXPECT_EQ(parts.batches[i].rows, expect[i].rows) << "run " << i;
  }
}

TEST(PartsTest, CaptureCoversTheLivePartitionsNotTheHistory) {
  // FIFO drops keep two sealed partitions live. The image's per-row
  // arrays must cover those plus the tail, and its batch runs one per
  // batch, after N batches and after 4N alike.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_parts_capture")
          .string();
  std::filesystem::remove_all(dir);
  StorageOptions storage;
  storage.backend = StorageBackend::kMapped;
  storage.dir = dir;
  storage.partition_rows = 64;
  Table t = Table::Make(Schema::SingleColumn("v", 0, 1000), storage).value();
  constexpr uint64_t kLivePartitions = 2;
  size_t oldest = 0;
  Rng rng(5);
  for (const int batches : {25, 100}) {
    while (t.current_batch() < static_cast<BatchId>(batches)) {
      t.BeginBatch();
      std::vector<Value> rows(40);
      for (Value& v : rows) v = rng.UniformInt(0, 1000);
      ASSERT_TRUE(t.AppendColumns({rows}).ok());
      t.BumpAccess(t.num_rows() - 1);
      while (t.partitions().size() - oldest > kLivePartitions) {
        ASSERT_TRUE(t.DropPartition(oldest++).ok());
      }
    }
    SCOPED_TRACE(batches);
    const Table::Parts parts = t.ToParts();
    const uint64_t tail = t.num_rows() - t.sealed_rows();
    EXPECT_EQ(parts.row_base, oldest * 64);
    EXPECT_EQ(parts.active.size(), kLivePartitions * 64 + tail);
    EXPECT_EQ(parts.access_counts.size(), parts.active.size());
    EXPECT_LE(parts.batches.size(), static_cast<size_t>(batches) + 1);
    EXPECT_EQ(CheckpointTable(RestoreTable(EncodeTableParts(parts), dir)
                                  .value()),
              CheckpointTable(t));
  }
  std::filesystem::remove_all(dir);
}

TEST(PartsTest, ToPartsRoundTripsVectorAndMappedTables) {
  // Each table went through appends across batches, forgets, access bumps
  // and scrubs. Its image must rebuild the same table, directly and
  // through the encoded blob.
  Table vec = MakeRichTable();  // rows r % 3 == 0 are forgotten
  ASSERT_TRUE(vec.ScrubRow(0).ok());
  ASSERT_TRUE(vec.ScrubRow(42).ok());
  vec.CompactForgotten();  // ticks become non-dense
  vec.BeginBatch();
  ASSERT_TRUE(vec.AppendRow({5, 5}).ok());
  ASSERT_TRUE(vec.Forget(0).ok());
  vec.BumpAccess(1);

  // 64-row partitions: rows 0-255 sealed (partition 1 dropped), rows
  // 256-299 the unsealed tail.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_to_parts_test")
          .string();
  std::filesystem::remove_all(dir);
  StorageOptions storage;
  storage.backend = StorageBackend::kMapped;
  storage.dir = dir;
  storage.partition_rows = 64;
  Table mapped =
      Table::Make(Schema::SingleColumn("v", 0, 1000), storage).value();
  for (Value v = 0; v < 300; ++v) {
    if (v % 70 == 69) mapped.BeginBatch();
    ASSERT_TRUE(mapped.AppendRow({v}).ok());
  }
  ASSERT_EQ(mapped.DropPartition(1).value(), 64u);
  for (RowId r : {RowId{3}, RowId{150}, RowId{290}}) {
    ASSERT_TRUE(mapped.Forget(r).ok());
    ASSERT_TRUE(mapped.ScrubRow(r, 7).ok());
  }
  mapped.BumpAccess(4);
  mapped.BumpAccess(280);
  EXPECT_TRUE(mapped.ToParts().insert_ticks.empty());

  for (const Table* table : std::vector<const Table*>{&vec, &mapped}) {
    SCOPED_TRACE(table->mapped() ? "mapped" : "vector");
    const std::vector<uint8_t> expected = CheckpointTable(*table);
    EXPECT_EQ(CheckpointTable(Table::FromParts(table->ToParts()).value()),
              expected);
    EXPECT_EQ(CheckpointTable(
                  RestoreTable(EncodeTableParts(table->ToParts()), dir)
                      .value()),
              expected);
  }
  std::filesystem::remove_all(dir);
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
