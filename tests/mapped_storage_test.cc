// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the mmap-backed, time-partitioned storage backend: partition
// file format (header, checksum, torn-file rejection), table sealing and
// the O(1) partition drop, checkpoint/recovery over manifest v3 + the v3
// mapped blob, crash points around the drop's rename-then-unlink
// protocol, and bit-identity of the kMapped backend against the kVector
// oracle across every amnesia policy, backends, and sharded tables,
// whose parallel scan plan keeps every morsel inside one partition.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "amnesia/audit_ledger.h"
#include "amnesia/controller.h"
#include "amnesia/registry.h"
#include "amnesia/sharded_controller.h"
#include "common/fs.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "durability/checkpointer.h"
#include "durability/event_log.h"
#include "query/scan.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"
#include "storage/checkpoint_io.h"
#include "storage/mapped_file.h"
#include "storage/sharded_table.h"
#include "storage/table.h"

namespace amnesia {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

StorageOptions Mapped(const std::string& dir, uint64_t partition_rows = 64) {
  StorageOptions storage;
  storage.backend = StorageBackend::kMapped;
  storage.dir = dir;
  storage.partition_rows = partition_rows;
  return storage;
}

/// Appends `rows` seeded rows to both tables (same values, same batches:
/// a new batch every `batch_every` rows).
void FillTwins(Table* a, Table* b, uint64_t rows, uint64_t seed,
               uint64_t batch_every = 0) {
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    if (batch_every > 0 && i % batch_every == 0) {
      a->BeginBatch();
      b->BeginBatch();
    }
    const Value v = rng.UniformInt(0, 999'999);
    ASSERT_TRUE(a->AppendRow({v}).ok());
    ASSERT_TRUE(b->AppendRow({v}).ok());
  }
}

// ------------------------------------------------- partition file format

TEST(PartitionFileTest, DirNameRoundtrip) {
  EXPECT_EQ(PartitionDirName(0, 63), "part-0-63");
  EXPECT_EQ(DroppedPartitionDirName(64, 127), "part-64-127.dropped");
  Tick lo = 0, hi = 0;
  bool dropped = false;
  ASSERT_TRUE(ParsePartitionDirName("part-128-191", &lo, &hi, &dropped));
  EXPECT_EQ(lo, 128u);
  EXPECT_EQ(hi, 191u);
  EXPECT_FALSE(dropped);
  ASSERT_TRUE(
      ParsePartitionDirName("part-128-191.dropped", &lo, &hi, &dropped));
  EXPECT_TRUE(dropped);
  EXPECT_FALSE(ParsePartitionDirName("ckpt-1.blob", &lo, &hi, &dropped));
  EXPECT_FALSE(ParsePartitionDirName("part-x-y", &lo, &hi, &dropped));
}

TEST(PartitionFileTest, WriteSealedThenMapRoundtrips) {
  ScratchDir dir("amnesia_partition_roundtrip_test");
  std::vector<Value> values(100);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<Value>(i * 7 - 50);
  }
  const std::string path = dir.file("col-a.dat");
  ASSERT_TRUE(MappedColumnFile::WriteSealed(path, values.data(),
                                            values.size(), 10, 109)
                  .ok());
  MappedColumnFile mapped =
      MappedColumnFile::Map(path, values.size()).value();
  ASSERT_TRUE(mapped.valid());
  EXPECT_EQ(mapped.rows(), 100u);
  EXPECT_EQ(mapped.epoch_lo(), 10u);
  EXPECT_EQ(mapped.epoch_hi(), 109u);
  EXPECT_EQ(mapped.mapped_bytes(),
            kPartitionHeaderBytes + 100 * sizeof(Value));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(mapped.data()[i], values[i]);
  }
}

/// Overwrites the byte at `pos` of the file at `path`.
void PokeByte(const std::string& path, size_t pos, uint8_t byte) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(pos));
  f.put(static_cast<char>(byte));
}

TEST(PartitionFileTest, TornHeaderIsRejected) {
  ScratchDir dir("amnesia_partition_torn_test");
  std::vector<Value> values = {1, 2, 3, 4};
  const std::string path = dir.file("col-a.dat");
  ASSERT_TRUE(
      MappedColumnFile::WriteSealed(path, values.data(), 4, 0, 3).ok());
  std::vector<uint8_t> header(kPartitionHeaderBytes);
  {
    std::ifstream in(path, std::ios::binary);
    in.read(reinterpret_cast<char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  }

  // Every single-byte flip of the CRC-covered header [0, 40) and of the
  // CRC itself [40, 44).
  for (size_t pos = 0; pos < 44; ++pos) {
    for (int mask = 1; mask < 256; ++mask) {
      PokeByte(path, pos, static_cast<uint8_t>(header[pos] ^ mask));
      ASSERT_FALSE(MappedColumnFile::Map(path, 4).ok())
          << "byte " << pos << " ^ " << mask;
    }
    PokeByte(path, pos, header[pos]);
  }
  EXPECT_TRUE(MappedColumnFile::Map(path, 4).ok());
}

TEST(PartitionFileTest, TruncatedFileIsRejected) {
  ScratchDir dir("amnesia_partition_truncated_test");
  std::vector<Value> values = {1, 2, 3, 4};
  const std::string path = dir.file("col-a.dat");
  ASSERT_TRUE(
      MappedColumnFile::WriteSealed(path, values.data(), 4, 0, 3).ok());
  // Row-count mismatch against the caller's expectation fails.
  EXPECT_FALSE(MappedColumnFile::Map(path, 99).ok());
  // So does every truncated length, inside the header and past it.
  for (uintmax_t len = fs::file_size(path); len-- > 0;) {
    fs::resize_file(path, len);
    ASSERT_FALSE(MappedColumnFile::Map(path, 4).ok()) << "length " << len;
  }
}

// ----------------------------------------------------- sealing lifecycle

TEST(MappedTableTest, SealsFullPartitionsAndReadsBack) {
  ScratchDir dir("amnesia_mapped_seal_test");
  Schema schema = Schema::SingleColumn("a", 0, 1'000'000);
  Table mapped = Table::Make(schema, Mapped(dir.path(), 64)).value();
  Table vec = Table::Make(schema).value();
  ASSERT_TRUE(mapped.mapped());
  EXPECT_EQ(mapped.partition_rows(), 64u);

  FillTwins(&mapped, &vec, 200, 17);
  EXPECT_EQ(mapped.partitions().size(), 3u);  // 192 sealed + 8 tail rows
  EXPECT_EQ(mapped.sealed_rows(), 192u);
  EXPECT_GT(mapped.MappedBytes(), 0u);
  ASSERT_TRUE(fs::exists(dir.file("part-0-63/col-a.dat")));
  ASSERT_TRUE(fs::exists(dir.file("part-128-191/col-a.dat")));

  for (RowId r = 0; r < 200; ++r) {
    EXPECT_EQ(mapped.value(0, r), vec.value(0, r)) << r;
  }
  EXPECT_EQ(mapped.min_seen(0), vec.min_seen(0));
  EXPECT_EQ(mapped.max_seen(0), vec.max_seen(0));
  // The v1 checkpoint blob splices mapped segments back into one payload:
  // byte equality against the vector twin is the bit-identity statement.
  EXPECT_EQ(CheckpointTable(mapped), CheckpointTable(vec));
}

TEST(MappedTableTest, RegularFileAsStorageDirFailsAtMake) {
  // A storage directory that names a regular file is refused up front,
  // not by the first seal in the middle of an ingest.
  ScratchDir dir("amnesia_mapped_file_as_dir_test");
  const std::string file = dir.file("not-a-dir");
  std::ofstream(file) << "x";
  const Schema schema = Schema::SingleColumn("a", 0, 1000);
  EXPECT_EQ(Table::Make(schema, Mapped(file)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedTable::Make(schema, 2, Mapped(file)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MappedTableTest, PartitionRowsRoundUpToPowerOfTwo) {
  ScratchDir dir("amnesia_mapped_rounding_test");
  Table t = Table::Make(Schema::SingleColumn("a", 0, 10),
                        Mapped(dir.path(), 100))
                .value();
  EXPECT_EQ(t.partition_rows(), 128u);
  Table tiny =
      Table::Make(Schema::SingleColumn("a", 0, 10), Mapped(dir.path(), 1))
          .value();
  EXPECT_EQ(tiny.partition_rows(), 64u);
}

TEST(MappedTableTest, ScrubWritesThroughToTheFile) {
  ScratchDir dir("amnesia_mapped_scrub_test");
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1'000'000),
                        Mapped(dir.path(), 64))
                .value();
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<Value>(i + 1)}).ok());
  }
  ASSERT_EQ(t.sealed_rows(), 64u);
  ASSERT_TRUE(t.Forget(3).ok());
  ASSERT_TRUE(t.ScrubRow(3).ok());
  EXPECT_EQ(t.value(0, 3), 0);

  // The scrub must be visible in the file itself (MAP_SHARED).
  std::ifstream f(dir.file("part-0-63/col-a.dat"), std::ios::binary);
  f.seekg(static_cast<std::streamoff>(kPartitionHeaderBytes +
                                      3 * sizeof(Value)));
  Value on_disk = -1;
  f.read(reinterpret_cast<char*>(&on_disk), sizeof(on_disk));
  EXPECT_EQ(on_disk, 0);
}

// --------------------------------------------------- O(1) partition drop

TEST(MappedTableTest, DropPartitionForgetsAllRowsAndUnlinks) {
  ScratchDir dir("amnesia_mapped_drop_test");
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1'000'000),
                        Mapped(dir.path(), 64))
                .value();
  Rng rng(5);
  for (uint64_t i = 0; i < 160; ++i) {
    ASSERT_TRUE(t.AppendRow({rng.UniformInt(1, 999)}).ok());
  }
  ASSERT_EQ(t.partitions().size(), 2u);
  const uint64_t active_before = t.num_active();

  EXPECT_EQ(t.DropPartition(0).value(), 64u);
  EXPECT_TRUE(t.partitions()[0].dropped);
  EXPECT_EQ(t.num_active(), active_before - 64);
  EXPECT_EQ(t.lifetime_forgotten(), 64u);
  // RowIds stay stable; dropped rows read the scrub value.
  for (RowId r = 0; r < 64; ++r) {
    EXPECT_FALSE(t.IsActive(r));
    EXPECT_EQ(t.value(0, r), 0);
  }
  for (RowId r = 64; r < 160; ++r) EXPECT_TRUE(t.IsActive(r));
  // Immediate unlink: neither the live nor the .dropped name remains.
  EXPECT_FALSE(fs::exists(dir.file("part-0-63")));
  EXPECT_FALSE(fs::exists(dir.file("part-0-63.dropped")));
  // Idempotent: a second drop forgets nothing new.
  EXPECT_EQ(t.DropPartition(0).value(), 0u);
}

TEST(MappedTableTest, DeferredDropLeavesRenamedDirForGc) {
  ScratchDir dir("amnesia_mapped_defer_test");
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1'000'000),
                        Mapped(dir.path(), 64))
                .value();
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<Value>(i)}).ok());
  }
  EXPECT_EQ(t.DropPartition(0, /*defer_unlink=*/true).value(), 64u);
  EXPECT_FALSE(fs::exists(dir.file("part-0-63")));
  EXPECT_TRUE(fs::exists(dir.file("part-0-63.dropped")));
}

// ---------------------------------------------- checkpoint/recovery (v3)

Table MakeLoadedMappedTable(const std::string& dir, uint64_t rows,
                            uint64_t seed) {
  Table t = Table::Make(Schema::SingleColumn("v", 0, 1'000'000),
                        Mapped(dir, 64))
                .value();
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({rng.UniformInt(0, 999'999)}).ok());
  }
  return t;
}

TEST(MappedRecoveryTest, RecoveryRemapsPartitionsBitIdentically) {
  ScratchDir dir("amnesia_mapped_recover_test");
  Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 41);
  for (RowId r = 0; r < 20; ++r) {
    ASSERT_TRUE(table.Forget(r).ok());
    ASSERT_TRUE(table.ScrubRow(r).ok());
  }

  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, /*covered_lsn=*/0).ok());

  RecoveredState state = Recover(dir.file("ckpt"), "").value();
  ASSERT_EQ(state.shards.size(), 1u);
  EXPECT_TRUE(state.shards[0].mapped());
  EXPECT_EQ(state.shards[0].partitions().size(), 3u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
}

TEST(MappedRecoveryTest, MappedBlobWithoutStorageDirFailsClosed) {
  ScratchDir dir("amnesia_mapped_nodir_test");
  Table table = MakeLoadedMappedTable(dir.file("storage"), 100, 43);
  // The checkpointer writes a mapped image in the v3 layout; restoring it
  // without a storage_dir cannot map anything and must not half-restore.
  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());
  // Find the shard blob and restore it directly with no directory.
  for (const auto& entry : fs::directory_iterator(dir.file("ckpt"))) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 &&
        name.rfind(".blob") == name.size() - 5) {
      auto bytes = ReadBytesFile(entry.path().string()).value();
      EXPECT_FALSE(RestoreTable(bytes).ok());
      return;
    }
  }
  FAIL() << "no shard blob written";
}

TEST(MappedRecoveryTest, CrashAfterRenameBeforeJournalRestoresIntact) {
  // The drop protocol renames the partition directory first and journals
  // the drop second. A crash in between loses the event: the manifest
  // still lists the partition as live, but only the `.dropped` name is on
  // disk. Recovery must map the renamed directory and restore the
  // partition's rows intact.
  ScratchDir dir("amnesia_mapped_lostevent_test");
  Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 47);
  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());
  const std::vector<uint8_t> before = CheckpointTable(table);

  // Crash reproduction: the rename reached disk, the journal append did
  // not. (DropPartition with defer_unlink is exactly the rename step.)
  ASSERT_TRUE(table.DropPartition(1, /*defer_unlink=*/true).ok());
  ASSERT_TRUE(fs::exists(dir.file("storage/part-64-127.dropped")));

  RecoveredState state = Recover(dir.file("ckpt"), "").value();
  ASSERT_EQ(state.shards.size(), 1u);
  // The recovered table equals the pre-drop table: nothing forgotten.
  EXPECT_EQ(state.shards[0].num_forgotten(), 0u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), before);
}

TEST(MappedRecoveryTest, JournaledDropReplaysOnRecovery) {
  ScratchDir dir("amnesia_mapped_dropreplay_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 53);
  for (uint64_t b = 0; b < 6; ++b) table.BeginBatch();

  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

  // Vacuum through a controller wired to the journal: every sealed
  // partition is older than the cutoff and drops whole.
  PolicyOptions popts;
  popts.kind = PolicyKind::kFifo;
  auto policy = CreatePolicy(popts, nullptr).value();
  ControllerOptions copts;
  copts.backend = BackendKind::kDelete;
  copts.dbsize_budget = 1'000'000;
  AmnesiaController ctrl =
      AmnesiaController::Make(copts, policy.get(), &table).value();
  ctrl.set_event_sink(&log);
  const uint64_t vacuumed = ctrl.VacuumExpired(1).value();
  EXPECT_EQ(vacuumed, 200u);  // 192 partition rows + 8 tail rows
  EXPECT_EQ(ctrl.stats().partitions_dropped, 3u);
  ASSERT_TRUE(log.Flush().ok());
  // Deferred unlink: the renamed dirs are still there for fallback.
  EXPECT_TRUE(fs::exists(dir.file("storage/part-0-63.dropped")));

  RecoveredState state =
      Recover(dir.file("ckpt"), dir.file("events.log")).value();
  ASSERT_EQ(state.shards.size(), 1u);
  EXPECT_GT(state.events_replayed, 0u);
  EXPECT_EQ(state.shards[0].num_active(), 0u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
}

/// Mapped table of `rows` rows in 64-row partitions, row r holding the
/// nonzero value 1000 + r, so a scrubbed row always reads differently.
Table MakeCountingMappedTable(const std::string& dir, uint64_t rows) {
  Table t = Table::Make(Schema::SingleColumn("v", 0, 1'000'000),
                        Mapped(dir, 64))
                .value();
  for (uint64_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(t.AppendRow({static_cast<Value>(1000 + r)}).ok());
  }
  return t;
}

/// Reads row `row` of a MakeCountingMappedTable straight from its sealed
/// partition file (ticks equal RowIds, so partition p spans ticks
/// [64p, 64p + 63]).
Value OnDiskValue(const std::string& dir, RowId row) {
  const Tick lo = row / 64 * 64;
  std::ifstream f(dir + "/" + PartitionDirName(lo, lo + 63) + "/" +
                      PartitionColumnFileName("v"),
                  std::ios::binary);
  f.seekg(static_cast<std::streamoff>(kPartitionHeaderBytes +
                                      (row - lo) * sizeof(Value)));
  Value v = -1;
  f.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

/// Forwards to a real sink and records every call with the number of
/// sealed rows whose bytes in the partition files were already scrubbed
/// at that moment (read at the append, before it is forwarded, and right
/// after the flush returns). Optional hooks run at the same moments.
class WatchingSink final : public EventSink {
 public:
  struct Call {
    bool flush = false;
    EventKind kind = EventKind::kBeginBatch;
    uint64_t scrubbed = 0;
  };

  WatchingSink(EventSink* inner, std::string storage_dir, uint64_t sealed)
      : inner_(inner), storage_dir_(std::move(storage_dir)), sealed_(sealed) {}

  Status Append(const Event& event) override {
    calls.push_back(Call{false, event.kind, ScrubbedOnDisk()});
    if (on_append) on_append();
    return inner_->Append(event);
  }
  Status Flush() override {
    Status st = inner_->Flush();
    calls.push_back(Call{true, EventKind::kBeginBatch, ScrubbedOnDisk()});
    if (on_flush) on_flush();
    return st;
  }

  uint64_t ScrubbedOnDisk() const {
    uint64_t n = 0;
    for (RowId r = 0; r < sealed_; ++r) {
      if (OnDiskValue(storage_dir_, r) == 0) ++n;
    }
    return n;
  }

  std::vector<Call> calls;
  std::function<void()> on_append;
  std::function<void()> on_flush;

 private:
  EventSink* inner_;
  std::string storage_dir_;
  uint64_t sealed_;
};

TEST(MappedRecoveryTest, SweepFlushesOnceBetweenItsRecordAndTheScrub) {
  // A FIFO sweep (one run) and a uniform sweep (many runs, sealed and
  // tail rows) on a mapped kDelete table with a ledger: each journals one
  // kForgetRows record, flushes after it and before any partition byte is
  // zeroed, and flushes at most once more, before its audit record.
  ScratchDir dir("amnesia_mapped_sweep_order_test");
  const std::string storage = dir.file("storage");
  Table table = MakeCountingMappedTable(storage, 300);
  ASSERT_EQ(table.sealed_rows(), 256u);
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  log.set_sync_policy(SyncPolicy::GroupCommit(1u << 20, 0.0));
  AuditLedger ledger = AuditLedger::Open(dir.file("ledger")).value();
  WatchingSink sink(&log, storage, table.sealed_rows());

  uint64_t scrubbed_before = 0;
  for (const PolicyKind kind : {PolicyKind::kFifo, PolicyKind::kUniform}) {
    SCOPED_TRACE(std::string(PolicyKindToString(kind)));
    PolicyOptions popts;
    popts.kind = kind;
    auto policy = CreatePolicy(popts, nullptr).value();
    ControllerOptions copts;
    copts.backend = BackendKind::kDelete;
    copts.dbsize_budget = table.num_active() - 100;
    AmnesiaController ctrl =
        AmnesiaController::Make(copts, policy.get(), &table).value();
    ctrl.set_event_sink(&sink);
    ctrl.set_audit_ledger(&ledger, &log);
    sink.calls.clear();
    Rng rng(19);
    ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());

    ASSERT_GE(sink.calls.size(), 2u);
    ASSERT_LE(sink.calls.size(), 3u);  // one append, at most two flushes
    EXPECT_FALSE(sink.calls[0].flush);
    EXPECT_EQ(sink.calls[0].kind, EventKind::kForgetRows);
    EXPECT_EQ(sink.calls[0].scrubbed, scrubbed_before);
    EXPECT_TRUE(sink.calls[1].flush);  // the write-ahead barrier
    EXPECT_EQ(sink.calls[1].scrubbed, scrubbed_before);
    for (size_t i = 1; i < sink.calls.size(); ++i) {
      EXPECT_TRUE(sink.calls[i].flush) << "call " << i;
    }
    // The sweep did scrub sealed bytes, all after the barrier.
    const uint64_t scrubbed_after = sink.ScrubbedOnDisk();
    EXPECT_GT(scrubbed_after, scrubbed_before);
    scrubbed_before = scrubbed_after;
  }
  EXPECT_EQ(ledger.next_seq(), 2u);
}

TEST(MappedRecoveryTest, CrashAtTheSweepBarrierRecoversTheSweptTable) {
  // Copy the whole directory while the sweep's record is being appended,
  // and again right after the write-ahead flush returns, then recover
  // each copy in place. The first is a crash before the record reached
  // the log: the pre-sweep table, partition bytes unscrubbed. The second
  // is a crash before any scrub: replay redoes the whole sweep.
  ScratchDir dir("amnesia_mapped_sweep_barrier_test");
  ScratchDir copies("amnesia_mapped_sweep_barrier_copies");
  const std::string storage = dir.file("storage");
  const std::string at_append = copies.file("at_append");
  const std::string at_barrier = copies.file("at_barrier");
  std::vector<uint8_t> before;
  std::vector<uint8_t> after;
  {
    Table table = MakeCountingMappedTable(storage, 300);
    EventLog log = EventLog::Open(dir.file("events.log")).value();
    log.set_sync_policy(SyncPolicy::GroupCommit(1u << 20, 0.0));
    CheckpointerOptions opts;
    opts.dir = dir.file("ckpt");
    opts.async = false;
    opts.log = &log;
    BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
    ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());
    before = CheckpointTable(table);

    WatchingSink sink(&log, storage, table.sealed_rows());
    sink.on_append = [&] {
      if (!fs::exists(at_append)) {
        fs::copy(dir.path(), at_append, fs::copy_options::recursive);
      }
    };
    sink.on_flush = [&] {
      if (!fs::exists(at_barrier)) {
        fs::copy(dir.path(), at_barrier, fs::copy_options::recursive);
      }
    };
    PolicyOptions popts;
    popts.kind = PolicyKind::kFifo;
    auto policy = CreatePolicy(popts, nullptr).value();
    ControllerOptions copts;
    copts.backend = BackendKind::kDelete;
    copts.dbsize_budget = 200;
    AmnesiaController ctrl =
        AmnesiaController::Make(copts, policy.get(), &table).value();
    ctrl.set_event_sink(&sink);
    Rng rng(3);
    ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
    ASSERT_EQ(sink.ScrubbedOnDisk(), 100u);
    after = CheckpointTable(table);
  }
  ASSERT_TRUE(fs::exists(at_append));
  ASSERT_TRUE(fs::exists(at_barrier));

  auto recover_copy = [&](const std::string& copy) {
    fs::remove_all(dir.path());
    fs::copy(copy, dir.path(), fs::copy_options::recursive);
    return Recover(dir.file("ckpt"), dir.file("events.log"));
  };
  {
    StatusOr<RecoveredState> state = recover_copy(at_barrier);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(state->events_replayed, 1u);
    EXPECT_EQ(CheckpointTable(state->shards[0]), after);
    for (RowId r = 0; r < 100; ++r) ASSERT_EQ(OnDiskValue(storage, r), 0);
  }
  {
    StatusOr<RecoveredState> state = recover_copy(at_append);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(state->events_replayed, 0u);
    EXPECT_EQ(CheckpointTable(state->shards[0]), before);
    for (RowId r = 0; r < 256; ++r) {
      ASSERT_EQ(OnDiskValue(storage, r), static_cast<Value>(1000 + r));
    }
  }
}

TEST(MappedRecoveryTest, TornPartitionFileFailsRecovery) {
  ScratchDir dir("amnesia_mapped_tornpart_test");
  Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 59);
  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());

  // Corrupt one partition file's header: its CRC no longer matches, so
  // the only manifest cannot restore and recovery reports the failure
  // instead of returning a half-mapped table.
  {
    std::fstream f(dir.file("storage/part-64-127/col-v.dat"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    char byte = 0x7F;
    f.write(&byte, 1);
  }
  EXPECT_FALSE(Recover(dir.file("ckpt"), "").ok());
}

TEST(MappedRecoveryTest, TornPartitionNoManifestNamesReSealsOnRecovery) {
  // A partition sealed after the last checkpoint is named by no manifest:
  // its seal is not fsynced, so a power cut may leave its column file
  // empty, half written or missing. Recovery must not care: replaying the
  // journaled rows re-seals the partition through tmp + rename over
  // whatever is left.
  enum class Damage { kEmpty, kHalf, kDeleted };
  for (const Damage damage :
       {Damage::kEmpty, Damage::kHalf, Damage::kDeleted}) {
    SCOPED_TRACE(static_cast<int>(damage));
    ScratchDir dir("amnesia_mapped_unlisted_torn_test");
    EventLog log = EventLog::Open(dir.file("events.log")).value();
    Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 83);
    CheckpointerOptions opts;
    opts.dir = dir.file("ckpt");
    opts.async = false;
    opts.log = &log;
    BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
    ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

    // 8 tail rows + 64 journaled rows seal partition [192, 255].
    Event append;
    append.kind = EventKind::kAppendRows;
    append.columns.resize(1);
    Rng rng(89);
    for (int i = 0; i < 64; ++i) {
      append.columns[0].push_back(rng.UniformInt(0, 999'999));
    }
    ASSERT_TRUE(log.Append(append).ok());
    ASSERT_TRUE(table.AppendColumns(append.columns).ok());
    ASSERT_TRUE(log.Flush().ok());
    ASSERT_EQ(table.partitions().size(), 4u);
    // Taken before the damage: the live table maps the file it tears.
    const std::vector<uint8_t> expected = CheckpointTable(table);

    const std::string file = dir.file("storage/part-192-255/col-v.dat");
    const auto size = fs::file_size(file);
    if (damage == Damage::kDeleted) {
      ASSERT_TRUE(fs::remove(file));
    } else {
      fs::resize_file(file, damage == Damage::kEmpty ? 0 : size / 2);
    }

    auto state = Recover(dir.file("ckpt"), dir.file("events.log"));
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ASSERT_EQ(state->shards.size(), 1u);
    EXPECT_EQ(state->events_replayed, 1u);
    EXPECT_EQ(CheckpointTable(state->shards[0]), expected);
    EXPECT_EQ(fs::file_size(file), size);
  }
}

/// privacy_vacuum's shape, small: FIFO kDelete on 256-row mapped
/// partitions, every partition dropped one batch after its newest row.
SimulationConfig ReDropConfig(const std::string& dir, uint32_t cadence) {
  SimulationConfig config;
  config.seed = 23;
  config.dbsize = 2000;
  config.upd_perc = 0.3;
  config.policy.kind = PolicyKind::kFifo;
  config.backend = BackendKind::kDelete;
  config.storage_backend = StorageBackend::kMapped;
  config.storage_dir = dir + "/storage";
  config.partition_rows = 256;
  config.vacuum_max_age_batches = 1;
  config.log_format = LogFormat::kSegmented;
  config.checkpoint_dir = dir + "/ckpt";
  config.checkpoint_every_n_batches = cadence;
  config.queries_per_batch = 5;
  config.record_access = false;  // access counts are not journaled
  return config;
}

TEST(MappedRecoveryTest, ReplayReSealsAndReDropsBesideTheDroppedCopy) {
  // The tail past the newest manifest seals a partition and drops it. The
  // drop's `.dropped` copy waits for retention GC, so replay re-seals the
  // partition under its live name beside that copy and must still be able
  // to drop it again: a cleanly shut down database has to open.
  for (const auto& [cadence, batches] :
       std::vector<std::pair<uint32_t, uint32_t>>{{5, 9}, {10, 9}, {10, 20}}) {
    SCOPED_TRACE("cadence " + std::to_string(cadence) + ", " +
                 std::to_string(batches) + " batches");
    ScratchDir dir("amnesia_mapped_redrop_test");
    auto sim = Simulator::Make(ReDropConfig(dir.path(), cadence)).value();
    ASSERT_TRUE(sim->Initialize().ok());
    for (uint32_t b = 0; b < batches; ++b) ASSERT_TRUE(sim->StepBatch().ok());
    ASSERT_TRUE(sim->FlushCheckpoints().ok());
    ASSERT_GT(sim->controller().stats().partitions_dropped, 0u);

    auto state = Recover(dir.file("ckpt"), sim->event_log_path());
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ASSERT_EQ(state->shards.size(), 1u);
    EXPECT_EQ(CheckpointTable(state->shards[0]),
              CheckpointTable(sim->table()));
  }
}

TEST(MappedRecoveryTest, RetentionGcUnlinksDroppedPartitions) {
  // Once no retained manifest lists a partition as live, the retention GC
  // removes its `.dropped` directory — the deferred half of the drop.
  ScratchDir dir("amnesia_mapped_gc_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 61);
  for (uint64_t b = 0; b < 6; ++b) table.BeginBatch();

  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  opts.retain = 1;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

  ASSERT_TRUE(table.DropPartition(0, /*defer_unlink=*/true).ok());
  Event event;
  event.kind = EventKind::kDropPartition;
  event.row = 0;
  event.value = 64;
  ASSERT_TRUE(log.Append(event).ok());
  ASSERT_TRUE(log.Flush().ok());
  ASSERT_TRUE(fs::exists(dir.file("storage/part-0-63.dropped")));

  // The next commit's manifest no longer lists part-0-63; with retain=1
  // it becomes the only retained manifest and the GC unlinks the dir.
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());
  ASSERT_TRUE(ckpt.WaitIdle().ok());
  EXPECT_FALSE(fs::exists(dir.file("storage/part-0-63.dropped")));
  EXPECT_GT(ckpt.stats().partition_dirs_gced, 0u);
  // The recovered state still matches the live table.
  RecoveredState state =
      Recover(dir.file("ckpt"), dir.file("events.log")).value();
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
}

// ------------------------------------------------ vacuum fast-path twin

TEST(MappedVacuumTest, PartitionDropMatchesRowWiseVacuum) {
  ScratchDir dir("amnesia_mapped_vacuum_twin_test");
  Schema schema = Schema::SingleColumn("a", 0, 1'000'000);
  Table mapped = Table::Make(schema, Mapped(dir.path(), 64)).value();
  Table vec = Table::Make(schema).value();
  FillTwins(&mapped, &vec, 320, 67, /*batch_every=*/40);  // batches 1..8

  PolicyOptions popts;
  popts.kind = PolicyKind::kFifo;
  auto policy_m = CreatePolicy(popts, nullptr).value();
  auto policy_v = CreatePolicy(popts, nullptr).value();
  ControllerOptions copts;
  copts.backend = BackendKind::kDelete;
  copts.dbsize_budget = 1'000'000;
  copts.compact_every_n_rounds = 0;  // scrub-only keeps RowIds aligned
  AmnesiaController ctrl_m =
      AmnesiaController::Make(copts, policy_m.get(), &mapped).value();
  AmnesiaController ctrl_v =
      AmnesiaController::Make(copts, policy_v.get(), &vec).value();

  const uint64_t vac_m = ctrl_m.VacuumExpired(3).value();
  const uint64_t vac_v = ctrl_v.VacuumExpired(3).value();
  EXPECT_EQ(vac_m, vac_v);
  EXPECT_GT(ctrl_m.stats().partitions_dropped, 0u);
  EXPECT_EQ(ctrl_v.stats().partitions_dropped, 0u);
  EXPECT_EQ(mapped.num_active(), vec.num_active());
  // kDelete scrubs row-wise and zero-reads dropped partitions: the
  // logical contents agree cell for cell.
  for (RowId r = 0; r < 320; ++r) {
    EXPECT_EQ(mapped.IsActive(r), vec.IsActive(r)) << r;
    EXPECT_EQ(mapped.value(0, r), vec.value(0, r)) << r;
  }
}

// ---------------------------------------- policy equivalence (simulator)

SimulationConfig EquivalenceConfig(PolicyKind kind, BackendKind backend,
                                   StorageBackend storage,
                                   const std::string& dir) {
  SimulationConfig config;
  config.seed = 9177;
  config.dbsize = 200;
  config.upd_perc = 0.4;
  config.num_batches = 5;
  config.queries_per_batch = 10;
  config.policy.kind = kind;
  config.backend = backend;
  // Scrub-only delete: physical layouts stay comparable byte for byte
  // (mapped tables never compact; the vector twin must not either).
  config.compact_every_n_rounds = 0;
  config.storage_backend = storage;
  if (storage == StorageBackend::kMapped) {
    config.storage_dir = dir;
    config.partition_rows = 64;
  }
  return config;
}

TEST(MappedEquivalenceTest, AllPoliciesMatchTheVectorOracle) {
  // The acceptance matrix: every policy × {mark-only, delete}, one run
  // per storage backend with the same seed. Query metrics and the final
  // table bytes must be identical — the mapped backend changes where the
  // payload lives, never what a query sees.
  for (const PolicyKind kind :
       {PolicyKind::kFifo, PolicyKind::kUniform, PolicyKind::kAnterograde,
        PolicyKind::kRot, PolicyKind::kInverseRot, PolicyKind::kArea,
        PolicyKind::kPairPreserving, PolicyKind::kDistributionAligned}) {
    for (const BackendKind backend :
         {BackendKind::kMarkOnly, BackendKind::kDelete}) {
      SCOPED_TRACE(std::string(PolicyKindToString(kind)) + "/" +
                   std::string(BackendKindToString(backend)));
      ScratchDir dir("amnesia_mapped_equivalence_test");
      auto vec_sim = Simulator::Make(EquivalenceConfig(
                                         kind, backend,
                                         StorageBackend::kVector, ""))
                         .value();
      auto map_sim = Simulator::Make(EquivalenceConfig(
                                         kind, backend,
                                         StorageBackend::kMapped,
                                         dir.file("storage")))
                         .value();
      ASSERT_TRUE(vec_sim->Initialize().ok());
      ASSERT_TRUE(map_sim->Initialize().ok());
      for (uint32_t b = 0; b < 5; ++b) {
        BatchMetrics mv = vec_sim->StepBatch().value();
        BatchMetrics mm = map_sim->StepBatch().value();
        EXPECT_EQ(mm.inserted, mv.inserted);
        EXPECT_EQ(mm.active, mv.active);
        EXPECT_EQ(mm.forgotten_total, mv.forgotten_total);
        EXPECT_EQ(mm.avg_rf, mv.avg_rf);
        EXPECT_EQ(mm.avg_mf, mv.avg_mf);
        EXPECT_EQ(mm.mean_pf, mv.mean_pf);
        EXPECT_EQ(mm.error_margin, mv.error_margin);
      }
      EXPECT_EQ(CheckpointTable(map_sim->table()),
                CheckpointTable(vec_sim->table()));
    }
  }
}

// ------------------------------------------------------- sharded tables

TEST(MappedShardedTest, ShardedForgetPassesMatchTheVectorOracle) {
  ScratchDir dir("amnesia_mapped_sharded_test");
  Schema schema = Schema::SingleColumn("a", 0, 1'000'000);
  ShardedTable mapped =
      ShardedTable::Make(schema, 4, Mapped(dir.path(), 64)).value();
  ShardedTable vec = ShardedTable::Make(schema, 4).value();
  ASSERT_TRUE(fs::exists(dir.file("shard-0")));

  Rng rng(71);
  std::vector<Value> values(1000);
  for (Value& v : values) v = rng.UniformInt(0, 999'999);
  ASSERT_TRUE(mapped.AppendColumns({values}).ok());
  ASSERT_TRUE(vec.AppendColumns({values}).ok());

  ShardedControllerOptions sopts;
  sopts.dbsize_budget = 600;
  sopts.backend = BackendKind::kDelete;
  sopts.compact_every_n_rounds = 0;
  sopts.seed = 99;
  PolicyOptions popts;
  popts.kind = PolicyKind::kUniform;
  ShardedAmnesiaController ctrl_m =
      ShardedAmnesiaController::Make(sopts, popts, &mapped).value();
  ShardedAmnesiaController ctrl_v =
      ShardedAmnesiaController::Make(sopts, popts, &vec).value();
  ASSERT_TRUE(ctrl_m.EnforceBudget().ok());
  ASSERT_TRUE(ctrl_v.EnforceBudget().ok());

  EXPECT_EQ(mapped.num_active(), vec.num_active());
  for (uint32_t s = 0; s < 4; ++s) {
    SCOPED_TRACE(s);
    EXPECT_TRUE(mapped.shard(s).mapped());
    EXPECT_EQ(CheckpointTable(mapped.shard(s)), CheckpointTable(vec.shard(s)));
  }
}

TEST(MappedShardedTest, ParallelPlanKeepsPartitionsAndMatchesTheVectorTwin) {
  ScratchDir dir("amnesia_mapped_sharded_parallel_test");
  Schema schema = Schema::SingleColumn("a", 0, 1'000'000);
  ShardedTable mapped =
      ShardedTable::Make(schema, 4, Mapped(dir.path(), 64)).value();
  ShardedTable vec = ShardedTable::Make(schema, 4).value();
  Rng rng(72);
  std::vector<Value> values(1000);
  for (Value& v : values) v = rng.UniformInt(0, 999'999);
  ASSERT_TRUE(mapped.AppendColumns({values}).ok());
  ASSERT_TRUE(vec.AppendColumns({values}).ok());
  // Forget ~1 row in 5 of every shard, plus all of shard 1's first
  // partition so the vectorized kernels also skip a whole morsel.
  for (uint32_t s = 0; s < 4; ++s) {
    for (RowId r = 0; r < mapped.shard(s).num_rows(); ++r) {
      if ((s == 1 && r < 64) || rng.Bernoulli(0.2)) {
        ASSERT_TRUE(mapped.mutable_shard(s).Forget(r).ok());
        ASSERT_TRUE(vec.mutable_shard(s).Forget(r).ok());
      }
    }
    ASSERT_GT(mapped.shard(s).num_forgotten(), 0u);
  }

  // The pool plan: every morsel lies inside one sealed partition or the
  // unsealed tail, so each scan reads its mapped words in place.
  const ShardedMorselRange plan =
      TableShards(mapped).Morsels(kDefaultMorselRows);
  EXPECT_GT(plan.count(), 4u);
  for (ShardMorsel sm : plan) {
    const uint64_t sealed = mapped.shard(sm.shard).sealed_rows();
    ASSERT_GT(sealed, 0u);
    const bool in_tail = sm.morsel.begin >= sealed;
    const bool in_partition = sm.morsel.end <= sealed &&
                              sm.morsel.begin / 64 == (sm.morsel.end - 1) / 64;
    EXPECT_TRUE(in_tail || in_partition)
        << "shard " << sm.shard << " morsel [" << sm.morsel.begin << ", "
        << sm.morsel.end << ") straddles a partition";
  }

  ThreadPool pool(3);
  const RangePredicate pred{0, 100'000, 900'000};
  for (const Visibility vis : {Visibility::kActiveOnly, Visibility::kAll,
                               Visibility::kForgottenOnly}) {
    for (const Engine engine : {Engine::kScalar, Engine::kVectorized}) {
      SCOPED_TRACE(std::to_string(static_cast<int>(vis)) + "/" +
                   std::to_string(static_cast<int>(engine)));
      const ResultSet rows = ScanRangeParallel(mapped, pred, vis, pool,
                                               kDefaultMorselRows, 0, engine)
                                 .value();
      const ResultSet twin_rows = ScanRange(vec, pred, vis, engine).value();
      EXPECT_FALSE(rows.rows.empty());
      EXPECT_EQ(rows.rows, twin_rows.rows);
      EXPECT_EQ(rows.values, twin_rows.values);

      EXPECT_EQ(CountRangeParallel(mapped, pred, vis, pool,
                                   kDefaultMorselRows, 0, engine)
                    .value(),
                twin_rows.rows.size());

      const AggregateResult agg =
          AggregateRangeParallel(mapped, pred, vis, pool, kDefaultMorselRows,
                                 0, engine)
              .value();
      const AggregateResult twin =
          AggregateRange(vec, pred, vis, engine).value();
      EXPECT_EQ(agg.count, twin.count);
      EXPECT_EQ(agg.min, twin.min);
      EXPECT_EQ(agg.max, twin.max);
      // Per-morsel partials fold in another order than the twin's: SUM
      // agrees up to floating-point reassociation.
      EXPECT_NEAR(agg.sum, twin.sum, 1e-9 * std::abs(twin.sum));
    }
  }
}

}  // namespace
}  // namespace amnesia
