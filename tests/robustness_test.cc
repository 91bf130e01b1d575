// Copyright 2026 The AmnesiaDB Authors
//
// Robustness round: cross-module edge cases, failure injection, and
// consistency properties that the per-module suites do not cover —
// checkpointing mid-simulation, corrupted-checkpoint and segment-chain
// fuzzing, policy × backend interplay, and long-haul budget invariants.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "amnesia/area.h"
#include "amnesia/audit_ledger.h"
#include "amnesia/fifo.h"
#include "amnesia/uniform.h"
#include "amnesia/controller.h"
#include "common/rng.h"
#include "durability/checkpointer.h"
#include "durability/log_segments.h"
#include "query/scan.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"
#include "storage/checkpoint_io.h"
#include "mapped_v2_blob.h"

namespace amnesia {
namespace {

// ------------------------------------------- checkpoint x simulator

TEST(RobustnessTest, CheckpointMidSimulationPreservesQueryAnswers) {
  SimulationConfig config;
  config.dbsize = 300;
  config.upd_perc = 0.5;
  config.num_batches = 8;
  config.queries_per_batch = 20;
  config.policy.kind = PolicyKind::kRot;
  auto sim = Simulator::Make(config).value();
  ASSERT_TRUE(sim->Initialize().ok());
  for (int b = 0; b < 4; ++b) ASSERT_TRUE(sim->StepBatch().ok());

  // Snapshot after 4 rounds; the restored table must answer every range
  // query identically, under every visibility.
  const Table& live = sim->table();
  const Table restored = RestoreTable(CheckpointTable(live)).value();
  Rng rng(9);
  for (int q = 0; q < 100; ++q) {
    const Value lo = rng.UniformInt(0, 900'000);
    const RangePredicate pred{0, lo, lo + rng.UniformInt(1, 50'000)};
    for (Visibility vis : {Visibility::kActiveOnly, Visibility::kAll,
                           Visibility::kForgottenOnly}) {
      const ResultSet a = ScanRange(live, pred, vis).value();
      const ResultSet b = ScanRange(restored, pred, vis).value();
      ASSERT_EQ(a.rows, b.rows);
      ASSERT_EQ(a.values, b.values);
    }
  }
}

TEST(RobustnessTest, CorruptedCheckpointsNeverCrash) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 100)).value();
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(t.AppendRow({i}).ok());
  ASSERT_TRUE(t.Forget(3).ok());
  std::vector<uint8_t> buffer = CheckpointTable(t);

  // Flip every byte (one at a time): restore must either fail cleanly or
  // produce *some* table — never crash or hang.
  Rng rng(11);
  for (size_t pos = 0; pos < buffer.size(); ++pos) {
    std::vector<uint8_t> mutated = buffer;
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.UniformIndex(255));
    const auto result = RestoreTable(mutated);
    if (result.ok()) {
      // A surviving restore must still be internally consistent.
      const Table& r = result.value();
      EXPECT_LE(r.num_active(), r.num_rows());
    }
  }

  // Crafted length fields: each must fail cleanly instead of wrapping a
  // size computation or allocating for a count the buffer cannot hold.
  // (1) An active-bitmap length whose byte count (n + 7) / 8 wraps to 0.
  //     The bitmap is the blob's last field: [u64 n][ceil(n / 8) bytes].
  std::vector<uint8_t> huge_bitmap = buffer;
  const uint64_t max_count = std::numeric_limits<uint64_t>::max();
  std::memcpy(huge_bitmap.data() + huge_bitmap.size() - 16, &max_count,
              sizeof(max_count));
  EXPECT_FALSE(RestoreTable(huge_bitmap).ok());

  // A mapped blob (version 2) over one column, cut after one partition
  // entry, the column's empty tail and zero batch runs.
  auto mapped_blob = [](uint64_t rows, uint64_t partition_rows,
                        uint64_t num_partitions) {
    std::vector<uint8_t> out;
    ckpt::Writer w(&out);
    w.U32(0x414D4E45);  // checkpoint magic "AMNE"
    w.U32(2);           // mapped blob version
    w.U64(1);           // columns
    w.String("a");
    w.I64(0);
    w.I64(100);
    w.U64(rows);
    w.U64(rows);  // next_tick
    w.U64(0);     // lifetime_forgotten
    w.U32(0);     // current batch
    w.U64(partition_rows);
    w.U64(num_partitions);
    w.U64(0);  // partition epoch_lo
    w.U64(0);  // partition epoch_hi
    w.U8(0);   // partition dropped
    w.I64(0);  // min_seen
    w.I64(0);  // max_seen
    w.U64(0);  // tail length
    w.U64(0);  // batch runs
    return out;
  };
  // (2) A partition count whose product with partition_rows wraps to 0.
  EXPECT_FALSE(
      RestoreTable(mapped_blob(64, 4, uint64_t{1} << 62), "parts").ok());
  // (3) A row count no buffer can back, reserved for before any batch run.
  EXPECT_FALSE(
      RestoreTable(mapped_blob(uint64_t{1} << 62, uint64_t{1} << 62, 1),
                   "parts")
          .ok());

  // (4) A checksummed manifest naming 2^32 partitions in a few dozen bytes.
  std::vector<uint8_t> manifest;
  ckpt::Writer mw(&manifest);
  mw.U32(0x414D4D46);  // manifest magic "AMMF"
  mw.U32(3);           // manifest version
  mw.U64(1);           // id
  mw.U64(0);           // covered LSN
  mw.U64(0);           // ingest cursor
  mw.U64(1);           // shards
  mw.U64(0);           // shard epoch
  mw.String("ckpt-1-shard-0.blob");
  mw.U64(0);  // blob size
  mw.U32(0);  // blob crc
  mw.String("parts");
  mw.U64(64);  // partition_rows
  mw.U64(uint64_t{1} << 32);
  mw.U32(ckpt::Crc32(manifest));
  EXPECT_FALSE(DecodeManifest(manifest).ok());
}

TEST(RobustnessTest, CorruptedMappedCheckpointsNeverCrash) {
  // Every single-byte flip and every truncation of real mapped blobs,
  // restored against their storage directory: each must fail cleanly or
  // produce a consistent table. The blobs: a version 3 blob of four
  // sealed partitions (one dropped) and a tail; a version 3 blob whose
  // oldest two partitions were dropped (row_base 128); and the version 2
  // bytes earlier builds wrote for that second table, stale access counts
  // of its dropped rows included.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_robust_mapped_blob")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto make_table = [&dir](const std::string& name) {
    StorageOptions storage;
    storage.backend = StorageBackend::kMapped;
    storage.dir = dir + "/" + name;
    storage.partition_rows = 64;
    Table t =
        Table::Make(Schema::SingleColumn("a", 0, 1000), storage).value();
    for (Value v = 0; v < 4 * 64 + 20; ++v) {
      if (v % 100 == 99) t.BeginBatch();
      EXPECT_TRUE(t.AppendRow({v}).ok());
    }
    t.BumpAccess(3);
    t.BumpAccess(70);
    return t;
  };
  const auto forget_some = [](Table* t) {
    for (RowId r = 0; r < 276; r += 7) {
      if (t->IsActive(r)) {
        ASSERT_TRUE(t->Forget(r).ok());
      }
    }
    t->BumpAccess(270);
  };
  Table gap = make_table("gap");
  ASSERT_TRUE(gap.DropPartition(2).ok());
  forget_some(&gap);
  Table prefix = make_table("prefix");
  const std::vector<uint64_t> counts_before_drops = prefix.access_counts();
  ASSERT_TRUE(prefix.DropPartition(0).ok());
  ASSERT_TRUE(prefix.DropPartition(1).ok());
  forget_some(&prefix);
  ASSERT_EQ(prefix.ToParts().row_base, 128u);
  std::vector<uint64_t> stale_counts = prefix.access_counts();
  std::copy(counts_before_drops.begin(), counts_before_drops.begin() + 128,
            stale_counts.begin());
  ASSERT_NE(stale_counts, prefix.access_counts());

  struct Case {
    const char* blob;
    const Table* table;
    std::vector<uint8_t> bytes;
  };
  const std::vector<Case> cases = {
      {"v3, a dropped partition", &gap, EncodeTableParts(gap.ToParts())},
      {"v3, a dropped prefix", &prefix, EncodeTableParts(prefix.ToParts())},
      {"v2, a dropped prefix", &prefix, EncodeMappedV2(prefix, stale_counts)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.blob);
    const std::string storage_dir = c.table->storage().dir;
    ASSERT_EQ(CheckpointTable(RestoreTable(c.bytes, storage_dir).value()),
              CheckpointTable(*c.table));
    Rng rng(17);
    uint64_t restored = 0;
    for (size_t pos = 0; pos < 2 * c.bytes.size(); ++pos) {
      std::vector<uint8_t> mutated = c.bytes;
      if (pos < c.bytes.size()) {
        mutated[pos] ^= static_cast<uint8_t>(1 + rng.UniformIndex(255));
      } else {
        mutated.resize(pos - c.bytes.size());
      }
      const StatusOr<Table> result = RestoreTable(mutated, storage_dir);
      if (result.ok()) {
        EXPECT_LE(result->num_active(), result->num_rows()) << "byte " << pos;
        ++restored;
      }
    }
    // Flips inside the tail payload and the counters still decode.
    EXPECT_GT(restored, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(RobustnessTest, MappedBlobClaimingAHugeDroppedPrefixIsRejected) {
  // A version 3 blob of one dropped partition of `partition_rows` rows
  // and nothing else: row_base at the sealed rows, one batch run, no tail
  // and empty suffix arrays. Its size does not grow with the rows it
  // claims, so only the image's row ceiling stands between a corrupt
  // partition_rows and per-row allocations of that size.
  const auto encode = [](uint64_t partition_rows) {
    std::vector<uint8_t> out;
    ckpt::Writer w(&out);
    w.U32(0x414D4E45);  // magic "AMNE"
    w.U32(3);
    w.U64(1);
    w.String("a");
    w.I64(0);
    w.I64(1000);
    w.U64(partition_rows);  // rows
    w.U64(partition_rows);  // next tick
    w.U64(0);               // lifetime forgotten
    w.U32(0);               // current batch
    w.U64(partition_rows);
    w.U64(1);  // one partition, dropped
    w.U64(0);
    w.U64(partition_rows - 1);
    w.U8(1);
    w.U64(partition_rows);  // row_base
    w.I64(0);
    w.I64(1000);
    w.I64Array({});  // no tail
    w.U64(1);        // one batch run
    w.U32(0);
    w.U64(partition_rows);
    w.U8(0);  // raw access counts
    w.U64Array({});
    w.BitArray({});
    return out;
  };
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_robust_huge_prefix")
          .string();

  // The same layout at a real size restores: the blob is well formed.
  const std::vector<uint8_t> small_blob = encode(64);
  const Table small = RestoreTable(small_blob, dir).value();
  EXPECT_EQ(small.num_rows(), 64u);
  EXPECT_EQ(small.num_active(), 0u);

  for (const uint64_t partition_rows :
       {Table::kMaxImageRows * 2, uint64_t{1} << 40}) {
    const std::vector<uint8_t> blob = encode(partition_rows);
    EXPECT_EQ(blob.size(), small_blob.size());
    const Status status = RestoreTable(blob, dir).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << partition_rows;
    EXPECT_NE(status.message().find("more rows than an image may restore"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(RobustnessTest, CheckpointOfRestoredTableIsStable) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 100)).value();
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(t.AppendRow({i * 3}).ok());
  ASSERT_TRUE(t.Forget(5).ok());
  const auto once = CheckpointTable(t);
  const Table restored = RestoreTable(once).value();
  const auto twice = CheckpointTable(restored);
  EXPECT_EQ(once, twice);  // byte-stable round trip
}

// --------------------------------------------- corrupted segment chains

namespace fs = std::filesystem;

using DirFiles = std::map<std::string, std::vector<uint8_t>>;

DirFiles ReadDirFiles(const std::string& dir) {
  DirFiles files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream f(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] = std::vector<uint8_t>(
        std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  return files;
}

/// Makes `dir` hold exactly `files` again. Surviving files are rewritten
/// in place: truncating a file to zero and refilling it costs ext4 a
/// forced writeback, which would dominate the run time.
void RestoreDirFiles(const std::string& dir, const DirFiles& files) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (files.count(entry.path().filename().string()) == 0) {
      fs::remove(entry.path());
    }
  }
  for (const auto& [name, bytes] : files) {
    const std::string path = dir + "/" + name;
    std::ios::openmode mode = std::ios::binary | std::ios::out;
    if (fs::exists(path)) {
      fs::resize_file(path, bytes.size());
      mode |= std::ios::in;  // in|out opens without truncating
    }
    std::fstream f(path, mode);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
}

/// Runs `check` once for every single-byte flip and every truncation of
/// every file in `dir`, restoring the directory after each.
void ForEachCorruption(const std::string& dir,
                       const std::function<void()>& check) {
  const DirFiles files = ReadDirFiles(dir);
  Rng rng(13);
  for (const auto& [name, bytes] : files) {
    const std::string path = dir + "/" + name;
    for (size_t pos = 0; pos < 2 * bytes.size(); ++pos) {
      if (pos < bytes.size()) {
        std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(pos));
        f.put(static_cast<char>(bytes[pos] ^ (1 + rng.UniformIndex(255))));
      } else {
        fs::resize_file(path, pos - bytes.size());
      }
      check();
      RestoreDirFiles(dir, files);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(RobustnessTest, CorruptedSegmentChainsNeverCrash) {
  // Every decoder of a segment chain — headers, frames, events and audit
  // records — meets each single-byte flip and truncation of a three-
  // segment event log and ledger. Readers return a Status or an unaltered
  // run of the original records; a reopen then appends right behind that
  // run.
  const fs::path root = fs::temp_directory_path() / "amnesia_robust_chains";
  fs::remove_all(root);
  fs::create_directories(root);
  const std::string log_dir = (root / "log").string();
  const std::string ledger_dir = (root / "ledger").string();

  // Two records in each of the first two segments and one in the third,
  // so the append after a clean reopen does not seal (and fsync) a
  // segment in every case.
  SegmentedLogOptions log_opts;
  log_opts.max_segment_bytes = 64;  // rolls after every second event
  std::vector<Event> events;
  {
    SegmentedEventLog log =
        SegmentedEventLog::Open(log_dir, log_opts).value();
    for (RowId r = 0; r < 5; ++r) {
      Event e;
      e.kind = EventKind::kForget;
      e.row = r;
      events.push_back(e);
      ASSERT_TRUE(log.Append(e).ok());
    }
    ASSERT_EQ(log.num_segments(), 3u);
  }
  AuditLedgerOptions ledger_opts;
  ledger_opts.max_segment_bytes = 200;  // rolls after every second record
  std::vector<AuditRecord> records(5);
  {
    AuditLedger ledger = AuditLedger::Open(ledger_dir, ledger_opts).value();
    for (uint64_t i = 0; i < records.size(); ++i) {
      records[i].policy = "fifo";
      records[i].rows_marked = i;
      records[i].wall_ms = 1;
      ASSERT_TRUE(ledger.Append(&records[i]).ok());
    }
  }
  ASSERT_EQ(ReadDirFiles(ledger_dir).size(), 3u);

  Event extra_event;
  extra_event.kind = EventKind::kForget;
  extra_event.row = 999;
  ForEachCorruption(log_dir, [&] {
    const StatusOr<EventLogContents> read = ReadSegmentedLogContents(log_dir);
    StatusOr<SegmentedEventLog> log =
        SegmentedEventLog::OpenForAppend(log_dir, log_opts);
    ASSERT_EQ(log.ok(), read.ok());
    if (!read.ok()) return;
    const uint64_t base = read->base_lsn;
    const std::vector<Event>& run = read->events;
    ASSERT_LE(base + run.size(), events.size());
    for (size_t i = 0; i < run.size(); ++i) {
      ASSERT_EQ(EncodeEvent(run[i]), EncodeEvent(events[base + i]));
    }
    ASSERT_TRUE(log->Append(extra_event).ok());
    const StatusOr<EventLogContents> reread =
        ReadSegmentedLogContents(log_dir);
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    const EventLogContents& after = reread.value();
    ASSERT_EQ(after.base_lsn, base);
    ASSERT_EQ(after.events.size(), run.size() + 1);
    for (size_t i = 0; i < run.size(); ++i) {
      ASSERT_EQ(EncodeEvent(after.events[i]), EncodeEvent(run[i]));
    }
    ASSERT_EQ(EncodeEvent(after.events.back()), EncodeEvent(extra_event));
  });

  ForEachCorruption(ledger_dir, [&] {
    const StatusOr<std::vector<AuditRecord>> read =
        ReadAuditRecords(ledger_dir);
    const StatusOr<AuditChainReport> report = VerifyAuditChain(ledger_dir);
    ASSERT_EQ(read.ok(), report.ok());
    uint64_t base = 0;
    std::vector<AuditRecord> run;
    if (report.ok()) {
      ASSERT_TRUE(report->ok) << report->detail;
      base = report->base_seq;
      run = read.value();
      ASSERT_EQ(report->records, run.size());
      ASSERT_EQ(report->next_seq, base + run.size());
      ASSERT_LE(base + run.size(), records.size());
      for (size_t i = 0; i < run.size(); ++i) {
        ASSERT_EQ(EncodeAuditRecord(run[i]),
                  EncodeAuditRecord(records[base + i]));
      }
    }
    // With no usable segment left, OpenForAppend starts a fresh ledger.
    StatusOr<AuditLedger> ledger =
        AuditLedger::OpenForAppend(ledger_dir, ledger_opts);
    ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
    AuditRecord extra;
    extra.policy = "extra";
    extra.wall_ms = 2;
    ASSERT_TRUE(ledger->Append(&extra).ok());
    ASSERT_EQ(extra.seq, base + run.size());
    const StatusOr<std::vector<AuditRecord>> reread =
        ReadAuditRecords(ledger_dir);
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    const std::vector<AuditRecord>& after = reread.value();
    ASSERT_EQ(after.size(), run.size() + 1);
    for (size_t i = 0; i < run.size(); ++i) {
      ASSERT_EQ(EncodeAuditRecord(after[i]), EncodeAuditRecord(run[i]));
    }
    ASSERT_EQ(EncodeAuditRecord(after.back()), EncodeAuditRecord(extra));
    const StatusOr<AuditChainReport> resumed = VerifyAuditChain(ledger_dir);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_TRUE(resumed->ok) << resumed->detail;
  });
  fs::remove_all(root);
}

TEST(RobustnessTest, CorruptedForgetRowsRecordsNeverCrash) {
  // Every single-byte flip and every truncation of an encoded kForgetRows
  // payload either fails to decode with InvalidArgument or decodes to an
  // event whose replay returns a Status. A record replay rejects leaves
  // the table and both tiers exactly as they were.
  constexpr uint64_t kRows = 40;
  auto make_table = [] {
    Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
    for (uint64_t i = 0; i < kRows; ++i) {
      EXPECT_TRUE(t.AppendRow({static_cast<Value>(i + 1)}).ok());
    }
    EXPECT_TRUE(t.Forget(20).ok());
    return t;
  };
  Event event;
  event.kind = EventKind::kForgetRows;
  event.backend = static_cast<uint8_t>(BackendKind::kSummary);
  event.runs = {{30, 33}, {2, 5}, {10, 11}};
  const std::vector<uint8_t> payload = EncodeEvent(event);
  const std::vector<uint8_t> table_blob = CheckpointTable(make_table());
  const std::vector<uint8_t> cold_blob = CheckpointColdStore(ColdStore());
  const std::vector<uint8_t> summary_blob =
      CheckpointSummaryStore(SummaryStore());

  uint64_t applied = 0;
  uint64_t rejected = 0;
  auto check = [&](const std::vector<uint8_t>& bytes) {
    const StatusOr<Event> decoded = DecodeEvent(bytes);
    if (!decoded.ok()) {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      return;
    }
    std::vector<Table> tables;
    tables.push_back(make_table());
    ColdStore cold;
    SummaryStore summaries;
    ReplaySinks sinks;
    sinks.cold = &cold;
    sinks.summaries = &summaries;
    uint64_t cursor = kRows;
    if (ReplayEvent(decoded.value(), &tables, &cursor, sinks).ok()) {
      ++applied;
      return;
    }
    ++rejected;
    ASSERT_EQ(CheckpointTable(tables[0]), table_blob);
    ASSERT_EQ(CheckpointColdStore(cold), cold_blob);
    ASSERT_EQ(CheckpointSummaryStore(summaries), summary_blob);
  };
  check(payload);
  ASSERT_EQ(applied, 1u);
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    for (int mask = 1; mask < 256; ++mask) {
      std::vector<uint8_t> mutated = payload;
      mutated[pos] ^= static_cast<uint8_t>(mask);
      check(mutated);
    }
  }
  for (size_t len = 0; len < payload.size(); ++len) {
    const std::vector<uint8_t> cut(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(DecodeEvent(cut).ok()) << "cut at " << len;
    check(cut);
  }
  // Flips reach both outcomes: runs moved onto other live rows replay,
  // runs out of range, onto the forgotten row 20, or overlapping do not.
  EXPECT_GT(applied, 1u);
  EXPECT_GT(rejected, 0u);

  // A run count the payload cannot hold, or above the per-record cap,
  // fails before any allocation.
  for (const uint64_t count :
       {uint64_t{0}, uint64_t{4}, uint64_t{kMaxForgetRunsPerRecord + 1},
        std::numeric_limits<uint64_t>::max()}) {
    std::vector<uint8_t> crafted = payload;
    std::memcpy(crafted.data() + 10, &count, sizeof(count));
    EXPECT_FALSE(DecodeEvent(crafted).ok()) << "count " << count;
  }
}

// ------------------------------------------- policy x backend interplay

TEST(RobustnessTest, AreaPolicySurvivesDeleteBackendCompaction) {
  // Compaction invalidates the area policy's row coordinates; the
  // controller notifies it via OnCompaction. Ten rounds must neither
  // violate the budget nor fail.
  SimulationConfig config;
  config.dbsize = 200;
  config.upd_perc = 0.5;
  config.num_batches = 10;
  config.queries_per_batch = 10;
  config.policy.kind = PolicyKind::kArea;
  config.backend = BackendKind::kDelete;
  auto sim = Simulator::Make(config).value();
  const auto result = sim->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(sim->table().num_active(), 200u);
  EXPECT_EQ(sim->table().num_rows(), 200u);
  EXPECT_GT(result->controller.compactions, 0u);
}

TEST(RobustnessTest, EveryPolicyWorksWithEveryBackend) {
  for (PolicyKind policy : AllPolicyKinds()) {
    for (BackendKind backend :
         {BackendKind::kMarkOnly, BackendKind::kDelete,
          BackendKind::kColdStorage, BackendKind::kSummary,
          BackendKind::kIndexSkip}) {
      SimulationConfig config;
      config.dbsize = 100;
      config.upd_perc = 0.4;
      config.num_batches = 3;
      config.queries_per_batch = 10;
      config.policy.kind = policy;
      config.backend = backend;
      auto sim = Simulator::Make(config).value();
      const auto result = sim->Run();
      ASSERT_TRUE(result.ok())
          << PolicyKindToString(policy) << " x "
          << BackendKindToString(backend) << ": "
          << result.status().ToString();
      EXPECT_EQ(result->batches.back().active, 100u)
          << PolicyKindToString(policy) << " x "
          << BackendKindToString(backend);
    }
  }
}

TEST(RobustnessTest, IndexSkipSurvivesUnbuiltIndexes) {
  // The index-skip backend must not fail when no index exists yet: the
  // ApplyForget maintenance is a no-op until an index is built.
  Table t = Table::Make(Schema::SingleColumn("a", 0, 100)).value();
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(t.AppendRow({i}).ok());
  IndexManager indexes;  // empty
  FifoPolicy fifo;
  AmnesiaPolicy* policy = &fifo;
  ControllerOptions opts;
  opts.dbsize_budget = 10;
  opts.backend = BackendKind::kIndexSkip;
  auto ctrl = AmnesiaController::Make(opts, policy, &t, &indexes).value();
  Rng rng(13);
  EXPECT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(t.num_active(), 10u);
}

// ------------------------------------------- long-haul invariants

TEST(RobustnessTest, HundredRoundBudgetInvariant) {
  SimulationConfig config;
  config.dbsize = 100;
  config.upd_perc = 0.9;
  config.num_batches = 100;
  config.queries_per_batch = 5;
  config.policy.kind = PolicyKind::kUniform;
  auto sim = Simulator::Make(config).value();
  ASSERT_TRUE(sim->Initialize().ok());
  for (int b = 0; b < 100; ++b) {
    const auto m = sim->StepBatch();
    ASSERT_TRUE(m.ok());
    ASSERT_EQ(m->active, 100u) << "round " << b;
    ASSERT_GE(m->mean_pf, 0.0);
    ASSERT_LE(m->mean_pf, 1.0);
  }
  EXPECT_EQ(sim->oracle().size(), 100u + 100u * 90u);
}

TEST(RobustnessTest, TinyDatabaseExtremeVolatility) {
  // dbsize 1, 100% turnover: every round replaces the whole database.
  SimulationConfig config;
  config.dbsize = 1;
  config.upd_perc = 1.0;
  config.num_batches = 20;
  config.queries_per_batch = 5;
  config.policy.kind = PolicyKind::kFifo;
  auto sim = Simulator::Make(config).value();
  const auto result = sim->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->batches.back().active, 1u);
}

TEST(RobustnessTest, UpdatePercAboveOneIsSupported) {
  // upd-perc 2.0: each round inserts twice the budget; the overflow is
  // forgotten in one sweep, including tuples from the same round.
  SimulationConfig config;
  config.dbsize = 50;
  config.upd_perc = 2.0;
  config.num_batches = 5;
  config.queries_per_batch = 5;
  config.policy.kind = PolicyKind::kUniform;
  auto sim = Simulator::Make(config).value();
  const auto result = sim->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->batches.back().active, 50u);
  EXPECT_EQ(result->controller.tuples_forgotten, 5u * 100u);
}

// ------------------------------------------- misc cross-module edges

TEST(RobustnessTest, ColdRecallOnEmptyBatch) {
  ColdStore cold;
  EXPECT_TRUE(cold.RecallBatch(7).empty());
  EXPECT_EQ(cold.accounting().recall_requests, 1u);
}

TEST(RobustnessTest, ScanOnEmptyTableAllVisibilities) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 100)).value();
  for (Visibility vis : {Visibility::kActiveOnly, Visibility::kAll,
                         Visibility::kForgottenOnly}) {
    EXPECT_TRUE(ScanRange(t, RangePredicate::All(0), vis).value().empty());
    EXPECT_EQ(AggregateRange(t, RangePredicate::All(0), vis).value().count,
              0u);
  }
}

TEST(RobustnessTest, ControllerWithZeroBudgetForgetsEverything) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 100)).value();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.AppendRow({i}).ok());
  UniformPolicy policy;
  ControllerOptions opts;
  opts.dbsize_budget = 0;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(17);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(t.num_active(), 0u);
  // The simulator's query generators would now fail cleanly:
  GroundTruthOracle oracle;
  QueryGenOptions qopts;
  qopts.anchor = QueryAnchor::kActiveTuple;
  auto gen = RangeQueryGenerator::Make(qopts).value();
  EXPECT_EQ(gen.Next(t, oracle, &rng).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace amnesia
