// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the forgetting audit ledger: record codec round-trips, hash
// chaining across appends and segment rolls, torn-tail repair after a
// simulated kill -9, tamper detection (a CRC-valid record or segment seed
// that does not chain), retention truncation that keeps the surviving
// chain verifiable (also while appends race it), and the end-to-end
// totals contract against durability recovery: the replayed state's
// lifetime forget total equals the ledger's claims exactly at a batch
// boundary, and can only exceed them (never trail) when the crash lands
// between the journal flush and the ledger append.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "amnesia/audit_ledger.h"
#include "amnesia/controller.h"
#include "amnesia/fifo.h"
#include "common/rng.h"
#include "durability/checkpointer.h"
#include "durability/event_log.h"
#include "durability/frame_io.h"
#include "obs/engine_metrics.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"
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

AuditRecord SampleRecord(uint64_t rows) {
  AuditRecord r;
  r.op = AuditOp::kVacuum;
  r.policy = "fifo";
  r.backend = 1;
  r.shard = 3;
  r.rows_marked = rows;
  r.rows_scrubbed = rows;
  r.partitions_dropped = 1;
  r.tick_lo = 10;
  r.tick_hi = 10 + rows;
  r.batch = 7;
  r.lsn = 1234;
  r.wall_ms = 1700000000000ull;
  r.lifetime_forgotten = rows * 2;
  return r;
}

/// The newest segment file in a ledger directory (lexicographic max works
/// only within equal-width names, so compare by parsed base seq).
std::string NewestSegment(const std::string& dir) {
  std::string best;
  uint64_t best_base = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("audit-", 0) != 0) continue;
    const uint64_t base = std::stoull(name.substr(6));
    if (best.empty() || base >= best_base) {
      best = entry.path().string();
      best_base = base;
    }
  }
  return best;
}

// ------------------------------------------------------------------ codec

TEST(AuditRecordCodecTest, RoundTrips) {
  const AuditRecord in = SampleRecord(42);
  AuditRecord out;
  ASSERT_TRUE(DecodeAuditRecord(EncodeAuditRecord(in), &out).ok());
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.prev_crc, in.prev_crc);
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.policy, in.policy);
  EXPECT_EQ(out.backend, in.backend);
  EXPECT_EQ(out.shard, in.shard);
  EXPECT_EQ(out.rows_marked, in.rows_marked);
  EXPECT_EQ(out.rows_scrubbed, in.rows_scrubbed);
  EXPECT_EQ(out.partitions_dropped, in.partitions_dropped);
  EXPECT_EQ(out.tick_lo, in.tick_lo);
  EXPECT_EQ(out.tick_hi, in.tick_hi);
  EXPECT_EQ(out.batch, in.batch);
  EXPECT_EQ(out.lsn, in.lsn);
  EXPECT_EQ(out.wall_ms, in.wall_ms);
  EXPECT_EQ(out.lifetime_forgotten, in.lifetime_forgotten);
}

TEST(AuditRecordCodecTest, RejectsTruncatedAndBadOp) {
  std::vector<uint8_t> bytes = EncodeAuditRecord(SampleRecord(1));
  AuditRecord out;
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_FALSE(DecodeAuditRecord(truncated, &out).ok());
  AuditRecord bad = SampleRecord(1);
  bad.op = static_cast<AuditOp>(99);
  EXPECT_FALSE(DecodeAuditRecord(EncodeAuditRecord(bad), &out).ok());
}

// ------------------------------------------------------------- chaining

TEST(AuditLedgerTest, AppendStampsSeqAndChains) {
  ScratchDir dir("amnesia_audit_chain_test");
  AuditLedger ledger = AuditLedger::Open(dir.path()).value();
  EXPECT_EQ(ledger.next_seq(), 0u);
  EXPECT_EQ(ledger.chain_crc(), 0u);

  uint32_t prev = 0;
  for (uint64_t i = 0; i < 5; ++i) {
    AuditRecord r = SampleRecord(i + 1);
    ASSERT_TRUE(ledger.Append(&r).ok());
    EXPECT_EQ(r.seq, i);
    EXPECT_EQ(r.prev_crc, prev);
    prev = ledger.chain_crc();
    EXPECT_NE(prev, 0u);
  }
  EXPECT_EQ(ledger.next_seq(), 5u);

  const std::vector<AuditRecord> tail = ledger.Tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().seq, 2u);
  EXPECT_EQ(tail.back().seq, 4u);

  const AuditChainReport report = VerifyAuditChain(dir.path()).value();
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_EQ(report.records, 5u);
  EXPECT_EQ(report.base_seq, 0u);
  EXPECT_EQ(report.next_seq, 5u);
  EXPECT_EQ(report.chain_crc, ledger.chain_crc());
}

TEST(AuditLedgerTest, StampsWallClockWhenUnset) {
  ScratchDir dir("amnesia_audit_wall_test");
  AuditLedger ledger = AuditLedger::Open(dir.path()).value();
  AuditRecord r = SampleRecord(1);
  r.wall_ms = 0;
  ASSERT_TRUE(ledger.Append(&r).ok());
  EXPECT_GT(r.wall_ms, 1'600'000'000'000ull);  // later than 2020
}

TEST(AuditLedgerTest, OpenForAppendResumesChain) {
  ScratchDir dir("amnesia_audit_resume_test");
  uint32_t head = 0;
  {
    AuditLedger ledger = AuditLedger::Open(dir.path()).value();
    for (uint64_t i = 0; i < 3; ++i) {
      AuditRecord r = SampleRecord(i + 1);
      ASSERT_TRUE(ledger.Append(&r).ok());
    }
    head = ledger.chain_crc();
  }
  AuditLedger resumed = AuditLedger::OpenForAppend(dir.path()).value();
  EXPECT_EQ(resumed.next_seq(), 3u);
  EXPECT_EQ(resumed.chain_crc(), head);
  AuditRecord r = SampleRecord(4);
  ASSERT_TRUE(resumed.Append(&r).ok());
  EXPECT_EQ(r.seq, 3u);
  EXPECT_EQ(r.prev_crc, head);  // the chain continues, not restarts

  const AuditChainReport report = VerifyAuditChain(dir.path()).value();
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_EQ(report.records, 4u);
  // The resumed instance's tail was reloaded from disk.
  EXPECT_EQ(resumed.Tail(10).size(), 4u);
}

TEST(AuditLedgerTest, OpenForAppendOnEmptyDirStartsFresh) {
  ScratchDir dir("amnesia_audit_fresh_test");
  AuditLedger ledger = AuditLedger::OpenForAppend(dir.path()).value();
  EXPECT_EQ(ledger.next_seq(), 0u);
  AuditRecord r = SampleRecord(1);
  EXPECT_TRUE(ledger.Append(&r).ok());
}

// ----------------------------------------------- crash & tamper artifacts

TEST(AuditLedgerTest, TornTailIsRepairedNotReported) {
  ScratchDir dir("amnesia_audit_torn_test");
  {
    AuditLedger ledger = AuditLedger::Open(dir.path()).value();
    for (uint64_t i = 0; i < 3; ++i) {
      AuditRecord r = SampleRecord(i + 1);
      ASSERT_TRUE(ledger.Append(&r).ok());
    }
  }
  // kill -9 mid-append: half a frame lands at the end of the segment.
  {
    std::ofstream f(NewestSegment(dir.path()),
                    std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x12};  // len=64, no body
    f.write(torn, sizeof(torn));
  }
  // A torn tail is the expected crash artifact, not a chain break.
  const AuditChainReport before = VerifyAuditChain(dir.path()).value();
  EXPECT_TRUE(before.ok) << before.detail;
  EXPECT_EQ(before.records, 3u);

  // Reopen-for-append physically truncates the tear and keeps chaining.
  AuditLedger resumed = AuditLedger::OpenForAppend(dir.path()).value();
  EXPECT_EQ(resumed.next_seq(), 3u);
  AuditRecord r = SampleRecord(9);
  ASSERT_TRUE(resumed.Append(&r).ok());
  const AuditChainReport after = VerifyAuditChain(dir.path()).value();
  EXPECT_TRUE(after.ok) << after.detail;
  EXPECT_EQ(after.records, 4u);
}

TEST(AuditLedgerTest, TamperedRecordBreaksChain) {
  ScratchDir dir("amnesia_audit_tamper_test");
  {
    AuditLedger ledger = AuditLedger::Open(dir.path()).value();
    for (uint64_t i = 0; i < 3; ++i) {
      AuditRecord r = SampleRecord(i + 1);
      ASSERT_TRUE(ledger.Append(&r).ok());
    }
  }
  // Splice a CRC-valid record whose prev_crc does not chain: framing-level
  // checks pass, only the hash chain can catch it.
  {
    AuditRecord forged = SampleRecord(1000);
    forged.seq = 3;
    forged.prev_crc = 0xDEADBEEF;
    std::FILE* f = std::fopen(NewestSegment(dir.path()).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_TRUE(wal::WriteFrame(f, EncodeAuditRecord(forged), "seg").ok());
    std::fclose(f);
  }
  const AuditChainReport report = VerifyAuditChain(dir.path()).value();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("prev_crc"), std::string::npos)
      << report.detail;
  EXPECT_EQ(report.records, 3u);  // the intact prefix survives

  // Append must not extend a tampered chain: reopen discards the forgery
  // and resumes from the last genuine record.
  AuditLedger resumed = AuditLedger::OpenForAppend(dir.path()).value();
  EXPECT_EQ(resumed.next_seq(), 3u);
  AuditRecord r = SampleRecord(5);
  ASSERT_TRUE(resumed.Append(&r).ok());
  const AuditChainReport repaired = VerifyAuditChain(dir.path()).value();
  EXPECT_TRUE(repaired.ok) << repaired.detail;
  EXPECT_EQ(repaired.records, 4u);
}

// ------------------------------------------------- segments & retention

TEST(AuditLedgerTest, RollsSegmentsAndVerifiesAcrossThem) {
  ScratchDir dir("amnesia_audit_roll_test");
  AuditLedgerOptions opts;
  opts.max_segment_bytes = 1;  // every append rolls: one record per segment
  AuditLedger ledger = AuditLedger::Open(dir.path(), opts).value();
  for (uint64_t i = 0; i < 6; ++i) {
    AuditRecord r = SampleRecord(i + 1);
    ASSERT_TRUE(ledger.Append(&r).ok());
  }
  size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    (void)entry;
    ++segments;
  }
  EXPECT_GE(segments, 3u);
  const AuditChainReport report = VerifyAuditChain(dir.path()).value();
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_EQ(report.records, 6u);

  const std::vector<AuditRecord> all = ReadAuditRecords(dir.path()).value();
  ASSERT_EQ(all.size(), 6u);
  for (uint64_t i = 0; i < 6; ++i) EXPECT_EQ(all[i].seq, i);
}

TEST(AuditLedgerTest, TruncateBeforeKeepsVerifiableSuffix) {
  ScratchDir dir("amnesia_audit_trunc_test");
  AuditLedgerOptions opts;
  opts.max_segment_bytes = 1;
  AuditLedger ledger = AuditLedger::Open(dir.path(), opts).value();
  for (uint64_t i = 0; i < 6; ++i) {
    AuditRecord r = SampleRecord(i + 1);
    ASSERT_TRUE(ledger.Append(&r).ok());
  }
  ASSERT_TRUE(ledger.TruncateBefore(4).ok());
  EXPECT_GT(ledger.segments_unlinked(), 0u);
  EXPECT_GE(ledger.base_seq(), 1u);
  EXPECT_EQ(ledger.next_seq(), 6u);

  // The surviving chain verifies from its first segment: its header's
  // chain seed carries the CRC the unlinked history ended on.
  const AuditChainReport report = VerifyAuditChain(dir.path()).value();
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_EQ(report.base_seq, ledger.base_seq());
  EXPECT_EQ(report.next_seq, 6u);
  EXPECT_EQ(report.chain_crc, ledger.chain_crc());

  // Truncating beyond the chain head is refused.
  EXPECT_FALSE(ledger.TruncateBefore(99).ok());
}

TEST(AuditLedgerTest, ForgedRecordIsCaughtByTheNextSegmentSeed) {
  // A record rewritten in place with the right seq and prev_crc passes
  // every check inside its own segment; only the next segment's header,
  // seeded with the genuine record's CRC, gives the forgery away.
  ScratchDir dir("amnesia_audit_forged_seed_test");
  AuditLedgerOptions opts;
  opts.max_segment_bytes = 1;  // one record per segment
  AuditRecord second;
  {
    AuditLedger ledger = AuditLedger::Open(dir.path(), opts).value();
    for (uint64_t i = 0; i < 3; ++i) {
      AuditRecord r = SampleRecord(i + 1);
      ASSERT_TRUE(ledger.Append(&r).ok());
      if (i == 1) second = r;
    }
  }
  AuditRecord forged = second;
  forged.rows_marked = 1000;  // same encoded size, different claim
  {
    std::FILE* f = std::fopen(dir.file("audit-1.seg").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);  // past the segment header
    ASSERT_TRUE(wal::WriteFrame(f, EncodeAuditRecord(forged), "seg").ok());
    std::fclose(f);
  }
  const AuditChainReport report = VerifyAuditChain(dir.path()).value();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.detail.find("chain seed"), std::string::npos)
      << report.detail;
  EXPECT_EQ(report.records, 2u);
}

TEST(AuditLedgerTest, TruncationIsConcurrentWithAppends) {
  // Retention GC truncates the ledger on the checkpoint writer thread
  // while controllers append. Racing the two must still leave a gapless,
  // verifiable suffix; the TSan and ASan jobs run this for the memory
  // side.
  ScratchDir dir("amnesia_audit_truncate_race_test");
  AuditLedgerOptions opts;
  opts.max_segment_bytes = 512;
  AuditLedger ledger = AuditLedger::Open(dir.path(), opts).value();
  constexpr uint64_t kAppends = 400;

  std::thread appender([&ledger] {
    for (uint64_t i = 0; i < kAppends; ++i) {
      AuditRecord r = SampleRecord(i + 1);
      ASSERT_TRUE(ledger.Append(&r).ok());
    }
  });
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(ledger.TruncateBefore(ledger.next_seq() / 2).ok());
  }
  appender.join();
  ASSERT_TRUE(ledger.TruncateBefore(ledger.next_seq() / 2).ok());
  EXPECT_GT(ledger.segments_unlinked(), 0u);

  const std::vector<AuditRecord> records =
      ReadAuditRecords(dir.path()).value();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().seq, ledger.base_seq());
  EXPECT_EQ(records.back().seq, kAppends - 1);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, ledger.base_seq() + i);
    EXPECT_EQ(records[i].rows_marked, records[i].seq + 1);
  }
  const AuditChainReport report = VerifyAuditChain(dir.path()).value();
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_EQ(report.base_seq, ledger.base_seq());
  EXPECT_EQ(report.next_seq, kAppends);
  EXPECT_EQ(report.chain_crc, ledger.chain_crc());
}

TEST(AuditLedgerTest, LeavesEventLogMetricsAlone) {
  // The ledger shares the event log's segment layer, not its metrics:
  // log.appends, log.fsyncs and log.truncations count the journal only.
  ScratchDir dir("amnesia_audit_metrics_test");
  AuditLedgerOptions opts;
  opts.max_segment_bytes = 1;  // every append after the first seals one
  AuditLedger ledger = AuditLedger::Open(dir.path(), opts).value();
  const obs::EngineMetrics& m = obs::EngineMetrics::Get();
  const uint64_t appends = m.log_appends->Value();
  const uint64_t fsyncs = m.log_fsyncs->Value();
  const uint64_t truncations = m.log_truncations->Value();
  for (uint64_t i = 0; i < 4; ++i) {
    AuditRecord r = SampleRecord(i + 1);
    ASSERT_TRUE(ledger.Append(&r).ok());
  }
  ASSERT_TRUE(ledger.TruncateBefore(2).ok());
  EXPECT_EQ(ledger.segments_unlinked(), 2u);
  EXPECT_EQ(m.log_appends->Value(), appends);
  EXPECT_EQ(m.log_fsyncs->Value(), fsyncs);
  EXPECT_EQ(m.log_truncations->Value(), truncations);
}

// --------------------------------------- totals vs durability recovery

TEST(AuditLedgerTest, LedgerTotalsMatchRecoveredStateExactly) {
  ScratchDir dir("amnesia_audit_totals_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = Table::Make(Schema::SingleColumn("v", 0, 1'000'000)).value();
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.AppendRow({rng.UniformInt(0, 999'999)}).ok());
  }
  {
    // Initial load: no batch marker, like Simulator::Initialize.
    Event append;
    append.kind = EventKind::kAppendRows;
    append.columns.resize(1);
    for (RowId r = 0; r < 100; ++r) {
      append.columns[0].push_back(table.value(0, r));
    }
    ASSERT_TRUE(log.Append(append).ok());
    ASSERT_TRUE(log.Flush().ok());
  }

  CheckpointerOptions copts;
  copts.dir = dir.path();
  copts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(copts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

  AuditLedger ledger =
      AuditLedger::Open(AuditDirFor(dir.path())).value();
  FifoPolicy policy;
  ControllerOptions ctrl_opts;
  ctrl_opts.dbsize_budget = 60;
  ctrl_opts.backend = BackendKind::kDelete;
  ctrl_opts.compact_every_n_rounds = 0;  // keep RowIds journal-stable
  AmnesiaController ctrl =
      AmnesiaController::Make(ctrl_opts, &policy, &table).value();
  ctrl.set_event_sink(&log, 0);
  ctrl.set_audit_ledger(&ledger, &log);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  for (int i = 0; i < 2; ++i) {
    // Age the survivors past the deadline, journaling each batch marker
    // so replay advances the same batch clock.
    table.BeginBatch();
    Event begin;
    begin.kind = EventKind::kBeginBatch;
    ASSERT_TRUE(log.Append(begin).ok());
  }
  ASSERT_TRUE(ctrl.VacuumExpired(/*max_age_batches=*/1).ok());
  ASSERT_TRUE(log.Flush().ok());

  // Batch boundary: every sweep journaled AND attested. The ledger's
  // claims must equal the replayed reality bit-for-bit.
  RecoveredState state =
      Recover(dir.path(), dir.file("events.log")).value();
  ASSERT_EQ(state.shards.size(), 1u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));

  const std::vector<AuditRecord> records =
      ReadAuditRecords(AuditDirFor(dir.path())).value();
  ASSERT_GE(records.size(), 2u);  // one enforce + one vacuum sweep
  uint64_t claimed = 0;
  for (const AuditRecord& r : records) claimed += r.rows_marked;
  EXPECT_EQ(claimed, table.lifetime_forgotten());
  EXPECT_EQ(claimed, state.shards[0].lifetime_forgotten());
  EXPECT_EQ(records.back().lifetime_forgotten, table.lifetime_forgotten());
  // Every record's LSN is covered by the durable journal.
  for (const AuditRecord& r : records) EXPECT_LE(r.lsn, log.next_lsn());

  const AuditChainReport report =
      VerifyAuditChain(AuditDirFor(dir.path())).value();
  EXPECT_TRUE(report.ok) << report.detail;
}

TEST(AuditLedgerTest, CrashBetweenFlushAndAppendUnderClaims) {
  // The flush-ordering contract: the event sink is flushed BEFORE the
  // ledger append, so a crash between the two loses the attestation but
  // never the journal entry. Simulate that crash by chopping the newest
  // ledger record off mid-frame: recovery replays MORE forgets than the
  // surviving ledger claims — "replayed >= attested", never the reverse.
  ScratchDir dir("amnesia_audit_underclaim_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = Table::Make(Schema::SingleColumn("v", 0, 1'000'000)).value();
  Rng rng(23);
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(table.AppendRow({rng.UniformInt(0, 999'999)}).ok());
  }
  CheckpointerOptions copts;
  copts.dir = dir.path();
  copts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(copts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

  AuditLedger ledger = AuditLedger::Open(AuditDirFor(dir.path())).value();
  FifoPolicy policy;
  ControllerOptions ctrl_opts;
  ctrl_opts.dbsize_budget = 50;
  ctrl_opts.backend = BackendKind::kDelete;
  ctrl_opts.compact_every_n_rounds = 0;
  AmnesiaController ctrl =
      AmnesiaController::Make(ctrl_opts, &policy, &table).value();
  ctrl.set_event_sink(&log, 0);
  ctrl.set_audit_ledger(&ledger, &log);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  ASSERT_TRUE(log.Flush().ok());

  // The simulated crash: the journal kept its flush, the ledger record
  // was half-written.
  const std::string seg = NewestSegment(AuditDirFor(dir.path()));
  fs::resize_file(seg, fs::file_size(seg) - 5);

  RecoveredState state =
      Recover(dir.path(), dir.file("events.log")).value();
  ASSERT_EQ(state.shards.size(), 1u);
  EXPECT_EQ(state.shards[0].lifetime_forgotten(), table.lifetime_forgotten());

  uint64_t claimed = 0;
  StatusOr<std::vector<AuditRecord>> survivors =
      ReadAuditRecords(AuditDirFor(dir.path()));
  if (survivors.ok()) {
    for (const AuditRecord& r : survivors.value()) claimed += r.rows_marked;
  }
  EXPECT_LT(claimed, state.shards[0].lifetime_forgotten());
  // And what survives still verifies: the tear is a tail artifact.
  const AuditChainReport report =
      VerifyAuditChain(AuditDirFor(dir.path())).value();
  EXPECT_TRUE(report.ok) << report.detail;
}

// -------------------------------------------------- simulator end-to-end

TEST(AuditLedgerTest, SimulatorWiresLedgerAndSlaTracker) {
  ScratchDir dir("amnesia_audit_sim_test");
  SimulationConfig config;
  config.seed = 7;
  config.dbsize = 300;
  config.upd_perc = 0.3;
  config.num_batches = 6;
  config.queries_per_batch = 5;
  config.policy.kind = PolicyKind::kFifo;
  config.backend = BackendKind::kDelete;
  config.compact_every_n_rounds = 0;  // row ids must stay ledger-stable
  config.checkpoint_every_n_batches = 2;
  config.checkpoint_dir = dir.path();
  config.checkpoint_async = false;
  config.vacuum_max_age_batches = 3;
  config.audit_ledger = true;

  auto sim = Simulator::Make(config).value();
  ASSERT_TRUE(sim->Run().ok());
  ASSERT_NE(sim->audit_ledger(), nullptr);
  EXPECT_GT(sim->audit_ledger()->next_seq(), 0u);

  const std::string audit_dir = AuditDirFor(dir.path());
  const AuditChainReport report = VerifyAuditChain(audit_dir).value();
  EXPECT_TRUE(report.ok) << report.detail;

  // Ledger totals equal the lived history exactly (every forget ran
  // under an attached ledger).
  uint64_t claimed = 0;
  const std::vector<AuditRecord> records =
      ReadAuditRecords(audit_dir).value();
  for (const AuditRecord& r : records) claimed += r.rows_marked;
  EXPECT_EQ(claimed, sim->table().lifetime_forgotten());

  // The SLA tracker sampled every vacuum sweep and the attestation
  // cross-check passed at the final batch: vacuuming ran, so no live row
  // is past deadline.
  const std::vector<obs::SlaPolicySnapshot> sla = sim->sla().Snapshot();
  ASSERT_EQ(sla.size(), 1u);
  EXPECT_EQ(sla[0].policy, "fifo");
  EXPECT_EQ(sla[0].sweeps, 6u);
  EXPECT_EQ(sla[0].forget_lag_batches, 0u);
  EXPECT_TRUE(sla[0].attestation.checked);
  EXPECT_TRUE(sla[0].attestation.passed);
  EXPECT_EQ(sla[0].attestation.overdue_rows, 0u);
  EXPECT_TRUE(sim->sla().CheckSla(config.sla_max_lag_batches).ok());
}

TEST(AuditLedgerTest, SimulatorRetentionGcTruncatesLedger) {
  ScratchDir dir("amnesia_audit_sim_gc_test");
  SimulationConfig config;
  config.seed = 11;
  config.dbsize = 200;
  config.upd_perc = 0.5;
  config.num_batches = 8;
  config.queries_per_batch = 2;
  config.policy.kind = PolicyKind::kFifo;
  config.backend = BackendKind::kDelete;
  config.compact_every_n_rounds = 0;
  config.checkpoint_every_n_batches = 1;
  config.checkpoint_dir = dir.path();
  config.checkpoint_async = false;
  config.checkpoint_retention = 2;  // retention GC runs every checkpoint
  config.vacuum_max_age_batches = 2;
  config.audit_ledger = true;
  config.audit_segment_bytes = 1;   // roll per record: GC-able segments
  config.audit_retention_records = 3;

  auto sim = Simulator::Make(config).value();
  ASSERT_TRUE(sim->Run().ok());
  const AuditLedger* ledger = sim->audit_ledger();
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(ledger->segments_unlinked(), 0u);
  EXPECT_GT(ledger->base_seq(), 0u);

  // Retention discarded old history; what survives still verifies
  // because each segment header seeds the chain.
  const AuditChainReport report =
      VerifyAuditChain(AuditDirFor(dir.path())).value();
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_EQ(report.base_seq, ledger->base_seq());
  EXPECT_EQ(report.next_seq, ledger->next_seq());
}

}  // namespace
}  // namespace amnesia
