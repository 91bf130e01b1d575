// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the async durability subsystem: thread-pool task futures,
// versioned snapshots (epoch skip + copy-on-write tails), the event log
// (framing, torn tails, replay), the background checkpointer (manifest
// commit, incremental shard skip, recovery fallback) and end-to-end
// simulator crash recovery.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "amnesia/fifo.h"
#include "amnesia/sharded_controller.h"
#include "amnesia/uniform.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "durability/checkpointer.h"
#include "durability/event_log.h"
#include "durability/snapshot.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"
#include "storage/checkpoint_io.h"

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

/// Manifest entry for a vector (blob-self-contained) shard; the mapped
/// storage fields stay at their empty defaults.
ManifestShard VectorShard(uint64_t epoch, std::string filename, uint64_t size,
                          uint32_t crc32) {
  ManifestShard shard;
  shard.epoch = epoch;
  shard.filename = std::move(filename);
  shard.size = size;
  shard.crc32 = crc32;
  return shard;
}

/// Two sharded tables are in the same state when every shard's
/// CheckpointTable blob and the ingest cursor agree.
void ExpectSameShardedState(const ShardedTable& a, const ShardedTable& b) {
  ASSERT_EQ(a.num_shards(), b.num_shards());
  EXPECT_EQ(a.ingest_cursor(), b.ingest_cursor());
  for (uint32_t s = 0; s < a.num_shards(); ++s) {
    EXPECT_EQ(CheckpointTable(a.shard(s)), CheckpointTable(b.shard(s)))
        << "shard " << s;
  }
}

Table MakeLoadedTable(uint64_t rows, uint64_t seed = 11) {
  Table t = Table::Make(Schema::SingleColumn("v", 0, 1'000'000)).value();
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({rng.UniformInt(0, 999'999)}).ok());
  }
  return t;
}

// ------------------------------------------------------------ thread pool

TEST(SubmitTaskTest, ReturnsFutures) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.SubmitTask([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(SubmitTaskTest, MovesResultType) {
  ThreadPool pool(1);
  auto future = pool.SubmitTask([] {
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    return v;
  });
  EXPECT_EQ(future.get().size(), 100u);
}

// -------------------------------------------------------------- snapshots

TEST(SnapshotTest, SerializesToCheckpointBytes) {
  Table t = MakeLoadedTable(500);
  t.BeginBatch();
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(t.AppendRow({i}).ok());
  for (RowId r = 0; r < 100; r += 3) ASSERT_TRUE(t.Forget(r).ok());
  for (RowId r = 1; r < 100; r += 7) t.BumpAccess(r);

  SnapshotManager manager;
  const TableSnapshot snap = manager.Capture(t);
  ASSERT_EQ(snap.shards.size(), 1u);
  EXPECT_EQ(SerializeShardSnapshot(*snap.shards[0]), CheckpointTable(t));
  EXPECT_EQ(snap.ingest_cursor, t.lifetime_inserted());
}

TEST(SnapshotTest, EmptyTable) {
  const Table t = Table::Make(Schema::SingleColumn("v", 0, 10)).value();
  SnapshotManager manager;
  const TableSnapshot snap = manager.Capture(t);
  EXPECT_EQ(SerializeShardSnapshot(*snap.shards[0]), CheckpointTable(t));
}

TEST(SnapshotTest, UnchangedShardIsReusedWholesale) {
  Table t = MakeLoadedTable(200);
  SnapshotManager manager;
  const TableSnapshot first = manager.Capture(t);
  EXPECT_EQ(manager.last_stats().shards_recaptured, 1u);
  const TableSnapshot second = manager.Capture(t);
  EXPECT_EQ(manager.last_stats().shards_reused, 1u);
  EXPECT_EQ(manager.last_stats().rows_copied, 0u);
  // Same object, not merely equal bytes.
  EXPECT_EQ(first.shards[0].get(), second.shards[0].get());
}

TEST(SnapshotTest, AppendOnlyDeltaCopiesOnlyTheTail) {
  Table t = MakeLoadedTable(1000);
  SnapshotManager manager;
  (void)manager.Capture(t);

  t.BeginBatch();
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(t.AppendRow({i}).ok());
  const TableSnapshot snap = manager.Capture(t);
  EXPECT_EQ(manager.last_stats().chunks_reused, 1u);
  EXPECT_EQ(manager.last_stats().rows_copied, 100u);
  EXPECT_EQ(SerializeShardSnapshot(*snap.shards[0]), CheckpointTable(t));
}

TEST(SnapshotTest, ForgetsKeepChunksButRefreshBitmap) {
  Table t = MakeLoadedTable(1000);
  SnapshotManager manager;
  (void)manager.Capture(t);

  for (RowId r = 0; r < 500; r += 2) ASSERT_TRUE(t.Forget(r).ok());
  const TableSnapshot snap = manager.Capture(t);
  // Payload untouched: the chunk is shared; only flat state was recopied.
  EXPECT_EQ(manager.last_stats().chunks_reused, 1u);
  EXPECT_EQ(manager.last_stats().rows_copied, 0u);
  EXPECT_EQ(SerializeShardSnapshot(*snap.shards[0]), CheckpointTable(t));
}

TEST(SnapshotTest, ScrubForcesFullRecapture) {
  Table t = MakeLoadedTable(300);
  SnapshotManager manager;
  (void)manager.Capture(t);

  ASSERT_TRUE(t.Forget(5).ok());
  ASSERT_TRUE(t.ScrubRow(5).ok());
  const TableSnapshot snap = manager.Capture(t);
  EXPECT_EQ(manager.last_stats().chunks_reused, 0u);
  EXPECT_EQ(manager.last_stats().rows_copied, 300u);
  EXPECT_EQ(SerializeShardSnapshot(*snap.shards[0]), CheckpointTable(t));
}

TEST(SnapshotTest, CompactionForcesFullRecapture) {
  Table t = MakeLoadedTable(300);
  SnapshotManager manager;
  (void)manager.Capture(t);

  for (RowId r = 0; r < 100; ++r) ASSERT_TRUE(t.Forget(r).ok());
  t.CompactForgotten();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.AppendRow({i}).ok());
  const TableSnapshot snap = manager.Capture(t);
  EXPECT_EQ(manager.last_stats().chunks_reused, 0u);
  EXPECT_EQ(SerializeShardSnapshot(*snap.shards[0]), CheckpointTable(t));
}

TEST(SnapshotTest, AccessBumpInvalidatesEpochButReusesChunks) {
  Table t = MakeLoadedTable(300);
  SnapshotManager manager;
  const TableSnapshot first = manager.Capture(t);

  t.BumpAccess(7);
  const TableSnapshot second = manager.Capture(t);
  // Not reused wholesale (the access counts changed)...
  EXPECT_NE(first.shards[0].get(), second.shards[0].get());
  EXPECT_EQ(manager.last_stats().shards_recaptured, 1u);
  // ...but the payload chunk is shared and the bytes stay faithful.
  EXPECT_EQ(manager.last_stats().chunks_reused, 1u);
  EXPECT_EQ(SerializeShardSnapshot(*second.shards[0]), CheckpointTable(t));
}

TEST(SnapshotTest, ShardedCaptureSkipsUntouchedShards) {
  ShardedTable table =
      ShardedTable::Make(Schema::SingleColumn("v", 0, 1000), 4).value();
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(table.AppendRow({i}).ok());
  SnapshotManager manager;
  (void)manager.Capture(table);

  // Touch only shard 2 (global id = shard 2, local row 0).
  ASSERT_TRUE(table.Forget(MakeGlobalRowId(2, 0)).ok());
  const TableSnapshot snap = manager.Capture(table);
  EXPECT_EQ(manager.last_stats().shards_reused, 3u);
  EXPECT_EQ(manager.last_stats().shards_recaptured, 1u);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(SerializeShardSnapshot(*snap.shards[s]),
              CheckpointTable(table.shard(s)))
        << "shard " << s;
  }
}

// -------------------------------------------------------------- event log

TEST(EventLogTest, CodecRoundTripsEveryKind) {
  std::vector<Event> events;
  Event e;
  e.kind = EventKind::kBeginBatch;
  events.push_back(e);
  e = Event{};
  e.kind = EventKind::kAppendRows;
  e.columns = {{1, 2, 3}, {4, 5, 6}};
  events.push_back(e);
  e = Event{};
  e.kind = EventKind::kForget;
  e.shard = 3;
  e.row = 17;
  e.backend = 2;
  e.payload_col = 1;
  events.push_back(e);
  e = Event{};
  e.kind = EventKind::kScrub;
  e.shard = 1;
  e.row = 4;
  e.value = -9;
  events.push_back(e);
  e = Event{};
  e.kind = EventKind::kCompact;
  e.shard = 2;
  events.push_back(e);
  e = Event{};
  e.kind = EventKind::kDropPartition;
  e.shard = 1;
  e.row = 3;
  e.value = 64;
  events.push_back(e);
  e = Event{};
  e.kind = EventKind::kForgetRows;
  e.shard = 2;
  e.backend = 3;
  e.payload_col = 1;
  e.runs = {{40, 44}, {7, 8}, {12, 19}};
  events.push_back(e);

  for (const Event& original : events) {
    const Event decoded = DecodeEvent(EncodeEvent(original)).value();
    EXPECT_EQ(decoded.kind, original.kind);
    EXPECT_EQ(decoded.shard, original.shard);
    EXPECT_EQ(decoded.row, original.row);
    EXPECT_EQ(decoded.value, original.value);
    EXPECT_EQ(decoded.backend, original.backend);
    EXPECT_EQ(decoded.payload_col, original.payload_col);
    EXPECT_EQ(decoded.columns, original.columns);
    EXPECT_EQ(decoded.runs, original.runs);
  }
}

TEST(EventLogTest, RejectsGarbagePayload) {
  EXPECT_FALSE(DecodeEvent({}).ok());
  EXPECT_FALSE(DecodeEvent({0xFF, 1, 2, 3, 4}).ok());
}

TEST(EventLogTest, RejectsRetiredKindBytes) {
  // Bytes 6 and 7 once named a revive and an access bump, which nothing
  // ever wrote. Each payload below is (kind, shard, row), well formed
  // under the old row-carrying layout.
  for (uint8_t kind : {uint8_t{6}, uint8_t{7}}) {
    std::vector<uint8_t> payload(13, 0);
    payload[0] = kind;
    const Status status = DecodeEvent(payload).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "unknown event kind " + std::to_string(kind));
  }
  // Their neighbours keep their bytes.
  EXPECT_EQ(static_cast<uint8_t>(EventKind::kCompact), 5);
  EXPECT_EQ(static_cast<uint8_t>(EventKind::kDropPartition), 8);
}

TEST(EventLogTest, FileRoundTripAndLsn) {
  ScratchDir dir("amnesia_eventlog_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  EXPECT_EQ(log.next_lsn(), 0u);
  Event e;
  e.kind = EventKind::kForget;
  e.row = 12;
  ASSERT_TRUE(log.Append(e).ok());
  e.kind = EventKind::kCompact;
  ASSERT_TRUE(log.Append(e).ok());
  EXPECT_EQ(log.next_lsn(), 2u);

  const std::vector<Event> read =
      ReadEventLogFile(dir.file("events.log")).value();
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[0].kind, EventKind::kForget);
  EXPECT_EQ(read[0].row, 12u);
  EXPECT_EQ(read[1].kind, EventKind::kCompact);
}

TEST(EventLogTest, TornTailIsDropped) {
  ScratchDir dir("amnesia_eventlog_torn_test");
  {
    EventLog log = EventLog::Open(dir.file("events.log")).value();
    Event e;
    e.kind = EventKind::kForget;
    for (RowId r = 0; r < 10; ++r) {
      e.row = r;
      ASSERT_TRUE(log.Append(e).ok());
    }
  }
  // Tear mid-record: drop the last 3 bytes.
  const auto size = fs::file_size(dir.file("events.log"));
  fs::resize_file(dir.file("events.log"), size - 3);

  const std::vector<Event> read =
      ReadEventLogFile(dir.file("events.log")).value();
  EXPECT_EQ(read.size(), 9u);  // the torn final record is gone
  for (RowId r = 0; r < read.size(); ++r) EXPECT_EQ(read[r].row, r);
}

TEST(EventLogTest, OpenForAppendContinuesPastTornTail) {
  ScratchDir dir("amnesia_eventlog_reopen_test");
  {
    EventLog log = EventLog::Open(dir.file("events.log")).value();
    Event e;
    e.kind = EventKind::kForget;
    e.row = 1;
    ASSERT_TRUE(log.Append(e).ok());
    e.row = 2;
    ASSERT_TRUE(log.Append(e).ok());
  }
  fs::resize_file(dir.file("events.log"),
                  fs::file_size(dir.file("events.log")) - 1);

  EventLog log = EventLog::OpenForAppend(dir.file("events.log")).value();
  EXPECT_EQ(log.next_lsn(), 1u);
  Event e;
  e.kind = EventKind::kForget;
  e.row = 3;
  ASSERT_TRUE(log.Append(e).ok());
  const std::vector<Event> read =
      ReadEventLogFile(dir.file("events.log")).value();
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[1].row, 3u);
}

// ----------------------------------------------------------------- replay

/// Scripted sharded workload with every event journaled; returns the log
/// and the final table so replay can be checked byte-for-byte.
void RunJournaledWorkload(BackendKind backend, EventLog* log,
                          ShardedTable* table) {
  ShardedControllerOptions sopts;
  sopts.dbsize_budget = 600;
  sopts.backend = backend;
  sopts.seed = 99;
  PolicyOptions popts;
  popts.kind = PolicyKind::kFifo;
  ShardedAmnesiaController ctrl =
      ShardedAmnesiaController::Make(sopts, popts, table, nullptr, log)
          .value();

  Rng rng(5);
  for (int round = 0; round < 5; ++round) {
    if (round > 0) {
      table->BeginBatch();
      Event e;
      e.kind = EventKind::kBeginBatch;
      ASSERT_TRUE(log->Append(e).ok());
    }
    std::vector<Value> chunk;
    for (int i = 0; i < 200; ++i) chunk.push_back(rng.UniformInt(0, 9999));
    ASSERT_TRUE(table->AppendColumns({chunk}).ok());
    Event e;
    e.kind = EventKind::kAppendRows;
    e.columns = {chunk};
    ASSERT_TRUE(log->Append(e).ok());
    ASSERT_TRUE(ctrl.EnforceBudget().ok());
    EXPECT_EQ(table->num_active(),
              std::min<uint64_t>(600, 200u * (static_cast<uint64_t>(round) + 1)));
  }
}

TEST(ReplayTest, RebuildsShardedTableBitIdentically) {
  for (const BackendKind backend :
       {BackendKind::kMarkOnly, BackendKind::kDelete}) {
    EventLog log;  // memory-only
    ShardedTable table =
        ShardedTable::Make(Schema::SingleColumn("v", 0, 10000), 4).value();
    RunJournaledWorkload(backend, &log, &table);

    std::vector<Table> replayed;
    for (int s = 0; s < 4; ++s) {
      replayed.push_back(
          Table::Make(Schema::SingleColumn("v", 0, 10000)).value());
    }
    uint64_t cursor = 0;
    ASSERT_TRUE(ReplayEvents(log.events(), 0, &replayed, &cursor).ok());
    EXPECT_EQ(cursor, table.ingest_cursor());

    const ShardedTable rebuilt =
        ShardedTable::FromShards(std::move(replayed), cursor).value();
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)));
    ExpectSameShardedState(rebuilt, table);
  }
}

TEST(ReplayTest, ForgetEventsRefillTierSinks) {
  // Forget into a summary tier through the unsharded controller, then
  // replay the log into a fresh tier and expect identical cells.
  EventLog log;
  Table table = MakeLoadedTable(100, 17);
  SummaryStore summaries;
  FifoPolicy policy;
  ControllerOptions copts;
  copts.dbsize_budget = 60;
  copts.backend = BackendKind::kSummary;
  AmnesiaController ctrl =
      AmnesiaController::Make(copts, &policy, &table, nullptr, nullptr,
                              &summaries)
          .value();
  ctrl.set_event_sink(&log, 0);
  Rng rng(3);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  ASSERT_EQ(table.num_active(), 60u);

  std::vector<Table> replayed;
  replayed.push_back(MakeLoadedTable(100, 17));
  SummaryStore replayed_summaries;
  ReplaySinks sinks;
  sinks.summaries = &replayed_summaries;
  uint64_t cursor = replayed[0].lifetime_inserted();
  ASSERT_TRUE(ReplayEvents(log.events(), 0, &replayed, &cursor, sinks).ok());
  EXPECT_EQ(CheckpointSummaryStore(replayed_summaries),
            CheckpointSummaryStore(summaries));
  EXPECT_EQ(CheckpointTable(replayed[0]), CheckpointTable(table));
}

/// Rewrites every kForgetRows record as the per-row kForget (+ kScrub to
/// 0 under kDelete) sequence that journaled a sweep before one record
/// covered it.
std::vector<Event> ExpandForgetRows(const std::vector<Event>& events) {
  std::vector<Event> out;
  for (const Event& e : events) {
    if (e.kind != EventKind::kForgetRows) {
      out.push_back(e);
      continue;
    }
    for (const RowRun& run : e.runs) {
      for (RowId r = run.lo; r < run.hi; ++r) {
        Event forget;
        forget.kind = EventKind::kForget;
        forget.shard = e.shard;
        forget.row = r;
        forget.backend = e.backend;
        forget.payload_col = e.payload_col;
        out.push_back(forget);
        if (e.backend == static_cast<uint8_t>(BackendKind::kDelete)) {
          Event scrub;
          scrub.kind = EventKind::kScrub;
          scrub.shard = e.shard;
          scrub.row = r;
          out.push_back(scrub);
        }
      }
    }
  }
  return out;
}

/// Replays `events` onto MakeLoadedTable(rows, seed) with fresh tiers and
/// returns the table, cold-store and summary blobs.
struct ReplayedBlobs {
  std::vector<uint8_t> table;
  std::vector<uint8_t> cold;
  std::vector<uint8_t> summaries;
};
ReplayedBlobs ReplayOntoLoadedTable(const std::vector<Event>& events,
                                    uint64_t rows, uint64_t seed) {
  std::vector<Table> tables;
  tables.push_back(MakeLoadedTable(rows, seed));
  ColdStore cold;
  SummaryStore summaries;
  ReplaySinks sinks;
  sinks.cold = &cold;
  sinks.summaries = &summaries;
  uint64_t cursor = rows;
  EXPECT_TRUE(ReplayEvents(events, 0, &tables, &cursor, sinks).ok());
  return {CheckpointTable(tables[0]), CheckpointColdStore(cold),
          CheckpointSummaryStore(summaries)};
}

TEST(ReplayTest, ForgetRowsRecordReplaysLikeTheEventsItReplaced) {
  // Two sweeps per backend: a uniform one (scattered victims in random
  // order, many runs) and a vacuum (ascending victims around the holes
  // the first left). Each must journal exactly one kForgetRows record,
  // and replaying the records, or the equivalent per-row kForget/kScrub
  // sequence, must rebuild the live table and tiers byte for byte.
  constexpr uint64_t kRows = 400;
  constexpr uint64_t kSeed = 23;
  for (const BackendKind backend :
       {BackendKind::kMarkOnly, BackendKind::kDelete,
        BackendKind::kColdStorage, BackendKind::kSummary}) {
    SCOPED_TRACE(std::string(BackendKindToString(backend)));
    EventLog log;
    Table table = MakeLoadedTable(kRows, kSeed);
    ColdStore cold;
    SummaryStore summaries;
    UniformPolicy policy;
    ControllerOptions copts;
    copts.dbsize_budget = 250;
    copts.backend = backend;
    copts.compact_every_n_rounds = 0;
    AmnesiaController ctrl =
        AmnesiaController::Make(copts, &policy, &table, nullptr, &cold,
                                &summaries)
            .value();
    ctrl.set_event_sink(&log, 0);
    Rng rng(8);
    ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
    for (int b = 0; b < 3; ++b) {
      table.BeginBatch();
      Event begin;
      begin.kind = EventKind::kBeginBatch;
      ASSERT_TRUE(log.Append(begin).ok());
    }
    ASSERT_EQ(ctrl.VacuumExpired(1).value(), 250u);

    std::vector<const Event*> sweeps;
    for (const Event& e : log.events()) {
      EXPECT_NE(e.kind, EventKind::kForget);
      EXPECT_NE(e.kind, EventKind::kScrub);
      if (e.kind == EventKind::kForgetRows) sweeps.push_back(&e);
    }
    ASSERT_EQ(sweeps.size(), 2u);
    EXPECT_GT(sweeps[0]->runs.size(), 10u);
    uint64_t swept = 0;
    for (const Event* e : sweeps) {
      EXPECT_EQ(e->backend, static_cast<uint8_t>(backend));
      for (const RowRun& run : e->runs) swept += run.hi - run.lo;
    }
    EXPECT_EQ(swept, kRows);

    const ReplayedBlobs one_record =
        ReplayOntoLoadedTable(log.events(), kRows, kSeed);
    const ReplayedBlobs per_row =
        ReplayOntoLoadedTable(ExpandForgetRows(log.events()), kRows, kSeed);
    EXPECT_EQ(one_record.table, CheckpointTable(table));
    EXPECT_EQ(one_record.table, per_row.table);
    EXPECT_EQ(one_record.cold, CheckpointColdStore(cold));
    EXPECT_EQ(one_record.cold, per_row.cold);
    EXPECT_EQ(one_record.summaries, CheckpointSummaryStore(summaries));
    EXPECT_EQ(one_record.summaries, per_row.summaries);
  }
}

/// Picks every other active row from the start, so k victims are k runs.
class EveryOtherRowPolicy final : public AmnesiaPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kUniform; }
  StatusOr<std::vector<RowId>> SelectVictims(const Table& table, size_t k,
                                             Rng* rng) override {
    (void)rng;
    std::vector<RowId> victims;
    for (RowId r = 0; r < table.num_rows() && victims.size() < k; r += 2) {
      if (table.IsActive(r)) victims.push_back(r);
    }
    return victims;
  }
};

TEST(ReplayTest, SweepPastTheRunCapWritesSeveralRecords) {
  constexpr uint64_t kExtra = 7;
  constexpr uint64_t kVictims = kMaxForgetRunsPerRecord + kExtra;
  constexpr uint64_t kRows = 2 * kVictims;
  EventLog log;
  Table table = MakeLoadedTable(kRows, 31);
  EveryOtherRowPolicy policy;
  ControllerOptions copts;
  copts.dbsize_budget = kRows - kVictims;
  copts.backend = BackendKind::kDelete;
  copts.compact_every_n_rounds = 0;
  AmnesiaController ctrl =
      AmnesiaController::Make(copts, &policy, &table).value();
  ctrl.set_event_sink(&log, 0);
  Rng rng(1);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());

  ASSERT_EQ(log.events().size(), 2u);
  const Event& first = log.events()[0];
  const Event& second = log.events()[1];
  ASSERT_EQ(first.kind, EventKind::kForgetRows);
  ASSERT_EQ(second.kind, EventKind::kForgetRows);
  EXPECT_EQ(first.runs.size(), kMaxForgetRunsPerRecord);
  EXPECT_EQ(second.runs.size(), kExtra);
  // Victim order carries across the split.
  EXPECT_EQ(first.runs.back().lo + 2, second.runs.front().lo);
  // A full record stays far below the frame limit.
  EXPECT_LT(EncodeEvent(first).size(), size_t{2} << 20);

  std::vector<Table> replayed;
  replayed.push_back(MakeLoadedTable(kRows, 31));
  uint64_t cursor = kRows;
  ASSERT_TRUE(ReplayEvents(log.events(), 0, &replayed, &cursor).ok());
  EXPECT_EQ(CheckpointTable(replayed[0]), CheckpointTable(table));
}

// ------------------------------------------------------------ checkpointer

TEST(CheckpointerTest, AsyncRoundTripWithIncrementalSkip) {
  ScratchDir dir("amnesia_ckpt_roundtrip_test");
  ThreadPool pool(2);
  ShardedTable table =
      ShardedTable::Make(Schema::SingleColumn("v", 0, 100000), 4).value();
  Rng rng(21);
  std::vector<Value> chunk;
  for (int i = 0; i < 1000; ++i) chunk.push_back(rng.UniformInt(0, 99999));
  ASSERT_TRUE(table.AppendColumns({chunk}).ok());

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.pool = &pool;
  opts.async = true;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, /*covered_lsn=*/0).ok());
  ASSERT_TRUE(ckpt.WaitIdle().ok());
  EXPECT_EQ(ckpt.stats().checkpoints, 1u);
  EXPECT_EQ(ckpt.stats().shards_written, 4u);

  // Mutate one shard only; the second checkpoint rewrites just that blob.
  ASSERT_TRUE(table.Forget(MakeGlobalRowId(1, 0)).ok());
  ASSERT_TRUE(ckpt.Checkpoint(table, /*covered_lsn=*/0).ok());
  ASSERT_TRUE(ckpt.WaitIdle().ok());
  EXPECT_EQ(ckpt.stats().checkpoints, 2u);
  EXPECT_EQ(ckpt.stats().shards_written, 5u);
  EXPECT_EQ(ckpt.stats().shards_skipped, 3u);

  RecoveredState state = Recover(dir.path(), "").value();
  EXPECT_EQ(state.checkpoint_id, 2u);
  EXPECT_EQ(state.events_replayed, 0u);
  const ShardedTable recovered =
      ShardedTable::FromShards(std::move(state.shards), state.ingest_cursor)
          .value();
  ExpectSameShardedState(recovered, table);
}

TEST(CheckpointerTest, RecoverReplaysLogTail) {
  ScratchDir dir("amnesia_ckpt_replay_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedTable(100, 31);

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

  // Post-checkpoint mutations, journaled but never checkpointed.
  FifoPolicy policy;
  ControllerOptions copts;
  copts.dbsize_budget = 70;
  copts.backend = BackendKind::kDelete;
  AmnesiaController ctrl =
      AmnesiaController::Make(copts, &policy, &table).value();
  ctrl.set_event_sink(&log, 0);
  Rng rng(9);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());

  RecoveredState state =
      Recover(dir.path(), dir.file("events.log")).value();
  EXPECT_GT(state.events_replayed, 0u);
  ASSERT_EQ(state.shards.size(), 1u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
}

TEST(CheckpointerTest, TruncatedManifestFallsBackToOlderCheckpoint) {
  ScratchDir dir("amnesia_ckpt_truncated_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedTable(50, 41);

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

  // Journal a forget, then checkpoint again.
  Event e;
  e.kind = EventKind::kForget;
  e.row = 3;
  e.backend = static_cast<uint8_t>(BackendKind::kMarkOnly);
  ASSERT_TRUE(table.Forget(3).ok());
  ASSERT_TRUE(log.Append(e).ok());
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

  // Truncate the newest manifest; recovery must fall back to checkpoint 1
  // and reach the same state through a longer replay.
  fs::resize_file(dir.file("MANIFEST-2"),
                  fs::file_size(dir.file("MANIFEST-2")) / 2);
  RecoveredState state =
      Recover(dir.path(), dir.file("events.log")).value();
  EXPECT_EQ(state.checkpoint_id, 1u);
  EXPECT_EQ(state.events_replayed, 1u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
}

TEST(CheckpointerTest, CorruptBlobFallsBack) {
  ScratchDir dir("amnesia_ckpt_corrupt_blob_test");
  Table table = MakeLoadedTable(50, 43);
  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());
  ASSERT_TRUE(table.Forget(0).ok());
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());

  // Flip a byte inside checkpoint 2's blob: its manifest fails blob
  // verification and recovery falls back to checkpoint 1.
  {
    std::fstream f(dir.file("ckpt-2-shard-0.blob"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(40);
    const int byte = f.get();
    f.seekp(40);
    f.put(static_cast<char>(byte ^ 0x55));
  }
  RecoveredState state = Recover(dir.path(), "").value();
  EXPECT_EQ(state.checkpoint_id, 1u);
}

TEST(CheckpointerTest, EmptyDirIsNotFound) {
  ScratchDir dir("amnesia_ckpt_empty_test");
  EXPECT_EQ(Recover(dir.path(), "").status().code(), StatusCode::kNotFound);
}

TEST(CheckpointerTest, MissingLogRestoresSnapshotOnly) {
  // A manifest covering N events plus no log file at all is a complete
  // state: the snapshot already contains those N events' effects.
  ScratchDir dir("amnesia_ckpt_missing_log_test");
  Table table = MakeLoadedTable(30, 51);
  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, /*covered_lsn=*/99).ok());

  RecoveredState state =
      Recover(dir.path(), dir.file("never_written.log")).value();
  EXPECT_EQ(state.events_replayed, 0u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
}

TEST(CheckpointerTest, ShortLogFailsManifestInsteadOfSilentLoss) {
  // A log that EXISTS but holds fewer events than the manifest covers has
  // lost records; recovery must not silently restore anyway.
  ScratchDir dir("amnesia_ckpt_short_log_test");
  Table table = MakeLoadedTable(30, 53);
  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, /*covered_lsn=*/5).ok());
  {
    EventLog log = EventLog::Open(dir.file("events.log")).value();
    Event e;
    e.kind = EventKind::kCompact;
    ASSERT_TRUE(log.Append(e).ok());  // 1 event < covered_lsn 5
  }
  EXPECT_FALSE(Recover(dir.path(), dir.file("events.log")).ok());
}

TEST(ReplayTest, MismatchedLogSurfacesStatusNotCrash) {
  // Events addressing rows/columns the restored snapshot does not have
  // (wrong log for this snapshot) must fail cleanly, including the tier
  // re-route path that reads payload before forgetting.
  std::vector<Table> tables;
  tables.push_back(MakeLoadedTable(10, 57));
  uint64_t cursor = 10;
  ColdStore cold;
  ReplaySinks sinks;
  sinks.cold = &cold;

  Event forget;
  forget.kind = EventKind::kForget;
  forget.row = 99;  // beyond num_rows
  forget.backend = static_cast<uint8_t>(BackendKind::kColdStorage);
  EXPECT_EQ(ReplayEvent(forget, &tables, &cursor, sinks).code(),
            StatusCode::kInvalidArgument);

  forget.row = 3;
  forget.payload_col = 7;  // beyond num_columns
  EXPECT_EQ(ReplayEvent(forget, &tables, &cursor, sinks).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cold.size(), 0u);
}

TEST(CheckpointerTest, UnwritableDirSurfacesStatus) {
  CheckpointerOptions opts;
  opts.dir = "/proc/definitely/not/writable";
  EXPECT_FALSE(BackgroundCheckpointer::Make(opts).ok());
}

TEST(CheckpointerTest, AsyncWriteFailureSurfacesOnWait) {
  ScratchDir dir("amnesia_ckpt_asyncfail_test");
  Table table = MakeLoadedTable(20, 47);
  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = true;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  // Yank the directory out from under the background writer.
  fs::remove_all(dir.path());
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());  // capture itself succeeds
  EXPECT_FALSE(ckpt.WaitIdle().ok());
}

TEST(ManifestTest, CodecRejectsTruncation) {
  Manifest manifest;
  manifest.id = 7;
  manifest.covered_lsn = 123;
  manifest.ingest_cursor = 456;
  manifest.shards.push_back(VectorShard(9, "ckpt-7-shard-0.blob", 100, 42));
  const std::vector<uint8_t> bytes = EncodeManifest(manifest);

  const Manifest decoded = DecodeManifest(bytes).value();
  EXPECT_EQ(decoded.id, 7u);
  EXPECT_EQ(decoded.covered_lsn, 123u);
  EXPECT_EQ(decoded.ingest_cursor, 456u);
  ASSERT_EQ(decoded.shards.size(), 1u);
  EXPECT_EQ(decoded.shards[0].filename, "ckpt-7-shard-0.blob");

  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{3}}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_EQ(DecodeManifest(truncated).status().code(),
              StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
  std::vector<uint8_t> corrupt = bytes;
  corrupt[10] ^= 0x55;
  EXPECT_FALSE(DecodeManifest(corrupt).ok());
}

// ----------------------------------------------- event-log truncation (v2)

Event ForgetEvent(RowId row, BackendKind backend = BackendKind::kMarkOnly) {
  Event e;
  e.kind = EventKind::kForget;
  e.row = row;
  e.backend = static_cast<uint8_t>(backend);
  e.payload_col = 0;
  return e;
}

TEST(EventLogTruncateTest, DropsPrefixAndKeepsLsnsStable) {
  ScratchDir dir("amnesia_eventlog_truncate_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  for (RowId r = 0; r < 10; ++r) ASSERT_TRUE(log.Append(ForgetEvent(r)).ok());

  ASSERT_TRUE(log.TruncateBefore(4).ok());
  EXPECT_EQ(log.base_lsn(), 4u);
  EXPECT_EQ(log.next_lsn(), 10u);  // LSNs are stable across truncation
  ASSERT_EQ(log.events().size(), 6u);
  EXPECT_EQ(log.events()[0].row, 4u);

  // Appends continue in the rewritten file at the old LSN sequence.
  ASSERT_TRUE(log.Append(ForgetEvent(10)).ok());
  EXPECT_EQ(log.next_lsn(), 11u);

  const EventLogContents contents =
      ReadEventLogContents(dir.file("events.log")).value();
  EXPECT_EQ(contents.base_lsn, 4u);
  ASSERT_EQ(contents.events.size(), 7u);
  EXPECT_EQ(contents.events.front().row, 4u);
  EXPECT_EQ(contents.events.back().row, 10u);
  EXPECT_EQ(contents.next_lsn(), 11u);
}

TEST(EventLogTruncateTest, MemoryOnlyAndEdgeCases) {
  EventLog log;  // memory-only
  for (RowId r = 0; r < 6; ++r) ASSERT_TRUE(log.Append(ForgetEvent(r)).ok());
  ASSERT_TRUE(log.TruncateBefore(3).ok());
  EXPECT_EQ(log.base_lsn(), 3u);
  EXPECT_EQ(log.next_lsn(), 6u);
  // Truncating below the base is a no-op, not a rewind.
  ASSERT_TRUE(log.TruncateBefore(1).ok());
  EXPECT_EQ(log.base_lsn(), 3u);
  // Truncating to exactly next_lsn drops everything retained.
  ASSERT_TRUE(log.TruncateBefore(6).ok());
  EXPECT_EQ(log.events().size(), 0u);
  EXPECT_EQ(log.next_lsn(), 6u);
  // Beyond next_lsn is a caller bug.
  EXPECT_EQ(log.TruncateBefore(7).code(), StatusCode::kInvalidArgument);
}

TEST(EventLogTruncateTest, OpenForAppendPreservesBaseAndDropsTornTail) {
  ScratchDir dir("amnesia_eventlog_truncate_reopen_test");
  {
    EventLog log = EventLog::Open(dir.file("events.log")).value();
    for (RowId r = 0; r < 8; ++r) {
      ASSERT_TRUE(log.Append(ForgetEvent(r)).ok());
    }
    ASSERT_TRUE(log.TruncateBefore(5).ok());
  }
  // Tear the final frame, as a crash mid-append would.
  fs::resize_file(dir.file("events.log"),
                  fs::file_size(dir.file("events.log")) - 2);

  EventLog log = EventLog::OpenForAppend(dir.file("events.log")).value();
  EXPECT_EQ(log.base_lsn(), 5u);
  EXPECT_EQ(log.next_lsn(), 7u);  // row-7 frame was torn off
  ASSERT_TRUE(log.Append(ForgetEvent(9)).ok());

  const EventLogContents contents =
      ReadEventLogContents(dir.file("events.log")).value();
  EXPECT_EQ(contents.base_lsn, 5u);
  ASSERT_EQ(contents.events.size(), 3u);
  EXPECT_EQ(contents.events[0].row, 5u);
  EXPECT_EQ(contents.events[2].row, 9u);
}

TEST(EventLogTruncateTest, SafeAgainstConcurrentAppends) {
  ScratchDir dir("amnesia_eventlog_truncate_race_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  constexpr RowId kAppends = 400;

  std::thread appender([&log] {
    for (RowId r = 0; r < kAppends; ++r) {
      ASSERT_TRUE(log.Append(ForgetEvent(r)).ok());
    }
  });
  // Truncate repeatedly while the appender runs; every point is at or
  // below the LSNs appended so far, so no request can outrun the log.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(log.TruncateBefore(log.next_lsn() / 2).ok());
  }
  appender.join();

  // Whatever survived is a gapless LSN-ordered suffix, identical in
  // memory and on disk.
  const EventLogContents contents =
      ReadEventLogContents(dir.file("events.log")).value();
  EXPECT_EQ(contents.base_lsn, log.base_lsn());
  EXPECT_EQ(contents.next_lsn(), kAppends);
  ASSERT_EQ(contents.events.size(), log.events().size());
  for (size_t i = 0; i < contents.events.size(); ++i) {
    EXPECT_EQ(contents.events[i].row, contents.base_lsn + i);
  }
}

TEST(EventLogTruncateTest, CrashThenAppendThenRecover) {
  // A torn tail must be physically truncated before new appends land, or
  // the post-crash suffix would sit behind garbage and never be read.
  ScratchDir dir("amnesia_eventlog_crash_append_recover_test");
  Table table = MakeLoadedTable(20, 77);
  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, /*covered_lsn=*/0).ok());
  {
    EventLog log = EventLog::Open(dir.file("events.log")).value();
    ASSERT_TRUE(log.Append(ForgetEvent(0)).ok());
    ASSERT_TRUE(log.Append(ForgetEvent(1)).ok());
  }
  // Crash tears the forget-1 frame: the log only proves forget 0.
  fs::resize_file(dir.file("events.log"),
                  fs::file_size(dir.file("events.log")) - 3);

  // The recovering process reopens for append and keeps going.
  {
    EventLog log = EventLog::OpenForAppend(dir.file("events.log")).value();
    EXPECT_EQ(log.next_lsn(), 1u);
    ASSERT_TRUE(log.Append(ForgetEvent(2)).ok());
  }

  // The next recovery must see forget 0 AND the post-crash forget 2.
  Table expected = MakeLoadedTable(20, 77);
  ASSERT_TRUE(expected.Forget(0).ok());
  ASSERT_TRUE(expected.Forget(2).ok());
  RecoveredState state =
      Recover(dir.path(), dir.file("events.log")).value();
  EXPECT_EQ(state.events_replayed, 2u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(expected));
}

// ---------------------------------------------------------- manifest tiers

TEST(ManifestTest, V2RoundTripsTierEntries) {
  Manifest manifest;
  manifest.id = 11;
  manifest.covered_lsn = 7;
  manifest.ingest_cursor = 40;
  manifest.shards.push_back(VectorShard(3, "ckpt-11-shard-0.blob", 64, 9));
  manifest.cold = ManifestBlob{"ckpt-11-cold.blob", 128, 77};
  manifest.summary = ManifestBlob{"ckpt-9-summary.blob", 32, 5};

  const std::vector<uint8_t> bytes = EncodeManifest(manifest);
  const Manifest decoded = DecodeManifest(bytes).value();
  ASSERT_TRUE(decoded.cold.present());
  EXPECT_EQ(decoded.cold.filename, "ckpt-11-cold.blob");
  EXPECT_EQ(decoded.cold.size, 128u);
  EXPECT_EQ(decoded.cold.crc32, 77u);
  ASSERT_TRUE(decoded.summary.present());
  EXPECT_EQ(decoded.summary.filename, "ckpt-9-summary.blob");

  for (size_t cut : {bytes.size() - 1, bytes.size() - 6, bytes.size() / 2}) {
    std::vector<uint8_t> truncated(
        bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DecodeManifest(truncated).ok()) << "cut at " << cut;
  }
}

/// Writes a manifest in the version-2 layout (tier entries, no
/// mapped-storage fields) that earlier binaries wrote for every run
/// without a mapped shard. `version` is stamped as given, so the same bytes
/// can pose as another version.
std::vector<uint8_t> EncodeManifestV2(const Manifest& manifest,
                                      uint32_t version = 2) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  w.U32(0x414D4D46);  // kManifestMagic
  w.U32(version);
  w.U64(manifest.id);
  w.U64(manifest.covered_lsn);
  w.U64(manifest.ingest_cursor);
  w.U64(manifest.shards.size());
  for (const ManifestShard& shard : manifest.shards) {
    w.U64(shard.epoch);
    w.String(shard.filename);
    w.U64(shard.size);
    w.U32(shard.crc32);
  }
  for (const ManifestBlob* blob : {&manifest.cold, &manifest.summary}) {
    w.U8(blob->present() ? 1 : 0);
    if (!blob->present()) continue;
    w.String(blob->filename);
    w.U64(blob->size);
    w.U32(blob->crc32);
  }
  w.U32(ckpt::Crc32(out));
  return out;
}

TEST(ManifestTest, V2DirectoryStillRecovers) {
  // A checkpoint directory whose newest manifest is version 2 (what a
  // vector-storage run of an earlier binary wrote) must recover exactly as
  // before.
  ScratchDir dir("amnesia_manifest_v2_compat_test");
  Table table = MakeLoadedTable(60, 83);
  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, /*covered_lsn=*/0).ok());

  // Re-point the directory at a hand-written v2 manifest referencing the
  // same shard blob.
  const std::vector<uint8_t> blob =
      ReadBytesFile(dir.file("ckpt-1-shard-0.blob")).value();
  Manifest v2;
  v2.id = 2;
  v2.covered_lsn = 0;
  v2.ingest_cursor = table.lifetime_inserted();
  v2.shards.push_back(VectorShard(SnapshotManager::EpochOf(table),
                                  "ckpt-1-shard-0.blob", blob.size(),
                                  ckpt::Crc32(blob)));
  ASSERT_TRUE(
      WriteBytesFileAtomic(EncodeManifestV2(v2), dir.file("MANIFEST-2")).ok());
  const std::string current = "MANIFEST-2";
  ASSERT_TRUE(WriteBytesFileAtomic(
                  std::vector<uint8_t>(current.begin(), current.end()),
                  dir.file("CURRENT"))
                  .ok());

  RecoveredState state = Recover(dir.path(), "").value();
  EXPECT_EQ(state.checkpoint_id, 2u);
  EXPECT_FALSE(state.cold.has_value());
  EXPECT_FALSE(state.summaries.has_value());
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));

  // Any version other than 2 and 3 is refused by name, not misparsed.
  for (uint32_t version : {1u, 4u}) {
    const StatusOr<Manifest> other =
        DecodeManifest(EncodeManifestV2(v2, version));
    ASSERT_FALSE(other.ok()) << "version " << version;
    EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition);
  }
}

/// Forgets `row` through `backend` as a controller sweep does for one row
/// — tier re-route, then table flip — journaled as the per-row kForget
/// event older logs hold, so replay has a faithful trace covering BOTH
/// tiers in one log.
void JournalForget(RowId row, BackendKind backend, Table* table,
                   ColdStore* cold, SummaryStore* summaries, EventLog* log) {
  if (backend == BackendKind::kColdStorage) {
    cold->Put(ColdTuple{row, table->value(0, row), table->insert_tick(row),
                        table->batch_of(row)});
  } else if (backend == BackendKind::kSummary) {
    summaries->AddForgotten(0, table->batch_of(row), table->value(0, row));
  }
  ASSERT_TRUE(table->Forget(row).ok());
  ASSERT_TRUE(log->Append(ForgetEvent(row, backend)).ok());
}

TEST(CheckpointerTest, TiersCommitAndRecoverWithTheTable) {
  ScratchDir dir("amnesia_ckpt_tier_roundtrip_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedTable(100, 91);
  ColdStore cold;
  SummaryStore summaries;

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();

  // Checkpointed forgets (below the covered LSN)...
  for (RowId r = 0; r < 10; ++r) {
    JournalForget(r, r % 2 == 0 ? BackendKind::kColdStorage
                                : BackendKind::kSummary,
                  &table, &cold, &summaries, &log);
  }
  ASSERT_TRUE(
      ckpt.Checkpoint(table, log.next_lsn(), TierSet{&cold, &summaries}).ok());
  EXPECT_EQ(ckpt.stats().tier_blobs_written, 2u);

  // ...plus post-checkpoint forgets that only the log records.
  for (RowId r = 10; r < 16; ++r) {
    JournalForget(r, r % 2 == 0 ? BackendKind::kColdStorage
                                : BackendKind::kSummary,
                  &table, &cold, &summaries, &log);
  }

  // One Recover() restores table, cold store and summary store together,
  // re-routing the tail's forget events into the restored tiers.
  RecoveredState state =
      Recover(dir.path(), dir.file("events.log")).value();
  EXPECT_GT(state.events_replayed, 0u);
  ASSERT_TRUE(state.cold.has_value());
  ASSERT_TRUE(state.summaries.has_value());
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
  EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold));
  EXPECT_EQ(CheckpointSummaryStore(*state.summaries),
            CheckpointSummaryStore(summaries));
}

TEST(CheckpointerTest, UnchangedTierBlobsAreReused) {
  ScratchDir dir("amnesia_ckpt_tier_skip_test");
  Table table = MakeLoadedTable(80, 93);
  ColdStore cold;
  cold.Put(ColdTuple{0, 5, 0, 0});
  SummaryStore summaries;
  summaries.AddForgotten(0, 1, 42);

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, 0, TierSet{&cold, &summaries}).ok());
  // Mutate only the table; the tier bytes are unchanged and the second
  // manifest must reference checkpoint 1's tier blobs.
  ASSERT_TRUE(table.Forget(3).ok());
  ASSERT_TRUE(ckpt.Checkpoint(table, 0, TierSet{&cold, &summaries}).ok());
  EXPECT_EQ(ckpt.stats().tier_blobs_written, 2u);
  EXPECT_EQ(ckpt.stats().tier_blobs_skipped, 2u);

  const Manifest m2 =
      DecodeManifest(ReadBytesFile(dir.file("MANIFEST-2")).value()).value();
  EXPECT_EQ(m2.cold.filename, "ckpt-1-cold.blob");
  EXPECT_EQ(m2.summary.filename, "ckpt-1-summary.blob");
  // And the reused references still restore.
  RecoveredState state = Recover(dir.path(), "").value();
  EXPECT_EQ(state.checkpoint_id, 2u);
  EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold));
}

TEST(CheckpointerTest, TierSkipCacheDoesNotOutliveUntieredCheckpoints) {
  // Regression: ckpt 1 writes a tier blob, ckpt 2 runs WITHOUT tiers (so
  // retention GC deletes the now-unreferenced tier blob), ckpt 3 passes
  // the tier again with unchanged bytes. A stale skip cache would make
  // manifest 3 reference the deleted file and leave the directory
  // unrecoverable; the cache must be dropped with the tier.
  ScratchDir dir("amnesia_ckpt_tier_cache_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedTable(50, 99);
  ColdStore cold;
  cold.Put(ColdTuple{0, 7, 0, 0});

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  opts.retain = 1;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, 0, TierSet{&cold, nullptr}).ok());
  ASSERT_TRUE(table.Forget(1).ok());
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());  // no tiers
  EXPECT_FALSE(fs::exists(dir.file("ckpt-1-cold.blob")));  // GC'd
  ASSERT_TRUE(table.Forget(2).ok());
  ASSERT_TRUE(ckpt.Checkpoint(table, 0, TierSet{&cold, nullptr}).ok());

  RecoveredState state = Recover(dir.path(), "").value();
  EXPECT_EQ(state.checkpoint_id, 3u);
  ASSERT_TRUE(state.cold.has_value());
  EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold));
}

// ------------------------------------------------------------ retention GC

/// Returns the MANIFEST-<id> ids present in `dir`, ascending.
std::vector<uint64_t> ManifestIdsIn(const std::string& dir) {
  std::vector<uint64_t> ids;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("MANIFEST-", 0) == 0) {
      ids.push_back(std::strtoull(name.substr(9).c_str(), nullptr, 10));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Asserts every ckpt-*.blob in `dir` is referenced by a manifest there.
void ExpectNoOrphanBlobs(const std::string& dir) {
  std::set<std::string> referenced;
  for (uint64_t id : ManifestIdsIn(dir)) {
    const Manifest m =
        DecodeManifest(
            ReadBytesFile(dir + "/MANIFEST-" + std::to_string(id)).value())
            .value();
    for (const ManifestShard& shard : m.shards) {
      referenced.insert(shard.filename);
    }
    if (m.cold.present()) referenced.insert(m.cold.filename);
    if (m.summary.present()) referenced.insert(m.summary.filename);
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 &&
        name.rfind(".blob") == name.size() - 5) {
      EXPECT_TRUE(referenced.count(name) > 0) << "orphan blob " << name;
    }
  }
}

TEST(RetentionTest, GcBoundsManifestsBlobsAndLog) {
  ScratchDir dir("amnesia_retention_gc_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedTable(300, 71);
  ColdStore cold;
  SummaryStore summaries;

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  opts.retain = 2;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();

  RowId next = 0;
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < 5; ++k, ++next) {
      JournalForget(next, next % 2 == 0 ? BackendKind::kColdStorage
                                        : BackendKind::kSummary,
                    &table, &cold, &summaries, &log);
    }
    ASSERT_TRUE(
        ckpt.Checkpoint(table, log.next_lsn(), TierSet{&cold, &summaries})
            .ok());
  }

  // After 6 checkpoints with retention 2: exactly manifests 5 and 6, no
  // orphan blobs, and the log starts at checkpoint 5's covered LSN.
  const std::vector<uint64_t> ids = ManifestIdsIn(dir.path());
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 5u);
  EXPECT_EQ(ids[1], 6u);
  ExpectNoOrphanBlobs(dir.path());
  const Manifest oldest =
      DecodeManifest(ReadBytesFile(dir.file("MANIFEST-5")).value()).value();
  const EventLogContents contents =
      ReadEventLogContents(dir.file("events.log")).value();
  EXPECT_EQ(contents.base_lsn, oldest.covered_lsn);
  EXPECT_EQ(contents.next_lsn(), log.next_lsn());
  EXPECT_EQ(ckpt.stats().manifests_gced, 4u);
  EXPECT_GT(ckpt.stats().blobs_gced, 0u);

  // The bounded directory still recovers the full state bit-identically.
  RecoveredState state =
      Recover(dir.path(), dir.file("events.log")).value();
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
  EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold));
  EXPECT_EQ(CheckpointSummaryStore(*state.summaries),
            CheckpointSummaryStore(summaries));
}

TEST(RetentionTest, FallbackManifestSurvivesGcWindow) {
  // Corrupting the newest manifest after GC must still leave the older
  // retained manifest + the log suffix able to reach the same state —
  // retention may never truncate the log past what fallback needs.
  ScratchDir dir("amnesia_retention_fallback_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedTable(120, 97);
  ColdStore cold;
  SummaryStore summaries;

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  opts.retain = 2;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  RowId next = 0;
  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < 4; ++k, ++next) {
      JournalForget(next, BackendKind::kColdStorage, &table, &cold,
                    &summaries, &log);
    }
    ASSERT_TRUE(
        ckpt.Checkpoint(table, log.next_lsn(), TierSet{&cold, &summaries})
            .ok());
  }

  fs::resize_file(dir.file("MANIFEST-4"),
                  fs::file_size(dir.file("MANIFEST-4")) / 2);
  RecoveredState state =
      Recover(dir.path(), dir.file("events.log")).value();
  EXPECT_EQ(state.checkpoint_id, 3u);
  EXPECT_GT(state.events_replayed, 0u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
  EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold));
}

TEST(RetentionTest, CrashPointMatrixRecoversBitIdentically) {
  // Kill the writer between every pair of commit steps — after the shard
  // blobs, the tier blobs, the manifest rename, the CURRENT update, and
  // the GC deletions (before log truncation) — and assert one Recover()
  // reaches the exact live state every time.
  for (const char* phase :
       {"shard-blobs", "tier-blobs", "manifest", "current", "gc"}) {
    ScratchDir dir(std::string("amnesia_crashpoint_") + phase + "_test");
    EventLog log = EventLog::Open(dir.file("events.log")).value();
    Table table = MakeLoadedTable(200, 73);
    ColdStore cold;
    SummaryStore summaries;

    bool armed = false;
    CheckpointerOptions opts;
    opts.dir = dir.path();
    opts.async = false;
    opts.retain = 2;
    opts.log = &log;
    opts.test_crash_hook = [&armed, phase](const char* p) {
      return armed && std::strcmp(p, phase) == 0;
    };
    BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();

    RowId next = 0;
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < 6; ++k, ++next) {
        JournalForget(next, next % 2 == 0 ? BackendKind::kColdStorage
                                          : BackendKind::kSummary,
                      &table, &cold, &summaries, &log);
      }
      armed = round == 3;  // the final checkpoint dies mid-write
      const Status status = ckpt.Checkpoint(
          table, log.next_lsn(), TierSet{&cold, &summaries});
      if (round == 3) {
        EXPECT_FALSE(status.ok()) << phase;
      } else {
        ASSERT_TRUE(status.ok()) << phase;
      }
    }

    RecoveredState state =
        Recover(dir.path(), dir.file("events.log")).value();
    ASSERT_EQ(state.shards.size(), 1u);
    ASSERT_TRUE(state.cold.has_value());
    ASSERT_TRUE(state.summaries.has_value());
    EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table))
        << phase;
    EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold))
        << phase;
    EXPECT_EQ(CheckpointSummaryStore(*state.summaries),
              CheckpointSummaryStore(summaries))
        << phase;
  }
}

TEST(RetentionTest, MappedCrashPointMatrixRecoversBitIdentically) {
  // The same kill-between-every-commit-step matrix over a mapped table:
  // the commit now writes a v2 blob (tail + partition metadata only) and
  // a v3 manifest naming the live partition directories, and recovery
  // re-maps the partition files instead of deserializing payloads. Every
  // crash point must still recover the exact live state, including the
  // deferred-unlink drop that happened mid-run.
  for (const char* phase :
       {"shard-blobs", "tier-blobs", "manifest", "current", "gc"}) {
    ScratchDir dir(std::string("amnesia_mapped_crashpoint_") + phase +
                   "_test");
    EventLog log = EventLog::Open(dir.file("events.log")).value();
    StorageOptions storage;
    storage.backend = StorageBackend::kMapped;
    storage.dir = dir.file("storage");
    storage.partition_rows = 64;
    Table table =
        Table::Make(Schema::SingleColumn("v", 0, 1'000'000), storage)
            .value();
    Rng rng(73);
    for (uint64_t i = 0; i < 200; ++i) {
      table.BeginBatch();
      ASSERT_TRUE(table.AppendRow({rng.UniformInt(0, 999'999)}).ok());
    }
    ColdStore cold;
    SummaryStore summaries;

    bool armed = false;
    CheckpointerOptions opts;
    opts.dir = dir.path();
    opts.async = false;
    opts.retain = 2;
    opts.log = &log;
    opts.test_crash_hook = [&armed, phase](const char* p) {
      return armed && std::strcmp(p, phase) == 0;
    };
    BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();

    RowId next = 0;
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < 6; ++k, ++next) {
        JournalForget(next, next % 2 == 0 ? BackendKind::kColdStorage
                                          : BackendKind::kSummary,
                      &table, &cold, &summaries, &log);
      }
      if (round == 2) {
        // A journaled partition drop between checkpoints: the rename is
        // on disk, the unlink deferred — exactly the state a crash must
        // be able to roll forward through.
        ASSERT_TRUE(table.DropPartition(2, /*defer_unlink=*/true).ok());
        Event event;
        event.kind = EventKind::kDropPartition;
        event.row = 2;
        event.value = 64;
        ASSERT_TRUE(log.Append(event).ok());
      }
      armed = round == 3;  // the final checkpoint dies mid-write
      const Status status = ckpt.Checkpoint(
          table, log.next_lsn(), TierSet{&cold, &summaries});
      if (round == 3) {
        EXPECT_FALSE(status.ok()) << phase;
      } else {
        ASSERT_TRUE(status.ok()) << phase;
      }
    }
    ASSERT_TRUE(log.Flush().ok());

    RecoveredState state =
        Recover(dir.path(), dir.file("events.log")).value();
    ASSERT_EQ(state.shards.size(), 1u);
    ASSERT_TRUE(state.shards[0].mapped());
    ASSERT_TRUE(state.cold.has_value());
    ASSERT_TRUE(state.summaries.has_value());
    EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table))
        << phase;
    EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold))
        << phase;
    EXPECT_EQ(CheckpointSummaryStore(*state.summaries),
              CheckpointSummaryStore(summaries))
        << phase;
  }
}

// ----------------------------------------- writer-thread synchronization

TEST(CheckpointerTest, MoveMidFlightIsSafe) {
  // Moving the checkpointer while a background write is in flight must
  // not leave the writer thread pointing at a dead object: the state is
  // heap-anchored and the thread handle moves with it.
  ScratchDir dir("amnesia_ckpt_move_midflight_test");
  Table table = MakeLoadedTable(50'000, 61);
  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = true;
  BackgroundCheckpointer a = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(a.Checkpoint(table, /*covered_lsn=*/0).ok());

  BackgroundCheckpointer b(std::move(a));  // mid-flight
  ASSERT_TRUE(b.WaitIdle().ok());
  EXPECT_EQ(b.stats().checkpoints, 1u);

  RecoveredState state = Recover(dir.path(), "").value();
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
}

TEST(CheckpointerTest, StatsAreReadableWhileWriterRuns) {
  // stats() while a write is in flight: under TSan this is the regression
  // test for the unsynchronized stats_/durable_blobs_ access.
  ScratchDir dir("amnesia_ckpt_stats_race_test");
  Table table = MakeLoadedTable(50'000, 63);
  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = true;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());
  uint64_t observed = 0;
  for (int i = 0; i < 2000; ++i) observed += ckpt.stats().shards_written;
  (void)observed;
  ASSERT_TRUE(ckpt.WaitIdle().ok());
  EXPECT_EQ(ckpt.stats().checkpoints, 1u);
}

// ------------------------------------------------------- simulator hookup

SimulationConfig DurableSimConfig(const std::string& dir, bool async) {
  SimulationConfig config;
  config.seed = 1234;
  config.dbsize = 500;
  config.upd_perc = 0.4;
  config.num_batches = 7;
  config.queries_per_batch = 20;
  config.policy.kind = PolicyKind::kFifo;
  config.backend = BackendKind::kDelete;
  // Access counts are not journaled; keep recovery bit-exact.
  config.record_access = false;
  config.checkpoint_every_n_batches = 3;
  config.checkpoint_dir = dir;
  config.checkpoint_async = async;
  return config;
}

TEST(SimulatorDurabilityTest, CrashRecoveryIsBitIdentical) {
  for (const bool async : {false, true}) {
    ScratchDir dir(async ? "amnesia_sim_crash_async_test"
                         : "amnesia_sim_crash_sync_test");
    // The "crashing" run: 7 batches, checkpoints after init, 3 and 6;
    // batch 7 lives only in the event log. Destroying the simulator joins
    // the writer but never checkpoints the tail — exactly a crash's
    // on-disk state (modulo torn frames, covered elsewhere).
    {
      auto sim = Simulator::Make(DurableSimConfig(dir.path(), async)).value();
      ASSERT_TRUE(sim->Initialize().ok());
      for (int b = 0; b < 7; ++b) ASSERT_TRUE(sim->StepBatch().ok());
    }

    RecoveredState state =
        Recover(dir.path(), dir.path() + "/events.log").value();
    EXPECT_GT(state.events_replayed, 0u);
    ASSERT_EQ(state.shards.size(), 1u);

    // Reference: the identical simulation without durability (journaling
    // consumes no randomness, so the trajectories match exactly).
    SimulationConfig plain = DurableSimConfig(dir.path(), async);
    plain.checkpoint_every_n_batches = 0;
    plain.checkpoint_dir.clear();
    auto reference = Simulator::Make(plain).value();
    ASSERT_TRUE(reference->Initialize().ok());
    for (int b = 0; b < 7; ++b) ASSERT_TRUE(reference->StepBatch().ok());

    EXPECT_EQ(CheckpointTable(state.shards[0]),
              CheckpointTable(reference->table()))
        << "async=" << async;
    EXPECT_EQ(state.ingest_cursor, reference->table().lifetime_inserted());
  }
}

TEST(SimulatorDurabilityTest, IncrementalCheckpointsSkipNothingWhenAllMoves) {
  // Sanity on the wiring: the simulator commits ceil(batches/cadence) + 1
  // checkpoints and the log holds every mutation round.
  ScratchDir dir("amnesia_sim_cadence_test");
  auto sim = Simulator::Make(DurableSimConfig(dir.path(), true)).value();
  ASSERT_TRUE(sim->Run().ok());
  ASSERT_NE(sim->checkpointer(), nullptr);
  EXPECT_EQ(sim->checkpointer()->stats().checkpoints, 3u);  // init, b3, b6
  ASSERT_NE(sim->event_log(), nullptr);
  // init append + 7 * (begin-batch + append) + forget-sweep and compact
  // events.
  EXPECT_GT(sim->event_log()->next_lsn(), 15u);
}

TEST(SimulatorDurabilityTest, TieredCrashRecoveryWithRetention) {
  // End-to-end: the simulator routes forgotten tuples into a tier, keeps
  // only 2 checkpoints, crashes after batch 7 — and one Recover()
  // restores table AND tier bit-identically while the directory stays
  // bounded.
  for (const BackendKind backend :
       {BackendKind::kColdStorage, BackendKind::kSummary}) {
    ScratchDir dir(backend == BackendKind::kColdStorage
                       ? "amnesia_sim_tier_cold_test"
                       : "amnesia_sim_tier_summary_test");
    SimulationConfig config = DurableSimConfig(dir.path(), true);
    config.backend = backend;
    config.checkpoint_every_n_batches = 2;
    config.checkpoint_retention = 2;
    {
      auto sim = Simulator::Make(config).value();
      ASSERT_TRUE(sim->Initialize().ok());
      for (int b = 0; b < 7; ++b) ASSERT_TRUE(sim->StepBatch().ok());
    }

    RecoveredState state =
        Recover(dir.path(), dir.path() + "/events.log").value();
    ASSERT_TRUE(state.cold.has_value());
    ASSERT_TRUE(state.summaries.has_value());

    SimulationConfig plain = config;
    plain.checkpoint_every_n_batches = 0;
    plain.checkpoint_dir.clear();
    plain.checkpoint_retention = 0;
    auto reference = Simulator::Make(plain).value();
    ASSERT_TRUE(reference->Initialize().ok());
    for (int b = 0; b < 7; ++b) ASSERT_TRUE(reference->StepBatch().ok());

    EXPECT_EQ(CheckpointTable(state.shards[0]),
              CheckpointTable(reference->table()));
    EXPECT_EQ(CheckpointColdStore(*state.cold),
              CheckpointColdStore(reference->cold_store()));
    EXPECT_EQ(CheckpointSummaryStore(*state.summaries),
              CheckpointSummaryStore(reference->summary_store()));

    // Retention invariants on the crashed directory.
    const std::vector<uint64_t> ids = ManifestIdsIn(dir.path());
    EXPECT_LE(ids.size(), 2u);
    ExpectNoOrphanBlobs(dir.path());
    const Manifest oldest =
        DecodeManifest(
            ReadBytesFile(dir.path() + "/MANIFEST-" + std::to_string(ids[0]))
                .value())
            .value();
    const EventLogContents contents =
        ReadEventLogContents(dir.path() + "/events.log").value();
    EXPECT_EQ(contents.base_lsn, oldest.covered_lsn);
  }
}

TEST(SimulatorDurabilityTest, ValidateRejectsMissingDir) {
  SimulationConfig config = DurableSimConfig("", true);
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SimulatorDurabilityTest, ReusedDirDropsStaleManifests) {
  // A fresh simulation into a previously used checkpoint directory must
  // not leave the old run's manifests reachable: they pair with the new
  // (truncated) event log and would corrupt recovery.
  ScratchDir dir("amnesia_sim_reuse_test");
  {
    auto sim = Simulator::Make(DurableSimConfig(dir.path(), false)).value();
    ASSERT_TRUE(sim->Run().ok());
  }
  ASSERT_TRUE(fs::exists(dir.path() + "/CURRENT"));

  // Second instance, same dir: before its first checkpoint commits there
  // must be NO manifest (NotFound), never a stale one.
  SimulationConfig config = DurableSimConfig(dir.path(), false);
  auto sim = Simulator::Make(config).value();
  EXPECT_EQ(Recover(dir.path(), dir.path() + "/events.log").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(sim->Initialize().ok());  // baseline checkpoint commits
  ASSERT_TRUE(sim->StepBatch().ok());
  RecoveredState state =
      Recover(dir.path(), dir.path() + "/events.log").value();
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(sim->table()));
}

}  // namespace
}  // namespace amnesia
