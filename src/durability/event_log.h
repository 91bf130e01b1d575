// Copyright 2026 The AmnesiaDB Authors
//
// Physical redo log for the durability subsystem. Between two checkpoints
// every table mutation — batched appends and forget-pass outcomes (one
// record per sweep naming its rows as runs, compaction, partition drops) —
// is recorded as an Event; replaying the tail
// of the log on top of the newest snapshot reconstructs the exact
// pre-crash state. The shape follows KERI's append-only key-event-log
// design (PAPERS.md): an event log plus periodic snapshots gives cheap
// incremental durability and deterministic replay.
//
// The log is *physical*, not logical: it records which rows were
// forgotten, not which policy selected them, so replay needs no policy,
// RNG or oracle state. Events carry (shard, local row) addressing; events
// on different shards commute, so the shard-parallel forget passes may
// interleave their appends — per-shard order is all replay relies on.

#ifndef AMNESIA_DURABILITY_EVENT_LOG_H_
#define AMNESIA_DURABILITY_EVENT_LOG_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/cold_store.h"
#include "storage/sharded_table.h"
#include "storage/summary_store.h"
#include "storage/types.h"

namespace amnesia {

/// \brief What a durability event records.
enum class EventKind : uint8_t {
  /// A new update batch started (Table/ShardedTable::BeginBatch).
  kBeginBatch = 1,
  /// Rows were appended through the global round-robin ingest path. The
  /// event carries the column-major payload; `shard` is unused.
  kAppendRows = 2,
  /// One row was forgotten. `backend` records the forgetting backend so
  /// replay can re-route the tuple into a cold/summary tier. No longer
  /// written (kForgetRows replaced it); logs that hold it still replay.
  kForget = 3,
  /// A forgotten row's payload was scrubbed to `value`. No longer written
  /// (kForgetRows under kDelete implies it); logs that hold it still
  /// replay.
  kScrub = 4,
  /// One shard ran physical compaction (deterministic given its state).
  kCompact = 5,
  // Kind bytes 6 and 7 (a revive and an access bump) are retired: no
  // writer ever emitted them, and DecodeEvent rejects them.
  /// One shard dropped a whole sealed partition (mapped storage's O(1)
  /// forget): `row` is the partition index, `value` the partition's row
  /// count. Journaled after the partition directory's fsync'd rename to
  /// its `.dropped` name, so whichever of {rename, this record} a crash
  /// keeps, recovery is consistent.
  kDropPartition = 8,
  /// One forget sweep of a shard: the rows in `runs`, in victim order,
  /// each replayed as kForget (re-routed per `backend` and `payload_col`)
  /// followed, under kDelete, by kScrub to 0. A sweep with more than
  /// kMaxForgetRunsPerRecord runs writes several records.
  kForgetRows = 9,
};

/// \brief A run of consecutive rows [lo, hi).
struct RowRun {
  RowId lo = 0;
  RowId hi = 0;

  bool operator==(const RowRun& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

/// Most runs one kForgetRows record carries: 16 bytes each, so a full
/// record is 1 MiB, far below wal::kMaxFramePayload.
inline constexpr size_t kMaxForgetRunsPerRecord = size_t{1} << 16;

/// \brief One redo record.
struct Event {
  EventKind kind = EventKind::kBeginBatch;
  /// Shard the event applies to (0 for unsharded tables; unused by
  /// kAppendRows, which round-robins globally).
  uint32_t shard = 0;
  /// Shard-local row id (kForget / kScrub) or partition index
  /// (kDropPartition).
  RowId row = 0;
  /// Scrub value (kScrub) or partition row count (kDropPartition).
  Value value = 0;
  /// Forgetting backend that processed the rows (kForget, kForgetRows),
  /// as the underlying BackendKind integer.
  uint8_t backend = 0;
  /// Column the backend preserved (kForget, kForgetRows with cold/summary
  /// backends).
  uint32_t payload_col = 0;
  /// Column-major appended payload (kAppendRows).
  std::vector<std::vector<Value>> columns;
  /// Forgotten rows in victim order (kForgetRows).
  std::vector<RowRun> runs;
};

/// \brief Serializes one event into a self-delimiting byte payload.
std::vector<uint8_t> EncodeEvent(const Event& event);

/// \brief Decodes one event payload (InvalidArgument on corruption).
StatusOr<Event> DecodeEvent(const std::vector<uint8_t>& payload);

/// \brief Where forget events are re-routed during replay. Null members
/// simply skip the corresponding tier (the table state is always redone).
struct ReplaySinks {
  ColdStore* cold = nullptr;
  SummaryStore* summaries = nullptr;
};

/// \brief Applies one event to a recovering table. `tables` are the
/// restored shards in shard order; `ingest_cursor` is the global
/// round-robin position (rows ever appended) and is advanced by
/// kAppendRows events. A kForgetRows record is checked whole (backend,
/// payload column, every run in range, every row active, no row twice)
/// before any table or tier is touched, so a rejected one changes
/// nothing.
Status ReplayEvent(const Event& event, std::vector<Table>* tables,
                   uint64_t* ingest_cursor,
                   const ReplaySinks& sinks = ReplaySinks());

/// \brief Replays events[begin..] in order. Returns the number applied.
StatusOr<uint64_t> ReplayEvents(const std::vector<Event>& events,
                                uint64_t begin, std::vector<Table>* tables,
                                uint64_t* ingest_cursor,
                                const ReplaySinks& sinks = ReplaySinks());

/// \brief Minimal interface mutators emit events through — lets
/// amnesia/ controllers journal forget outcomes without depending on the
/// file-backed log.
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// Appends one event. Thread-safe: shard-parallel forget passes emit
  /// concurrently.
  virtual Status Append(const Event& event) = 0;
  /// Makes everything appended so far durable (write-ahead barrier).
  /// Mutators whose side effects outlive the process — scrubbing a mapped
  /// partition file, dropping a partition — flush their journal records
  /// BEFORE applying the effect, so a crash can never leave an effect on
  /// disk whose record was lost. Default: no-op (in-memory sinks).
  virtual Status Flush() { return Status::OK(); }
};

/// \brief On-disk layout of a physical event log.
enum class LogFormat : uint8_t {
  /// One file, compacted by atomically rewriting the retained suffix
  /// behind a base-LSN marker frame (EventLog). Simple, but the rewrite
  /// is O(retained events) and blocks appenders for its duration.
  kSingleFile = 0,
  /// Fixed-size segment files, compacted by unlinking sealed segments
  /// wholly below the truncation LSN (SegmentedEventLog,
  /// durability/log_segments.h). O(1) per checkpoint and concurrent with
  /// appends.
  kSegmented = 1,
};

/// \brief When appended frames are pushed from the stdio buffer to the
/// page cache. The append path never fsyncs — both policies bound the
/// loss window to frames a crashed *process* had not flushed, which the
/// torn-tail-tolerant reader already handles; group commit merely widens
/// that window from one event to one batch in exchange for not paying a
/// flush per event.
struct SyncPolicy {
  enum class Kind : uint8_t {
    kEveryAppend = 0,  ///< Flush after each event (the PR 3 behavior).
    kGroupCommit = 1,  ///< Flush after N events or after an interval.
  };
  Kind kind = Kind::kEveryAppend;
  /// Group commit: flush once this many events are pending.
  uint32_t group_events = 64;
  /// Group commit: flush when the oldest pending event is older than
  /// this, checked at the next append (0 disables the age trigger).
  double group_interval_ms = 5.0;

  static SyncPolicy EveryAppend() { return SyncPolicy{}; }
  static SyncPolicy GroupCommit(uint32_t events, double interval_ms) {
    SyncPolicy p;
    p.kind = Kind::kGroupCommit;
    p.group_events = events;
    p.group_interval_ms = interval_ms;
    return p;
  }
};

namespace log_internal {

/// Shared group-commit trigger: accounts one just-written frame against
/// `pending`/`oldest` and returns true when the policy wants a flush now
/// (always, under every-append). EventLog and every segment chain call
/// this under their append mutex so the two cannot drift.
bool ShouldFlushAfterAppend(const SyncPolicy& sync, uint32_t* pending,
                            std::chrono::steady_clock::time_point* oldest);

/// Accounts one flush that reached the OS in the log.* metrics: the fsync
/// always counts; `batch_size` is recorded only when appends were covered
/// (an explicit barrier with nothing pending is not a batch).
void NoteLogFlush(uint32_t batch_size);

}  // namespace log_internal

/// \brief The log surface the durability subsystem programs against:
/// appends, explicit flush (group-commit barriers at batch/checkpoint
/// boundaries), LSN accounting and prefix truncation. EventLog and
/// SegmentedEventLog both implement it, so the checkpointer's retention
/// GC and the simulator are format-agnostic.
class EventLogBase : public EventSink {
 public:
  /// Pushes every appended frame to the page cache. Called at batch and
  /// checkpoint boundaries under group commit; a no-op under every-append.
  virtual Status Flush() = 0;
  /// Discards every event with LSN < `lsn` (how is format-specific; both
  /// are crash-atomic, LSN-stable and safe against concurrent Append).
  virtual Status TruncateBefore(uint64_t lsn) = 0;
  /// Returns the LSN the next event will get (== events ever appended).
  virtual uint64_t next_lsn() const = 0;
  /// Returns the LSN of the oldest retained event.
  virtual uint64_t base_lsn() const = 0;
};

/// \brief Append-only, optionally file-backed event log.
///
/// Every record is framed as [u32 length][u32 crc32][payload] and flushed
/// on append, so a crash can tear at most the final frame; the reader
/// stops cleanly at a torn or corrupt frame and returns the valid prefix
/// (standard WAL semantics). Positions in the log are LSNs: the index of
/// an event since the log was opened. A checkpoint manifest records the
/// LSN its snapshot covers; recovery replays everything after it.
///
/// Compaction: TruncateBefore(lsn) discards the prefix below `lsn` once a
/// retained checkpoint covers it. LSNs are stable across truncation — a
/// truncated file starts with a marker frame recording its base LSN, and
/// the events that remain keep the LSNs they were appended at.
class EventLog : public EventLogBase {
 public:
  /// Opens a memory-only log (tests, benches that never crash).
  EventLog() = default;

  /// Opens (creating or truncating) a file-backed log at `path`.
  static StatusOr<EventLog> Open(const std::string& path);

  /// Re-opens an existing file-backed log for appending, first reading
  /// the valid prefix so next_lsn() continues where the previous process
  /// stopped, then rewriting that prefix so any torn final frame is
  /// physically truncated BEFORE new appends land — a frame written after
  /// garbage would be unreachable to every future reader. The rewrite is
  /// atomic (tmp file + rename), so a crash mid-reopen leaves the old
  /// log intact. Preserves the base LSN of a previously truncated log.
  /// Used when a recovered process resumes logging.
  static StatusOr<EventLog> OpenForAppend(const std::string& path);

  ~EventLog() override;

  EventLog(EventLog&& other) noexcept;
  EventLog& operator=(EventLog&& other) noexcept;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends one event (retained in memory; written to the file when
  /// file-backed and flushed per the sync policy). Thread-safe.
  Status Append(const Event& event) override;

  /// Sets when appends flush (default: every append). Thread-safe; takes
  /// effect from the next Append.
  void set_sync_policy(const SyncPolicy& policy);

  /// Flushes any pending group-commit frames to the page cache.
  Status Flush() override;

  /// Discards every event with LSN < `lsn` (a no-op when `lsn` is at or
  /// below the current base). File-backed logs rewrite atomically: the
  /// retained suffix goes to a sibling ".tmp" file behind a base-LSN
  /// marker frame, which renames over the log — a crash at any point
  /// leaves either the old or the new file complete, never a mix.
  /// Thread-safe with respect to concurrent Append (appends block for the
  /// duration of the rewrite and then land in the new file). Rejects
  /// `lsn` beyond next_lsn(): truncating events that were never appended
  /// is a caller bug, not a request.
  Status TruncateBefore(uint64_t lsn) override;

  /// Returns the LSN the next event will get (== events ever appended).
  uint64_t next_lsn() const override;

  /// Returns the LSN of the oldest retained event (0 until the first
  /// TruncateBefore).
  uint64_t base_lsn() const override;

  /// In-memory view of the retained events: events()[i] has LSN
  /// base_lsn() + i. Not safe to call concurrently with Append or
  /// TruncateBefore.
  const std::vector<Event>& events() const { return events_; }

  /// Returns the file path ("" when memory-only).
  const std::string& path() const { return path_; }

 private:
  /// Flushes per the sync policy after a frame write. Caller holds mu_.
  Status MaybeFlushLocked();

  mutable std::mutex mu_;
  std::vector<Event> events_;
  uint64_t base_lsn_ = 0;
  std::string path_;
  std::FILE* file_ = nullptr;
  SyncPolicy sync_;
  uint32_t pending_flush_ = 0;  ///< Frames written since the last flush.
  std::chrono::steady_clock::time_point oldest_pending_;
};

/// \brief What ReadEventLogContents returns: the retained events plus the
/// base LSN the file's marker frame recorded (0 for never-truncated logs).
/// events[i] has LSN base_lsn + i.
struct EventLogContents {
  uint64_t base_lsn = 0;
  std::vector<Event> events;

  /// Returns the LSN one past the last retained event.
  uint64_t next_lsn() const { return base_lsn + events.size(); }
};

/// \brief Reads the valid prefix of a log file, including its base LSN.
/// Torn or corrupt tails are dropped silently (they are the expected
/// crash artifact); a missing file is NotFound.
StatusOr<EventLogContents> ReadEventLogContents(const std::string& path);

/// \brief Convenience wrapper returning only the retained events (callers
/// that need LSN addressing use ReadEventLogContents).
StatusOr<std::vector<Event>> ReadEventLogFile(const std::string& path);

}  // namespace amnesia

#endif  // AMNESIA_DURABILITY_EVENT_LOG_H_
