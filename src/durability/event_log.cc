// Copyright 2026 The AmnesiaDB Authors

#include "durability/event_log.h"

#include <sys/stat.h>

#include <algorithm>
#include <utility>

#include "amnesia/controller.h"
#include "common/fs.h"
#include "durability/frame_io.h"
#include "obs/engine_metrics.h"
#include "storage/checkpoint_io.h"
#include "storage/sharded_table.h"

namespace amnesia {

namespace {

// A truncated log file opens with one marker frame whose payload is
// [u8 0]["TRNC"][u64 base_lsn]. Kind byte 0 is outside the EventKind
// range, so the marker can never collide with a real event; readers from
// before log compaction existed stop at it, which only costs them the
// suffix of an already-compacted log.
constexpr uint8_t kMarkerKindByte = 0;
constexpr uint32_t kTruncationMagic = 0x434E5254;  // "TRNC"
constexpr size_t kMarkerPayloadSize = 1 + 4 + 8;

std::vector<uint8_t> EncodeTruncationMarker(uint64_t base_lsn) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  w.U8(kMarkerKindByte);
  w.U32(kTruncationMagic);
  w.U64(base_lsn);
  return out;
}

/// Returns true (and the base LSN) when `payload` is a truncation marker.
bool DecodeTruncationMarker(const std::vector<uint8_t>& payload,
                            uint64_t* base_lsn) {
  if (payload.size() != kMarkerPayloadSize ||
      payload[0] != kMarkerKindByte) {
    return false;
  }
  uint32_t magic = 0;
  std::memcpy(&magic, payload.data() + 1, sizeof(magic));
  if (magic != kTruncationMagic) return false;
  std::memcpy(base_lsn, payload.data() + 1 + sizeof(magic),
              sizeof(*base_lsn));
  return true;
}

using wal::WriteFrame;

/// Rewrites the log at `path` to hold a base-LSN marker (when base_lsn >
/// 0) plus events[begin..] through ReplaceFile, so a crash at any point
/// leaves either the old or the new file complete, never a torn rewrite.
/// The tmp file is fsynced before the rename: unlike a torn blob or
/// manifest, a lost log suffix has no older artifact to fall back to.
Status RewriteLogFileAtomic(const std::string& path, uint64_t base_lsn,
                            const std::vector<Event>& events, size_t begin) {
  return ReplaceFile(path, /*sync=*/true, [&](std::FILE* f) {
    if (base_lsn > 0) {
      AMNESIA_RETURN_NOT_OK(
          WriteFrame(f, EncodeTruncationMarker(base_lsn), path));
    }
    for (size_t i = begin; i < events.size(); ++i) {
      AMNESIA_RETURN_NOT_OK(WriteFrame(f, EncodeEvent(events[i]), path));
    }
    return Status::OK();
  });
}

/// True for the kinds this code reads; false for every other byte,
/// including the retired 6 and 7.
bool IsEventKind(EventKind kind) {
  switch (kind) {
    case EventKind::kBeginBatch:
    case EventKind::kAppendRows:
    case EventKind::kForget:
    case EventKind::kScrub:
    case EventKind::kCompact:
    case EventKind::kDropPartition:
    case EventKind::kForgetRows:
      return true;
  }
  return false;
}

}  // namespace

std::vector<uint8_t> EncodeEvent(const Event& event) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  w.U8(static_cast<uint8_t>(event.kind));
  w.U32(event.shard);
  switch (event.kind) {
    case EventKind::kBeginBatch:
    case EventKind::kCompact:
      break;
    case EventKind::kAppendRows:
      w.U64(event.columns.size());
      for (const auto& col : event.columns) w.I64Array(col);
      break;
    case EventKind::kForget:
      w.U64(event.row);
      w.U8(event.backend);
      w.U32(event.payload_col);
      break;
    case EventKind::kScrub:
    case EventKind::kDropPartition:
      w.U64(event.row);
      w.I64(event.value);
      break;
    case EventKind::kForgetRows:
      out.reserve(out.size() + sizeof(event.backend) +
                  sizeof(event.payload_col) + sizeof(uint64_t) +
                  event.runs.size() * 2 * sizeof(RowId));
      w.U8(event.backend);
      w.U32(event.payload_col);
      w.U64(event.runs.size());
      for (const RowRun& run : event.runs) {
        w.U64(run.lo);
        w.U64(run.hi);
      }
      break;
  }
  return out;
}

StatusOr<Event> DecodeEvent(const std::vector<uint8_t>& payload) {
  ckpt::Reader r(payload);
  Event event;
  uint8_t kind = 0;
  AMNESIA_RETURN_NOT_OK(r.U8(&kind));
  event.kind = static_cast<EventKind>(kind);
  if (!IsEventKind(event.kind)) {
    return Status::InvalidArgument("unknown event kind " +
                                   std::to_string(kind));
  }
  AMNESIA_RETURN_NOT_OK(r.U32(&event.shard));
  switch (event.kind) {
    case EventKind::kBeginBatch:
    case EventKind::kCompact:
      break;
    case EventKind::kAppendRows: {
      uint64_t cols = 0;
      AMNESIA_RETURN_NOT_OK(r.U64(&cols));
      if (cols == 0 || cols > 1'000'000) {
        return Status::InvalidArgument("implausible append arity");
      }
      event.columns.resize(static_cast<size_t>(cols));
      for (auto& col : event.columns) {
        AMNESIA_RETURN_NOT_OK(r.I64Array(&col));
        if (col.size() != event.columns[0].size()) {
          return Status::InvalidArgument("ragged append event");
        }
      }
      break;
    }
    case EventKind::kForget:
      AMNESIA_RETURN_NOT_OK(r.U64(&event.row));
      AMNESIA_RETURN_NOT_OK(r.U8(&event.backend));
      AMNESIA_RETURN_NOT_OK(r.U32(&event.payload_col));
      break;
    case EventKind::kScrub:
    case EventKind::kDropPartition:
      AMNESIA_RETURN_NOT_OK(r.U64(&event.row));
      AMNESIA_RETURN_NOT_OK(r.I64(&event.value));
      break;
    case EventKind::kForgetRows: {
      AMNESIA_RETURN_NOT_OK(r.U8(&event.backend));
      AMNESIA_RETURN_NOT_OK(r.U32(&event.payload_col));
      uint64_t runs = 0;
      AMNESIA_RETURN_NOT_OK(r.U64(&runs));
      if (runs == 0 || runs > kMaxForgetRunsPerRecord ||
          runs > r.remaining() / (2 * sizeof(uint64_t))) {
        return Status::InvalidArgument("implausible forget run count");
      }
      event.runs.resize(static_cast<size_t>(runs));
      for (RowRun& run : event.runs) {
        AMNESIA_RETURN_NOT_OK(r.U64(&run.lo));
        AMNESIA_RETURN_NOT_OK(r.U64(&run.hi));
      }
      break;
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after event payload");
  }
  return event;
}

namespace {

/// Redoes one kForget: re-routes the row into its tier before flipping its
/// state, exactly as AmnesiaController captured it.
Status ReplayForget(Table* table, RowId row, uint8_t backend,
                    uint32_t payload_col, const ReplaySinks& sinks) {
  const auto kind = static_cast<BackendKind>(backend);
  if (kind == BackendKind::kColdStorage && sinks.cold != nullptr) {
    sinks.cold->Put(ColdTuple{row, table->value(payload_col, row),
                              table->insert_tick(row), table->batch_of(row)});
  } else if (kind == BackendKind::kSummary && sinks.summaries != nullptr) {
    sinks.summaries->AddForgotten(payload_col, table->batch_of(row),
                                  table->value(payload_col, row));
  }
  return table->Forget(row);
}

/// Checks a kForgetRows record against `table` without touching it: a
/// known backend, an existing payload column, and runs that name only
/// active rows, each once.
Status ValidateForgetRows(const Event& event, const Table& table) {
  if (event.backend > static_cast<uint8_t>(BackendKind::kIndexSkip)) {
    return Status::InvalidArgument("forget event with unknown backend " +
                                   std::to_string(event.backend));
  }
  if (event.payload_col >= table.num_columns()) {
    return Status::InvalidArgument("event payload column out of range");
  }
  for (const RowRun& run : event.runs) {
    if (run.lo >= run.hi || run.hi > table.num_rows()) {
      return Status::InvalidArgument(
          "forget run [" + std::to_string(run.lo) + ", " +
          std::to_string(run.hi) + ") out of range for shard " +
          std::to_string(event.shard));
    }
    for (RowId r = run.lo; r < run.hi; ++r) {
      if (!table.IsActive(r)) {
        return Status::InvalidArgument("forget run names row " +
                                       std::to_string(r) +
                                       ", which is not active");
      }
    }
  }
  std::vector<RowRun> sorted = event.runs;
  std::sort(sorted.begin(), sorted.end(),
            [](const RowRun& a, const RowRun& b) { return a.lo < b.lo; });
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].lo < sorted[i - 1].hi) {
      return Status::InvalidArgument("forget runs overlap");
    }
  }
  return Status::OK();
}

}  // namespace

Status ReplayEvent(const Event& event, std::vector<Table>* tables,
                   uint64_t* ingest_cursor, const ReplaySinks& sinks) {
  const size_t n = tables->size();
  if (n == 0) return Status::InvalidArgument("replay needs at least 1 shard");
  switch (event.kind) {
    case EventKind::kBeginBatch:
      // Batches advance in lockstep across shards (ShardedTable::BeginBatch).
      for (Table& t : *tables) t.BeginBatch();
      return Status::OK();
    case EventKind::kAppendRows:
      // The live ingest path's placement, so each row lands where it did.
      return AppendRoundRobin(tables, ingest_cursor, event.columns).status();
    default:
      break;
  }

  if (event.shard >= n) {
    return Status::InvalidArgument("event addresses shard " +
                                   std::to_string(event.shard) + " of " +
                                   std::to_string(n));
  }
  Table& table = (*tables)[event.shard];
  // Row-addressed events validate before any table access: a log that does
  // not match the restored snapshot (or corruption that survives the frame
  // CRC) must surface as Status, never as an out-of-bounds read. kCompact
  // addresses no row; kDropPartition's `row` is a partition index,
  // validated against the partition table below; kForgetRows addresses
  // its rows through runs, validated whole before it is applied.
  if (event.kind != EventKind::kCompact &&
      event.kind != EventKind::kDropPartition &&
      event.kind != EventKind::kForgetRows &&
      event.row >= table.num_rows()) {
    return Status::InvalidArgument("event row " + std::to_string(event.row) +
                                   " out of range for shard " +
                                   std::to_string(event.shard));
  }
  switch (event.kind) {
    case EventKind::kForget:
      if (event.payload_col >= table.num_columns()) {
        return Status::InvalidArgument("event payload column out of range");
      }
      return ReplayForget(&table, event.row, event.backend, event.payload_col,
                          sinks);
    case EventKind::kForgetRows: {
      AMNESIA_RETURN_NOT_OK(ValidateForgetRows(event, table));
      const bool scrub =
          event.backend == static_cast<uint8_t>(BackendKind::kDelete);
      for (const RowRun& run : event.runs) {
        for (RowId r = run.lo; r < run.hi; ++r) {
          AMNESIA_RETURN_NOT_OK(ReplayForget(&table, r, event.backend,
                                             event.payload_col, sinks));
          if (scrub) AMNESIA_RETURN_NOT_OK(table.ScrubRow(r, 0));
        }
      }
      return Status::OK();
    }
    case EventKind::kScrub:
      return table.ScrubRow(event.row, event.value);
    case EventKind::kCompact:
      table.CompactForgotten();
      return Status::OK();
    case EventKind::kDropPartition:
      // The live drop, so the replayed shard matches the journaling one
      // (a vector shard refuses it: FailedPrecondition). Idempotent: the
      // restored snapshot may already reflect the drop, or the crash may
      // have interrupted it anywhere between the directory rename and the
      // deferred unlink. The `.dropped` directory stays for retention GC
      // to unlink once no retained manifest maps it.
      return table.DropPartition(static_cast<size_t>(event.row),
                                 /*defer_unlink=*/true)
          .status();
    default:
      return Status::Internal("unhandled event kind");
  }
}

StatusOr<uint64_t> ReplayEvents(const std::vector<Event>& events,
                                uint64_t begin, std::vector<Table>* tables,
                                uint64_t* ingest_cursor,
                                const ReplaySinks& sinks) {
  uint64_t applied = 0;
  for (uint64_t i = begin; i < events.size(); ++i) {
    AMNESIA_RETURN_NOT_OK(ReplayEvent(events[i], tables, ingest_cursor, sinks));
    ++applied;
  }
  return applied;
}

// --------------------------------------------------------------- EventLog

StatusOr<EventLog> EventLog::Open(const std::string& path) {
  EventLog log;
  log.path_ = path;
  log.file_ = std::fopen(path.c_str(), "wb");
  if (log.file_ == nullptr) {
    return Status::Internal("cannot open event log '" + path + "'");
  }
  return log;
}

StatusOr<EventLog> EventLog::OpenForAppend(const std::string& path) {
  AMNESIA_ASSIGN_OR_RETURN(EventLogContents prefix,
                           ReadEventLogContents(path));
  // Rewrite the valid prefix (atomically, via tmp + rename): a torn final
  // frame must not precede new appends, or the reader would stop in front
  // of them forever — and a crash mid-rewrite must leave the old log
  // intact, not a shorter one.
  AMNESIA_RETURN_NOT_OK(
      RewriteLogFileAtomic(path, prefix.base_lsn, prefix.events, 0));
  EventLog log;
  log.path_ = path;
  log.base_lsn_ = prefix.base_lsn;
  log.events_ = std::move(prefix.events);
  log.file_ = std::fopen(path.c_str(), "ab");
  if (log.file_ == nullptr) {
    return Status::Internal("cannot reopen event log '" + path + "'");
  }
  return log;
}

EventLog::~EventLog() {
  if (file_ != nullptr) std::fclose(file_);
}

EventLog::EventLog(EventLog&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  events_ = std::move(other.events_);
  base_lsn_ = other.base_lsn_;
  path_ = std::move(other.path_);
  file_ = other.file_;
  sync_ = other.sync_;
  pending_flush_ = other.pending_flush_;
  oldest_pending_ = other.oldest_pending_;
  other.file_ = nullptr;
  other.base_lsn_ = 0;
  other.path_.clear();
  other.pending_flush_ = 0;
}

EventLog& EventLog::operator=(EventLog&& other) noexcept {
  if (this == &other) return *this;
  if (file_ != nullptr) std::fclose(file_);
  std::lock_guard<std::mutex> lock(other.mu_);
  events_ = std::move(other.events_);
  base_lsn_ = other.base_lsn_;
  path_ = std::move(other.path_);
  file_ = other.file_;
  sync_ = other.sync_;
  pending_flush_ = other.pending_flush_;
  oldest_pending_ = other.oldest_pending_;
  other.file_ = nullptr;
  other.base_lsn_ = 0;
  other.path_.clear();
  other.pending_flush_ = 0;
  return *this;
}

Status EventLog::Append(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::EngineMetrics::Get().log_appends->Inc();
  if (file_ != nullptr) {
    AMNESIA_RETURN_NOT_OK(WriteFrame(file_, EncodeEvent(event), path_));
    AMNESIA_RETURN_NOT_OK(MaybeFlushLocked());
  }
  events_.push_back(event);
  return Status::OK();
}

namespace log_internal {

bool ShouldFlushAfterAppend(const SyncPolicy& sync, uint32_t* pending,
                            std::chrono::steady_clock::time_point* oldest) {
  if (sync.kind != SyncPolicy::Kind::kGroupCommit) return true;
  if (*pending == 0) *oldest = std::chrono::steady_clock::now();
  ++*pending;
  if (*pending >= sync.group_events) return true;
  if (sync.group_interval_ms <= 0.0) return false;
  const double age_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - *oldest)
                            .count();
  return age_ms >= sync.group_interval_ms;
}

void NoteLogFlush(uint32_t batch_size) {
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  m.log_fsyncs->Inc();
  if (batch_size > 0) m.log_batch_size->Record(batch_size);
}

}  // namespace log_internal

Status EventLog::MaybeFlushLocked() {
  if (file_ == nullptr) return Status::OK();
  if (!log_internal::ShouldFlushAfterAppend(sync_, &pending_flush_,
                                            &oldest_pending_)) {
    return Status::OK();  // the batch is still filling
  }
  if (std::fflush(file_) != 0) {
    return Status::Internal("event log flush failed on '" + path_ + "'");
  }
  // pending_flush_ stays 0 under every-append sync; that is a batch of 1.
  log_internal::NoteLogFlush(pending_flush_ == 0 ? 1 : pending_flush_);
  pending_flush_ = 0;
  return Status::OK();
}

void EventLog::set_sync_policy(const SyncPolicy& policy) {
  std::lock_guard<std::mutex> lock(mu_);
  sync_ = policy;
}

Status EventLog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr && std::fflush(file_) != 0) {
    return Status::Internal("event log flush failed on '" + path_ + "'");
  }
  if (file_ != nullptr) log_internal::NoteLogFlush(pending_flush_);
  pending_flush_ = 0;
  return Status::OK();
}

Status EventLog::TruncateBefore(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lsn <= base_lsn_) return Status::OK();  // already below the base
  if (lsn > base_lsn_ + events_.size()) {
    return Status::InvalidArgument(
        "cannot truncate to LSN " + std::to_string(lsn) + ": log holds [" +
        std::to_string(base_lsn_) + ", " +
        std::to_string(base_lsn_ + events_.size()) + ")");
  }
  const auto drop =
      static_cast<std::vector<Event>::difference_type>(lsn - base_lsn_);

  if (file_ != nullptr) {
    AMNESIA_RETURN_NOT_OK(RewriteLogFileAtomic(
        path_, lsn, events_, static_cast<size_t>(drop)));
    // The old handle still points at the unlinked inode; reopen so
    // subsequent appends land in the new file. The rewrite came from
    // memory, so frames pending under group commit are in it already.
    std::fclose(file_);
    pending_flush_ = 0;
    file_ = std::fopen(path_.c_str(), "ab");
    if (file_ == nullptr) {
      return Status::Internal("cannot reopen event log '" + path_ +
                              "' after truncation");
    }
  }
  events_.erase(events_.begin(), events_.begin() + drop);
  base_lsn_ = lsn;
  obs::EngineMetrics::Get().log_truncations->Inc();
  return Status::OK();
}

uint64_t EventLog::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_ + events_.size();
}

uint64_t EventLog::base_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_lsn_;
}

StatusOr<EventLogContents> ReadEventLogContents(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open event log '" + path + "'");
  }
  struct stat st;
  uint64_t remaining =
      fstat(fileno(f), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
  EventLogContents contents;
  bool first_frame = true;
  std::vector<uint8_t> payload;
  while (wal::ReadFrame(f, &remaining, &payload)) {
    uint64_t base = 0;
    if (DecodeTruncationMarker(payload, &base)) {
      // Only valid as the leading frame (TruncateBefore rewrites the
      // whole file); anywhere else it is corruption — stop at it.
      if (!first_frame) break;
      contents.base_lsn = base;
      first_frame = false;
      continue;
    }
    first_frame = false;
    auto event = DecodeEvent(payload);
    if (!event.ok()) break;
    contents.events.push_back(std::move(event).value());
  }
  std::fclose(f);
  return contents;
}

StatusOr<std::vector<Event>> ReadEventLogFile(const std::string& path) {
  AMNESIA_ASSIGN_OR_RETURN(EventLogContents contents,
                           ReadEventLogContents(path));
  return std::move(contents.events);
}

}  // namespace amnesia
