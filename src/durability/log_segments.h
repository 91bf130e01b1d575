// Copyright 2026 The AmnesiaDB Authors
//
// Segmented event log: the same CRC-framed event stream as EventLog,
// striped across segment files so that log compaction is O(1) and
// concurrent with appends. This is what keeps forgetting-heavy runs from
// stalling ingest at scale: EventLog::TruncateBefore rewrites the whole
// retained suffix under the append mutex (O(retained events) of blocked
// appenders after every checkpoint), while here truncation just unlinks
// the sealed segment files wholly below the covered LSN — the retention
// strategy production time-series stores use for expiry.
//
// The files are a segment chain (segment_chain.h, which holds the roll,
// seal, truncation and repair contract) in the `ASEG` format:
//   <dir>/log-<base_lsn>.seg    events [base_lsn, next segment's base)
// each opening with the header
//   [u32 magic "ASEG"][u32 format version][u64 base LSN][u32 header CRC]
// and holding one frame per event. An event's LSN is its segment's base
// LSN plus its position there.
//
// Recovery (ReadSegmentedLogContents) reads the chain from its oldest
// segment: a torn tail in the newest segment is dropped (the expected
// crash artifact), a corrupt middle segment ends the valid prefix at its
// last good frame, and segments left behind by a crash between a
// checkpoint's GC and its unlink pass are read normally (replay starts at
// the manifest's covered LSN anyway).

#ifndef AMNESIA_DURABILITY_LOG_SEGMENTS_H_
#define AMNESIA_DURABILITY_LOG_SEGMENTS_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "durability/event_log.h"
#include "durability/segment_chain.h"

namespace amnesia {

/// \brief Tuning for a SegmentedEventLog.
struct SegmentedLogOptions {
  /// Roll to a fresh segment once the active file reaches this size.
  /// Smaller segments truncate at a finer grain but cost more files.
  uint64_t max_segment_bytes = 4u << 20;
  /// When appended frames reach the page cache (shared with EventLog).
  SyncPolicy sync;
};

/// \brief Append-only event log striped across segment files. Implements
/// the same EventLogBase surface as EventLog; see the file comment for
/// the on-disk contract.
class SegmentedEventLog : public EventLogBase {
 public:
  /// Opens a fresh log in `dir` (created if missing); any segment files
  /// from a previous instance are removed first, mirroring the truncate
  /// semantics of EventLog::Open.
  static StatusOr<SegmentedEventLog> Open(
      const std::string& dir, const SegmentedLogOptions& options = {});

  /// Re-opens an existing log for appending: scans the segments,
  /// physically truncates a torn tail (and unlinks segments past a
  /// mid-chain break) BEFORE new appends land, and resumes in the newest
  /// segment. NotFound when the directory holds no log.
  static StatusOr<SegmentedEventLog> OpenForAppend(
      const std::string& dir, const SegmentedLogOptions& options = {});

  SegmentedEventLog(SegmentedEventLog&& other) noexcept = default;
  SegmentedEventLog& operator=(SegmentedEventLog&& other) noexcept = default;
  SegmentedEventLog(const SegmentedEventLog&) = delete;
  SegmentedEventLog& operator=(const SegmentedEventLog&) = delete;

  /// Appends one event to the active segment, rolling first when the
  /// size threshold is reached. Thread-safe; flushes per the sync policy.
  Status Append(const Event& event) override;

  /// Flushes pending frames of the active segment to the page cache.
  Status Flush() override;

  /// fsyncs the segments sealed since the last call (appends roll without
  /// an fsync); see SegmentChain::SyncSealed.
  StatusOr<uint64_t> SyncSealed() override { return chain_.SyncSealed(); }

  /// Unlinks every sealed segment wholly below `lsn`. O(1) per segment,
  /// concurrent with Append (appenders only wait for the index splice,
  /// never for the unlinks; truncations serialize among themselves so
  /// unlinks always proceed oldest-first), and conservative: a segment
  /// containing `lsn` is kept whole. Rejects `lsn` beyond next_lsn().
  Status TruncateBefore(uint64_t lsn) override;

  uint64_t next_lsn() const override;
  uint64_t base_lsn() const override;

  /// Returns the number of live segment files (sealed + active).
  uint64_t num_segments() const;
  /// Returns how many segments TruncateBefore has unlinked in total.
  uint64_t segments_unlinked() const;
  /// Returns the directory the segments live in.
  const std::string& dir() const { return chain_.dir(); }

 private:
  explicit SegmentedEventLog(SegmentChain chain) : chain_(std::move(chain)) {}

  SegmentChain chain_;
};

/// \brief Reads the valid prefix of a segmented log directory (see the
/// file comment for what ends the prefix). NotFound when `dir` does not
/// exist or holds no segment with a valid header; any other failure to
/// list `dir` (a regular file, no permission) is returned as is, so
/// recovery never reads an unreadable journal as an absent one.
StatusOr<EventLogContents> ReadSegmentedLogContents(const std::string& dir);

/// \brief Format-agnostic read: a directory at `path` is read as a
/// segmented log, anything else as a legacy single-file log. What
/// Recover() uses so one code path serves both CheckpointerOptions
/// log_format choices.
StatusOr<EventLogContents> ReadAnyEventLogContents(const std::string& path);

/// \brief The canonical event-log location under a checkpoint directory:
/// `<dir>/events.log` (a file) for kSingleFile, `<dir>/events.segs` (a
/// directory) for kSegmented. The one place the convention lives — the
/// simulator, demo and benches all derive the path Recover() takes from
/// here.
std::string EventLogPathFor(const std::string& checkpoint_dir,
                            LogFormat format);

/// \brief Removes whatever event log lives at `path` — a legacy file or
/// a segmented directory (its segment files, then the directory). A
/// missing path is fine. A NEW database instance reusing a checkpoint
/// directory calls this on the OTHER format's path: a stale journal left
/// by a previous run under a different log_format would pair with the
/// fresh manifests and corrupt recovery.
Status RemoveEventLog(const std::string& path);

}  // namespace amnesia

#endif  // AMNESIA_DURABILITY_LOG_SEGMENTS_H_
