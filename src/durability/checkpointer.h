// Copyright 2026 The AmnesiaDB Authors
//
// Background checkpoint writer and crash recovery. A checkpoint is a set
// of per-shard blobs, optional cold/summary tier blobs and a manifest that
// names them all. Checkpoint() captures on the caller: each shard's image
// (Table::ToParts: a mapped shard's rows from its first live partition on,
// plus one batch run per batch, so the capture does not grow with the
// dropped history) and copies of the tiers, in one pass. The writer
// encodes each image (EncodeTableParts) and commits the manifest
// atomically by renaming it into place (common/fs.h); a CURRENT file
// points at the newest one.
// Incremental checkpoints skip writing shards whose durability epoch has
// not advanced since the last durable write (and tier blobs whose bytes
// did not change): the new manifest references the existing blob file.
//
// Before writing a manifest the writer fsyncs what it depends on and the
// batch thread left unsynced: the event-log segments sealed so far
// (EventLogBase::SyncSealed), then each mapped partition the manifest
// lists and the last durable manifest did not (column files, then the
// partition directory), then each storage directory whose live-partition
// list changed (new partition directories, drop renames). Seals, drops
// and journal rolls therefore never wait on the disk. The manifest,
// CURRENT and the blobs themselves are not fsynced: a commit survives
// kill -9, not yet a power loss.
//
// Directory layout:
//   <dir>/ckpt-<id>-shard-<s>.blob  one shard at one epoch (immutable)
//   <dir>/ckpt-<id>-cold.blob       cold tier at checkpoint <id>
//   <dir>/ckpt-<id>-summary.blob    summary tier at checkpoint <id>
//   <dir>/MANIFEST-<id>             blob list + covered event-log LSN
//   <dir>/CURRENT                   name of the newest manifest
//   <dir>/<events file>             the EventLog (owned by the caller)
//
// A manifest lists every shard blob (with its mapped-storage fields, empty
// for vector shards) and the tier blobs, in one layout: version 3. A
// manifest of any other version does not decode.
//
// Retention GC: with CheckpointerOptions::retain = R, each commit keeps
// the newest R manifests, deletes manifests below them, deletes every
// ckpt-*.blob no retained manifest references, and truncates the event
// log below the oldest retained manifest's covered LSN — long-running
// processes hold a disk footprint proportional to R live checkpoints, not
// to history. GC runs strictly after the commit rename, so a crash at any
// GC step only leaves extra files for the next commit to collect.
//
// Recovery loads the newest manifest whose own checksum and every
// referenced blob verify, restores shards and tiers together, and replays
// the event-log tail past the manifest's covered LSN (forget events
// re-route into the restored tiers). A truncated or corrupt manifest
// falls back to the previous one (with a correspondingly longer replay).

#ifndef AMNESIA_DURABILITY_CHECKPOINTER_H_
#define AMNESIA_DURABILITY_CHECKPOINTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.h"  // for callers that prepare and read checkpoint dirs
#include "common/status.h"
#include "common/thread_pool.h"
#include "durability/event_log.h"
#include "storage/cold_store.h"
#include "storage/sharded_table.h"
#include "storage/summary_store.h"
#include "storage/table.h"

namespace amnesia {

/// \brief The forgetting tiers a checkpoint covers alongside the table.
/// Null members are simply absent from the capture (and from the
/// manifest): runs whose backend never routes tuples into a tier need not
/// checkpoint one.
struct TierSet {
  const ColdStore* cold = nullptr;
  const SummaryStore* summaries = nullptr;
};

/// \brief One shard entry of a checkpoint manifest.
struct ManifestShard {
  uint64_t epoch = 0;     ///< Durability epoch the blob captures.
  std::string filename;   ///< Blob file name, relative to the directory.
  uint64_t size = 0;      ///< Blob size in bytes.
  uint32_t crc32 = 0;     ///< CRC-32 of the blob bytes.

  /// \name Mapped-shard storage (empty for vector shards).
  /// @{
  /// Partition directory of the shard; recovery re-maps partition files
  /// from here. Empty means the blob is self-contained (vector shard).
  std::string storage_dir;
  uint64_t partition_rows = 0;
  /// Directory names of the partitions live at checkpoint time. Retention
  /// GC keeps a renamed-but-not-yet-unlinked `part-*.dropped` directory on
  /// disk as long as any retained manifest still lists its base name here.
  std::vector<std::string> partitions;
  /// @}

  bool mapped() const { return !storage_dir.empty(); }
};

/// \brief One tier entry of a manifest (cold or summary store blob).
/// An empty filename means the checkpoint did not capture that tier.
struct ManifestBlob {
  std::string filename;  ///< Blob file name, relative to the directory.
  uint64_t size = 0;     ///< Blob size in bytes.
  uint32_t crc32 = 0;    ///< CRC-32 of the blob bytes.

  bool present() const { return !filename.empty(); }
};

/// \brief A decoded checkpoint manifest.
struct Manifest {
  uint64_t id = 0;           ///< Monotonic checkpoint id (1-based).
  uint64_t covered_lsn = 0;  ///< Event-log position the snapshot covers.
  uint64_t ingest_cursor = 0;
  std::vector<ManifestShard> shards;
  ManifestBlob cold;     ///< Cold tier blob (absent when not captured).
  ManifestBlob summary;  ///< Summary tier blob (absent when not captured).
};

/// \brief Serializes a manifest (self-checksummed: the trailing CRC-32
/// covers everything before it, so truncation is detectable).
std::vector<uint8_t> EncodeManifest(const Manifest& manifest);

/// \brief Decodes and verifies a version 3 manifest buffer.
/// InvalidArgument on a truncated or corrupt manifest, FailedPrecondition
/// on any other version.
StatusOr<Manifest> DecodeManifest(const std::vector<uint8_t>& buffer);

/// \brief Returns the ids of the manifests in `dir`, unsorted: every name
/// `MANIFEST-<id>` whose suffix is all decimal digits. Recovery, retention
/// GC and the id sequence count exactly these, so an orphan
/// `MANIFEST-<id>.tmp` a kill left inside a replace is none of them.
StatusOr<std::vector<uint64_t>> ListManifestIds(const std::string& dir);

/// \brief Deletes every checkpoint artifact (manifests, CURRENT, shard and
/// tier blobs) in `dir`, leaving other files alone. A process starting a
/// NEW database instance into a previously used directory must call this
/// (the simulator does): its fresh event log invalidates the old
/// manifests' covered LSNs, and mixing the two would let recovery replay
/// new events onto an old snapshot. A process RESUMING recovered state
/// keeps the artifacts and reopens the log with EventLog::OpenForAppend
/// instead.
Status ClearCheckpointArtifacts(const std::string& dir);

/// \brief Checkpoint writer tuning.
struct CheckpointerOptions {
  /// Directory all checkpoint artifacts live in (created if missing).
  std::string dir;
  /// Pool used to serialize shard blobs concurrently (nullptr = the
  /// writing thread serializes them one by one).
  ThreadPool* pool = nullptr;
  /// true: Checkpoint() only captures the snapshot on the caller and a
  /// background thread serializes + writes. false: everything runs on the
  /// caller's thread (the foreground baseline the ablation measures).
  bool async = true;
  /// Retention count: after each commit keep only the newest `retain`
  /// manifests, delete the rest plus every blob they alone referenced,
  /// and truncate `log` (when given) below the oldest retained manifest's
  /// covered LSN. 0 disables GC entirely (keep every checkpoint).
  uint32_t retain = 0;
  /// Declared layout of the event log `log` points at; Make() rejects a
  /// `log` whose implementation does not match, so a caller cannot pair
  /// a directory with the wrong format by accident. (The GC itself
  /// truncates through the EventLogBase interface, and Recover() detects
  /// the on-disk format.) kSingleFile rewrites the retained suffix per
  /// truncation (O(retained events), appenders blocked); kSegmented
  /// unlinks whole segment files (O(1), concurrent with appends —
  /// durability/log_segments.h).
  LogFormat log_format = LogFormat::kSingleFile;
  /// Event log the retention GC truncates (nullptr = no log truncation).
  /// Must outlive the checkpointer; TruncateBefore is thread-safe against
  /// the mutator's concurrent appends.
  EventLogBase* log = nullptr;
  /// Called after each retention GC pass with the oldest retained
  /// manifest's covered LSN (the same bound the event-log truncation
  /// uses). Runs on the writing thread, so the callee must be
  /// thread-safe; the simulator installs the audit-ledger truncation
  /// here so sealed ledger segments age out in lockstep with the journal
  /// they attest. Leave empty for no side channel.
  std::function<void(uint64_t oldest_covered_lsn)> on_retention_gc;
  /// Test-only crash injection: when set, called between write phases
  /// ("shard-blobs", "tier-blobs", "manifest", "current", "gc") on the
  /// writing thread; returning true abandons the checkpoint at exactly
  /// that point, leaving the files written so far — the on-disk state of
  /// a process killed there. Production callers leave this empty.
  std::function<bool(const char*)> test_crash_hook;
};

/// \brief Checkpoint activity counters.
struct CheckpointerStats {
  uint64_t checkpoints = 0;        ///< Manifests committed.
  uint64_t shards_written = 0;     ///< Shard blob files written.
  uint64_t shards_skipped = 0;     ///< Shard blobs reused from a prior one.
  uint64_t tier_blobs_written = 0; ///< Cold/summary blob files written.
  uint64_t tier_blobs_skipped = 0; ///< Tier blobs reused (bytes unchanged).
  uint64_t bytes_written = 0;      ///< Blob + manifest bytes written.
  uint64_t manifests_gced = 0;     ///< Manifests deleted by retention GC.
  uint64_t blobs_gced = 0;         ///< Blob files deleted by retention GC.
  uint64_t partition_dirs_gced = 0;  ///< Dropped partition dirs unlinked.
};

/// \brief Writes table checkpoints to disk, asynchronously by default.
///
/// One checkpoint may be in flight at a time; a second Checkpoint() call
/// first waits for the previous write to commit. Mutators may run freely
/// between Checkpoint() and commit: the writer works off the captured
/// snapshot only.
///
/// All state the background writer touches is heap-anchored in a shared
/// block the writer co-owns, so the checkpointer object itself may be
/// moved — even with a write in flight — without the writer ever
/// dereferencing a stale `this`.
class BackgroundCheckpointer {
 public:
  /// Validates the options and prepares the directory. Resumes the
  /// checkpoint-id sequence past any manifests already present.
  static StatusOr<BackgroundCheckpointer> Make(
      const CheckpointerOptions& options);

  ~BackgroundCheckpointer();

  BackgroundCheckpointer(BackgroundCheckpointer&& other) noexcept;
  BackgroundCheckpointer& operator=(BackgroundCheckpointer&&) = delete;
  BackgroundCheckpointer(const BackgroundCheckpointer&) = delete;
  BackgroundCheckpointer& operator=(const BackgroundCheckpointer&) = delete;

  /// Captures every shard of `table` (its Table::ToParts() image) plus
  /// copies of `tiers` on the caller, and commits them covering the first
  /// `covered_lsn` events of the log. One signature serves either table
  /// shape: a Table converts implicitly as the one-shard case, a
  /// ShardedTable as its shard list.
  /// In async mode the serialize+write happens in the background and this
  /// returns immediately; errors surface from the next
  /// Checkpoint()/WaitIdle().
  Status Checkpoint(const TableShards& table, uint64_t covered_lsn,
                    const TierSet& tiers = TierSet());

  /// Blocks until any in-flight checkpoint committed; returns its status.
  Status WaitIdle();

  /// Returns a copy of the activity counters, safe to call while a write
  /// is in flight. Call WaitIdle() first for settled values.
  CheckpointerStats stats() const;

  /// \brief Non-blocking health sample for readiness probes (the
  /// introspection server's /readyz): the status the last finished write
  /// left behind and the newest committed manifest's covered LSN, read
  /// under the shared mutex without waiting for an in-flight write.
  struct Health {
    Status last_write = Status::OK();  ///< Not-OK until WaitIdle() clears it.
    uint64_t checkpoints = 0;          ///< Manifests committed so far.
    uint64_t last_durable_lsn = 0;     ///< Covered LSN of the newest commit.
  };
  Health health() const;

  /// Returns the options.
  const CheckpointerOptions& options() const { return shared_->options; }

 private:
  /// State shared with (and co-owned by) the background writer thread.
  /// `options` is immutable after Make(); everything else is guarded by
  /// `mu` — the writer mutates stats and the durable-blob cache while the
  /// caller thread may concurrently read stats() or move the object.
  struct Shared {
    CheckpointerOptions options;
    mutable std::mutex mu;
    CheckpointerStats stats;
    /// Last durably written blob per shard (epoch it captured + manifest
    /// entry); the incremental skip reuses these.
    std::vector<ManifestShard> durable_shards;
    ManifestBlob durable_cold;     ///< Last durable cold-tier blob.
    ManifestBlob durable_summary;  ///< Last durable summary-tier blob.
    Status inflight_status;
    /// Covered LSN of the newest committed manifest (checkpointer lag =
    /// log next_lsn minus this).
    uint64_t last_durable_lsn = 0;
  };

  /// One capture of a whole table plus its tiers, taken in one pass: the
  /// atomic unit a manifest commits under one covered LSN. The writer owns
  /// it; nothing of it is kept between checkpoints.
  struct TableSnapshot {
    /// One shard's image and its durability epoch at capture
    /// (Table::version() + Table::access_epoch()).
    struct Shard {
      uint64_t epoch = 0;
      Table::Parts image;
    };
    uint64_t ingest_cursor = 0;
    std::vector<Shard> shards;
    std::optional<ColdStore> cold;          ///< Set iff the tier was given.
    std::optional<SummaryStore> summaries;  ///< Set iff the tier was given.
  };

  explicit BackgroundCheckpointer(const CheckpointerOptions& options)
      : shared_(std::make_shared<Shared>()) {
    shared_->options = options;
  }

  /// Encodes and writes one capture, commits the manifest, then runs
  /// retention GC. Runs on the caller (sync) or the writer thread (async);
  /// touches only `shared`, never the checkpointer.
  static Status WriteSnapshot(const std::shared_ptr<Shared>& shared,
                              TableSnapshot snapshot, uint64_t covered_lsn,
                              uint64_t checkpoint_id);

  std::shared_ptr<Shared> shared_;
  uint64_t next_checkpoint_id_ = 1;  // caller thread only
  std::thread inflight_;
};

/// \brief Result of crash recovery.
struct RecoveredState {
  /// Restored shards in shard order; single-shard for unsharded tables.
  /// ShardedTable::FromShards(std::move(shards), ingest_cursor) rebuilds
  /// a sharded table.
  std::vector<Table> shards;
  /// Restored tiers (set iff the manifest carried the tier blob). Log-tail
  /// forget events were already re-routed into them.
  std::optional<ColdStore> cold;
  std::optional<SummaryStore> summaries;
  uint64_t ingest_cursor = 0;
  uint64_t checkpoint_id = 0;    ///< Manifest the recovery started from.
  uint64_t covered_lsn = 0;      ///< Events already inside the snapshot.
  uint64_t events_replayed = 0;  ///< Log-tail events applied on top.
};

/// \brief Recovers the newest consistent state from a checkpoint
/// directory plus an event log. `log_path` may be "" to skip replay
/// (restore the snapshot only), a legacy single-file log, or a segmented
/// log directory (the format is detected from disk). When the manifest
/// carries tier blobs the replayed forget events re-route into the
/// restored tiers. Returns NotFound when no valid manifest exists.
StatusOr<RecoveredState> Recover(const std::string& dir,
                                 const std::string& log_path);

/// \brief Runs one retention-GC pass over `dir` outside any checkpoint:
/// keeps the newest `retain` manifests, deletes manifests and unreferenced
/// blobs below them, and truncates `log` (when given) below the oldest
/// retained manifest's covered LSN. This is exactly the pass each commit
/// runs after renaming CURRENT; call it standalone to converge a
/// directory whose writer was killed between a commit and the end of its
/// GC (a legitimate crash point that leaves extra files behind). A no-op
/// when `retain` is 0.
Status CollectCheckpointGarbage(const std::string& dir, uint32_t retain,
                                EventLogBase* log = nullptr);

}  // namespace amnesia

#endif  // AMNESIA_DURABILITY_CHECKPOINTER_H_
