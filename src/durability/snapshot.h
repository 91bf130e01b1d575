// Copyright 2026 The AmnesiaDB Authors
//
// Versioned per-shard snapshots: the cheap, caller-thread half of an
// asynchronous checkpoint. Capture copies a shard's state into immutable
// structures the background writer serializes later, so ingest and forget
// passes proceed the moment Capture() returns — the foreground never
// waits on serialization or I/O.
//
// Three levels of work avoidance keep capture cheap:
//  1. Shard skip: a shard whose durability epoch (version + access epoch)
//     is unchanged since the previous capture reuses the previous
//     ShardSnapshot wholesale (shared_ptr, zero copies). The checkpoint
//     writer likewise skips re-writing its blob.
//  2. Copy-on-write column tails: when a shard only appended since the
//     last capture (no compaction, no scrubs), the previously captured
//     payload/tick/batch chunks are shared and only the new tail rows are
//     copied.
//  3. The active-row bitmap and access counts are small flat copies taken
//     fresh on every (re)capture: forgets and access bumps mutate them in
//     place, and they are an order of magnitude smaller than the payload.
//
// The captured types (ShardSnapshot, SnapshotChunk) and their writer,
// SerializeShardSnapshot, live in storage/checkpoint.h with the rest of
// the table-blob format: a vector shard serializes to exactly the bytes
// CheckpointTable(live table) would have produced at capture time, so
// RestoreTable reads blobs from either path and equivalence is testable
// byte-for-byte.

#ifndef AMNESIA_DURABILITY_SNAPSHOT_H_
#define AMNESIA_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/checkpoint.h"
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

/// \brief One capture of a whole (possibly sharded) table, plus the
/// forgetting tiers taken in the same pass — the atomic unit a manifest
/// commits under one covered LSN.
struct TableSnapshot {
  /// Global round-robin ingest cursor at capture.
  uint64_t ingest_cursor = 0;
  std::vector<std::shared_ptr<const ShardSnapshot>> shards;
  /// Tier copies at the same capture point (null when not captured).
  /// Flat copies, not versioned: tier contents are bounded by forgotten
  /// tuples and dwarfed by the table payload; the checkpoint writer still
  /// skips re-writing a tier blob whose bytes did not change.
  std::shared_ptr<const ColdStore> cold;
  std::shared_ptr<const SummaryStore> summaries;
};

/// \brief Work accounting of the most recent Capture call.
struct CaptureStats {
  uint64_t shards_recaptured = 0;  ///< Shards copied (full or tail).
  uint64_t shards_reused = 0;      ///< Shards skipped via unchanged epoch.
  uint64_t chunks_reused = 0;      ///< Payload chunks shared, not copied.
  uint64_t rows_copied = 0;        ///< Rows whose payload was copied.
};

/// \brief Captures per-shard versioned snapshots, reusing state across
/// calls. One manager per table; captures must not run concurrently with
/// mutations of that table (the simulator and benches capture between
/// rounds).
class SnapshotManager {
 public:
  /// Returns the durability epoch of a table: advances on every mutation
  /// that can change checkpoint bytes, including access bumps.
  static uint64_t EpochOf(const Table& table) {
    return table.version() + table.access_epoch();
  }

  /// Captures all shards (given in shard order, as for
  /// ShardedTable::FromShards) plus the forgetting tiers in one pass, so
  /// table and tiers commit under the same covered LSN. `ingest_cursor`
  /// is the global round-robin position at capture.
  TableSnapshot Capture(const std::vector<const Table*>& shards,
                        uint64_t ingest_cursor,
                        const TierSet& tiers = TierSet());

  /// Convenience overloads for the two table flavors.
  TableSnapshot Capture(const ShardedTable& table,
                        const TierSet& tiers = TierSet());
  TableSnapshot Capture(const Table& table, const TierSet& tiers = TierSet());

  /// Returns the work accounting of the most recent Capture call.
  const CaptureStats& last_stats() const { return last_stats_; }

 private:
  /// What the manager remembers about a shard between captures.
  struct ShardState {
    uint64_t epoch = 0;
    uint64_t num_rows = 0;
    Tick next_tick = 0;
    uint64_t scrub_epoch = 0;
    std::shared_ptr<const ShardSnapshot> snapshot;
  };

  std::shared_ptr<const ShardSnapshot> CaptureShard(const Table& table,
                                                    ShardState* state);

  std::vector<ShardState> states_;
  CaptureStats last_stats_;
};

}  // namespace amnesia

#endif  // AMNESIA_DURABILITY_SNAPSHOT_H_
