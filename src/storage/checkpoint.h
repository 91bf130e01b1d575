// Copyright 2026 The AmnesiaDB Authors
//
// Table checkpointing. The paper's escape hatch for forgotten data is
// explicit recovery: "data is forgotten and will never show up in query
// results, unless the user takes the action and recover[s] a backup
// version of the database from cold storage explicitly" (§5). A
// checkpoint serializes a table — payload, amnesia metadata and all — to
// a byte buffer or file; restoring yields a bit-identical table state.
//
// This module owns the table-blob format and both of its layouts:
//  - version 1, self-contained: schema, payload, ticks, batches, access
//    counts and the active bitmap. CheckpointTable writes it from a live
//    table, SerializeShardSnapshot from a captured ShardSnapshot of a
//    vector shard; the two emit the same bytes.
//  - version 2, mapped: partition metadata plus the unsealed tail.
//    SerializeShardSnapshot writes it for a mapped shard, and restore
//    re-maps the sealed payload from the partition files.
// RestoreTable decodes either layout into one Table::Parts.

#ifndef AMNESIA_STORAGE_CHECKPOINT_H_
#define AMNESIA_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/cold_store.h"
#include "storage/database.h"
#include "storage/schema.h"
#include "storage/summary_store.h"
#include "storage/table.h"

namespace amnesia {

/// \brief An immutable, contiguous run of captured rows. Chunks are
/// shared between successive snapshots of an append-only shard.
struct SnapshotChunk {
  /// Column-major payload: columns[c][i] is row (base + i) of column c.
  std::vector<std::vector<Value>> columns;
  std::vector<Tick> ticks;
  std::vector<BatchId> batches;

  /// Returns the number of rows the chunk spans.
  uint64_t size() const { return ticks.size(); }
};

/// \brief A consistent copy of one shard at a capture point: what one
/// table blob holds (SnapshotManager in durability/snapshot.h captures it).
struct ShardSnapshot {
  /// Durability epoch at capture: Table::version() + Table::access_epoch().
  uint64_t epoch = 0;
  uint64_t num_rows = 0;
  Schema schema;
  std::vector<Value> min_seen;
  std::vector<Value> max_seen;
  Tick next_tick = 0;
  uint64_t lifetime_forgotten = 0;
  BatchId current_batch = 0;
  /// Payload in capture order; chunk row ranges concatenate to
  /// [0, num_rows). Empty for mapped shards (sealed payload lives in the
  /// partition files; only `tail_columns` below travels in the blob).
  std::vector<std::shared_ptr<const SnapshotChunk>> chunks;
  /// Per-row access counts (fresh copy each capture).
  std::vector<uint64_t> access_counts;
  /// Active-row bitmap (fresh copy each capture).
  std::vector<bool> active;

  /// \name Mapped-shard capture (StorageBackend::kMapped only).
  /// A mapped shard's blob records partition metadata plus the unsealed
  /// tail; recovery re-maps the partition files instead of deserializing
  /// the sealed payload. Ticks are not captured: mapped shards never
  /// compact, so row r's tick is always next_tick - num_rows + r.
  /// @{
  bool mapped = false;
  std::string storage_dir;      ///< The shard's partition directory.
  uint64_t partition_rows = 0;  ///< Rows per sealed partition.
  std::vector<PartitionMeta> partitions;
  /// Per-column payload of rows [partitions.size() * partition_rows,
  /// num_rows) — the unsealed tail.
  std::vector<std::vector<Value>> tail_columns;
  /// Per-row insertion batches, full length (fresh copy each capture).
  std::vector<BatchId> batches;
  /// @}
};

/// \brief Serializes `table` (schema, payload, ticks, batches, access
/// counts, active bitmap, counters) into a self-contained (version 1)
/// blob. A mapped table's payload is spliced into one array per column,
/// so its blob is byte-identical to its vector-mode twin's.
std::vector<uint8_t> CheckpointTable(const Table& table);

/// \brief Serializes a captured shard: a vector shard in the version 1
/// layout (exactly the bytes CheckpointTable gave at capture time), a
/// mapped shard in the version 2 layout.
std::vector<uint8_t> SerializeShardSnapshot(const ShardSnapshot& snapshot);

/// \brief Reconstructs a table from a table blob of either layout. A
/// version 2 (mapped) blob carries partition metadata and the unsealed
/// tail only; restore re-maps the sealed partition files from
/// `storage_dir`, and fails without one. A version 1 blob restores as an
/// in-memory table and ignores `storage_dir`. Returns InvalidArgument on
/// a corrupt or truncated buffer and FailedPrecondition on an unsupported
/// format version.
StatusOr<Table> RestoreTable(const std::vector<uint8_t>& buffer,
                             const std::string& storage_dir = "");

/// \brief Serializes an entire database: every table plus the declared
/// foreign keys.
std::vector<uint8_t> CheckpointDatabase(const Database& db);

/// \brief Reconstructs a database from a CheckpointDatabase() buffer.
StatusOr<Database> RestoreDatabase(const std::vector<uint8_t>& buffer);

/// \brief Serializes the cold tier: cost model, resident tuples and the
/// accumulated accounting, so recall economics survive a restart.
std::vector<uint8_t> CheckpointColdStore(const ColdStore& store);

/// \brief Reconstructs a cold tier from a CheckpointColdStore() buffer.
StatusOr<ColdStore> RestoreColdStore(const std::vector<uint8_t>& buffer);

/// \brief Serializes the summary tier's per-(column, batch) cells.
std::vector<uint8_t> CheckpointSummaryStore(const SummaryStore& store);

/// \brief Reconstructs a summary tier from a CheckpointSummaryStore()
/// buffer.
StatusOr<SummaryStore> RestoreSummaryStore(const std::vector<uint8_t>& buffer);

/// \brief Writes `bytes` to `path` atomically: a sibling ".tmp" file is
/// written, flushed and renamed into place, so `path` either holds the
/// complete buffer or its previous content — never a torn prefix.
Status WriteBytesFileAtomic(const std::vector<uint8_t>& bytes,
                            const std::string& path);

/// \brief Reads the whole of `path` into a byte buffer (NotFound when the
/// file does not exist).
StatusOr<std::vector<uint8_t>> ReadBytesFile(const std::string& path);

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_CHECKPOINT_H_
