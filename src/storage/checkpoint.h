// Copyright 2026 The AmnesiaDB Authors
//
// Table checkpointing. The paper's escape hatch for forgotten data is
// explicit recovery: "data is forgotten and will never show up in query
// results, unless the user takes the action and recover[s] a backup
// version of the database from cold storage explicitly" (§5). A
// checkpoint serializes a table — payload, amnesia metadata and all — to
// a byte buffer or file; restoring yields a bit-identical table state.

#ifndef AMNESIA_STORAGE_CHECKPOINT_H_
#define AMNESIA_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "storage/cold_store.h"
#include "storage/database.h"
#include "storage/sharded_table.h"
#include "storage/summary_store.h"
#include "storage/table.h"

namespace amnesia {

namespace ckpt {
class Writer;
}  // namespace ckpt

/// \name Table blob format, shared by CheckpointTable and the durability
/// snapshot serializer (durability/snapshot.h), which must emit the same
/// bytes.
/// @{
constexpr uint32_t kTableBlobMagic = 0x414D4E45;  // "AMNE"
/// Full in-memory layout: payload, ticks, batches, access counts, bitmap.
constexpr uint32_t kTableBlobVersion = 1;
/// Mapped-shard layout: partition metadata + unsealed tail; the sealed
/// payload is re-mapped from the partition files at restore.
constexpr uint32_t kTableBlobVersionMapped = 2;
/// @}

/// \brief Writes the prefix every table blob opens with: magic,
/// `version`, the schema, then the row count, next tick, lifetime forget
/// total and current batch.
void WriteTableBlobPrefix(ckpt::Writer* w, uint32_t version,
                          const Schema& schema, uint64_t rows,
                          uint64_t next_tick, uint64_t lifetime_forgotten,
                          BatchId current_batch);

/// \brief Serializes `table` (schema, payload, ticks, batches, access
/// counts, active bitmap, counters) into a self-describing byte buffer.
std::vector<uint8_t> CheckpointTable(const Table& table);

/// \brief Reconstructs a table from a CheckpointTable() buffer.
/// Returns InvalidArgument on a corrupt or truncated buffer and
/// FailedPrecondition on an unsupported format version.
StatusOr<Table> RestoreTable(const std::vector<uint8_t>& buffer);

/// \brief Reconstructs a table from a checkpoint blob, resolving mapped
/// (version 2) blobs against `storage_dir`: a v2 blob carries partition
/// metadata and the unsealed tail only, and restore re-maps the sealed
/// partition files from `storage_dir` instead of deserializing their
/// payload. v1 blobs restore as in-memory tables and ignore `storage_dir`.
StatusOr<Table> RestoreTableWithStorage(const std::vector<uint8_t>& buffer,
                                        const std::string& storage_dir);

/// \brief Serializes an entire database: every table plus the declared
/// foreign keys.
std::vector<uint8_t> CheckpointDatabase(const Database& db);

/// \brief Reconstructs a database from a CheckpointDatabase() buffer.
StatusOr<Database> RestoreDatabase(const std::vector<uint8_t>& buffer);

/// \brief Serializes a sharded table. Every shard is snapshotted
/// independently with the Table format (its own self-contained blob), so
/// the async writer checkpoints shards concurrently and a partial reader
/// can restore single shards. When `pool` is non-null the per-shard blobs
/// are serialized concurrently on it (SubmitTask futures, assembled in
/// shard order); the output is bit-identical to the serial writer. Must
/// not be called from inside a pool task (the future waits would
/// deadlock a busy pool).
std::vector<uint8_t> CheckpointShardedTable(const ShardedTable& table,
                                            ThreadPool* pool = nullptr);

/// \brief Reconstructs a sharded table from a CheckpointShardedTable()
/// buffer, including the round-robin ingest cursor.
StatusOr<ShardedTable> RestoreShardedTable(const std::vector<uint8_t>& buffer);

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

/// \brief Writes a checkpoint to `path` (atomically via rename).
Status WriteCheckpointFile(const Table& table, const std::string& path);

/// \brief Reads and restores a checkpoint from `path`.
StatusOr<Table> ReadCheckpointFile(const std::string& path);

/// \brief Writes a sharded-table checkpoint to `path` (atomically via
/// rename), serializing shard blobs on `pool` when given.
Status WriteShardedCheckpointFile(const ShardedTable& table,
                                  const std::string& path,
                                  ThreadPool* pool = nullptr);

/// \brief Reads and restores a sharded-table checkpoint from `path`.
StatusOr<ShardedTable> ReadShardedCheckpointFile(const std::string& path);

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_CHECKPOINT_H_
