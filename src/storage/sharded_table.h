// Copyright 2026 The AmnesiaDB Authors
//
// A table partitioned across N independent shards, plus TableShards, the
// one shape in which the scan and checkpoint layers take "a table". A
// ShardedTable is its list of shard Tables: rows are placed round-robin
// by insertion order (AppendRoundRobin, which recovery's replay calls
// too), and batches advance on every shard in lockstep. It has no per-row
// API of its own: global RowIds encode (shard, local row) — see
// storage/shard.h — and a row is reached through its shard,
// `shard(ShardOfRow(r))` at `LocalRowOf(r)`. A single-shard table is
// bit-compatible with the unsharded Table (shard 0's global ids equal its
// local ids). Each shard is a plain Table owning its columns, amnesia
// metadata and active bitmap, so scans, forget passes, compaction and
// checkpointing all proceed shard-locally.

#ifndef AMNESIA_STORAGE_SHARDED_TABLE_H_
#define AMNESIA_STORAGE_SHARDED_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/shard.h"
#include "storage/table.h"

namespace amnesia {

/// \brief Append-only columnar table partitioned across independent shards.
class ShardedTable {
 public:
  /// Creates an empty table with `num_shards` shards.
  /// Returns InvalidArgument for zero columns, zero shards, or more than
  /// kMaxShards shards.
  static StatusOr<ShardedTable> Make(Schema schema, uint32_t num_shards);

  /// Creates an empty table with `num_shards` shards on the given storage
  /// backend. For kMapped, shard `s` owns the subdirectory
  /// `<storage.dir>/shard-<s>` (created if missing).
  static StatusOr<ShardedTable> Make(Schema schema, uint32_t num_shards,
                                     const StorageOptions& storage);

  /// Reassembles a sharded table from restored shard tables (checkpoint
  /// restore). All tables must share one schema; `next_shard` is the
  /// round-robin ingest cursor at checkpoint time.
  static StatusOr<ShardedTable> FromShards(std::vector<Table> tables,
                                           uint64_t next_shard);

  /// Returns the number of shards.
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  /// Returns shard `s`, whose RowIds are shard-local. Precondition:
  /// s < num_shards().
  const Table& shard(uint32_t s) const { return shards_[s]; }
  /// Returns shard `s` for mutation (ingest, forgetting). Precondition:
  /// s < num_shards().
  Table& mutable_shard(uint32_t s) { return shards_[s]; }

  /// Returns the shared schema.
  const Schema& schema() const { return shards_[0].schema(); }
  /// Returns the number of columns.
  size_t num_columns() const { return shards_[0].num_columns(); }

  /// Returns the round-robin ingest cursor (rows ever appended; the next
  /// row goes to shard cursor % num_shards()).
  uint64_t ingest_cursor() const { return next_shard_; }

  /// \name Global counters, summed over shards.
  /// @{
  uint64_t num_rows() const;
  uint64_t num_active() const;
  uint64_t num_forgotten() const;
  uint64_t lifetime_inserted() const;
  uint64_t lifetime_forgotten() const;
  /// @}

  /// Returns the current update-batch id (kept in lockstep across shards).
  BatchId current_batch() const { return shards_[0].current_batch(); }
  /// Starts a new update batch on every shard.
  void BeginBatch();

  /// Ingest: appends `columns[c][k]` as row k's column c, placed
  /// round-robin from the ingest cursor (see AppendRoundRobin). Returns
  /// the number of rows appended.
  StatusOr<uint64_t> AppendColumns(
      const std::vector<std::vector<Value>>& columns);

  /// Returns the largest value ever appended to column `col`, across all
  /// shards.
  Value max_seen(size_t col) const;
  /// Returns the smallest value ever appended to column `col`, across all
  /// shards.
  Value min_seen(size_t col) const;

 private:
  explicit ShardedTable(std::vector<Table> shards, uint64_t next_shard)
      : shards_(std::move(shards)), next_shard_(next_shard) {}

  std::vector<Table> shards_;
  /// Rows ever appended; row i lands on shard i % num_shards().
  uint64_t next_shard_ = 0;
};

/// \brief Round-robin placement, the one rule that spreads rows over
/// shards: appends `columns[c][k]` as row k's column c to shard
/// `(*cursor + k) % shards->size()`, at that shard's next local row, and
/// advances `*cursor` by the row count. Each shard receives its rows in
/// one Table::AppendColumns call, so the result equals appending the rows
/// one at a time. `columns` must have one entry per schema column, all of
/// one length (InvalidArgument otherwise, before any row is appended).
/// ShardedTable ingest and event-log replay both place rows through it.
/// Returns the number of rows appended. Precondition: `shards` is not
/// empty.
StatusOr<uint64_t> AppendRoundRobin(
    std::vector<Table>* shards, uint64_t* cursor,
    const std::vector<std::vector<Value>>& columns);

/// \brief "A table" as the scan and checkpoint layers read it: its shard
/// Tables in shard order plus the round-robin ingest cursor.
///
/// An unsharded Table is the one-shard case: shard 0, whose local RowIds
/// already are its global ones (MakeGlobalRowId(0, r) == r), with cursor
/// lifetime_inserted(). Both constructors are implicit on purpose: each
/// operator of those layers keeps exactly one signature, taking this view,
/// and every call site that passes a Table (the simulator, the executor,
/// the benchmark replica) or a ShardedTable compiles unchanged against it.
///
/// A view borrows: the table must outlive it and keep its shard count.
class TableShards {
 public:
  TableShards(const Table& table)  // NOLINT(runtime/explicit)
      : shards_(&table),
        num_shards_(1),
        ingest_cursor_(table.lifetime_inserted()) {}
  TableShards(const ShardedTable& table)  // NOLINT(runtime/explicit)
      : shards_(&table.shard(0)),
        num_shards_(table.num_shards()),
        ingest_cursor_(table.ingest_cursor()) {}

  /// Returns the number of shards (1 for an unsharded Table).
  uint32_t num_shards() const { return num_shards_; }
  /// Returns shard `s`. Precondition: s < num_shards().
  const Table& shard(uint32_t s) const { return shards_[s]; }
  /// Returns the number of columns (shared by every shard).
  size_t num_columns() const { return shards_[0].num_columns(); }
  /// Returns the round-robin ingest cursor (rows ever appended).
  uint64_t ingest_cursor() const { return ingest_cursor_; }

  /// Partitions every shard's rows into that shard's own
  /// Table::Morsels(morsel_rows), enumerated shard-major (ascending global
  /// RowId order when merged). No morsel spans two shards, and on a mapped
  /// shard none straddles a partition seal.
  ShardedMorselRange Morsels(uint64_t morsel_rows) const;

 private:
  /// The shards, contiguous: a ShardedTable's vector or one Table.
  const Table* shards_;
  uint32_t num_shards_;
  uint64_t ingest_cursor_;
};

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_SHARDED_TABLE_H_
