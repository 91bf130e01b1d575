// Copyright 2026 The AmnesiaDB Authors
//
// The amnesia-aware columnar table: dense integer columns plus per-row
// amnesia metadata (insertion tick, insertion batch, access frequency,
// active/forgotten state). This is the paper's §2.1 architecture with the
// bookkeeping every amnesia policy needs.

#ifndef AMNESIA_STORAGE_TABLE_H_
#define AMNESIA_STORAGE_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "storage/types.h"

namespace amnesia {

/// Default number of rows per scan morsel: large enough to amortize
/// per-morsel dispatch, small enough that a 10M-row table yields >100
/// morsels for load balancing across workers.
inline constexpr uint64_t kDefaultMorselRows = uint64_t{1} << 16;

/// \brief Half-open range of row ids — the unit of parallel scan work.
struct Morsel {
  RowId begin = 0;
  RowId end = 0;

  /// Returns the number of rows the morsel spans.
  uint64_t size() const { return end - begin; }
};

/// \brief Random-access, iterable partition of [0, num_rows) into morsels.
///
/// Every morsel spans exactly `morsel_rows` rows except possibly the last.
/// The partition is deterministic: morsel i covers
/// [i * morsel_rows, min((i+1) * morsel_rows, num_rows)), so per-morsel
/// results can be merged in index order to reproduce storage order.
class MorselRange {
 public:
  MorselRange(uint64_t num_rows, uint64_t morsel_rows)
      : num_rows_(num_rows), morsel_rows_(morsel_rows == 0 ? 1 : morsel_rows) {}

  /// Returns the number of morsels (0 for an empty table).
  uint64_t count() const {
    return (num_rows_ + morsel_rows_ - 1) / morsel_rows_;
  }

  /// Returns the i-th morsel. Precondition: i < count().
  Morsel at(uint64_t i) const {
    const RowId begin = i * morsel_rows_;
    const RowId end = begin + morsel_rows_ < num_rows_ ? begin + morsel_rows_
                                                       : num_rows_;
    return Morsel{begin, end};
  }

  /// \brief Forward iterator over the partition (for range-for loops).
  class Iterator {
   public:
    Iterator(const MorselRange* range, uint64_t i) : range_(range), i_(i) {}
    Morsel operator*() const { return range_->at(i_); }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }

   private:
    const MorselRange* range_;
    uint64_t i_;
  };

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, count()); }

 private:
  uint64_t num_rows_;
  uint64_t morsel_rows_;
};

/// \brief One sealed partition of a mapped table: the closed insertion-tick
/// range it covers and whether it has been dropped (O(1) forgotten).
struct PartitionMeta {
  Tick epoch_lo = 0;
  Tick epoch_hi = 0;
  bool dropped = false;
};

/// \brief Result of Table::CompactForgotten: maps old row ids to new ones.
struct RowMapping {
  /// old_to_new[r] is the new RowId of old row r, or kInvalidRow if the row
  /// was physically removed.
  std::vector<RowId> old_to_new;
  /// Number of rows physically removed.
  uint64_t removed = 0;
};

/// \brief A table's live candidate list: the RowId and every column value
/// of each active row, in RowId order. kActiveOnly scans and counts read
/// a morsel's slice of it instead of the morsel's whole column span and
/// visibility words (query/scan.h), so they cost the live rows, not the
/// history. A RowId is kept as its 16-bit offset inside its 64Ki-row
/// block plus one start index per block: 8 B per live row per column,
/// plus 2 B.
///
/// Only Table builds one (Table::live_candidates()); readers get it const.
class LiveCandidates {
 public:
  /// Rows per block: a candidate's RowId is block * 2^kBlockBits + offset.
  static constexpr unsigned kBlockBits = 16;

  /// \brief The candidates of a row range: indices [lo, hi).
  struct Slice {
    uint64_t lo = 0;
    uint64_t hi = 0;
    uint64_t first_block = 0;  ///< Block of the range's first row.

    uint64_t size() const { return hi - lo; }
  };

  LiveCandidates() = default;
  /// A move carries the list with the version it was built at and leaves
  /// the source unbuilt. Tables are move-only (a mapped column owns its
  /// mappings), and so is the list.
  LiveCandidates(LiveCandidates&& other) noexcept;
  LiveCandidates& operator=(LiveCandidates&& other) noexcept;
  LiveCandidates(const LiveCandidates&) = delete;
  LiveCandidates& operator=(const LiveCandidates&) = delete;

  /// Returns the number of candidates (the table's active rows).
  uint64_t size() const { return offsets_.size(); }

  /// Returns the candidates whose RowIds lie in [begin, end). Rows past
  /// the table's row count have none. O(1) when both ends are
  /// block-aligned, else a binary search inside one block each.
  Slice SliceOf(RowId begin, RowId end) const {
    return Slice{LowerBound(begin), LowerBound(end), begin >> kBlockBits};
  }

  /// Returns column `col`'s values, index-aligned with the candidates.
  const Value* values(size_t col) const { return values_[col].data(); }

  /// Calls fn(lo, hi, base) for each run [lo, hi) of `slice`'s candidates
  /// that share one block, in order: candidate k of a run is row
  /// base + offset(k).
  template <typename Fn>
  void ForEachRun(Slice slice, Fn&& fn) const {
    uint64_t k = slice.lo;
    for (uint64_t b = slice.first_block; k < slice.hi; ++b) {
      const uint64_t run_hi = std::min(slice.hi, block_start_[b + 1]);
      if (k < run_hi) fn(k, run_hi, RowId{b} << kBlockBits);
      k = run_hi;
    }
  }

  /// Returns candidate k's offset inside its block.
  uint16_t offset(uint64_t k) const { return offsets_[k]; }

 private:
  friend class Table;

  /// The version() of a list that was never built.
  static constexpr uint64_t kUnbuilt = ~uint64_t{0};

  /// Index of the first candidate whose RowId is >= row.
  uint64_t LowerBound(RowId row) const;

  /// block_start_[b] is the index of block b's first candidate; one entry
  /// per block plus a last one equal to size().
  std::vector<uint64_t> block_start_;
  std::vector<uint16_t> offsets_;
  /// One vector per column.
  std::vector<std::vector<Value>> values_;
  /// The table version() the list was built at, or kUnbuilt. Released
  /// after a rebuild, so a reader that sees the current version sees the
  /// whole list.
  std::atomic<uint64_t> version_{kUnbuilt};
  /// Serializes rebuilds against each other.
  std::mutex mu_;
};

/// \brief Append-only columnar table with tuple-level amnesia marking.
///
/// Rows are appended (never updated in place by clients); each row records
/// the logical tick and batch of its insertion. Forgetting flips a row's
/// state to kForgotten; the row's payload stays in place until a forgetting
/// backend scrubs or compacts it. A monotonically increasing `version()`
/// lets secondary structures (indexes) detect staleness; the live
/// candidate list (live_candidates()) is rebuilt by the first reader that
/// finds it behind version().
///
/// Threading: any number of threads may read one table at once, or one
/// thread may mutate it. The lazy rebuild of the live candidate list is
/// the one write a const method makes; a mutex guards it, so concurrent
/// first readers after a mutation build it once.
class Table {
 public:
  /// Creates an empty table with the given schema.
  /// Returns InvalidArgument for schemas with zero columns.
  static StatusOr<Table> Make(Schema schema);

  /// Creates an empty table with the given schema and storage backend.
  /// For StorageBackend::kMapped, `storage.dir` must be set (it is created
  /// if missing) and `storage.partition_rows` is rounded up to a power of
  /// two (minimum 64) so scan morsels never straddle a seal boundary.
  static StatusOr<Table> Make(Schema schema, StorageOptions storage);

  /// \brief `rows` consecutive rows stamped with update batch `batch`.
  struct BatchRun {
    BatchId batch = 0;
    uint64_t rows = 0;
  };

  /// \brief The table's image: what a checkpoint captures, writes and
  /// restores. It holds only what the table cannot derive. Every row below
  /// `row_base` lies in a dropped partition, so it is inactive, scrubbed
  /// and has access count 0: the per-row arrays start at `row_base`, and
  /// a capture costs the live partitions plus the tail, not the history.
  struct Parts {
    Schema schema;
    /// kVector (the default) or kMapped; for kMapped, `dir` and
    /// `partition_rows` must match the partition files.
    StorageOptions storage;
    /// Sealed partitions of a mapped table; a vector table has none.
    std::vector<PartitionMeta> partitions;
    /// Per-column payload; all inner vectors must share one length. A
    /// vector table's whole payload, a mapped table's unsealed tail (the
    /// sealed rows are re-mapped from the partition files).
    std::vector<std::vector<Value>> columns;
    /// Historical extrema per column (may be wider than the payload when
    /// compaction removed the extreme rows).
    std::vector<Value> min_seen;
    std::vector<Value> max_seen;
    /// A vector table's ticks; empty for a mapped table, which never
    /// compacts, so its row r was inserted at tick next_tick - rows + r.
    std::vector<Tick> insert_ticks;
    /// The first row the per-row arrays below cover. For a mapped image, a
    /// multiple of partition_rows, at most the sealed rows, with every
    /// partition below it dropped; 0 for a vector image.
    uint64_t row_base = 0;
    /// The batch of every row, as runs in row order: one per update batch
    /// that stamped rows. Batch ids never decrease in row order (ingest
    /// stamps the current batch, which only grows, and compaction keeps
    /// the order).
    std::vector<BatchRun> batches;
    /// Access counts of rows [row_base, rows).
    std::vector<uint64_t> access_counts;
    /// active[i] == true iff row row_base + i is active; length ==
    /// rows - row_base.
    std::vector<bool> active;
    Tick next_tick = 0;
    uint64_t lifetime_forgotten = 0;
    BatchId current_batch = 0;

    /// Returns the table's row count: row_base plus the per-row arrays.
    uint64_t rows() const { return row_base + active.size(); }
    /// Expands `batches` into one batch id per row, allocated once.
    std::vector<BatchId> BatchIds() const;
  };

  /// The most rows an image may restore. A mapped image's dropped prefix
  /// costs its blob nothing, while the restored table still holds ticks,
  /// batch ids, access counts and active bits for every row; the ceiling
  /// keeps a corrupt image from asking for those at any size.
  static constexpr uint64_t kMaxImageRows = uint64_t{1} << 32;

  /// Reassembles a table from its image. Validates lengths, the batch
  /// runs, `row_base` and counter consistency (InvalidArgument on
  /// mismatch; see Parts), and rejects an active bit inside a dropped
  /// partition and more than kMaxImageRows rows. A dropped row's access
  /// count reads 0 afterwards, whatever the image carried. A mapped table
  /// derives its ticks and re-maps every live partition's column files
  /// (falling back to the `.dropped` name when a drop's rename was
  /// durable but its journal record was lost — the rename preserves the
  /// bytes, so the partition restores intact) and attaches zero-reading
  /// placeholders for dropped partitions. Exposed for the checkpoint
  /// module; regular clients use Make() + AppendColumns().
  static StatusOr<Table> FromParts(Parts parts);

  /// Copies the table into its image, the inverse of FromParts: the
  /// access counts and active bits from `row_base` on, the batches as one
  /// run per batch (found by galloping from the run's start), the payload
  /// as each column's data() (a mapped table's sealed rows stay in their
  /// partition files). O(rows from row_base on + partitions + Σ over
  /// batches of log(run length)).
  Parts ToParts() const;

  /// Returns the schema.
  const Schema& schema() const { return schema_; }
  /// Returns the number of columns.
  size_t num_columns() const { return columns_.size(); }

  /// Returns the storage configuration (backend kVector by default).
  const StorageOptions& storage() const { return storage_; }
  /// True when column payloads live in mmap'd partition files.
  bool mapped() const { return storage_.backend == StorageBackend::kMapped; }
  /// Rows per sealed partition (0 in vector mode).
  uint64_t partition_rows() const {
    return mapped() ? storage_.partition_rows : 0;
  }
  /// Sealed partitions in insertion order (dropped ones included — RowIds
  /// stay stable across drops).
  const std::vector<PartitionMeta>& partitions() const { return partitions_; }
  /// Rows covered by sealed partitions; rows at or past this index are in
  /// the in-memory tail.
  uint64_t sealed_rows() const {
    return partitions_.size() * storage_.partition_rows;
  }
  /// Total bytes currently mmap'd across all columns' live segments.
  uint64_t MappedBytes() const;

  /// Drops sealed partition `idx` whole: renames its directory to
  /// `part-<lo>-<hi>.dropped`, then every covered row is marked forgotten,
  /// reads as the scrub value 0 and has its access count reset to 0 (so an
  /// image may leave a dropped prefix out, see Parts) — O(1) in the
  /// partition size plus one bitmap range-clear and one fill of the
  /// counts. With `defer_unlink` the renamed directory is left for
  /// retention GC / recovery cleanup (callers that journal a drop event
  /// defer, so a crash before the event is flushed recovers the partition
  /// from its `.dropped` name) and nothing is fsynced: the checkpoint
  /// writer syncs the storage directory before a manifest that reflects
  /// the drop. Otherwise the directory is unlinked and the storage
  /// directory fsynced at once. Idempotent. Returns the number of rows
  /// newly forgotten.
  StatusOr<uint64_t> DropPartition(size_t idx, bool defer_unlink = false);

  /// Returns the number of rows physically present (active + forgotten,
  /// before compaction removes them).
  uint64_t num_rows() const { return active_.size(); }
  /// Returns the number of active rows.
  uint64_t num_active() const { return num_active_; }
  /// Returns the number of rows currently marked forgotten (still present).
  uint64_t num_forgotten() const { return num_rows() - num_active_; }
  /// Returns the total number of rows ever inserted (survives compaction).
  uint64_t lifetime_inserted() const { return next_tick_; }
  /// Returns the total number of rows ever forgotten (survives compaction).
  uint64_t lifetime_forgotten() const { return lifetime_forgotten_; }

  /// Returns the current update-batch id (0 until the first BeginBatch).
  BatchId current_batch() const { return current_batch_; }
  /// Starts a new update batch; subsequent appends are stamped with it.
  void BeginBatch() { ++current_batch_; }

  /// Appends one row: a one-row AppendColumns. `values` must have exactly
  /// num_columns() entries. Returns the new RowId.
  StatusOr<RowId> AppendRow(const std::vector<Value>& values);

  /// Ingest, the one path every appended row takes: appends
  /// `columns[c][i]` as row i's column c, stamping each row with the next
  /// tick and the current batch, then seals every partition the tail
  /// filled. All inner vectors must share one length and `columns` must
  /// have num_columns() entries. The result does not depend on how the
  /// rows are split into calls, down to version(), which advances by the
  /// row count, so the durability epoch a checkpoint records does not
  /// depend on the ingest path. Returns the number of rows appended. Every
  /// per-row array grows geometrically, never to an exact fit, so a run of
  /// appends costs amortized O(rows appended); an exact-fit reserve would
  /// copy all per-row metadata on every call.
  StatusOr<uint64_t> AppendColumns(
      const std::vector<std::vector<Value>>& columns);

  /// Returns the value of column `col` at `row`.
  /// Preconditions: col < num_columns(), row < num_rows().
  Value value(size_t col, RowId row) const { return columns_[col].Get(row); }

  /// Returns column `col` for vectorized access.
  const Column& column(size_t col) const { return columns_[col]; }

  /// Returns true iff `row` is active (not forgotten).
  bool IsActive(RowId row) const { return active_.Test(row); }

  /// Marks `row` forgotten. Returns FailedPrecondition when already
  /// forgotten, OutOfRange for invalid rows.
  Status Forget(RowId row);

  /// Reverses a Forget (used by explicit recovery from cold storage).
  /// Returns FailedPrecondition when the row is active or lies in a
  /// dropped partition (its bytes are gone).
  Status Revive(RowId row);

  /// Returns the logical insertion tick of `row`.
  Tick insert_tick(RowId row) const { return insert_tick_[row]; }
  /// Returns the update batch `row` was inserted in.
  BatchId batch_of(RowId row) const { return batch_of_[row]; }

  /// Returns how many query results `row` appeared in.
  uint64_t access_count(RowId row) const { return access_count_[row]; }

  /// Per-row insertion ticks, batches and access counts, index-aligned
  /// with the rows (checkpoint writers read them in place).
  const std::vector<Tick>& insert_ticks() const { return insert_tick_; }
  const std::vector<BatchId>& batches() const { return batch_of_; }
  const std::vector<uint64_t>& access_counts() const { return access_count_; }

  /// Records that `row` appeared in a query result (rot policy feedback).
  /// A row of a dropped partition, which a kAll scan still returns as the
  /// scrub value, is not counted: its access count stays 0 (see Parts).
  void BumpAccess(RowId row) {
    if (InDroppedPartition(row)) return;
    ++access_count_[row];
    ++access_epoch_;
  }

  /// Read-only view of the active-row bitmap (index 0..num_rows()).
  const Bitmap& active_bitmap() const { return active_; }

  /// Partitions the table's rows into scan morsels of `morsel_rows` rows
  /// each (last one possibly shorter). The range stays valid across
  /// appends but describes the row count at call time.
  MorselRange Morsels(uint64_t morsel_rows = kDefaultMorselRows) const {
    if (mapped()) {
      // Cap at the partition size and round down to a power of two so no
      // morsel straddles a seal boundary: every morsel's span() is then a
      // zero-copy window into one mapped file (or the tail).
      morsel_rows = std::min(morsel_rows, storage_.partition_rows);
      while (morsel_rows & (morsel_rows - 1)) morsel_rows &= morsel_rows - 1;
    }
    return MorselRange(num_rows(), morsel_rows);
  }

  /// Returns all active row ids in storage order. O(num_rows()).
  std::vector<RowId> ActiveRows() const;

  /// Returns the RowId of the k-th active row in storage order, or
  /// kInvalidRow when k >= num_active(). O(num_rows()/64). For many ranks
  /// at once, active_bitmap().SelectSetMany() resolves all in one pass.
  RowId NthActiveRow(uint64_t k) const;

  /// Returns the largest value ever appended to column `col` — the paper's
  /// "max value seen up to the latest update batch".
  Value max_seen(size_t col) const { return columns_[col].max_seen(); }
  /// Returns the smallest value ever appended to column `col`.
  Value min_seen(size_t col) const { return columns_[col].min_seen(); }

  /// Overwrites the payload of a forgotten row with `scrub_value` in every
  /// column (delete-backend hygiene: the data is unrecoverable even before
  /// compaction). Returns FailedPrecondition when the row is active.
  Status ScrubRow(RowId row, Value scrub_value = 0);

  /// Physically removes all forgotten rows, compacting every column and all
  /// metadata. Returns the old→new row mapping so secondary structures can
  /// remap or rebuild. Lifetime counters are unaffected. On a mapped table
  /// this is an identity no-op (stable RowIds into sealed files are the
  /// point; space comes back partition-wise via DropPartition instead).
  RowMapping CompactForgotten();

  /// Monotonic structural version: bumped on append, seal, forget, revive,
  /// scrub, partition drop and compaction — every change of the live set
  /// or a live value. Indexes and the live candidate list record the
  /// version they were built at.
  uint64_t version() const { return version_; }

  /// Returns the live candidate list at version(). The first call after
  /// version() moved rebuilds it: one walk of the active bitmap plus one
  /// gather of the live values of every column. Safe to call from several
  /// reader threads at once; the reference stays valid until the next
  /// mutation. A table from FromParts starts without a list, and
  /// ApproxBytes() does not count it.
  const LiveCandidates& live_candidates() const;

  /// Monotonic count of BumpAccess calls — the one mutation version()
  /// does not cover (indexes must not look stale on reads). The
  /// durability layer's epoch is version() + access_epoch(), so
  /// checkpoints skip a shard only when it is truly byte-identical.
  uint64_t access_epoch() const { return access_epoch_; }

  /// Approximate heap footprint of payload plus metadata, in bytes.
  size_t ApproxBytes() const;

 private:
  explicit Table(Schema schema);

  /// True when `row` lies in a dropped partition: its bytes are gone.
  bool InDroppedPartition(RowId row) const {
    return row < sealed_rows() &&
           partitions_[row / storage_.partition_rows].dropped;
  }

  /// Seals full partitions out of the tail until it holds fewer than
  /// partition_rows() rows. No-op in vector mode.
  Status MaybeSealTail();
  /// Seals exactly one partition (the first partition_rows() tail rows).
  Status SealTailPartition();
  /// Refills live_ from the active bitmap and the columns. Caller holds
  /// live_.mu_.
  void RebuildLiveCandidates() const;

  Schema schema_;
  StorageOptions storage_;
  /// Sealed partitions, index-aligned with every column's segments.
  std::vector<PartitionMeta> partitions_;
  std::vector<Column> columns_;
  Bitmap active_;
  std::vector<Tick> insert_tick_;
  std::vector<BatchId> batch_of_;
  std::vector<uint64_t> access_count_;
  uint64_t num_active_ = 0;
  uint64_t lifetime_forgotten_ = 0;
  Tick next_tick_ = 0;
  BatchId current_batch_ = 0;
  uint64_t version_ = 0;
  uint64_t access_epoch_ = 0;
  mutable LiveCandidates live_;
};

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_TABLE_H_
