// Copyright 2026 The AmnesiaDB Authors

#ifndef AMNESIA_STORAGE_COLUMN_H_
#define AMNESIA_STORAGE_COLUMN_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/mapped_file.h"
#include "storage/types.h"

namespace amnesia {

/// \brief A borrowed contiguous slice of column values — the unit the
/// vectorized kernels consume. Plain pointer + length (std::span without
/// the C++20 dependency); valid only while the owning Column is neither
/// appended to nor compacted, and (for gathered mapped slices) only until
/// the same thread requests another span.
struct ValueSpan {
  const Value* data = nullptr;
  uint64_t size = 0;

  const Value* begin() const { return data; }
  const Value* end() const { return data + size; }
  Value operator[](uint64_t i) const { return data[i]; }
  bool empty() const { return size == 0; }
};

/// \brief A dense append-only column of integer values plus running
/// min/max over everything ever appended.
///
/// Two physical representations, selected at construction time:
///
///  - kVector (default): one std::vector, the original in-memory layout,
///    kept as the cross-check oracle.
///  - kMapped: rows are appended into an in-memory tail; every
///    `partition_rows` rows the table seals the tail into an mmap'd
///    partition file (storage/mapped_file.h) and the column reads the
///    mapped words directly from then on. RowIds are stable across the
///    seal: row r lives in sealed segment r / partition_rows, or in the
///    tail. A dropped segment reads as the scrub value 0 and ignores
///    writes.
///
/// The running extrema implement the paper's "maximum value seen up to the
/// latest update batch", which parameterizes the range-query generator.
class Column {
 public:
  Column() = default;

  /// Switches an empty column into mapped mode with `partition_rows` rows
  /// per sealed segment (must be a power of two).
  void SetMapped(uint64_t partition_rows) {
    mapped_ = true;
    partition_rows_ = partition_rows;
    mask_ = partition_rows - 1;
    shift_ = 0;
    while ((uint64_t{1} << shift_) < partition_rows) ++shift_;
  }

  /// True when this column seals partitions into mapped files.
  bool mapped() const { return mapped_; }
  /// Rows per sealed partition (0 in vector mode).
  uint64_t partition_rows() const { return partition_rows_; }
  /// Rows covered by sealed segments (the tail starts here).
  uint64_t sealed_rows() const { return sealed_rows_; }
  /// Number of sealed segments (dropped ones included).
  size_t num_segments() const { return segments_.size(); }

  /// Appends a value.
  void Append(Value v) {
    values_.push_back(v);
    if (v < min_seen_) min_seen_ = v;
    if (v > max_seen_) max_seen_ = v;
  }

  /// Appends a batch of values in order (bulk-ingest path): one contiguous
  /// copy into storage, then one separate extrema sweep over the batch.
  /// Splitting the sweep from the copy keeps both loops branch-light and
  /// auto-vectorizable, instead of a per-element push+compare+compare.
  void AppendMany(const std::vector<Value>& batch) {
    AppendMany(batch.data(), batch.size());
  }

  /// Appends `count` values from `batch` (see above).
  void AppendMany(const Value* batch, size_t count) {
    if (count == 0) return;
    values_.insert(values_.end(), batch, batch + count);
    const auto [lo, hi] = std::minmax_element(batch, batch + count);
    min_seen_ = std::min(min_seen_, *lo);
    max_seen_ = std::max(max_seen_, *hi);
  }

  /// Returns the value at `row`. Precondition: row < size().
  Value Get(RowId row) const {
    if (!mapped_) return values_[row];
    if (row >= sealed_rows_) return values_[row - sealed_rows_];
    const Segment& s = segments_[row >> shift_];
    return s.data == nullptr ? 0 : s.data[row & mask_];
  }

  /// Overwrites the value at `row` (used by delete-backend scrubbing and
  /// compaction). Does not update min/max-seen: those are historical.
  /// Writes to a sealed mapped segment go through to the partition file;
  /// writes to a dropped segment are no-ops (it already reads as the
  /// scrub value).
  void Set(RowId row, Value v) {
    if (!mapped_) {
      values_[row] = v;
      return;
    }
    if (row >= sealed_rows_) {
      values_[row - sealed_rows_] = v;
      return;
    }
    const Segment& s = segments_[row >> shift_];
    if (s.data != nullptr) s.data[row & mask_] = v;
  }

  /// Returns the number of values.
  size_t size() const { return sealed_rows_ + values_.size(); }

  /// Returns true when no value was ever appended.
  bool empty() const { return size() == 0; }

  /// Returns the smallest value ever appended (max int64 when empty).
  Value min_seen() const { return min_seen_; }
  /// Returns the largest value ever appended (min int64 when empty).
  Value max_seen() const { return max_seen_; }

  /// Read-only access to the in-memory values: the whole payload of a
  /// vector column, the unsealed tail (rows from sealed_rows() on) of a
  /// mapped one. Row-addressed reads go through span(), ForEachSpan() or
  /// CopyAll() instead.
  const std::vector<Value>& data() const { return values_; }

  /// Returns the contiguous slice [begin, end) — one scan morsel's worth
  /// of values for the vectorized kernels. Precondition: begin <= end <=
  /// size(). In mapped mode a range inside one segment (or the tail) is
  /// returned zero-copy; a range straddling segments is gathered into a
  /// thread-local scratch buffer that stays valid until this thread's
  /// next span() call on any column.
  ValueSpan span(RowId begin, RowId end) const {
    if (!mapped_) return ValueSpan{values_.data() + begin, end - begin};
    return MappedSpan(begin, end);
  }

  /// Calls fn(base_row, ValueSpan) for each maximal contiguous run inside
  /// [begin, end), in row order. Exactly one call in vector mode.
  template <typename Fn>
  void ForEachSpan(RowId begin, RowId end, Fn&& fn) const {
    if (begin >= end) return;
    if (!mapped_) {
      fn(begin, ValueSpan{values_.data() + begin, end - begin});
      return;
    }
    RowId at = begin;
    while (at < end) {
      RowId run_end;
      const Value* base;
      if (at >= sealed_rows_) {
        run_end = end;
        base = values_.data() + (at - sealed_rows_);
      } else {
        const size_t seg = at >> shift_;
        run_end = std::min<RowId>(end, (seg + 1) << shift_);
        const Segment& s = segments_[seg];
        base = s.data == nullptr ? ZeroBlock() : s.data + (at & mask_);
      }
      fn(at, ValueSpan{base, run_end - at});
      at = run_end;
    }
  }

  /// Copies [begin, end) into `out` (dropped segments copy zeros).
  void CopyRange(RowId begin, RowId end, Value* out) const;

  /// Materializes the whole column as one vector (checkpoint payload
  /// splicing; dropped segments read as zeros).
  std::vector<Value> CopyAll() const;

  /// Seals the first partition_rows() tail values into the partition file
  /// at `path` (crash-atomic write) and maps it as the next segment.
  /// Mapped mode only; requires a full partition in the tail.
  Status SealTail(const std::string& path, Tick epoch_lo, Tick epoch_hi);

  /// Re-attaches an already-sealed partition file during restore. The
  /// file's row count must equal partition_rows().
  Status AttachSegment(MappedColumnFile file);

  /// Attaches a dropped placeholder segment during restore: reads as
  /// zeros, ignores writes, owns no file.
  void AttachDroppedSegment() {
    segments_.emplace_back();
    sealed_rows_ += partition_rows_;
  }

  /// Drops sealed segment `idx`: unmaps the file; the rows read as the
  /// scrub value 0 from then on. Idempotent.
  void DropSegment(size_t idx) {
    Segment& s = segments_[idx];
    s.file.Reset();
    s.data = nullptr;
  }

  /// Total bytes currently mmap'd by this column's live segments.
  uint64_t MappedBytes() const {
    uint64_t total = 0;
    for (const Segment& s : segments_) total += s.file.mapped_bytes();
    return total;
  }

  /// Truncates/rewrites storage keeping only the given rows in their
  /// current order (compaction). `new_values` becomes the storage and the
  /// extrema are recomputed from it — a caller that wants to preserve
  /// wider historical bounds (checkpoint restore, compaction of a table
  /// whose max-seen drives the query generator) must follow up with
  /// OverrideExtrema. In mapped mode `new_values` replaces the unsealed
  /// tail only (checkpoint restore).
  void ReplaceData(std::vector<Value> new_values) {
    values_ = std::move(new_values);
    if (values_.empty()) {
      min_seen_ = std::numeric_limits<Value>::max();
      max_seen_ = std::numeric_limits<Value>::min();
    } else {
      const auto [lo, hi] = std::minmax_element(values_.begin(), values_.end());
      min_seen_ = *lo;
      max_seen_ = *hi;
    }
  }

  /// Overrides the historical extrema; checkpoint restore uses this to
  /// carry min/max-seen across serialization (they may be wider than the
  /// current payload when compaction removed the extreme rows).
  void OverrideExtrema(Value min_seen, Value max_seen) {
    min_seen_ = min_seen;
    max_seen_ = max_seen;
  }

  /// Approximate heap footprint in bytes (mapped segments not included;
  /// see MappedBytes).
  size_t ApproxBytes() const { return values_.capacity() * sizeof(Value); }

 private:
  /// One sealed partition's worth of values. `data` points at the mapped
  /// payload, or is null when the segment was dropped.
  struct Segment {
    MappedColumnFile file;
    Value* data = nullptr;
  };

  ValueSpan MappedSpan(RowId begin, RowId end) const;
  /// partition_rows() zeros, allocated on first use (dropped-segment
  /// reads). Pointer stable for the life of the column.
  const Value* ZeroBlock() const;

  std::vector<Value> values_;  ///< Whole column (vector) or tail (mapped).
  Value min_seen_ = std::numeric_limits<Value>::max();
  Value max_seen_ = std::numeric_limits<Value>::min();

  bool mapped_ = false;
  uint64_t partition_rows_ = 0;
  uint64_t mask_ = 0;
  uint32_t shift_ = 0;
  uint64_t sealed_rows_ = 0;
  std::vector<Segment> segments_;
  mutable std::vector<Value> zeros_;
};

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_COLUMN_H_
