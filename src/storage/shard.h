// Copyright 2026 The AmnesiaDB Authors
//
// The global RowId codec that makes shards transparent to RowId consumers,
// and the shard-major morsel partition a parallel scan hands to its pool.
// A ShardedTable's shards are plain Tables, each owning its columns,
// amnesia metadata and active bitmap, so scans, forget passes and
// compaction proceed shard-locally without touching any shared per-table
// state.

#ifndef AMNESIA_STORAGE_SHARD_H_
#define AMNESIA_STORAGE_SHARD_H_

#include <cstdint>
#include <vector>

#include "storage/table.h"
#include "storage/types.h"

namespace amnesia {

/// Number of low RowId bits addressing a row within its shard. The
/// remaining high bits carry the shard index, so shard 0's global ids
/// equal its local ids and a single-shard table is bit-compatible with an
/// unsharded Table.
inline constexpr int kShardLocalBits = 48;

/// Mask selecting the shard-local row bits of a global RowId.
inline constexpr RowId kShardLocalMask = (RowId{1} << kShardLocalBits) - 1;

/// Hard cap on shard count; keeps the shard field well clear of the
/// all-ones kInvalidRow encoding.
inline constexpr uint32_t kMaxShards = 4096;

/// Returns the global RowId of row `local` in shard `shard`.
constexpr RowId MakeGlobalRowId(uint32_t shard, RowId local) {
  return (RowId{shard} << kShardLocalBits) | local;
}

/// Returns the shard index encoded in a global RowId.
constexpr uint32_t ShardOfRow(RowId global) {
  return static_cast<uint32_t>(global >> kShardLocalBits);
}

/// Returns the shard-local row index encoded in a global RowId.
constexpr RowId LocalRowOf(RowId global) { return global & kShardLocalMask; }

/// \brief A morsel of scan work pinned to one shard.
struct ShardMorsel {
  uint32_t shard = 0;
  /// Shard-local half-open row range.
  Morsel morsel;
};

/// \brief Random-access concatenation of per-shard morsel partitions,
/// enumerated in shard-major order.
///
/// Morsel i of the flattened range never spans a shard boundary, so a
/// worker holding it touches exactly one shard's columns and bitmap (no
/// false sharing across shards), and merging per-morsel results in index
/// order yields shard-major row order — ascending global RowId order.
class ShardedMorselRange {
 public:
  /// Concatenates the shards' own partitions, shard s's at index s (each
  /// typically that shard's Table::Morsels, so every shard keeps its own
  /// morsel size).
  explicit ShardedMorselRange(std::vector<MorselRange> shards);

  /// Returns the total number of morsels across all shards.
  uint64_t count() const { return prefix_.back(); }

  /// Returns the i-th morsel in shard-major order. Precondition:
  /// i < count().
  ShardMorsel at(uint64_t i) const;

  /// \brief Forward iterator over the partition (for range-for loops).
  class Iterator {
   public:
    Iterator(const ShardedMorselRange* range, uint64_t i)
        : range_(range), i_(i) {}
    ShardMorsel operator*() const { return range_->at(i_); }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }

   private:
    const ShardedMorselRange* range_;
    uint64_t i_;
  };

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, count()); }

 private:
  std::vector<MorselRange> shards_;
  /// prefix_[s] = number of morsels in shards [0, s); size num_shards + 1.
  std::vector<uint64_t> prefix_;
};

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_SHARD_H_
