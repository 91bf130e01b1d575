// Copyright 2026 The AmnesiaDB Authors
//
// Fundamental storage types. The paper's simulator stores integer columns
// over a bounded domain; AmnesiaDB keeps that model: Value is a signed
// 64-bit integer, rows are addressed by dense RowIds, and every row carries
// amnesia metadata (insertion tick, insertion batch, access frequency, and
// an active/forgotten state).

#ifndef AMNESIA_STORAGE_TYPES_H_
#define AMNESIA_STORAGE_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace amnesia {

/// Cell value type: all AmnesiaDB columns hold 64-bit signed integers.
using Value = int64_t;

/// Dense row identifier within a table (stable until compaction).
using RowId = uint64_t;

/// Monotonic logical insertion time, global per table.
using Tick = uint64_t;

/// Index of the update batch a row was inserted in (0 = initial load).
using BatchId = uint32_t;

/// Sentinel for "no such row" (returned by compaction remappings).
inline constexpr RowId kInvalidRow = std::numeric_limits<RowId>::max();

/// \brief Physical representation of a table's column payloads.
///
/// kVector keeps every column in a std::vector (the original in-memory
/// representation, retained as the cross-check oracle). kMapped seals
/// full partitions of rows into mmap'd files under time-partitioned
/// directories, so tables grow past RAM, restarts map files instead of
/// deserializing them, and age-based forgetting of a whole partition is
/// an O(1) rename+unlink.
enum class StorageBackend : uint8_t {
  kVector = 0,
  kMapped = 1,
};

/// \brief Where and how a table's mapped partitions live.
///
/// Ignored (and empty by default) under StorageBackend::kVector.
struct StorageOptions {
  StorageBackend backend = StorageBackend::kVector;
  /// Directory holding this table's partition directories. Required for
  /// kMapped; created on demand. A ShardedTable gives shard k the
  /// subdirectory `<dir>/shard-<k>`.
  std::string dir;
  /// Rows per sealed partition. Rounded up to a power of two (minimum
  /// 64) so scan morsels never straddle a partition boundary.
  uint64_t partition_rows = 1u << 16;
};

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_TYPES_H_
