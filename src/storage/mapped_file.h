// Copyright 2026 The AmnesiaDB Authors
//
// mmap-backed partition files: the physical layer of the kMapped storage
// backend. Each sealed partition of a table is a directory
//
//   <table_dir>/part-<epoch_lo>-<epoch_hi>/col-<name>.dat
//
// holding one file per column. A file is a 64-byte checksummed
// self-describing header followed by `rows` little-endian int64 values.
// Files are written once (tmp + rename, so a killed process leaves a
// partition either fully sealed or absent) and then mapped MAP_SHARED
// with PROT_READ|PROT_WRITE: scans read the mapped words directly and
// delete-backend scrubbing writes through to the file. Dropping a
// partition renames its directory to `part-<lo>-<hi>.dropped` (one
// rename, O(1) in the partition size) before the physical unlink, so a
// crash at any point recovers to a consistent state: either the rename
// survived (partition droppable/dropped) or it did not (partition intact,
// bytes untouched).
//
// Sealing and dropping do not fsync. The checkpoint writer fsyncs
// (common/fs.h) every partition file, partition directory and storage
// directory a manifest depends on before it writes that manifest; a
// partition no manifest names yet is rebuilt by recovery, which replays
// its rows from the journal and re-seals it over whatever a power cut
// left behind.

#ifndef AMNESIA_STORAGE_MAPPED_FILE_H_
#define AMNESIA_STORAGE_MAPPED_FILE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/types.h"

namespace amnesia {

/// Fixed size of the partition-file header (data begins at this offset).
inline constexpr uint64_t kPartitionHeaderBytes = 64;

/// Partition-file magic: "APAR" (Amnesia PARtition) as little-endian u32.
inline constexpr uint32_t kPartitionMagic = 0x52415041;

/// Current partition-file format version.
inline constexpr uint32_t kPartitionVersion = 1;

/// Returns the directory name of the partition covering insertion ticks
/// [epoch_lo, epoch_hi]: "part-<lo>-<hi>".
std::string PartitionDirName(Tick epoch_lo, Tick epoch_hi);

/// Returns the name a dropped partition directory is renamed to.
std::string DroppedPartitionDirName(Tick epoch_lo, Tick epoch_hi);

/// Returns the file name of column `col` inside a partition directory.
std::string PartitionColumnFileName(const std::string& col);

/// Parses "part-<lo>-<hi>" or "part-<lo>-<hi>.dropped". Returns true on
/// match, filling the epochs and the dropped flag.
bool ParsePartitionDirName(const std::string& name, Tick* epoch_lo,
                           Tick* epoch_hi, bool* dropped);

/// \brief One column's sealed partition file, mapped into memory.
///
/// Move-only owner of the mapping; the destructor unmaps. The mapping is
/// MAP_SHARED read/write: Column::Set on a sealed row writes through to
/// the file, which is what makes delete-backend scrubbing durable without
/// a rewrite.
class MappedColumnFile {
 public:
  MappedColumnFile() = default;
  ~MappedColumnFile() { Reset(); }

  MappedColumnFile(MappedColumnFile&& other) noexcept { *this = std::move(other); }
  MappedColumnFile& operator=(MappedColumnFile&& other) noexcept;
  MappedColumnFile(const MappedColumnFile&) = delete;
  MappedColumnFile& operator=(const MappedColumnFile&) = delete;

  /// Writes a sealed partition file at `path` atomically against a
  /// process crash (ReplaceFile: tmp file, header + values, rename over
  /// `path`). No fsync: the checkpoint writer syncs the file before a
  /// manifest names it.
  static Status WriteSealed(const std::string& path, const Value* values,
                            uint64_t rows, Tick epoch_lo, Tick epoch_hi);

  /// Maps the file at `path`, validating magic, version, header CRC, file
  /// size, and (when `expect_rows` > 0) the row count against the caller's
  /// expectation.
  static StatusOr<MappedColumnFile> Map(const std::string& path,
                                        uint64_t expect_rows);

  /// Mutable pointer to the mapped values (valid while this object lives).
  Value* data() const { return data_; }
  /// Number of values in the file.
  uint64_t rows() const { return rows_; }
  /// Epochs recorded in the header.
  Tick epoch_lo() const { return epoch_lo_; }
  Tick epoch_hi() const { return epoch_hi_; }
  /// Total bytes mapped (header + payload).
  uint64_t mapped_bytes() const { return length_; }
  /// True when a file is mapped.
  bool valid() const { return base_ != nullptr; }

  /// Unmaps (no-op when not mapped).
  void Reset();

 private:
  void* base_ = nullptr;
  size_t length_ = 0;
  Value* data_ = nullptr;
  uint64_t rows_ = 0;
  Tick epoch_lo_ = 0;
  Tick epoch_hi_ = 0;
};

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_MAPPED_FILE_H_
