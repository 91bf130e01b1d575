// Copyright 2026 The AmnesiaDB Authors
//
// Segment chain: one directory of append-only, CRC-framed segment files
// that can be compacted by unlinking whole files and repaired after a
// crash by truncating a torn tail. It is the storage layer under both the
// segmented event log (durability/log_segments) and the forgetting audit
// ledger (amnesia/audit_ledger); the clients own what the frames mean.
//
// Directory layout (the directory is dedicated to one chain):
//   <dir>/<prefix><base>.seg    records [base, next segment's base)
//
// Each segment opens with a checksummed, self-describing header
//   [u32 magic][u32 version 1][u64 base][u32 seed (seeded formats only)]
//   [u32 CRC-32 of the preceding header bytes]
// followed by ordinary [len|crc|payload] frames (frame_io.h). A record's
// index (LSN, ledger seq) is its segment's base plus its position there,
// so addressing survives renames and never depends on decoding a payload.
// The seed is opaque here: the ledger stores the hash-chain CRC the
// previous segment ended on, so verification can start at any segment.
//
// Appends go to the newest ("active") segment. Once that segment has
// reached the size threshold and holds a record, the next append seals it
// (fflush + fclose) and opens a fresh one at the next index. A seal does
// not fsync: SyncSealed() fsyncs every segment sealed since its last call,
// so the thread that needs a seal durable pays for it (the event log's
// checkpoint writer before each manifest, the audit ledger right after
// the append that sealed).
// TruncateBefore(index) splices sealed segments wholly below `index` out
// of the index under the append lock and unlinks the files outside it,
// oldest first: each unlink is crash-atomic, and a crash mid-pass leaves
// a contiguous suffix plus fully valid stale segments that the next
// truncation collects. A segment `index` lands inside is kept whole.
//
// A scan orders the segments with a valid header by base and walks them,
// ending the chain at the first base gap, torn or CRC-failed frame, or
// segment or frame the caller refuses. Segments past the end are
// unreachable: readers ignore them and Resume unlinks them after
// truncating the torn tail, before any new append lands behind it.

#ifndef AMNESIA_DURABILITY_SEGMENT_CHAIN_H_
#define AMNESIA_DURABILITY_SEGMENT_CHAIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace amnesia {

struct SyncPolicy;

/// \brief What tells one segment-file format from another. Each client
/// defines one constant: the event log `ASEG`/`log-`/unseeded, the audit
/// ledger `ALED`/`audit-`/seeded.
struct SegmentFormat {
  uint32_t magic = 0;
  const char* prefix = "";
  /// Whether the header carries a u32 seed between base and CRC.
  bool seeded = false;
};

/// \brief The scan's callbacks, called oldest segment first. Either may be
/// empty (accept everything).
struct SegmentVisitor {
  /// A segment at `base` whose header holds `seed` (0 when unseeded) is
  /// about to join the chain; false ends the chain before it.
  std::function<bool(uint64_t base, uint32_t seed)> segment;
  /// One CRC-valid frame payload; false ends the chain before it (the
  /// frame then counts as torn).
  std::function<bool(const std::vector<uint8_t>& payload)> frame;
};

/// \brief The durability barriers one chain call passed, each with the
/// group-commit batch it drained to the page cache (0 = nothing was
/// pending). Reported so a client can account them (the event log's
/// log.* metrics); the chain itself keeps no metrics.
struct SegmentBarriers {
  std::optional<uint32_t> seal;   ///< An append sealed the full segment.
  std::optional<uint32_t> flush;  ///< The sync policy or Flush() flushed.
};

/// \brief Reads the chain in `dir`, handing every segment and frame to
/// `visit`. Returns the base index of the chain's first segment; NotFound
/// when `dir` is missing or holds no segment with a valid header, and the
/// listing's error when `dir` cannot be read.
StatusOr<uint64_t> ReadSegmentChain(const std::string& dir,
                                    const SegmentFormat& format,
                                    const SegmentVisitor& visit);

/// \brief Unlinks every `<prefix>*.seg` file in `dir`. A missing
/// directory is fine; one that cannot be read is an error.
Status RemoveSegmentFiles(const std::string& dir,
                          const SegmentFormat& format);

/// \brief An open segment chain. Append, Flush, SyncSealed and
/// TruncateBefore are thread-safe; truncations and syncs never hold the
/// append lock while unlinking or fsyncing.
class SegmentChain {
 public:
  /// Starts a fresh chain in `dir` (created if missing): removes any
  /// segment files of an earlier instance, then opens `<prefix>0.seg`
  /// with seed 0.
  static StatusOr<SegmentChain> Create(const std::string& dir,
                                       const SegmentFormat& format,
                                       uint64_t max_segment_bytes,
                                       const SyncPolicy& sync);

  /// Re-opens the chain in `dir` for appending: scans it through `visit`,
  /// truncates the torn tail, unlinks unreachable segments and reopens
  /// the newest one. NotFound when `dir` holds no segment with a valid
  /// header.
  static StatusOr<SegmentChain> Resume(const std::string& dir,
                                       const SegmentFormat& format,
                                       uint64_t max_segment_bytes,
                                       const SyncPolicy& sync,
                                       const SegmentVisitor& visit);

  SegmentChain(SegmentChain&&) noexcept;
  SegmentChain& operator=(SegmentChain&&) noexcept;
  ~SegmentChain();

  /// Appends one frame, first sealing the active segment and opening the
  /// next one with header seed `seed` when the roll rule says so, then
  /// flushes per the sync policy. Refused once a seal or segment open has
  /// failed.
  Status Append(const std::vector<uint8_t>& payload, uint32_t seed,
                SegmentBarriers* barriers);

  /// Flushes the active segment's pending frames to the page cache.
  Status Flush(SegmentBarriers* barriers);

  /// fsyncs every segment sealed since the last call, skipping any that
  /// a truncation has unlinked since, and returns how many it fsynced.
  /// On a failed fsync that segment and the later ones stay pending for
  /// the next call.
  StatusOr<uint64_t> SyncSealed();

  /// Unlinks every sealed segment wholly below `index` and returns how
  /// many it unlinked. Rejects `index` beyond next_index(). When an
  /// unlink fails, that segment and every later doomed one stay in the
  /// chain, so a later truncation cannot leave a base gap behind it.
  StatusOr<uint64_t> TruncateBefore(uint64_t index);

  /// Index the next Append gets.
  uint64_t next_index() const;
  /// Index of the oldest record still on disk.
  uint64_t base_index() const;
  /// Live segment files (sealed + active).
  uint64_t num_segments() const;
  /// Segments TruncateBefore has unlinked in total.
  uint64_t segments_unlinked() const;
  const std::string& dir() const;

 private:
  struct State;
  explicit SegmentChain(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

}  // namespace amnesia

#endif  // AMNESIA_DURABILITY_SEGMENT_CHAIN_H_
