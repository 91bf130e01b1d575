// Copyright 2026 The AmnesiaDB Authors

#include "durability/segment_chain.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>

#include "common/fs.h"
#include "durability/event_log.h"  // SyncPolicy, log_internal
#include "durability/frame_io.h"
#include "storage/checkpoint_io.h"

namespace amnesia {

namespace {

constexpr uint32_t kFormatVersion = 1;
constexpr const char* kSuffix = ".seg";
// magic + version + base + seed, the part the header CRC covers.
constexpr size_t kMaxHeaderBody = 4 + 4 + 8 + 4;

size_t HeaderSize(const SegmentFormat& format) {
  return 4 + 4 + 8 + (format.seeded ? 4 : 0) + 4;
}

std::string SegmentPath(const std::string& dir, const SegmentFormat& format,
                        uint64_t base) {
  return dir + "/" + format.prefix + std::to_string(base) + kSuffix;
}

bool IsSegmentName(const std::string& name, const SegmentFormat& format) {
  const size_t prefix = std::strlen(format.prefix);
  const size_t suffix = std::strlen(kSuffix);
  return name.size() > prefix + suffix &&
         name.compare(0, prefix, format.prefix) == 0 &&
         name.compare(name.size() - suffix, suffix, kSuffix) == 0;
}

std::vector<uint8_t> EncodeHeader(const SegmentFormat& format, uint64_t base,
                                  uint32_t seed) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  w.U32(format.magic);
  w.U32(kFormatVersion);
  w.U64(base);
  if (format.seeded) w.U32(seed);
  w.U32(ckpt::Crc32(out));
  return out;
}

/// Reads and verifies the header at the current (start) position of `f`.
/// Returns false on a short read, a CRC mismatch or a foreign magic or
/// version: the file is not a usable segment.
bool ReadHeader(std::FILE* f, const SegmentFormat& format, uint64_t* base,
                uint32_t* seed) {
  const size_t body = HeaderSize(format) - 4;
  uint8_t header[kMaxHeaderBody + 4];
  if (std::fread(header, 1, body + 4, f) != body + 4) return false;
  uint32_t stored_crc = 0, magic = 0, version = 0;
  std::memcpy(&stored_crc, header + body, sizeof(stored_crc));
  std::memcpy(&magic, header, sizeof(magic));
  std::memcpy(&version, header + 4, sizeof(version));
  if (ckpt::Crc32(header, body) != stored_crc || magic != format.magic ||
      version != kFormatVersion) {
    return false;
  }
  std::memcpy(base, header + 8, sizeof(*base));
  *seed = 0;
  if (format.seeded) std::memcpy(seed, header + 16, sizeof(*seed));
  return true;
}

/// One segment file with a valid header, scanned.
struct ScannedSegment {
  uint64_t base = 0;
  uint32_t seed = 0;
  uint64_t count = 0;        ///< Frames the chain adopted.
  uint64_t valid_bytes = 0;  ///< Header + adopted frames; a tear starts here.
  std::string path;
};

/// Everything a directory scan learns about a chain.
struct ChainScan {
  std::vector<ScannedSegment> chain;  ///< Contiguous, oldest first.
  /// Segment files past the end of the chain, or with a header that never
  /// finished (crash during roll). Readers ignore them; Resume unlinks them.
  std::vector<std::string> unreachable;
  /// The last chain segment has bytes past valid_bytes.
  bool tail_torn = false;
};

StatusOr<ChainScan> ScanChain(const std::string& dir,
                              const SegmentFormat& format,
                              const SegmentVisitor& visit) {
  AMNESIA_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                           ListDirEntries(dir));
  ChainScan scan;
  std::vector<ScannedSegment> candidates;
  for (const std::string& name : names) {
    if (!IsSegmentName(name, format)) continue;
    ScannedSegment seg;
    seg.path = dir + "/" + name;
    std::FILE* f = std::fopen(seg.path.c_str(), "rb");
    const bool valid =
        f != nullptr && ReadHeader(f, format, &seg.base, &seg.seed);
    if (f != nullptr) std::fclose(f);
    if (valid) {
      candidates.push_back(std::move(seg));
    } else {
      scan.unreachable.push_back(std::move(seg.path));
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ScannedSegment& a, const ScannedSegment& b) {
              return a.base < b.base;
            });

  const size_t header_size = HeaderSize(format);
  bool ended = false;
  std::vector<uint8_t> payload;
  for (ScannedSegment& seg : candidates) {
    // Past a tear, a refusal or a base gap, records have no contiguous
    // index path from the chain's base and can never be read.
    const bool joins =
        !ended &&
        (scan.chain.empty() ||
         seg.base == scan.chain.back().base + scan.chain.back().count) &&
        (!visit.segment || visit.segment(seg.base, seg.seed));
    std::FILE* f = joins ? std::fopen(seg.path.c_str(), "rb") : nullptr;
    if (f == nullptr ||
        std::fseek(f, static_cast<long>(header_size), SEEK_SET) != 0) {
      if (f != nullptr) std::fclose(f);
      ended = true;
      scan.unreachable.push_back(std::move(seg.path));
      continue;
    }
    seg.valid_bytes = header_size;
    const uint64_t file_size = StatPath(seg.path).size;
    uint64_t remaining = file_size > header_size ? file_size - header_size : 0;
    while (wal::ReadFrame(f, &remaining, &payload) &&
           (!visit.frame || visit.frame(payload))) {
      ++seg.count;
      seg.valid_bytes += wal::kFrameHeaderSize + payload.size();
    }
    std::fclose(f);
    if (seg.valid_bytes < file_size) {
      ended = true;
      scan.tail_torn = true;
    }
    scan.chain.push_back(std::move(seg));
  }
  return scan;
}

}  // namespace

StatusOr<uint64_t> ReadSegmentChain(const std::string& dir,
                                    const SegmentFormat& format,
                                    const SegmentVisitor& visit) {
  AMNESIA_ASSIGN_OR_RETURN(ChainScan scan, ScanChain(dir, format, visit));
  if (scan.chain.empty()) {
    return Status::NotFound("no usable segment in '" + dir + "'");
  }
  return scan.chain.front().base;
}

Status RemoveSegmentFiles(const std::string& dir,
                          const SegmentFormat& format) {
  return RemoveMatchingFiles(dir, [&format](const std::string& name) {
    return IsSegmentName(name, format);
  });
}

// ------------------------------------------------------------ SegmentChain

struct SegmentChain::State {
  State(const std::string& dir_in, const SegmentFormat& format_in,
        uint64_t max_segment_bytes_in, const SyncPolicy& sync_in)
      : dir(dir_in),
        format(format_in),
        max_segment_bytes(max_segment_bytes_in),
        sync(sync_in) {}
  ~State() {
    if (active != nullptr) std::fclose(active);
  }

  /// Creates segment `base` with header seed `seed` and makes it active.
  /// On failure no segment is active, so appends are refused. Caller
  /// holds mu (or owns the state exclusively).
  Status OpenSegmentLocked(uint64_t base, uint32_t seed);
  /// Seals the active segment and opens the next one. Caller holds mu.
  Status RollLocked(uint32_t seed, SegmentBarriers* barriers);

  struct Sealed {
    uint64_t base = 0;   ///< Index of the segment's first record.
    uint64_t count = 0;  ///< Records it holds (end = base + count).
    std::string path;
  };

  const std::string dir;
  const SegmentFormat format;
  const uint64_t max_segment_bytes;
  const SyncPolicy sync;

  /// Serializes TruncateBefore calls end to end, unlinks included:
  /// interleaved truncations could otherwise unlink newer segments before
  /// older ones, and a crash in that window would leave a base gap that
  /// readers take for the end of the chain. Always acquired before mu.
  std::mutex truncate_mu;
  mutable std::mutex mu;  ///< Guards every member below.
  std::deque<Sealed> sealed;  ///< Oldest first; contiguous up to active.
  uint64_t active_base = 0;   ///< Index of the active segment's first record.
  uint64_t active_count = 0;  ///< Records in the active segment.
  uint64_t active_bytes = 0;  ///< Bytes written to the active segment.
  std::string active_path;
  std::FILE* active = nullptr;
  /// Sealed segments not yet fsynced, oldest first (SyncSealed drains it).
  std::vector<std::string> unsynced;
  uint64_t unlinked_total = 0;
  uint32_t pending_flush = 0;
  std::chrono::steady_clock::time_point oldest_pending;
};

Status SegmentChain::State::OpenSegmentLocked(uint64_t base, uint32_t seed) {
  active_base = base;
  active_count = 0;
  active_path = SegmentPath(dir, format, base);
  active = std::fopen(active_path.c_str(), "wb");
  if (active == nullptr) {
    return Status::Internal("cannot create segment '" + active_path + "'");
  }
  const std::vector<uint8_t> header = EncodeHeader(format, base, seed);
  if (std::fwrite(header.data(), 1, header.size(), active) != header.size() ||
      std::fflush(active) != 0) {
    std::fclose(active);
    active = nullptr;
    return Status::Internal("cannot write segment header to '" + active_path +
                            "'");
  }
  active_bytes = header.size();
  return Status::OK();
}

Status SegmentChain::State::RollLocked(uint32_t seed,
                                       SegmentBarriers* barriers) {
  // Seal: the segment becomes immutable. Its fsync waits for SyncSealed(),
  // off the appending thread. fclose runs unconditionally so a failed
  // flush cannot leak the stream.
  const bool flush_failed = std::fflush(active) != 0;
  const bool close_failed = std::fclose(active) != 0;
  active = nullptr;
  if (flush_failed || close_failed) {
    return Status::Internal("cannot seal segment '" + active_path + "'");
  }
  // The seal barrier drains whatever group-commit batch was filling.
  barriers->seal = pending_flush;
  pending_flush = 0;
  sealed.push_back(Sealed{active_base, active_count, active_path});
  unsynced.push_back(active_path);
  return OpenSegmentLocked(active_base + active_count, seed);
}

SegmentChain::SegmentChain(std::unique_ptr<State> state)
    : state_(std::move(state)) {}
SegmentChain::SegmentChain(SegmentChain&&) noexcept = default;
SegmentChain& SegmentChain::operator=(SegmentChain&&) noexcept = default;
SegmentChain::~SegmentChain() = default;

StatusOr<SegmentChain> SegmentChain::Create(const std::string& dir,
                                            const SegmentFormat& format,
                                            uint64_t max_segment_bytes,
                                            const SyncPolicy& sync) {
  AMNESIA_RETURN_NOT_OK(EnsureDir(dir));
  // A fresh chain in a previously used directory must not resurrect the
  // old instance's records. Unlinking by name: the doomed contents never
  // need to be read.
  AMNESIA_RETURN_NOT_OK(RemoveSegmentFiles(dir, format));
  auto state = std::make_unique<State>(dir, format, max_segment_bytes, sync);
  AMNESIA_RETURN_NOT_OK(state->OpenSegmentLocked(0, 0));
  return SegmentChain(std::move(state));
}

StatusOr<SegmentChain> SegmentChain::Resume(const std::string& dir,
                                            const SegmentFormat& format,
                                            uint64_t max_segment_bytes,
                                            const SyncPolicy& sync,
                                            const SegmentVisitor& visit) {
  AMNESIA_RETURN_NOT_OK(EnsureDir(dir));
  AMNESIA_ASSIGN_OR_RETURN(ChainScan scan, ScanChain(dir, format, visit));
  if (scan.chain.empty()) {
    return Status::NotFound("no usable segment in '" + dir + "'");
  }
  // Make the disk match the valid prefix BEFORE new appends land: bytes
  // after the last valid frame would hide every frame appended behind
  // them from all future readers. Truncating is a single atomic metadata
  // operation, bounded by one segment.
  const ScannedSegment& tail = scan.chain.back();
  if (scan.tail_torn) {
    AMNESIA_RETURN_NOT_OK(TruncateFile(tail.path, tail.valid_bytes));
  }
  for (const std::string& path : scan.unreachable) {
    AMNESIA_RETURN_NOT_OK(RemoveFile(path));
  }

  auto state = std::make_unique<State>(dir, format, max_segment_bytes, sync);
  for (size_t i = 0; i + 1 < scan.chain.size(); ++i) {
    state->sealed.push_back(State::Sealed{
        scan.chain[i].base, scan.chain[i].count, scan.chain[i].path});
  }
  state->active_base = tail.base;
  state->active_count = tail.count;
  state->active_bytes = tail.valid_bytes;
  state->active_path = tail.path;
  state->active = std::fopen(tail.path.c_str(), "ab");
  if (state->active == nullptr) {
    return Status::Internal("cannot reopen segment '" + tail.path + "'");
  }
  return SegmentChain(std::move(state));
}

Status SegmentChain::Append(const std::vector<uint8_t>& payload,
                            uint32_t seed, SegmentBarriers* barriers) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.active == nullptr) {
    return Status::FailedPrecondition("segment chain in '" + s.dir +
                                      "' is not open");
  }
  // Roll only once the segment holds a record: an empty roll would seal a
  // zero-record entry whose path aliases the next active segment (base
  // unchanged), and a truncation at that index would unlink the live
  // file. A threshold below the header size thus degrades to one-record
  // segments.
  if (s.active_bytes >= s.max_segment_bytes && s.active_count > 0) {
    AMNESIA_RETURN_NOT_OK(s.RollLocked(seed, barriers));
  }
  AMNESIA_RETURN_NOT_OK(wal::WriteFrame(s.active, payload, s.active_path));
  s.active_bytes += wal::kFrameHeaderSize + payload.size();
  ++s.active_count;
  if (!log_internal::ShouldFlushAfterAppend(s.sync, &s.pending_flush,
                                            &s.oldest_pending)) {
    return Status::OK();  // the batch is still filling
  }
  if (std::fflush(s.active) != 0) {
    return Status::Internal("segment flush failed on '" + s.active_path +
                            "'");
  }
  // pending_flush stays 0 under every-append sync; that is a batch of 1.
  barriers->flush = s.pending_flush == 0 ? 1 : s.pending_flush;
  s.pending_flush = 0;
  return Status::OK();
}

Status SegmentChain::Flush(SegmentBarriers* barriers) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.active == nullptr) return Status::OK();
  if (std::fflush(s.active) != 0) {
    return Status::Internal("segment flush failed on '" + s.active_path +
                            "'");
  }
  barriers->flush = s.pending_flush;
  s.pending_flush = 0;
  return Status::OK();
}

StatusOr<uint64_t> SegmentChain::SyncSealed() {
  State& s = *state_;
  std::vector<std::string> paths;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    paths.swap(s.unsynced);
  }
  // Sealed files are closed and immutable, so they sync outside the lock.
  uint64_t synced = 0;
  for (size_t i = 0; i < paths.size(); ++i) {
    const Status status = FsyncPath(paths[i]);
    if (status.ok()) {
      ++synced;
    } else if (status.code() != StatusCode::kNotFound) {
      // Keep this segment and the rest for the next call. (NotFound is a
      // segment truncation already unlinked: nothing left to sync.)
      std::lock_guard<std::mutex> lock(s.mu);
      s.unsynced.insert(s.unsynced.begin(), paths.begin() + i, paths.end());
      return status;
    }
  }
  return synced;
}

StatusOr<uint64_t> SegmentChain::TruncateBefore(uint64_t index) {
  State& s = *state_;
  // Splice the doomed segments out of the index under the append lock —
  // the only part appenders can ever wait on, O(1) per segment — then
  // unlink outside it, oldest first, so a crash mid-pass always leaves a
  // contiguous chain (plus fully valid stale segments the next truncation
  // collects).
  std::lock_guard<std::mutex> truncations(s.truncate_mu);
  std::vector<State::Sealed> doomed;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const uint64_t next = s.active_base + s.active_count;
    if (index > next) {
      const uint64_t base =
          s.sealed.empty() ? s.active_base : s.sealed.front().base;
      return Status::InvalidArgument(
          "cannot truncate '" + s.dir + "' before " + std::to_string(index) +
          ": it holds [" + std::to_string(base) + ", " + std::to_string(next) +
          ")");
    }
    while (!s.sealed.empty() &&
           s.sealed.front().base + s.sealed.front().count <= index) {
      doomed.push_back(std::move(s.sealed.front()));
      s.sealed.pop_front();
    }
  }
  for (size_t i = 0; i < doomed.size(); ++i) {
    if (Status removed = RemoveFile(doomed[i].path); !removed.ok()) {
      // Re-adopt everything not yet unlinked: forgetting a segment that is
      // still on disk would let a LATER truncation unlink past it and
      // leave a base gap, which readers take for the end of the chain and
      // Resume answers by deleting the live suffix behind it. With the
      // segments back in the index this truncation simply retries later.
      std::lock_guard<std::mutex> lock(s.mu);
      s.unlinked_total += i;
      for (size_t j = doomed.size(); j > i; --j) {
        s.sealed.push_front(std::move(doomed[j - 1]));
      }
      return removed;
    }
  }
  std::lock_guard<std::mutex> lock(s.mu);
  s.unlinked_total += doomed.size();
  return static_cast<uint64_t>(doomed.size());
}

uint64_t SegmentChain::next_index() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->active_base + state_->active_count;
}

uint64_t SegmentChain::base_index() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->sealed.empty() ? state_->active_base
                                : state_->sealed.front().base;
}

uint64_t SegmentChain::num_segments() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->sealed.size() + (state_->active != nullptr ? 1 : 0);
}

uint64_t SegmentChain::segments_unlinked() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->unlinked_total;
}

const std::string& SegmentChain::dir() const { return state_->dir; }

}  // namespace amnesia
