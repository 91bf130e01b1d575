// Copyright 2026 The AmnesiaDB Authors
//
// Shared [u32 length][u32 crc32][payload] record framing for the event log
// (EventLog, one rewrite-compacted file) and for segment chains
// (segment_chain.h: the segmented event log and the audit ledger, whose
// segment files are unlinked whole). The two event-log formats thus hold
// the same records byte for byte.
//
// Reader semantics are the WAL standard: a short header, a short payload,
// an implausible length or a CRC mismatch all mean "the valid prefix ends
// here" — the expected artifact of a crash mid-write, never an error.

#ifndef AMNESIA_DURABILITY_FRAME_IO_H_
#define AMNESIA_DURABILITY_FRAME_IO_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/checkpoint_io.h"

namespace amnesia {
namespace wal {

/// Frame header: u32 payload length + u32 payload CRC-32.
constexpr size_t kFrameHeaderSize = 8;
/// Lengths beyond this are treated as corruption (no event comes close).
constexpr uint32_t kMaxFramePayload = 64u << 20;

/// \brief Writes one frame; the caller decides when to flush.
inline Status WriteFrame(std::FILE* file, const std::vector<uint8_t>& payload,
                         const std::string& path) {
  std::vector<uint8_t> frame;
  ckpt::Writer w(&frame);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(ckpt::Crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  if (std::fwrite(frame.data(), 1, frame.size(), file) != frame.size()) {
    return Status::Internal("event log write failed on '" + path + "'");
  }
  return Status::OK();
}

/// \brief Reads the next frame at the current file position. `remaining`
/// holds the bytes the file has left from that position and shrinks by
/// each frame read, so a length field claiming more than the file holds is
/// rejected before the payload buffer is sized for it. Returns true and
/// fills `payload` on success; returns false at a clean EOF, a torn frame
/// or a CRC mismatch (the file position past the valid prefix is
/// unspecified — readers stop here).
inline bool ReadFrame(std::FILE* file, uint64_t* remaining,
                      std::vector<uint8_t>* payload) {
  uint8_t header[kFrameHeaderSize];
  if (*remaining < sizeof(header) ||
      std::fread(header, 1, sizeof(header), file) != sizeof(header)) {
    return false;  // clean EOF or torn frame header
  }
  *remaining -= sizeof(header);
  uint32_t length = 0, crc = 0;
  std::memcpy(&length, header, sizeof(length));
  std::memcpy(&crc, header + 4, sizeof(crc));
  if (length > kMaxFramePayload || length > *remaining) {
    return false;  // corrupt length, or a payload torn off by a crash
  }
  payload->resize(length);
  if (std::fread(payload->data(), 1, length, file) != length) return false;
  *remaining -= length;
  return ckpt::Crc32(*payload) == crc;
}

}  // namespace wal
}  // namespace amnesia

#endif  // AMNESIA_DURABILITY_FRAME_IO_H_
