// Copyright 2026 The AmnesiaDB Authors
//
// Shared little-endian byte codec for every on-disk artifact: table blobs
// and the database and tier containers (storage/checkpoint.cc), partition
// file headers (storage/mapped_file.cc), event-log records, audit records
// and checkpoint manifests. The table-blob format itself, with one writer
// per layout and one decoder, lives in storage/checkpoint.cc.

#ifndef AMNESIA_STORAGE_CHECKPOINT_IO_H_
#define AMNESIA_STORAGE_CHECKPOINT_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace amnesia {
namespace ckpt {

/// \brief CRC-32 (IEEE 802.3, reflected) over a byte range. Guards event-log
/// records, shard blobs and manifests against torn writes and bit rot.
inline uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

inline uint32_t Crc32(const std::vector<uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

/// \brief Little-endian append-only byte writer.
class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }

  void String(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }

  void I64Array(const std::vector<int64_t>& values) {
    U64(values.size());
    Raw(values.data(), values.size() * sizeof(int64_t));
  }

  void U64Array(const std::vector<uint64_t>& values) {
    U64(values.size());
    Raw(values.data(), values.size() * sizeof(uint64_t));
  }

  void U32Array(const std::vector<uint32_t>& values) {
    U64(values.size());
    Raw(values.data(), values.size() * sizeof(uint32_t));
  }

  void BitArray(const std::vector<bool>& bits) {
    U64(bits.size());
    uint8_t byte = 0;
    int filled = 0;
    for (bool b : bits) {
      byte = static_cast<uint8_t>(byte | ((b ? 1 : 0) << filled));
      if (++filled == 8) {
        out_->push_back(byte);
        byte = 0;
        filled = 0;
      }
    }
    if (filled > 0) out_->push_back(byte);
  }

 private:
  void Raw(const void* data, size_t size) {
    // An empty array's data() may be null, which memcpy must not see.
    if (size == 0) return;
    // One resize and one memcpy per field or array. vector::insert from a
    // type-punned pointer draws a GCC -Wstringop-overflow false positive;
    // this form builds clean in Debug, Release and RelWithDebInfo.
    const size_t at = out_->size();
    out_->resize(at + size);
    std::memcpy(out_->data() + at, data, size);
  }

  std::vector<uint8_t>* out_;
};

/// \brief Bounds-checked little-endian reader.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& in) : in_(in) {}

  Status U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  Status U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  Status U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  Status I64(int64_t* v) { return Raw(v, sizeof(*v)); }

  Status String(std::string* s) {
    uint64_t len = 0;
    AMNESIA_RETURN_NOT_OK(U64(&len));
    if (len > in_.size() - pos_) return Truncated();
    s->assign(reinterpret_cast<const char*>(in_.data() + pos_),
              static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::OK();
  }

  Status ByteArray(std::vector<uint8_t>* bytes) {
    return Array(bytes, sizeof(uint8_t));
  }
  Status I64Array(std::vector<int64_t>* values) {
    return Array(values, sizeof(int64_t));
  }
  Status U64Array(std::vector<uint64_t>* values) {
    return Array(values, sizeof(uint64_t));
  }
  Status U32Array(std::vector<uint32_t>* values) {
    return Array(values, sizeof(uint32_t));
  }

  Status BitArray(std::vector<bool>* bits) {
    uint64_t n = 0;
    AMNESIA_RETURN_NOT_OK(U64(&n));
    // n / 8 rounded up without the wrap of (n + 7) / 8 near 2^64.
    const uint64_t bytes = n / 8 + (n % 8 != 0 ? 1 : 0);
    if (bytes > remaining()) return Truncated();
    bits->resize(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      (*bits)[static_cast<size_t>(i)] =
          (in_[pos_ + static_cast<size_t>(i / 8)] >> (i % 8)) & 1;
    }
    pos_ += static_cast<size_t>(bytes);
    return Status::OK();
  }

  /// Returns the number of bytes consumed so far.
  size_t position() const { return pos_; }

  /// Returns the number of bytes not yet consumed — the bound a decoder
  /// checks an element count against before allocating for it.
  size_t remaining() const { return in_.size() - pos_; }

  bool AtEnd() const { return pos_ == in_.size(); }

 private:
  template <typename T>
  Status Array(std::vector<T>* values, size_t elem_size) {
    uint64_t n = 0;
    AMNESIA_RETURN_NOT_OK(U64(&n));
    if (n > (in_.size() - pos_) / elem_size) return Truncated();
    values->resize(static_cast<size_t>(n));
    // An empty vector's data() may be null, which memcpy must not see.
    if (n == 0) return Status::OK();
    std::memcpy(values->data(), in_.data() + pos_,
                static_cast<size_t>(n) * elem_size);
    pos_ += static_cast<size_t>(n) * elem_size;
    return Status::OK();
  }

  Status Raw(void* out, size_t size) {
    if (size > in_.size() - pos_) return Truncated();
    std::memcpy(out, in_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }

  static Status Truncated() {
    return Status::InvalidArgument("checkpoint buffer truncated");
  }

  const std::vector<uint8_t>& in_;
  size_t pos_ = 0;
};

}  // namespace ckpt
}  // namespace amnesia

#endif  // AMNESIA_STORAGE_CHECKPOINT_IO_H_
