// Copyright 2026 The AmnesiaDB Authors

#include "storage/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fs.h"
#include "obs/engine_metrics.h"
#include "storage/checkpoint_io.h"

namespace amnesia {
namespace {

// Header layout (offsets in bytes; all integers little-endian):
//   0  u32 magic "APAR"
//   4  u32 version
//   8  u64 rows
//  16  u64 epoch_lo
//  24  u64 epoch_hi
//  32  u64 value_bytes (sizeof(Value) == 8)
//  40  u32 crc32 over bytes [0, 40)
//  44  zero padding to kPartitionHeaderBytes
constexpr size_t kCrcOffset = 40;

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

std::string PartitionDirName(Tick epoch_lo, Tick epoch_hi) {
  return "part-" + std::to_string(epoch_lo) + "-" + std::to_string(epoch_hi);
}

std::string DroppedPartitionDirName(Tick epoch_lo, Tick epoch_hi) {
  return PartitionDirName(epoch_lo, epoch_hi) + ".dropped";
}

std::string PartitionColumnFileName(const std::string& col) {
  return "col-" + col + ".dat";
}

bool ParsePartitionDirName(const std::string& name, Tick* epoch_lo,
                           Tick* epoch_hi, bool* dropped) {
  static const std::string kPrefix = "part-";
  static const std::string kDroppedSuffix = ".dropped";
  std::string body = name;
  *dropped = false;
  if (body.size() > kDroppedSuffix.size() &&
      body.compare(body.size() - kDroppedSuffix.size(), kDroppedSuffix.size(),
                   kDroppedSuffix) == 0) {
    *dropped = true;
    body = body.substr(0, body.size() - kDroppedSuffix.size());
  }
  if (body.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  const size_t dash = body.find('-', kPrefix.size());
  if (dash == std::string::npos) return false;
  const std::string lo_str = body.substr(kPrefix.size(), dash - kPrefix.size());
  const std::string hi_str = body.substr(dash + 1);
  if (lo_str.empty() || hi_str.empty()) return false;
  for (char c : lo_str)
    if (c < '0' || c > '9') return false;
  for (char c : hi_str)
    if (c < '0' || c > '9') return false;
  errno = 0;
  char* end = nullptr;
  *epoch_lo = std::strtoull(lo_str.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  errno = 0;
  *epoch_hi = std::strtoull(hi_str.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  return true;
}

MappedColumnFile& MappedColumnFile::operator=(MappedColumnFile&& other) noexcept {
  if (this != &other) {
    Reset();
    base_ = other.base_;
    length_ = other.length_;
    data_ = other.data_;
    rows_ = other.rows_;
    epoch_lo_ = other.epoch_lo_;
    epoch_hi_ = other.epoch_hi_;
    other.base_ = nullptr;
    other.length_ = 0;
    other.data_ = nullptr;
    other.rows_ = 0;
  }
  return *this;
}

void MappedColumnFile::Reset() {
  if (base_ != nullptr) {
    ::munmap(base_, length_);
    obs::EngineMetrics::Get().storage_mapped_bytes->Add(
        -static_cast<int64_t>(length_));
    base_ = nullptr;
    length_ = 0;
    data_ = nullptr;
    rows_ = 0;
  }
}

Status MappedColumnFile::WriteSealed(const std::string& path,
                                     const Value* values, uint64_t rows,
                                     Tick epoch_lo, Tick epoch_hi) {
  uint8_t header[kPartitionHeaderBytes] = {0};
  PutU32(header + 0, kPartitionMagic);
  PutU32(header + 4, kPartitionVersion);
  PutU64(header + 8, rows);
  PutU64(header + 16, epoch_lo);
  PutU64(header + 24, epoch_hi);
  PutU64(header + 32, sizeof(Value));
  PutU32(header + kCrcOffset, ckpt::Crc32(header, kCrcOffset));

  return ReplaceFile(path, /*sync=*/false, [&](std::FILE* f) {
    // Unbuffered: the header and the values each go to the file in one
    // write, the values straight from the column, without a stdio copy.
    std::setvbuf(f, nullptr, _IONBF, 0);
    const size_t bytes = rows * sizeof(Value);
    if (std::fwrite(header, 1, sizeof(header), f) != sizeof(header) ||
        std::fwrite(values, 1, bytes, f) != bytes) {
      return ErrnoStatus("write", path);
    }
    return Status::OK();
  });
}

StatusOr<MappedColumnFile> MappedColumnFile::Map(const std::string& path,
                                                 uint64_t expect_rows) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no partition file '" + path + "'");
    return ErrnoStatus("open", path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return ErrnoStatus("fstat", path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < kPartitionHeaderBytes) {
    ::close(fd);
    return Status::InvalidArgument("partition file '" + path +
                                   "' truncated below header");
  }
  void* base =
      ::mmap(nullptr, file_size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (base == MAP_FAILED) return ErrnoStatus("mmap", path);

  MappedColumnFile out;
  out.base_ = base;
  out.length_ = file_size;
  obs::EngineMetrics::Get().storage_mapped_bytes->Add(
      static_cast<int64_t>(file_size));
  const uint8_t* h = static_cast<const uint8_t*>(base);
  auto fail = [&](std::string msg) {
    return Status::InvalidArgument("partition file '" + path + "': " +
                                   std::move(msg));
  };
  if (GetU32(h + 0) != kPartitionMagic) return fail("bad magic");
  if (GetU32(h + 4) != kPartitionVersion) return fail("unknown version");
  if (GetU32(h + kCrcOffset) != ckpt::Crc32(h, kCrcOffset)) {
    return fail("header checksum mismatch");
  }
  if (GetU64(h + 32) != sizeof(Value)) return fail("unexpected value width");
  const uint64_t rows = GetU64(h + 8);
  if (file_size != kPartitionHeaderBytes + rows * sizeof(Value)) {
    return fail("size does not match row count");
  }
  if (expect_rows > 0 && rows != expect_rows) {
    return fail("row count " + std::to_string(rows) + " != expected " +
                std::to_string(expect_rows));
  }
  out.rows_ = rows;
  out.epoch_lo_ = GetU64(h + 16);
  out.epoch_hi_ = GetU64(h + 24);
  out.data_ = reinterpret_cast<Value*>(static_cast<uint8_t*>(base) +
                                       kPartitionHeaderBytes);
  return out;
}

}  // namespace amnesia
