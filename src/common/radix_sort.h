// Copyright 2026 The AmnesiaDB Authors
//
// The batch thread's one sort kernel: a stable LSD radix sort on a 64-bit
// key. The oracle sorts each ingested batch with it (key: the value with
// its sign bit flipped, so int64 order is unsigned order) and
// Bitmap::SelectSetMany sorts its (rank, input index) pairs (key: the
// rank), where stability keeps repeated ranks in input order.

#ifndef AMNESIA_COMMON_RADIX_SORT_H_
#define AMNESIA_COMMON_RADIX_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace amnesia {

/// Sorts `items` ascending by the uint64_t `key(item)`. Stable: items
/// with equal keys keep their input order.
///
/// LSD with 8-bit digits: one read pass counts all eight digits at once,
/// then one scatter pass per digit, skipping every digit that all keys
/// share, so keys confined to the low 24 bits cost three passes. O(n)
/// time for n items plus an n-item scratch buffer, freed on return. Every
/// size, small ones included, runs this one path.
template <typename T, typename KeyFn>
void RadixSort(std::vector<T>* items, KeyFn key) {
  const size_t n = items->size();
  if (n == 0) return;
  constexpr int kDigits = 8;
  std::array<std::array<size_t, 256>, kDigits> counts{};
  for (const T& item : *items) {
    const uint64_t k = key(item);
    for (int d = 0; d < kDigits; ++d) ++counts[d][(k >> (8 * d)) & 0xFF];
  }
  std::vector<T> scratch;
  T* src = items->data();
  T* dst = nullptr;
  for (int d = 0; d < kDigits; ++d) {
    const int shift = 8 * d;
    std::array<size_t, 256>& offsets = counts[d];
    if (offsets[(key(src[0]) >> shift) & 0xFF] == n) continue;
    if (dst == nullptr) {
      scratch.resize(n);
      dst = scratch.data();
    }
    size_t next = 0;
    for (size_t& slot : offsets) next += std::exchange(slot, next);
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(key(src[i]) >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  // After an odd number of passes the sorted items sit in the scratch.
  if (src != items->data()) items->swap(scratch);
}

}  // namespace amnesia

#endif  // AMNESIA_COMMON_RADIX_SORT_H_
