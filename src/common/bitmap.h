// Copyright 2026 The AmnesiaDB Authors
//
// A dynamic bitset used for tuple visibility (active vs. forgotten) and for
// query result membership tests. Supports fast popcount and set-bit
// iteration, the two operations the simulator leans on.

#ifndef AMNESIA_COMMON_BITMAP_H_
#define AMNESIA_COMMON_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace amnesia {

/// \brief A resizable bitset with word-at-a-time operations.
class Bitmap {
 public:
  /// Constructs a bitmap of `size` bits, all set to `initial`.
  explicit Bitmap(size_t size = 0, bool initial = false);

  /// Returns the number of bits.
  size_t size() const { return size_; }

  /// Returns true iff bit `i` is set. Precondition: i < size().
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Sets bit `i`. Precondition: i < size().
  void Set(size_t i) { words_[i >> 6] |= (uint64_t{1} << (i & 63)); }

  /// Clears bit `i`. Precondition: i < size().
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  /// Sets bit `i` to `value`. Precondition: i < size().
  void Assign(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  /// Appends one bit, growing the bitmap.
  void PushBack(bool value);

  /// Grows (or shrinks) to `size` bits; new bits are set to `value`.
  void Resize(size_t size, bool value = false);

  /// Returns the number of set bits.
  size_t CountSet() const;

  /// Returns the number of set bits in [0, end). Precondition: end <= size().
  size_t CountSetPrefix(size_t end) const;

  /// Returns the number of set bits in [begin, end). Word-at-a-time
  /// popcount — this is the vectorized scan engine's per-morsel live
  /// count, the check that lets a fully-forgotten morsel be skipped
  /// before any predicate kernel runs. Precondition: begin <= end <=
  /// size().
  size_t CountSetRange(size_t begin, size_t end) const;

  /// Clears every bit in [begin, end) — word-wise, O(range/64).
  /// Preconditions: begin <= end <= size().
  void ClearRange(size_t begin, size_t end);

  /// Copies bits [begin, end) into `out` as packed words: bit i of the
  /// output is bit begin+i of the bitmap, and bits past end-begin in the
  /// last output word are zero. `out` must hold (end-begin+63)/64 words.
  /// This re-aligns an arbitrary bit range to word boundaries so selection
  /// bitmaps (always morsel-aligned) can be ANDed against the table-wide
  /// visibility bitmap with plain word ops. Precondition: begin <= end <=
  /// size().
  void ExtractWords(size_t begin, size_t end, uint64_t* out) const;

  /// Returns the indices of all set bits, in increasing order.
  std::vector<size_t> SetIndices() const;

  /// Calls `fn(i)` for every set bit index i in increasing order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        const size_t idx = (w << 6) + static_cast<size_t>(bit);
        if (idx >= size_) return;
        fn(idx);
        word &= word - 1;
      }
    }
  }

  /// Returns the index of the k-th (0-based) set bit, or size() if there are
  /// fewer than k+1 set bits. O(words).
  size_t SelectSet(size_t k) const;

  /// SelectSet for many ranks at once: out[i] is SelectSet(ranks[i]), so
  /// the positions come back in input order and a rank past the last set
  /// bit yields size(). Ranks may come in any order and may repeat. The
  /// ranks are sorted and every one is resolved in a single walk over the
  /// words with a running popcount: O(k log k + size()/64) for k ranks,
  /// where k calls to SelectSet cost O(k * size()/64).
  std::vector<size_t> SelectSetMany(const std::vector<size_t>& ranks) const;

  /// Sets all bits to `value`.
  void Fill(bool value);

 private:
  void TrimLastWord();

  size_t size_;
  std::vector<uint64_t> words_;
};

}  // namespace amnesia

#endif  // AMNESIA_COMMON_BITMAP_H_
