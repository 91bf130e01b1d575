// Copyright 2026 The AmnesiaDB Authors

#include "common/bitmap.h"

#include <cassert>
#include <utility>

#include "common/radix_sort.h"

namespace amnesia {

namespace {
constexpr uint64_t kAllOnes = ~uint64_t{0};
}  // namespace

Bitmap::Bitmap(size_t size, bool initial) : size_(size) {
  words_.resize((size + 63) / 64, initial ? kAllOnes : 0);
  TrimLastWord();
}

void Bitmap::TrimLastWord() {
  const size_t rem = size_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << rem) - 1;
  }
}

void Bitmap::PushBack(bool value) {
  if ((size_ & 63) == 0) words_.push_back(0);
  ++size_;
  if (value) Set(size_ - 1);
}

void Bitmap::Resize(size_t size, bool value) {
  const size_t old_size = size_;
  size_ = size;
  words_.resize((size + 63) / 64, 0);
  if (size > old_size && value) {
    for (size_t i = old_size; i < size; ++i) Set(i);
  }
  TrimLastWord();
}

size_t Bitmap::CountSet() const {
  size_t count = 0;
  for (uint64_t w : words_) count += static_cast<size_t>(__builtin_popcountll(w));
  return count;
}

size_t Bitmap::CountSetPrefix(size_t end) const {
  assert(end <= size_);
  size_t count = 0;
  const size_t full_words = end >> 6;
  for (size_t w = 0; w < full_words; ++w) {
    count += static_cast<size_t>(__builtin_popcountll(words_[w]));
  }
  const size_t rem = end & 63;
  if (rem != 0) {
    const uint64_t mask = (uint64_t{1} << rem) - 1;
    count += static_cast<size_t>(__builtin_popcountll(words_[full_words] & mask));
  }
  return count;
}

size_t Bitmap::CountSetRange(size_t begin, size_t end) const {
  assert(begin <= end && end <= size_);
  if (begin == end) return 0;
  const size_t first_word = begin >> 6;
  const size_t last_word = (end - 1) >> 6;
  const uint64_t first_mask = kAllOnes << (begin & 63);
  const size_t end_rem = end & 63;
  const uint64_t last_mask =
      end_rem == 0 ? kAllOnes : (uint64_t{1} << end_rem) - 1;
  if (first_word == last_word) {
    return static_cast<size_t>(
        __builtin_popcountll(words_[first_word] & first_mask & last_mask));
  }
  size_t count = static_cast<size_t>(
      __builtin_popcountll(words_[first_word] & first_mask));
  for (size_t w = first_word + 1; w < last_word; ++w) {
    count += static_cast<size_t>(__builtin_popcountll(words_[w]));
  }
  count += static_cast<size_t>(
      __builtin_popcountll(words_[last_word] & last_mask));
  return count;
}

void Bitmap::ClearRange(size_t begin, size_t end) {
  assert(begin <= end && end <= size_);
  if (begin == end) return;
  const size_t first_word = begin >> 6;
  const size_t last_word = (end - 1) >> 6;
  const uint64_t first_mask = kAllOnes << (begin & 63);
  const size_t end_rem = end & 63;
  const uint64_t last_mask =
      end_rem == 0 ? kAllOnes : (uint64_t{1} << end_rem) - 1;
  if (first_word == last_word) {
    words_[first_word] &= ~(first_mask & last_mask);
    return;
  }
  words_[first_word] &= ~first_mask;
  for (size_t w = first_word + 1; w < last_word; ++w) words_[w] = 0;
  words_[last_word] &= ~last_mask;
}

void Bitmap::ExtractWords(size_t begin, size_t end, uint64_t* out) const {
  assert(begin <= end && end <= size_);
  const size_t n = end - begin;
  const size_t out_words = (n + 63) / 64;
  if (out_words == 0) return;
  const size_t base = begin >> 6;
  const size_t off = begin & 63;
  if (off == 0) {
    for (size_t w = 0; w < out_words; ++w) out[w] = words_[base + w];
  } else {
    // Each output word stitches two neighboring source words; the second
    // may not exist when the range ends inside the first.
    for (size_t w = 0; w < out_words; ++w) {
      uint64_t word = words_[base + w] >> off;
      const size_t next = base + w + 1;
      if (next < words_.size()) word |= words_[next] << (64 - off);
      out[w] = word;
    }
  }
  const size_t rem = n & 63;
  if (rem != 0) out[out_words - 1] &= (uint64_t{1} << rem) - 1;
}

std::vector<size_t> Bitmap::SetIndices() const {
  std::vector<size_t> out;
  out.reserve(CountSet());
  ForEachSet([&out](size_t i) { out.push_back(i); });
  return out;
}

size_t Bitmap::SelectSet(size_t k) const {
  size_t seen = 0;
  for (size_t w = 0; w < words_.size(); ++w) {
    const size_t pc = static_cast<size_t>(__builtin_popcountll(words_[w]));
    if (seen + pc <= k) {
      seen += pc;
      continue;
    }
    uint64_t word = words_[w];
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      if (seen == k) return (w << 6) + static_cast<size_t>(bit);
      ++seen;
      word &= word - 1;
    }
  }
  return size_;
}

std::vector<size_t> Bitmap::SelectSetMany(
    const std::vector<size_t>& ranks) const {
  std::vector<std::pair<size_t, size_t>> order;  // (rank, input index)
  order.reserve(ranks.size());
  for (size_t i = 0; i < ranks.size(); ++i) order.emplace_back(ranks[i], i);
  // Stable on the rank, so repeated ranks stay in input order.
  RadixSort(&order, [](const std::pair<size_t, size_t>& p) {
    return static_cast<uint64_t>(p.first);
  });
  std::vector<size_t> out(ranks.size(), size_);
  size_t next = 0;  // first entry of `order` not yet resolved
  size_t seen = 0;  // set bits in the words before w
  for (size_t w = 0; w < words_.size() && next < order.size(); ++w) {
    const size_t pc = static_cast<size_t>(__builtin_popcountll(words_[w]));
    // `word` drops its lowest set bits as the ranks inside it ascend, so
    // its lowest remaining set bit always has rank `lowest`.
    uint64_t word = words_[w];
    size_t lowest = seen;
    for (; next < order.size() && order[next].first < seen + pc; ++next) {
      for (; lowest < order[next].first; ++lowest) word &= word - 1;
      out[order[next].second] =
          (w << 6) + static_cast<size_t>(__builtin_ctzll(word));
    }
    seen += pc;
  }
  return out;
}

void Bitmap::Fill(bool value) {
  for (auto& w : words_) w = value ? kAllOnes : 0;
  TrimLastWord();
}

}  // namespace amnesia
