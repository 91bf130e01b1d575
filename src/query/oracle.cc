// Copyright 2026 The AmnesiaDB Authors

#include "query/oracle.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/radix_sort.h"
#include "obs/engine_metrics.h"

namespace amnesia {

namespace {

// A delta of 1/kFoldRatio of the history is folded into it (see the class
// comment for the cost model).
constexpr size_t kFoldRatio = 8;

/// Merges the sorted `run` into the sorted `*into` in place and empties
/// `run`. Values of `*into` up to the run's smallest keep their index;
/// returns the index of the first one that moved. A run into an empty
/// target becomes it, buffer and all. The merge buffers min(moved suffix,
/// run) values, never a second target-sized copy.
size_t MergeRun(std::vector<Value>* into, std::vector<Value>* run) {
  if (into->empty()) {
    into->swap(*run);
    return 0;
  }
  const size_t old_size = into->size();
  const auto moved = static_cast<size_t>(
      std::upper_bound(into->begin(), into->end(), run->front()) -
      into->begin());
  into->insert(into->end(), run->begin(), run->end());
  run->clear();
  using Offset = std::vector<Value>::difference_type;
  std::inplace_merge(into->begin() + static_cast<Offset>(moved),
                     into->begin() + static_cast<Offset>(old_size),
                     into->end());
  obs::EngineMetrics::Get().oracle_values_merged->Inc(old_size - moved);
  return moved;
}

}  // namespace

void GroundTruthOracle::Append(Value v) {
  max_seen_ = std::max(max_seen_, v);
  min_seen_ = std::min(min_seen_, v);
  pending_.push_back(v);
}

void GroundTruthOracle::Seal() {
  if (pending_.empty()) return;
  // Flipping the sign bit maps int64 order onto unsigned order.
  RadixSort(&pending_, [](Value v) {
    return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
  });
  MergeRun(&delta_, &pending_);
  if (kFoldRatio * delta_.size() >= values_.size()) Fold();
}

void GroundTruthOracle::Fold() {
  if (delta_.empty()) return;
  obs::EngineMetrics::Get().oracle_folds->Inc();
  // History values up to the delta's smallest keep their index, and so do
  // the prefix sums over them; only the suffix from the returned index is
  // merged and must be re-summed before the next aggregate.
  summed_ = std::min(summed_, MergeRun(&values_, &delta_));
}

void GroundTruthOracle::BuildPrefixSums() {
  prefix_sum_.resize(values_.size() + 1, 0.0);
  prefix_sq_.resize(values_.size() + 1, 0.0);
  // Sums accumulate in index order from the last entry still valid, so
  // every entry is bit-identical to a full re-sort's. Running sums stay in
  // registers: the two add chains do not wait on a store and reload of
  // the previous entry. Same adds, same order.
  double sum = prefix_sum_[summed_];
  double sq = prefix_sq_[summed_];
  for (size_t i = summed_; i < values_.size(); ++i) {
    const double v = static_cast<double>(values_[i]);
    sum += v;
    sq += v * v;
    prefix_sum_[i + 1] = sum;
    prefix_sq_[i + 1] = sq;
  }
  summed_ = values_.size();
}

StatusOr<uint64_t> GroundTruthOracle::CountRange(Value lo, Value hi) const {
  if (!sealed()) {
    return Status::FailedPrecondition("oracle has unsealed appends");
  }
  if (lo >= hi) return uint64_t{0};
  uint64_t count = 0;
  for (const std::vector<Value>* sorted : {&values_, &delta_}) {
    const auto first = std::lower_bound(sorted->begin(), sorted->end(), lo);
    const auto last = std::lower_bound(first, sorted->end(), hi);
    count += static_cast<uint64_t>(last - first);
  }
  return count;
}

StatusOr<Value> GroundTruthOracle::ValueAt(uint64_t i) const {
  if (!sealed()) {
    return Status::FailedPrecondition("oracle has unsealed appends");
  }
  const std::vector<Value>& history = values_;
  const std::vector<Value>& delta = delta_;
  if (i >= history.size() + delta.size()) {
    return Status::OutOfRange("oracle index out of range");
  }
  // The k = i+1 smallest values are the first `from_history` of the
  // history and the first k - from_history of the delta, ties going to
  // the history first. Taking one more from the history stays right while
  // its next value is <= the delta's next one, which holds for a prefix
  // of the candidates, so bisect for the largest such count.
  const uint64_t k = i + 1;
  uint64_t lo = k > delta.size() ? k - delta.size() : 0;
  uint64_t hi = std::min<uint64_t>(k, history.size());
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;  // 1 <= mid, k - mid < |delta|
    if (history[mid - 1] <= delta[k - mid]) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const uint64_t from_history = lo;
  const uint64_t from_delta = k - lo;
  if (from_delta == 0) return history[from_history - 1];
  if (from_history == 0) return delta[from_delta - 1];
  return std::max(history[from_history - 1], delta[from_delta - 1]);
}

StatusOr<AggregateResult> GroundTruthOracle::AggregateRange(Value lo,
                                                            Value hi) {
  if (!sealed()) {
    return Status::FailedPrecondition("oracle has unsealed appends");
  }
  AggregateResult out;
  if (lo >= hi) return out;
  Fold();
  BuildPrefixSums();
  const auto begin = values_.begin();
  const size_t first =
      static_cast<size_t>(std::lower_bound(begin, values_.end(), lo) - begin);
  const size_t last =
      static_cast<size_t>(std::lower_bound(begin, values_.end(), hi) - begin);
  if (first >= last) return out;
  const uint64_t count = last - first;
  const double sum = prefix_sum_[last] - prefix_sum_[first];
  const double sq = prefix_sq_[last] - prefix_sq_[first];
  out.count = count;
  out.sum = sum;
  out.avg = sum / static_cast<double>(count);
  out.min = static_cast<double>(values_[first]);
  out.max = static_cast<double>(values_[last - 1]);
  out.variance = sq / static_cast<double>(count) - out.avg * out.avg;
  if (out.variance < 0.0) out.variance = 0.0;  // numeric guard
  return out;
}

}  // namespace amnesia
