// Copyright 2026 The AmnesiaDB Authors

#include "query/oracle.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace amnesia {

void GroundTruthOracle::Append(Value v) {
  if (values_.empty() && pending_.empty()) {
    max_seen_ = v;
    min_seen_ = v;
  } else {
    max_seen_ = std::max(max_seen_, v);
    min_seen_ = std::min(min_seen_, v);
  }
  pending_.push_back(v);
}

void GroundTruthOracle::Seal() {
  if (pending_.empty()) return;
  std::sort(pending_.begin(), pending_.end());
  // History values up to the batch's smallest keep their index, and so do
  // the prefix sums over them; only the suffix from `moved` is merged and
  // must be re-summed before the next aggregate.
  const size_t history_size = values_.size();
  const auto moved = static_cast<size_t>(
      std::upper_bound(values_.begin(), values_.end(), pending_.front()) -
      values_.begin());
  values_.insert(values_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  // Buffers min(suffix, batch) values, never a second history-sized copy.
  using Offset = std::vector<Value>::difference_type;
  std::inplace_merge(values_.begin() + static_cast<Offset>(moved),
                     values_.begin() + static_cast<Offset>(history_size),
                     values_.end());
  summed_ = std::min(summed_, moved);
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
  const auto first = std::lower_bound(values_.begin(), values_.end(), lo);
  const auto last = std::lower_bound(values_.begin(), values_.end(), hi);
  return static_cast<uint64_t>(last - first);
}

StatusOr<Value> GroundTruthOracle::ValueAt(uint64_t i) const {
  if (!sealed()) {
    return Status::FailedPrecondition("oracle has unsealed appends");
  }
  if (i >= values_.size()) {
    return Status::OutOfRange("oracle index out of range");
  }
  return values_[i];
}

StatusOr<AggregateResult> GroundTruthOracle::AggregateRange(Value lo,
                                                            Value hi) {
  if (!sealed()) {
    return Status::FailedPrecondition("oracle has unsealed appends");
  }
  AggregateResult out;
  if (lo >= hi) return out;
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
