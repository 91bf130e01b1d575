// Copyright 2026 The AmnesiaDB Authors
//
// Ground-truth oracle. The simulator "keeps a record of active and
// forgotten tuples [which] provides a basis for comparing query results
// with and without amnesia" (§2.1). The oracle retains every value ever
// inserted — regardless of forgetting, scrubbing or compaction in the hot
// table — and answers the same range/aggregate queries exactly, so the
// metrics layer can compute RF, MF, PF and E precisely.

#ifndef AMNESIA_QUERY_ORACLE_H_
#define AMNESIA_QUERY_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "query/predicate.h"
#include "query/result.h"
#include "storage/types.h"

namespace amnesia {

/// \brief Immutable-history answer service for one column.
///
/// Appends are buffered; Seal() (called once per update batch) sorts the
/// b buffered values and merges them into the sorted history in place. A
/// seal costs O(b log b + s), where s is the history suffix above the
/// batch's smallest value, and leaves the history bit-identical to a full
/// re-sort's. Range counts then cost O(log n).
///
/// Only AggregateRange reads the prefix sums, so a seal just notes the
/// lowest index its merge moved. The first AggregateRange after one or
/// more seals re-sums from the lowest such index, in index order from the
/// same start, so every entry is bit-identical to a full re-sort's; later
/// aggregates cost O(log n). A history that is never aggregated never
/// allocates or sums them.
class GroundTruthOracle {
 public:
  /// Records one inserted value.
  void Append(Value v);

  /// Merges buffered appends into the sorted history and notes where the
  /// prefix sums went stale. Idempotent.
  void Seal();

  /// Returns the number of values ever inserted.
  uint64_t size() const { return values_.size() + pending_.size(); }

  /// Returns how many inserted values fall in [lo, hi).
  /// Precondition: Seal() since the last Append.
  StatusOr<uint64_t> CountRange(Value lo, Value hi) const;

  /// Returns the full aggregates over values in [lo, hi). Non-const: it
  /// first brings the prefix sums up to date with the last Seal().
  /// Precondition: Seal() since the last Append.
  StatusOr<AggregateResult> AggregateRange(Value lo, Value hi);

  /// Returns the i-th smallest inserted value. Used by query generators to
  /// draw anchors "over all data being inserted" (§4.2).
  /// Precondition: Seal() since the last Append; i < size().
  StatusOr<Value> ValueAt(uint64_t i) const;

  /// Returns the largest value ever inserted (min int64 when empty).
  Value max_seen() const { return max_seen_; }
  /// Returns the smallest value ever inserted (max int64 when empty).
  Value min_seen() const { return min_seen_; }

 private:
  bool sealed() const { return pending_.empty(); }

  /// Extends the prefix sums over the sealed history from `summed_`.
  void BuildPrefixSums();

  std::vector<Value> values_;   // sorted after Seal()
  std::vector<Value> pending_;  // not yet merged
  // prefix_sum_[i] and prefix_sq_[i] cover values_[0, i); entries past
  // `summed_` are stale until BuildPrefixSums() runs.
  std::vector<double> prefix_sum_;
  std::vector<double> prefix_sq_;
  size_t summed_ = 0;
  Value max_seen_;
  Value min_seen_;
};

}  // namespace amnesia

#endif  // AMNESIA_QUERY_ORACLE_H_
