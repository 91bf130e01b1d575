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
#include <limits>
#include <vector>

#include "common/status.h"
#include "query/predicate.h"
#include "query/result.h"
#include "storage/types.h"

namespace amnesia {

/// \brief Immutable-history answer service for one column.
///
/// The history is two sorted arrays: `values_`, everything up to the last
/// fold, and a small `delta_`, every seal since. Appends are buffered;
/// Seal() (called once per update batch) radix-sorts the b buffered
/// values and merges them into the delta only. The delta is folded into
/// the history once 8 * |delta| >= |history|, so the initial load and
/// small histories fold at once. Both merges are one in-place merge from
/// the target's upper_bound of the run's smallest value, and a run merged
/// into an empty target simply becomes it.
///
/// Costs, for n values ever inserted and uniform values (the merge moves
/// about the whole target each time):
///   - Seal: O(b) to sort, plus a merge that moves the delta, n/16 values
///     on average, plus a fold every n/(8b) seals that moves about n:
///     about n/16 + 8b values per seal, where one merge into the whole
///     history moved about n. The delta merge still grows with the
///     history, at about 1/16 of that slope.
///   - CountRange: one lower_bound pair per array, O(log n).
///   - ValueAt(i): the i-th smallest of the two arrays, by binary search on
///     how many of the i+1 smallest lie in the history, O(log n).
///   - AggregateRange: folds first, so its prefix sums cover one array.
///     A history aggregated every batch therefore folds every batch, and
///     the merge moves from the seal to the batch's first aggregate.
/// The 1/8 trades the delta merge (n/16 per seal) against the fold (8b
/// per seal): a larger delta moves less at folds and more at seals.
///
/// Why two arrays and not O(log n) runs (the logarithmic method, as in an
/// LSM tree): every ValueAt would select across all runs and every
/// CountRange search each one, and the query generators draw a ValueAt
/// anchor per query. Two arrays keep both at two binary searches.
///
/// Only AggregateRange reads the prefix sums, so a fold just notes the
/// lowest index its merge moved. The first AggregateRange after one or
/// more folds re-sums from the lowest such index, in index order from the
/// same start, so every entry, and every answer, is bit-identical to a
/// full re-sort's; later aggregates cost O(log n). A history that is never
/// aggregated never allocates or sums them.
///
/// Each merge adds the values it moved to the `oracle.values_merged`
/// counter and each fold counts in `oracle.folds` (src/obs/engine_metrics.h).
class GroundTruthOracle {
 public:
  /// Records one inserted value.
  void Append(Value v);

  /// Sorts buffered appends and merges them into the delta, folding the
  /// delta into the history when it has grown to 1/8 of it. Idempotent.
  void Seal();

  /// Returns the number of values ever inserted.
  uint64_t size() const {
    return values_.size() + delta_.size() + pending_.size();
  }

  /// Returns how many inserted values fall in [lo, hi).
  /// Precondition: Seal() since the last Append.
  StatusOr<uint64_t> CountRange(Value lo, Value hi) const;

  /// Returns the full aggregates over values in [lo, hi). Non-const: it
  /// first folds the delta and brings the prefix sums up to date.
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

  /// Merges the delta into the history and notes where the prefix sums
  /// went stale. No-op on an empty delta.
  void Fold();

  /// Extends the prefix sums over the history from `summed_`.
  void BuildPrefixSums();

  std::vector<Value> values_;   // sorted history up to the last fold
  std::vector<Value> delta_;    // sorted; every seal since the last fold
  std::vector<Value> pending_;  // appended since the last seal
  // prefix_sum_[i] and prefix_sq_[i] cover values_[0, i); entries past
  // `summed_` are stale until BuildPrefixSums() runs.
  std::vector<double> prefix_sum_;
  std::vector<double> prefix_sq_;
  size_t summed_ = 0;
  Value max_seen_ = std::numeric_limits<Value>::min();
  Value min_seen_ = std::numeric_limits<Value>::max();
};

}  // namespace amnesia

#endif  // AMNESIA_QUERY_ORACLE_H_
