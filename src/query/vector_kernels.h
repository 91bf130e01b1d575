// Copyright 2026 The AmnesiaDB Authors
//
// Vectorized batch-at-a-time scan kernels. The scalar scan path evaluates
// RangePredicate::Matches per Value cell inside a branchy row loop; these
// kernels instead work a word of 64 lanes at a time, fused in one pass:
//
//   1. a branch-free one-compare range test over the 64 lanes, masked by
//      the lanes' visibility word, gives one match word (on AVX-512 the
//      visibility word is the compare's write mask; elsewhere the packed
//      compare bits are ANDed with it). All three Visibility modes reduce
//      to a mask: all ones (kAll), the active words (kActiveOnly) or their
//      complement (kForgottenOnly);
//   2. the match word feeds COUNT (popcount), the aggregate accumulators
//      (masked lane arithmetic) or the emit loop (set-bit iteration that
//      appends row id and value). No selection bitmap is written back.
//
// Two inputs feed them. A morsel's column span plus its visibility words
// serve kAll, kForgottenOnly and every aggregate. Under kActiveOnly, scans
// and counts read the morsel's slice of the table's live candidate list
// (Table::live_candidates()) instead: the live values only, with no
// visibility words, so a forgotten row costs them nothing.
//
// A morsel with nothing visible (live count 0 under kActiveOnly, an empty
// list slice, or no forgotten row under kForgottenOnly) is skipped before
// any kernel runs — the amnesia-aware fast path: the more a table has
// forgotten, the less of it a scan touches.
//
// Equivalence contract with the scalar kernels (the cross-check oracle):
// ScanRange rows/values, CountRange, and aggregate COUNT/MIN/MAX are
// bit-identical; SUM/AVG/variance agree up to FP reassociation because the
// scalar path folds through Welford accumulation while the kernels sum
// directly.

#ifndef AMNESIA_QUERY_VECTOR_KERNELS_H_
#define AMNESIA_QUERY_VECTOR_KERNELS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "query/predicate.h"
#include "query/result.h"
#include "query/scan.h"
#include "storage/table.h"

namespace amnesia {

/// \brief Reusable scratch for one scan thread: a morsel's visibility
/// words, re-aligned from the table's active bitmap. The per-morsel
/// kernels take one so parallel workers never share state and serial scans
/// never reallocate per morsel.
struct VectorScanContext {
  std::vector<uint64_t> visibility_words;
};

// ----------------------------------------------------------- kernels

/// Notes one morsel a kernel of either engine scanned: scan.morsels_scanned
/// and scan.rows_scanned.
void NoteMorselScanned(uint64_t rows);

/// Returns the number of live (active) rows in [morsel.begin, morsel.end)
/// — the input of the wholesale-skip rule below.
uint64_t MorselLiveCount(const Table& table, Morsel morsel);

/// The wholesale-skip rule: a morsel of `rows` rows, `live` of them
/// active, has nothing visible — no live row under kActiveOnly, no
/// forgotten row under kForgottenOnly — so no kernel needs to run. kAll
/// never skips. The vectorized kernels apply it before any column access;
/// query profiles apply it to attribute morsels the same way.
inline bool SkipsWholesale(Visibility visibility, uint64_t live,
                           uint64_t rows) {
  return (visibility == Visibility::kActiveOnly && live == 0) ||
         (visibility == Visibility::kForgottenOnly && live == rows);
}

/// \brief Aggregate accumulator of the vectorized kernels: direct
/// count/sum/sum-of-squares plus integer-domain extrema. Associative, so
/// per-morsel partials merge in morsel order exactly like RunningStats.
/// MIN/MAX finish bit-identical to the scalar path (int64 -> double is
/// monotonic); SUM/AVG/variance differ from Welford only by FP
/// reassociation.
struct VectorAggState {
  uint64_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  Value min = std::numeric_limits<Value>::max();
  Value max = std::numeric_limits<Value>::min();

  /// Folds another partial into this one (morsel-order merge).
  void Merge(const VectorAggState& other);

  /// Converts to the public aggregate shape; empty input yields the same
  /// +inf/-inf extrema as an empty RunningStats.
  AggregateResult Finish() const;
};

/// Computes a whole unmasked value vector's aggregates with the dense
/// lane kernel — the executor's vectorized fold for index-plan results.
VectorAggState AggregateValues(const std::vector<Value>& values);

// ------------------------------------------------- per-morsel operators

/// Vectorized per-morsel COUNT over the morsel's column span and
/// visibility words: fused compare + popcount.
uint64_t CountMorselVectorized(const Table& table, const RangePredicate& pred,
                               Visibility visibility, Morsel morsel,
                               VectorScanContext* ctx);

/// Vectorized per-morsel scan over the morsel's column span and visibility
/// words: fused compare + emit. Appends matching rows to `out` in
/// ascending RowId order (bit-identical to the scalar morsel kernel).
void ScanMorselVectorized(const Table& table, const RangePredicate& pred,
                          Visibility visibility, Morsel morsel,
                          VectorScanContext* ctx, ResultSet* out);

/// Vectorized per-morsel aggregation over the morsel's column span and
/// visibility words: fused compare + masked accumulation.
VectorAggState AggregateMorselVectorized(const Table& table,
                                         const RangePredicate& pred,
                                         Visibility visibility, Morsel morsel,
                                         VectorScanContext* ctx);

/// kActiveOnly COUNT over the candidates of `live` whose rows lie in
/// `morsel`: fused compare + popcount over the live values only. An empty
/// slice is a wholesale skip.
uint64_t CountLiveVectorized(const LiveCandidates& live,
                             const RangePredicate& pred, Morsel morsel);

/// kActiveOnly scan over the candidates of `live` whose rows lie in
/// `morsel`: appends the matching rows to `out` in ascending RowId order.
/// An empty slice is a wholesale skip.
void ScanLiveVectorized(const LiveCandidates& live, const RangePredicate& pred,
                        Morsel morsel, ResultSet* out);

/// Returns this thread's reusable scan context (thread-local, so the
/// morsel-parallel workers each get their own buffers).
VectorScanContext& ThreadLocalScanContext();

}  // namespace amnesia

#endif  // AMNESIA_QUERY_VECTOR_KERNELS_H_
