// Copyright 2026 The AmnesiaDB Authors
//
// Full-scan operators. Visibility is explicit: the paper's central point is
// that a complete scan can still fetch forgotten-but-present tuples, while
// amnesia-aware plans only see active ones.
//
// Each Scan/Count/AggregateRange operator is declared once and takes the
// table as a TableShards view (storage/sharded_table.h): its shards in
// shard order, an unsharded Table being the one-shard case, so a Table or
// a ShardedTable converts implicitly at the call site. Every operator is a
// one-line forward into one internal morsel driver (scan.cc), which picks
// the morsel plan, runs the chosen engine's per-morsel kernel on each
// morsel and merges the partials in morsel order. The plans:
//   - serial, kVectorized: each shard's Morsels();
//   - serial, kScalar: each shard as one whole-shard morsel;
//   - parallel: every shard's own Table::Morsels(morsel_rows), shard-major,
//     on a ThreadPool (capped at the partition size on a mapped shard, so
//     no morsel straddles a seal), falling back to the serial plan when the
//     pool is one wide or the table fits in one morsel.
// Merging in morsel order keeps rows in ascending global RowId order, so
// parallel output equals serial output and a one-shard ShardedTable equals
// the unsharded Table bit for bit; COUNT/MIN/MAX are bit-identical across
// plans and shard counts, SUM/AVG/variance differ by FP reassociation only.
//
// Every operator defaults to kVectorized, the batch-at-a-time kernels of
// query/vector_kernels.h (branch-free selection bitmaps ANDed against the
// visibility bitmap, with fully-forgotten morsels skipped wholesale).
// kScalar runs tuple-at-a-time row loops and is kept only as the reference
// the equivalence tests name. Both engines return the same rows in the
// same order; COUNT/MIN/MAX are bit-identical across engines,
// SUM/AVG/variance agree up to FP reassociation (scalar folds through
// Welford, vectorized sums directly).

#ifndef AMNESIA_QUERY_SCAN_H_
#define AMNESIA_QUERY_SCAN_H_

#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "query/predicate.h"
#include "query/result.h"
#include "storage/sharded_table.h"
#include "storage/table.h"

namespace amnesia {

/// \brief Which tuples a scan may observe.
enum class Visibility : int {
  kActiveOnly = 0,     ///< Amnesic view: forgotten tuples are invisible.
  kAll = 1,            ///< Physical view: everything still in storage.
  kForgottenOnly = 2,  ///< Only marked-forgotten tuples (diagnostics).
};

/// \brief Which execution engine a scan operator runs.
enum class Engine : int {
  kScalar = 0,      ///< Tuple-at-a-time row loops (the tests' reference).
  kVectorized = 1,  ///< Batch-at-a-time selection-bitmap kernels; default.
};

/// \brief Returns InvalidArgument unless `pred` names one of a table's
/// `num_columns` columns. The one predicate check of every scan and plan.
Status ValidatePredicate(const RangePredicate& pred, size_t num_columns);

/// \brief Converts a finished accumulator into the aggregate result shape.
/// The single definition of that mapping, shared by the serial kernel, the
/// parallel merge, and the executor's index-plan fold.
AggregateResult ToAggregateResult(const RunningStats& stats);

/// \brief Scans `table` for rows matching `pred` under `visibility`.
/// Returns global RowIds in ascending (shard-major) order.
StatusOr<ResultSet> ScanRange(const TableShards& table,
                              const RangePredicate& pred,
                              Visibility visibility,
                              Engine engine = Engine::kVectorized);

/// \brief Counts matching rows without materializing them.
StatusOr<uint64_t> CountRange(const TableShards& table,
                              const RangePredicate& pred,
                              Visibility visibility,
                              Engine engine = Engine::kVectorized);

/// \brief Computes all aggregates over matching rows in one pass.
StatusOr<AggregateResult> AggregateRange(const TableShards& table,
                                         const RangePredicate& pred,
                                         Visibility visibility,
                                         Engine engine = Engine::kVectorized);

/// \brief Morsel-parallel ScanRange. Returns exactly the rows and values of
/// the serial scan, in the same order. `max_workers` caps the scan width
/// below the pool size (0 = whole pool); the serial plan is used when the
/// effective width is 1 or the table fits in one morsel.
StatusOr<ResultSet> ScanRangeParallel(const TableShards& table,
                                      const RangePredicate& pred,
                                      Visibility visibility, ThreadPool& pool,
                                      uint64_t morsel_rows = kDefaultMorselRows,
                                      size_t max_workers = 0,
                                      Engine engine = Engine::kVectorized);

/// \brief Morsel-parallel CountRange; bit-identical to the serial count.
StatusOr<uint64_t> CountRangeParallel(const TableShards& table,
                                      const RangePredicate& pred,
                                      Visibility visibility, ThreadPool& pool,
                                      uint64_t morsel_rows = kDefaultMorselRows,
                                      size_t max_workers = 0,
                                      Engine engine = Engine::kVectorized);

/// \brief Morsel-parallel AggregateRange. Partial accumulators are merged
/// associatively in morsel order (Chan et al.), so COUNT/MIN/MAX match the
/// serial kernel exactly and SUM/AVG/variance match up to FP reassociation.
StatusOr<AggregateResult> AggregateRangeParallel(
    const TableShards& table, const RangePredicate& pred,
    Visibility visibility, ThreadPool& pool,
    uint64_t morsel_rows = kDefaultMorselRows, size_t max_workers = 0,
    Engine engine = Engine::kVectorized);

}  // namespace amnesia

#endif  // AMNESIA_QUERY_SCAN_H_
