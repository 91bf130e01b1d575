// Copyright 2026 The AmnesiaDB Authors
//
// Full-scan operators. Visibility is explicit: the paper's central point is
// that a complete scan can still fetch forgotten-but-present tuples, while
// amnesia-aware plans only see active ones.
//
// Every Scan/Count/AggregateRange operator below is a one-line forward
// into one internal morsel driver (scan.cc). The driver takes the shards
// to scan (an unsharded Table is the one-shard case), picks the morsel
// plan, runs the chosen engine's per-morsel kernel on each morsel and
// merges the partials in morsel order. The plans:
//   - serial, kVectorized: each shard's Morsels();
//   - serial, kScalar: each shard as one whole-shard morsel;
//   - parallel: the table's Morsels(morsel_rows) on a ThreadPool, falling
//     back to the serial plan when the pool is one wide or the table fits
//     in one morsel.
// Merging in morsel order keeps rows in ascending (global) RowId order, so
// parallel output equals serial output; COUNT/MIN/MAX are bit-identical and
// SUM/AVG/variance differ by FP reassociation only.
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
/// Returns rows in ascending RowId order.
StatusOr<ResultSet> ScanRange(const Table& table, const RangePredicate& pred,
                              Visibility visibility,
                              Engine engine = Engine::kVectorized);

/// \brief Counts matching rows without materializing them.
StatusOr<uint64_t> CountRange(const Table& table, const RangePredicate& pred,
                              Visibility visibility,
                              Engine engine = Engine::kVectorized);

/// \brief Computes all aggregates over matching rows in one pass.
StatusOr<AggregateResult> AggregateRange(const Table& table,
                                         const RangePredicate& pred,
                                         Visibility visibility,
                                         Engine engine = Engine::kVectorized);

/// \brief Morsel-parallel ScanRange. Returns exactly the rows and values of
/// the serial scan, in the same (ascending RowId) order. `max_workers`
/// caps the scan width below the pool size (0 = whole pool); the serial
/// kernel is used when the effective width is 1 or the table fits in one
/// morsel.
StatusOr<ResultSet> ScanRangeParallel(const Table& table,
                                      const RangePredicate& pred,
                                      Visibility visibility, ThreadPool& pool,
                                      uint64_t morsel_rows = kDefaultMorselRows,
                                      size_t max_workers = 0,
                                      Engine engine = Engine::kVectorized);

/// \brief Morsel-parallel CountRange; bit-identical to the serial count.
StatusOr<uint64_t> CountRangeParallel(const Table& table,
                                      const RangePredicate& pred,
                                      Visibility visibility, ThreadPool& pool,
                                      uint64_t morsel_rows = kDefaultMorselRows,
                                      size_t max_workers = 0,
                                      Engine engine = Engine::kVectorized);

/// \brief Morsel-parallel AggregateRange. Partial accumulators are merged
/// associatively in morsel order (Chan et al.), so COUNT/MIN/MAX match the
/// serial kernel exactly and SUM/AVG/variance match up to FP reassociation.
StatusOr<AggregateResult> AggregateRangeParallel(
    const Table& table, const RangePredicate& pred, Visibility visibility,
    ThreadPool& pool, uint64_t morsel_rows = kDefaultMorselRows,
    size_t max_workers = 0, Engine engine = Engine::kVectorized);

// Sharded-table overloads. The driver scans every shard with the same
// per-morsel kernels as an unsharded table and merges in shard-major order
// (ascending global RowId order), so a single-shard table produces
// bit-identical rows, COUNT, MIN and MAX to the unsharded serial kernels,
// and any shard count preserves the COUNT/MIN/MAX of the same physical rows
// (SUM/AVG/variance up to FP reassociation).

/// \brief Scans every shard of `table` for rows matching `pred` under
/// `visibility`. Returns global RowIds in shard-major (ascending global
/// RowId) order.
StatusOr<ResultSet> ScanRange(const ShardedTable& table,
                              const RangePredicate& pred,
                              Visibility visibility,
                              Engine engine = Engine::kVectorized);

/// \brief Counts matching rows across all shards.
StatusOr<uint64_t> CountRange(const ShardedTable& table,
                              const RangePredicate& pred,
                              Visibility visibility,
                              Engine engine = Engine::kVectorized);

/// \brief Computes all aggregates over matching rows across all shards.
StatusOr<AggregateResult> AggregateRange(const ShardedTable& table,
                                         const RangePredicate& pred,
                                         Visibility visibility,
                                         Engine engine = Engine::kVectorized);

/// \brief Morsel-parallel sharded ScanRange: workers consume shard-local
/// morsel streams (no morsel spans two shards), results merge in
/// shard-major order — exactly the serial sharded scan's output.
StatusOr<ResultSet> ScanRangeParallel(const ShardedTable& table,
                                      const RangePredicate& pred,
                                      Visibility visibility, ThreadPool& pool,
                                      uint64_t morsel_rows = kDefaultMorselRows,
                                      size_t max_workers = 0,
                                      Engine engine = Engine::kVectorized);

/// \brief Morsel-parallel sharded CountRange; bit-identical to the serial
/// sharded count.
StatusOr<uint64_t> CountRangeParallel(const ShardedTable& table,
                                      const RangePredicate& pred,
                                      Visibility visibility, ThreadPool& pool,
                                      uint64_t morsel_rows = kDefaultMorselRows,
                                      size_t max_workers = 0,
                                      Engine engine = Engine::kVectorized);

/// \brief Morsel-parallel sharded AggregateRange; COUNT/MIN/MAX match the
/// serial sharded kernel exactly, SUM/AVG/variance up to FP reassociation.
StatusOr<AggregateResult> AggregateRangeParallel(
    const ShardedTable& table, const RangePredicate& pred,
    Visibility visibility, ThreadPool& pool,
    uint64_t morsel_rows = kDefaultMorselRows, size_t max_workers = 0,
    Engine engine = Engine::kVectorized);

}  // namespace amnesia

#endif  // AMNESIA_QUERY_SCAN_H_
