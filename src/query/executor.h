// Copyright 2026 The AmnesiaDB Authors
//
// Query executor: picks a plan (full scan, BRIN-pruned scan, B+-tree
// probe), applies visibility, optionally records per-tuple access (the
// feedback signal the rot policy learns from), and can blend the summary
// tier into aggregates so that "the DBMS will only be able to answer
// specific aggregation queries" over forgotten data, exactly as §1 of the
// paper sketches.

#ifndef AMNESIA_QUERY_EXECUTOR_H_
#define AMNESIA_QUERY_EXECUTOR_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "common/thread_pool.h"
#include "index/index_manager.h"
#include "query/predicate.h"
#include "query/result.h"
#include "query/scan.h"
#include "storage/summary_store.h"
#include "storage/table.h"

namespace amnesia {

/// \brief Plan shapes the executor can choose.
enum class PlanKind : int {
  kFullScan = 0,
  kBrinScan = 1,
  kBTreeProbe = 2,
};

/// \brief Per-query execution options.
struct ExecOptions {
  /// Plan preference. kBrinScan / kBTreeProbe force that access path (the
  /// index is built on demand); kFullScan bypasses indexes entirely.
  PlanKind plan = PlanKind::kFullScan;
  /// Tuples the query may observe. Index probes always behave as
  /// kActiveOnly for rows erased from the index (index-skip amnesia);
  /// kAll is only honored by full scans.
  Visibility visibility = Visibility::kActiveOnly;
  /// When true, every tuple in the result gets its access count bumped —
  /// the learning signal for query-based (rot) amnesia.
  bool record_access = true;
  /// Number of concurrent scan workers (the query thread plus
  /// parallelism-1 pool helpers, clamped to hardware concurrency) for
  /// full-scan plans. 1 (the default) runs
  /// the exact serial code path, including `record_access` ordering; >1
  /// scans disjoint RowId morsels on a pool and merges per-morsel results
  /// in morsel order, so results and access bumps are identical to serial
  /// (aggregates up to FP reassociation). Index plans ignore this knob.
  int parallelism = 1;
  /// Execution engine for full-scan plans and the aggregate fold. The
  /// default, kVectorized, routes scans through the batch-at-a-time
  /// fused kernels and folds index-plan aggregates with the
  /// dense lane kernel. kScalar (row loops, Welford fold) is the reference
  /// the equivalence tests name: same rows/COUNT/MIN/MAX, SUM/AVG/variance
  /// up to FP reassociation. Index lookups themselves are unaffected.
  Engine engine = Engine::kVectorized;
  /// When true, the query records an EXPLAIN-ANALYZE-style QueryProfile
  /// (per-stage wall times, per-shard morsel/row counts, engine used)
  /// into ProfileLog::Global() — the /profilez data (query/profile.h).
  /// Profiling only observes the execution path, so results are
  /// bit-identical to the unprofiled run; the hooks cost one atomic load
  /// per morsel when off. No-op under AMNESIA_NO_METRICS.
  bool profile = false;
};

/// \brief Execution telemetry.
struct ExecutorStats {
  uint64_t queries = 0;
  uint64_t full_scans = 0;
  uint64_t brin_scans = 0;
  uint64_t btree_probes = 0;
  uint64_t rows_examined = 0;  ///< Tuples touched before predicate recheck.
  uint64_t rows_returned = 0;
};

/// \brief Single-table query executor with index selection.
class Executor {
 public:
  /// The table and index manager must outlive the executor. `indexes` may
  /// be null, in which case every query falls back to a full scan.
  Executor(Table* table, IndexManager* indexes)
      : table_(table), indexes_(indexes) {}

  /// Runs a range query and materializes matching tuples.
  StatusOr<ResultSet> ExecuteRange(const RangePredicate& pred,
                                   const ExecOptions& options);

  /// Runs `SELECT agg(col) WHERE lo <= col < hi` over the chosen
  /// visibility. All aggregates are computed in one pass.
  StatusOr<AggregateResult> ExecuteAggregate(const RangePredicate& pred,
                                             const ExecOptions& options);

  /// Like ExecuteAggregate with Visibility::kActiveOnly, then folds in the
  /// summary tier's estimate for forgotten tuples in the range: the
  /// summary-backend answer. COUNT/SUM/AVG/MIN/MAX are blended; variance
  /// is the active-only variance (summaries do not retain second moments).
  StatusOr<AggregateResult> ExecuteAggregateWithSummary(
      const RangePredicate& pred, const SummaryStore& summaries,
      const ExecOptions& options);

  /// Returns execution telemetry.
  const ExecutorStats& stats() const { return stats_; }

 private:
  StatusOr<ResultSet> RunPlan(const RangePredicate& pred,
                              const ExecOptions& options);

  /// Returns the cached pool, grown to at least `parallelism` workers, or
  /// nullptr when the request is serial. Narrower queries reuse the wide
  /// pool and cap their scan width per call.
  ThreadPool* PoolFor(int parallelism);

  Table* table_;
  IndexManager* indexes_;
  ExecutorStats stats_;
  std::unique_ptr<ThreadPool> pool_;
};

/// \brief Blends an active-only aggregate with a forgotten-mass summary
/// estimate. Exposed for tests and the summary-backend bench.
AggregateResult BlendAggregates(const AggregateResult& active,
                                const Summary& forgotten);

}  // namespace amnesia

#endif  // AMNESIA_QUERY_EXECUTOR_H_
