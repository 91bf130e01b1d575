// Copyright 2026 The AmnesiaDB Authors

#include "query/scan.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "obs/engine_metrics.h"
#include "query/profile.h"
#include "query/vector_kernels.h"

namespace amnesia {

namespace {

// One operator-level increment per public Scan/Count/AggregateRange call,
// keyed by the engine that ran it.
inline void NoteOp(Engine engine) {
#if !defined(AMNESIA_NO_METRICS)
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  (engine == Engine::kVectorized ? m.scan_ops_vectorized : m.scan_ops_scalar)
      ->Inc();
#else
  (void)engine;
#endif
}

inline bool Visible(const Table& table, RowId row, Visibility visibility) {
  switch (visibility) {
    case Visibility::kActiveOnly:
      return table.IsActive(row);
    case Visibility::kAll:
      return true;
    case Visibility::kForgottenOnly:
      return !table.IsActive(row);
  }
  return false;
}

// Scalar per-morsel kernels. The driver runs them over one whole-table
// morsel per shard when serial and per pool morsel when parallel. They
// never skip a morsel: every row in it is touched. Keeping exactly one
// copy of each match+visibility loop is what upholds the parallel/serial
// equivalence contract. The vectorized counterparts live in
// query/vector_kernels.{h,cc} and uphold the same contract against these
// loops.
//
// They stay out of line: each has one call site, and GCC inlining the row
// loop into the driver made the serial scalar scan about 15% slower on the
// analytic_rot benchmark workload. ScanMorsel reads vals[i] again for the
// push rather than naming the value: a named copy passed to push_back by
// reference made GCC spill it to the stack on every row.

[[gnu::noinline]] ResultSet ScanMorsel(const Table& table,
                                       const RangePredicate& pred,
                                       Visibility visibility, Morsel morsel) {
  NoteMorselScanned(morsel.size());
  ResultSet out;
  // ForEachSpan walks the morsel's maximal contiguous runs: one run for a
  // vector-mode column, one per sealed partition file (plus the tail) for
  // a mapped column — the scalar loops read the mapped words in place.
  table.column(pred.col).ForEachSpan(
      morsel.begin, morsel.end, [&](RowId base, ValueSpan vals) {
        for (uint64_t i = 0; i < vals.size; ++i) {
          if (!pred.Matches(vals[i])) continue;
          const RowId r = base + i;
          if (!Visible(table, r, visibility)) continue;
          out.rows.push_back(r);
          out.values.push_back(vals[i]);
        }
      });
  return out;
}

[[gnu::noinline]] uint64_t CountMorsel(const Table& table,
                                       const RangePredicate& pred,
                                       Visibility visibility, Morsel morsel) {
  NoteMorselScanned(morsel.size());
  uint64_t count = 0;
  table.column(pred.col).ForEachSpan(
      morsel.begin, morsel.end, [&](RowId base, ValueSpan vals) {
        for (uint64_t i = 0; i < vals.size; ++i) {
          if (pred.Matches(vals[i]) && Visible(table, base + i, visibility)) {
            ++count;
          }
        }
      });
  return count;
}

[[gnu::noinline]] RunningStats AggregateMorsel(const Table& table,
                                               const RangePredicate& pred,
                                               Visibility visibility,
                                               Morsel morsel) {
  NoteMorselScanned(morsel.size());
  RunningStats stats;
  table.column(pred.col).ForEachSpan(
      morsel.begin, morsel.end, [&](RowId base, ValueSpan vals) {
        for (uint64_t i = 0; i < vals.size; ++i) {
          const Value v = vals[i];
          if (pred.Matches(v) && Visible(table, base + i, visibility)) {
            stats.Add(static_cast<double>(v));
          }
        }
      });
  return stats;
}

// ---------------------------------------------------- operator policies
//
// Each operator tells the driver four things: its partial result, how one
// morsel of either engine folds into a partial, how partials fold in
// morsel order, and how the folded partial becomes the public result.

struct ScanOp {
  using Partial = ResultSet;
  using Result = ResultSet;

  static void Run(const Table& table, const RangePredicate& pred,
                  Visibility visibility, Morsel morsel, Engine engine,
                  ResultSet* out) {
    if (engine == Engine::kVectorized) {
      ScanMorselVectorized(table, pred, visibility, morsel,
                           &ThreadLocalScanContext(), out);
    } else {
      // The scalar plans give every partial exactly one morsel, so `out`
      // is still empty here.
      *out = ScanMorsel(table, pred, visibility, morsel);
    }
  }

  static ResultSet Fold(const std::vector<ResultSet>& parts) {
    size_t total = 0;
    for (const ResultSet& p : parts) total += p.rows.size();
    ResultSet out;
    out.rows.reserve(total);
    out.values.reserve(total);
    for (const ResultSet& p : parts) {
      out.rows.insert(out.rows.end(), p.rows.begin(), p.rows.end());
      out.values.insert(out.values.end(), p.values.begin(), p.values.end());
    }
    return out;
  }

  static ResultSet Finish(ResultSet&& folded, Engine) {
    return std::move(folded);
  }
};

struct CountOp {
  using Partial = uint64_t;
  using Result = uint64_t;

  static void Run(const Table& table, const RangePredicate& pred,
                  Visibility visibility, Morsel morsel, Engine engine,
                  uint64_t* count) {
    *count += engine == Engine::kVectorized
                  ? CountMorselVectorized(table, pred, visibility, morsel,
                                          &ThreadLocalScanContext())
                  : CountMorsel(table, pred, visibility, morsel);
  }

  static uint64_t Fold(const std::vector<uint64_t>& parts) {
    uint64_t count = 0;
    for (uint64_t p : parts) count += p;
    return count;
  }

  static uint64_t Finish(uint64_t folded, Engine) { return folded; }
};

// Either engine's accumulator: the scalar kernel folds Welford
// RunningStats, the vectorized kernel direct sums. The other stays empty,
// and merging an empty accumulator changes no bit of either.
struct AggPartial {
  RunningStats scalar;
  VectorAggState vectorized;
};

struct AggregateOp {
  using Partial = AggPartial;
  using Result = AggregateResult;

  static void Run(const Table& table, const RangePredicate& pred,
                  Visibility visibility, Morsel morsel, Engine engine,
                  AggPartial* agg) {
    if (engine == Engine::kVectorized) {
      agg->vectorized.Merge(AggregateMorselVectorized(
          table, pred, visibility, morsel, &ThreadLocalScanContext()));
    } else {
      agg->scalar.Merge(AggregateMorsel(table, pred, visibility, morsel));
    }
  }

  // Associative merge in morsel order (Chan et al.): COUNT/MIN/MAX are
  // exactly the serial values, SUM/AVG/variance up to FP reassociation.
  static AggPartial Fold(const std::vector<AggPartial>& parts) {
    AggPartial out;
    for (const AggPartial& p : parts) {
      out.scalar.Merge(p.scalar);
      out.vectorized.Merge(p.vectorized);
    }
    return out;
  }

  static AggregateResult Finish(const AggPartial& folded, Engine engine) {
    return engine == Engine::kVectorized ? folded.vectorized.Finish()
                                         : ToAggregateResult(folded.scalar);
  }
};

// ------------------------------------------------------ the morsel driver

// Pool settings of a *Parallel operator call.
struct PoolPlan {
  ThreadPool* pool;
  uint64_t morsel_rows;
  size_t max_workers;
};

void ToGlobal(uint32_t shard, ResultSet* part) {
  if (shard == 0) return;
  for (RowId& r : part->rows) r = MakeGlobalRowId(shard, r);
}
// Counts and aggregates carry no row ids.
template <typename Partial>
void ToGlobal(uint32_t, Partial*) {}

// The one scan loop behind every operator. It validates the predicate,
// notes the operator, picks the morsel plan, brackets each kernel call
// with the profile scope, rewrites shard-local row ids and folds partials
// in morsel order, so rows come out in ascending global RowId order.
//
// Serial plans keep one partial per shard: the scalar kernel runs the whole
// shard as one morsel, the vectorized kernels run its Morsels(). A
// parallel plan keeps one partial per pool morsel, every shard's own
// Morsels(morsel_rows) in shard-major order, and falls back to the serial
// plan when the pool is one wide or there is at most one morsel.
template <typename Op>
StatusOr<typename Op::Result> RunScan(const TableShards& table,
                                      const RangePredicate& pred,
                                      Visibility visibility, Engine engine,
                                      std::optional<PoolPlan> parallel = {}) {
  AMNESIA_RETURN_NOT_OK(ValidatePredicate(pred, table.num_columns()));
  std::optional<ShardedMorselRange> morsels;
  if (parallel && parallel->pool->EffectiveWidth(parallel->max_workers) > 1) {
    morsels.emplace(table.Morsels(parallel->morsel_rows));
  }
  NoteOp(engine);

  auto run = [&](ShardMorsel sm, typename Op::Partial* part) {
    const Table& shard = table.shard(sm.shard);
    ProfiledMorselScope prof(shard, visibility, engine, sm.morsel, sm.shard);
    Op::Run(shard, pred, visibility, sm.morsel, engine, part);
  };

  std::vector<typename Op::Partial> parts;
  if (morsels && morsels->count() > 1) {
    parts.resize(morsels->count());
    parallel->pool->ParallelFor(
        0, morsels->count(), 1, parallel->max_workers,
        [&](uint64_t lo, uint64_t hi) {
          for (uint64_t i = lo; i < hi; ++i) {
            const ShardMorsel sm = morsels->at(i);
            run(sm, &parts[i]);
            ToGlobal(sm.shard, &parts[i]);
          }
        });
  } else {
    parts.resize(table.num_shards());
    for (uint32_t s = 0; s < table.num_shards(); ++s) {
      const Table& shard = table.shard(s);
      if (engine == Engine::kVectorized) {
        for (Morsel m : shard.Morsels()) run(ShardMorsel{s, m}, &parts[s]);
      } else {
        run(ShardMorsel{s, Morsel{0, shard.num_rows()}}, &parts[s]);
      }
      ToGlobal(s, &parts[s]);
    }
  }
  if (parts.size() == 1) return Op::Finish(std::move(parts[0]), engine);
  return Op::Finish(Op::Fold(parts), engine);
}

}  // namespace

Status ValidatePredicate(const RangePredicate& pred, size_t num_columns) {
  if (pred.col >= num_columns) {
    return Status::InvalidArgument("predicate column out of range");
  }
  return Status::OK();
}

AggregateResult ToAggregateResult(const RunningStats& stats) {
  AggregateResult out;
  out.count = stats.count();
  out.sum = stats.sum();
  out.avg = stats.mean();
  out.min = stats.min();
  out.max = stats.max();
  out.variance = stats.variance();
  return out;
}

StatusOr<ResultSet> ScanRange(const TableShards& table,
                              const RangePredicate& pred,
                              Visibility visibility, Engine engine) {
  return RunScan<ScanOp>(table, pred, visibility, engine);
}

StatusOr<uint64_t> CountRange(const TableShards& table,
                              const RangePredicate& pred,
                              Visibility visibility, Engine engine) {
  return RunScan<CountOp>(table, pred, visibility, engine);
}

StatusOr<AggregateResult> AggregateRange(const TableShards& table,
                                         const RangePredicate& pred,
                                         Visibility visibility,
                                         Engine engine) {
  return RunScan<AggregateOp>(table, pred, visibility, engine);
}

StatusOr<ResultSet> ScanRangeParallel(const TableShards& table,
                                      const RangePredicate& pred,
                                      Visibility visibility, ThreadPool& pool,
                                      uint64_t morsel_rows, size_t max_workers,
                                      Engine engine) {
  return RunScan<ScanOp>(table, pred, visibility, engine,
                         PoolPlan{&pool, morsel_rows, max_workers});
}

StatusOr<uint64_t> CountRangeParallel(const TableShards& table,
                                      const RangePredicate& pred,
                                      Visibility visibility, ThreadPool& pool,
                                      uint64_t morsel_rows, size_t max_workers,
                                      Engine engine) {
  return RunScan<CountOp>(table, pred, visibility, engine,
                          PoolPlan{&pool, morsel_rows, max_workers});
}

StatusOr<AggregateResult> AggregateRangeParallel(const TableShards& table,
                                                 const RangePredicate& pred,
                                                 Visibility visibility,
                                                 ThreadPool& pool,
                                                 uint64_t morsel_rows,
                                                 size_t max_workers,
                                                 Engine engine) {
  return RunScan<AggregateOp>(table, pred, visibility, engine,
                              PoolPlan{&pool, morsel_rows, max_workers});
}

}  // namespace amnesia
