// Copyright 2026 The AmnesiaDB Authors
//
// Micro-benchmarks (google-benchmark) for the operators everything else is
// built on: scans, aggregates, index lookups and maintenance, per-policy
// victim selection, bitmap select, Zipf sampling.

#include <optional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "amnesia/registry.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "index/brin.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "query/profile.h"
#include "query/scan.h"
#include "server/introspect.h"
#include "storage/table.h"

namespace amnesia {
namespace {

Table MakeUniformTable(size_t n, uint64_t seed = 7) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1'000'000)).value();
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    if (!t.AppendRow({rng.UniformInt(0, 999'999)}).ok()) std::abort();
  }
  return t;
}

void BM_FullScanRange(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table t = MakeUniformTable(n);
  const RangePredicate pred{0, 100'000, 120'000};
  for (auto _ : state) {
    auto result =
        ScanRange(t, pred, Visibility::kActiveOnly, Engine::kScalar);
    benchmark::DoNotOptimize(result.value().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FullScanRange)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_AggregateKernel(benchmark::State& state) {
  Table t = MakeUniformTable(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = AggregateRange(t, RangePredicate::All(0),
                                 Visibility::kActiveOnly, Engine::kScalar);
    benchmark::DoNotOptimize(result.value().avg);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AggregateKernel)->Arg(1000)->Arg(100000);

// Scalar-vs-vectorized engine pairs for the same scan shapes: the
// items-per-second ratio is the kernel speedup.
void BM_FullScanRangeVectorized(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table t = MakeUniformTable(n);
  const RangePredicate pred{0, 100'000, 120'000};
  for (auto _ : state) {
    auto result =
        ScanRange(t, pred, Visibility::kActiveOnly, Engine::kVectorized);
    benchmark::DoNotOptimize(result.value().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FullScanRangeVectorized)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CountRangeByEngine(benchmark::State& state) {
  Table t = MakeUniformTable(100000);
  const Engine engine = static_cast<Engine>(state.range(0));
  const RangePredicate pred{0, 100'000, 200'000};  // ~10% selectivity
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CountRange(t, pred, Visibility::kActiveOnly, engine).value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100000);
  state.SetLabel(engine == Engine::kVectorized ? "vectorized" : "scalar");
}
BENCHMARK(BM_CountRangeByEngine)->Arg(0)->Arg(1);

void BM_AggregateKernelVectorized(benchmark::State& state) {
  Table t = MakeUniformTable(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = AggregateRange(t, RangePredicate::All(0),
                                 Visibility::kActiveOnly, Engine::kVectorized);
    benchmark::DoNotOptimize(result.value().avg);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AggregateKernelVectorized)->Arg(1000)->Arg(100000);

// Bulk-ingest pair: per-element Append (push + two compares per value)
// vs AppendMany (one contiguous copy + one extrema sweep).
void BM_ColumnAppendLoop(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(29);
  std::vector<Value> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) batch.push_back(rng.UniformInt(0, 999'999));
  for (auto _ : state) {
    Column c;
    for (Value v : batch) c.Append(v);
    benchmark::DoNotOptimize(c.max_seen());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ColumnAppendLoop)->Arg(1000)->Arg(100000);

void BM_ColumnAppendMany(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(29);
  std::vector<Value> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) batch.push_back(rng.UniformInt(0, 999'999));
  for (auto _ : state) {
    Column c;
    c.AppendMany(batch);
    benchmark::DoNotOptimize(c.max_seen());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ColumnAppendMany)->Arg(1000)->Arg(100000);

void BM_BTreeBuild(benchmark::State& state) {
  Table t = MakeUniformTable(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    BTreeIndex tree;
    if (!tree.Build(t, 0).ok()) std::abort();
    benchmark::DoNotOptimize(tree.num_entries());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BTreeBuild)->Arg(1000)->Arg(10000);

void BM_BTreeRangeLookup(benchmark::State& state) {
  Table t = MakeUniformTable(100000);
  BTreeIndex tree;
  if (!tree.Build(t, 0).ok()) std::abort();
  Rng rng(11);
  for (auto _ : state) {
    const Value lo = rng.UniformInt(0, 979'999);
    auto rows = tree.LookupRange(lo, lo + 20'000);
    benchmark::DoNotOptimize(rows.value().size());
  }
}
BENCHMARK(BM_BTreeRangeLookup);

void BM_BrinRangeLookup(benchmark::State& state) {
  Table t = MakeUniformTable(100000);
  BrinIndex brin(static_cast<size_t>(state.range(0)));
  if (!brin.Build(t, 0).ok()) std::abort();
  Rng rng(11);
  for (auto _ : state) {
    const Value lo = rng.UniformInt(0, 979'999);
    auto rows = brin.LookupRange(lo, lo + 20'000);
    benchmark::DoNotOptimize(rows.value().size());
  }
}
BENCHMARK(BM_BrinRangeLookup)->Arg(64)->Arg(512);

void BM_HashEqualLookup(benchmark::State& state) {
  Table t = MakeUniformTable(100000);
  HashIndex idx;
  if (!idx.Build(t, 0).ok()) std::abort();
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.LookupEqual(rng.UniformInt(0, 999'999)));
  }
}
BENCHMARK(BM_HashEqualLookup);

void BM_VictimSelection(benchmark::State& state) {
  const PolicyKind kind = static_cast<PolicyKind>(state.range(0));
  Table t = MakeUniformTable(10000);
  GroundTruthOracle oracle;
  for (RowId r = 0; r < t.num_rows(); ++r) oracle.Append(t.value(0, r));
  oracle.Seal();
  PolicyOptions opts;
  opts.kind = kind;
  auto policy = CreatePolicy(opts, &oracle).value();
  Rng rng(13);
  for (auto _ : state) {
    auto victims = policy->SelectVictims(t, 800, &rng);
    benchmark::DoNotOptimize(victims.value().size());
  }
  state.SetLabel(std::string(PolicyKindToString(kind)));
}
BENCHMARK(BM_VictimSelection)
    ->DenseRange(0, 7, 1);  // all eight policy kinds

void BM_TableForgetRevive(benchmark::State& state) {
  Table t = MakeUniformTable(100000);
  RowId r = 0;
  for (auto _ : state) {
    if (!t.Forget(r).ok()) std::abort();
    if (!t.Revive(r).ok()) std::abort();
    r = (r + 1) % t.num_rows();
  }
}
BENCHMARK(BM_TableForgetRevive);

void BM_BitmapSelect(benchmark::State& state) {
  Bitmap b(1'000'000);
  Rng rng(17);
  for (int i = 0; i < 500'000; ++i) b.Set(rng.UniformIndex(1'000'000));
  const size_t population = b.CountSet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.SelectSet(rng.UniformIndex(population)));
  }
}
BENCHMARK(BM_BitmapSelect);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 1.0);
  Rng rng(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(&rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1'000'000);

// Observability primitives: the per-event costs the "leave it on" claim
// rests on. Counter::Inc must land near the single-relaxed-fetch_add
// floor (~1-5 ns); Histogram::Record adds a bit-scan and a second
// fetch_add; TraceScope adds two clock reads and a ring-buffer slot. All
// three collapse to ~0 ns under AMNESIA_NO_METRICS.
void BM_CounterInc(benchmark::State& state) {
  obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("bench.counter_inc");
  for (auto _ : state) {
    c->Inc();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterInc);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("bench.histogram_record");
  uint64_t v = 1;
  for (auto _ : state) {
    h->Record(v);
    v = (v * 2862933555777941757ull + 3037000493ull) >> 32;  // cheap lcg
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

void BM_TraceScope(benchmark::State& state) {
  obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("bench.trace_scope_ns");
  for (auto _ : state) {
    obs::TraceScope scope("bench.trace_scope", h);
    scope.Annotate("iter", 1);
    benchmark::DoNotOptimize(&scope);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceScope);

// Profile layer: a full ProfiledQuery record (install collector, one
// timed stage, assemble + ring-record the QueryProfile) and the
// per-morsel attribution a profiled scan pays. Both are no-ops under
// AMNESIA_NO_METRICS.
void BM_ProfileRecord(benchmark::State& state) {
  for (auto _ : state) {
    ProfiledQuery pq("count", PlanKind::kFullScan, Engine::kVectorized,
                     Visibility::kActiveOnly, /*parallelism=*/1,
                     /*num_shards=*/static_cast<uint32_t>(state.range(0)));
    pq.Stage("execute");
    benchmark::DoNotOptimize(pq.Finish(1).query_id);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfileRecord)->Arg(1)->Arg(16);

void BM_ProfiledMorselScope(benchmark::State& state) {
  Table t = MakeUniformTable(static_cast<size_t>(kDefaultMorselRows));
  const Morsel morsel{0, t.num_rows()};
  // With a collector installed (Arg 1) the scope times the bracket and
  // attributes the morsel; without (Arg 0) it is one acquire load.
  std::optional<ProfiledQuery> pq;
  if (state.range(0) != 0) {
    pq.emplace("count", PlanKind::kFullScan, Engine::kVectorized,
               Visibility::kActiveOnly, 1, 1u);
  }
  for (auto _ : state) {
    ProfiledMorselScope scope(t, Visibility::kActiveOnly, Engine::kVectorized,
                              morsel, /*shard=*/0, /*live_only=*/true);
    benchmark::DoNotOptimize(&scope);
  }
  if (pq) pq->Finish(0);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(state.range(0) != 0 ? "collector_installed" : "inactive");
}
BENCHMARK(BM_ProfiledMorselScope)->Arg(0)->Arg(1);

// Exposition rendering: what one /metrics or /tracez scrape costs the
// serving thread, over the live registry / a full trace ring.
void BM_RenderPrometheus(benchmark::State& state) {
  // Populate some families so the render has realistic work even when
  // the bench runs standalone.
  obs::MetricsRegistry::Global().GetCounter("bench.render_counter")->Inc();
  obs::MetricsRegistry::Global().GetGauge("bench.render_gauge")->Set(42);
  obs::MetricsRegistry::Global()
      .GetHistogram("bench.render_histogram")
      ->Record(1000);
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string body = server::RenderPrometheus(
        obs::MetricsRegistry::Global().SnapshotAll());
    bytes = body.size();
    benchmark::DoNotOptimize(body.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_RenderPrometheus);

void BM_RenderTraceJson(benchmark::State& state) {
  for (int i = 0; i < 2048; ++i) {  // saturate the 1024-slot ring
    obs::TraceScope scope("bench.render_trace");
    scope.Annotate("i", i);
  }
  const std::vector<obs::TraceSpan> spans =
      obs::TraceLog::Global().Snapshot();
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string body = server::RenderTraceJson(spans);
    bytes = body.size();
    benchmark::DoNotOptimize(body.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_RenderTraceJson);

void BM_CompactForgotten(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Table t = MakeUniformTable(50000);
    Rng rng(23);
    for (int i = 0; i < 25000; ++i) {
      const Status s = t.Forget(rng.UniformIndex(50000));
      (void)s;  // double-forgets just skip
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(t.CompactForgotten().removed);
  }
}
BENCHMARK(BM_CompactForgotten);

}  // namespace
}  // namespace amnesia

BENCHMARK_MAIN();
