// Copyright 2026 The AmnesiaDB Authors
//
// Ablation P — morsel-parallel scan scaling. Builds a large single-column
// table (10M rows by default), forgets 30% of it, then measures the
// full-scan kernels (AggregateRange / CountRange / ScanRange) at 1..N
// worker threads under Visibility::kActiveOnly. Reports per-kernel
// wall-clock and speedup over the serial kernel, and cross-checks that
// every parallel result matches serial (COUNT/MIN/MAX exactly, SUM within
// FP reassociation tolerance).
//
// Usage: ablation_parallelism [rows] [max_threads]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "query/predicate.h"
#include "query/scan.h"
#include "storage/schema.h"
#include "storage/table.h"

using namespace amnesia;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Best-of-three wall clock, in milliseconds.
template <typename Fn>
double BestOf3(const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms = MillisSince(start);
    if (ms < best) best = ms;
  }
  return best;
}

void Die(const char* what) {
  std::fprintf(stderr, "parallel/serial mismatch: %s\n", what);
  std::abort();
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t rows =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10'000'000ull;
  const int max_threads = argc > 2 ? std::atoi(argv[2]) : 8;

  bench::Banner("Ablation P: morsel-parallel scan scaling (" +
                std::to_string(rows) + " rows, 30% forgotten, " +
                std::to_string(std::thread::hardware_concurrency()) +
                " hardware threads)");

  Table table = Table::Make(Schema::SingleColumn("v", 0, 1'000'000)).value();
  Rng rng(42);
  {
    // Bulk-ingest path: one AppendColumns call instead of `rows` AppendRow
    // calls (same final state, an order of magnitude less bookkeeping).
    std::vector<Value> values;
    values.reserve(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      values.push_back(rng.UniformInt(0, 1'000'000));
    }
    if (!table.AppendColumns({std::move(values)}).ok()) std::abort();
  }
  for (RowId r = 0; r < rows; ++r) {
    if (rng.NextDouble() < 0.30 && !table.Forget(r).ok()) std::abort();
  }

  // ~60% selectivity so the scan kernel, not materialization, dominates.
  const RangePredicate pred{0, 200'000, 800'000};
  const Visibility vis = Visibility::kActiveOnly;

  const AggregateResult serial_agg = AggregateRange(table, pred, vis).value();
  const uint64_t serial_count = CountRange(table, pred, vis).value();
  const ResultSet serial_scan = ScanRange(table, pred, vis).value();

  const double agg_serial_ms =
      BestOf3([&] { (void)AggregateRange(table, pred, vis).value(); });
  const double count_serial_ms =
      BestOf3([&] { (void)CountRange(table, pred, vis).value(); });
  const double scan_serial_ms =
      BestOf3([&] { (void)ScanRange(table, pred, vis).value(); });

  CsvWriter csv(&std::cout);
  csv.Header({"threads", "aggregate_ms", "aggregate_speedup", "count_ms",
              "count_speedup", "scan_ms", "scan_speedup"});
  csv.Row({CsvWriter::Num(int64_t{1}), CsvWriter::Num(agg_serial_ms, 2),
           CsvWriter::Num(1.0, 2), CsvWriter::Num(count_serial_ms, 2),
           CsvWriter::Num(1.0, 2), CsvWriter::Num(scan_serial_ms, 2),
           CsvWriter::Num(1.0, 2)});
  bench::EmitBenchJson("PARALLELISM",
                       {{"threads", 1.0},
                        {"rows", static_cast<double>(rows)},
                        {"aggregate_ms", agg_serial_ms},
                        {"count_ms", count_serial_ms},
                        {"scan_ms", scan_serial_ms},
                        {"aggregate_speedup", 1.0}});

  // Powers of two up to max_threads, plus max_threads itself when it is
  // not a power of two, so the requested maximum is always measured.
  std::vector<int> thread_points;
  for (int t = 2; t < max_threads; t *= 2) thread_points.push_back(t);
  if (max_threads >= 2) thread_points.push_back(max_threads);

  std::vector<double> agg_speedups = {1.0};
  for (int threads : thread_points) {
    // The benching thread drains morsels too, so N-way scanning needs
    // N-1 pool helpers.
    ThreadPool pool(static_cast<size_t>(threads - 1));

    const AggregateResult pa =
        AggregateRangeParallel(table, pred, vis, pool).value();
    if (pa.count != serial_agg.count) Die("aggregate count");
    if (pa.min != serial_agg.min || pa.max != serial_agg.max) Die("min/max");
    if (std::abs(pa.sum - serial_agg.sum) >
        1e-6 * (std::abs(serial_agg.sum) + 1.0)) {
      Die("sum beyond FP tolerance");
    }
    if (CountRangeParallel(table, pred, vis, pool).value() != serial_count) {
      Die("count");
    }
    const ResultSet ps = ScanRangeParallel(table, pred, vis, pool).value();
    if (ps.rows != serial_scan.rows || ps.values != serial_scan.values) {
      Die("scan rows/values");
    }

    const double agg_ms = BestOf3(
        [&] { (void)AggregateRangeParallel(table, pred, vis, pool).value(); });
    const double count_ms = BestOf3(
        [&] { (void)CountRangeParallel(table, pred, vis, pool).value(); });
    const double scan_ms = BestOf3(
        [&] { (void)ScanRangeParallel(table, pred, vis, pool).value(); });

    csv.Row({CsvWriter::Num(int64_t{threads}), CsvWriter::Num(agg_ms, 2),
             CsvWriter::Num(agg_serial_ms / agg_ms, 2),
             CsvWriter::Num(count_ms, 2),
             CsvWriter::Num(count_serial_ms / count_ms, 2),
             CsvWriter::Num(scan_ms, 2),
             CsvWriter::Num(scan_serial_ms / scan_ms, 2)});
    bench::EmitBenchJson("PARALLELISM",
                         {{"threads", static_cast<double>(threads)},
                          {"rows", static_cast<double>(rows)},
                          {"aggregate_ms", agg_ms},
                          {"count_ms", count_ms},
                          {"scan_ms", scan_ms},
                          {"aggregate_speedup", agg_serial_ms / agg_ms}});
    agg_speedups.push_back(agg_serial_ms / agg_ms);
  }

  std::printf("\n");
  LineChart chart;
  chart.SetTitle("AggregateRange speedup (y) vs thread-count step (x)");
  chart.SetXLabel("step i = 2^i threads");
  chart.AddSeries("speedup", agg_speedups);
  std::printf("%s\n", chart.Render().c_str());

  std::printf(
      "\nExpected shape: near-linear speedup until the scan saturates\n"
      "memory bandwidth or the machine runs out of physical cores\n"
      "(hardware_concurrency above); beyond that, extra workers only add\n"
      "scheduling overhead. Results are cross-checked against the serial\n"
      "kernels on every run.\n");

  // ------------------------------------------------ vectorized engine
  // Serial scalar vs serial vectorized, per kernel and selectivity tier.
  // Rows/sec is rows scanned (not rows matched) per second, so the two
  // engines are directly comparable at every selectivity.

  bench::Banner("Vectorized engine: scalar vs batch kernels (serial, " +
                std::to_string(rows) + " rows)");
  CsvWriter vcsv(&std::cout);
  vcsv.Header({"selectivity_pct", "kernel", "scalar_mrows_s",
               "vectorized_mrows_s", "speedup"});

  struct Tier {
    double pct;
    RangePredicate pred;
  };
  const Tier tiers[] = {
      {1.0, {0, 0, 10'000}},
      {10.0, {0, 0, 100'000}},
      {50.0, {0, 0, 500'000}},
      {90.0, {0, 0, 900'000}},
  };
  const double mrows = static_cast<double>(rows) / 1e3;  // rows per ms = mrows/s

  for (const Tier& tier : tiers) {
    // Cross-check both engines end to end before timing anything.
    const uint64_t c_scalar =
        CountRange(table, tier.pred, vis, Engine::kScalar).value();
    const uint64_t c_vec =
        CountRange(table, tier.pred, vis, Engine::kVectorized).value();
    if (c_scalar != c_vec) Die("vectorized count");
    const AggregateResult a_scalar =
        AggregateRange(table, tier.pred, vis, Engine::kScalar).value();
    const AggregateResult a_vec =
        AggregateRange(table, tier.pred, vis, Engine::kVectorized).value();
    if (a_scalar.count != a_vec.count || a_scalar.min != a_vec.min ||
        a_scalar.max != a_vec.max) {
      Die("vectorized aggregate count/min/max");
    }
    if (std::abs(a_scalar.sum - a_vec.sum) >
        1e-6 * (std::abs(a_scalar.sum) + 1.0)) {
      Die("vectorized sum beyond FP tolerance");
    }
    const ResultSet s_scalar =
        ScanRange(table, tier.pred, vis, Engine::kScalar).value();
    const ResultSet s_vec =
        ScanRange(table, tier.pred, vis, Engine::kVectorized).value();
    if (s_scalar.rows != s_vec.rows || s_scalar.values != s_vec.values) {
      Die("vectorized scan rows/values");
    }

    const double count_scalar_ms = BestOf3([&] {
      (void)CountRange(table, tier.pred, vis, Engine::kScalar).value();
    });
    const double count_vec_ms = BestOf3([&] {
      (void)CountRange(table, tier.pred, vis, Engine::kVectorized).value();
    });
    const double agg_scalar_ms = BestOf3([&] {
      (void)AggregateRange(table, tier.pred, vis, Engine::kScalar).value();
    });
    const double agg_vec_ms = BestOf3([&] {
      (void)AggregateRange(table, tier.pred, vis, Engine::kVectorized)
          .value();
    });
    const double scan_scalar_ms = BestOf3([&] {
      (void)ScanRange(table, tier.pred, vis, Engine::kScalar).value();
    });
    const double scan_vec_ms = BestOf3([&] {
      (void)ScanRange(table, tier.pred, vis, Engine::kVectorized).value();
    });

    const auto emit_row = [&](const char* kernel, double scalar_ms,
                              double vec_ms) {
      vcsv.Row({CsvWriter::Num(tier.pct, 0), std::string(kernel),
                CsvWriter::Num(mrows / scalar_ms, 1),
                CsvWriter::Num(mrows / vec_ms, 1),
                CsvWriter::Num(scalar_ms / vec_ms, 2)});
    };
    emit_row("count", count_scalar_ms, count_vec_ms);
    emit_row("aggregate", agg_scalar_ms, agg_vec_ms);
    emit_row("scan", scan_scalar_ms, scan_vec_ms);

    bench::EmitBenchJson(
        "VECTORIZED",
        {{"selectivity_pct", tier.pct},
         {"rows", static_cast<double>(rows)},
         {"count_scalar_mrows_s", mrows / count_scalar_ms},
         {"count_vectorized_mrows_s", mrows / count_vec_ms},
         {"count_speedup", count_scalar_ms / count_vec_ms},
         {"aggregate_scalar_mrows_s", mrows / agg_scalar_ms},
         {"aggregate_vectorized_mrows_s", mrows / agg_vec_ms},
         {"aggregate_speedup", agg_scalar_ms / agg_vec_ms},
         {"scan_scalar_mrows_s", mrows / scan_scalar_ms},
         {"scan_vectorized_mrows_s", mrows / scan_vec_ms},
         {"scan_speedup", scan_scalar_ms / scan_vec_ms}});
  }

  std::printf(
      "\nExpected shape: the vectorized count/aggregate kernels clear 2x\n"
      "the scalar rows/sec at 10%% selectivity (branch-free select +\n"
      "popcount/lane accumulation vs a per-row Welford fold); the scan\n"
      "kernel's gap narrows as selectivity rises because materialization\n"
      "cost is shared by both engines. Every tier is cross-checked\n"
      "scalar-vs-vectorized before timing.\n");
  return 0;
}
