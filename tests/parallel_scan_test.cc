// Copyright 2026 The AmnesiaDB Authors
//
// Parallel/serial equivalence for the morsel-parallel scan engine, plus
// unit coverage for the thread pool and the morsel partition itself.
// The contract under test: for every parallelism and every visibility,
// ScanRange returns identical rows/values, CountRange and the COUNT/MIN/MAX
// aggregates are bit-identical, and SUM/AVG/variance agree within FP
// reassociation tolerance.

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "query/scan.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace amnesia {
namespace {

constexpr Visibility kAllVisibilities[] = {
    Visibility::kActiveOnly, Visibility::kAll, Visibility::kForgottenOnly};

// Small morsels so even modest tables span many of them.
constexpr uint64_t kTestMorselRows = 97;

// Each equivalence holds under either engine: scalar is the reference,
// vectorized the default.
constexpr Engine kBothEngines[] = {Engine::kScalar, Engine::kVectorized};

Table MakeRandomTable(uint64_t rows, double forget_fraction, uint64_t seed) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({rng.UniformInt(0, 1000)}).ok());
  }
  for (uint64_t r = 0; r < rows; ++r) {
    if (rng.NextDouble() < forget_fraction) {
      EXPECT_TRUE(t.Forget(r).ok());
    }
  }
  return t;
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, 7, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleMorsel) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 10, [&](uint64_t, uint64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(0, 3, 10, [&](uint64_t lo, uint64_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 3u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(0, 4, 1, [&](uint64_t, uint64_t) {
    pool.ParallelFor(0, 10, 3, [&](uint64_t lo, uint64_t hi) {
      total.fetch_add(hi - lo);
    });
  });
  EXPECT_EQ(total.load(), 40u);
}

TEST(ThreadPoolTest, ParallelForHonorsMaxWorkersCap) {
  ThreadPool pool(8);
  // max_workers = 1: the caller drains every morsel inline, so the body
  // observes strictly sequential, ordered execution.
  std::vector<uint64_t> order;
  pool.ParallelFor(0, 100, 7, /*max_workers=*/1,
                   [&](uint64_t lo, uint64_t) { order.push_back(lo); });
  ASSERT_EQ(order.size(), 15u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i * 7);
}

TEST(ThreadPoolTest, ParallelForReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(0, 100, 9, [&](uint64_t lo, uint64_t hi) {
      uint64_t local = 0;
      for (uint64_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

// ---------------------------------------------------------- MorselRange

TEST(MorselRangeTest, PartitionIsExactAndOrdered) {
  const MorselRange range(1000, 97);
  EXPECT_EQ(range.count(), 11u);
  RowId expect_begin = 0;
  uint64_t seen = 0;
  for (Morsel m : range) {
    EXPECT_EQ(m.begin, expect_begin);
    EXPECT_GT(m.end, m.begin);
    expect_begin = m.end;
    ++seen;
  }
  EXPECT_EQ(seen, range.count());
  EXPECT_EQ(expect_begin, 1000u);
  EXPECT_EQ(range.at(10).size(), 1000u - 10u * 97u);
}

TEST(MorselRangeTest, EmptyTableHasNoMorsels) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 10)).value();
  EXPECT_EQ(t.Morsels().count(), 0u);
  // The empty partition also has no iterations.
  uint64_t seen = 0;
  for (Morsel m : t.Morsels()) {
    (void)m;
    ++seen;
  }
  EXPECT_EQ(seen, 0u);
}

TEST(MorselRangeTest, ZeroMorselRowsClampsToOneRowPerMorsel) {
  const MorselRange range(5, 0);
  EXPECT_EQ(range.count(), 5u);
  for (uint64_t i = 0; i < range.count(); ++i) {
    EXPECT_EQ(range.at(i).begin, i);
    EXPECT_EQ(range.at(i).size(), 1u);
  }
}

TEST(MorselRangeTest, TailMorselIsExactlyTheRemainder) {
  // 10 rows in morsels of 4: [0,4) [4,8) [8,10).
  const MorselRange range(10, 4);
  ASSERT_EQ(range.count(), 3u);
  EXPECT_EQ(range.at(2).begin, 8u);
  EXPECT_EQ(range.at(2).end, 10u);
  EXPECT_EQ(range.at(2).size(), 2u);

  // An exact multiple has no short tail.
  const MorselRange exact(12, 4);
  ASSERT_EQ(exact.count(), 3u);
  EXPECT_EQ(exact.at(2).size(), 4u);

  // A single-morsel table: the tail is the whole table.
  const MorselRange single(3, 8);
  ASSERT_EQ(single.count(), 1u);
  EXPECT_EQ(single.at(0).begin, 0u);
  EXPECT_EQ(single.at(0).end, 3u);
}

TEST(MorselRangeTest, TableMorselsCoverAllRows) {
  Table t = MakeRandomTable(500, 0.0, 1);
  uint64_t covered = 0;
  for (Morsel m : t.Morsels(64)) covered += m.size();
  EXPECT_EQ(covered, t.num_rows());
}

// ------------------------------------------- parallel/serial equivalence

struct EquivalenceCase {
  uint64_t rows;
  double forget_fraction;
};

class ParallelEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ParallelEquivalenceTest, ScanCountAggregateMatchSerial) {
  const EquivalenceCase& param = GetParam();
  Table t = MakeRandomTable(param.rows, param.forget_fraction,
                            /*seed=*/param.rows + 17);
  Rng rng(99);
  std::vector<RangePredicate> preds = {RangePredicate::All(0),
                                       {0, 100, 900},
                                       {0, 500, 501},
                                       {0, 700, 300}};  // empty range
  for (int i = 0; i < 4; ++i) {
    const Value lo = rng.UniformInt(0, 1000);
    preds.push_back({0, lo, lo + rng.UniformInt(0, 400)});
  }

  // One wide pool (7 helpers + caller = up to 8 scanners); the width under
  // test is applied per call via max_workers, mirroring how the executor
  // maps ExecOptions::parallelism onto its cached pool.
  ThreadPool pool(7);
  for (Engine engine : kBothEngines) {
    for (size_t width : {1u, 2u, 8u}) {
      for (Visibility vis : kAllVisibilities) {
        for (const RangePredicate& pred : preds) {
          const ResultSet serial = ScanRange(t, pred, vis, engine).value();
          const ResultSet parallel =
              ScanRangeParallel(t, pred, vis, pool, kTestMorselRows, width,
                                engine)
                  .value();
          EXPECT_EQ(parallel.rows, serial.rows);
          EXPECT_EQ(parallel.values, serial.values);

          EXPECT_EQ(CountRangeParallel(t, pred, vis, pool, kTestMorselRows,
                                       width, engine)
                        .value(),
                    CountRange(t, pred, vis, engine).value());

          const AggregateResult sa =
              AggregateRange(t, pred, vis, engine).value();
          const AggregateResult pa =
              AggregateRangeParallel(t, pred, vis, pool, kTestMorselRows,
                                     width, engine)
                  .value();
          EXPECT_EQ(pa.count, sa.count);
          EXPECT_EQ(pa.min, sa.min);  // bit-identical incl. empty-range +inf
          EXPECT_EQ(pa.max, sa.max);
          EXPECT_NEAR(pa.sum, sa.sum, 1e-6 * (std::abs(sa.sum) + 1.0));
          EXPECT_NEAR(pa.avg, sa.avg, 1e-9 * (std::abs(sa.avg) + 1.0));
          EXPECT_NEAR(pa.variance, sa.variance,
                      1e-6 * (std::abs(sa.variance) + 1.0));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ParallelEquivalenceTest,
    ::testing::Values(EquivalenceCase{0, 0.0},      // empty table
                      EquivalenceCase{1, 0.0},      // single row
                      EquivalenceCase{97, 0.5},     // exactly one morsel
                      EquivalenceCase{500, 0.3},    // partial last morsel
                      EquivalenceCase{2013, 0.3},   // many morsels
                      EquivalenceCase{3000, 1.0},   // everything forgotten
                      EquivalenceCase{3000, 0.0}    // nothing forgotten
                      ));

// ------------------------------------------------------------- Executor

TEST(ExecutorParallelismTest, ParallelExecutorMatchesSerialIncludingAccess) {
  // Must span several default-size morsels, or PoolFor stays serial and
  // the executor's parallel dispatch is never exercised.
  const uint64_t rows = 3 * kDefaultMorselRows + 123;
  Table serial_table = MakeRandomTable(rows, 0.3, 7);
  Table parallel_table = MakeRandomTable(rows, 0.3, 7);
  ASSERT_GT(serial_table.Morsels().count(), 1u);
  Executor serial_exec(&serial_table, nullptr);
  Executor parallel_exec(&parallel_table, nullptr);

  const RangePredicate pred{0, 200, 800};
  for (Engine engine : kBothEngines) {
    for (Visibility vis : kAllVisibilities) {
      ExecOptions serial_opts;
      serial_opts.visibility = vis;
      serial_opts.engine = engine;
      ExecOptions parallel_opts = serial_opts;
      parallel_opts.parallelism = 8;

      const ResultSet rs =
          serial_exec.ExecuteRange(pred, serial_opts).value();
      const ResultSet rp =
          parallel_exec.ExecuteRange(pred, parallel_opts).value();
      EXPECT_EQ(rp.rows, rs.rows);
      EXPECT_EQ(rp.values, rs.values);

      const AggregateResult as =
          serial_exec.ExecuteAggregate(pred, serial_opts).value();
      const AggregateResult ap =
          parallel_exec.ExecuteAggregate(pred, parallel_opts).value();
      EXPECT_EQ(ap.count, as.count);
      EXPECT_EQ(ap.min, as.min);
      EXPECT_EQ(ap.max, as.max);
      EXPECT_NEAR(ap.sum, as.sum, 1e-6 * (std::abs(as.sum) + 1.0));
    }
  }

  // The rot-policy feedback signal must be unaffected by parallelism.
  for (RowId r = 0; r < serial_table.num_rows(); ++r) {
    ASSERT_EQ(parallel_table.access_count(r), serial_table.access_count(r));
  }
}

TEST(ExecutorParallelismTest, DefaultOptionsStaySerial) {
  ExecOptions options;
  EXPECT_EQ(options.parallelism, 1);
}

}  // namespace
}  // namespace amnesia
