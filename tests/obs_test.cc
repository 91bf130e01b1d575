// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the observability layer (src/obs) and the LogSink plumbing:
// counter/gauge/histogram exactness, snapshot merge, JSON exposition,
// delta summaries, the trace ring, thread-pool accounting, a TSan-target
// concurrency hammer, log capture (including the retention-GC back-off
// warning), and instrumentation parity against the per-instance stats
// structs after a real simulated run.
//
// Registry metrics are process-global and monotone, so every test that
// reads engine counters asserts on DELTAS across its own workload, never
// on absolute values — the suite stays order-independent.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "durability/checkpointer.h"
#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace amnesia {
namespace {

#if defined(AMNESIA_NO_METRICS)
#define SKIP_WITHOUT_METRICS() \
  GTEST_SKIP() << "metrics compiled out (AMNESIA_NO_METRICS)"
#else
#define SKIP_WITHOUT_METRICS() (void)0
#endif

uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// ------------------------------------------------------------- primitives

TEST(CounterTest, IncAndValueExact) {
  SKIP_WITHOUT_METRICS();
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, HighWaterTracksMaximum) {
  SKIP_WITHOUT_METRICS();
  obs::Gauge g;
  g.Set(5);
  g.Add(10);   // 15
  g.Add(-12);  // 3
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  EXPECT_EQ(g.HighWater(), 15);
}

TEST(GaugeTest, ResetHighWaterStartsNewWindow) {
  SKIP_WITHOUT_METRICS();
  obs::Gauge g;
  g.Set(100);
  g.Set(2);
  EXPECT_EQ(g.HighWater(), 100);
  g.ResetHighWater();
  // The new window's baseline is the current value, not zero...
  EXPECT_EQ(g.HighWater(), 2);
  g.Set(50);
  g.Set(10);
  // ...and its peak is this window's, not the lifetime one.
  EXPECT_EQ(g.HighWater(), 50);
}

TEST(RegistryTest, ResetAllHighWatersRebasesEveryGauge) {
  SKIP_WITHOUT_METRICS();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Gauge* a = reg.GetGauge("test.reset_hw_a");
  obs::Gauge* b = reg.GetGauge("test.reset_hw_b");
  a->Set(9);
  a->Set(1);
  b->Set(-3);
  b->Set(-8);
  reg.ResetAllHighWaters();
  const obs::MetricsSnapshot snap = reg.SnapshotAll();
  EXPECT_EQ(snap.gauges.at("test.reset_hw_a").high_water, 1);
  EXPECT_EQ(snap.gauges.at("test.reset_hw_b").high_water, -8);
}

TEST(HistogramTest, BucketIndexIsBitWidth) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(obs::Histogram::BucketIndex(~uint64_t{0}),
            obs::Histogram::kBuckets - 1);
}

TEST(HistogramTest, CountSumExactQuantilesBucketAccurate) {
  SKIP_WITHOUT_METRICS();
  obs::Histogram h;
  // 90 samples in [16,32) and 10 in [1024,2048): p50 must land in the
  // first bucket, p95/p99 in the second; count and sum are exact.
  uint64_t sum = 0;
  for (int i = 0; i < 90; ++i) {
    h.Record(20);
    sum += 20;
  }
  for (int i = 0; i < 10; ++i) {
    h.Record(1500);
    sum += 1500;
  }
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_DOUBLE_EQ(snap.Mean(), static_cast<double>(sum) / 100.0);
  // Bucket mid of [16,32) is 24; of [1024,2048) is 1536.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.50), 24.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.90), 24.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.95), 1536.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 1536.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1536.0);
}

TEST(HistogramTest, QuantileEdgeCases) {
  SKIP_WITHOUT_METRICS();
  obs::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Snapshot().Quantile(0.5), 0.0);

  obs::Histogram zeros;
  zeros.Record(0);
  zeros.Record(0);
  const obs::HistogramSnapshot snap = zeros.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 0.0);  // zero bucket reports 0
}

TEST(HistogramTest, MergeEqualsRecordingEverythingInOne) {
  SKIP_WITHOUT_METRICS();
  obs::Histogram a, b, all;
  const std::vector<uint64_t> xs = {0, 1, 3, 17, 500, 90000};
  const std::vector<uint64_t> ys = {2, 2, 64, 4096, 1u << 20};
  for (uint64_t v : xs) {
    a.Record(v);
    all.Record(v);
  }
  for (uint64_t v : ys) {
    b.Record(v);
    all.Record(v);
  }
  obs::HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const obs::HistogramSnapshot reference = all.Snapshot();
  EXPECT_EQ(merged.count, reference.count);
  EXPECT_EQ(merged.sum, reference.sum);
  EXPECT_EQ(merged.buckets, reference.buckets);
  EXPECT_DOUBLE_EQ(merged.Quantile(0.5), reference.Quantile(0.5));
}

// --------------------------------------------------------------- registry

TEST(RegistryTest, GetReturnsStablePointersAndSnapshotSees) {
  SKIP_WITHOUT_METRICS();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("test.registry_counter");
  ASSERT_EQ(c, reg.GetCounter("test.registry_counter"));
  const uint64_t before =
      CounterValue(reg.SnapshotAll(), "test.registry_counter");
  c->Inc(3);
  reg.GetGauge("test.registry_gauge")->Set(-4);
  reg.GetHistogram("test.registry_hist")->Record(100);

  const obs::MetricsSnapshot snap = reg.SnapshotAll();
  EXPECT_EQ(CounterValue(snap, "test.registry_counter"), before + 3);
  ASSERT_TRUE(snap.gauges.count("test.registry_gauge"));
  EXPECT_EQ(snap.gauges.at("test.registry_gauge").value, -4);
  ASSERT_TRUE(snap.histograms.count("test.registry_hist"));
  EXPECT_GE(snap.histograms.at("test.registry_hist").count, 1u);
}

TEST(RegistryTest, DumpJsonContainsRegisteredMetricsAndBalances) {
  SKIP_WITHOUT_METRICS();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.json_counter")->Inc(7);
  reg.GetHistogram("test.json_hist")->Record(42);
  const std::string json = reg.DumpJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced at offset " << i;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(RegistryTest, SnapshotJsonEscapesEveryControlCharacter) {
  // `/metrics?format=json` and the introspection pages share one escaper,
  // so any metric name still yields one valid JSON string.
  obs::MetricsSnapshot snap;
  snap.counters["a\"b\\c\nd\te\rf\x01g"] = 1;
  EXPECT_NE(snap.ToJson().find(R"("a\"b\\c\nd\te\rf\u0001g":1)"),
            std::string::npos)
      << snap.ToJson();
}

TEST(RegistryTest, DeltaSummaryReportsOnlyWhatMoved) {
  SKIP_WITHOUT_METRICS();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* moving = reg.GetCounter("test.delta_moving");
  reg.GetCounter("test.delta_static");  // registered, never incremented

  const obs::MetricsSnapshot before = reg.SnapshotAll();
  moving->Inc(5);
  const obs::MetricsSnapshot after = reg.SnapshotAll();
  const std::string delta = obs::MetricsSnapshot::DeltaSummary(before, after);
  EXPECT_NE(delta.find("test.delta_moving+5"), std::string::npos) << delta;
  EXPECT_EQ(delta.find("test.delta_static"), std::string::npos) << delta;
  EXPECT_TRUE(obs::MetricsSnapshot::DeltaSummary(after, after).empty());
}

// ------------------------------------------------------------------ trace

TEST(TraceTest, ScopeRecordsSpanWithAnnotationsAndHistogram) {
  SKIP_WITHOUT_METRICS();
  obs::TraceLog& log = obs::TraceLog::Global();
  obs::Histogram h;
  const uint64_t before = log.total_recorded();
  {
    obs::TraceScope scope("test.span", &h);
    scope.Annotate("rows", 123);
    scope.Annotate("shards", 4);
  }
  EXPECT_EQ(log.total_recorded(), before + 1);
  EXPECT_EQ(h.Snapshot().count, 1u);
  const std::vector<obs::TraceSpan> spans = log.Snapshot();
  ASSERT_FALSE(spans.empty());
  const obs::TraceSpan& span = spans.back();
  EXPECT_STREQ(span.name, "test.span");
  ASSERT_EQ(span.num_annotations, 2);
  EXPECT_STREQ(span.annotations[0].key, "rows");
  EXPECT_EQ(span.annotations[0].value, 123);
  EXPECT_NE(span.thread_id, 0u);
}

TEST(TraceTest, RingRetainsAtMostCapacityOldestFirst) {
  SKIP_WITHOUT_METRICS();
  obs::TraceLog& log = obs::TraceLog::Global();
  for (size_t i = 0; i < obs::TraceLog::kCapacity + 10; ++i) {
    obs::TraceScope scope("test.ring_filler");
  }
  const std::vector<obs::TraceSpan> spans = log.Snapshot();
  EXPECT_EQ(spans.size(), obs::TraceLog::kCapacity);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
  }
}

TEST(TraceTest, RingOverflowCountsDroppedSpans) {
  SKIP_WITHOUT_METRICS();
  obs::TraceLog& log = obs::TraceLog::Global();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t metric_before =
      CounterValue(reg.SnapshotAll(), "obs.trace.dropped_spans");
  const uint64_t dropped_before = log.dropped();
  const uint64_t total_before = log.total_recorded();
  constexpr size_t kExtra = 7;
  for (size_t i = 0; i < obs::TraceLog::kCapacity + kExtra; ++i) {
    obs::TraceScope scope("test.drop_filler");
  }
  EXPECT_EQ(log.total_recorded() - total_before,
            obs::TraceLog::kCapacity + kExtra);
  // Overfilling the ring must evict at least the overflow — and every
  // eviction is visible, both through the accessor and as the registry
  // counter exposition scrapes (the silent-loss fix).
  const uint64_t dropped_delta = log.dropped() - dropped_before;
  EXPECT_GE(dropped_delta, kExtra);
  const uint64_t metric_delta =
      CounterValue(reg.SnapshotAll(), "obs.trace.dropped_spans") -
      metric_before;
  EXPECT_EQ(metric_delta, dropped_delta);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolStatsTest, SubmittedCompletedAndHighWater) {
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  // Drain: completed_ is bumped after each task body, so spinning on the
  // stats counter (not `ran`) also orders the assertions below.
  while (pool.stats().tasks_completed <
         static_cast<uint64_t>(kTasks)) {
    std::this_thread::yield();
  }
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(stats.tasks_submitted, static_cast<uint64_t>(kTasks));
  EXPECT_EQ(stats.tasks_submitted, stats.tasks_completed);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.queue_depth_high_water, 1u);
}

TEST(ThreadPoolStatsTest, RegistryMirrorsSubmissions) {
  SKIP_WITHOUT_METRICS();
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().SnapshotAll();
  uint64_t submitted = 0;
  {
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 32; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
    pool.ParallelFor(0, 8, 1, [](uint64_t, uint64_t) {});
    submitted = pool.stats().tasks_submitted;
  }  // join: every submitted task has completed
  const obs::MetricsSnapshot after =
      obs::MetricsRegistry::Global().SnapshotAll();
  const uint64_t d_sub = CounterValue(after, "pool.tasks_submitted") -
                         CounterValue(before, "pool.tasks_submitted");
  const uint64_t d_done = CounterValue(after, "pool.tasks_completed") -
                          CounterValue(before, "pool.tasks_completed");
  EXPECT_GE(d_sub, submitted);
  // Other tests' pools may overlap; this pool's work is ours at minimum,
  // and globally nothing can complete more than was submitted... but a
  // pool from a concurrent test could complete tasks submitted before our
  // first snapshot, so only assert our own contribution arrived.
  EXPECT_GE(d_done, submitted);
}

// ------------------------------------------- concurrency hammer (TSan run)

TEST(ObsConcurrencyTest, HammerCountersHistogramsWhileSnapshotting) {
  SKIP_WITHOUT_METRICS();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* counter = reg.GetCounter("test.hammer_counter");
  obs::Gauge* gauge = reg.GetGauge("test.hammer_gauge");
  obs::Histogram* hist = reg.GetHistogram("test.hammer_hist");
  const uint64_t c0 = counter->Value();
  const obs::HistogramSnapshot h0 = hist->Snapshot();

  constexpr int kThreads = 8;
  constexpr uint64_t kOpsPerThread = 20'000;
  std::atomic<bool> stop{false};

  // Reader: snapshots the whole registry (and the trace ring) while the
  // writers hammer — the interleaving TSan must prove race-free.
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snap = reg.SnapshotAll();
      const uint64_t now = CounterValue(snap, "test.hammer_counter");
      EXPECT_GE(now, last);  // monotone under concurrent increments
      last = now;
      (void)obs::TraceLog::Global().Snapshot();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        counter->Inc();
        gauge->Add(t % 2 == 0 ? 1 : -1);
        hist->Record(i & 0x3ff);
        if ((i & 0xfff) == 0) {
          obs::TraceScope scope("test.hammer_span");
          scope.Annotate("thread", t);
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Writers quiesced: relaxed counters read exact.
  EXPECT_EQ(counter->Value() - c0, kThreads * kOpsPerThread);
  const obs::HistogramSnapshot h1 = hist->Snapshot();
  EXPECT_EQ(h1.count - h0.count, kThreads * kOpsPerThread);
  EXPECT_EQ(gauge->Value(), 0);  // equal +1/-1 threads
}

// ----------------------------------------------------------------- parity

TEST(InstrumentationParityTest, RowsForgottenMatchesControllerStats) {
  SKIP_WITHOUT_METRICS();
  SimulationConfig config;
  config.seed = 99;
  config.dbsize = 500;
  config.upd_perc = 0.25;
  config.num_batches = 6;
  config.queries_per_batch = 10;
  config.policy.kind = PolicyKind::kFifo;
  config.backend = BackendKind::kDelete;

  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().SnapshotAll();
  auto sim = Simulator::Make(config);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  auto result = sim.value()->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const obs::MetricsSnapshot after =
      obs::MetricsRegistry::Global().SnapshotAll();

  // Every forget sweep bumps the struct and the registry by the same
  // count, so the run's registry delta must equal the per-instance stats.
  // (The suite runs single-process but not single-test-at-a-time in
  // general; gtest runs serially, so no other simulator contributes here.)
  const ControllerStats& stats = result->controller;
  EXPECT_EQ(CounterValue(after, "amnesia.rows_forgotten") -
                CounterValue(before, "amnesia.rows_forgotten"),
            stats.tuples_forgotten);
  EXPECT_EQ(CounterValue(after, "amnesia.compactions") -
                CounterValue(before, "amnesia.compactions"),
            stats.compactions);
  EXPECT_EQ(CounterValue(after, "amnesia.rows_compacted") -
                CounterValue(before, "amnesia.rows_compacted"),
            stats.rows_compacted);
  EXPECT_EQ(CounterValue(after, "amnesia.passes") -
                CounterValue(before, "amnesia.passes"),
            stats.rounds);
}

// ---------------------------------------------------------------- LogSink

TEST(LogSinkTest, CapturesWarningsInsteadOfStderr) {
  CapturingLogSink sink;
  {
    ScopedLogSink scoped(&sink);
    AMNESIA_LOG(kWarning) << "captured warning " << 42;
    AMNESIA_LOG(kInfo) << "captured info";
  }
  AMNESIA_LOG(kDebug) << "after restore (filtered anyway)";
  ASSERT_EQ(sink.entries().size(), 2u);
  EXPECT_EQ(sink.entries()[0].level, LogLevel::kWarning);
  EXPECT_TRUE(sink.Contains("captured warning 42"));
  EXPECT_TRUE(sink.Contains("captured info"));
  EXPECT_FALSE(sink.Contains("after restore"));
}

TEST(LogSinkTest, RetentionGcBackoffWarningIsCapturable) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_obs_gc_warn")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // An undecodable retained manifest makes the GC back off with a
  // warning — previously only scrape-able from stderr.
  {
    std::FILE* f = std::fopen((dir + "/MANIFEST-2").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a manifest", f);
    std::fclose(f);
  }
  CapturingLogSink sink;
  {
    ScopedLogSink scoped(&sink);
    const Status gc = CollectCheckpointGarbage(dir, /*retain=*/1);
    EXPECT_TRUE(gc.ok()) << gc.ToString();  // back-off is not an error
  }
  EXPECT_TRUE(sink.Contains("retention GC backing off"));
  // Backed off: the unreadable manifest must still be there.
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST-2"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace amnesia
