// Copyright 2026 The AmnesiaDB Authors
//
// Process-wide metrics: sharded lock-free counters, gauges with high-water
// tracking, and log2-bucketed latency histograms, all reachable by name
// through a global MetricsRegistry. Hot paths cache the pointer returned by
// the registry (see obs/engine_metrics.h) and then pay only a relaxed
// atomic increment per event; the registry mutex is touched exclusively at
// registration and snapshot time.
//
// Exposition comes in three flavors:
//   - MetricsRegistry::SnapshotAll()  -> typed MetricsSnapshot values
//   - MetricsRegistry::DumpJson()     -> JSON text (future HTTP /metrics)
//   - MetricsSnapshot::DeltaSummary() -> one-line diff for periodic logs
//
// Defining AMNESIA_NO_METRICS compiles the entire layer down to no-ops:
// every class keeps its API (call sites do not change) but carries no
// storage and performs no atomic operations, which is how the BENCH_OBS
// A/B overhead comparison gets its baseline build.

#ifndef AMNESIA_OBS_METRICS_H_
#define AMNESIA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace amnesia {
namespace obs {

#if !defined(AMNESIA_NO_METRICS)

namespace internal {

/// Stable small integer for the calling thread, used to spread counter
/// increments across cache-line-sized shards. Assigned once per thread from
/// a global ticket so threads created together land on different shards.
inline size_t ThreadShardTicket() {
  static std::atomic<size_t> next{0};
  thread_local const size_t ticket =
      next.fetch_add(1, std::memory_order_relaxed);
  return ticket;
}

}  // namespace internal

/// \brief Monotonic event counter, sharded to avoid cache-line contention.
///
/// Inc() is a single relaxed fetch_add on a thread-local shard; Value()
/// sums all shards and is only approximately ordered against concurrent
/// increments (exact once writers quiesce), which is all a metric needs.
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Inc(uint64_t n = 1) {
    shards_[internal::ThreadShardTicket() & (kShards - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kShards];
};

/// \brief Point-in-time value (queue depth, bytes resident) with a
/// monotonic high-water mark maintained across Set/Add.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    UpdateHighWater(v);
  }

  void Add(int64_t delta) {
    const int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateHighWater(now);
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  int64_t HighWater() const {
    return high_water_.load(std::memory_order_relaxed);
  }

  /// Rebases the high-water mark to the current value, starting a new
  /// observation window: delta reports (DeltaSummary, bench MetricsDelta)
  /// call this at window edges so HighWater() is the per-window peak
  /// instead of the process-lifetime one. Racy against concurrent Set/Add
  /// only in the benign direction (a peak landing exactly at the reset
  /// may survive into the new window; none is ever invented).
  void ResetHighWater() {
    high_water_.store(value_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }

 private:
  void UpdateHighWater(int64_t candidate) {
    int64_t seen = high_water_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !high_water_.compare_exchange_weak(seen, candidate,
                                              std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> high_water_{0};
};

#else  // AMNESIA_NO_METRICS

class Counter {
 public:
  static constexpr size_t kShards = 1;
  void Inc(uint64_t = 1) {}
  uint64_t Value() const { return 0; }
};

class Gauge {
 public:
  void Set(int64_t) {}
  void Add(int64_t) {}
  int64_t Value() const { return 0; }
  int64_t HighWater() const { return 0; }
  void ResetHighWater() {}
};

#endif  // AMNESIA_NO_METRICS

/// \brief Immutable copy of a histogram's buckets, mergeable and queryable.
///
/// Bucket 0 counts zero-valued samples; bucket b >= 1 counts samples in
/// [2^(b-1), 2^b), with the last bucket absorbing everything above. A
/// quantile is reported as its bucket's midpoint, so the relative error is
/// bounded by the bucket width (a factor of 1.5 at worst); count and sum
/// are exact.
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 64;

  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kBuckets> buckets{};

  /// Inclusive lower bound of bucket `b` (0, 1, 2, 4, 8, ...).
  static uint64_t BucketFloor(size_t b) {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }

  /// The representative value reported for samples in bucket `b`: the
  /// bucket midpoint (0 for the zero bucket).
  static double BucketMid(size_t b) {
    if (b == 0) return 0.0;
    const double lo = static_cast<double>(uint64_t{1} << (b - 1));
    return lo * 1.5;
  }

  /// Adds another snapshot's samples into this one.
  void Merge(const HistogramSnapshot& other);

  /// Value at quantile `q` in [0, 1]: the midpoint of the bucket holding
  /// the ceil(q * count)-th smallest sample (0 if empty).
  double Quantile(double q) const;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

#if !defined(AMNESIA_NO_METRICS)

/// \brief Fixed-bucket log2 latency histogram with relaxed atomic buckets.
///
/// Record() is two relaxed fetch_adds plus a bit-scan — cheap enough for
/// per-operation (not per-row) call sites. Snapshot() is a relaxed read of
/// each bucket; like Counter::Value it is exact once writers quiesce.
class Histogram {
 public:
  static constexpr size_t kBuckets = HistogramSnapshot::kBuckets;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// Bucket for `value`: 0 for zero, else its bit width (clamped).
  static size_t BucketIndex(uint64_t value) {
    if (value == 0) return 0;
    const size_t width = 64 - static_cast<size_t>(__builtin_clzll(value));
    return width < kBuckets ? width : kBuckets - 1;
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

#else  // AMNESIA_NO_METRICS

class Histogram {
 public:
  static constexpr size_t kBuckets = HistogramSnapshot::kBuckets;
  void Record(uint64_t) {}
  HistogramSnapshot Snapshot() const { return {}; }
  static size_t BucketIndex(uint64_t value) {
    if (value == 0) return 0;
    const size_t width = 64 - static_cast<size_t>(__builtin_clzll(value));
    return width < kBuckets ? width : kBuckets - 1;
  }
};

#endif  // AMNESIA_NO_METRICS

/// \brief Gauge value pair captured by SnapshotAll().
struct GaugeValue {
  int64_t value = 0;
  int64_t high_water = 0;
};

/// \brief Typed point-in-time copy of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// JSON text exposition of this snapshot (deterministic key order).
  std::string ToJson() const;

  /// Compact one-line summary of what changed between two snapshots:
  /// "scan.rows_scanned +52000 amnesia.pass_ns n+3 p50=16ms ...".
  /// Metrics with no change are omitted; empty string if nothing moved.
  static std::string DeltaSummary(const MetricsSnapshot& before,
                                  const MetricsSnapshot& after);
};

/// \brief Process-wide name -> metric directory.
///
/// Get* registers on first use and returns a pointer that stays valid for
/// the life of the process; hot paths call Get* once and cache the result.
/// Names are dotted lowercase ("subsystem.event"), listed in README.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Copies every registered metric under one lock acquisition, so values
  /// read from the result are mutually consistent to within the in-flight
  /// relaxed increments (no torn multi-metric reads from separate calls).
  MetricsSnapshot SnapshotAll() const;

  /// SnapshotAll() rendered as JSON.
  std::string DumpJson() const;

  /// Rebases every gauge's high-water mark to its current value — the
  /// registry-wide window edge for per-window peak reporting (see
  /// Gauge::ResetHighWater).
  void ResetAllHighWaters();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  // std::map: sorted iteration gives deterministic JSON; unique_ptr keeps
  // metric addresses stable across rehash-free inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// \brief Appends `s` to `out` as a JSON string literal, escaping quotes,
/// backslashes and every control character. The one escaper behind every
/// JSON exposition: the registry dump and the introspection server.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace obs
}  // namespace amnesia

#endif  // AMNESIA_OBS_METRICS_H_
