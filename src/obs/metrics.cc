// Copyright 2026 The AmnesiaDB Authors

#include "obs/metrics.h"

#include <cstdio>
#include <utility>

namespace amnesia {
namespace obs {

namespace {

void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

/// Humanizes a quantile for the one-line delta summary: nanosecond-named
/// histograms read better in milliseconds.
std::string FormatQuantile(const std::string& name, double v) {
  char buf[64];
  const bool is_ns = name.size() >= 3 &&
                     name.compare(name.size() - 3, 3, "_ns") == 0;
  if (is_ns) {
    std::snprintf(buf, sizeof(buf), "%.3gms", v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

}  // namespace

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  for (size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the sample the quantile falls on, 1-based: ceil(q * count),
  // clamped to at least 1 so Quantile(0) is the smallest sample's bucket.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) return BucketMid(b);
  }
  return BucketMid(kBuckets - 1);
}

#if !defined(AMNESIA_NO_METRICS)
HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t n = buckets_[b].load(std::memory_order_relaxed);
    snap.buckets[b] = n;
    snap.count += n;
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}
#endif

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    out.append(std::to_string(value));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, gv] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.append(":{\"value\":");
    out.append(std::to_string(gv.value));
    out.append(",\"high_water\":");
    out.append(std::to_string(gv.high_water));
    out.push_back('}');
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.append(":{\"count\":");
    out.append(std::to_string(h.count));
    out.append(",\"sum\":");
    out.append(std::to_string(h.sum));
    out.append(",\"mean\":");
    AppendDouble(h.Mean(), &out);
    out.append(",\"p50\":");
    AppendDouble(h.Quantile(0.50), &out);
    out.append(",\"p95\":");
    AppendDouble(h.Quantile(0.95), &out);
    out.append(",\"p99\":");
    AppendDouble(h.Quantile(0.99), &out);
    // Sparse [bucket_floor, count] pairs keep 64 mostly-empty buckets out
    // of the exposition.
    out.append(",\"buckets\":[");
    bool first_bucket = true;
    for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      out.push_back('[');
      out.append(std::to_string(HistogramSnapshot::BucketFloor(b)));
      out.push_back(',');
      out.append(std::to_string(h.buckets[b]));
      out.push_back(']');
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

std::string MetricsSnapshot::DeltaSummary(const MetricsSnapshot& before,
                                          const MetricsSnapshot& after) {
  std::string out;
  const auto append_sep = [&out] {
    if (!out.empty()) out.push_back(' ');
  };
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const uint64_t prev = it == before.counters.end() ? 0 : it->second;
    if (value == prev) continue;
    append_sep();
    out.append(name);
    out.push_back('+');
    out.append(std::to_string(value - prev));
  }
  for (const auto& [name, gv] : after.gauges) {
    const auto it = before.gauges.find(name);
    const GaugeValue prev = it == before.gauges.end() ? GaugeValue{}
                                                     : it->second;
    if (gv.value == prev.value && gv.high_water == prev.high_water) continue;
    append_sep();
    out.append(name);
    out.push_back('=');
    out.append(std::to_string(gv.value));
    out.append("(hw ");
    out.append(std::to_string(gv.high_water));
    out.push_back(')');
  }
  for (const auto& [name, h] : after.histograms) {
    const auto it = before.histograms.find(name);
    const uint64_t prev = it == before.histograms.end() ? 0
                                                        : it->second.count;
    if (h.count == prev) continue;
    // Quantiles are over the cumulative distribution, not the delta
    // window; the count delta tells the reader how much is new.
    append_sep();
    out.append(name);
    out.append(" n+");
    out.append(std::to_string(h.count - prev));
    out.append(" p50=");
    out.append(FormatQuantile(name, h.Quantile(0.50)));
    out.append(" p99=");
    out.append(FormatQuantile(name, h.Quantile(0.99)));
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::SnapshotAll() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, GaugeValue{gauge->Value(), gauge->HighWater()});
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace(name, histogram->Snapshot());
  }
  return snap;
}

std::string MetricsRegistry::DumpJson() const {
  return SnapshotAll().ToJson();
}

void MetricsRegistry::ResetAllHighWaters() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, gauge] : gauges_) gauge->ResetHighWater();
}

}  // namespace obs
}  // namespace amnesia
