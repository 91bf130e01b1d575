// Copyright 2026 The AmnesiaDB Authors
//
// amnesia_e2e: the measuring program of the end-to-end batch benchmark.
// One invocation runs one workload once, as a closed loop on one thread:
// set up, then StepBatch back to back, then (durable workloads) recover the
// run directory several times. It checks the outputs and prints one JSON
// line of metrics. bench/e2e/run.py builds it, repeats it and aggregates.
//
//   amnesia_e2e --workload NAME --dir RUN_DIR [--seed N] [--batches N]
//               [--scale F] [--trace [--trace-out PATH]]
//
// Untraced, it drives the public Simulator API and reports end-to-end
// metrics. With --trace it drives the replica in replica.h, which times
// each layer call, reports per-layer metrics and writes the spans as
// Chrome trace-event JSON. Both print the same digest for the same seed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "amnesia/audit_ledger.h"
#include "durability/checkpointer.h"
#include "io_counters.h"
#include "obs/metrics.h"
#include "replica.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"
#include "storage/checkpoint_io.h"
#include "tracer.h"

namespace amnesia {
namespace e2e {
namespace {

struct Options {
  std::string workload;
  std::string dir;
  uint64_t seed = 42;
  uint32_t batches = 100;
  double scale = 1.0;  ///< Multiplies dbsize; smoke runs use 0.1.
  bool trace = false;
  std::string trace_out;
};

// Set-ups per untraced invocation; setup_s is their median. One set-up of
// a benchmark workload takes under 5 ms, so many are cheap.
constexpr int kSetups = 30;
// Recover() calls per durable invocation; recover_ms is their median.
constexpr int kRecoveries = 5;

// The three workloads. Each sets only the options that define it;
// implementation choices (engine, parallelism, log_sync) stay at their
// SimulationConfig defaults so a change of default shows in the numbers.
// The sizes keep each workload's data within a few MiB, which memory
// contention on a shared host slows least (bench/e2e/README.md has the
// measurements); one repetition takes about 1.5 s on a 4-core machine.
StatusOr<SimulationConfig> WorkloadConfig(const Options& opt) {
  SimulationConfig c;
  c.seed = opt.seed;
  c.num_batches = opt.batches;
  const std::string ckpt_dir = opt.dir + "/ckpt";
  if (opt.workload == "privacy_vacuum") {
    // §5 privacy path: FIFO forgetting on mapped storage, every forgotten
    // row journaled and scrubbed, partitions dropped past the deadline and
    // every sweep attested in the audit ledger.
    c.dbsize = 6000;
    c.upd_perc = 0.3;
    c.policy.kind = PolicyKind::kFifo;
    c.backend = BackendKind::kDelete;
    c.storage_backend = StorageBackend::kMapped;
    c.storage_dir = opt.dir + "/storage";
    c.partition_rows = 1024;
    c.log_format = LogFormat::kSegmented;
    c.log_segment_bytes = 16u << 10;
    c.checkpoint_every_n_batches = 3;
    c.checkpoint_dir = ckpt_dir;
    c.checkpoint_retention = 2;
    c.audit_ledger = true;
    c.audit_segment_bytes = 4u << 10;
    c.vacuum_max_age_batches = 4;
    c.queries_per_batch = 20;
    c.record_access = false;
  } else if (opt.workload == "analytic_rot") {
    // Query-dominant loop with query feedback: forgotten rows stay in
    // storage, so scans pay for the whole history; no journal at all.
    c.dbsize = 8000;
    c.upd_perc = 0.05;
    c.policy.kind = PolicyKind::kRot;
    c.backend = BackendKind::kMarkOnly;
    c.queries_per_batch = 100;
    c.aggregate_queries_per_batch = 10;
    c.aggregate_over_range = true;
    c.record_access = true;
  } else if (opt.workload == "churn_durable") {
    // Write-heavy durability: the database turns over every batch, the
    // journal carries bulk ingest and scattered forgets on group commit,
    // and checkpoints plus retention GC run all the time.
    c.dbsize = 2500;
    c.upd_perc = 1.0;
    c.policy.kind = PolicyKind::kUniform;
    c.backend = BackendKind::kDelete;
    c.compact_every_n_rounds = 1;
    c.log_format = LogFormat::kSegmented;
    c.checkpoint_every_n_batches = 3;
    c.checkpoint_dir = ckpt_dir;
    c.checkpoint_retention = 2;
    c.queries_per_batch = 10;
    c.record_access = false;
  } else if (opt.workload == "roadmap_reference") {
    // Not a benchmark workload: ROADMAP's reference point, the settings of
    // `crash_recovery_demo run DIR --batches 20 --dbsize 200000
    // --log-format segmented --storage mapped --audit 1 --vacuum-age 4`
    // (run it with --seed 20260731 --batches 20), re-measured under this
    // benchmark's metric names.
    c.dbsize = 200000;
    c.upd_perc = 0.3;
    c.policy.kind = PolicyKind::kFifo;
    c.backend = BackendKind::kDelete;
    c.storage_backend = StorageBackend::kMapped;
    c.storage_dir = opt.dir + "/storage";
    c.partition_rows = 1024;
    c.log_format = LogFormat::kSegmented;
    c.log_segment_bytes = 16u << 10;
    c.checkpoint_every_n_batches = 2;
    c.checkpoint_dir = ckpt_dir;
    c.audit_ledger = true;
    c.audit_segment_bytes = 4u << 10;
    c.vacuum_max_age_batches = 4;
    c.queries_per_batch = 50;
    c.record_access = false;
  } else {
    return Status::InvalidArgument("unknown workload '" + opt.workload +
                                   "' (privacy_vacuum, analytic_rot, "
                                   "churn_durable)");
  }
  c.dbsize = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(opt.scale *
                                            static_cast<double>(c.dbsize))));
  return c;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile: with n = 100 and q = 0.9, ten samples lie
// above the value returned.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

// Mean of the last k values over the mean of the first k.
double Growth(const std::vector<double>& v) {
  const size_t k = std::min<size_t>(10, v.size() / 2);
  if (k == 0) return 0.0;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < k; ++i) {
    first += v[i];
    last += v[v.size() - 1 - i];
  }
  return first > 0.0 ? last / first : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

// Metrics, operation counts and failures of one invocation.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  // Counts one attempted operation; records it as failed unless `ok`.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (errors_.size() < 10) errors_.push_back(what);
    }
    return ok;
  }

  bool CheckStatus(const Status& st, const std::string& what) {
    return Check(st.ok(), st.ok() ? what : what + ": " + st.ToString());
  }

  uint64_t failed() const { return failed_; }

  void Print(const Options& opt, const std::string& digest) const {
    std::printf("{\"workload\":\"%s\",\"mode\":\"%s\",\"seed\":%llu,"
                "\"batches\":%u,\"digest\":\"%s\",\"attempted\":%llu,"
                "\"failed\":%llu,\"errors\":[",
                opt.workload.c_str(), opt.trace ? "traced" : "untraced",
                static_cast<unsigned long long>(opt.seed), opt.batches,
                digest.c_str(), static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < errors_.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ",",
                  JsonEscape(errors_[i]).c_str());
    }
    std::printf("],\"metrics\":{");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// CRC of every batch's BatchMetrics, then CRC of the final table's
// checkpoint blob.
std::string Digest(const std::vector<BatchMetrics>& batches,
                   const std::vector<uint8_t>& table_blob) {
  uint32_t crc = 0;
  for (const BatchMetrics& m : batches) {
    const uint64_t words[] = {m.batch,
                              m.inserted,
                              m.forgotten_total,
                              m.active,
                              DoubleBits(m.avg_rf),
                              DoubleBits(m.avg_mf),
                              DoubleBits(m.mean_pf),
                              DoubleBits(m.error_margin),
                              DoubleBits(m.aggregate_precision),
                              DoubleBits(m.aggregate_rel_error)};
    crc = ckpt::Crc32(reinterpret_cast<const uint8_t*>(words), sizeof(words),
                      crc);
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08x-%08x", crc, ckpt::Crc32(table_blob));
  return buf;
}

bool AttestationPassed(const obs::SlaTracker& sla, const std::string& policy,
                       uint64_t batch) {
  for (const obs::SlaPolicySnapshot& s : sla.Snapshot()) {
    if (s.policy == policy) {
      return s.attestation.checked && s.attestation.passed &&
             s.attestation.batch == batch;
    }
  }
  return false;
}

struct LoopResult {
  std::vector<BatchMetrics> batches;
  std::vector<double> wall_ms;
  uint64_t inserted = 0;
  double flush_s = 0.0;  ///< The final FlushCheckpoints.
};

// Runs the measured batches on a Simulator or a Replica, checking each.
template <typename Sim>
LoopResult RunBatches(Sim* sim, const SimulationConfig& cfg,
                      Tracer* tracer, Report* report) {
  LoopResult out;
  const std::string policy(PolicyKindToString(cfg.policy.kind));
  for (uint32_t b = 1; b <= cfg.num_batches; ++b) {
    const std::string at = " at batch " + std::to_string(b);
    if (tracer != nullptr) tracer->set_batch(b);
    const int64_t start = NowNs();
    StatusOr<BatchMetrics> m = [&] {
      if (tracer == nullptr) return sim->StepBatch();
      Tracer::Scope span(tracer, "sim.batch");
      return sim->StepBatch();
    }();
    out.wall_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    if (!report->CheckStatus(m.status(), "StepBatch" + at)) break;
    out.inserted += m->inserted;
    out.batches.push_back(*m);
    report->Check(m->active == cfg.dbsize, "active != dbsize" + at);
    if (cfg.vacuum_max_age_batches > 0) {
      report->Check(
          AttestationPassed(sim->sla(), policy, sim->table().current_batch()),
          "SLA attestation not cross-checked and passed" + at);
    }
  }
  if (tracer != nullptr) tracer->set_batch(0);
  const int64_t start = NowNs();
  report->CheckStatus(sim->FlushCheckpoints(), "FlushCheckpoints");
  out.flush_s = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

// Ledger checks of a run with the audit ledger on: the chain verifies and
// its records attest exactly the rows the table forgot.
void CheckAudit(const SimulationConfig& cfg, const Table& table,
                Report* report) {
  const std::string dir = AuditDirFor(cfg.checkpoint_dir);
  auto chain = VerifyAuditChain(dir);
  report->Check(chain.ok() && chain->ok,
                "audit chain does not verify: " +
                    (chain.ok() ? chain->detail : chain.status().ToString()));
  auto records = ReadAuditRecords(dir);
  uint64_t marked = 0;
  if (records.ok()) {
    for (const AuditRecord& r : *records) marked += r.rows_marked;
  }
  report->Check(records.ok() && marked == table.lifetime_forgotten(),
                "ledger attests " + std::to_string(marked) +
                    " forgotten rows, table forgot " +
                    std::to_string(table.lifetime_forgotten()));
}

uint64_t BytesUnder(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uint64_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

struct Recoveries {
  std::vector<double> ms;
  uint64_t events_replayed = 0;
};

// Recovers the run directory kRecoveries times after the live instance is
// gone; each recovered table must be bit-identical to `live_blob`.
Recoveries RecoverRepeatedly(const SimulationConfig& cfg,
                             const std::string& log_path,
                             const std::vector<uint8_t>& live_blob,
                             Tracer* tracer, Report* report) {
  Recoveries out;
  for (int i = 0; i < kRecoveries; ++i) {
    const int64_t start = NowNs();
    StatusOr<RecoveredState> state = [&] {
      if (tracer == nullptr) return Recover(cfg.checkpoint_dir, log_path);
      Tracer::Scope span(tracer, "durability.recover");
      return Recover(cfg.checkpoint_dir, log_path);
    }();
    out.ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    if (!report->CheckStatus(state.status(), "Recover")) continue;
    out.events_replayed = state->events_replayed;
    report->Check(state->shards.size() == 1 &&
                      CheckpointTable(state->shards[0]) == live_blob,
                  "recovered table differs from the live table");
  }
  return out;
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// End-to-end metrics, through the public Simulator API.
std::string RunUntraced(const Options& opt, const SimulationConfig& cfg,
                        Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Simulator> sim;
  for (int i = 0; i < kSetups; ++i) {
    sim.reset();  // the next Make clears the directories this one uses
    const int64_t start = NowNs();
    auto made = Simulator::Make(cfg);
    if (!report->CheckStatus(made.status(), "Simulator::Make")) return "";
    if (!report->CheckStatus(made.value()->Initialize(), "Initialize")) {
      return "";
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    sim = std::move(made).value();
  }

  ProcIo io0;
  report->Check(ReadProcIo(&io0), "/proc/self/io unreadable");
  LoopResult loop = RunBatches(sim.get(), cfg, nullptr, report);
  ProcIo io1;
  ReadProcIo(&io1);

  double batch_s = loop.flush_s;
  for (double ms : loop.wall_ms) batch_s += ms / 1e3;
  const double inserted = static_cast<double>(loop.inserted);
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("batch_ms.p50", Median(loop.wall_ms), "ms");
  report->Metric("batch_ms.p90", Percentile(loop.wall_ms, 0.9), "ms");
  report->Metric("rows_per_s", Ratio(inserted, batch_s), "rows/s");
  report->Metric(
      "write_bytes_per_ingested_row",
      Ratio(static_cast<double>(io1.write_bytes - io0.write_bytes), inserted),
      "B/row");

  const std::vector<uint8_t> live_blob = CheckpointTable(sim->table());
  const std::string digest = Digest(loop.batches, live_blob);
  if (cfg.checkpoint_every_n_batches > 0) {
    if (cfg.audit_ledger) CheckAudit(cfg, sim->table(), report);
    report->Metric("disk_bytes_per_live_row",
                   Ratio(static_cast<double>(BytesUnder(opt.dir)),
                         static_cast<double>(sim->table().num_active())),
                   "B/row");
    const std::string log_path = sim->event_log_path();
    sim.reset();
    Recoveries rec =
        RecoverRepeatedly(cfg, log_path, live_blob, nullptr, report);
    report->Metric("recover_ms", Median(rec.ms), "ms");
  } else {
    report->Metric("disk_bytes_per_live_row", 0.0, "B/row");
    report->Metric("recover_ms", 0.0, "ms");
  }
  report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  return digest;
}

// Registry counter/histogram changes across the measured batches.
struct RegistryDelta {
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;

  double CounterDelta(const std::string& name) const {
    auto b = before.counters.find(name);
    auto a = after.counters.find(name);
    const uint64_t vb = b == before.counters.end() ? 0 : b->second;
    const uint64_t va = a == after.counters.end() ? 0 : a->second;
    return static_cast<double>(va - vb);
  }
  // Mean of the histogram's samples recorded in between (0 if none).
  double HistogramMean(const std::string& name) const {
    auto b = before.histograms.find(name);
    auto a = after.histograms.find(name);
    if (a == after.histograms.end()) return 0.0;
    uint64_t count = a->second.count;
    uint64_t sum = a->second.sum;
    if (b != before.histograms.end()) {
      count -= b->second.count;
      sum -= b->second.sum;
    }
    return Ratio(static_cast<double>(sum), static_cast<double>(count));
  }
};

// Per-batch totals of each span name, and the individual span lengths.
struct SpanTable {
  std::map<std::string, std::vector<double>> per_batch_ms;
  std::map<std::string, std::vector<double>> per_batch_self_ms;
  std::vector<double> log_append_ms;  ///< Folded controller appends.
  std::vector<double> log_flush_ms;   ///< Folded controller flushes.
  std::map<std::string, std::vector<double>> each_ms;

  SpanTable(const Tracer& tracer, uint32_t batches)
      : log_append_ms(batches), log_flush_ms(batches) {
    const std::vector<int64_t> self = tracer.SelfTimesNs();
    for (size_t i = 0; i < tracer.spans().size(); ++i) {
      const Span& s = tracer.spans()[i];
      const double ms = static_cast<double>(s.duration_ns()) / 1e6;
      each_ms[s.name].push_back(ms);
      if (s.batch == 0 || s.batch > batches) continue;
      const size_t b = s.batch - 1;
      Slot(&per_batch_ms, s.name, batches)[b] += ms;
      Slot(&per_batch_self_ms, s.name, batches)[b] +=
          static_cast<double>(self[i]) / 1e6;
      log_append_ms[b] += static_cast<double>(s.calls_ns[0]) / 1e6;
      log_flush_ms[b] += static_cast<double>(s.calls_ns[1]) / 1e6;
    }
  }

  double MedianPerBatch(const std::string& name) const {
    auto it = per_batch_ms.find(name);
    return it == per_batch_ms.end() ? 0.0 : Median(it->second);
  }
  double MedianSelf(const std::string& name) const {
    auto it = per_batch_self_ms.find(name);
    return it == per_batch_self_ms.end() ? 0.0 : Median(it->second);
  }
  double GrowthOf(const std::string& name) const {
    auto it = per_batch_ms.find(name);
    return it == per_batch_ms.end() ? 0.0 : Growth(it->second);
  }
  std::vector<double> Each(const std::string& name) const {
    auto it = each_ms.find(name);
    return it == each_ms.end() ? std::vector<double>() : it->second;
  }

 private:
  static std::vector<double>& Slot(
      std::map<std::string, std::vector<double>>* m, const std::string& name,
      uint32_t batches) {
    auto& v = (*m)[name];
    if (v.empty()) v.resize(batches);
    return v;
  }
};

// Per-layer metrics, through the traced replica.
std::string RunTraced(const Options& opt, const SimulationConfig& cfg,
                      Report* report) {
  Tracer tracer;
  std::unique_ptr<Replica> replica;
  {
    Tracer::Scope span(&tracer, "sim.setup");
    auto made = Replica::Make(cfg, &tracer);
    if (!report->CheckStatus(made.status(), "Replica::Make")) return "";
    replica = std::move(made).value();
    if (!report->CheckStatus(replica->Initialize(), "Initialize")) return "";
  }

  RegistryDelta registry;
  registry.before = obs::MetricsRegistry::Global().SnapshotAll();
  const ExecutorStats exec0 = replica->executor().stats();
  const AuditLedger* ledger = replica->audit_ledger();
  const uint64_t seq0 = ledger != nullptr ? ledger->next_seq() : 0;
  ProcIo io0;
  report->Check(ReadProcIo(&io0), "/proc/self/io unreadable");
  const DeviceFlushes flush0 = ReadDeviceFlushes();

  LoopResult loop = RunBatches(replica.get(), cfg, &tracer, report);

  registry.after = obs::MetricsRegistry::Global().SnapshotAll();
  const ExecutorStats exec1 = replica->executor().stats();
  const uint64_t seq1 = ledger != nullptr ? ledger->next_seq() : 0;
  ProcIo io1;
  ReadProcIo(&io1);
  const DeviceFlushes flush1 = ReadDeviceFlushes();

  const std::vector<uint8_t> live_blob = CheckpointTable(replica->table());
  const std::string digest = Digest(loop.batches, live_blob);
  Recoveries rec;
  if (cfg.checkpoint_every_n_batches > 0) {
    if (cfg.audit_ledger) CheckAudit(cfg, replica->table(), report);
    const std::string log_path = replica->event_log_path();
    replica.reset();
    rec = RecoverRepeatedly(cfg, log_path, live_blob, &tracer, report);
  }

  const std::string trace_path =
      opt.trace_out.empty() ? "trace_" + opt.workload + ".json" : opt.trace_out;
  report->CheckStatus(tracer.WriteChromeJson(trace_path),
                      "writing " + trace_path);

  const uint32_t n = static_cast<uint32_t>(loop.batches.size());
  const double batches = static_cast<double>(n);
  const SpanTable spans(tracer, n);
  const double forgotten = registry.CounterDelta("amnesia.rows_forgotten");
  // Every Flush: the controller's folded ones plus the batch barrier.
  std::vector<double> flush_ms = spans.log_flush_ms;
  auto barrier = spans.per_batch_ms.find("durability.log_flush");
  if (barrier != spans.per_batch_ms.end()) {
    for (uint32_t b = 0; b < n; ++b) flush_ms[b] += barrier->second[b];
  }
  std::vector<double> range_us = spans.Each("query.range");
  for (double& v : range_us) v *= 1e3;

  report->Metric("batch_ms.p50", Median(loop.wall_ms), "ms");
  report->Metric("workload.ingest.ms", spans.MedianPerBatch("workload.ingest"),
                 "ms");
  report->Metric("workload.ingest.growth", spans.GrowthOf("workload.ingest"),
                 "ratio");
  report->Metric("workload.query_gen.ms",
                 spans.MedianPerBatch("workload.query_gen"), "ms");
  report->Metric("query.range.ms", spans.MedianPerBatch("query.range"), "ms");
  report->Metric("query.range_us.p50", Median(range_us), "us");
  report->Metric("query.range_us.p99", Percentile(range_us, 0.99), "us");
  report->Metric("query.aggregate.ms",
                 spans.MedianPerBatch("query.aggregate"), "ms");
  report->Metric("query.oracle.ms", spans.MedianPerBatch("query.oracle"),
                 "ms");
  report->Metric(
      "query.rows_scanned_per_row_returned",
      Ratio(registry.CounterDelta("scan.rows_scanned"),
            static_cast<double>(exec1.rows_returned - exec0.rows_returned)),
      "ratio");
  const double skipped = registry.CounterDelta("scan.morsels_skipped");
  report->Metric(
      "query.morsel_skip_ratio",
      Ratio(skipped, skipped + registry.CounterDelta("scan.morsels_scanned")),
      "ratio");
  report->Metric("amnesia.select.ms", spans.MedianPerBatch("amnesia.select"),
                 "ms");
  report->Metric("amnesia.enforce_self.ms", spans.MedianSelf("amnesia.enforce"),
                 "ms");
  report->Metric("amnesia.vacuum_self.ms", spans.MedianSelf("amnesia.vacuum"),
                 "ms");
  report->Metric("amnesia.audit_records_per_batch",
                 Ratio(static_cast<double>(seq1 - seq0), batches), "count");
  report->Metric("durability.log_append_ingest.ms",
                 spans.MedianPerBatch("durability.log_append_ingest"), "ms");
  report->Metric("durability.log_append_forget.ms",
                 Median(spans.log_append_ms), "ms");
  report->Metric("durability.log_flush.ms", Median(flush_ms), "ms");
  report->Metric("durability.log_appends_per_forgotten_row",
                 Ratio(registry.CounterDelta("log.appends"), forgotten),
                 "ratio");
  report->Metric("durability.log_flushes_per_forgotten_row",
                 Ratio(registry.CounterDelta("log.fsyncs"), forgotten),
                 "ratio");
  report->Metric("durability.ckpt_stall.ms",
                 Median(spans.Each("durability.checkpoint")), "ms");
  report->Metric("durability.ckpt_write.ms",
                 registry.HistogramMean("checkpoint.write_ns") / 1e6, "ms");
  report->Metric("durability.ckpt_gc.ms",
                 registry.HistogramMean("checkpoint.gc_ns") / 1e6, "ms");
  report->Metric(
      "durability.ckpt_bytes_per_ingested_row",
      Ratio(registry.CounterDelta("checkpoint.bytes_written"),
            static_cast<double>(loop.inserted)),
      "B/row");
  report->Metric("durability.recover.ms", Median(rec.ms), "ms");
  report->Metric("durability.recover_events",
                 static_cast<double>(rec.events_replayed), "count");
  report->Metric(
      "storage.partitions_dropped_per_batch",
      Ratio(registry.CounterDelta("storage.partitions_dropped"), batches),
      "count");
  report->Metric("sim.attest.ms", spans.MedianPerBatch("sim.attest"), "ms");
  report->Metric("sim.attest.growth", spans.GrowthOf("sim.attest"), "ratio");
  report->Metric("sim.other.ms", spans.MedianSelf("sim.batch"), "ms");
  report->Metric("io.fsyncs_per_batch",
                 Ratio(static_cast<double>(flush1.calls - flush0.calls),
                       batches),
                 "count");
  report->Metric(
      "io.fsync.ms",
      Ratio(static_cast<double>(flush1.ns - flush0.ns) / 1e6, batches), "ms");
  report->Metric("io.write_syscalls_per_forgotten_row",
                 Ratio(static_cast<double>(io1.syscw - io0.syscw), forgotten),
                 "ratio");
  report->Metric(
      "io.write_bytes_per_batch",
      Ratio(static_cast<double>(io1.write_bytes - io0.write_bytes), batches),
      "B");
  // Share of the traced batch wall time the named spans account for.
  double other_ms = 0.0;
  double batch_ms = 0.0;
  auto other = spans.per_batch_self_ms.find("sim.batch");
  auto total = spans.per_batch_ms.find("sim.batch");
  if (other != spans.per_batch_self_ms.end()) {
    for (double v : other->second) other_ms += v;
    for (double v : total->second) batch_ms += v;
  }
  report->Metric("trace.span_coverage_pct",
                 100.0 * (1.0 - Ratio(other_ms, batch_ms)), "%");
  return digest;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (arg != name || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--trace") {
      opt->trace = true;
    } else if (const char* v = value("--workload")) {
      opt->workload = v;
    } else if (const char* v = value("--dir")) {
      opt->dir = v;
    } else if (const char* v = value("--seed")) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--batches")) {
      opt->batches = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value("--scale")) {
      opt->scale = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace-out")) {
      opt->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  if (opt->workload.empty() || opt->dir.empty() || opt->batches == 0 ||
      !(opt->scale > 0.0)) {
    std::fprintf(stderr,
                 "usage: amnesia_e2e --workload NAME --dir RUN_DIR "
                 "[--seed N] [--batches N>0] [--scale F>0] "
                 "[--trace [--trace-out PATH]]\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;
  auto cfg = WorkloadConfig(opt);
  if (!cfg.ok()) {
    std::fprintf(stderr, "%s\n", cfg.status().ToString().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create '%s': %s\n", opt.dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  Report report;
  const std::string digest = opt.trace ? RunTraced(opt, *cfg, &report)
                                       : RunUntraced(opt, *cfg, &report);
  report.Print(opt, digest);
  return report.failed() == 0 && !digest.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace amnesia

int main(int argc, char** argv) { return amnesia::e2e::Main(argc, argv); }
