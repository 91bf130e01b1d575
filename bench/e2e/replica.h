// Copyright 2026 The AmnesiaDB Authors
//
// A replica of Simulator::Make/Initialize/StepBatch assembled from the
// layers' public functions, with a span around each call into a layer.
// Spans inside the engine are a separate change; until then this replica
// is how the benchmark attributes a batch's time to layers.
//
// The replica must follow src/sim/simulator.cc statement for statement:
// the benchmark compares its digest (per-batch BatchMetrics plus a CRC of
// the final table) against the untraced Simulator's for the same seed, so
// any drift fails the run. It supports the options the benchmark's
// workloads use and rejects the rest instead of approximating them.

#ifndef AMNESIA_BENCH_E2E_REPLICA_H_
#define AMNESIA_BENCH_E2E_REPLICA_H_

#include <memory>
#include <optional>

#include "amnesia/audit_ledger.h"
#include "amnesia/controller.h"
#include "amnesia/policy.h"
#include "common/rng.h"
#include "durability/checkpointer.h"
#include "durability/event_log.h"
#include "index/index_manager.h"
#include "obs/sla.h"
#include "query/executor.h"
#include "query/oracle.h"
#include "sim/config.h"
#include "sim/simulator.h"
#include "storage/cold_store.h"
#include "storage/summary_store.h"
#include "storage/table.h"
#include "tracer.h"
#include "workload/distribution.h"
#include "workload/query_gen.h"

namespace amnesia {
namespace e2e {

/// Forwards to the event log, folding each call's time into the open span.
class TimedEventSink : public EventSink {
 public:
  TimedEventSink(EventSink* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  Status Append(const Event& event) override;
  Status Flush() override;

 private:
  EventSink* inner_;
  Tracer* tracer_;
};

/// Forwards to the policy, with a span around victim selection.
class TimedPolicy : public AmnesiaPolicy {
 public:
  TimedPolicy(std::unique_ptr<AmnesiaPolicy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  PolicyKind kind() const override { return inner_->kind(); }
  StatusOr<std::vector<RowId>> SelectVictims(const Table& table, size_t k,
                                             Rng* rng) override;
  // Untimed: compaction belongs to amnesia.enforce_self.
  void OnCompaction(const RowMapping& mapping) override {
    inner_->OnCompaction(mapping);
  }

 private:
  std::unique_ptr<AmnesiaPolicy> inner_;
  Tracer* tracer_;
};

class Replica {
 public:
  /// Mirrors Simulator::Make. `tracer` must outlive the replica.
  static StatusOr<std::unique_ptr<Replica>> Make(
      const SimulationConfig& config, Tracer* tracer);

  Status Initialize();
  StatusOr<BatchMetrics> StepBatch();
  Status FlushCheckpoints();

  const Table& table() const { return table_; }
  const Executor& executor() const { return *executor_; }
  const AuditLedger* audit_ledger() const { return audit_ledger_.get(); }
  const obs::SlaTracker& sla() const { return sla_; }
  std::string event_log_path() const;

 private:
  Replica(const SimulationConfig& config, Tracer* tracer);

  Status Wire();
  StatusOr<QueryPrecision> RunOneRangeQuery();
  Status RunQueryBatch(BatchMetrics* metrics);
  Status FlushLog();
  Status LogAppendedRows(const std::vector<RowId>& rows, bool begin_batch);

  SimulationConfig config_;
  Tracer* tracer_;
  Rng rng_;
  Table table_;
  GroundTruthOracle oracle_;
  ColdStore cold_;
  SummaryStore summaries_;
  IndexManager indexes_;
  std::optional<ValueGenerator> values_;
  std::optional<RangeQueryGenerator> queries_;
  std::unique_ptr<TimedPolicy> policy_;
  std::optional<AmnesiaController> controller_;
  std::optional<Executor> executor_;
  // Declaration order mirrors Simulator: the log and ledger outlive the
  // checkpointer's writer thread, whose retention GC truncates both.
  std::unique_ptr<EventLogBase> log_;
  std::unique_ptr<TimedEventSink> timed_log_;
  std::unique_ptr<AuditLedger> audit_ledger_;
  obs::SlaTracker sla_;
  std::optional<BackgroundCheckpointer> checkpointer_;
  bool initialized_ = false;
  uint32_t rounds_run_ = 0;
};

}  // namespace e2e
}  // namespace amnesia

#endif  // AMNESIA_BENCH_E2E_REPLICA_H_
