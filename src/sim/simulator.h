// Copyright 2026 The AmnesiaDB Authors
//
// The Data Amnesia Simulator (§2): a query-dominant loop where each round
// ingests an update batch, applies the amnesia policy to restore the
// DBSIZE budget, fires a batch of range/aggregate queries against the
// incomplete database, and measures the information loss against the
// ground-truth oracle.

#ifndef AMNESIA_SIM_SIMULATOR_H_
#define AMNESIA_SIM_SIMULATOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "amnesia/audit_ledger.h"
#include "amnesia/controller.h"
#include "amnesia/policy.h"
#include "common/rng.h"
#include "common/status.h"
#include "durability/checkpointer.h"
#include "durability/event_log.h"
#include "durability/log_segments.h"
#include "index/index_manager.h"
#include "metrics/precision.h"
#include "obs/metrics.h"
#include "obs/sla.h"
#include "query/executor.h"
#include "query/oracle.h"
#include "server/introspect.h"
#include "sim/config.h"
#include "storage/cold_store.h"
#include "storage/summary_store.h"
#include "storage/table.h"
#include "workload/distribution.h"
#include "workload/query_gen.h"

namespace amnesia {

/// \brief Measurements of one simulation round.
struct BatchMetrics {
  uint32_t batch = 0;            ///< Round index, 1-based like the figures.
  uint64_t inserted = 0;         ///< Tuples ingested this round.
  uint64_t forgotten_total = 0;  ///< Lifetime forgotten after this round.
  uint64_t active = 0;           ///< Active tuples after amnesia.

  // Range-query precision (§2.3), averaged over the query batch.
  double avg_rf = 0.0;
  double avg_mf = 0.0;
  double mean_pf = 1.0;
  double error_margin = 1.0;

  // Aggregate (AVG) precision (§4.3).
  double aggregate_precision = 1.0;  ///< Mean ratio precision in [0, 1].
  double aggregate_rel_error = 0.0;  ///< Mean relative error.
};

/// \brief Complete result of a simulation run.
struct SimulationResult {
  std::vector<BatchMetrics> batches;       ///< One entry per round, 1..N.
  std::vector<double> batch_retention;     ///< Figure-1/2 map, per batch.
  std::vector<double> timeline_retention;  ///< Fine map over ticks.
  ControllerStats controller;
  ExecutorStats executor;
};

/// \brief Owns the table, oracle, tiers, policy, controller and executor
/// for one configured run.
class Simulator {
 public:
  /// Validates the config and wires all components.
  static StatusOr<std::unique_ptr<Simulator>> Make(
      const SimulationConfig& config);

  /// Loads the initial DBSIZE tuples (batch 0). Must be called once.
  Status Initialize();

  /// Runs one round: ingest -> amnesia -> query batch -> metrics.
  StatusOr<BatchMetrics> StepBatch();

  /// Initialize() + num_batches StepBatch() calls + final maps.
  StatusOr<SimulationResult> Run();

  /// \name Component access for examples, tests and benches.
  /// @{
  const SimulationConfig& config() const { return config_; }
  const Table& table() const { return table_; }
  Table& mutable_table() { return table_; }
  const GroundTruthOracle& oracle() const { return oracle_; }
  const ColdStore& cold_store() const { return cold_; }
  const SummaryStore& summary_store() const { return summaries_; }
  const IndexManager& index_manager() const { return indexes_; }
  const AmnesiaController& controller() const { return *controller_; }
  const Executor& executor() const { return *executor_; }
  AmnesiaPolicy& policy() { return *policy_; }
  Rng& rng() { return rng_; }
  /// Durability components (null / empty unless checkpointing is on).
  const BackgroundCheckpointer* checkpointer() const {
    return checkpointer_ ? &*checkpointer_ : nullptr;
  }
  const EventLogBase* event_log() const { return log_.get(); }
  /// The forgetting audit ledger (null unless config.audit_ledger).
  const AuditLedger* audit_ledger() const { return audit_ledger_.get(); }
  /// The per-policy deletion-SLA tracker (always present; only fed while
  /// config.vacuum_max_age_batches > 0).
  const obs::SlaTracker& sla() const { return sla_; }
  /// Returns the event-log path derived from `config.checkpoint_dir` ("")
  /// when durability is off) — what Recover() takes as `log_path`: a file
  /// for LogFormat::kSingleFile, a segment directory for kSegmented.
  std::string event_log_path() const;
  /// The live introspection server (null unless config.serve_port >= 0).
  const server::IntrospectionServer* introspection_server() const {
    return server_.get();
  }
  /// The bound introspection port (the ephemeral pick when
  /// config.serve_port was 0), or -1 when not serving.
  int introspection_port() const {
    return server_ ? static_cast<int>(server_->port()) : -1;
  }
  /// @}

  /// Flushes any in-flight background checkpoint (no-op when durability
  /// is off or the writer is idle). Run() calls this before returning so
  /// a completed simulation is always fully durable.
  Status FlushCheckpoints();

  /// Test hook: while true, StepBatch ingests and queries but skips the
  /// amnesia passes (budget + vacuum) entirely — expired rows accumulate,
  /// so forget lag grows batch over batch. The SLA tracker still samples
  /// the (worsening) lag each batch, so /readyz's "deletion_sla" probe
  /// flips to 503 once the lag exceeds config.sla_max_lag_batches, and
  /// recovers after resuming. Used by the injected-lag tests.
  void set_amnesia_paused(bool paused) {
    amnesia_paused_.store(paused, std::memory_order_release);
  }

 private:
  explicit Simulator(const SimulationConfig& config);

  Status Wire();
  StatusOr<QueryPrecision> RunOneRangeQuery();
  Status RunQueryBatch(BatchMetrics* metrics);
  /// log_->Flush() plus health bookkeeping for the /readyz probe.
  Status FlushLog();
  /// Journals the rows ApplyUpdateBatch / InitialLoad just appended.
  Status LogAppendedRows(const std::vector<RowId>& rows, bool begin_batch);

  SimulationConfig config_;
  Rng rng_;
  Table table_;
  GroundTruthOracle oracle_;
  ColdStore cold_;
  SummaryStore summaries_;
  IndexManager indexes_;
  std::optional<ValueGenerator> values_;
  std::optional<RangeQueryGenerator> queries_;
  std::unique_ptr<AmnesiaPolicy> policy_;
  std::optional<AmnesiaController> controller_;
  std::optional<Executor> executor_;
  /// Either format behind the shared interface; declared before
  /// checkpointer_ so it outlives the writer thread's retention GC.
  std::unique_ptr<EventLogBase> log_;
  /// Hash-chained forgetting audit ledger (config.audit_ledger); declared
  /// before checkpointer_ for the same reason — the retention-GC hook on
  /// the writer thread truncates it.
  std::unique_ptr<AuditLedger> audit_ledger_;
  /// Deletion-SLA tracker; fed by the controller's vacuum sweeps and by
  /// StepBatch's per-batch lag sample, read by /slaz and the
  /// "deletion_sla" readiness probe.
  obs::SlaTracker sla_;
  std::optional<BackgroundCheckpointer> checkpointer_;
  /// Live introspection endpoint; its readiness probes read this
  /// simulator from the serving thread, so it is declared after (and so
  /// destroyed/stopped before) everything the probes touch.
  std::unique_ptr<server::IntrospectionServer> server_;
  /// Outcome of the most recent event-log Flush(), read by the /readyz
  /// event-log probe from the serving thread.
  mutable std::mutex health_mu_;
  Status last_flush_status_;
  /// atomic: the /readyz "initialized" probe reads it off-thread.
  std::atomic<bool> initialized_{false};
  /// Test hook (set_amnesia_paused): skip the amnesia passes in StepBatch.
  std::atomic<bool> amnesia_paused_{false};
  uint32_t rounds_run_ = 0;
  /// Baseline for the periodic metrics delta report
  /// (config.metrics_report_every_n_batches); rebased after every report.
  obs::MetricsSnapshot last_metrics_report_;
};

}  // namespace amnesia

#endif  // AMNESIA_SIM_SIMULATOR_H_
