// Copyright 2026 The AmnesiaDB Authors

#include "sim/simulator.h"

#include <utility>

#include "common/fs.h"
#include "common/logging.h"
#include "metrics/amnesia_map.h"
#include "query/scan.h"
#include "workload/update_gen.h"

namespace amnesia {

Simulator::Simulator(const SimulationConfig& config)
    : config_(config),
      rng_(config.seed),
      table_(Table::Make(Schema::SingleColumn("a", config.distribution.domain_lo,
                                              config.distribution.domain_hi))
                 .value()) {}

StatusOr<std::unique_ptr<Simulator>> Simulator::Make(
    const SimulationConfig& config) {
  AMNESIA_RETURN_NOT_OK(config.Validate());
  std::unique_ptr<Simulator> sim(new Simulator(config));
  AMNESIA_RETURN_NOT_OK(sim->Wire());
  return sim;
}

Status Simulator::Wire() {
  if (config_.storage_backend == StorageBackend::kMapped) {
    // A Simulator is a new database instance: stale partition files from a
    // previous run in this directory would alias the fresh run's
    // partitions (ticks restart at 0), so clear it before the first seal.
    AMNESIA_RETURN_NOT_OK(RemoveDirRecursive(config_.storage_dir));
    StorageOptions storage;
    storage.backend = StorageBackend::kMapped;
    storage.dir = config_.storage_dir;
    storage.partition_rows = config_.partition_rows;
    AMNESIA_ASSIGN_OR_RETURN(
        Table mapped,
        Table::Make(Schema::SingleColumn("a", config_.distribution.domain_lo,
                                         config_.distribution.domain_hi),
                    storage));
    table_ = std::move(mapped);
  }

  AMNESIA_ASSIGN_OR_RETURN(ValueGenerator vg,
                           ValueGenerator::Make(config_.distribution));
  values_.emplace(std::move(vg));

  AMNESIA_ASSIGN_OR_RETURN(RangeQueryGenerator qg,
                           RangeQueryGenerator::Make(config_.query));
  queries_.emplace(std::move(qg));

  AMNESIA_ASSIGN_OR_RETURN(policy_, CreatePolicy(config_.policy, &oracle_));

  ControllerOptions copts;
  copts.mode = BudgetMode::kFixedTupleCount;
  copts.dbsize_budget = config_.dbsize;
  copts.backend = config_.backend;
  copts.payload_col = config_.query.col;
  copts.compact_every_n_rounds = config_.compact_every_n_rounds;
  AMNESIA_ASSIGN_OR_RETURN(
      AmnesiaController ctrl,
      AmnesiaController::Make(copts, policy_.get(), &table_, &indexes_,
                              &cold_, &summaries_));
  controller_.emplace(std::move(ctrl));

  executor_.emplace(&table_, &indexes_);

  if (config_.checkpoint_every_n_batches > 0) {
    AMNESIA_RETURN_NOT_OK(EnsureDir(config_.checkpoint_dir));
    // A Simulator is a new database instance: stale manifests from a
    // previous run in this directory would pair with the fresh (truncated)
    // event log and corrupt recovery, so clear them before journaling —
    // including a journal the previous run wrote under the OTHER log
    // format, which opening this run's log would never touch.
    AMNESIA_RETURN_NOT_OK(ClearCheckpointArtifacts(config_.checkpoint_dir));
    AMNESIA_RETURN_NOT_OK(RemoveEventLog(EventLogPathFor(
        config_.checkpoint_dir, config_.log_format == LogFormat::kSegmented
                                    ? LogFormat::kSingleFile
                                    : LogFormat::kSegmented)));
    if (config_.log_format == LogFormat::kSegmented) {
      SegmentedLogOptions sopts;
      sopts.max_segment_bytes = config_.log_segment_bytes;
      sopts.sync = config_.log_sync;
      AMNESIA_ASSIGN_OR_RETURN(
          SegmentedEventLog log,
          SegmentedEventLog::Open(event_log_path(), sopts));
      log_ = std::make_unique<SegmentedEventLog>(std::move(log));
    } else {
      AMNESIA_ASSIGN_OR_RETURN(EventLog log,
                               EventLog::Open(event_log_path()));
      log.set_sync_policy(config_.log_sync);
      log_ = std::make_unique<EventLog>(std::move(log));
    }
    controller_->set_event_sink(log_.get(), /*shard_id=*/0);
    if (config_.audit_ledger) {
      // Fresh instance, fresh chain: like the manifests above, a stale
      // ledger from a previous run would splice onto this run's records.
      AuditLedgerOptions aopts;
      aopts.max_segment_bytes = config_.audit_segment_bytes;
      AMNESIA_ASSIGN_OR_RETURN(
          AuditLedger ledger,
          AuditLedger::Open(AuditDirFor(config_.checkpoint_dir), aopts));
      audit_ledger_ = std::make_unique<AuditLedger>(std::move(ledger));
      controller_->set_audit_ledger(audit_ledger_.get(), log_.get());
    }
    CheckpointerOptions copts2;
    copts2.dir = config_.checkpoint_dir;
    copts2.async = config_.checkpoint_async;
    copts2.retain = config_.checkpoint_retention;
    copts2.log_format = config_.log_format;
    // The GC truncates the log below the oldest retained manifest; log_
    // is declared before checkpointer_, so it outlives the writer thread.
    copts2.log = log_.get();
    if (audit_ledger_ && config_.audit_retention_records > 0) {
      // Ledger retention rides the same GC pass. The ledger truncates by
      // sequence number, not LSN (audit records are not journal events),
      // so the hook keeps the newest N records; AuditLedger is internally
      // locked, safe from the writer thread. audit_ledger_ is declared
      // before checkpointer_, so it too outlives the writer.
      AuditLedger* ledger = audit_ledger_.get();
      const uint64_t keep = config_.audit_retention_records;
      copts2.on_retention_gc = [ledger, keep](uint64_t /*oldest_lsn*/) {
        const uint64_t next = ledger->next_seq();
        if (next > keep) (void)ledger->TruncateBefore(next - keep);
      };
    }
    AMNESIA_ASSIGN_OR_RETURN(BackgroundCheckpointer ckpt,
                             BackgroundCheckpointer::Make(copts2));
    checkpointer_.emplace(std::move(ckpt));
  }

  if (config_.vacuum_max_age_batches > 0) {
    controller_->set_sla_tracker(&sla_);
  }

  if (config_.serve_port >= 0) {
    server::IntrospectionOptions sopts;
    sopts.port = static_cast<uint16_t>(config_.serve_port);
    // The probes run on the serving thread and capture `this`; the
    // simulator lives behind a unique_ptr and the server member is
    // declared last, so it stops before anything a probe touches dies.
    sopts.readiness_probes.push_back(
        {"initial_load", [this]() -> Status {
           return initialized_.load(std::memory_order_acquire)
                      ? Status::OK()
                      : Status::FailedPrecondition(
                            "initial load not complete");
         }});
    if (log_) {
      sopts.readiness_probes.push_back({"event_log", [this]() -> Status {
                                          std::lock_guard<std::mutex> lock(
                                              health_mu_);
                                          return last_flush_status_;
                                        }});
    }
    if (checkpointer_) {
      sopts.readiness_probes.push_back(
          {"checkpointer", [this]() -> Status {
             const BackgroundCheckpointer::Health h = checkpointer_->health();
             if (!h.last_write.ok()) return h.last_write;
             if (h.checkpoints == 0) {
               return Status::FailedPrecondition(
                   "no checkpoint durable yet");
             }
             // Lag (journaled events not yet covered by a durable
             // checkpoint) bounds replay-at-recovery work; with the
             // per-batch flush + every-N-batches checkpoint cadence it
             // should never exceed the events of N in-flight batches
             // plus one writer-queue slot.
             const uint64_t next = log_->next_lsn();
             const uint64_t lag =
                 next > h.last_durable_lsn ? next - h.last_durable_lsn : 0;
             const uint64_t per_batch =
                 2 * config_.BatchInsertCount() + 4;  // appends + forgets
             const uint64_t allowed =
                 per_batch * (config_.checkpoint_every_n_batches + 1) * 2;
             if (lag > allowed) {
               return Status::FailedPrecondition(
                   "checkpoint lag " + std::to_string(lag) +
                   " events exceeds " + std::to_string(allowed));
             }
             return Status::OK();
           }});
    }
    if (config_.vacuum_max_age_batches > 0) {
      sopts.readiness_probes.push_back(
          {"deletion_sla", [this]() -> Status {
             return sla_.CheckSla(config_.sla_max_lag_batches);
           }});
    }
    sopts.audit_ledger = audit_ledger_.get();
    sopts.sla = &sla_;
    server_ = std::make_unique<server::IntrospectionServer>();
    AMNESIA_RETURN_NOT_OK(server_->Start(std::move(sopts)));
  }
  return Status::OK();
}

Status Simulator::FlushLog() {
  if (!log_) return Status::OK();
  Status st = log_->Flush();
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    last_flush_status_ = st;
  }
  return st;
}

std::string Simulator::event_log_path() const {
  return config_.checkpoint_every_n_batches > 0
             ? EventLogPathFor(config_.checkpoint_dir, config_.log_format)
             : std::string();
}

Status Simulator::FlushCheckpoints() {
  AMNESIA_RETURN_NOT_OK(FlushLog());
  return checkpointer_ ? checkpointer_->WaitIdle() : Status::OK();
}

Status Simulator::LogAppendedRows(const std::vector<RowId>& rows,
                                  bool begin_batch) {
  if (!log_) return Status::OK();
  if (begin_batch) {
    Event begin;
    begin.kind = EventKind::kBeginBatch;
    AMNESIA_RETURN_NOT_OK(log_->Append(begin));
  }
  Event append;
  append.kind = EventKind::kAppendRows;
  append.columns.resize(table_.num_columns());
  for (auto& col : append.columns) col.reserve(rows.size());
  for (RowId r : rows) {
    for (size_t c = 0; c < table_.num_columns(); ++c) {
      append.columns[c].push_back(table_.value(c, r));
    }
  }
  return log_->Append(append);
}

Status Simulator::Initialize() {
  if (initialized_) {
    return Status::FailedPrecondition("simulator already initialized");
  }
  AMNESIA_ASSIGN_OR_RETURN(
      std::vector<RowId> rows,
      InitialLoad(&table_, &oracle_, &*values_,
                  static_cast<size_t>(config_.dbsize), &rng_));
  AMNESIA_RETURN_NOT_OK(LogAppendedRows(rows, /*begin_batch=*/false));
  // Group-commit barrier: the baseline checkpoint's covered LSN must be
  // durable before the manifest that claims it commits.
  AMNESIA_RETURN_NOT_OK(FlushLog());
  if (checkpointer_) {
    // A baseline checkpoint right after the initial load guarantees
    // recovery always has a manifest, whatever round the crash hits. The
    // tiers ride in the same manifest so one Recover() restores table,
    // cold store and summary store under one covered LSN.
    AMNESIA_RETURN_NOT_OK(checkpointer_->Checkpoint(
        table_, log_->next_lsn(), TierSet{&cold_, &summaries_}));
  }
  initialized_ = true;
  if (config_.metrics_report_every_n_batches > 0) {
    // Baseline after the initial load so the first report covers only the
    // measured rounds, not batch 0's bulk ingest.
    last_metrics_report_ = obs::MetricsRegistry::Global().SnapshotAll();
  }
  return Status::OK();
}

StatusOr<QueryPrecision> Simulator::RunOneRangeQuery() {
  AMNESIA_ASSIGN_OR_RETURN(RangePredicate pred,
                           queries_->Next(table_, oracle_, &rng_));
  ExecOptions opts;
  opts.plan = config_.plan;
  opts.visibility = Visibility::kActiveOnly;
  opts.record_access = config_.record_access;
  opts.parallelism = config_.parallelism;
  opts.engine = config_.engine;
  AMNESIA_ASSIGN_OR_RETURN(ResultSet result,
                           executor_->ExecuteRange(pred, opts));
  // The oracle is sealed after every batch: an O(log n) sorted count.
  AMNESIA_ASSIGN_OR_RETURN(uint64_t truth,
                           oracle_.CountRange(pred.lo, pred.hi));
  return MakeRangePrecision(result.size(), truth);
}

Status Simulator::RunQueryBatch(BatchMetrics* metrics) {
  PrecisionAccumulator ranges;
  for (uint32_t q = 0; q < config_.queries_per_batch; ++q) {
    AMNESIA_ASSIGN_OR_RETURN(QueryPrecision p, RunOneRangeQuery());
    ranges.Add(p);
  }
  if (config_.queries_per_batch > 0) {
    metrics->avg_rf = ranges.AvgRf();
    metrics->avg_mf = ranges.AvgMf();
    metrics->mean_pf = ranges.MeanPf();
    metrics->error_margin = ranges.ErrorMargin();
  }

  if (config_.aggregate_queries_per_batch > 0) {
    double precision_sum = 0.0;
    double rel_error_sum = 0.0;
    for (uint32_t q = 0; q < config_.aggregate_queries_per_batch; ++q) {
      RangePredicate pred = RangePredicate::All(config_.query.col);
      if (config_.aggregate_over_range) {
        AMNESIA_ASSIGN_OR_RETURN(pred, queries_->Next(table_, oracle_, &rng_));
      }
      ExecOptions opts;
      opts.plan = config_.plan;
      opts.visibility = Visibility::kActiveOnly;
      opts.record_access = config_.record_access;
      opts.parallelism = config_.parallelism;
      opts.engine = config_.engine;

      AggregateResult amnesic;
      if (config_.backend == BackendKind::kSummary) {
        AMNESIA_ASSIGN_OR_RETURN(
            amnesic,
            executor_->ExecuteAggregateWithSummary(pred, summaries_, opts));
      } else {
        AMNESIA_ASSIGN_OR_RETURN(amnesic,
                                 executor_->ExecuteAggregate(pred, opts));
      }
      AMNESIA_ASSIGN_OR_RETURN(AggregateResult truth,
                               oracle_.AggregateRange(pred.lo, pred.hi));
      precision_sum += AggregatePrecision(amnesic.avg, truth.avg);
      rel_error_sum += AggregateRelativeError(amnesic.avg, truth.avg);
    }
    const double n = static_cast<double>(config_.aggregate_queries_per_batch);
    metrics->aggregate_precision = precision_sum / n;
    metrics->aggregate_rel_error = rel_error_sum / n;
  }
  return Status::OK();
}

StatusOr<BatchMetrics> Simulator::StepBatch() {
  if (!initialized_) {
    return Status::FailedPrecondition("call Initialize() first");
  }
  BatchMetrics metrics;
  metrics.batch = ++rounds_run_;

  // 1. Ingest the update batch (the oracle remembers everything).
  AMNESIA_ASSIGN_OR_RETURN(
      std::vector<RowId> rows,
      ApplyUpdateBatch(&table_, &oracle_, &*values_,
                       static_cast<size_t>(config_.BatchInsertCount()),
                       &rng_));
  metrics.inserted = rows.size();
  AMNESIA_RETURN_NOT_OK(LogAppendedRows(rows, /*begin_batch=*/true));

  // 2. Amnesia restores the DBSIZE budget (the controller journals every
  //    forget outcome when durability is on), then mandatory vacuuming
  //    forgets everything past the retention deadline regardless of
  //    budget. Both are skipped while paused (the injected-lag test
  //    hook), but the SLA tracker still samples the growing forget lag so
  //    the gauges and the /readyz probe reflect the violation within one
  //    batch.
  if (!amnesia_paused_.load(std::memory_order_acquire)) {
    AMNESIA_RETURN_NOT_OK(controller_->EnforceBudget(&rng_));
    if (config_.vacuum_max_age_batches > 0) {
      AMNESIA_RETURN_NOT_OK(
          controller_->VacuumExpired(config_.vacuum_max_age_batches)
              .status());
    }
  } else if (config_.vacuum_max_age_batches > 0) {
    sla_.RecordSweep(std::string(PolicyKindToString(policy_->kind())),
                     controller_->ForgetLag(config_.vacuum_max_age_batches),
                     table_.current_batch());
  }
  metrics.active = table_.num_active();
  metrics.forgotten_total = table_.lifetime_forgotten();
  // Group-commit barrier at the batch boundary: a crash between batches
  // (the kill-and-recover contract) must find every completed batch on
  // disk, so recovery always replays to a batch-exact state. Within a
  // batch the policy batches flushes freely.
  AMNESIA_RETURN_NOT_OK(FlushLog());

  // 2b. Attestation cross-check: before /slaz may claim "no live row
  //     older than T batches", count the live rows with a real CountRange
  //     scan and walk the visibility bitmap for overdue survivors. The
  //     claim is recorded pass or fail — a paused controller records a
  //     failing attestation, it never silently skips one.
  if (config_.vacuum_max_age_batches > 0) {
    obs::SlaAttestation att;
    att.checked = true;
    att.batch = table_.current_batch();
    att.max_age_batches = config_.vacuum_max_age_batches;
    AMNESIA_ASSIGN_OR_RETURN(
        att.live_rows,
        CountRange(table_, RangePredicate::All(config_.query.col),
                   Visibility::kActiveOnly, config_.engine));
    const uint64_t current = table_.current_batch();
    const uint64_t n = table_.num_rows();
    uint64_t overdue = 0;
    for (RowId r = 0; r < n; ++r) {
      if (!table_.IsActive(r)) continue;
      if (current - table_.batch_of(r) > config_.vacuum_max_age_batches) {
        ++overdue;
      }
    }
    att.overdue_rows = overdue;
    att.passed = overdue == 0 && att.live_rows == table_.num_active();
    sla_.RecordAttestation(std::string(PolicyKindToString(policy_->kind())),
                           att);
  }

  // 3. The query batch measures precision against the ground truth (and
  //    feeds access counts to query-based policies).
  AMNESIA_RETURN_NOT_OK(RunQueryBatch(&metrics));

  // 4. Checkpoint cadence: capture the table and tiers covering the log
  //    so far; the background writer makes them durable off this thread.
  if (checkpointer_ &&
      rounds_run_ % config_.checkpoint_every_n_batches == 0) {
    AMNESIA_RETURN_NOT_OK(checkpointer_->Checkpoint(
        table_, log_->next_lsn(), TierSet{&cold_, &summaries_}));
  }

  // 5. Periodic observability report: one line of deltas against the
  //    registry snapshot taken at the previous report. The registry is
  //    process-wide, so concurrent simulators interleave their activity
  //    into the same deltas; the canonical per-run numbers stay in
  //    BatchMetrics / the stats structs.
  if (config_.metrics_report_every_n_batches > 0 &&
      rounds_run_ % config_.metrics_report_every_n_batches == 0) {
    obs::MetricsSnapshot now = obs::MetricsRegistry::Global().SnapshotAll();
    const std::string delta =
        obs::MetricsSnapshot::DeltaSummary(last_metrics_report_, now);
    AMNESIA_LOG(kInfo) << "metrics batch=" << rounds_run_ << " "
                       << (delta.empty() ? "(no change)" : delta);
    last_metrics_report_ = std::move(now);
    // New observation window: gauge high-water marks from here on are
    // this window's peaks, not the process-lifetime ones.
    obs::MetricsRegistry::Global().ResetAllHighWaters();
  }
  return metrics;
}

StatusOr<SimulationResult> Simulator::Run() {
  AMNESIA_RETURN_NOT_OK(Initialize());
  SimulationResult result;
  result.batches.reserve(config_.num_batches);
  for (uint32_t b = 0; b < config_.num_batches; ++b) {
    AMNESIA_ASSIGN_OR_RETURN(BatchMetrics m, StepBatch());
    result.batches.push_back(m);
  }
  result.batch_retention = ComputeBatchRetention(table_);
  result.timeline_retention = ComputeTimelineRetention(table_, 100);
  result.controller = controller_->stats();
  result.executor = executor_->stats();
  AMNESIA_RETURN_NOT_OK(FlushCheckpoints());
  return result;
}

}  // namespace amnesia
