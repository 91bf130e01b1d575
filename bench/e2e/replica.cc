// Copyright 2026 The AmnesiaDB Authors

#include "replica.h"

#include <utility>

#include "durability/log_segments.h"
#include "query/scan.h"
#include "storage/mapped_file.h"
#include "workload/update_gen.h"

namespace amnesia {
namespace e2e {

Status TimedEventSink::Append(const Event& event) {
  const int64_t start = NowNs();
  Status st = inner_->Append(event);
  tracer_->AddCall(FoldedCall::kLogAppend, NowNs() - start);
  return st;
}

Status TimedEventSink::Flush() {
  const int64_t start = NowNs();
  Status st = inner_->Flush();
  tracer_->AddCall(FoldedCall::kLogFlush, NowNs() - start);
  return st;
}

StatusOr<std::vector<RowId>> TimedPolicy::SelectVictims(const Table& table,
                                                        size_t k, Rng* rng) {
  Tracer::Scope span(tracer_, "amnesia.select");
  return inner_->SelectVictims(table, k, rng);
}

Replica::Replica(const SimulationConfig& config, Tracer* tracer)
    : config_(config),
      tracer_(tracer),
      rng_(config.seed),
      table_(Table::Make(Schema::SingleColumn(
                             "a", config.distribution.domain_lo,
                             config.distribution.domain_hi))
                 .value()) {}

StatusOr<std::unique_ptr<Replica>> Replica::Make(const SimulationConfig& config,
                                                 Tracer* tracer) {
  AMNESIA_RETURN_NOT_OK(config.Validate());
  // Simulator features the benchmark's workloads leave off; mirroring them
  // would add code no run exercises.
  if (config.serve_port >= 0 || config.metrics_report_every_n_batches > 0) {
    return Status::InvalidArgument(
        "the traced replica does not mirror the introspection server or "
        "periodic metrics reports");
  }
  std::unique_ptr<Replica> replica(new Replica(config, tracer));
  AMNESIA_RETURN_NOT_OK(replica->Wire());
  return replica;
}

Status Replica::Wire() {
  if (config_.storage_backend == StorageBackend::kMapped) {
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

  AMNESIA_ASSIGN_OR_RETURN(std::unique_ptr<AmnesiaPolicy> policy,
                           CreatePolicy(config_.policy, &oracle_));
  policy_ = std::make_unique<TimedPolicy>(std::move(policy), tracer_);

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
      AMNESIA_ASSIGN_OR_RETURN(EventLog log, EventLog::Open(event_log_path()));
      log.set_sync_policy(config_.log_sync);
      log_ = std::make_unique<EventLog>(std::move(log));
    }
    timed_log_ = std::make_unique<TimedEventSink>(log_.get(), tracer_);
    controller_->set_event_sink(timed_log_.get(), /*shard_id=*/0);
    if (config_.audit_ledger) {
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
    copts2.log = log_.get();
    if (audit_ledger_ && config_.audit_retention_records > 0) {
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
  return Status::OK();
}

Status Replica::FlushLog() { return log_ ? log_->Flush() : Status::OK(); }

std::string Replica::event_log_path() const {
  return config_.checkpoint_every_n_batches > 0
             ? EventLogPathFor(config_.checkpoint_dir, config_.log_format)
             : std::string();
}

Status Replica::FlushCheckpoints() {
  AMNESIA_RETURN_NOT_OK(FlushLog());
  return checkpointer_ ? checkpointer_->WaitIdle() : Status::OK();
}

Status Replica::LogAppendedRows(const std::vector<RowId>& rows,
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

Status Replica::Initialize() {
  if (initialized_) {
    return Status::FailedPrecondition("replica already initialized");
  }
  AMNESIA_ASSIGN_OR_RETURN(
      std::vector<RowId> rows,
      InitialLoad(&table_, &oracle_, &*values_,
                  static_cast<size_t>(config_.dbsize), &rng_));
  AMNESIA_RETURN_NOT_OK(LogAppendedRows(rows, /*begin_batch=*/false));
  AMNESIA_RETURN_NOT_OK(FlushLog());
  if (checkpointer_) {
    AMNESIA_RETURN_NOT_OK(checkpointer_->Checkpoint(
        table_, log_->next_lsn(), TierSet{&cold_, &summaries_}));
  }
  initialized_ = true;
  return Status::OK();
}

StatusOr<QueryPrecision> Replica::RunOneRangeQuery() {
  RangePredicate pred;
  {
    Tracer::Scope span(tracer_, "workload.query_gen");
    AMNESIA_ASSIGN_OR_RETURN(pred, queries_->Next(table_, oracle_, &rng_));
  }
  ExecOptions opts;
  opts.plan = config_.plan;
  opts.visibility = Visibility::kActiveOnly;
  opts.record_access = config_.record_access;
  opts.parallelism = config_.parallelism;
  opts.engine = config_.engine;
  ResultSet result;
  {
    Tracer::Scope span(tracer_, "query.range");
    AMNESIA_ASSIGN_OR_RETURN(result, executor_->ExecuteRange(pred, opts));
  }
  uint64_t truth = 0;
  {
    Tracer::Scope span(tracer_, "query.oracle");
    AMNESIA_ASSIGN_OR_RETURN(truth, oracle_.CountRange(pred.lo, pred.hi));
  }
  return MakeRangePrecision(result.size(), truth);
}

Status Replica::RunQueryBatch(BatchMetrics* metrics) {
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
        Tracer::Scope span(tracer_, "workload.query_gen");
        AMNESIA_ASSIGN_OR_RETURN(pred, queries_->Next(table_, oracle_, &rng_));
      }
      ExecOptions opts;
      opts.plan = config_.plan;
      opts.visibility = Visibility::kActiveOnly;
      opts.record_access = config_.record_access;
      opts.parallelism = config_.parallelism;
      opts.engine = config_.engine;

      AggregateResult amnesic;
      {
        Tracer::Scope span(tracer_, "query.aggregate");
        if (config_.backend == BackendKind::kSummary) {
          AMNESIA_ASSIGN_OR_RETURN(
              amnesic,
              executor_->ExecuteAggregateWithSummary(pred, summaries_, opts));
        } else {
          AMNESIA_ASSIGN_OR_RETURN(amnesic,
                                   executor_->ExecuteAggregate(pred, opts));
        }
      }
      AggregateResult truth;
      {
        Tracer::Scope span(tracer_, "query.oracle");
        AMNESIA_ASSIGN_OR_RETURN(truth,
                                 oracle_.AggregateRange(pred.lo, pred.hi));
      }
      precision_sum += AggregatePrecision(amnesic.avg, truth.avg);
      rel_error_sum += AggregateRelativeError(amnesic.avg, truth.avg);
    }
    const double n = static_cast<double>(config_.aggregate_queries_per_batch);
    metrics->aggregate_precision = precision_sum / n;
    metrics->aggregate_rel_error = rel_error_sum / n;
  }
  return Status::OK();
}

StatusOr<BatchMetrics> Replica::StepBatch() {
  if (!initialized_) {
    return Status::FailedPrecondition("call Initialize() first");
  }
  BatchMetrics metrics;
  metrics.batch = ++rounds_run_;

  std::vector<RowId> rows;
  {
    Tracer::Scope span(tracer_, "workload.ingest");
    AMNESIA_ASSIGN_OR_RETURN(
        rows, ApplyUpdateBatch(&table_, &oracle_, &*values_,
                               static_cast<size_t>(config_.BatchInsertCount()),
                               &rng_));
  }
  metrics.inserted = rows.size();
  {
    Tracer::Scope span(tracer_, "durability.log_append_ingest");
    AMNESIA_RETURN_NOT_OK(LogAppendedRows(rows, /*begin_batch=*/true));
  }

  {
    Tracer::Scope span(tracer_, "amnesia.enforce");
    AMNESIA_RETURN_NOT_OK(controller_->EnforceBudget(&rng_));
  }
  if (config_.vacuum_max_age_batches > 0) {
    Tracer::Scope span(tracer_, "amnesia.vacuum");
    AMNESIA_RETURN_NOT_OK(
        controller_->VacuumExpired(config_.vacuum_max_age_batches).status());
  }
  metrics.active = table_.num_active();
  metrics.forgotten_total = table_.lifetime_forgotten();
  {
    Tracer::Scope span(tracer_, "durability.log_flush");
    AMNESIA_RETURN_NOT_OK(FlushLog());
  }

  if (config_.vacuum_max_age_batches > 0) {
    Tracer::Scope span(tracer_, "sim.attest");
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

  AMNESIA_RETURN_NOT_OK(RunQueryBatch(&metrics));

  if (checkpointer_ &&
      rounds_run_ % config_.checkpoint_every_n_batches == 0) {
    Tracer::Scope span(tracer_, "durability.checkpoint");
    AMNESIA_RETURN_NOT_OK(checkpointer_->Checkpoint(
        table_, log_->next_lsn(), TierSet{&cold_, &summaries_}));
  }
  return metrics;
}

}  // namespace e2e
}  // namespace amnesia
