// Copyright 2026 The AmnesiaDB Authors

#include "amnesia/controller.h"

#include <algorithm>
#include <cmath>

#include "obs/engine_metrics.h"
#include "obs/trace.h"

namespace amnesia {

std::string_view BackendKindToString(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMarkOnly:
      return "mark-only";
    case BackendKind::kDelete:
      return "delete";
    case BackendKind::kColdStorage:
      return "cold-storage";
    case BackendKind::kSummary:
      return "summary";
    case BackendKind::kIndexSkip:
      return "index-skip";
  }
  return "unknown";
}

StatusOr<AmnesiaController> AmnesiaController::Make(
    const ControllerOptions& options, AmnesiaPolicy* policy, Table* table,
    IndexManager* indexes, ColdStore* cold, SummaryStore* summaries) {
  if (policy == nullptr || table == nullptr) {
    return Status::InvalidArgument("controller needs a policy and a table");
  }
  if (options.payload_col >= table->num_columns()) {
    return Status::InvalidArgument("payload_col out of range");
  }
  if (options.backend == BackendKind::kColdStorage && cold == nullptr) {
    return Status::InvalidArgument("cold-storage backend needs a ColdStore");
  }
  if (options.backend == BackendKind::kSummary && summaries == nullptr) {
    return Status::InvalidArgument("summary backend needs a SummaryStore");
  }
  if (options.backend == BackendKind::kIndexSkip && indexes == nullptr) {
    return Status::InvalidArgument("index-skip backend needs an IndexManager");
  }
  if (options.mode == BudgetMode::kByteHighWater &&
      (options.byte_low_water_fraction <= 0.0 ||
       options.byte_low_water_fraction > 1.0)) {
    return Status::InvalidArgument(
        "byte_low_water_fraction must be in (0, 1]");
  }
  return AmnesiaController(options, policy, table, indexes, cold, summaries);
}

uint64_t AmnesiaController::Overflow() const {
  switch (options_.mode) {
    case BudgetMode::kFixedTupleCount: {
      const uint64_t active = table_->num_active();
      return active > options_.dbsize_budget
                 ? active - options_.dbsize_budget
                 : 0;
    }
    case BudgetMode::kByteHighWater: {
      const size_t bytes = table_->ApproxBytes();
      if (bytes <= options_.byte_high_water) return 0;
      const double target = options_.byte_low_water_fraction *
                            static_cast<double>(options_.byte_high_water);
      const uint64_t rows = std::max<uint64_t>(1, table_->num_rows());
      const double bytes_per_row =
          static_cast<double>(bytes) / static_cast<double>(rows);
      const double excess = static_cast<double>(bytes) - target;
      const uint64_t tuples =
          static_cast<uint64_t>(std::ceil(excess / bytes_per_row));
      return std::min<uint64_t>(tuples, table_->num_active());
    }
  }
  return 0;
}

Status AmnesiaController::ApplyForget(RowId row) {
  // Capture metadata before the state flips.
  const Value value = table_->value(options_.payload_col, row);
  const BatchId batch = table_->batch_of(row);
  const Tick tick = table_->insert_tick(row);

  switch (options_.backend) {
    case BackendKind::kMarkOnly:
    case BackendKind::kDelete:
      AMNESIA_RETURN_NOT_OK(table_->Forget(row));
      break;
    case BackendKind::kColdStorage:
      cold_->Put(ColdTuple{row, value, tick, batch});
      AMNESIA_RETURN_NOT_OK(table_->Forget(row));
      ++stats_.cold_evictions;
      break;
    case BackendKind::kSummary:
      summaries_->AddForgotten(options_.payload_col, batch, value);
      AMNESIA_RETURN_NOT_OK(table_->Forget(row));
      ++stats_.summary_folds;
      break;
    case BackendKind::kIndexSkip: {
      AMNESIA_RETURN_NOT_OK(table_->Forget(row));
      AMNESIA_RETURN_NOT_OK(
          indexes_->ApplyForget(*table_, options_.payload_col, value, row));
      ++stats_.index_erases;
      break;
    }
  }
  ++audit_.rows_marked;
  audit_.tick_lo = std::min<uint64_t>(audit_.tick_lo, tick);
  audit_.tick_hi = std::max<uint64_t>(audit_.tick_hi, tick);
  ++stats_.tuples_forgotten;
  return Status::OK();
}

Status AmnesiaController::JournalForgetRows(const std::vector<RowId>& rows,
                                            size_t count) {
  Event event;
  event.kind = EventKind::kForgetRows;
  event.shard = event_shard_;
  event.backend = static_cast<uint8_t>(options_.backend);
  event.payload_col = static_cast<uint32_t>(options_.payload_col);
  for (size_t i = 0; i < count; ++i) {
    const RowId row = rows[i];
    if (!event.runs.empty() && event.runs.back().hi == row) {
      ++event.runs.back().hi;
      continue;
    }
    if (event.runs.size() == kMaxForgetRunsPerRecord) {
      AMNESIA_RETURN_NOT_OK(event_sink_->Append(event));
      event.runs.clear();
    }
    event.runs.push_back(RowRun{row, row + 1});
  }
  if (event.runs.empty()) return Status::OK();
  return event_sink_->Append(event);
}

Status AmnesiaController::ForgetRows(const std::vector<RowId>& rows) {
  if (rows.empty()) return Status::OK();
  // Phase 1: apply every victim in memory, in victim order. A failure
  // stops here, but the rows applied before it still go through phases 2
  // and 3, so the journal never trails the table.
  Status applied_status = Status::OK();
  size_t applied = 0;
  RowId lowest = kInvalidRow;
  for (; applied < rows.size(); ++applied) {
    applied_status = ApplyForget(rows[applied]);
    if (!applied_status.ok()) break;
    lowest = std::min(lowest, rows[applied]);
  }
  obs::EngineMetrics::Get().amnesia_rows_forgotten->Inc(applied);

  // Phase 2: journal the sweep as kForgetRows records.
  if (event_sink_ != nullptr) {
    AMNESIA_RETURN_NOT_OK(JournalForgetRows(rows, applied));
  }

  // Phase 3: scrub. Scrubbing a sealed row of a mapped table overwrites
  // mmap'd file bytes, which survive a crash on their own, so the journal
  // must be durable first (write-ahead): one flush covers the sweep.
  // Without it a crash could recover a row whose payload is zeroed but
  // whose metadata says it was never forgotten.
  if (options_.backend == BackendKind::kDelete) {
    if (event_sink_ != nullptr && table_->mapped() &&
        lowest < table_->sealed_rows()) {
      AMNESIA_RETURN_NOT_OK(event_sink_->Flush());
    }
    for (size_t i = 0; i < applied; ++i) {
      AMNESIA_RETURN_NOT_OK(table_->ScrubRow(rows[i]));
    }
    obs::EngineMetrics::Get().amnesia_rows_scrubbed->Inc(applied);
    audit_.rows_scrubbed += applied;
  }
  return applied_status;
}

Status AmnesiaController::RunCompaction() {
  const RowMapping mapping = table_->CompactForgotten();
  policy_->OnCompaction(mapping);
  ++stats_.compactions;
  stats_.rows_compacted += mapping.removed;
  obs::EngineMetrics::Get().amnesia_compactions->Inc();
  obs::EngineMetrics::Get().amnesia_rows_compacted->Inc(mapping.removed);
  if (event_sink_ != nullptr) {
    Event event;
    event.kind = EventKind::kCompact;
    event.shard = event_shard_;
    AMNESIA_RETURN_NOT_OK(event_sink_->Append(event));
  }
  return Status::OK();
}

uint64_t AmnesiaController::ForgetLag(uint32_t max_age_batches) const {
  const RowId oldest = table_->NthActiveRow(0);
  if (oldest == kInvalidRow) return 0;
  const BatchId current = table_->current_batch();
  const uint64_t age = current - table_->batch_of(oldest);
  return age > max_age_batches ? age - max_age_batches : 0;
}

Status AmnesiaController::FinishSweepAudit(AuditOp op) {
  if (audit_ledger_ == nullptr ||
      (audit_.rows_marked == 0 && audit_.partitions_dropped == 0)) {
    return Status::OK();
  }
  // Journal first, attest second: a crash between the two leaves the
  // sweep replayable but unattested — recovery's totals can exceed the
  // ledger's, never trail them.
  if (event_sink_ != nullptr) {
    AMNESIA_RETURN_NOT_OK(event_sink_->Flush());
  }
  AuditRecord record;
  record.op = op;
  record.policy = std::string(PolicyKindToString(policy_->kind()));
  record.backend = static_cast<uint8_t>(options_.backend);
  record.shard = event_shard_;
  record.rows_marked = audit_.rows_marked;
  record.rows_scrubbed = audit_.rows_scrubbed;
  record.partitions_dropped = audit_.partitions_dropped;
  record.tick_lo = audit_.tick_lo == UINT64_MAX ? 0 : audit_.tick_lo;
  record.tick_hi = audit_.tick_hi;
  record.batch = table_->current_batch();
  record.lsn = lsn_source_ != nullptr ? lsn_source_->next_lsn() : 0;
  record.lifetime_forgotten = table_->lifetime_forgotten();
  return audit_ledger_->Append(&record);
}

StatusOr<uint64_t> AmnesiaController::VacuumExpired(uint32_t max_age_batches) {
  const BatchId current = table_->current_batch();
  uint64_t vacuumed = 0;
  audit_ = SweepAudit{};

  // Partition fast path (mapped storage): batches are monotonic in row
  // order, so a sealed partition whose NEWEST row expired contains only
  // expired rows and drops whole — one directory rename instead of a
  // per-row sweep, O(1) in the partition's size (the checkpoint writer
  // fsyncs the storage directory before a manifest reflects the drop).
  // Only backends that do not preserve the payload qualify (cold/summary/
  // index backends must still visit every tuple). The drop is physical
  // even under kMarkOnly: mandatory vacuuming is the paper's privacy
  // path, where the bytes must actually go away.
  if (table_->mapped() && (options_.backend == BackendKind::kMarkOnly ||
                           options_.backend == BackendKind::kDelete)) {
    const uint64_t pr = table_->partition_rows();
    const auto& partitions = table_->partitions();
    for (size_t idx = 0; idx < partitions.size(); ++idx) {
      if (partitions[idx].dropped) continue;
      const RowId newest = static_cast<RowId>((idx + 1) * pr - 1);
      const BatchId b = table_->batch_of(newest);
      if (b + max_age_batches >= current) break;  // later ones are younger
      // Audit metadata must be read before the drop scrubs it away; the
      // tick range brackets the whole partition (ticks are monotonic in
      // row order).
      const uint64_t tick_lo = table_->insert_tick(
          static_cast<RowId>(idx * pr));
      const uint64_t tick_hi = table_->insert_tick(newest);
      // Rename first, then journal: a crash in between loses the event
      // but keeps the bytes (under the `.dropped` name), so recovery
      // restores the partition intact and the next vacuum re-drops it.
      // The unlink is deferred to checkpoint retention GC while older
      // manifests may still need the bytes for fallback recovery.
      AMNESIA_ASSIGN_OR_RETURN(
          const uint64_t newly,
          table_->DropPartition(idx, /*defer_unlink=*/event_sink_ != nullptr));
      if (event_sink_ != nullptr) {
        Event event;
        event.kind = EventKind::kDropPartition;
        event.shard = event_shard_;
        event.row = static_cast<RowId>(idx);
        event.value = static_cast<Value>(pr);
        AMNESIA_RETURN_NOT_OK(event_sink_->Append(event));
      }
      vacuumed += newly;
      stats_.tuples_forgotten += newly;
      ++stats_.partitions_dropped;
      obs::EngineMetrics::Get().amnesia_rows_forgotten->Inc(newly);
      audit_.rows_marked += newly;
      audit_.rows_scrubbed += newly;  // the drop physically removes bytes
      ++audit_.partitions_dropped;
      audit_.tick_lo = std::min(audit_.tick_lo, tick_lo);
      audit_.tick_hi = std::max(audit_.tick_hi, tick_hi);
      if (sla_ != nullptr && newly > 0) {
        // One latency sample per partition, dated by its NEWEST row: the
        // partition only became droppable when that row crossed the
        // deadline, so it bounds every row's deletion latency from below.
        sla_->RecordDeletionLatency(
            std::string(PolicyKindToString(policy_->kind())),
            current - b - max_age_batches);
      }
    }
  }

  // Batches ascend with RowId, so the expired rows are a prefix of the
  // rows from the oldest live one: stop at the first unexpired batch.
  std::vector<RowId> expired;
  const uint64_t n = table_->num_rows();
  for (RowId r = table_->NthActiveRow(0); r < n; ++r) {
    const BatchId b = table_->batch_of(r);
    if (b + max_age_batches >= current) break;
    if (!table_->IsActive(r)) continue;
    expired.push_back(r);
    if (sla_ != nullptr) {
      sla_->RecordDeletionLatency(
          std::string(PolicyKindToString(policy_->kind())),
          current - b - max_age_batches);
    }
  }
  AMNESIA_RETURN_NOT_OK(ForgetRows(expired));
  vacuumed += expired.size();
  if (options_.backend == BackendKind::kDelete && !expired.empty() &&
      options_.compact_every_n_rounds > 0 && !table_->mapped()) {
    AMNESIA_RETURN_NOT_OK(RunCompaction());
  }
  AMNESIA_RETURN_NOT_OK(FinishSweepAudit(AuditOp::kVacuum));
  if (sla_ != nullptr) {
    sla_->RecordSweep(std::string(PolicyKindToString(policy_->kind())),
                      ForgetLag(max_age_batches), current);
  }
  return vacuumed;
}

StatusOr<uint64_t> AmnesiaController::AdaptBudgetToProcessingCost(
    double avg_rows_examined_per_query, double max_avg_rows_per_query,
    double shrink_factor, Rng* rng) {
  if (options_.mode != BudgetMode::kFixedTupleCount) {
    return Status::FailedPrecondition(
        "processing-cost adaptation requires the fixed tuple-count mode");
  }
  if (shrink_factor <= 0.0 || shrink_factor >= 1.0) {
    return Status::InvalidArgument("shrink_factor must be in (0, 1)");
  }
  if (max_avg_rows_per_query <= 0.0) {
    return Status::InvalidArgument("max_avg_rows_per_query must be positive");
  }
  if (avg_rows_examined_per_query > max_avg_rows_per_query) {
    const uint64_t shrunk = std::max<uint64_t>(
        1, static_cast<uint64_t>(shrink_factor *
                                 static_cast<double>(options_.dbsize_budget)));
    options_.dbsize_budget = shrunk;
    AMNESIA_RETURN_NOT_OK(EnforceBudget(rng));
  }
  return options_.dbsize_budget;
}

Status AmnesiaController::EnforceBudget(Rng* rng) {
  obs::EngineMetrics& metrics = obs::EngineMetrics::Get();
  obs::TraceScope trace("amnesia.forget_pass", metrics.amnesia_pass_ns);
  metrics.amnesia_passes->Inc();
  ++stats_.rounds;
  audit_ = SweepAudit{};
  const uint64_t overflow = Overflow();
  trace.Annotate("overflow", static_cast<int64_t>(overflow));
  if (overflow > 0) {
    AMNESIA_ASSIGN_OR_RETURN(
        std::vector<RowId> victims,
        policy_->SelectVictims(*table_, overflow, rng));
    if (victims.size() < std::min<uint64_t>(overflow, table_->num_active())) {
      return Status::Internal("policy returned too few victims");
    }
    AMNESIA_RETURN_NOT_OK(ForgetRows(victims));
  }

  // Mapped tables never move rows (RowIds are partition-file offsets), so
  // compaction is an identity no-op there — skip it rather than journal
  // events that redo nothing.
  if (options_.backend == BackendKind::kDelete &&
      options_.compact_every_n_rounds > 0 &&
      stats_.rounds % options_.compact_every_n_rounds == 0 &&
      table_->num_forgotten() > 0 && !table_->mapped()) {
    AMNESIA_RETURN_NOT_OK(RunCompaction());
  }
  // Rows still over budget after the pass: nonzero means the policy could
  // not produce enough victims (pinned rows, empty table) — the signal a
  // server would watch to decide the forget path is falling behind.
  const uint64_t overshoot = Overflow();
  if (overshoot > 0) metrics.amnesia_overshoot_rows->Inc(overshoot);
  trace.Annotate("overshoot", static_cast<int64_t>(overshoot));
  AMNESIA_RETURN_NOT_OK(FinishSweepAudit(AuditOp::kEnforce));
  return Status::OK();
}

}  // namespace amnesia
