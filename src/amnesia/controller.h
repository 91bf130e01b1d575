// Copyright 2026 The AmnesiaDB Authors
//
// The amnesia controller enforces the storage budget after every update
// batch and routes every forgotten tuple through a forgetting backend —
// the paper's four answers to "what happens to forgotten data" (§1):
// mark-only, physical delete, cold storage, or summary; plus index-skip
// ("stop indexing the forgotten data").

#ifndef AMNESIA_AMNESIA_CONTROLLER_H_
#define AMNESIA_AMNESIA_CONTROLLER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "amnesia/audit_ledger.h"
#include "amnesia/policy.h"
#include "common/rng.h"
#include "common/status.h"
#include "durability/event_log.h"
#include "index/index_manager.h"
#include "obs/sla.h"
#include "storage/cold_store.h"
#include "storage/summary_store.h"
#include "storage/table.h"

namespace amnesia {

/// \brief What physically happens to a forgotten tuple.
enum class BackendKind : int {
  /// Tuple stays in storage, marked inactive (the simulator's mode: full
  /// scans can still see it, amnesic plans cannot).
  kMarkOnly = 0,
  /// Tuple payload is scrubbed and periodically compacted away — "as
  /// radical as to delete all data being forgotten".
  kDelete = 1,
  /// Tuple is copied to the simulated cold tier before marking.
  kColdStorage = 2,
  /// Tuple folds into per-batch (count, sum, min, max) summaries before
  /// marking — aggregation queries stay answerable, details are gone.
  kSummary = 3,
  /// Tuple is erased from all maintained indexes; scans still see it.
  kIndexSkip = 4,
};

/// \brief Returns a stable name for a backend kind.
std::string_view BackendKindToString(BackendKind kind);

/// \brief How the budget is expressed.
enum class BudgetMode : int {
  /// Active tuple count stays exactly at `dbsize_budget` (the paper's
  /// experiments: "the database storage requirements ... remains constant
  /// and it is equal to DBSIZE").
  kFixedTupleCount = 0,
  /// Growth-bounded: forgetting starts only when the approximate byte
  /// footprint exceeds `byte_high_water`, and shrinks the active count to
  /// `byte_low_water_fraction` of it (the paper's "if a database starts by
  /// using half of the available RAM, do not let it grow beyond the 90%
  /// mark").
  kByteHighWater = 1,
};

/// \brief Controller tuning.
struct ControllerOptions {
  BudgetMode mode = BudgetMode::kFixedTupleCount;
  /// kFixedTupleCount: the constant DBSIZE.
  uint64_t dbsize_budget = 1000;
  /// kByteHighWater: footprint that triggers amnesia.
  size_t byte_high_water = 64 * 1024 * 1024;
  /// kByteHighWater: after triggering, shrink until footprint is at most
  /// this fraction of the high water mark.
  double byte_low_water_fraction = 0.9;
  /// Backend applied to every forgotten tuple.
  BackendKind backend = BackendKind::kMarkOnly;
  /// Column whose value is preserved by cold/summary backends (the
  /// simulator is single-column; multi-column tables preserve this one).
  size_t payload_col = 0;
  /// kDelete: run physical compaction every N EnforceBudget calls
  /// (0 = never compact, scrub only).
  uint32_t compact_every_n_rounds = 1;
};

/// \brief Controller activity counters.
struct ControllerStats {
  uint64_t rounds = 0;             ///< EnforceBudget invocations.
  uint64_t tuples_forgotten = 0;   ///< Victims processed.
  uint64_t compactions = 0;        ///< Physical compactions run.
  uint64_t rows_compacted = 0;     ///< Rows removed by compaction.
  uint64_t partitions_dropped = 0; ///< Whole partitions forgotten O(1).
  uint64_t cold_evictions = 0;     ///< Tuples pushed to the cold tier.
  uint64_t summary_folds = 0;      ///< Tuples folded into summaries.
  uint64_t index_erases = 0;       ///< Tuples unhooked from indexes.
};

/// \brief Drives a policy + backend to keep one table within budget.
///
/// All pointers are borrowed and must outlive the controller. `indexes`,
/// `cold` and `summaries` may be null when the corresponding backend is
/// not used (validated at construction).
class AmnesiaController {
 public:
  /// Validates the wiring (backend vs. available tiers).
  static StatusOr<AmnesiaController> Make(const ControllerOptions& options,
                                          AmnesiaPolicy* policy, Table* table,
                                          IndexManager* indexes = nullptr,
                                          ColdStore* cold = nullptr,
                                          SummaryStore* summaries = nullptr);

  /// Applies amnesia so the budget holds again: selects victims via the
  /// policy, routes each through the backend, optionally compacts.
  /// No-op (except stats) when the table is within budget.
  Status EnforceBudget(Rng* rng);

  /// Returns how many tuples EnforceBudget would forget right now.
  uint64_t Overflow() const;

  /// Mandatory vacuuming (§5 privacy / TSQL2-style vacuuming): forgets
  /// EVERY active tuple inserted more than `max_age_batches` update
  /// batches ago, regardless of the storage budget. Routed through the
  /// configured backend, so a delete backend makes expiry physical and
  /// scrubbed (Data-Privacy-Act semantics: "observations ... should be
  /// forgotten within the legally defined time frame"). Returns the
  /// number of tuples vacuumed.
  StatusOr<uint64_t> VacuumExpired(uint32_t max_age_batches);

  /// Processing-time budgeting (§2.1 future work: "bounding the
  /// processing time for the workload"). If the executor's average rows
  /// examined per query exceeds `max_avg_rows_per_query`, permanently
  /// shrinks the tuple budget by `shrink_factor` (e.g. 0.9) and enforces
  /// it. Returns the new budget. Only meaningful in
  /// BudgetMode::kFixedTupleCount.
  StatusOr<uint64_t> AdaptBudgetToProcessingCost(
      double avg_rows_examined_per_query, double max_avg_rows_per_query,
      double shrink_factor, Rng* rng);

  /// Returns how many batches the oldest live row is past the
  /// `max_age_batches` retention deadline (0 = compliant). O(rows/64):
  /// rows are append-only with monotonic batches, so the oldest live row
  /// is the first set bit of the visibility bitmap.
  uint64_t ForgetLag(uint32_t max_age_batches) const;

  /// Returns activity counters.
  const ControllerStats& stats() const { return stats_; }

  /// Returns the options.
  const ControllerOptions& options() const { return options_; }

  /// Replaces the fixed tuple-count budget (BudgetMode::kFixedTupleCount
  /// only). The sharded controller's budget splitter re-apportions the
  /// global budget across shard controllers before every forget pass.
  void set_dbsize_budget(uint64_t budget) { options_.dbsize_budget = budget; }

  /// Journals every forget-pass outcome (one kForgetRows record per sweep,
  /// compaction, partition drops) to `sink` as durability events addressed
  /// to `shard_id`, so crash recovery can redo them without the policy or
  /// its RNG. nullptr (the default) disables journaling. The sink is
  /// borrowed and must outlive the controller.
  void set_event_sink(EventSink* sink, uint32_t shard_id = 0) {
    event_sink_ = sink;
    event_shard_ = shard_id;
  }

  /// Attests every sweep that forgot anything to `ledger` (one hash-
  /// chained AuditRecord per sweep). When an event sink is wired, the
  /// sink is flushed BEFORE the ledger append so the ledger never claims
  /// a forget the journal has not durably seen (ledger ⊆ journal across
  /// any crash). `lsn_source`, when given, stamps each record with the
  /// journal position it is covered by. Both are borrowed and must
  /// outlive the controller; nullptr disables attestation.
  void set_audit_ledger(AuditLedger* ledger,
                        EventLogBase* lsn_source = nullptr) {
    audit_ledger_ = ledger;
    lsn_source_ = lsn_source;
  }

  /// Records forget lag and deletion latency into `tracker` from every
  /// VacuumExpired sweep. Borrowed; nullptr disables SLA sampling.
  void set_sla_tracker(obs::SlaTracker* tracker) { sla_ = tracker; }

 private:
  AmnesiaController(const ControllerOptions& options, AmnesiaPolicy* policy,
                    Table* table, IndexManager* indexes, ColdStore* cold,
                    SummaryStore* summaries)
      : options_(options),
        policy_(policy),
        table_(table),
        indexes_(indexes),
        cold_(cold),
        summaries_(summaries) {}

  /// Per-sweep audit accumulation; reset at sweep start, folded into one
  /// AuditRecord at sweep end. A member (not a parameter) because
  /// controllers are externally synchronized per shard, so there is never
  /// more than one sweep in flight per instance.
  struct SweepAudit {
    uint64_t rows_marked = 0;
    uint64_t rows_scrubbed = 0;
    uint64_t partitions_dropped = 0;
    uint64_t tick_lo = UINT64_MAX;
    uint64_t tick_hi = 0;
  };

  /// Forgets `rows` (distinct, active) in three phases: apply each in
  /// memory in order, journal them as kForgetRows records, then, under
  /// kDelete, flush once if any is a sealed row of a mapped table and
  /// scrub them all.
  Status ForgetRows(const std::vector<RowId>& rows);
  /// Phase 1 for one row: tier re-route, Table::Forget, audit and stats.
  Status ApplyForget(RowId row);
  /// Appends rows[0, count) as [lo, hi) runs in the given order, at most
  /// kMaxForgetRunsPerRecord runs per record.
  Status JournalForgetRows(const std::vector<RowId>& rows, size_t count);
  Status RunCompaction();
  /// Flushes the event sink, then appends one AuditRecord summarizing the
  /// sweep accumulated in audit_. No-op for sweeps that forgot nothing or
  /// when no ledger is wired.
  Status FinishSweepAudit(AuditOp op);

  ControllerOptions options_;
  AmnesiaPolicy* policy_;
  Table* table_;
  IndexManager* indexes_;
  ColdStore* cold_;
  SummaryStore* summaries_;
  ControllerStats stats_;
  EventSink* event_sink_ = nullptr;
  uint32_t event_shard_ = 0;
  AuditLedger* audit_ledger_ = nullptr;
  EventLogBase* lsn_source_ = nullptr;
  obs::SlaTracker* sla_ = nullptr;
  SweepAudit audit_;
};

}  // namespace amnesia

#endif  // AMNESIA_AMNESIA_CONTROLLER_H_
