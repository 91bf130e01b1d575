// Copyright 2026 The AmnesiaDB Authors
//
// Shard-parallel amnesia. Each shard gets its own policy instance, its own
// deterministic Rng stream and its own AmnesiaController over the shard's
// table, so a forget pass (victim selection, marking/scrubbing, and
// compaction) runs per shard with no shared bitmap or policy state. A
// budget splitter apportions the global storage budget across shards
// before every pass; the passes then run concurrently on the caller's
// ThreadPool (common/thread_pool.h). With one shard this reduces exactly
// to the unsharded AmnesiaController (same victims, same state
// transitions) given the same seed.

#ifndef AMNESIA_AMNESIA_SHARDED_CONTROLLER_H_
#define AMNESIA_AMNESIA_SHARDED_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "amnesia/controller.h"
#include "amnesia/registry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "query/oracle.h"
#include "storage/sharded_table.h"

namespace amnesia {

/// \brief Apportions a global tuple budget across shards proportionally to
/// their active counts (largest-remainder rounding, ties to the lower
/// shard index; even split when nothing is active).
///
/// Guarantees: the per-shard budgets sum to exactly
/// min-preserving `budget`; when budget <= sum(active), every shard's
/// budget is at most its active count, so enforcing the per-shard budgets
/// forgets exactly sum(active) - budget tuples globally. With one shard
/// the split is the identity.
std::vector<uint64_t> SplitBudget(uint64_t budget,
                                  const std::vector<uint64_t>& active);

/// \brief Sharded controller tuning.
struct ShardedControllerOptions {
  /// Global active-tuple budget (the paper's DBSIZE), split across shards
  /// before every pass.
  uint64_t dbsize_budget = 1000;
  /// Backend applied to every forgotten tuple. Shard-local backends only:
  /// kMarkOnly or kDelete (cold/summary/index tiers stay per-table and are
  /// follow-up work).
  BackendKind backend = BackendKind::kMarkOnly;
  /// kDelete: run per-shard compaction every N EnforceBudget calls.
  uint32_t compact_every_n_rounds = 1;
  /// Base seed; shard s draws from Rng(seed + s), so passes are
  /// reproducible regardless of which worker runs which shard.
  uint64_t seed = 42;
};

/// \brief Runs one amnesia policy per shard to keep a ShardedTable within
/// a global budget, forget passes shard-parallel on a thread pool.
class ShardedAmnesiaController {
 public:
  /// Validates the wiring and instantiates one policy per shard from
  /// `policy_options`. `table` is borrowed and must outlive the
  /// controller. `oracle` is only needed by kDistributionAligned.
  /// `event_sink` (optional, borrowed) journals every shard's forget-pass
  /// outcomes as durability events carrying that shard's id; the passes
  /// run concurrently, so the sink must be thread-safe (EventLog is).
  static StatusOr<ShardedAmnesiaController> Make(
      const ShardedControllerOptions& options,
      const PolicyOptions& policy_options, ShardedTable* table,
      const GroundTruthOracle* oracle = nullptr,
      EventSink* event_sink = nullptr);

  /// Applies amnesia so the global budget holds again: splits the budget
  /// across shards, then runs every shard's forget pass. Passes run
  /// concurrently on `pool` when given (nullptr = serial, shard-major);
  /// results are identical either way because shards share no state.
  Status EnforceBudget(ThreadPool* pool = nullptr);

  /// Returns how many tuples EnforceBudget would forget right now.
  uint64_t Overflow() const;

  /// Mandatory vacuuming across all shards (see
  /// AmnesiaController::VacuumExpired): every shard forgets its active
  /// tuples older than `max_age_batches` update batches, taking the O(1)
  /// partition-drop fast path on mapped shards. Returns the total number
  /// of tuples vacuumed.
  StatusOr<uint64_t> VacuumExpired(uint32_t max_age_batches,
                                   ThreadPool* pool = nullptr);

  /// Returns activity counters summed over all shard controllers.
  ControllerStats stats() const;

  /// Wires every shard controller to `ledger` (see
  /// AmnesiaController::set_audit_ledger). Passes run concurrently, so
  /// the ledger's thread-safe Append serializes the shard records; the
  /// chain order across shards is whatever order the sweeps finished in.
  void set_audit_ledger(AuditLedger* ledger,
                        EventLogBase* lsn_source = nullptr);

  /// Wires every shard controller to `tracker` (see
  /// AmnesiaController::set_sla_tracker); per-policy lag aggregates as
  /// the max across shards at each batch.
  void set_sla_tracker(obs::SlaTracker* tracker);

  /// Returns the worst (max) per-shard forget lag in batches.
  uint64_t ForgetLag(uint32_t max_age_batches) const;

  /// Returns the per-shard budgets computed by the last EnforceBudget
  /// (empty before the first pass).
  const std::vector<uint64_t>& last_budgets() const { return last_budgets_; }

  /// Returns the options.
  const ShardedControllerOptions& options() const { return options_; }

 private:
  ShardedAmnesiaController(const ShardedControllerOptions& options,
                           ShardedTable* table)
      : options_(options), table_(table) {}

  ShardedControllerOptions options_;
  ShardedTable* table_;
  /// One policy, Rng and controller per shard, index-aligned with the
  /// table's shards. unique_ptr keeps controller addresses stable (the
  /// controllers borrow the policies).
  std::vector<std::unique_ptr<AmnesiaPolicy>> policies_;
  std::vector<Rng> rngs_;
  std::vector<std::unique_ptr<AmnesiaController>> controllers_;
  std::vector<uint64_t> last_budgets_;
};

}  // namespace amnesia

#endif  // AMNESIA_AMNESIA_SHARDED_CONTROLLER_H_
