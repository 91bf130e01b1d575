// Copyright 2026 The AmnesiaDB Authors

#include "amnesia/sharded_controller.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/engine_metrics.h"
#include "obs/trace.h"

namespace amnesia {

std::vector<uint64_t> SplitBudget(uint64_t budget,
                                  const std::vector<uint64_t>& active) {
  const size_t n = active.size();
  std::vector<uint64_t> out(n, 0);
  if (n == 0) return out;

  const uint64_t total =
      std::accumulate(active.begin(), active.end(), uint64_t{0});
  if (total == 0) {
    // Nothing is active: split evenly so future ingest headroom is fair.
    const uint64_t base = budget / n;
    const uint64_t extra = budget % n;
    for (size_t s = 0; s < n; ++s) out[s] = base + (s < extra ? 1 : 0);
    return out;
  }

  // Proportional shares with largest-remainder rounding. 128-bit products
  // keep budget * active exact for any realistic sizes.
  std::vector<std::pair<uint64_t, size_t>> remainders;
  remainders.reserve(n);
  uint64_t assigned = 0;
  for (size_t s = 0; s < n; ++s) {
    const unsigned __int128 share =
        static_cast<unsigned __int128>(budget) * active[s];
    out[s] = static_cast<uint64_t>(share / total);
    assigned += out[s];
    remainders.emplace_back(static_cast<uint64_t>(share % total), s);
  }
  uint64_t leftover = budget - assigned;
  // Largest remainder first; ties go to the lower shard index so the
  // split is deterministic.
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (size_t j = 0; j < remainders.size() && leftover > 0; ++j, --leftover) {
    ++out[remainders[j].second];
  }
  return out;
}

StatusOr<ShardedAmnesiaController> ShardedAmnesiaController::Make(
    const ShardedControllerOptions& options,
    const PolicyOptions& policy_options, ShardedTable* table,
    const GroundTruthOracle* oracle, EventSink* event_sink) {
  if (table == nullptr) {
    return Status::InvalidArgument("sharded controller needs a table");
  }
  if (options.backend != BackendKind::kMarkOnly &&
      options.backend != BackendKind::kDelete) {
    return Status::InvalidArgument(
        "sharded controller supports the shard-local mark-only and delete "
        "backends; cold/summary/index tiers are per-table");
  }

  ShardedAmnesiaController out(options, table);
  const uint32_t shards = table->num_shards();
  out.policies_.reserve(shards);
  out.rngs_.reserve(shards);
  out.controllers_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    AMNESIA_ASSIGN_OR_RETURN(std::unique_ptr<AmnesiaPolicy> policy,
                             CreatePolicy(policy_options, oracle));
    ControllerOptions copts;
    copts.mode = BudgetMode::kFixedTupleCount;
    // Placeholder; the splitter re-apportions before every pass.
    copts.dbsize_budget = options.dbsize_budget;
    copts.backend = options.backend;
    copts.compact_every_n_rounds = options.compact_every_n_rounds;
    AMNESIA_ASSIGN_OR_RETURN(
        AmnesiaController ctrl,
        AmnesiaController::Make(copts, policy.get(),
                                &table->mutable_shard(s).mutable_table()));
    if (event_sink != nullptr) ctrl.set_event_sink(event_sink, s);
    out.policies_.push_back(std::move(policy));
    out.rngs_.emplace_back(options.seed + s);
    out.controllers_.push_back(
        std::make_unique<AmnesiaController>(std::move(ctrl)));
  }
  return out;
}

uint64_t ShardedAmnesiaController::Overflow() const {
  const uint64_t active = table_->num_active();
  return active > options_.dbsize_budget ? active - options_.dbsize_budget
                                         : 0;
}

Status ShardedAmnesiaController::EnforceBudget(ThreadPool* pool) {
  obs::TraceScope trace("amnesia.sharded_forget_pass");
  const uint32_t shards = table_->num_shards();
  trace.Annotate("shards", shards);
  trace.Annotate("parallel", pool != nullptr && shards > 1 ? 1 : 0);
  // Every shard's sub-pass counts as a split, even zero-budget ones: the
  // metric tracks how the budget was apportioned, not how many shards had
  // work (each sub-pass also notes itself under amnesia.passes).
  obs::EngineMetrics::Get().amnesia_shard_passes->Inc(shards);
  std::vector<uint64_t> active(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    active[s] = table_->shard(s).table().num_active();
  }
  last_budgets_ = SplitBudget(options_.dbsize_budget, active);

  // Each pass touches only its shard's table, policy and rng, so the
  // passes commute: pool order and serial order produce identical state.
  std::vector<Status> results(shards);
  const auto run_shard = [&](uint32_t s) {
    controllers_[s]->set_dbsize_budget(last_budgets_[s]);
    results[s] = controllers_[s]->EnforceBudget(&rngs_[s]);
  };
  if (pool != nullptr && shards > 1) {
    pool->ParallelFor(0, shards, 1, [&](uint64_t lo, uint64_t hi) {
      for (uint64_t s = lo; s < hi; ++s) {
        run_shard(static_cast<uint32_t>(s));
      }
    });
  } else {
    for (uint32_t s = 0; s < shards; ++s) run_shard(s);
  }
  for (Status& status : results) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

StatusOr<uint64_t> ShardedAmnesiaController::VacuumExpired(
    uint32_t max_age_batches, ThreadPool* pool) {
  const uint32_t shards = table_->num_shards();
  std::vector<StatusOr<uint64_t>> results(shards, uint64_t{0});
  const auto run_shard = [&](uint32_t s) {
    results[s] = controllers_[s]->VacuumExpired(max_age_batches);
  };
  if (pool != nullptr && shards > 1) {
    pool->ParallelFor(0, shards, 1, [&](uint64_t lo, uint64_t hi) {
      for (uint64_t s = lo; s < hi; ++s) {
        run_shard(static_cast<uint32_t>(s));
      }
    });
  } else {
    for (uint32_t s = 0; s < shards; ++s) run_shard(s);
  }
  uint64_t total = 0;
  for (StatusOr<uint64_t>& result : results) {
    AMNESIA_ASSIGN_OR_RETURN(const uint64_t vacuumed, std::move(result));
    total += vacuumed;
  }
  return total;
}

void ShardedAmnesiaController::set_audit_ledger(AuditLedger* ledger,
                                                EventLogBase* lsn_source) {
  for (auto& ctrl : controllers_) {
    ctrl->set_audit_ledger(ledger, lsn_source);
  }
}

void ShardedAmnesiaController::set_sla_tracker(obs::SlaTracker* tracker) {
  for (auto& ctrl : controllers_) ctrl->set_sla_tracker(tracker);
}

uint64_t ShardedAmnesiaController::ForgetLag(uint32_t max_age_batches) const {
  uint64_t worst = 0;
  for (const auto& ctrl : controllers_) {
    worst = std::max(worst, ctrl->ForgetLag(max_age_batches));
  }
  return worst;
}

ControllerStats ShardedAmnesiaController::stats() const {
  ControllerStats total;
  for (const auto& ctrl : controllers_) {
    const ControllerStats& s = ctrl->stats();
    total.rounds = std::max(total.rounds, s.rounds);
    total.tuples_forgotten += s.tuples_forgotten;
    total.compactions += s.compactions;
    total.rows_compacted += s.rows_compacted;
    total.partitions_dropped += s.partitions_dropped;
    total.cold_evictions += s.cold_evictions;
    total.summary_folds += s.summary_folds;
    total.index_erases += s.index_erases;
  }
  return total;
}

}  // namespace amnesia
