// Copyright 2026 The AmnesiaDB Authors
//
// Declarative configuration of one Data Amnesia Simulator run. Every
// experiment in the paper (and every ablation in this repo) is a
// SimulationConfig; the bench binaries construct them and print the
// resulting series.

#ifndef AMNESIA_SIM_CONFIG_H_
#define AMNESIA_SIM_CONFIG_H_

#include <cstdint>
#include <string>

#include "amnesia/controller.h"
#include "amnesia/registry.h"
#include "common/status.h"
#include "durability/event_log.h"
#include "query/executor.h"
#include "storage/types.h"
#include "workload/distribution.h"
#include "workload/query_gen.h"

namespace amnesia {

/// \brief Full description of one simulation run.
struct SimulationConfig {
  /// RNG seed; a config is exactly reproducible from its seed.
  uint64_t seed = 42;

  /// The paper's DBSIZE: the constant number of active tuples.
  uint64_t dbsize = 1000;
  /// The paper's upd-perc: each round ingests upd_perc * dbsize tuples.
  double upd_perc = 0.2;
  /// Update rounds to run (the paper's timeline 1..10).
  uint32_t num_batches = 10;
  /// Range queries evaluated per round ("a batch of 1000 individual
  /// queries fired against the incomplete database", §2.3).
  uint32_t queries_per_batch = 1000;
  /// Aggregate (AVG) queries evaluated per round (§4.3).
  uint32_t aggregate_queries_per_batch = 0;
  /// When true, aggregate queries carry the same range predicate as the
  /// range workload; when false they are SELECT AVG(a) FROM t.
  bool aggregate_over_range = false;

  /// Value distribution of ingested data (§2.1).
  DistributionOptions distribution;
  /// Range-query generation (§4.2).
  QueryGenOptions query;
  /// Amnesia policy under study (§3).
  PolicyOptions policy;
  /// What happens to forgotten tuples.
  BackendKind backend = BackendKind::kMarkOnly;
  /// Controller budget mode/options derived from dbsize unless overridden.
  uint32_t compact_every_n_rounds = 1;
  /// Access path used by the measured queries.
  PlanKind plan = PlanKind::kFullScan;
  /// When true, queries feed per-tuple access counts (rot's signal).
  bool record_access = true;
  /// Scan workers per measured query (ExecOptions::parallelism): 1 runs
  /// the exact serial path; >1 routes the batch loop's range/aggregate
  /// queries through the morsel-parallel kernels (results identical;
  /// aggregates up to FP reassociation). Ground-truth counts stay on the
  /// oracle's sealed O(log n) path, which no scan parallelism can beat.
  int parallelism = 1;
  /// Execution engine for the measured queries (ExecOptions::engine) and
  /// the attestation count. The default, kVectorized, runs the
  /// batch-at-a-time fused kernels; kScalar, the tuple-at-a-time
  /// reference, is for tests. Result counts, range-precision metrics and
  /// the final table are identical either way; aggregate_precision and
  /// aggregate_rel_error differ in the last bits (sum/n vs Welford AVG).
  Engine engine = Engine::kVectorized;

  /// Durability (src/durability): when > 0, the simulator journals every
  /// ingest and forget-pass outcome to an event log under
  /// `checkpoint_dir` and commits a checkpoint every N rounds (plus one
  /// right after the initial load, so recovery always has a manifest). 0
  /// disables durability entirely.
  uint32_t checkpoint_every_n_batches = 0;
  /// Directory for checkpoint blobs, manifests and the event log.
  /// Required when checkpoint_every_n_batches > 0.
  std::string checkpoint_dir;
  /// true: capture on the simulation thread, blob encoding and I/O on a
  /// background writer. false: the whole checkpoint runs on the
  /// simulation thread (the foreground baseline).
  bool checkpoint_async = true;
  /// Retention count: after each checkpoint commit keep only the newest N
  /// manifests, garbage-collect older manifests and unreferenced blobs,
  /// and truncate the event log below the oldest retained manifest's
  /// covered LSN — the run's disk footprint stays proportional to N live
  /// checkpoints however long it runs. 0 keeps every checkpoint, blob and
  /// journal event, and runs no GC.
  uint32_t checkpoint_retention = 0;
  /// Event-log layout. kSingleFile is one file that retention rewrites;
  /// kSegmented stripes the log across fixed-size segment files so
  /// retention truncation is O(1) unlinks instead of an O(retained
  /// events) rewrite that blocks the journaling appenders.
  LogFormat log_format = LogFormat::kSingleFile;
  /// Segment roll threshold for kSegmented (ignored by kSingleFile).
  /// Smaller segments let retention truncate at a finer grain; the CI
  /// smoke shrinks it so short runs still roll and unlink segments.
  uint64_t log_segment_bytes = 4u << 20;
  /// When journaled events are flushed to the page cache. The default is
  /// group commit: per-event flushing costs one fflush per mutation at
  /// high forget rates, and the simulator explicitly flushes at every
  /// batch and checkpoint boundary anyway — so recovery still always
  /// lands on a completed batch, and a crash can only lose the tail of
  /// the batch that was in flight.
  SyncPolicy log_sync = SyncPolicy::GroupCommit(64, 5.0);
  /// Note on access counts: BumpAccess feedback (record_access) is not
  /// journaled — query traffic is orders of magnitude above the mutation
  /// rate. Recovery restores access counts as of the last checkpoint;
  /// runs that need bit-exact recovery set record_access = false.

  /// Storage (src/storage): backend for the simulated table's column
  /// payloads. kVector keeps every column in memory (the cross-check
  /// oracle); kMapped seals every `partition_rows` rows into an mmap'd,
  /// checksummed partition file under `storage_dir`, giving recovery
  /// re-mapping instead of deserialization and mandatory vacuuming an
  /// O(1) whole-partition drop. Query results are bit-identical across
  /// backends.
  StorageBackend storage_backend = StorageBackend::kVector;
  /// Partition-file directory; required when storage_backend is kMapped.
  /// A fresh simulation clears and reuses it.
  std::string storage_dir;
  /// Rows per sealed partition (kMapped only; rounded up to a power of
  /// two, minimum 64).
  uint64_t partition_rows = 1u << 16;

  /// Mandatory vacuuming / deletion SLA: when > 0, every StepBatch also
  /// runs Controller::VacuumExpired(N) after the budget pass — every
  /// active tuple older than N batches is forgotten regardless of budget
  /// (the paper's §5 privacy semantics) — and the per-policy deletion-SLA
  /// tracker samples forget lag and deletion latency each batch. 0 (the
  /// default) disables vacuuming and SLA tracking.
  uint32_t vacuum_max_age_batches = 0;
  /// Readiness threshold for the "deletion_sla" /readyz probe: the probe
  /// fails (503) while any policy's forget lag exceeds this many batches.
  /// Only consulted when vacuum_max_age_batches > 0.
  uint32_t sla_max_lag_batches = 2;
  /// Forgetting audit ledger (src/amnesia/audit_ledger.h): when true,
  /// every controller sweep that forgot anything appends a hash-chained
  /// AuditRecord to `<checkpoint_dir>/audit.segs`, flushed after the
  /// event sink so the ledger never claims an unjournaled forget.
  /// Requires durability (checkpoint_every_n_batches > 0).
  bool audit_ledger = false;
  /// Ledger segment roll threshold (smaller segments let the retention
  /// hook truncate at a finer grain).
  uint64_t audit_segment_bytes = 64u << 10;
  /// When > 0, each checkpoint retention-GC pass also truncates the audit
  /// ledger to its newest N records (whole sealed segments only, so the
  /// surviving chain stays verifiable). 0 keeps every record.
  uint64_t audit_retention_records = 0;

  /// Observability (src/obs): when > 0, every N batches the simulator
  /// logs a compact delta summary of the process-wide metrics registry
  /// (counter deltas, gauge values, histogram quantiles) since the last
  /// report. 0 (the default) logs nothing; the registry still counts
  /// unless the build compiled it out with AMNESIA_NO_METRICS.
  uint32_t metrics_report_every_n_batches = 0;

  /// Introspection (src/server): when >= 0, the simulator runs a live
  /// HTTP introspection server on 127.0.0.1 for the life of the run —
  /// /metrics (Prometheus text), /healthz, /readyz (checkpointer + event
  /// log probes), /tracez (Perfetto trace JSON), /profilez. 0 picks an
  /// ephemeral port (Simulator::introspection_port() reports the pick);
  /// -1 (the default) serves nothing.
  int serve_port = -1;

  /// Validates cross-field consistency.
  Status Validate() const;

  /// Returns the per-round ingest size F = round(upd_perc * dbsize),
  /// at least 1.
  uint64_t BatchInsertCount() const;
};

}  // namespace amnesia

#endif  // AMNESIA_SIM_CONFIG_H_
