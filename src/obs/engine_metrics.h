// Copyright 2026 The AmnesiaDB Authors
//
// EngineMetrics: one struct of cached registry pointers covering every
// instrumented subsystem, resolved once on first use. Hot paths write
// `EngineMetrics::Get().scan_rows_scanned->Inc(n)` — a thread-safe static
// read plus a relaxed atomic add — and never touch the registry mutex.
//
// Metric names are the public surface (README "Observability" documents
// them and the future HTTP /metrics endpoint will expose them verbatim),
// so treat renames as breaking changes.

#ifndef AMNESIA_OBS_ENGINE_METRICS_H_
#define AMNESIA_OBS_ENGINE_METRICS_H_

#include "obs/metrics.h"

namespace amnesia {
namespace obs {

struct EngineMetrics {
  // --- scan / query execution ------------------------------------------
  Counter* scan_rows_scanned;      // rows inspected by scan/count/agg kernels
  Counter* scan_morsels_scanned;   // morsels actually processed
  Counter* scan_morsels_skipped;   // morsels skipped wholesale (popcount /
                                   // visibility proves them empty)
  Counter* scan_ops_scalar;        // operator calls run on the scalar engine
  Counter* scan_ops_vectorized;    // operator calls run on the vectorized engine
  Histogram* scan_ns;              // executor-level scan/aggregate latency

  // --- amnesia (forget passes) -----------------------------------------
  Counter* amnesia_passes;           // EnforceBudget rounds
  Counter* amnesia_rows_forgotten;   // victims forgotten (all backends)
  Counter* amnesia_rows_scrubbed;    // delete-backend victims scrubbed in place
  Counter* amnesia_compactions;      // compaction passes run
  Counter* amnesia_rows_compacted;   // rows relocated by compaction
  Counter* amnesia_overshoot_rows;   // rows still over budget after a pass
  Counter* amnesia_shard_passes;     // per-shard passes run by the sharded
                                     // controller (its budget splits)
  Histogram* amnesia_pass_ns;        // EnforceBudget wall time

  // --- checkpointer -----------------------------------------------------
  Counter* checkpoint_commits;         // manifests committed
  Counter* checkpoint_bytes_written;   // blob + manifest bytes
  Counter* checkpoint_shards_written;  // shard blobs written
  Counter* checkpoint_shards_skipped;  // shard blobs reused (epoch unchanged)
  Histogram* checkpoint_capture_ns;    // snapshot capture (caller stall)
  Histogram* checkpoint_write_ns;      // background write+commit phase
  Histogram* checkpoint_sync_ns;       // fsyncs of what the manifest names
  Histogram* checkpoint_gc_ns;         // retention GC phase

  // --- event log --------------------------------------------------------
  Counter* log_appends;         // events appended (both formats)
  // Journal flushes to the page cache (fflush); none of them fsyncs (the
  // checkpoint writer fsyncs sealed segments, checkpoint.sync_ns). It
  // keeps the name "log.fsyncs", which existing readers use.
  Counter* log_fsyncs;
  Counter* log_truncations;     // TruncateBefore compactions
  Histogram* log_batch_size;    // appends covered by each journal flush

  // --- mapped storage ---------------------------------------------------
  Counter* storage_partitions_created;  // partitions sealed to mapped files
  Counter* storage_partitions_dropped;  // partitions forgotten whole (O(1))
  Gauge* storage_mapped_bytes;          // bytes currently mmap'd (all tables)

  // --- thread pool ------------------------------------------------------
  Counter* pool_tasks_submitted;
  Counter* pool_tasks_completed;
  Gauge* pool_queue_depth;      // in-flight tasks; HighWater() is the
                                // backpressure signal the server PR needs

  /// The process-wide instance, registered on first call.
  static EngineMetrics& Get();
};

}  // namespace obs
}  // namespace amnesia

#endif  // AMNESIA_OBS_ENGINE_METRICS_H_
