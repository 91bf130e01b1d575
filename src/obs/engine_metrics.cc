// Copyright 2026 The AmnesiaDB Authors

#include "obs/engine_metrics.h"

namespace amnesia {
namespace obs {

EngineMetrics& EngineMetrics::Get() {
  static EngineMetrics* metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    auto* m = new EngineMetrics();

    m->scan_rows_scanned = r.GetCounter("scan.rows_scanned");
    m->scan_morsels_scanned = r.GetCounter("scan.morsels_scanned");
    m->scan_morsels_skipped = r.GetCounter("scan.morsels_skipped");
    m->scan_ops_scalar = r.GetCounter("scan.ops_scalar");
    m->scan_ops_vectorized = r.GetCounter("scan.ops_vectorized");
    m->scan_ns = r.GetHistogram("scan.scan_ns");

    m->amnesia_passes = r.GetCounter("amnesia.passes");
    m->amnesia_rows_forgotten = r.GetCounter("amnesia.rows_forgotten");
    m->amnesia_rows_scrubbed = r.GetCounter("amnesia.rows_scrubbed");
    m->amnesia_compactions = r.GetCounter("amnesia.compactions");
    m->amnesia_rows_compacted = r.GetCounter("amnesia.rows_compacted");
    m->amnesia_overshoot_rows = r.GetCounter("amnesia.overshoot_rows");
    m->amnesia_shard_passes = r.GetCounter("amnesia.shard_passes");
    m->amnesia_pass_ns = r.GetHistogram("amnesia.pass_ns");

    m->oracle_values_merged = r.GetCounter("oracle.values_merged");
    m->oracle_folds = r.GetCounter("oracle.folds");

    m->checkpoint_commits = r.GetCounter("checkpoint.commits");
    m->checkpoint_bytes_written = r.GetCounter("checkpoint.bytes_written");
    m->checkpoint_shards_written = r.GetCounter("checkpoint.shards_written");
    m->checkpoint_shards_skipped = r.GetCounter("checkpoint.shards_skipped");
    m->checkpoint_capture_ns = r.GetHistogram("checkpoint.capture_ns");
    m->checkpoint_write_ns = r.GetHistogram("checkpoint.write_ns");
    m->checkpoint_sync_ns = r.GetHistogram("checkpoint.sync_ns");
    m->checkpoint_gc_ns = r.GetHistogram("checkpoint.gc_ns");

    m->log_appends = r.GetCounter("log.appends");
    m->log_fsyncs = r.GetCounter("log.fsyncs");
    m->log_truncations = r.GetCounter("log.truncations");
    m->log_batch_size = r.GetHistogram("log.batch_size");

    m->storage_partitions_created = r.GetCounter("storage.partitions_created");
    m->storage_partitions_dropped = r.GetCounter("storage.partitions_dropped");
    m->storage_mapped_bytes = r.GetGauge("storage.mapped_bytes");

    m->pool_tasks_submitted = r.GetCounter("pool.tasks_submitted");
    m->pool_tasks_completed = r.GetCounter("pool.tasks_completed");
    m->pool_queue_depth = r.GetGauge("pool.queue_depth");

    return m;
  }();
  return *metrics;
}

}  // namespace obs
}  // namespace amnesia
