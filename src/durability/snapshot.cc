// Copyright 2026 The AmnesiaDB Authors

#include "durability/snapshot.h"

#include <utility>

namespace amnesia {

namespace {

/// Copies rows [begin, end) of `table` into a fresh chunk.
std::shared_ptr<const SnapshotChunk> CopyChunk(const Table& table,
                                               RowId begin, RowId end) {
  auto chunk = std::make_shared<SnapshotChunk>();
  const size_t cols = table.num_columns();
  const size_t rows = static_cast<size_t>(end - begin);
  chunk->columns.resize(cols);
  for (size_t c = 0; c < cols; ++c) {
    chunk->columns[c].resize(rows);
    table.column(c).CopyRange(begin, end, chunk->columns[c].data());
  }
  chunk->ticks.reserve(rows);
  chunk->batches.reserve(rows);
  for (RowId r = begin; r < end; ++r) {
    chunk->ticks.push_back(table.insert_tick(r));
    chunk->batches.push_back(table.batch_of(r));
  }
  return chunk;
}

}  // namespace

std::shared_ptr<const ShardSnapshot> SnapshotManager::CaptureShard(
    const Table& table, ShardState* state) {
  const uint64_t epoch = EpochOf(table);
  if (state->snapshot != nullptr && epoch == state->epoch) {
    // Level 1: nothing changed; the previous snapshot is still exact.
    ++last_stats_.shards_reused;
    return state->snapshot;
  }

  auto snapshot = std::make_shared<ShardSnapshot>();
  snapshot->epoch = epoch;
  snapshot->num_rows = table.num_rows();
  snapshot->schema = table.schema();
  snapshot->next_tick = table.lifetime_inserted();
  snapshot->lifetime_forgotten = table.lifetime_forgotten();
  snapshot->current_batch = table.current_batch();
  const size_t cols = table.num_columns();
  snapshot->min_seen.reserve(cols);
  snapshot->max_seen.reserve(cols);
  for (size_t c = 0; c < cols; ++c) {
    snapshot->min_seen.push_back(table.min_seen(c));
    snapshot->max_seen.push_back(table.max_seen(c));
  }

  if (table.mapped()) {
    // Mapped shard: the sealed payload lives in the partition files, so
    // the capture copies only the unsealed tail plus flat metadata —
    // chunk reuse has nothing large to reuse. Ticks are derived at
    // restore (mapped shards never compact), batches are captured flat
    // and run-length encoded at serialize time.
    snapshot->mapped = true;
    snapshot->storage_dir = table.storage().dir;
    snapshot->partition_rows = table.partition_rows();
    snapshot->partitions = table.partitions();
    const uint64_t sealed = table.sealed_rows();
    const uint64_t rows = table.num_rows();
    snapshot->tail_columns.resize(cols);
    for (size_t c = 0; c < cols; ++c) {
      snapshot->tail_columns[c].resize(static_cast<size_t>(rows - sealed));
      table.column(c).CopyRange(sealed, rows,
                                snapshot->tail_columns[c].data());
    }
    snapshot->batches.resize(rows);
    snapshot->access_counts.resize(rows);
    snapshot->active.resize(rows);
    for (RowId r = 0; r < rows; ++r) {
      snapshot->batches[r] = table.batch_of(r);
      snapshot->access_counts[r] = table.access_count(r);
      snapshot->active[r] = table.IsActive(r);
    }
    last_stats_.rows_copied += rows - sealed;
    ++last_stats_.shards_recaptured;
    state->epoch = epoch;
    state->num_rows = table.num_rows();
    state->next_tick = table.lifetime_inserted();
    state->scrub_epoch = table.scrub_epoch();
    state->snapshot = snapshot;
    return snapshot;
  }

  // Level 2: reuse prior chunks when the delta is append-only. Appends
  // grow rows and ticks in lockstep; compaction breaks the tick/row
  // equation and scrubs bump the scrub epoch, so both force a full
  // recapture. Forgets, revives and access bumps leave chunk contents
  // valid (they live in the bitmap / access arrays, recopied below).
  const bool append_only_delta =
      state->snapshot != nullptr && table.num_rows() >= state->num_rows &&
      table.lifetime_inserted() - state->next_tick ==
          table.num_rows() - state->num_rows &&
      table.scrub_epoch() == state->scrub_epoch;
  if (append_only_delta) {
    snapshot->chunks = state->snapshot->chunks;
    last_stats_.chunks_reused += snapshot->chunks.size();
    if (table.num_rows() > state->num_rows) {
      snapshot->chunks.push_back(
          CopyChunk(table, state->num_rows, table.num_rows()));
      last_stats_.rows_copied += table.num_rows() - state->num_rows;
    }
  } else if (table.num_rows() > 0) {
    snapshot->chunks = {CopyChunk(table, 0, table.num_rows())};
    last_stats_.rows_copied += table.num_rows();
  }

  // Level 3: flat per-row state, fresh every capture.
  const uint64_t rows = table.num_rows();
  snapshot->access_counts.resize(rows);
  snapshot->active.resize(rows);
  for (RowId r = 0; r < rows; ++r) {
    snapshot->access_counts[r] = table.access_count(r);
    snapshot->active[r] = table.IsActive(r);
  }

  ++last_stats_.shards_recaptured;
  state->epoch = epoch;
  state->num_rows = table.num_rows();
  state->next_tick = table.lifetime_inserted();
  state->scrub_epoch = table.scrub_epoch();
  state->snapshot = snapshot;
  return snapshot;
}

TableSnapshot SnapshotManager::Capture(const TableShards& table,
                                       const TierSet& tiers) {
  last_stats_ = CaptureStats{};
  states_.resize(table.num_shards());
  TableSnapshot out;
  out.ingest_cursor = table.ingest_cursor();
  out.shards.reserve(table.num_shards());
  for (uint32_t s = 0; s < table.num_shards(); ++s) {
    out.shards.push_back(CaptureShard(table.shard(s), &states_[s]));
  }
  // Tier copies in the same pass: the caller holds mutations off for the
  // whole Capture, so table and tiers are one consistent cut.
  if (tiers.cold != nullptr) {
    out.cold = std::make_shared<ColdStore>(*tiers.cold);
  }
  if (tiers.summaries != nullptr) {
    out.summaries = std::make_shared<SummaryStore>(*tiers.summaries);
  }
  return out;
}

}  // namespace amnesia
