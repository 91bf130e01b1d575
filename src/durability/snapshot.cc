// Copyright 2026 The AmnesiaDB Authors

#include "durability/snapshot.h"

#include <utility>

#include "storage/checkpoint.h"
#include "storage/checkpoint_io.h"

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

/// Serializes a mapped shard in the v2 blob layout (decoded by
/// RestoreTableWithStorage). The sealed payload never enters the blob —
/// recovery re-maps the partition files — so blob size and restore time
/// scale with the tail plus flat metadata, not with history. Ticks are
/// omitted entirely: mapped shards never compact, so row r's tick is
/// always next_tick - num_rows + r.
std::vector<uint8_t> SerializeMappedSnapshot(const ShardSnapshot& snapshot) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  WriteTableBlobPrefix(&w, kTableBlobVersionMapped, snapshot.schema,
                       snapshot.num_rows, snapshot.next_tick,
                       snapshot.lifetime_forgotten, snapshot.current_batch);
  const size_t cols = snapshot.schema.num_columns();

  w.U64(snapshot.partition_rows);
  w.U64(snapshot.partitions.size());
  for (const PartitionMeta& p : snapshot.partitions) {
    w.U64(p.epoch_lo);
    w.U64(p.epoch_hi);
    w.U8(p.dropped ? 1 : 0);
  }

  for (size_t c = 0; c < cols; ++c) {
    w.I64(snapshot.min_seen[c]);
    w.I64(snapshot.max_seen[c]);
    w.I64Array(snapshot.tail_columns[c]);
  }

  // Batches are monotonic per row, so run-length encoding collapses them
  // to one entry per update batch.
  std::vector<std::pair<BatchId, uint64_t>> batch_runs;
  for (const BatchId b : snapshot.batches) {
    if (batch_runs.empty() || batch_runs.back().first != b) {
      batch_runs.emplace_back(b, 1);
    } else {
      ++batch_runs.back().second;
    }
  }
  w.U64(batch_runs.size());
  for (const auto& [batch, count] : batch_runs) {
    w.U32(batch);
    w.U64(count);
  }

  // Access counts cluster (cold history is all zeros); RLE when it wins,
  // raw otherwise.
  std::vector<std::pair<uint64_t, uint64_t>> access_runs;
  for (const uint64_t a : snapshot.access_counts) {
    if (access_runs.empty() || access_runs.back().first != a) {
      access_runs.emplace_back(a, 1);
    } else {
      ++access_runs.back().second;
    }
  }
  const bool rle_wins =
      access_runs.size() * 2 < snapshot.access_counts.size();
  w.U8(rle_wins ? 1 : 0);
  if (rle_wins) {
    w.U64(access_runs.size());
    for (const auto& [value, count] : access_runs) {
      w.U64(value);
      w.U64(count);
    }
  } else {
    w.U64Array(snapshot.access_counts);
  }

  w.BitArray(snapshot.active);
  return out;
}

}  // namespace

std::vector<uint8_t> SerializeShardSnapshot(const ShardSnapshot& snapshot) {
  if (snapshot.mapped) return SerializeMappedSnapshot(snapshot);
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  WriteTableBlobPrefix(&w, kTableBlobVersion, snapshot.schema,
                       snapshot.num_rows, snapshot.next_tick,
                       snapshot.lifetime_forgotten, snapshot.current_batch);
  const size_t cols = snapshot.schema.num_columns();

  // One logical array per column, spliced from the copy-on-write chunks.
  for (size_t c = 0; c < cols; ++c) {
    w.I64(snapshot.min_seen[c]);
    w.I64(snapshot.max_seen[c]);
    w.U64(snapshot.num_rows);
    for (const auto& chunk : snapshot.chunks) w.RawI64(chunk->columns[c]);
  }

  w.U64(snapshot.num_rows);
  for (const auto& chunk : snapshot.chunks) w.RawU64(chunk->ticks);
  w.U64(snapshot.num_rows);
  for (const auto& chunk : snapshot.chunks) w.RawU32(chunk->batches);
  w.U64Array(snapshot.access_counts);
  w.BitArray(snapshot.active);
  return out;
}

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

TableSnapshot SnapshotManager::Capture(
    const std::vector<const Table*>& shards, uint64_t ingest_cursor,
    const TierSet& tiers) {
  last_stats_ = CaptureStats{};
  states_.resize(shards.size());
  TableSnapshot out;
  out.ingest_cursor = ingest_cursor;
  out.shards.reserve(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    out.shards.push_back(CaptureShard(*shards[s], &states_[s]));
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

TableSnapshot SnapshotManager::Capture(const ShardedTable& table,
                                       const TierSet& tiers) {
  std::vector<const Table*> shards;
  shards.reserve(table.num_shards());
  for (uint32_t s = 0; s < table.num_shards(); ++s) {
    shards.push_back(&table.shard(s).table());
  }
  return Capture(shards, table.ingest_cursor(), tiers);
}

TableSnapshot SnapshotManager::Capture(const Table& table,
                                       const TierSet& tiers) {
  return Capture({&table}, table.lifetime_inserted(), tiers);
}

}  // namespace amnesia
