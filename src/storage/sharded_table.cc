// Copyright 2026 The AmnesiaDB Authors

#include "storage/sharded_table.h"

#include <algorithm>
#include <string>
#include <utility>

#include "storage/mapped_file.h"

namespace amnesia {

StatusOr<ShardedTable> ShardedTable::Make(Schema schema, uint32_t num_shards) {
  if (num_shards == 0 || num_shards > kMaxShards) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  std::vector<Table> shards;
  shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    AMNESIA_ASSIGN_OR_RETURN(Table table, Table::Make(schema));
    shards.push_back(std::move(table));
  }
  return ShardedTable(std::move(shards), 0);
}

StatusOr<ShardedTable> ShardedTable::Make(Schema schema, uint32_t num_shards,
                                          const StorageOptions& storage) {
  if (storage.backend == StorageBackend::kVector) {
    return Make(std::move(schema), num_shards);
  }
  if (num_shards == 0 || num_shards > kMaxShards) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  if (storage.dir.empty()) {
    return Status::InvalidArgument("mapped storage needs a directory");
  }
  AMNESIA_RETURN_NOT_OK(EnsureDirExists(storage.dir));
  std::vector<Table> shards;
  shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    StorageOptions shard_storage = storage;
    shard_storage.dir = storage.dir + "/shard-" + std::to_string(s);
    AMNESIA_ASSIGN_OR_RETURN(Table table,
                             Table::Make(schema, shard_storage));
    shards.push_back(std::move(table));
  }
  return ShardedTable(std::move(shards), 0);
}

StatusOr<ShardedTable> ShardedTable::FromShards(std::vector<Table> tables,
                                                uint64_t next_shard) {
  if (tables.empty() || tables.size() > kMaxShards) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  for (const Table& t : tables) {
    if (!t.schema().Equals(tables[0].schema())) {
      return Status::InvalidArgument("shards disagree on the schema");
    }
  }
  return ShardedTable(std::move(tables), next_shard);
}

uint64_t ShardedTable::num_rows() const {
  uint64_t total = 0;
  for (const Table& s : shards_) total += s.num_rows();
  return total;
}

uint64_t ShardedTable::num_active() const {
  uint64_t total = 0;
  for (const Table& s : shards_) total += s.num_active();
  return total;
}

uint64_t ShardedTable::num_forgotten() const {
  uint64_t total = 0;
  for (const Table& s : shards_) total += s.num_forgotten();
  return total;
}

uint64_t ShardedTable::lifetime_inserted() const {
  uint64_t total = 0;
  for (const Table& s : shards_) total += s.lifetime_inserted();
  return total;
}

uint64_t ShardedTable::lifetime_forgotten() const {
  uint64_t total = 0;
  for (const Table& s : shards_) total += s.lifetime_forgotten();
  return total;
}

void ShardedTable::BeginBatch() {
  for (Table& s : shards_) s.BeginBatch();
}

StatusOr<RowId> ShardedTable::AppendRow(const std::vector<Value>& values) {
  const uint32_t s = static_cast<uint32_t>(next_shard_ % shards_.size());
  AMNESIA_ASSIGN_OR_RETURN(RowId local, shards_[s].AppendRow(values));
  ++next_shard_;
  return MakeGlobalRowId(s, local);
}

StatusOr<uint64_t> ShardedTable::AppendColumns(
    const std::vector<std::vector<Value>>& columns) {
  if (columns.size() != num_columns()) {
    return Status::InvalidArgument(
        "column arity " + std::to_string(columns.size()) +
        " != schema arity " + std::to_string(num_columns()));
  }
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  for (const auto& col : columns) {
    if (col.size() != rows) {
      return Status::InvalidArgument("ragged bulk-append columns");
    }
  }
  if (rows == 0) return uint64_t{0};
  if (shards_.size() == 1) {
    // Single shard: no redistribution needed, forward the buffers as-is.
    AMNESIA_RETURN_NOT_OK(
        shards_[0].AppendColumns(columns).status());
    next_shard_ += rows;
    return static_cast<uint64_t>(rows);
  }

  // Split the row stream per shard on the same round-robin schedule as
  // AppendRow, then bulk-append each shard's slice: the resulting state
  // (placement, per-shard row order, ticks, batches) is identical to a
  // row-at-a-time loop.
  const size_t n = shards_.size();
  std::vector<std::vector<std::vector<Value>>> per_shard(n);
  for (size_t s = 0; s < n; ++s) {
    per_shard[s].resize(columns.size());
    // Rows i with (next_shard_ + i) % n == s.
    const size_t first = static_cast<size_t>(
        (s + n - next_shard_ % n) % n);
    if (first >= rows) continue;
    const size_t shard_rows = (rows - first + n - 1) / n;
    for (auto& col : per_shard[s]) col.reserve(shard_rows);
    for (size_t i = first; i < rows; i += n) {
      for (size_t c = 0; c < columns.size(); ++c) {
        per_shard[s][c].push_back(columns[c][i]);
      }
    }
  }
  for (size_t s = 0; s < n; ++s) {
    if (per_shard[s][0].empty()) continue;
    AMNESIA_RETURN_NOT_OK(
        shards_[s].AppendColumns(per_shard[s]).status());
  }
  next_shard_ += rows;
  return static_cast<uint64_t>(rows);
}

StatusOr<Table*> ShardedTable::Resolve(RowId row) {
  const uint32_t s = ShardOfRow(row);
  if (s >= shards_.size() || LocalRowOf(row) >= shards_[s].num_rows()) {
    return Status::OutOfRange("global row " + std::to_string(row) +
                              " does not address a stored row");
  }
  return &shards_[s];
}

Status ShardedTable::Forget(RowId row) {
  AMNESIA_ASSIGN_OR_RETURN(Table * shard, Resolve(row));
  return shard->Forget(LocalRowOf(row));
}

Status ShardedTable::Revive(RowId row) {
  AMNESIA_ASSIGN_OR_RETURN(Table * shard, Resolve(row));
  return shard->Revive(LocalRowOf(row));
}

Status ShardedTable::ScrubRow(RowId row, Value scrub_value) {
  AMNESIA_ASSIGN_OR_RETURN(Table * shard, Resolve(row));
  return shard->ScrubRow(LocalRowOf(row), scrub_value);
}

Value ShardedTable::max_seen(size_t col) const {
  Value out = shards_[0].max_seen(col);
  for (const Table& s : shards_) out = std::max(out, s.max_seen(col));
  return out;
}

Value ShardedTable::min_seen(size_t col) const {
  Value out = shards_[0].min_seen(col);
  for (const Table& s : shards_) out = std::min(out, s.min_seen(col));
  return out;
}

std::vector<RowMapping> ShardedTable::CompactForgotten() {
  std::vector<RowMapping> mappings;
  mappings.reserve(shards_.size());
  for (Table& s : shards_) mappings.push_back(s.CompactForgotten());
  return mappings;
}

uint64_t ShardedTable::version() const {
  uint64_t total = 0;
  for (const Table& s : shards_) total += s.version();
  return total;
}

size_t ShardedTable::ApproxBytes() const {
  size_t total = 0;
  for (const Table& s : shards_) total += s.ApproxBytes();
  return total;
}

ShardedMorselRange TableShards::Morsels(uint64_t morsel_rows) const {
  std::vector<MorselRange> ranges;
  ranges.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    ranges.push_back(shards_[s].Morsels(morsel_rows));
  }
  return ShardedMorselRange(std::move(ranges));
}

}  // namespace amnesia
