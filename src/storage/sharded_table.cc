// Copyright 2026 The AmnesiaDB Authors

#include "storage/sharded_table.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/fs.h"

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
  AMNESIA_RETURN_NOT_OK(EnsureDir(storage.dir));
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

StatusOr<uint64_t> ShardedTable::AppendColumns(
    const std::vector<std::vector<Value>>& columns) {
  return AppendRoundRobin(&shards_, &next_shard_, columns);
}

StatusOr<uint64_t> AppendRoundRobin(
    std::vector<Table>* shards, uint64_t* cursor,
    const std::vector<std::vector<Value>>& columns) {
  const size_t num_columns = (*shards)[0].num_columns();
  if (columns.size() != num_columns) {
    return Status::InvalidArgument(
        "column arity " + std::to_string(columns.size()) +
        " != schema arity " + std::to_string(num_columns));
  }
  const size_t rows = columns[0].size();
  for (const auto& col : columns) {
    if (col.size() != rows) {
      return Status::InvalidArgument("ragged bulk-append columns");
    }
  }
  if (rows == 0) return uint64_t{0};
  const size_t n = shards->size();
  if (n == 1) {
    // Single shard: no redistribution needed, forward the buffers as-is.
    AMNESIA_RETURN_NOT_OK((*shards)[0].AppendColumns(columns).status());
    *cursor += rows;
    return static_cast<uint64_t>(rows);
  }

  // Copy out each shard's rows, k with (*cursor + k) % n == s, and
  // bulk-append them.
  std::vector<std::vector<Value>> slice(columns.size());
  for (size_t s = 0; s < n; ++s) {
    const size_t first = static_cast<size_t>((s + n - *cursor % n) % n);
    if (first >= rows) continue;
    for (size_t c = 0; c < columns.size(); ++c) {
      slice[c].clear();
      for (size_t k = first; k < rows; k += n) {
        slice[c].push_back(columns[c][k]);
      }
    }
    AMNESIA_RETURN_NOT_OK((*shards)[s].AppendColumns(slice).status());
  }
  *cursor += rows;
  return static_cast<uint64_t>(rows);
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
