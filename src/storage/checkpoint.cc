// Copyright 2026 The AmnesiaDB Authors

#include "storage/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "storage/checkpoint_io.h"

namespace amnesia {

using ckpt::Reader;
using ckpt::Writer;

namespace {

// Version of the database, sharded-table and tier containers.
constexpr uint32_t kVersion = 1;

}  // namespace

void WriteTableBlobPrefix(Writer* w, uint32_t version, const Schema& schema,
                          uint64_t rows, uint64_t next_tick,
                          uint64_t lifetime_forgotten, BatchId current_batch) {
  w->U32(kTableBlobMagic);
  w->U32(version);
  w->U64(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnDef& def = schema.column(c);
    w->String(def.name);
    w->I64(def.domain_lo);
    w->I64(def.domain_hi);
  }
  w->U64(rows);
  w->U64(next_tick);
  w->U64(lifetime_forgotten);
  w->U32(current_batch);
}

std::vector<uint8_t> CheckpointTable(const Table& table) {
  std::vector<uint8_t> out;
  Writer w(&out);
  const size_t cols = table.num_columns();
  const uint64_t rows = table.num_rows();
  WriteTableBlobPrefix(&w, kTableBlobVersion, table.schema(), rows,
                       table.lifetime_inserted(), table.lifetime_forgotten(),
                       table.current_batch());
  // The rest of the blob has a known size: reserve it once, so the buffer
  // is never regrown (and never holds a doubled, half-empty copy).
  constexpr size_t kLen = sizeof(uint64_t);  // every array's length prefix
  out.reserve(out.size() +
              cols * (2 * sizeof(Value) + kLen + rows * sizeof(Value)) +
              kLen + rows * sizeof(uint64_t) +   // ticks
              kLen + rows * sizeof(uint32_t) +   // batches
              kLen + rows * sizeof(uint64_t) +   // access counts
              kLen + (rows + 7) / 8);            // active bits

  for (size_t c = 0; c < cols; ++c) {
    const Column& col = table.column(c);
    w.I64(col.min_seen());
    w.I64(col.max_seen());
    // A mapped column's payload is spliced back into one contiguous array
    // (dropped partitions read as the scrub value), so a mapped table's
    // checkpoint blob is byte-identical to its vector-mode twin's.
    if (col.mapped()) {
      w.I64Array(col.CopyAll());
    } else {
      w.I64Array(col.data());
    }
  }

  std::vector<uint64_t> ticks(rows);
  std::vector<uint32_t> batches(rows);
  std::vector<uint64_t> access(rows);
  std::vector<bool> active(rows);
  for (RowId r = 0; r < rows; ++r) {
    ticks[r] = table.insert_tick(r);
    batches[r] = table.batch_of(r);
    access[r] = table.access_count(r);
    active[r] = table.IsActive(r);
  }
  w.U64Array(ticks);
  w.U32Array(batches);
  w.U64Array(access);
  w.BitArray(active);
  return out;
}

namespace {

/// Decodes the v2 (mapped) blob body past the schema and hands the parts
/// to Table::FromMappedParts, which re-maps the partition files.
StatusOr<Table> RestoreMappedTable(Reader* r, Schema schema,
                                   const std::string& storage_dir) {
  if (storage_dir.empty()) {
    return Status::InvalidArgument(
        "mapped checkpoint blob needs a storage directory");
  }
  Table::MappedParts parts;
  parts.schema = std::move(schema);
  const size_t cols = parts.schema.num_columns();

  uint64_t rows = 0;
  AMNESIA_RETURN_NOT_OK(r->U64(&rows));
  // The blob ends with a one-bit-per-row active bitmap, so a row count the
  // remaining bytes cannot hold is corrupt; checking it here bounds every
  // per-row allocation below.
  if (rows / 8 > r->remaining()) {
    return Status::InvalidArgument("mapped checkpoint row count exceeds blob");
  }
  AMNESIA_RETURN_NOT_OK(r->U64(&parts.next_tick));
  AMNESIA_RETURN_NOT_OK(r->U64(&parts.lifetime_forgotten));
  uint32_t batch = 0;
  AMNESIA_RETURN_NOT_OK(r->U32(&batch));
  parts.current_batch = batch;

  uint64_t partition_rows = 0, num_partitions = 0;
  AMNESIA_RETURN_NOT_OK(r->U64(&partition_rows));
  AMNESIA_RETURN_NOT_OK(r->U64(&num_partitions));
  // Each partition entry is 17 bytes: epoch_lo, epoch_hi, dropped flag.
  constexpr uint64_t kPartitionEntryBytes = 2 * sizeof(uint64_t) + 1;
  if (partition_rows == 0 || num_partitions > rows / partition_rows ||
      num_partitions > r->remaining() / kPartitionEntryBytes) {
    return Status::InvalidArgument(
        "mapped checkpoint partition geometry is inconsistent");
  }
  parts.partitions.resize(static_cast<size_t>(num_partitions));
  for (PartitionMeta& p : parts.partitions) {
    uint8_t dropped = 0;
    AMNESIA_RETURN_NOT_OK(r->U64(&p.epoch_lo));
    AMNESIA_RETURN_NOT_OK(r->U64(&p.epoch_hi));
    AMNESIA_RETURN_NOT_OK(r->U8(&dropped));
    p.dropped = dropped != 0;
  }
  const uint64_t tail = rows - num_partitions * partition_rows;

  parts.tail_columns.resize(cols);
  parts.min_seen.resize(cols);
  parts.max_seen.resize(cols);
  for (size_t c = 0; c < cols; ++c) {
    AMNESIA_RETURN_NOT_OK(r->I64(&parts.min_seen[c]));
    AMNESIA_RETURN_NOT_OK(r->I64(&parts.max_seen[c]));
    AMNESIA_RETURN_NOT_OK(r->I64Array(&parts.tail_columns[c]));
    if (parts.tail_columns[c].size() != tail) {
      return Status::InvalidArgument("checkpoint tail length mismatch");
    }
  }

  // Batches travel run-length encoded (one run per update batch).
  uint64_t batch_runs = 0;
  AMNESIA_RETURN_NOT_OK(r->U64(&batch_runs));
  parts.batches.reserve(static_cast<size_t>(rows));
  for (uint64_t i = 0; i < batch_runs; ++i) {
    uint32_t value = 0;
    uint64_t count = 0;
    AMNESIA_RETURN_NOT_OK(r->U32(&value));
    AMNESIA_RETURN_NOT_OK(r->U64(&count));
    if (count == 0 || parts.batches.size() + count > rows) {
      return Status::InvalidArgument("checkpoint batch runs exceed rows");
    }
    parts.batches.insert(parts.batches.end(), static_cast<size_t>(count),
                         value);
  }
  if (parts.batches.size() != rows) {
    return Status::InvalidArgument("checkpoint batch runs cover too few rows");
  }

  uint8_t access_rle = 0;
  AMNESIA_RETURN_NOT_OK(r->U8(&access_rle));
  if (access_rle != 0) {
    uint64_t access_runs = 0;
    AMNESIA_RETURN_NOT_OK(r->U64(&access_runs));
    parts.access_counts.reserve(static_cast<size_t>(rows));
    for (uint64_t i = 0; i < access_runs; ++i) {
      uint64_t value = 0, count = 0;
      AMNESIA_RETURN_NOT_OK(r->U64(&value));
      AMNESIA_RETURN_NOT_OK(r->U64(&count));
      if (count == 0 || parts.access_counts.size() + count > rows) {
        return Status::InvalidArgument("checkpoint access runs exceed rows");
      }
      parts.access_counts.insert(parts.access_counts.end(),
                                 static_cast<size_t>(count), value);
    }
  } else {
    AMNESIA_RETURN_NOT_OK(r->U64Array(&parts.access_counts));
  }
  if (parts.access_counts.size() != rows) {
    return Status::InvalidArgument("checkpoint access length mismatch");
  }

  AMNESIA_RETURN_NOT_OK(r->BitArray(&parts.active));
  if (parts.active.size() != rows) {
    return Status::InvalidArgument("checkpoint bitmap length mismatch");
  }

  // Mapped tables never compact, so ticks are always the contiguous run
  // ending at next_tick; the blob omits them.
  if (parts.next_tick < rows) {
    return Status::InvalidArgument("checkpoint next_tick below row count");
  }
  parts.insert_ticks.resize(static_cast<size_t>(rows));
  for (uint64_t i = 0; i < rows; ++i) {
    parts.insert_ticks[i] = parts.next_tick - rows + i;
  }

  parts.storage.backend = StorageBackend::kMapped;
  parts.storage.dir = storage_dir;
  parts.storage.partition_rows = partition_rows;
  return Table::FromMappedParts(std::move(parts));
}

}  // namespace

StatusOr<Table> RestoreTable(const std::vector<uint8_t>& buffer) {
  return RestoreTableWithStorage(buffer, "");
}

StatusOr<Table> RestoreTableWithStorage(const std::vector<uint8_t>& buffer,
                                        const std::string& storage_dir) {
  Reader r(buffer);
  uint32_t magic = 0, version = 0;
  AMNESIA_RETURN_NOT_OK(r.U32(&magic));
  if (magic != kTableBlobMagic) {
    return Status::InvalidArgument("not an AmnesiaDB checkpoint");
  }
  AMNESIA_RETURN_NOT_OK(r.U32(&version));
  if (version != kTableBlobVersion && version != kTableBlobVersionMapped) {
    return Status::FailedPrecondition("unsupported checkpoint version " +
                                      std::to_string(version));
  }

  uint64_t cols = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&cols));
  if (cols == 0 || cols > 1'000'000) {
    return Status::InvalidArgument("implausible column count");
  }
  std::vector<ColumnDef> defs(static_cast<size_t>(cols));
  for (auto& def : defs) {
    AMNESIA_RETURN_NOT_OK(r.String(&def.name));
    AMNESIA_RETURN_NOT_OK(r.I64(&def.domain_lo));
    AMNESIA_RETURN_NOT_OK(r.I64(&def.domain_hi));
  }

  if (version == kTableBlobVersionMapped) {
    return RestoreMappedTable(&r, Schema(std::move(defs)), storage_dir);
  }

  Table::RawParts parts;
  parts.schema = Schema(std::move(defs));

  uint64_t rows = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&rows));
  AMNESIA_RETURN_NOT_OK(r.U64(&parts.next_tick));
  AMNESIA_RETURN_NOT_OK(r.U64(&parts.lifetime_forgotten));
  uint32_t batch = 0;
  AMNESIA_RETURN_NOT_OK(r.U32(&batch));
  parts.current_batch = batch;

  parts.columns.resize(static_cast<size_t>(cols));
  parts.min_seen.resize(static_cast<size_t>(cols));
  parts.max_seen.resize(static_cast<size_t>(cols));
  for (size_t c = 0; c < cols; ++c) {
    AMNESIA_RETURN_NOT_OK(r.I64(&parts.min_seen[c]));
    AMNESIA_RETURN_NOT_OK(r.I64(&parts.max_seen[c]));
    AMNESIA_RETURN_NOT_OK(r.I64Array(&parts.columns[c]));
    if (parts.columns[c].size() != rows) {
      return Status::InvalidArgument("checkpoint column length mismatch");
    }
  }

  std::vector<uint32_t> batches;
  AMNESIA_RETURN_NOT_OK(r.U64Array(&parts.insert_ticks));
  AMNESIA_RETURN_NOT_OK(r.U32Array(&batches));
  AMNESIA_RETURN_NOT_OK(r.U64Array(&parts.access_counts));
  AMNESIA_RETURN_NOT_OK(r.BitArray(&parts.active));
  parts.batches.assign(batches.begin(), batches.end());

  return Table::FromRawParts(std::move(parts));
}

namespace {
constexpr uint32_t kDbMagic = 0x414D4442;     // "AMDB"
constexpr uint32_t kShardMagic = 0x414D5348;  // "AMSH"
constexpr uint32_t kColdMagic = 0x414D434C;   // "AMCL"
constexpr uint32_t kSummaryMagic = 0x414D5355;  // "AMSU"
}  // namespace

std::vector<uint8_t> CheckpointShardedTable(const ShardedTable& table,
                                            ThreadPool* pool) {
  std::vector<uint8_t> out;
  Writer w(&out);
  w.U32(kShardMagic);
  w.U32(kVersion);
  w.U64(table.num_shards());
  w.U64(table.ingest_cursor());

  // Serialize every shard blob first (concurrently when a pool is given),
  // then splice them into the container in shard order — the framing is
  // identical either way, so the serial and pooled writers are
  // bit-compatible.
  std::vector<size_t> all(table.num_shards());
  for (size_t s = 0; s < all.size(); ++s) all[s] = s;
  const std::vector<std::vector<uint8_t>> blobs =
      ckpt::SerializeBlobs(pool, table.num_shards(), all, [&table](size_t s) {
        return CheckpointTable(table.shard(static_cast<uint32_t>(s)).table());
      });
  for (const std::vector<uint8_t>& blob : blobs) {
    w.U64(blob.size());
    out.insert(out.end(), blob.begin(), blob.end());
  }
  return out;
}

StatusOr<ShardedTable> RestoreShardedTable(
    const std::vector<uint8_t>& buffer) {
  Reader r(buffer);
  uint32_t magic = 0, version = 0;
  AMNESIA_RETURN_NOT_OK(r.U32(&magic));
  if (magic != kShardMagic) {
    return Status::InvalidArgument("not an AmnesiaDB sharded checkpoint");
  }
  AMNESIA_RETURN_NOT_OK(r.U32(&version));
  if (version != kVersion) {
    return Status::FailedPrecondition("unsupported checkpoint version " +
                                      std::to_string(version));
  }
  uint64_t shards = 0;
  uint64_t cursor = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&shards));
  AMNESIA_RETURN_NOT_OK(r.U64(&cursor));
  if (shards == 0 || shards > kMaxShards) {
    return Status::InvalidArgument("implausible shard count");
  }
  std::vector<Table> tables;
  tables.reserve(static_cast<size_t>(shards));
  for (uint64_t s = 0; s < shards; ++s) {
    std::vector<uint8_t> blob;
    AMNESIA_RETURN_NOT_OK(r.ByteArray(&blob));
    AMNESIA_ASSIGN_OR_RETURN(Table table, RestoreTable(blob));
    tables.push_back(std::move(table));
  }
  return ShardedTable::FromShards(std::move(tables), cursor);
}

std::vector<uint8_t> CheckpointDatabase(const Database& db) {
  std::vector<uint8_t> out;
  Writer w(&out);
  w.U32(kDbMagic);
  w.U32(kVersion);
  const std::vector<std::string> names = db.TableNames();
  w.U64(names.size());
  for (const std::string& name : names) {
    w.String(name);
    const Table* table = db.GetTable(name).value();
    const std::vector<uint8_t> blob = CheckpointTable(*table);
    w.U64(blob.size());
    for (uint8_t b : blob) out.push_back(b);
  }
  const auto& fks = db.foreign_keys();
  w.U64(fks.size());
  for (const ForeignKey& fk : fks) {
    w.String(fk.child_table);
    w.U64(fk.child_col);
    w.String(fk.parent_table);
    w.U64(fk.parent_col);
  }
  return out;
}

StatusOr<Database> RestoreDatabase(const std::vector<uint8_t>& buffer) {
  Reader r(buffer);
  uint32_t magic = 0, version = 0;
  AMNESIA_RETURN_NOT_OK(r.U32(&magic));
  if (magic != kDbMagic) {
    return Status::InvalidArgument("not an AmnesiaDB database checkpoint");
  }
  AMNESIA_RETURN_NOT_OK(r.U32(&version));
  if (version != kVersion) {
    return Status::FailedPrecondition("unsupported checkpoint version");
  }
  Database db;
  uint64_t num_tables = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&num_tables));
  if (num_tables > 1'000'000) {
    return Status::InvalidArgument("implausible table count");
  }
  for (uint64_t i = 0; i < num_tables; ++i) {
    std::string name;
    AMNESIA_RETURN_NOT_OK(r.String(&name));
    std::vector<uint8_t> blob;
    AMNESIA_RETURN_NOT_OK(r.ByteArray(&blob));
    AMNESIA_ASSIGN_OR_RETURN(Table table, RestoreTable(blob));
    AMNESIA_RETURN_NOT_OK(db.AdoptTable(name, std::move(table)).status());
  }
  uint64_t num_fks = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&num_fks));
  if (num_fks > 1'000'000) {
    return Status::InvalidArgument("implausible foreign-key count");
  }
  for (uint64_t i = 0; i < num_fks; ++i) {
    ForeignKey fk;
    uint64_t child_col = 0, parent_col = 0;
    AMNESIA_RETURN_NOT_OK(r.String(&fk.child_table));
    AMNESIA_RETURN_NOT_OK(r.U64(&child_col));
    AMNESIA_RETURN_NOT_OK(r.String(&fk.parent_table));
    AMNESIA_RETURN_NOT_OK(r.U64(&parent_col));
    fk.child_col = static_cast<size_t>(child_col);
    fk.parent_col = static_cast<size_t>(parent_col);
    AMNESIA_RETURN_NOT_OK(db.AddForeignKey(fk));
  }
  return db;
}

// ------------------------------------------------------------ tier stores

namespace {

// Doubles (cost models, accumulated latencies, summary sums) are stored as
// their exact IEEE-754 bit pattern so restored tiers answer every query
// and accounting read identically.
void WriteDouble(Writer* w, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  w->U64(bits);
}

Status ReadDouble(Reader* r, double* v) {
  uint64_t bits = 0;
  AMNESIA_RETURN_NOT_OK(r->U64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> CheckpointColdStore(const ColdStore& store) {
  std::vector<uint8_t> out;
  Writer w(&out);
  w.U32(kColdMagic);
  w.U32(kVersion);

  const ColdStorageModel& m = store.model();
  WriteDouble(&w, m.storage_usd_per_tb_year);
  WriteDouble(&w, m.retrieval_usd_per_tb);
  WriteDouble(&w, m.retrieval_base_latency_ms);
  WriteDouble(&w, m.retrieval_latency_ms_per_mb);

  const auto& tuples = store.tuples();
  w.U64(tuples.size());
  for (const ColdTuple& t : tuples) {
    w.U64(t.origin_row);
    w.I64(t.value);
    w.U64(t.insert_tick);
    w.U32(t.batch);
  }

  const ColdStorageAccounting& a = store.accounting();
  w.U64(a.tuples_stored);
  w.U64(a.tuples_recalled);
  w.U64(a.recall_requests);
  WriteDouble(&w, a.simulated_latency_ms);
  WriteDouble(&w, a.simulated_recall_usd);
  return out;
}

StatusOr<ColdStore> RestoreColdStore(const std::vector<uint8_t>& buffer) {
  Reader r(buffer);
  uint32_t magic = 0, version = 0;
  AMNESIA_RETURN_NOT_OK(r.U32(&magic));
  if (magic != kColdMagic) {
    return Status::InvalidArgument("not an AmnesiaDB cold-store checkpoint");
  }
  AMNESIA_RETURN_NOT_OK(r.U32(&version));
  if (version != kVersion) {
    return Status::FailedPrecondition("unsupported checkpoint version");
  }

  ColdStorageModel model;
  AMNESIA_RETURN_NOT_OK(ReadDouble(&r, &model.storage_usd_per_tb_year));
  AMNESIA_RETURN_NOT_OK(ReadDouble(&r, &model.retrieval_usd_per_tb));
  AMNESIA_RETURN_NOT_OK(ReadDouble(&r, &model.retrieval_base_latency_ms));
  AMNESIA_RETURN_NOT_OK(ReadDouble(&r, &model.retrieval_latency_ms_per_mb));

  uint64_t n = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&n));
  if (n > (uint64_t{1} << 40)) {
    return Status::InvalidArgument("implausible cold-tuple count");
  }
  std::vector<ColdTuple> tuples;
  tuples.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    ColdTuple t;
    AMNESIA_RETURN_NOT_OK(r.U64(&t.origin_row));
    AMNESIA_RETURN_NOT_OK(r.I64(&t.value));
    AMNESIA_RETURN_NOT_OK(r.U64(&t.insert_tick));
    AMNESIA_RETURN_NOT_OK(r.U32(&t.batch));
    tuples.push_back(t);
  }

  ColdStorageAccounting acct;
  AMNESIA_RETURN_NOT_OK(r.U64(&acct.tuples_stored));
  AMNESIA_RETURN_NOT_OK(r.U64(&acct.tuples_recalled));
  AMNESIA_RETURN_NOT_OK(r.U64(&acct.recall_requests));
  AMNESIA_RETURN_NOT_OK(ReadDouble(&r, &acct.simulated_latency_ms));
  AMNESIA_RETURN_NOT_OK(ReadDouble(&r, &acct.simulated_recall_usd));
  return ColdStore::FromParts(model, std::move(tuples), acct);
}

std::vector<uint8_t> CheckpointSummaryStore(const SummaryStore& store) {
  std::vector<uint8_t> out;
  Writer w(&out);
  w.U32(kSummaryMagic);
  w.U32(kVersion);
  w.U64(store.cells().size());
  for (const auto& [key, summary] : store.cells()) {
    w.U64(key);
    w.U64(summary.count);
    WriteDouble(&w, summary.sum);
    w.I64(summary.min);
    w.I64(summary.max);
  }
  return out;
}

StatusOr<SummaryStore> RestoreSummaryStore(
    const std::vector<uint8_t>& buffer) {
  Reader r(buffer);
  uint32_t magic = 0, version = 0;
  AMNESIA_RETURN_NOT_OK(r.U32(&magic));
  if (magic != kSummaryMagic) {
    return Status::InvalidArgument(
        "not an AmnesiaDB summary-store checkpoint");
  }
  AMNESIA_RETURN_NOT_OK(r.U32(&version));
  if (version != kVersion) {
    return Status::FailedPrecondition("unsupported checkpoint version");
  }
  uint64_t n = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&n));
  if (n > (uint64_t{1} << 40)) {
    return Status::InvalidArgument("implausible summary-cell count");
  }
  std::map<uint64_t, Summary> cells;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    Summary s;
    AMNESIA_RETURN_NOT_OK(r.U64(&key));
    AMNESIA_RETURN_NOT_OK(r.U64(&s.count));
    AMNESIA_RETURN_NOT_OK(ReadDouble(&r, &s.sum));
    AMNESIA_RETURN_NOT_OK(r.I64(&s.min));
    AMNESIA_RETURN_NOT_OK(r.I64(&s.max));
    cells.emplace(key, s);
  }
  return SummaryStore::FromCells(std::move(cells));
}

// ------------------------------------------------------------ file layer

Status WriteBytesFileAtomic(const std::vector<uint8_t>& bytes,
                            const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + tmp + "' for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != bytes.size() || !close_ok) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename '" + tmp + "' into place");
  }
  return Status::OK();
}

StatusOr<std::vector<uint8_t>> ReadBytesFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return Status::Internal("cannot stat '" + path + "'");
  }
  std::vector<uint8_t> buffer(static_cast<size_t>(size));
  const size_t read = std::fread(buffer.data(), 1, buffer.size(), f);
  std::fclose(f);
  if (read != buffer.size()) {
    return Status::Internal("short read from '" + path + "'");
  }
  return buffer;
}

Status WriteCheckpointFile(const Table& table, const std::string& path) {
  return WriteBytesFileAtomic(CheckpointTable(table), path);
}

StatusOr<Table> ReadCheckpointFile(const std::string& path) {
  AMNESIA_ASSIGN_OR_RETURN(std::vector<uint8_t> buffer, ReadBytesFile(path));
  return RestoreTable(buffer);
}

Status WriteShardedCheckpointFile(const ShardedTable& table,
                                  const std::string& path, ThreadPool* pool) {
  return WriteBytesFileAtomic(CheckpointShardedTable(table, pool), path);
}

StatusOr<ShardedTable> ReadShardedCheckpointFile(const std::string& path) {
  AMNESIA_ASSIGN_OR_RETURN(std::vector<uint8_t> buffer, ReadBytesFile(path));
  return RestoreShardedTable(buffer);
}

}  // namespace amnesia
