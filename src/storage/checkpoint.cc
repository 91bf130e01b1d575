// Copyright 2026 The AmnesiaDB Authors

#include "storage/checkpoint.h"

#include <cstring>
#include <utility>

#include "storage/checkpoint_io.h"

namespace amnesia {

using ckpt::Reader;
using ckpt::Writer;

// ------------------------------------------------------------ table blobs

namespace {

constexpr uint32_t kTableBlobMagic = 0x414D4E45;  // "AMNE"
/// Self-contained layout: payload, ticks, batches, access counts, bitmap.
constexpr uint32_t kTableBlobVersion = 1;
/// Mapped-shard layout: partition metadata + unsealed tail; the sealed
/// payload is re-mapped from the partition files at restore. Version 2
/// carries the access counts and active bits of every row and is read
/// only; version 3 adds `row_base` and carries them from there on.
constexpr uint32_t kTableBlobVersionMappedV2 = 2;
constexpr uint32_t kTableBlobVersionMapped = 3;
/// Bytes of one batch run in a mapped blob: batch id, then row count.
constexpr uint64_t kBatchRunBytes = sizeof(uint32_t) + sizeof(uint64_t);

/// Writes the prefix every table blob opens with: magic, `version`, the
/// schema, then the row count, next tick, lifetime forget total and
/// current batch.
void WriteTableBlobPrefix(std::vector<uint8_t>* out, uint32_t version,
                          const Schema& schema, uint64_t rows,
                          uint64_t next_tick, uint64_t lifetime_forgotten,
                          BatchId current_batch) {
  Writer w(out);
  w.U32(kTableBlobMagic);
  w.U32(version);
  w.U64(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnDef& def = schema.column(c);
    w.String(def.name);
    w.I64(def.domain_lo);
    w.I64(def.domain_hi);
  }
  w.U64(rows);
  w.U64(next_tick);
  w.U64(lifetime_forgotten);
  w.U32(current_batch);
}

/// Writes the version 1 (self-contained) body after the prefix: each
/// column's extrema and whole payload, then the ticks, batches, access
/// counts and active bits. `write_column(&w, c)` writes column c; every
/// other array is written where it lies. The body has a known size, so it
/// is reserved once and the buffer never regrows (and never holds a
/// doubled, half-empty copy). The one writer of this layout, for a live
/// table (CheckpointTable) and for a vector image (EncodeTableParts).
template <typename WriteColumn>
void WriteSelfContainedBody(std::vector<uint8_t>* out, size_t cols,
                            const WriteColumn& write_column,
                            const std::vector<Tick>& ticks,
                            const std::vector<BatchId>& batches,
                            const std::vector<uint64_t>& access_counts,
                            const std::vector<bool>& active) {
  const uint64_t rows = active.size();
  constexpr size_t kLen = sizeof(uint64_t);  // every array's length prefix
  out->reserve(out->size() +
               cols * (2 * sizeof(Value) + kLen + rows * sizeof(Value)) +
               kLen + rows * sizeof(Tick) +     // ticks
               kLen + rows * sizeof(BatchId) +  // batches
               kLen + rows * sizeof(uint64_t) +  // access counts
               kLen + (rows + 7) / 8);           // active bits
  Writer w(out);
  for (size_t c = 0; c < cols; ++c) write_column(&w, c);
  w.U64Array(ticks);
  w.U32Array(batches);
  w.U64Array(access_counts);
  w.BitArray(active);
}

/// Writes the version 3 (mapped) body after the prefix. The sealed
/// payload never enters the blob — recovery re-maps the partition files —
/// and neither do the access counts and active bits of the dropped prefix
/// below `row_base`, so blob size and restore time scale with the live
/// partitions, the tail and one entry per batch and partition, not with
/// history. Ticks are omitted: the image derives them.
void WriteMappedBody(std::vector<uint8_t>* out, const Table::Parts& parts) {
  Writer w(out);
  w.U64(parts.storage.partition_rows);
  w.U64(parts.partitions.size());
  for (const PartitionMeta& p : parts.partitions) {
    w.U64(p.epoch_lo);
    w.U64(p.epoch_hi);
    w.U8(p.dropped ? 1 : 0);
  }
  w.U64(parts.row_base);

  for (size_t c = 0; c < parts.columns.size(); ++c) {
    w.I64(parts.min_seen[c]);
    w.I64(parts.max_seen[c]);
    w.I64Array(parts.columns[c]);
  }

  w.U64(parts.batches.size());
  for (const Table::BatchRun& run : parts.batches) {
    w.U32(run.batch);
    w.U64(run.rows);
  }

  // Access counts cluster (cold history is all zeros); RLE when it wins,
  // raw otherwise.
  std::vector<std::pair<uint64_t, uint64_t>> access_runs;
  for (const uint64_t a : parts.access_counts) {
    if (access_runs.empty() || access_runs.back().first != a) {
      access_runs.emplace_back(a, 1);
    } else {
      ++access_runs.back().second;
    }
  }
  const bool rle_wins = access_runs.size() * 2 < parts.access_counts.size();
  w.U8(rle_wins ? 1 : 0);
  if (rle_wins) {
    w.U64(access_runs.size());
    for (const auto& [value, count] : access_runs) {
      w.U64(value);
      w.U64(count);
    }
  } else {
    w.U64Array(parts.access_counts);
  }

  w.BitArray(parts.active);
}

}  // namespace

std::vector<uint8_t> CheckpointTable(const Table& table) {
  std::vector<uint8_t> out;
  const uint64_t rows = table.num_rows();
  WriteTableBlobPrefix(&out, kTableBlobVersion, table.schema(), rows,
                       table.lifetime_inserted(), table.lifetime_forgotten(),
                       table.current_batch());
  std::vector<bool> active(rows);
  for (RowId r = 0; r < rows; ++r) active[r] = table.IsActive(r);
  WriteSelfContainedBody(
      &out, table.num_columns(),
      [&table](Writer* w, size_t c) {
        const Column& col = table.column(c);
        w->I64(col.min_seen());
        w->I64(col.max_seen());
        // A mapped column's payload is spliced back into one contiguous
        // array (dropped partitions read as the scrub value), so a mapped
        // table's blob is byte-identical to its vector-mode twin's.
        if (col.mapped()) {
          w->I64Array(col.CopyAll());
        } else {
          w->I64Array(col.data());
        }
      },
      table.insert_ticks(), table.batches(), table.access_counts(), active);
  return out;
}

std::vector<uint8_t> EncodeTableParts(const Table::Parts& parts) {
  const bool mapped = parts.storage.backend == StorageBackend::kMapped;
  std::vector<uint8_t> out;
  WriteTableBlobPrefix(
      &out, mapped ? kTableBlobVersionMapped : kTableBlobVersion, parts.schema,
      parts.rows(), parts.next_tick, parts.lifetime_forgotten,
      parts.current_batch);
  if (mapped) {
    WriteMappedBody(&out, parts);
    return out;
  }
  // Version 1 stores one batch id per row; a vector image's row_base is 0.
  WriteSelfContainedBody(
      &out, parts.columns.size(),
      [&parts](Writer* w, size_t c) {
        w->I64(parts.min_seen[c]);
        w->I64(parts.max_seen[c]);
        w->I64Array(parts.columns[c]);
      },
      parts.insert_ticks, parts.BatchIds(), parts.access_counts,
      parts.active);
  return out;
}

namespace {

/// Decodes the version 1 (self-contained) body past the prefix.
Status DecodeSelfContainedBody(Reader* r, uint64_t rows, Table::Parts* parts) {
  const size_t cols = parts->schema.num_columns();
  parts->columns.resize(cols);
  parts->min_seen.resize(cols);
  parts->max_seen.resize(cols);
  for (size_t c = 0; c < cols; ++c) {
    AMNESIA_RETURN_NOT_OK(r->I64(&parts->min_seen[c]));
    AMNESIA_RETURN_NOT_OK(r->I64(&parts->max_seen[c]));
    AMNESIA_RETURN_NOT_OK(r->I64Array(&parts->columns[c]));
    if (parts->columns[c].size() != rows) {
      return Status::InvalidArgument("checkpoint column length mismatch");
    }
  }

  std::vector<uint32_t> batches;
  AMNESIA_RETURN_NOT_OK(r->U64Array(&parts->insert_ticks));
  AMNESIA_RETURN_NOT_OK(r->U32Array(&batches));
  AMNESIA_RETURN_NOT_OK(r->U64Array(&parts->access_counts));
  AMNESIA_RETURN_NOT_OK(r->BitArray(&parts->active));
  // Collapse the per-row ids into the image's runs; Table::FromParts
  // rejects runs that decrease or miss rows.
  for (const BatchId b : batches) {
    if (parts->batches.empty() || parts->batches.back().batch != b) {
      parts->batches.push_back(Table::BatchRun{b, 1});
    } else {
      ++parts->batches.back().rows;
    }
  }
  return Status::OK();
}

/// Decodes the version 2 or 3 (mapped) body past the prefix; a version 2
/// body has row_base 0. Table::FromParts then validates the image, expands
/// its batch runs and re-maps the partition files under `storage_dir`.
Status DecodeMappedBody(Reader* r, uint32_t version, uint64_t rows,
                        const std::string& storage_dir, Table::Parts* parts) {
  if (storage_dir.empty()) {
    return Status::InvalidArgument(
        "mapped checkpoint blob needs a storage directory");
  }
  const size_t cols = parts->schema.num_columns();

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
  parts->partitions.resize(static_cast<size_t>(num_partitions));
  for (PartitionMeta& p : parts->partitions) {
    uint8_t dropped = 0;
    AMNESIA_RETURN_NOT_OK(r->U64(&p.epoch_lo));
    AMNESIA_RETURN_NOT_OK(r->U64(&p.epoch_hi));
    AMNESIA_RETURN_NOT_OK(r->U8(&dropped));
    p.dropped = dropped != 0;
  }
  if (version == kTableBlobVersionMapped) {
    AMNESIA_RETURN_NOT_OK(r->U64(&parts->row_base));
  }
  // The blob ends with one active bit per row from row_base on, so a
  // suffix the remaining bytes cannot hold is corrupt; checking it here
  // bounds every per-row allocation below.
  if (parts->row_base > rows || (rows - parts->row_base) / 8 > r->remaining()) {
    return Status::InvalidArgument("mapped checkpoint row count exceeds blob");
  }
  const uint64_t suffix = rows - parts->row_base;
  const uint64_t tail = rows - num_partitions * partition_rows;

  parts->columns.resize(cols);
  parts->min_seen.resize(cols);
  parts->max_seen.resize(cols);
  for (size_t c = 0; c < cols; ++c) {
    AMNESIA_RETURN_NOT_OK(r->I64(&parts->min_seen[c]));
    AMNESIA_RETURN_NOT_OK(r->I64(&parts->max_seen[c]));
    AMNESIA_RETURN_NOT_OK(r->I64Array(&parts->columns[c]));
    if (parts->columns[c].size() != tail) {
      return Status::InvalidArgument("checkpoint tail length mismatch");
    }
  }

  // Batches travel as the image's runs (one per update batch); FromParts
  // checks that they cover the rows.
  uint64_t batch_runs = 0;
  AMNESIA_RETURN_NOT_OK(r->U64(&batch_runs));
  if (batch_runs > r->remaining() / kBatchRunBytes) {
    return Status::InvalidArgument("checkpoint batch runs exceed blob");
  }
  parts->batches.resize(static_cast<size_t>(batch_runs));
  for (Table::BatchRun& run : parts->batches) {
    AMNESIA_RETURN_NOT_OK(r->U32(&run.batch));
    AMNESIA_RETURN_NOT_OK(r->U64(&run.rows));
  }

  uint8_t access_rle = 0;
  AMNESIA_RETURN_NOT_OK(r->U8(&access_rle));
  if (access_rle != 0) {
    uint64_t access_runs = 0;
    AMNESIA_RETURN_NOT_OK(r->U64(&access_runs));
    parts->access_counts.reserve(static_cast<size_t>(suffix));
    for (uint64_t i = 0; i < access_runs; ++i) {
      uint64_t value = 0, count = 0;
      AMNESIA_RETURN_NOT_OK(r->U64(&value));
      AMNESIA_RETURN_NOT_OK(r->U64(&count));
      if (count == 0 || count > suffix - parts->access_counts.size()) {
        return Status::InvalidArgument("checkpoint access runs exceed rows");
      }
      parts->access_counts.insert(parts->access_counts.end(),
                                  static_cast<size_t>(count), value);
    }
  } else {
    AMNESIA_RETURN_NOT_OK(r->U64Array(&parts->access_counts));
  }
  if (parts->access_counts.size() != suffix) {
    return Status::InvalidArgument("checkpoint access length mismatch");
  }

  AMNESIA_RETURN_NOT_OK(r->BitArray(&parts->active));
  if (parts->active.size() != suffix) {
    return Status::InvalidArgument("checkpoint bitmap length mismatch");
  }

  // The blob omits ticks; Table::FromParts derives them.
  parts->storage.backend = StorageBackend::kMapped;
  parts->storage.dir = storage_dir;
  parts->storage.partition_rows = partition_rows;
  return Status::OK();
}

}  // namespace

StatusOr<Table> RestoreTable(const std::vector<uint8_t>& buffer,
                             const std::string& storage_dir) {
  Reader r(buffer);
  uint32_t magic = 0, version = 0;
  AMNESIA_RETURN_NOT_OK(r.U32(&magic));
  if (magic != kTableBlobMagic) {
    return Status::InvalidArgument("not an AmnesiaDB checkpoint");
  }
  AMNESIA_RETURN_NOT_OK(r.U32(&version));
  const bool mapped = version == kTableBlobVersionMappedV2 ||
                      version == kTableBlobVersionMapped;
  if (version != kTableBlobVersion && !mapped) {
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

  Table::Parts parts;
  parts.schema = Schema(std::move(defs));
  uint64_t rows = 0;
  uint32_t batch = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&rows));
  AMNESIA_RETURN_NOT_OK(r.U64(&parts.next_tick));
  AMNESIA_RETURN_NOT_OK(r.U64(&parts.lifetime_forgotten));
  AMNESIA_RETURN_NOT_OK(r.U32(&batch));
  parts.current_batch = batch;
  AMNESIA_RETURN_NOT_OK(
      mapped ? DecodeMappedBody(&r, version, rows, storage_dir, &parts)
             : DecodeSelfContainedBody(&r, rows, &parts));
  return Table::FromParts(std::move(parts));
}

// ------------------------------------------------------------ tier stores

namespace {

// Version of the tier containers.
constexpr uint32_t kVersion = 1;
constexpr uint32_t kColdMagic = 0x414D434C;   // "AMCL"
constexpr uint32_t kSummaryMagic = 0x414D5355;  // "AMSU"

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

}  // namespace amnesia
