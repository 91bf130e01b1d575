// Copyright 2026 The AmnesiaDB Authors

#include "storage/table.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>

#include "common/fs.h"
#include "obs/engine_metrics.h"
#include "storage/mapped_file.h"

namespace amnesia {
namespace {

/// Rounds up to a power of two, clamped to [64, 2^62].
uint64_t NormalizePartitionRows(uint64_t rows) {
  uint64_t p = 64;
  while (p < rows && p < (uint64_t{1} << 62)) p <<= 1;
  return p;
}

}  // namespace

LiveCandidates::LiveCandidates(LiveCandidates&& other) noexcept
    : block_start_(std::move(other.block_start_)),
      offsets_(std::move(other.offsets_)),
      values_(std::move(other.values_)),
      version_(other.version_.exchange(kUnbuilt, std::memory_order_relaxed)) {
}

LiveCandidates& LiveCandidates::operator=(LiveCandidates&& other) noexcept {
  if (this == &other) return *this;
  block_start_ = std::move(other.block_start_);
  offsets_ = std::move(other.offsets_);
  values_ = std::move(other.values_);
  version_.store(other.version_.exchange(kUnbuilt, std::memory_order_relaxed),
                 std::memory_order_relaxed);
  return *this;
}

uint64_t LiveCandidates::LowerBound(RowId row) const {
  const uint64_t b = row >> kBlockBits;
  if (b + 1 >= block_start_.size()) return size();
  const uint64_t lo = block_start_[b];
  const uint16_t off = static_cast<uint16_t>(row);
  if (off == 0) return lo;
  const uint16_t* first = offsets_.data() + lo;
  const uint16_t* last = offsets_.data() + block_start_[b + 1];
  return static_cast<uint64_t>(std::lower_bound(first, last, off) -
                               offsets_.data());
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
}

StatusOr<Table> Table::Make(Schema schema) {
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table needs at least one column");
  }
  return Table(std::move(schema));
}

StatusOr<Table> Table::Make(Schema schema, StorageOptions storage) {
  if (storage.backend == StorageBackend::kVector) {
    return Make(std::move(schema));
  }
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table needs at least one column");
  }
  if (storage.dir.empty()) {
    return Status::InvalidArgument("mapped storage needs a directory");
  }
  storage.partition_rows = NormalizePartitionRows(storage.partition_rows);
  AMNESIA_RETURN_NOT_OK(EnsureDir(storage.dir));
  Table table(std::move(schema));
  table.storage_ = std::move(storage);
  for (auto& col : table.columns_) {
    col.SetMapped(table.storage_.partition_rows);
  }
  return table;
}

StatusOr<Table> Table::FromParts(Parts parts) {
  const bool mapped = parts.storage.backend == StorageBackend::kMapped;
  const uint64_t pr = parts.storage.partition_rows;
  if (mapped) {
    if (parts.storage.dir.empty()) {
      return Status::InvalidArgument("table parts: missing storage dir");
    }
    if (pr < 64 || (pr & (pr - 1)) != 0) {
      return Status::InvalidArgument("table parts: bad partition_rows");
    }
  } else if (!parts.partitions.empty()) {
    return Status::InvalidArgument("table parts: partitions on a vector table");
  }
  if (parts.schema.num_columns() == 0 ||
      parts.columns.size() != parts.schema.num_columns()) {
    return Status::InvalidArgument("table parts: column/schema mismatch");
  }
  if (parts.min_seen.size() != parts.columns.size() ||
      parts.max_seen.size() != parts.columns.size()) {
    return Status::InvalidArgument("table parts: extrema arity mismatch");
  }
  const size_t payload = parts.columns[0].size();
  for (const auto& col : parts.columns) {
    if (col.size() != payload) {
      return Status::InvalidArgument("table parts: ragged columns");
    }
  }
  uint64_t rows = payload;
  const uint64_t row_base = parts.row_base;
  if (mapped) {
    if (payload >= pr) {
      return Status::InvalidArgument("table parts: tail spans a partition");
    }
    if (!parts.insert_ticks.empty()) {
      return Status::InvalidArgument("table parts: ticks on a mapped table");
    }
    if (parts.partitions.size() > (~uint64_t{0} - payload) / pr) {
      return Status::InvalidArgument("table parts: row count overflows");
    }
    const uint64_t sealed = parts.partitions.size() * pr;
    rows += sealed;
    if (row_base % pr != 0) {
      return Status::InvalidArgument(
          "table parts: row_base off a partition boundary");
    }
    if (row_base > sealed) {
      return Status::InvalidArgument(
          "table parts: row_base past the sealed rows");
    }
    for (size_t i = 0; i < row_base / pr; ++i) {
      if (!parts.partitions[i].dropped) {
        return Status::InvalidArgument(
            "table parts: live partition below row_base");
      }
    }
  } else if (parts.insert_ticks.size() != rows) {
    return Status::InvalidArgument("table parts: tick length mismatch");
  } else if (row_base != 0) {
    return Status::InvalidArgument("table parts: row_base on a vector table");
  }
  if (rows > kMaxImageRows) {
    return Status::InvalidArgument(
        "table parts: more rows than an image may restore");
  }
  if (parts.access_counts.size() != rows - row_base ||
      parts.active.size() != rows - row_base) {
    return Status::InvalidArgument("table parts: metadata length mismatch");
  }
  if (parts.next_tick < rows) {
    return Status::InvalidArgument("table parts: next_tick below row count");
  }
  // Batch runs: none empty, none below its predecessor or past the batch
  // the next append stamps, and together exactly the rows.
  uint64_t covered = 0;
  for (size_t i = 0; i < parts.batches.size(); ++i) {
    const BatchRun& run = parts.batches[i];
    if (run.rows == 0) {
      return Status::InvalidArgument("table parts: empty batch run");
    }
    if (i > 0 && run.batch < parts.batches[i - 1].batch) {
      return Status::InvalidArgument("table parts: batch runs decrease");
    }
    if (run.batch > parts.current_batch) {
      return Status::InvalidArgument(
          "table parts: batch run past the current batch");
    }
    if (run.rows > rows - covered) {
      return Status::InvalidArgument("table parts: batch runs exceed rows");
    }
    covered += run.rows;
  }
  if (covered != rows) {
    return Status::InvalidArgument(
        "table parts: batch runs cover too few rows");
  }
  // A dropped partition's rows are gone: none may be active, and each
  // reads access count 0 (a version 2 blob may carry stale counts).
  for (size_t i = mapped ? row_base / pr : 0; i < parts.partitions.size();
       ++i) {
    if (!parts.partitions[i].dropped) continue;
    const uint64_t begin = i * pr - row_base;
    for (uint64_t k = begin; k < begin + pr; ++k) {
      if (parts.active[k]) {
        return Status::InvalidArgument(
            "table parts: active row inside a dropped partition");
      }
      parts.access_counts[k] = 0;
    }
  }

  Table table(std::move(parts.schema));
  if (mapped) {
    // Mapped tables never compact, so the ticks are the contiguous run
    // ending at next_tick.
    parts.insert_ticks.resize(static_cast<size_t>(rows));
    std::iota(parts.insert_ticks.begin(), parts.insert_ticks.end(),
              parts.next_tick - rows);
    table.storage_ = std::move(parts.storage);
    for (auto& col : table.columns_) col.SetMapped(pr);
    for (const PartitionMeta& p : parts.partitions) {
      if (p.dropped) {
        for (auto& col : table.columns_) col.AttachDroppedSegment();
      } else {
        const std::string live =
            table.storage_.dir + "/" + PartitionDirName(p.epoch_lo, p.epoch_hi);
        const std::string renamed =
            table.storage_.dir + "/" +
            DroppedPartitionDirName(p.epoch_lo, p.epoch_hi);
        const std::string dir = StatPath(live).is_dir ? live : renamed;
        for (size_t c = 0; c < table.columns_.size(); ++c) {
          const std::string path =
              dir + "/" + PartitionColumnFileName(table.schema_.column(c).name);
          AMNESIA_ASSIGN_OR_RETURN(MappedColumnFile file,
                                   MappedColumnFile::Map(path, pr));
          if (file.epoch_lo() != p.epoch_lo || file.epoch_hi() != p.epoch_hi) {
            return Status::InvalidArgument("partition file '" + path +
                                           "': epoch mismatch");
          }
          AMNESIA_RETURN_NOT_OK(
              table.columns_[c].AttachSegment(std::move(file)));
        }
      }
      table.partitions_.push_back(p);
    }
  }
  for (size_t c = 0; c < parts.columns.size(); ++c) {
    table.columns_[c].ReplaceData(std::move(parts.columns[c]));
    table.columns_[c].OverrideExtrema(parts.min_seen[c], parts.max_seen[c]);
  }
  table.insert_tick_ = std::move(parts.insert_ticks);
  // Expand the runs and the dropped prefix into arrays reserved at their
  // final size: no regrowth, and never two history-sized copies at once.
  table.batch_of_ = parts.BatchIds();
  if (row_base == 0) {
    table.access_count_ = std::move(parts.access_counts);
  } else {
    table.access_count_.reserve(static_cast<size_t>(rows));
    table.access_count_.assign(static_cast<size_t>(row_base), 0);
    table.access_count_.insert(table.access_count_.end(),
                               parts.access_counts.begin(),
                               parts.access_counts.end());
  }
  table.active_ = Bitmap(rows, false);
  uint64_t active_count = 0;
  for (size_t i = 0; i < parts.active.size(); ++i) {
    if (parts.active[i]) {
      table.active_.Set(row_base + i);
      ++active_count;
    }
  }
  table.num_active_ = active_count;
  table.next_tick_ = parts.next_tick;
  table.lifetime_forgotten_ = parts.lifetime_forgotten;
  table.current_batch_ = parts.current_batch;
  table.version_ = 1;  // restored tables start a fresh version history
  return table;
}

std::vector<BatchId> Table::Parts::BatchIds() const {
  std::vector<BatchId> ids;
  ids.reserve(static_cast<size_t>(rows()));
  for (const BatchRun& run : batches) {
    ids.insert(ids.end(), static_cast<size_t>(run.rows), run.batch);
  }
  return ids;
}

Table::Parts Table::ToParts() const {
  Parts parts;
  parts.schema = schema_;
  parts.storage = storage_;
  parts.partitions = partitions_;
  parts.columns.reserve(columns_.size());
  for (const Column& col : columns_) {
    parts.columns.push_back(col.data());
    parts.min_seen.push_back(col.min_seen());
    parts.max_seen.push_back(col.max_seen());
  }
  // A mapped image derives its ticks (see Parts::insert_ticks).
  if (!mapped()) parts.insert_ticks = insert_tick_;
  // The per-row arrays start at the first partition not dropped: every
  // row below it is inactive, reads the scrub value and has access count
  // 0 (DropPartition reset it).
  size_t first_live = 0;
  while (first_live < partitions_.size() && partitions_[first_live].dropped) {
    ++first_live;
  }
  const uint64_t rows = num_rows();
  parts.row_base = first_live * partition_rows();
  // Batch ids never decrease in row order, so each run ends at its batch's
  // upper bound. Gallop from the run's start (probe 1, 2, 4, ... rows
  // ahead while the probe stays in the run), then binary-search the last
  // step: O(log run) reads near the run, not a search over the history.
  for (auto it = batch_of_.begin(); it != batch_of_.end();) {
    const BatchId batch = *it;
    const size_t left = static_cast<size_t>(batch_of_.end() - it);
    size_t bound = 1;
    while (bound < left && it[bound] == batch) bound *= 2;
    const auto end =
        std::upper_bound(it + bound / 2, it + std::min(bound, left), batch);
    parts.batches.push_back(BatchRun{batch, static_cast<uint64_t>(end - it)});
    it = end;
  }
  parts.access_counts.assign(access_count_.begin() + parts.row_base,
                             access_count_.end());
  parts.active.resize(rows - parts.row_base);
  for (RowId r = parts.row_base; r < rows; ++r) {
    parts.active[r - parts.row_base] = active_.Test(r);
  }
  parts.next_tick = next_tick_;
  parts.lifetime_forgotten = lifetime_forgotten_;
  parts.current_batch = current_batch_;
  return parts;
}

StatusOr<RowId> Table::AppendRow(const std::vector<Value>& values) {
  std::vector<std::vector<Value>> columns;
  columns.reserve(values.size());
  for (Value v : values) columns.push_back({v});
  const RowId row = num_rows();
  AMNESIA_RETURN_NOT_OK(AppendColumns(columns).status());
  return row;
}

StatusOr<uint64_t> Table::AppendColumns(
    const std::vector<std::vector<Value>>& columns) {
  if (columns.size() != columns_.size()) {
    return Status::InvalidArgument(
        "column arity " + std::to_string(columns.size()) +
        " != schema arity " + std::to_string(columns_.size()));
  }
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  for (const auto& col : columns) {
    if (col.size() != rows) {
      return Status::InvalidArgument("ragged bulk-append columns");
    }
  }
  if (rows == 0) return uint64_t{0};

  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendMany(columns[c]);
  }
  const uint64_t old_rows = insert_tick_.size();
  active_.Resize(old_rows + rows, true);
  for (size_t i = 0; i < rows; ++i) {
    insert_tick_.push_back(next_tick_++);
    batch_of_.push_back(current_batch_);
    access_count_.push_back(0);
  }
  num_active_ += rows;
  version_ += rows;  // one per row, whatever the call's size
  AMNESIA_RETURN_NOT_OK(MaybeSealTail());
  return static_cast<uint64_t>(rows);
}

Status Table::MaybeSealTail() {
  if (!mapped()) return Status::OK();
  while (num_rows() - sealed_rows() >= storage_.partition_rows) {
    AMNESIA_RETURN_NOT_OK(SealTailPartition());
  }
  return Status::OK();
}

Status Table::SealTailPartition() {
  const uint64_t begin = sealed_rows();
  const Tick lo = insert_tick_[begin];
  const Tick hi = insert_tick_[begin + storage_.partition_rows - 1];
  const std::string dir = storage_.dir + "/" + PartitionDirName(lo, hi);
  AMNESIA_RETURN_NOT_OK(EnsureDir(dir));
  for (size_t c = 0; c < columns_.size(); ++c) {
    AMNESIA_RETURN_NOT_OK(columns_[c].SealTail(
        dir + "/" + PartitionColumnFileName(schema_.column(c).name), lo, hi));
  }
  partitions_.push_back(PartitionMeta{lo, hi, false});
  ++version_;
  obs::EngineMetrics::Get().storage_partitions_created->Inc();
  return Status::OK();
}

StatusOr<uint64_t> Table::DropPartition(size_t idx, bool defer_unlink) {
  if (!mapped()) {
    return Status::FailedPrecondition("DropPartition on a vector table");
  }
  if (idx >= partitions_.size()) {
    return Status::OutOfRange("partition " + std::to_string(idx) +
                              " out of range [0, " +
                              std::to_string(partitions_.size()) + ")");
  }
  PartitionMeta& p = partitions_[idx];
  const std::string live =
      storage_.dir + "/" + PartitionDirName(p.epoch_lo, p.epoch_hi);
  const std::string dropped =
      storage_.dir + "/" + DroppedPartitionDirName(p.epoch_lo, p.epoch_hi);
  if (p.dropped) {
    // Replaying a drop the restored state already reflects.
    if (!defer_unlink) AMNESIA_RETURN_NOT_OK(RemoveDirRecursive(dropped));
    return uint64_t{0};
  }
  // Rename FIRST, then let the caller journal the drop: the rename leaves
  // every byte in place, so whichever of {rename, journal record} a crash
  // keeps, recovery is consistent — rename lost: partition intact under
  // its live name; journal record lost: partition restores intact from
  // the .dropped name and its rows come back active.
  if (Status renamed = RenamePath(live, dropped); !renamed.ok()) {
    if (renamed.code() == StatusCode::kFailedPrecondition &&
        StatPath(dropped).is_dir) {
      // Replay re-sealed the partition under its live name while the
      // original drop's `.dropped` copy still waits for retention GC. Both
      // hold this partition's rows; keep the copy a retained manifest may
      // still map and remove the re-sealed one.
      AMNESIA_RETURN_NOT_OK(RemoveDirRecursive(live));
    } else if (renamed.code() != StatusCode::kNotFound ||
               StatPath(live).is_dir) {
      // A missing source without a live directory is a re-drop after a
      // crash between rename and journal flush: the source is gone but the
      // target exists (or, when the unlink also completed and the drop
      // record survived, both are gone) — proceed either way.
      return renamed;
    }
  }

  const RowId row_begin = static_cast<RowId>(idx) * storage_.partition_rows;
  const RowId row_end = row_begin + storage_.partition_rows;
  const uint64_t newly = active_.CountSetRange(row_begin, row_end);
  active_.ClearRange(row_begin, row_end);
  std::fill(access_count_.begin() + row_begin,
            access_count_.begin() + row_end, 0);
  num_active_ -= newly;
  lifetime_forgotten_ += newly;
  for (auto& col : columns_) col.DropSegment(idx);
  p.dropped = true;
  ++version_;
  obs::EngineMetrics::Get().storage_partitions_dropped->Inc();
  if (!defer_unlink) {
    // Nothing journals this drop, so only this fsync makes it durable.
    AMNESIA_RETURN_NOT_OK(RemoveDirRecursive(dropped));
    AMNESIA_RETURN_NOT_OK(FsyncPath(storage_.dir));
  }
  return newly;
}

const LiveCandidates& Table::live_candidates() const {
  if (live_.version_.load(std::memory_order_acquire) != version_) {
    std::lock_guard<std::mutex> lock(live_.mu_);
    if (live_.version_.load(std::memory_order_relaxed) != version_) {
      RebuildLiveCandidates();
      live_.version_.store(version_, std::memory_order_release);
    }
  }
  return live_;
}

void Table::RebuildLiveCandidates() const {
  constexpr unsigned kBits = LiveCandidates::kBlockBits;
  const uint64_t rows = num_rows();
  const uint64_t blocks = (rows + (uint64_t{1} << kBits) - 1) >> kBits;
  // resize, never assign or shrink: the buffers keep their capacity from
  // one version to the next, so a steady live set allocates nothing.
  std::vector<uint64_t>& block_start = live_.block_start_;
  std::vector<uint16_t>& offsets = live_.offsets_;
  block_start.resize(blocks + 1);
  offsets.resize(num_active_);
  uint64_t k = 0;
  uint64_t next_block = 0;
  active_.ForEachSet([&](size_t r) {
    while (next_block <= (r >> kBits)) block_start[next_block++] = k;
    offsets[k++] = static_cast<uint16_t>(r);
  });
  while (next_block <= blocks) block_start[next_block++] = k;

  live_.values_.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    live_.values_[c].resize(num_active_);
    Value* out = live_.values_[c].data();
    // Span by span, so a mapped column is read in place, partition by
    // partition.
    columns_[c].ForEachSpan(0, rows, [&](RowId first, ValueSpan vals) {
      live_.ForEachRun(
          live_.SliceOf(first, first + vals.size),
          [&](uint64_t lo, uint64_t hi, RowId base) {
            for (uint64_t i = lo; i < hi; ++i) {
              out[i] = vals[base + offsets[i] - first];
            }
          });
    });
  }
}

uint64_t Table::MappedBytes() const {
  uint64_t total = 0;
  for (const auto& col : columns_) total += col.MappedBytes();
  return total;
}

Status Table::Forget(RowId row) {
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range [0, " +
                              std::to_string(num_rows()) + ")");
  }
  if (!active_.Test(row)) {
    return Status::FailedPrecondition("row " + std::to_string(row) +
                                      " is already forgotten");
  }
  active_.Clear(row);
  --num_active_;
  ++lifetime_forgotten_;
  ++version_;
  return Status::OK();
}

Status Table::Revive(RowId row) {
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range [0, " +
                              std::to_string(num_rows()) + ")");
  }
  if (active_.Test(row)) {
    return Status::FailedPrecondition("row " + std::to_string(row) +
                                      " is active");
  }
  if (InDroppedPartition(row)) {
    return Status::FailedPrecondition("row " + std::to_string(row) +
                                      " lies in a dropped partition");
  }
  active_.Set(row);
  ++num_active_;
  // Forgetting was observed; reviving does not rewrite history.
  ++version_;
  return Status::OK();
}

std::vector<RowId> Table::ActiveRows() const {
  std::vector<RowId> out;
  out.reserve(num_active_);
  active_.ForEachSet([&out](size_t i) { out.push_back(i); });
  return out;
}

RowId Table::NthActiveRow(uint64_t k) const {
  const size_t idx = active_.SelectSet(k);
  return idx == active_.size() ? kInvalidRow : idx;
}

Status Table::ScrubRow(RowId row, Value scrub_value) {
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range");
  }
  if (active_.Test(row)) {
    return Status::FailedPrecondition("refusing to scrub active row " +
                                      std::to_string(row));
  }
  for (auto& col : columns_) col.Set(row, scrub_value);
  ++version_;
  return Status::OK();
}

RowMapping Table::CompactForgotten() {
  RowMapping mapping;
  const uint64_t n = num_rows();
  if (mapped()) {
    // Sealed files keep their RowIds stable; space is reclaimed
    // partition-wise by DropPartition instead. Identity mapping, nothing
    // removed, no version bump (no structural change happened).
    mapping.old_to_new.resize(n);
    std::iota(mapping.old_to_new.begin(), mapping.old_to_new.end(), RowId{0});
    return mapping;
  }
  mapping.old_to_new.assign(n, kInvalidRow);

  std::vector<Tick> new_ticks;
  std::vector<BatchId> new_batches;
  std::vector<uint64_t> new_access;
  new_ticks.reserve(num_active_);
  new_batches.reserve(num_active_);
  new_access.reserve(num_active_);

  std::vector<std::vector<Value>> new_data(columns_.size());
  for (auto& d : new_data) d.reserve(num_active_);

  RowId next = 0;
  for (RowId r = 0; r < n; ++r) {
    if (!active_.Test(r)) continue;
    mapping.old_to_new[r] = next++;
    new_ticks.push_back(insert_tick_[r]);
    new_batches.push_back(batch_of_[r]);
    new_access.push_back(access_count_[r]);
    for (size_t c = 0; c < columns_.size(); ++c) {
      new_data[c].push_back(columns_[c].Get(r));
    }
  }
  mapping.removed = n - next;

  for (size_t c = 0; c < columns_.size(); ++c) {
    // ReplaceData recomputes extrema from the surviving payload; the
    // table-level max/min-seen are historical by contract (they drive the
    // paper's query generator), so restore the pre-compaction bounds.
    const Value min_seen = columns_[c].min_seen();
    const Value max_seen = columns_[c].max_seen();
    columns_[c].ReplaceData(std::move(new_data[c]));
    columns_[c].OverrideExtrema(min_seen, max_seen);
  }
  insert_tick_ = std::move(new_ticks);
  batch_of_ = std::move(new_batches);
  access_count_ = std::move(new_access);
  active_ = Bitmap(next, true);
  num_active_ = next;
  ++version_;
  return mapping;
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) bytes += col.ApproxBytes();
  bytes += insert_tick_.capacity() * sizeof(Tick);
  bytes += batch_of_.capacity() * sizeof(BatchId);
  bytes += access_count_.capacity() * sizeof(uint64_t);
  bytes += active_.size() / 8;
  return bytes;
}

}  // namespace amnesia
