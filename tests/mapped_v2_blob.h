// Copyright 2026 The AmnesiaDB Authors
//
// Test support: hand-encodes a mapped table in the version 2 table-blob
// layout. Earlier builds wrote it; this one only reads it (as row_base 0),
// so the tests that check a checkpoint directory of an earlier build still
// recovers build their blobs here.

#ifndef AMNESIA_TESTS_MAPPED_V2_BLOB_H_
#define AMNESIA_TESTS_MAPPED_V2_BLOB_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/checkpoint_io.h"
#include "storage/table.h"

namespace amnesia {

/// Returns `t`'s version 2 blob: the schema and counters, the partition
/// list, the tail, one batch run per batch, then the access count and
/// active bit of every row. `access_counts` holds one count per row;
/// earlier builds kept a dropped row's count, which this build resets to
/// 0, so a test passes the counts those builds would have written.
inline std::vector<uint8_t> EncodeMappedV2(
    const Table& t, const std::vector<uint64_t>& access_counts) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  w.U32(0x414D4E45);  // magic "AMNE"
  w.U32(2);
  w.U64(t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    w.String(t.schema().column(c).name);
    w.I64(t.schema().column(c).domain_lo);
    w.I64(t.schema().column(c).domain_hi);
  }
  w.U64(t.num_rows());
  w.U64(t.lifetime_inserted());
  w.U64(t.lifetime_forgotten());
  w.U32(t.current_batch());
  w.U64(t.partition_rows());
  w.U64(t.partitions().size());
  for (const PartitionMeta& p : t.partitions()) {
    w.U64(p.epoch_lo);
    w.U64(p.epoch_hi);
    w.U8(p.dropped ? 1 : 0);
  }
  for (size_t c = 0; c < t.num_columns(); ++c) {
    w.I64(t.min_seen(c));
    w.I64(t.max_seen(c));
    w.I64Array(t.column(c).data());  // a mapped column's data() is its tail
  }
  std::vector<std::pair<BatchId, uint64_t>> runs;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (runs.empty() || runs.back().first != t.batch_of(r)) {
      runs.emplace_back(t.batch_of(r), 0);
    }
    ++runs.back().second;
  }
  w.U64(runs.size());
  for (const auto& [batch, rows] : runs) {
    w.U32(batch);
    w.U64(rows);
  }
  // Access counts run-length encoded when that halves the entries, raw
  // otherwise.
  std::vector<std::pair<uint64_t, uint64_t>> access_runs;
  for (const uint64_t a : access_counts) {
    if (access_runs.empty() || access_runs.back().first != a) {
      access_runs.emplace_back(a, 0);
    }
    ++access_runs.back().second;
  }
  const bool rle = access_runs.size() * 2 < access_counts.size();
  w.U8(rle ? 1 : 0);
  if (rle) {
    w.U64(access_runs.size());
    for (const auto& [value, rows] : access_runs) {
      w.U64(value);
      w.U64(rows);
    }
  } else {
    w.U64Array(access_counts);
  }
  std::vector<bool> active(t.num_rows());
  for (RowId r = 0; r < t.num_rows(); ++r) active[r] = t.IsActive(r);
  w.BitArray(active);
  return out;
}

}  // namespace amnesia

#endif  // AMNESIA_TESTS_MAPPED_V2_BLOB_H_
