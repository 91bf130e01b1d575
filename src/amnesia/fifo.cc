// Copyright 2026 The AmnesiaDB Authors

#include "amnesia/fifo.h"

#include <algorithm>

namespace amnesia {

StatusOr<std::vector<RowId>> FifoPolicy::SelectVictims(const Table& table,
                                                       size_t k, Rng* rng) {
  (void)rng;  // deterministic policy
  std::vector<RowId> victims;
  const size_t want = std::min<size_t>(k, table.num_active());
  victims.reserve(want);
  // RowId order equals insertion order (append-only storage, and
  // compaction preserves relative order), so the oldest active tuples are
  // simply the first active rows, starting at the oldest live one.
  // Verified against insert_tick in tests.
  const uint64_t n = table.num_rows();
  for (RowId r = table.NthActiveRow(0); r < n && victims.size() < want;
       ++r) {
    if (table.IsActive(r)) victims.push_back(r);
  }
  return victims;
}

}  // namespace amnesia
