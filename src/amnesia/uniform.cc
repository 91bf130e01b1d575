// Copyright 2026 The AmnesiaDB Authors

#include "amnesia/uniform.h"

namespace amnesia {

StatusOr<std::vector<RowId>> UniformPolicy::SelectVictims(const Table& table,
                                                          size_t k,
                                                          Rng* rng) {
  const size_t active = static_cast<size_t>(table.num_active());
  const std::vector<size_t> picks = rng->SampleWithoutReplacement(active, k);
  // One pass over the visibility bitmap resolves every pick; the victims
  // keep pick order, which is the order the journal records them in.
  const Bitmap& visible = table.active_bitmap();
  std::vector<RowId> victims;
  victims.reserve(picks.size());
  for (size_t row : visible.SelectSetMany(picks)) {
    victims.push_back(row == visible.size() ? kInvalidRow : row);
  }
  return victims;
}

}  // namespace amnesia
