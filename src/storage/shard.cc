// Copyright 2026 The AmnesiaDB Authors

#include "storage/shard.h"

#include <algorithm>
#include <utility>

namespace amnesia {

ShardedMorselRange::ShardedMorselRange(std::vector<MorselRange> shards)
    : shards_(std::move(shards)) {
  prefix_.reserve(shards_.size() + 1);
  prefix_.push_back(0);
  for (const MorselRange& range : shards_) {
    prefix_.push_back(prefix_.back() + range.count());
  }
}

ShardMorsel ShardedMorselRange::at(uint64_t i) const {
  // Find the shard whose morsel interval [prefix_[s], prefix_[s+1])
  // contains i; empty shards contribute empty intervals and are skipped.
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), i);
  const size_t s = static_cast<size_t>(it - prefix_.begin()) - 1;
  ShardMorsel out;
  out.shard = static_cast<uint32_t>(s);
  out.morsel = shards_[s].at(i - prefix_[s]);
  return out;
}

}  // namespace amnesia
