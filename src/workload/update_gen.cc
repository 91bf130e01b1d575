// Copyright 2026 The AmnesiaDB Authors

#include "workload/update_gen.h"

#include <numeric>

namespace amnesia {

namespace {

StatusOr<std::vector<RowId>> AppendGenerated(Table* table,
                                             GroundTruthOracle* oracle,
                                             ValueGenerator* gen, size_t count,
                                             Rng* rng) {
  if (table->num_columns() != 1) {
    return Status::InvalidArgument(
        "workload ingest drives single-column tables");
  }
  // Values are drawn in row order, which every seeded run depends on; the
  // table then takes the whole batch in one bulk append.
  std::vector<std::vector<Value>> columns(1);
  std::vector<Value>& batch = columns[0];
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    batch.push_back(gen->Next(rng));
    oracle->Append(batch.back());
  }
  std::vector<RowId> rows(count);
  std::iota(rows.begin(), rows.end(), table->num_rows());
  AMNESIA_RETURN_NOT_OK(table->AppendColumns(columns).status());
  oracle->Seal();
  return rows;
}

}  // namespace

StatusOr<std::vector<RowId>> InitialLoad(Table* table,
                                         GroundTruthOracle* oracle,
                                         ValueGenerator* gen, size_t count,
                                         Rng* rng) {
  if (table->num_rows() != 0) {
    return Status::FailedPrecondition("initial load on a non-empty table");
  }
  return AppendGenerated(table, oracle, gen, count, rng);
}

StatusOr<std::vector<RowId>> ApplyUpdateBatch(Table* table,
                                              GroundTruthOracle* oracle,
                                              ValueGenerator* gen,
                                              size_t count, Rng* rng) {
  table->BeginBatch();
  return AppendGenerated(table, oracle, gen, count, rng);
}

}  // namespace amnesia
