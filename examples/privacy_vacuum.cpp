// Copyright 2026 The AmnesiaDB Authors
//
// Privacy-mandated forgetting (§1: "observations that are constrained by
// a Data Privacy Act should be forgotten within the legally defined time
// frame"; §5 cites TSQL2-style vacuuming and Snapchat as the proof of
// need).
//
// A table of user events runs under a generous storage budget, but a
// retention regulation demands that events older than RETENTION batches be
// unrecoverable. The controller's VacuumExpired() with the delete backend
// forgets them *physically*: payloads are scrubbed, rows compacted away —
// and we verify a full scan (which sees even forgotten tuples!) finds
// nothing.
//
//   $ ./build/examples/privacy_vacuum

#include <cstdio>

#include "amnesia/controller.h"
#include "amnesia/uniform.h"
#include "query/scan.h"
#include "workload/distribution.h"

using namespace amnesia;

namespace {
constexpr uint32_t kRetentionBatches = 2;
}

int main() {
  auto table_or = Table::Make(Schema::SingleColumn("event", 0, 1'000'000));
  if (!table_or.ok()) return 1;
  Table table = std::move(table_or).value();

  DistributionOptions dist;
  dist.kind = DistributionKind::kUniform;
  dist.domain_hi = 1'000'000;
  ValueGenerator gen = ValueGenerator::Make(dist).value();
  Rng rng(99);

  UniformPolicy policy;
  ControllerOptions opts;
  opts.dbsize_budget = 1'000'000;       // storage is NOT the constraint here
  opts.backend = BackendKind::kDelete;  // privacy demands physical removal
  auto ctrl_or = AmnesiaController::Make(opts, &policy, &table);
  if (!ctrl_or.ok()) {
    std::fprintf(stderr, "%s\n", ctrl_or.status().ToString().c_str());
    return 1;
  }
  AmnesiaController& ctrl = ctrl_or.value();

  std::printf("Retention regulation: events expire after %u batches\n\n",
              kRetentionBatches);
  std::printf("week,ingested,vacuumed,rows_physical,rows_active\n");
  for (int week = 0; week < 8; ++week) {
    if (week > 0) table.BeginBatch();
    for (int i = 0; i < 500; ++i) {
      if (!table.AppendRow({gen.Next(&rng)}).ok()) return 1;
    }
    const auto vacuumed = ctrl.VacuumExpired(kRetentionBatches);
    if (!vacuumed.ok()) {
      std::fprintf(stderr, "%s\n", vacuumed.status().ToString().c_str());
      return 1;
    }
    std::printf("%d,500,%llu,%llu,%llu\n", week,
                static_cast<unsigned long long>(vacuumed.value()),
                static_cast<unsigned long long>(table.num_rows()),
                static_cast<unsigned long long>(table.num_active()));
  }

  // Compliance audit: even a raw physical scan (Visibility::kAll — the
  // view that normally still sees mark-only-forgotten tuples) must contain
  // at most RETENTION+1 batches of data.
  const auto audit =
      ScanRange(table, RangePredicate::All(0), Visibility::kAll);
  if (!audit.ok()) return 1;
  BatchId oldest = table.current_batch();
  for (RowId r : audit.value().rows) {
    if (table.batch_of(r) < oldest) oldest = table.batch_of(r);
  }
  std::printf(
      "\nCompliance audit: physical scan sees %llu rows; oldest batch "
      "present = %u (current = %u, retention = %u) -> %s\n",
      static_cast<unsigned long long>(audit.value().size()), oldest,
      table.current_batch(), kRetentionBatches,
      table.current_batch() - oldest <= kRetentionBatches ? "COMPLIANT"
                                                          : "VIOLATION");
  return 0;
}
