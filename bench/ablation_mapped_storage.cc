// Copyright 2026 The AmnesiaDB Authors
//
// Ablation M — mmap-backed partition storage. Runs the same
// ingest / checkpoint / cold-start-recovery / mandatory-vacuum sequence
// over the kVector oracle and the kMapped backend at several table sizes
// and measures what the partition files buy:
//   ingest      bulk-append throughput (mapped pays the seal: one write +
//               rename per partition_rows rows; the checkpoint writer
//               fsyncs the files before a manifest names them),
//   recover     cold-start recovery latency (vector deserializes every
//               payload byte out of the blob; mapped re-maps the sealed
//               files and only decodes the tail + metadata),
//   vacuum      mandatory age-based forgetting of ~half the table
//               (vector sweeps row-wise, forget + scrub per tuple; mapped
//               drops whole partitions with one rename, unlink and
//               directory fsync each — nothing journals these drops, so
//               each is made durable at once — and its latency scales with
//               the partition COUNT, not the row count: the paper's O(1)
//               forgetting).
// Every recovery is cross-checked bit-identical against the live table
// before any number is reported.
//
// Usage: ablation_mapped_storage [rows] [partition_rows]
//
// Emits one BENCH_MAPPED_STORAGE JSON line per (backend, scale) pair
// (grep '^BENCH_').

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "amnesia/controller.h"
#include "amnesia/registry.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "durability/checkpointer.h"
#include "storage/checkpoint.h"
#include "storage/schema.h"
#include "storage/table.h"

using namespace amnesia;

namespace {

namespace fs = std::filesystem;

constexpr int kBatches = 16;
constexpr uint32_t kVacuumMaxAge = 8;  // expires the older ~half

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Die(const char* what) {
  std::fprintf(stderr, "mapped-storage cross-check failed: %s\n", what);
  std::abort();
}

struct RunResult {
  double ingest_ms = 0.0;
  double checkpoint_ms = 0.0;
  double recover_ms = 0.0;
  double drop_ms = 0.0;
  double vacuum_ms = 0.0;
  uint64_t vacuumed = 0;
  uint64_t partitions_dropped = 0;
  uint64_t mapped_bytes = 0;
  uint64_t blob_bytes = 0;
};

RunResult RunOnce(uint64_t rows, uint64_t partition_rows, bool mapped,
                  const std::string& root) {
  fs::remove_all(root);
  fs::create_directories(root);
  RunResult out;

  StorageOptions storage;
  if (mapped) {
    storage.backend = StorageBackend::kMapped;
    storage.dir = root + "/storage";
    storage.partition_rows = partition_rows;
  }
  Schema schema = Schema::SingleColumn("a", 0, 1'000'000);
  auto table_or = mapped ? Table::Make(schema, storage) : Table::Make(schema);
  if (!table_or.ok()) Die(table_or.status().ToString().c_str());
  Table table = std::move(table_or).value();

  // Ingest in kBatches bulk appends (the batch stamps drive the vacuum).
  Rng rng(4271);
  const uint64_t per_batch = rows / kBatches;
  const auto ingest_start = std::chrono::steady_clock::now();
  for (int b = 0; b < kBatches; ++b) {
    table.BeginBatch();
    std::vector<std::vector<Value>> chunk(1);
    chunk[0].reserve(per_batch);
    for (uint64_t i = 0; i < per_batch; ++i) {
      chunk[0].push_back(rng.UniformInt(0, 999'999));
    }
    if (!table.AppendColumns(chunk).ok()) Die("ingest failed");
  }
  out.ingest_ms = MillisSince(ingest_start);
  out.mapped_bytes = table.MappedBytes();

  // Checkpoint, then time a cold-start recovery from that directory.
  const std::string ckpt_dir = root + "/ckpt";
  {
    CheckpointerOptions opts;
    opts.dir = ckpt_dir;
    opts.async = false;
    auto ckpt_or = BackgroundCheckpointer::Make(opts);
    if (!ckpt_or.ok()) Die(ckpt_or.status().ToString().c_str());
    const auto ckpt_start = std::chrono::steady_clock::now();
    if (!ckpt_or.value().Checkpoint(table, /*covered_lsn=*/0).ok()) {
      Die("checkpoint failed");
    }
    out.checkpoint_ms = MillisSince(ckpt_start);
  }
  for (const auto& entry : fs::directory_iterator(ckpt_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0) out.blob_bytes += fs::file_size(entry);
  }
  {
    const auto rec_start = std::chrono::steady_clock::now();
    auto state = Recover(ckpt_dir, "");
    out.recover_ms = MillisSince(rec_start);
    if (!state.ok()) Die(state.status().ToString().c_str());
    if (CheckpointTable(state->shards[0]) != CheckpointTable(table)) {
      Die("recovered table differs from the live table");
    }
  }

  // The headline microbenchmark: forget the whole first partition. The
  // mapped backend renames one directory (O(1) in partition_rows); the
  // vector oracle must visit every tuple (forget + scrub, O(n)). Both
  // leave the same logical state, so the vacuum below stays comparable.
  {
    const auto drop_start = std::chrono::steady_clock::now();
    if (mapped) {
      auto dropped = table.DropPartition(0);
      if (!dropped.ok()) Die(dropped.status().ToString().c_str());
      if (dropped.value() != partition_rows) Die("partial partition drop");
    } else {
      for (RowId r = 0; r < partition_rows; ++r) {
        if (!table.Forget(r).ok() || !table.ScrubRow(r).ok()) {
          Die("row-wise forget failed");
        }
      }
    }
    out.drop_ms = MillisSince(drop_start);
  }

  // Mandatory vacuum of everything older than kVacuumMaxAge batches.
  PolicyOptions popts;
  popts.kind = PolicyKind::kFifo;
  auto policy_or = CreatePolicy(popts, nullptr);
  if (!policy_or.ok()) Die(policy_or.status().ToString().c_str());
  ControllerOptions copts;
  copts.backend = BackendKind::kDelete;
  copts.dbsize_budget = rows + 1;  // the vacuum, not the budget, forgets
  copts.compact_every_n_rounds = 0;
  auto ctrl_or =
      AmnesiaController::Make(copts, policy_or.value().get(), &table);
  if (!ctrl_or.ok()) Die(ctrl_or.status().ToString().c_str());
  const auto vac_start = std::chrono::steady_clock::now();
  auto vacuumed = ctrl_or.value().VacuumExpired(kVacuumMaxAge);
  out.vacuum_ms = MillisSince(vac_start);
  if (!vacuumed.ok()) Die(vacuumed.status().ToString().c_str());
  out.vacuumed = vacuumed.value();
  out.partitions_dropped = ctrl_or.value().stats().partitions_dropped;

  fs::remove_all(root);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t rows = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                 : uint64_t{1} << 20;
  const uint64_t partition_rows =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : uint64_t{1} << 16;
  const std::string root =
      (fs::temp_directory_path() / "amnesia_bench_mapped").string();

  bench::Banner("Ablation M — mmap-backed partition storage (rows=" +
                std::to_string(rows) +
                ", partition_rows=" + std::to_string(partition_rows) + ")");
  std::printf(
      "backend,partition_rows,ingest_ms,checkpoint_ms,recover_ms,drop_ms,"
      "vacuum_ms,vacuumed,partitions_dropped,blob_bytes,mapped_bytes\n");

  // One row scale, three partition sizes: the drop's rename is O(1), so
  // its latency stays flat while the row-wise sweep of the same rows
  // grows linearly with the partition size.
  for (const uint64_t pr : {partition_rows / 4, partition_rows,
                            partition_rows * 4}) {
    RunResult results[2];
    for (const bool mapped : {false, true}) {
      RunResult r = RunOnce(rows, pr, mapped, root);
      results[mapped ? 1 : 0] = r;
      std::printf("%s,%llu,%.2f,%.2f,%.2f,%.3f,%.3f,%llu,%llu,%llu,%llu\n",
                  mapped ? "mapped" : "vector",
                  static_cast<unsigned long long>(pr), r.ingest_ms,
                  r.checkpoint_ms, r.recover_ms, r.drop_ms, r.vacuum_ms,
                  static_cast<unsigned long long>(r.vacuumed),
                  static_cast<unsigned long long>(r.partitions_dropped),
                  static_cast<unsigned long long>(r.blob_bytes),
                  static_cast<unsigned long long>(r.mapped_bytes));
      bench::EmitBenchJson(
          "MAPPED_STORAGE",
          {{"mapped", mapped ? 1.0 : 0.0},
           {"rows", static_cast<double>(rows)},
           {"partition_rows", static_cast<double>(pr)},
           {"ingest_ms", r.ingest_ms},
           {"checkpoint_ms", r.checkpoint_ms},
           {"recover_ms", r.recover_ms},
           {"drop_ms", r.drop_ms},
           {"vacuum_ms", r.vacuum_ms},
           {"vacuumed", static_cast<double>(r.vacuumed)},
           {"partitions_dropped", static_cast<double>(r.partitions_dropped)},
           {"blob_bytes", static_cast<double>(r.blob_bytes)},
           {"mapped_bytes", static_cast<double>(r.mapped_bytes)}});
    }
    std::printf(
        "  -> partition_rows %llu: recover %.2fx faster; forgetting one "
        "partition: drop %.3f ms (flat) vs row-wise %.3f ms (linear)\n",
        static_cast<unsigned long long>(pr),
        results[0].recover_ms / std::max(results[1].recover_ms, 1e-9),
        results[1].drop_ms, results[0].drop_ms);
  }
  return 0;
}
