// Copyright 2026 The AmnesiaDB Authors
//
// Kill-and-recover demo: the CI smoke test for the durability subsystem.
//
//   crash_recovery_demo run <dir> [--batches N] [--kill-at-batch K]
//                             [--backend delete|cold|summary] [--retain R]
//                             [--log-format rewrite|segmented]
//                             [--storage vector|mapped]
//                             [--partition-rows N]
//                             [--dbsize D] [--parallelism P]
//                             [--metrics-every N] [--dump-metrics FILE]
//                             [--serve PORT]
//       Runs the Data Amnesia Simulator with async checkpointing into
//       <dir>. With --kill-at-batch K the process dies via _Exit(42)
//       right after batch K — no destructors, no writer join: whatever
//       reached the filesystem is all recovery gets. --backend routes
//       forgotten tuples into the cold or summary tier (checkpointed in
//       the same manifest commit as the table); --retain R keeps only
//       the newest R checkpoints and truncates the event log below them;
//       --log-format segmented journals into segment files (compaction =
//       whole-segment unlinks) instead of the rewrite-compacted file.
//       Observability knobs (the CI metrics smoke): --dbsize D sizes the
//       table (> 65536 rows spans several morsels, so --parallelism P > 1
//       actually engages the thread pool), --metrics-every N logs a delta
//       summary every N batches, and --dump-metrics FILE writes the final
//       process-wide registry snapshot as JSON to FILE. --serve PORT runs
//       the live introspection server (0 = ephemeral, port printed on
//       stdout) and lingers after the run until GET /quitz — how the CI
//       smoke curls /metrics, /healthz and /tracez against a real run.
//       --storage mapped stores the table's sealed columns as mmap'd
//       partition files under <dir>/storage (--partition-rows sizes
//       them); recovery then re-maps those files from the manifest
//       entry instead of deserializing column payloads from the blob.
//
//       --vacuum-age N additionally runs mandatory vacuuming every batch
//       (every tuple older than N batches is forgotten regardless of
//       budget) and --audit 1 appends every forget sweep to the
//       hash-chained audit ledger under <dir>/audit.segs.
//
//   crash_recovery_demo verify <dir> [--backend ...] [--retain R]
//                              [--log-format ...] [--storage ...]
//                              [--partition-rows N] [--audit 1]
//                              [--vacuum-age N]
//       Recovers from <dir> (newest valid manifest + event-log tail
//       replay), re-runs the same seed to the batch the recovered table
//       proves was completed, and asserts the recovered table AND tiers
//       are bit-identical to the uncrashed reference. With --retain R it
//       additionally checks the retention invariants: at most R
//       manifests, no blob unreferenced by them, and an event log that
//       starts at (or below) the oldest retained manifest's covered LSN.
//       With --audit 1 it also walks the audit ledger's hash chain and
//       asserts the ledger's claimed forget totals equal the replayed
//       reality exactly (the kill lands at a batch boundary, where every
//       journaled sweep is also attested). Exits non-zero on any
//       mismatch.
//
//   crash_recovery_demo audit-verify <dir>
//       Offline chain verification only: walks <dir>/audit.segs (or
//       <dir> itself when it already is a ledger directory), prints the
//       chain report, and exits non-zero on a broken chain — what an
//       auditor (and the CI smoke) runs against a copied-out ledger
//       without needing the rest of the database.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "amnesia/audit_ledger.h"
#include "common/fs.h"
#include "durability/checkpointer.h"
#include "durability/event_log.h"
#include "durability/log_segments.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"

using namespace amnesia;

namespace {

constexpr int kCrashExitCode = 42;

struct DemoFlags {
  uint32_t batches = 10;
  uint32_t kill_at = 0;
  uint32_t retain = 0;
  uint64_t dbsize = 2000;
  int parallelism = 1;
  uint32_t metrics_every = 0;
  std::string dump_metrics;
  int serve = -1;
  BackendKind backend = BackendKind::kDelete;
  LogFormat log_format = LogFormat::kSingleFile;
  StorageBackend storage = StorageBackend::kVector;
  // Small partitions so this short run actually seals several files.
  uint64_t partition_rows = 1024;
  bool audit = false;
  uint32_t vacuum_age = 0;
};

SimulationConfig DemoConfig(const std::string& dir, const DemoFlags& flags) {
  SimulationConfig config;
  config.seed = 20260731;
  config.dbsize = flags.dbsize;
  config.upd_perc = 0.3;
  config.num_batches = flags.batches;
  config.queries_per_batch = 50;
  config.policy.kind = PolicyKind::kFifo;
  config.backend = flags.backend;
  // Access counts are not journaled; keep recovery bit-exact. (Scan
  // parallelism is also recovery-safe: forgets run serially either way.)
  config.record_access = false;
  config.parallelism = flags.parallelism;
  config.metrics_report_every_n_batches = flags.metrics_every;
  config.serve_port = flags.serve;
  config.checkpoint_every_n_batches = 2;
  config.checkpoint_dir = dir;
  config.checkpoint_async = true;
  config.checkpoint_retention = flags.retain;
  config.log_format = flags.log_format;
  // Small segments so even this short run rolls several times and the
  // retention GC actually unlinks — the recovery path the demo is for.
  config.log_segment_bytes = 16u << 10;
  config.storage_backend = flags.storage;
  if (flags.storage == StorageBackend::kMapped) {
    config.storage_dir = dir + "/storage";
    config.partition_rows = flags.partition_rows;
  }
  config.vacuum_max_age_batches = flags.vacuum_age;
  config.audit_ledger = flags.audit;
  // Small ledger segments for the same reason as the log segments above.
  config.audit_segment_bytes = 4u << 10;
  return config;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  return 1;
}

int Run(const std::string& dir, const DemoFlags& flags) {
  // Mapped storage nests its partition directory under <dir>; make sure
  // the parent exists before Wire() tries to mkdir <dir>/storage.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Fail("cannot create " + dir + ": " + ec.message());
  auto sim = Simulator::Make(DemoConfig(dir, flags));
  if (!sim.ok()) return Fail("config: " + sim.status().ToString());
  Status st = sim.value()->Initialize();
  if (!st.ok()) return Fail("initialize: " + st.ToString());
  for (uint32_t b = 1; b <= flags.batches; ++b) {
    auto metrics = sim.value()->StepBatch();
    if (!metrics.ok()) return Fail("batch: " + metrics.status().ToString());
    std::printf("batch %u: inserted=%llu active=%llu forgotten=%llu\n", b,
                static_cast<unsigned long long>(metrics->inserted),
                static_cast<unsigned long long>(metrics->active),
                static_cast<unsigned long long>(metrics->forgotten_total));
    if (b == flags.kill_at) {
      std::printf("simulating crash after batch %u (_Exit, no cleanup)\n",
                  b);
      std::fflush(stdout);
      std::_Exit(kCrashExitCode);
    }
  }
  st = sim.value()->FlushCheckpoints();
  if (!st.ok()) return Fail("flush: " + st.ToString());
  std::printf("completed %u batches without crashing\n", flags.batches);
  if (!flags.dump_metrics.empty()) {
    const std::string json = obs::MetricsRegistry::Global().DumpJson();
    std::FILE* f = std::fopen(flags.dump_metrics.c_str(), "wb");
    if (f == nullptr) return Fail("cannot open " + flags.dump_metrics);
    const bool wrote =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !wrote) {
      return Fail("cannot write " + flags.dump_metrics);
    }
    std::printf("metrics snapshot written to %s (%zu bytes)\n",
                flags.dump_metrics.c_str(), json.size());
  }
  if (flags.serve >= 0) {
    // Linger so the CI smoke (or an operator) can scrape the finished
    // run; GET /quitz releases the loop without signals.
    const server::IntrospectionServer* srv =
        sim.value()->introspection_server();
    std::printf("introspection server at http://127.0.0.1:%d/ "
                "(GET /quitz to exit)\n",
                sim.value()->introspection_port());
    std::fflush(stdout);
    while (srv != nullptr && !srv->quit_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("quitz received, shutting down\n");
  }
  return 0;
}

/// Checks the on-disk retention invariants: manifest count, orphan blobs,
/// log base LSN. Returns non-zero (via Fail) on any violation.
int VerifyRetention(const std::string& dir, uint32_t retain,
                    LogFormat log_format) {
  namespace fs = std::filesystem;
  // The kill may have landed between a commit and the end of its GC pass
  // — a legitimate crash point that leaves one in-flight checkpoint's
  // extra manifests/blobs behind. Converge the directory with the same
  // pass the next commit would run, then assert the strict invariants.
  Status gc = CollectCheckpointGarbage(dir, retain);
  if (!gc.ok()) return Fail("gc pass: " + gc.ToString());
  // Count manifests by the rule recovery and GC use: a kill inside a
  // manifest's replace leaves a MANIFEST-<id>.tmp, which is none.
  StatusOr<std::vector<uint64_t>> listed = ListManifestIds(dir);
  if (!listed.ok()) return Fail("manifest list: " + listed.status().ToString());
  const std::vector<uint64_t>& ids = listed.value();
  if (ids.size() > retain) {
    return Fail("retention " + std::to_string(retain) + " but " +
                std::to_string(ids.size()) + " manifests on disk");
  }
  std::set<std::string> referenced;
  uint64_t oldest_covered = ~uint64_t{0};
  for (uint64_t id : ids) {
    auto bytes = ReadBytesFile(dir + "/MANIFEST-" + std::to_string(id));
    if (!bytes.ok()) return Fail("manifest read: " + bytes.status().ToString());
    auto manifest = DecodeManifest(bytes.value());
    if (!manifest.ok()) {
      return Fail("manifest decode: " + manifest.status().ToString());
    }
    for (const ManifestShard& shard : manifest->shards) {
      referenced.insert(shard.filename);
    }
    if (manifest->cold.present()) referenced.insert(manifest->cold.filename);
    if (manifest->summary.present()) {
      referenced.insert(manifest->summary.filename);
    }
    if (manifest->covered_lsn < oldest_covered) {
      oldest_covered = manifest->covered_lsn;
    }
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const bool is_blob = name.rfind("ckpt-", 0) == 0 && name.size() > 5 &&
                         name.rfind(".blob") == name.size() - 5;
    if (is_blob && referenced.count(name) == 0) {
      return Fail("orphan blob survived GC: " + name);
    }
  }
  auto contents = ReadAnyEventLogContents(EventLogPathFor(dir, log_format));
  if (!contents.ok()) return Fail("log: " + contents.status().ToString());
  if (contents->base_lsn > oldest_covered) {
    return Fail("event log truncated past the oldest retained manifest "
                "(base " + std::to_string(contents->base_lsn) + " > covered " +
                std::to_string(oldest_covered) + ")");
  }
  std::printf("RETENTION OK: %zu manifests (<= %u), no orphan blobs, log "
              "base %llu <= oldest covered LSN %llu\n",
              ids.size(), retain,
              static_cast<unsigned long long>(contents->base_lsn),
              static_cast<unsigned long long>(oldest_covered));
  return 0;
}

/// Walks the ledger chain under `dir` (a checkpoint directory or a bare
/// ledger directory) and prints the report. Non-zero on a broken chain.
int AuditVerify(const std::string& dir) {
  std::string ledger_dir = AuditDirFor(dir);
  if (!std::filesystem::exists(ledger_dir)) ledger_dir = dir;
  auto report = VerifyAuditChain(ledger_dir);
  if (!report.ok()) {
    return Fail("audit ledger: " + report.status().ToString());
  }
  if (!report->ok) {
    return Fail("audit chain BROKEN: " + report->detail);
  }
  std::printf("AUDIT CHAIN OK: %llu records, seq [%llu, %llu), head crc32 "
              "0x%08x\n",
              static_cast<unsigned long long>(report->records),
              static_cast<unsigned long long>(report->base_seq),
              static_cast<unsigned long long>(report->next_seq),
              report->chain_crc);
  return 0;
}

/// The ledger-vs-reality cross-check after recovery: the chain must be
/// intact and its claimed totals must equal the replayed table's forget
/// count exactly — the kill lands at a batch boundary, where the flush
/// ordering (journal first, then ledger) has every durable sweep attested.
int VerifyAudit(const std::string& dir, const Table& recovered_table) {
  if (AuditVerify(dir) != 0) return 1;
  auto records = ReadAuditRecords(AuditDirFor(dir));
  if (!records.ok()) {
    return Fail("audit read: " + records.status().ToString());
  }
  uint64_t claimed = 0;
  for (const AuditRecord& r : records.value()) claimed += r.rows_marked;
  const uint64_t replayed = recovered_table.lifetime_forgotten();
  if (claimed != replayed) {
    return Fail("audit ledger claims " + std::to_string(claimed) +
                " forgotten rows but recovery replayed " +
                std::to_string(replayed));
  }
  std::printf("AUDIT OK: ledger attests %llu forgotten rows across %zu "
              "sweeps — exactly what recovery replayed\n",
              static_cast<unsigned long long>(claimed),
              records->size());
  return 0;
}

int Verify(const std::string& dir, const DemoFlags& flags) {
  auto recovered = Recover(dir, EventLogPathFor(dir, flags.log_format));
  if (!recovered.ok()) {
    return Fail("recover: " + recovered.status().ToString());
  }
  if (recovered->shards.size() != 1) return Fail("expected one shard");
  const Table& table = recovered->shards[0];

  // The recovered table is the source of truth for how far the crashed
  // run got: every StepBatch begins exactly one batch, so current_batch
  // counts the completed batches whatever prefix the retention GC
  // truncated away. (The ingest cursor must agree with the rows the
  // table holds — the old full-log cross-check, now snapshot-anchored.)
  const auto batches_completed = static_cast<uint32_t>(table.current_batch());
  std::printf("recovered from checkpoint %llu: replayed %llu events, %u "
              "batches completed before the crash\n",
              static_cast<unsigned long long>(recovered->checkpoint_id),
              static_cast<unsigned long long>(recovered->events_replayed),
              batches_completed);
  if (recovered->ingest_cursor != table.lifetime_inserted()) {
    return Fail("ingest cursor diverges from the recovered table");
  }

  // Reference: the identical simulation, uncrashed, to the same batch.
  DemoFlags plain_flags = flags;
  plain_flags.batches = batches_completed;
  SimulationConfig plain = DemoConfig(dir, plain_flags);
  plain.checkpoint_every_n_batches = 0;
  plain.checkpoint_dir.clear();
  plain.checkpoint_retention = 0;
  plain.audit_ledger = false;  // the reference run attests nothing
  if (plain.storage_backend == StorageBackend::kMapped) {
    // The recovered table above has <dir>/storage mmap'd; the reference
    // run must not clear it out from under those mappings.
    plain.storage_dir = dir + "/refstorage";
  }
  auto reference = Simulator::Make(plain);
  if (!reference.ok()) {
    return Fail("reference config: " + reference.status().ToString());
  }
  Status st = reference.value()->Initialize();
  if (!st.ok()) return Fail("reference init: " + st.ToString());
  for (uint32_t b = 0; b < batches_completed; ++b) {
    auto metrics = reference.value()->StepBatch();
    if (!metrics.ok()) {
      return Fail("reference batch: " + metrics.status().ToString());
    }
  }

  if (table.lifetime_inserted() !=
      reference.value()->table().lifetime_inserted()) {
    return Fail("row count mismatch against the uncrashed reference");
  }
  if (CheckpointTable(table) != CheckpointTable(reference.value()->table())) {
    return Fail("recovered table differs from the uncrashed reference");
  }
  // The tiers committed with the table and must match too.
  if (!recovered->cold.has_value() || !recovered->summaries.has_value()) {
    return Fail("manifest should carry both tier blobs");
  }
  if (CheckpointColdStore(*recovered->cold) !=
      CheckpointColdStore(reference.value()->cold_store())) {
    return Fail("recovered cold store differs from the reference");
  }
  if (CheckpointSummaryStore(*recovered->summaries) !=
      CheckpointSummaryStore(reference.value()->summary_store())) {
    return Fail("recovered summary store differs from the reference");
  }
  std::printf("RECOVERY OK: %llu rows, %llu active, %llu cold tuples, %zu "
              "summary cells — bit-identical to an uncrashed run of %u "
              "batches\n",
              static_cast<unsigned long long>(table.num_rows()),
              static_cast<unsigned long long>(table.num_active()),
              static_cast<unsigned long long>(recovered->cold->size()),
              recovered->summaries->num_cells(), batches_completed);

  if (flags.audit) {
    const int audit_rc = VerifyAudit(dir, table);
    if (audit_rc != 0) return audit_rc;
  }
  if (flags.retain > 0) {
    return VerifyRetention(dir, flags.retain, flags.log_format);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s run <dir> [--batches N] [--kill-at-batch K]\n"
                 "          [--backend delete|cold|summary] [--retain R]\n"
                 "          [--log-format rewrite|segmented] [--dbsize D]\n"
                 "          [--storage vector|mapped] [--partition-rows N]\n"
                 "          [--parallelism P] [--metrics-every N]\n"
                 "          [--dump-metrics FILE] [--serve PORT]\n"
                 "          [--audit 1] [--vacuum-age N]\n"
                 "       %s verify <dir> [--backend ...] [--retain R]\n"
                 "          [--log-format rewrite|segmented] [--dbsize D]\n"
                 "          [--storage vector|mapped] [--partition-rows N]\n"
                 "          [--audit 1] [--vacuum-age N]\n"
                 "       %s audit-verify <dir>\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  const std::string dir = argv[2];
  DemoFlags flags;
  for (int i = 3; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--batches") == 0) {
      flags.batches = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--kill-at-batch") == 0) {
      flags.kill_at = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--retain") == 0) {
      flags.retain = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--dbsize") == 0) {
      flags.dbsize = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--parallelism") == 0) {
      flags.parallelism = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--metrics-every") == 0) {
      flags.metrics_every = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--dump-metrics") == 0) {
      flags.dump_metrics = argv[i + 1];
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      flags.serve = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      flags.audit = std::atoi(argv[i + 1]) != 0;
    } else if (std::strcmp(argv[i], "--vacuum-age") == 0) {
      flags.vacuum_age = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--partition-rows") == 0) {
      flags.partition_rows = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--storage") == 0) {
      const std::string storage = argv[i + 1];
      if (storage == "vector") {
        flags.storage = StorageBackend::kVector;
      } else if (storage == "mapped") {
        flags.storage = StorageBackend::kMapped;
      } else {
        std::fprintf(stderr, "unknown storage backend '%s'\n",
                     storage.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--log-format") == 0) {
      const std::string format = argv[i + 1];
      if (format == "rewrite") {
        flags.log_format = LogFormat::kSingleFile;
      } else if (format == "segmented") {
        flags.log_format = LogFormat::kSegmented;
      } else {
        std::fprintf(stderr, "unknown log format '%s'\n", format.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--backend") == 0) {
      const std::string backend = argv[i + 1];
      if (backend == "delete") {
        flags.backend = BackendKind::kDelete;
      } else if (backend == "cold") {
        flags.backend = BackendKind::kColdStorage;
      } else if (backend == "summary") {
        flags.backend = BackendKind::kSummary;
      } else {
        std::fprintf(stderr, "unknown backend '%s'\n", backend.c_str());
        return 2;
      }
    }
  }
  if (mode == "run") return Run(dir, flags);
  if (mode == "verify") return Verify(dir, flags);
  if (mode == "audit-verify") return AuditVerify(dir);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
