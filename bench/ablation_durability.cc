// Copyright 2026 The AmnesiaDB Authors
//
// Ablation D — async durability. Drives an ingest/forget/scan loop over a
// sharded table at 1/2/4/8 shards and measures what checkpointing costs
// the foreground under three regimes:
//   none        no checkpoints (the loop's floor),
//   foreground  CheckpointTable-style synchronous serialize+write on the
//               loop thread (the pre-durability-subsystem behavior),
//   async       capture on the loop thread (each shard's Table::ToParts
//               image), blob encoding + I/O on the background writer.
// The headline number is the caller stall: time the loop thread spends
// blocked inside Checkpoint(). Async pays only the capture (a flat copy
// of every shard), so it stalls measurably less than the foreground
// writer even on one hardware thread. After the async run the checkpoint
// directory is recovered (manifest + event-log tail replay) and the
// result is cross-checked bit-identical against the live table.
//
// Usage: ablation_durability [rows] [threads]
//
// Emits one BENCH_DURABILITY JSON line per shard count (grep '^BENCH_').

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "amnesia/sharded_controller.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "durability/checkpointer.h"
#include "durability/event_log.h"
#include "query/predicate.h"
#include "query/scan.h"
#include "storage/checkpoint.h"
#include "storage/schema.h"
#include "storage/sharded_table.h"

using namespace amnesia;

namespace {

constexpr int kRounds = 16;
constexpr int kCheckpointEvery = 5;  // rounds 5, 10, 15; round 16 is tail

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Die(const char* what) {
  std::fprintf(stderr, "durability cross-check failed: %s\n", what);
  std::abort();
}

/// True when both tables hold byte-identical shards (their CheckpointTable
/// blobs) and the same round-robin ingest cursor.
bool SameState(const ShardedTable& a, const ShardedTable& b) {
  if (a.num_shards() != b.num_shards() ||
      a.ingest_cursor() != b.ingest_cursor()) {
    return false;
  }
  for (uint32_t s = 0; s < a.num_shards(); ++s) {
    if (CheckpointTable(a.shard(s)) != CheckpointTable(b.shard(s))) {
      return false;
    }
  }
  return true;
}

enum class Mode { kNone, kForeground, kAsync };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kNone:
      return "none";
    case Mode::kForeground:
      return "foreground";
    case Mode::kAsync:
      return "async";
  }
  return "?";
}

struct RunResult {
  double loop_ms = 0.0;   ///< Whole ingest/forget/scan loop.
  double stall_ms = 0.0;  ///< Loop-thread time blocked in Checkpoint().
  std::string dir;        ///< Checkpoint directory of the run.
  uint64_t final_lsn = 0;
  // Registry counter deltas over the run, all read from one snapshot
  // pair (bench::MetricsDelta) so they are mutually consistent.
  uint64_t ckpt_commits = 0;
  uint64_t ckpt_bytes = 0;
  uint64_t log_appends = 0;
  uint64_t log_fsyncs = 0;
  /// Peak pool.queue_depth inside this run's window (the high-water mark
  /// is rebased at the opening edge, so other regimes sharing the pool in
  /// the same process don't inflate it).
  int64_t pool_queue_peak = 0;
};

/// Runs the loop once in the given mode and leaves the checkpoint
/// directory behind for recovery measurement.
RunResult RunLoop(uint32_t shards, Mode mode,
                  const std::vector<std::vector<Value>>& chunks,
                  uint64_t budget, ThreadPool* pool, ShardedTable* table) {
  RunResult result;
  result.dir = (std::filesystem::temp_directory_path() /
                ("amnesia_ablation_durability_" + std::to_string(shards) +
                 "_" + ModeName(mode)))
                   .string();
  std::filesystem::remove_all(result.dir);
  std::filesystem::create_directories(result.dir);
  bench::MetricsDelta delta(/*reset_high_waters=*/true);

  EventLog log = EventLog::Open(result.dir + "/events.log").value();

  PolicyOptions popts;
  popts.kind = PolicyKind::kFifo;
  ShardedControllerOptions sopts;
  sopts.dbsize_budget = budget;
  sopts.seed = 7;
  ShardedAmnesiaController ctrl =
      ShardedAmnesiaController::Make(sopts, popts, table, nullptr, &log)
          .value();

  std::optional<BackgroundCheckpointer> ckpt;
  if (mode != Mode::kNone) {
    CheckpointerOptions copts;
    copts.dir = result.dir;
    copts.pool = pool;
    copts.async = mode == Mode::kAsync;
    ckpt.emplace(BackgroundCheckpointer::Make(copts).value());
  }

  const RangePredicate pred{0, 200'000, 800'000};
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    const auto& chunk = chunks[static_cast<size_t>(round)];
    if (!table->AppendColumns({chunk}).ok()) Die("append");
    Event append;
    append.kind = EventKind::kAppendRows;
    append.columns = {chunk};
    if (!log.Append(append).ok()) Die("log append");

    if (!ctrl.EnforceBudget(pool).ok()) Die("forget pass");
    (void)CountRangeParallel(*table, pred, Visibility::kActiveOnly, *pool)
        .value();

    if (ckpt && (round + 1) % kCheckpointEvery == 0) {
      const auto ckpt_start = std::chrono::steady_clock::now();
      if (!ckpt->Checkpoint(*table, log.next_lsn()).ok()) Die("checkpoint");
      result.stall_ms += MillisSince(ckpt_start);
    }
  }
  result.loop_ms = MillisSince(start);
  result.final_lsn = log.next_lsn();
  // Drain the writer outside the timed loop: the loop thread never waited
  // on this work, which is the whole point.
  if (ckpt && !ckpt->WaitIdle().ok()) Die("checkpoint writer");
  // Quiesced: one closing snapshot covers the background writer's work
  // too, so commits/bytes/appends/fsyncs all describe the same run.
  delta.Stop();
  result.ckpt_commits = delta.Counter("checkpoint.commits");
  result.ckpt_bytes = delta.Counter("checkpoint.bytes_written");
  result.log_appends = delta.Counter("log.appends");
  result.log_fsyncs = delta.Counter("log.fsyncs");
  result.pool_queue_peak = delta.HighWater("pool.queue_depth");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t rows =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2'000'000ull;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 4;

  bench::Banner(
      "Ablation D: async durability (" + std::to_string(rows) + " rows, " +
      std::to_string(kRounds) + " rounds, checkpoint every " +
      std::to_string(kCheckpointEvery) + " rounds, shards 1/2/4/8, " +
      std::to_string(threads) + " workers, " +
      std::to_string(std::thread::hardware_concurrency()) +
      " hardware threads)");

  // One chunked value stream shared by every configuration.
  Rng rng(42);
  std::vector<std::vector<Value>> chunks(kRounds);
  const uint64_t per_round = rows / kRounds;
  for (auto& chunk : chunks) {
    chunk.reserve(per_round);
    for (uint64_t i = 0; i < per_round; ++i) {
      chunk.push_back(rng.UniformInt(0, 1'000'000));
    }
  }
  const uint64_t budget = rows * 7 / 10;

  CsvWriter csv(&std::cout);
  csv.Header({"shards", "base_ms", "fg_ms", "fg_stall_ms", "async_ms",
              "async_stall_ms", "stall_ratio", "recover_ms", "replayed"});

  std::vector<double> stall_ratios;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(static_cast<size_t>(std::max(1, threads - 1)));
    const Schema schema = Schema::SingleColumn("v", 0, 1'000'000);

    ShardedTable base_table = ShardedTable::Make(schema, shards).value();
    const RunResult base =
        RunLoop(shards, Mode::kNone, chunks, budget, &pool, &base_table);

    ShardedTable fg_table = ShardedTable::Make(schema, shards).value();
    const RunResult fg =
        RunLoop(shards, Mode::kForeground, chunks, budget, &pool, &fg_table);

    ShardedTable async_table = ShardedTable::Make(schema, shards).value();
    const RunResult async_run =
        RunLoop(shards, Mode::kAsync, chunks, budget, &pool, &async_table);

    // The three regimes must agree on the final table state exactly.
    if (!SameState(fg_table, base_table)) Die("fg state");
    if (!SameState(async_table, base_table)) Die("async state");

    // Recover the async run's directory and cross-check bit-identity.
    const auto recover_start = std::chrono::steady_clock::now();
    RecoveredState state =
        Recover(async_run.dir, async_run.dir + "/events.log").value();
    const double recover_ms = MillisSince(recover_start);
    const uint64_t replayed = state.events_replayed;
    const ShardedTable recovered =
        ShardedTable::FromShards(std::move(state.shards), state.ingest_cursor)
            .value();
    if (!SameState(recovered, base_table)) Die("recovered state");

    const double stall_ratio =
        async_run.stall_ms > 0.0 ? fg.stall_ms / async_run.stall_ms : 0.0;
    stall_ratios.push_back(stall_ratio);
    csv.Row({CsvWriter::Num(int64_t{shards}),
             CsvWriter::Num(base.loop_ms, 2), CsvWriter::Num(fg.loop_ms, 2),
             CsvWriter::Num(fg.stall_ms, 2),
             CsvWriter::Num(async_run.loop_ms, 2),
             CsvWriter::Num(async_run.stall_ms, 2),
             CsvWriter::Num(stall_ratio, 2), CsvWriter::Num(recover_ms, 2),
             CsvWriter::Num(static_cast<int64_t>(replayed))});
    bench::EmitBenchJson(
        "DURABILITY",
        {{"shards", static_cast<double>(shards)},
         {"rows", static_cast<double>(rows)},
         {"base_ms", base.loop_ms},
         {"foreground_ms", fg.loop_ms},
         {"foreground_stall_ms", fg.stall_ms},
         {"async_ms", async_run.loop_ms},
         {"async_stall_ms", async_run.stall_ms},
         {"stall_reduction", stall_ratio},
         {"recover_ms", recover_ms},
         {"events_replayed", static_cast<double>(replayed)},
         // Async-run registry deltas from one snapshot pair (0 under
         // AMNESIA_NO_METRICS).
         {"ckpt_commits", static_cast<double>(async_run.ckpt_commits)},
         {"ckpt_bytes_written", static_cast<double>(async_run.ckpt_bytes)},
         {"log_appends", static_cast<double>(async_run.log_appends)},
         {"log_fsyncs", static_cast<double>(async_run.log_fsyncs)},
         // Per-window peaks: how deep the shared pool's queue got during
         // each regime's own run (not the process-lifetime high water).
         {"base_pool_queue_peak", static_cast<double>(base.pool_queue_peak)},
         {"async_pool_queue_peak",
          static_cast<double>(async_run.pool_queue_peak)}});

    // Scratch hygiene: the ablation leaves no checkpoint dirs behind.
    std::filesystem::remove_all(base.dir);
    std::filesystem::remove_all(fg.dir);
    std::filesystem::remove_all(async_run.dir);
  }

  std::printf("\n");
  LineChart chart;
  chart.SetTitle(
      "Foreground/async caller-stall ratio (y) vs shard step (x)");
  chart.SetXLabel("step i = 2^i shards");
  chart.AddSeries("fg_stall / async_stall", stall_ratios);
  std::printf("%s\n", chart.Render().c_str());

  std::printf(
      "\nExpected shape: the foreground writer stalls the loop for the\n"
      "full serialize+write of every checkpoint; async pays only the\n"
      "capture (a flat copy of every shard's image), so the stall ratio\n"
      "stays above 1 even on one hardware thread. Recovery restores\n"
      "the newest manifest and replays the event-log tail; the recovered\n"
      "table is cross-checked bit-identical against the live one on\n"
      "every run.\n");
  return 0;
}
