// Copyright 2026 The AmnesiaDB Authors
//
// Per-query execution profiles: an opt-in EXPLAIN-ANALYZE layer over the
// scan operators. A profiled query installs a ProfileCollector for the
// duration of the operator call; the morsel driver (query/scan.cc)
// brackets every morsel-kernel invocation with a ProfiledMorselScope, which
// is a single relaxed atomic load when no collector is installed and
// otherwise attributes the morsel's rows (scanned / wholesale-skipped /
// forgotten-skipped), engine and busy time to the shard that ran it.
// Per-stage wall times reuse TraceScope's bracket (set_duration_out), so
// the same timing feeds the trace ring, the scan_ns histogram and the
// profile. Finished profiles land in a bounded global ring (ProfileLog)
// keyed by query id — the data behind the introspection server's
// /profilez endpoint — and render as an EXPLAIN-ANALYZE-style text tree
// or JSON.
//
// Profiling observes the unchanged execution path (the hooks never alter
// kernel decisions), so a profiled query returns bit-identical results to
// the unprofiled run. One profile may be active at a time; a concurrently
// installed profile stacks (the newest collects, the previous resumes when
// it finishes) — profiles are per-process diagnostics, not a tenancy
// mechanism. Under AMNESIA_NO_METRICS every hook compiles to a no-op and
// ProfileLog stays empty.

#ifndef AMNESIA_QUERY_PROFILE_H_
#define AMNESIA_QUERY_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "query/executor.h"
#include "query/scan.h"
#include "storage/table.h"

namespace amnesia {

/// \brief Readable names for the profile/exposition enums.
const char* PlanKindName(PlanKind plan);
const char* EngineName(Engine engine);
const char* VisibilityName(Visibility visibility);

/// \brief Finished profile of one scan/count/aggregate query: the
/// operator tree /profilez serves and EXPLAIN renders.
struct QueryProfile {
  /// Per-shard leaf of the operator tree (unsharded queries have one).
  struct ShardStats {
    uint64_t morsels_scanned = 0;  ///< Morsels a kernel actually processed.
    uint64_t morsels_skipped = 0;  ///< Morsels skipped wholesale.
    uint64_t rows_scanned = 0;     ///< Rows inside scanned morsels.
    uint64_t rows_skipped = 0;     ///< Rows inside wholesale-skipped morsels.
    /// Forgotten rows the query's visibility excluded without returning
    /// them (kActiveOnly: dead rows of scanned + skipped morsels) — the
    /// amnesia dividend this query collected.
    uint64_t rows_forgotten_skipped = 0;
    uint64_t busy_ns = 0;  ///< Summed kernel time attributed to the shard.

    bool any() const {
      return morsels_scanned != 0 || morsels_skipped != 0 || busy_ns != 0;
    }
  };

  /// One timed stage (wall time from the stage's TraceScope bracket).
  struct Stage {
    const char* name = "";  ///< String literal owned by the call site.
    uint64_t wall_ns = 0;
  };

  uint64_t query_id = 0;
  const char* op = "";  ///< "scan" | "count" | "aggregate".
  PlanKind plan = PlanKind::kFullScan;
  Engine engine = Engine::kVectorized;
  Visibility visibility = Visibility::kActiveOnly;
  int parallelism = 1;
  uint64_t total_ns = 0;
  uint64_t rows_returned = 0;
  std::vector<Stage> stages;
  std::vector<ShardStats> shards;  ///< Indexed by shard id.

  /// Sums of the per-shard leaves.
  ShardStats Totals() const;

  /// EXPLAIN-ANALYZE-style text tree.
  std::string ToText() const;

  /// JSON object rendering (appended to `out`).
  void AppendJson(std::string* out) const;
  std::string ToJson() const;
};

#if !defined(AMNESIA_NO_METRICS)

/// \brief Thread-safe per-shard accumulation slots for one in-flight
/// profiled query. Pool workers contribute concurrently via relaxed
/// atomics on cache-line-separated slots.
class ProfileCollector {
 public:
  /// `num_shards` sizes the slot array (>= 1; unsharded operators report
  /// into shard 0).
  explicit ProfileCollector(uint32_t num_shards);

  /// Attributes one morsel-kernel invocation of `rows` rows to `shard`:
  /// scanned or wholesale-`skipped` as the driver's scope decided, with
  /// `forgotten_rows` rows the visibility excluded.
  void NoteMorsel(uint32_t shard, uint64_t rows, uint64_t forgotten_rows,
                  bool skipped, uint64_t busy_ns);

  /// Copies the slots into `out->shards`.
  void Drain(QueryProfile* out) const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> morsels_scanned{0};
    std::atomic<uint64_t> morsels_skipped{0};
    std::atomic<uint64_t> rows_scanned{0};
    std::atomic<uint64_t> rows_skipped{0};
    std::atomic<uint64_t> rows_forgotten_skipped{0};
    std::atomic<uint64_t> busy_ns{0};
  };
  std::vector<Slot> slots_;
};

/// \brief The collector of the innermost in-flight profiled query, or
/// nullptr (the common case: one acquire load and no further work).
ProfileCollector* ActiveProfileCollector();

/// \brief RAII bracket the morsel driver puts around one morsel-kernel
/// invocation. Costs one atomic load when no profile is active; when one
/// is, times the kernel and reports the morsel to the collector. It decides
/// skipped vs scanned with the kernels' own SkipsWholesale rule over the
/// same MorselLiveCount input, so skip counts match scan.morsels_skipped
/// for the bracketed operator; scalar kernels never skip. `live_only`
/// marks a kernel that reads the morsel's slice of the live candidate
/// list: a scanned morsel then counts its live rows as the rows scanned,
/// as the kernel's scan.rows_scanned does.
class ProfiledMorselScope {
 public:
  ProfiledMorselScope(const Table& table, Visibility visibility,
                      Engine engine, Morsel morsel, uint32_t shard,
                      bool live_only)
      : collector_(ActiveProfileCollector()) {
    if (collector_ == nullptr) return;
    table_ = &table;
    visibility_ = visibility;
    engine_ = engine;
    morsel_ = morsel;
    shard_ = shard;
    live_only_ = live_only;
    start_ns_ = obs::NowNs();
  }

  ~ProfiledMorselScope() {
    if (collector_ != nullptr) Report();
  }

  ProfiledMorselScope(const ProfiledMorselScope&) = delete;
  ProfiledMorselScope& operator=(const ProfiledMorselScope&) = delete;

 private:
  void Report() const;

  ProfileCollector* collector_;
  const Table* table_ = nullptr;
  Visibility visibility_ = Visibility::kActiveOnly;
  Engine engine_ = Engine::kVectorized;
  Morsel morsel_{0, 0};
  uint32_t shard_ = 0;
  bool live_only_ = false;
  uint64_t start_ns_ = 0;
};

/// \brief Scope of one profiled query: installs a collector, times stages
/// with TraceScope brackets, and on Finish() records the assembled
/// QueryProfile into ProfileLog::Global().
///
/// Usage (the executor does this when ExecOptions::profile is set; free
/// operator calls can be wrapped the same way):
///
///   ProfiledQuery pq("aggregate", plan, engine, vis, parallelism,
///                    table.num_shards());
///   pq.Stage("execute");
///   auto result = AggregateRangeParallel(table, pred, vis, pool);
///   QueryProfile profile = pq.Finish(1);
class ProfiledQuery {
 public:
  ProfiledQuery(const char* op, PlanKind plan, Engine engine,
                Visibility visibility, int parallelism, uint32_t num_shards);
  ~ProfiledQuery();

  ProfiledQuery(const ProfiledQuery&) = delete;
  ProfiledQuery& operator=(const ProfiledQuery&) = delete;

  /// Closes the open stage (if any) and opens a new TraceScope-timed one.
  /// `name` must be a string literal / static string.
  void Stage(const char* name);

  /// Closes the open stage, uninstalls the collector, records the profile
  /// in ProfileLog::Global() and returns it. Call exactly once.
  QueryProfile Finish(uint64_t rows_returned);

  uint64_t query_id() const { return profile_.query_id; }

 private:
  void Uninstall();

  QueryProfile profile_;
  ProfileCollector collector_;
  ProfileCollector* previous_;  ///< Restored on Finish (stacked profiles).
  std::optional<obs::TraceScope> stage_scope_;
  uint64_t start_ns_;
  bool installed_ = true;
};

/// \brief Bounded global ring of the most recent finished profiles,
/// keyed by the monotonically assigned query id.
class ProfileLog {
 public:
  static constexpr size_t kCapacity = 64;

  static ProfileLog& Global();

  /// Assigns the next query id (1-based).
  uint64_t NextQueryId();

  void Record(QueryProfile profile);

  /// Returns the retained profiles oldest-first (at most kCapacity).
  std::vector<QueryProfile> Snapshot() const;

  /// Returns the retained profile with `query_id`, if still in the ring.
  std::optional<QueryProfile> Find(uint64_t query_id) const;

  /// Total profiles ever recorded.
  uint64_t total_recorded() const;

 private:
  ProfileLog() : ring_(kCapacity) {}

  mutable std::mutex mu_;
  std::atomic<uint64_t> next_query_id_{1};
  std::vector<QueryProfile> ring_;
  uint64_t next_ = 0;  // total recorded; ring slot is next_ % kCapacity
};

#else  // AMNESIA_NO_METRICS

class ProfileCollector {
 public:
  explicit ProfileCollector(uint32_t) {}
  void NoteMorsel(uint32_t, uint64_t, uint64_t, bool, uint64_t) {}
  void Drain(QueryProfile*) const {}
};

inline ProfileCollector* ActiveProfileCollector() { return nullptr; }

class ProfiledMorselScope {
 public:
  ProfiledMorselScope(const Table&, Visibility, Engine, Morsel, uint32_t,
                      bool) {}
};

class ProfiledQuery {
 public:
  ProfiledQuery(const char* op, PlanKind plan, Engine engine,
                Visibility visibility, int parallelism, uint32_t num_shards) {
    profile_.op = op;
    profile_.plan = plan;
    profile_.engine = engine;
    profile_.visibility = visibility;
    profile_.parallelism = parallelism;
    profile_.shards.resize(num_shards == 0 ? 1 : num_shards);
  }
  void Stage(const char*) {}
  QueryProfile Finish(uint64_t rows_returned) {
    QueryProfile out = profile_;
    out.rows_returned = rows_returned;
    return out;
  }
  uint64_t query_id() const { return 0; }

 private:
  QueryProfile profile_;
};

class ProfileLog {
 public:
  static constexpr size_t kCapacity = 64;
  static ProfileLog& Global() {
    static ProfileLog log;
    return log;
  }
  uint64_t NextQueryId() { return 0; }
  void Record(QueryProfile) {}
  std::vector<QueryProfile> Snapshot() const { return {}; }
  std::optional<QueryProfile> Find(uint64_t) const { return std::nullopt; }
  uint64_t total_recorded() const { return 0; }
};

#endif  // AMNESIA_NO_METRICS

}  // namespace amnesia

#endif  // AMNESIA_QUERY_PROFILE_H_
