// Copyright 2026 The AmnesiaDB Authors

#include "query/profile.h"

#include <cstdarg>
#include <cstdio>
#include <utility>

#include "query/vector_kernels.h"

namespace amnesia {

namespace {

void AppendFmt(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendFmt(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

const char* PlanKindName(PlanKind plan) {
  switch (plan) {
    case PlanKind::kFullScan:
      return "full_scan";
    case PlanKind::kBrinScan:
      return "brin_scan";
    case PlanKind::kBTreeProbe:
      return "btree_probe";
  }
  return "unknown";
}

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kScalar:
      return "scalar";
    case Engine::kVectorized:
      return "vectorized";
  }
  return "unknown";
}

const char* VisibilityName(Visibility visibility) {
  switch (visibility) {
    case Visibility::kActiveOnly:
      return "active_only";
    case Visibility::kAll:
      return "all";
    case Visibility::kForgottenOnly:
      return "forgotten_only";
  }
  return "unknown";
}

QueryProfile::ShardStats QueryProfile::Totals() const {
  ShardStats total;
  for (const ShardStats& s : shards) {
    total.morsels_scanned += s.morsels_scanned;
    total.morsels_skipped += s.morsels_skipped;
    total.rows_scanned += s.rows_scanned;
    total.rows_skipped += s.rows_skipped;
    total.rows_forgotten_skipped += s.rows_forgotten_skipped;
    total.busy_ns += s.busy_ns;
  }
  return total;
}

std::string QueryProfile::ToText() const {
  std::string out;
  // Capitalized operator name, EXPLAIN style.
  std::string title(op);
  if (!title.empty() && title[0] >= 'a' && title[0] <= 'z') {
    title[0] = static_cast<char>(title[0] - 'a' + 'A');
  }
  AppendFmt(&out,
            "%s  (plan=%s engine=%s visibility=%s parallelism=%d)  "
            "[query %llu]\n",
            title.c_str(), PlanKindName(plan), EngineName(engine),
            VisibilityName(visibility), parallelism,
            static_cast<unsigned long long>(query_id));
  const ShardStats total = Totals();
  AppendFmt(&out,
            "  rows returned: %llu   total: %.3f ms   rows scanned: %llu   "
            "skipped: %llu   forgotten-skipped: %llu\n",
            static_cast<unsigned long long>(rows_returned), Ms(total_ns),
            static_cast<unsigned long long>(total.rows_scanned),
            static_cast<unsigned long long>(total.rows_skipped),
            static_cast<unsigned long long>(total.rows_forgotten_skipped));
  for (const Stage& stage : stages) {
    AppendFmt(&out, "  -> Stage %-10s %9.3f ms\n", stage.name,
              Ms(stage.wall_ns));
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardStats& sh = shards[s];
    if (shards.size() > 1 && !sh.any()) continue;
    AppendFmt(&out,
              "     -> Shard %-3zu busy %9.3f ms  morsels %llu scanned / "
              "%llu skipped  rows %llu scanned / %llu skipped / %llu "
              "forgotten-skipped\n",
              s, Ms(sh.busy_ns),
              static_cast<unsigned long long>(sh.morsels_scanned),
              static_cast<unsigned long long>(sh.morsels_skipped),
              static_cast<unsigned long long>(sh.rows_scanned),
              static_cast<unsigned long long>(sh.rows_skipped),
              static_cast<unsigned long long>(sh.rows_forgotten_skipped));
  }
  return out;
}

void QueryProfile::AppendJson(std::string* out) const {
  AppendFmt(out,
            "{\"query_id\":%llu,\"op\":\"%s\",\"plan\":\"%s\","
            "\"engine\":\"%s\",\"visibility\":\"%s\",\"parallelism\":%d,"
            "\"total_ns\":%llu,\"rows_returned\":%llu",
            static_cast<unsigned long long>(query_id), op, PlanKindName(plan),
            EngineName(engine), VisibilityName(visibility), parallelism,
            static_cast<unsigned long long>(total_ns),
            static_cast<unsigned long long>(rows_returned));
  out->append(",\"stages\":[");
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i != 0) out->push_back(',');
    AppendFmt(out, "{\"name\":\"%s\",\"wall_ns\":%llu}", stages[i].name,
              static_cast<unsigned long long>(stages[i].wall_ns));
  }
  out->append("],\"shards\":[");
  for (size_t s = 0; s < shards.size(); ++s) {
    if (s != 0) out->push_back(',');
    const ShardStats& sh = shards[s];
    AppendFmt(out,
              "{\"shard\":%zu,\"busy_ns\":%llu,\"morsels_scanned\":%llu,"
              "\"morsels_skipped\":%llu,\"rows_scanned\":%llu,"
              "\"rows_skipped\":%llu,\"rows_forgotten_skipped\":%llu}",
              s, static_cast<unsigned long long>(sh.busy_ns),
              static_cast<unsigned long long>(sh.morsels_scanned),
              static_cast<unsigned long long>(sh.morsels_skipped),
              static_cast<unsigned long long>(sh.rows_scanned),
              static_cast<unsigned long long>(sh.rows_skipped),
              static_cast<unsigned long long>(sh.rows_forgotten_skipped));
  }
  out->append("]}");
}

std::string QueryProfile::ToJson() const {
  std::string out;
  AppendJson(&out);
  return out;
}

#if !defined(AMNESIA_NO_METRICS)

namespace {

// The innermost in-flight profiled query's collector. Installed before the
// operator call and uninstalled after it returns; ParallelFor joins its
// workers inside the call, so no worker can observe the pointer after
// uninstall (release/acquire pairs keep TSan happy about the handoff).
std::atomic<ProfileCollector*> g_active_collector{nullptr};

}  // namespace

ProfileCollector* ActiveProfileCollector() {
  return g_active_collector.load(std::memory_order_acquire);
}

ProfileCollector::ProfileCollector(uint32_t num_shards)
    : slots_(num_shards == 0 ? 1 : num_shards) {}

void ProfileCollector::NoteMorsel(uint32_t shard, uint64_t rows,
                                  uint64_t forgotten_rows, bool skipped,
                                  uint64_t busy_ns) {
  Slot& slot = slots_[shard < slots_.size() ? shard : slots_.size() - 1];
  if (skipped) {
    slot.morsels_skipped.fetch_add(1, std::memory_order_relaxed);
    slot.rows_skipped.fetch_add(rows, std::memory_order_relaxed);
  } else {
    slot.morsels_scanned.fetch_add(1, std::memory_order_relaxed);
    slot.rows_scanned.fetch_add(rows, std::memory_order_relaxed);
  }
  slot.rows_forgotten_skipped.fetch_add(forgotten_rows,
                                        std::memory_order_relaxed);
  slot.busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
}

void ProfiledMorselScope::Report() const {
  const uint64_t busy_ns = obs::NowNs() - start_ns_;
  const uint64_t rows = morsel_.size();
  const uint64_t live = visibility_ == Visibility::kAll
                            ? rows
                            : MorselLiveCount(*table_, morsel_);
  const bool skipped = engine_ == Engine::kVectorized &&
                       SkipsWholesale(visibility_, live, rows);
  const uint64_t forgotten =
      visibility_ == Visibility::kActiveOnly ? rows - live : 0;
  collector_->NoteMorsel(shard_, live_only_ && !skipped ? live : rows,
                         forgotten, skipped, busy_ns);
}

void ProfileCollector::Drain(QueryProfile* out) const {
  out->shards.resize(slots_.size());
  for (size_t s = 0; s < slots_.size(); ++s) {
    QueryProfile::ShardStats& sh = out->shards[s];
    const Slot& slot = slots_[s];
    sh.morsels_scanned = slot.morsels_scanned.load(std::memory_order_relaxed);
    sh.morsels_skipped = slot.morsels_skipped.load(std::memory_order_relaxed);
    sh.rows_scanned = slot.rows_scanned.load(std::memory_order_relaxed);
    sh.rows_skipped = slot.rows_skipped.load(std::memory_order_relaxed);
    sh.rows_forgotten_skipped =
        slot.rows_forgotten_skipped.load(std::memory_order_relaxed);
    sh.busy_ns = slot.busy_ns.load(std::memory_order_relaxed);
  }
}

ProfiledQuery::ProfiledQuery(const char* op, PlanKind plan, Engine engine,
                             Visibility visibility, int parallelism,
                             uint32_t num_shards)
    : collector_(num_shards), start_ns_(obs::NowNs()) {
  profile_.query_id = ProfileLog::Global().NextQueryId();
  profile_.op = op;
  profile_.plan = plan;
  profile_.engine = engine;
  profile_.visibility = visibility;
  profile_.parallelism = parallelism;
  previous_ = g_active_collector.exchange(&collector_,
                                          std::memory_order_acq_rel);
}

ProfiledQuery::~ProfiledQuery() { Uninstall(); }

void ProfiledQuery::Uninstall() {
  if (!installed_) return;
  installed_ = false;
  stage_scope_.reset();
  g_active_collector.store(previous_, std::memory_order_release);
}

void ProfiledQuery::Stage(const char* name) {
  // Flush the previous stage's TraceScope BEFORE growing `stages`: its
  // destructor writes through a pointer into the vector.
  stage_scope_.reset();
  profile_.stages.push_back(QueryProfile::Stage{name, 0});
  stage_scope_.emplace(name);
  stage_scope_->Annotate("query_id",
                         static_cast<int64_t>(profile_.query_id));
  stage_scope_->set_duration_out(&profile_.stages.back().wall_ns);
}

QueryProfile ProfiledQuery::Finish(uint64_t rows_returned) {
  Uninstall();
  profile_.total_ns = obs::NowNs() - start_ns_;
  profile_.rows_returned = rows_returned;
  collector_.Drain(&profile_);
  ProfileLog::Global().Record(profile_);
  return profile_;
}

ProfileLog& ProfileLog::Global() {
  static ProfileLog* log = new ProfileLog();
  return *log;
}

uint64_t ProfileLog::NextQueryId() {
  return next_query_id_.fetch_add(1, std::memory_order_relaxed);
}

void ProfileLog::Record(QueryProfile profile) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_ % kCapacity] = std::move(profile);
  ++next_;
}

std::vector<QueryProfile> ProfileLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryProfile> out;
  const uint64_t retained = next_ < kCapacity ? next_ : kCapacity;
  out.reserve(retained);
  for (uint64_t i = next_ - retained; i < next_; ++i) {
    out.push_back(ring_[i % kCapacity]);
  }
  return out;
}

std::optional<QueryProfile> ProfileLog::Find(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t retained = next_ < kCapacity ? next_ : kCapacity;
  for (uint64_t i = next_ - retained; i < next_; ++i) {
    if (ring_[i % kCapacity].query_id == query_id) {
      return ring_[i % kCapacity];
    }
  }
  return std::nullopt;
}

uint64_t ProfileLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

#endif  // !AMNESIA_NO_METRICS

}  // namespace amnesia
