// Copyright 2026 The AmnesiaDB Authors
//
// Where and when the engine fsyncs and deletes. This binary interposes
// fsync, fdatasync, rename, unlink, rmdir, remove, truncate and ftruncate
// at link time: the engine is a static library linked into it, so its
// calls bind to the definitions below, which record each call as (thread,
// op, path) in one global order and forward to the C library's through
// dlsym(RTLD_NEXT). A run in privacy_vacuum's shape (FIFO kDelete on
// mapped partitions, segmented journal, audit ledger, partition drops,
// async checkpoints every 3 batches) then checks:
//  (a) the thread that steps the batches fsyncs nothing under the storage
//      directory or the journal's segment directory: seals, drops and
//      journal rolls leave the disk to the checkpoint writer (the audit
//      ledger still syncs the segments it seals);
//  (b) before each manifest renames into place, everything it depends on
//      is durable: each partition it lists for the first time (column
//      files, and its directory after the files renamed into place), the
//      storage directory after the last seal or drop the manifest
//      reflects, and every journal segment sealed before its capture;
//  (c) the batch thread deletes nothing under the storage, checkpoint or
//      journal directories, and each retention-GC deletion comes after the
//      CURRENT rename of the commit whose pass made it and removes nothing
//      that commit or a later one needs.

#include <dlfcn.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/checkpointer.h"
#include "obs/engine_metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "storage/mapped_file.h"
#include "storage/table.h"

namespace amnesia {
namespace {

namespace fs = std::filesystem;

/// One interposed call that completed successfully.
struct Call {
  enum class Op { kFsync, kRename, kUnlink, kRmdir, kRemove, kTruncate };
  Op op = Op::kFsync;
  std::thread::id thread;
  /// fsync and ftruncate: the descriptor's path; rename: the target;
  /// otherwise the path the call was given.
  std::string path;
  std::string from;  ///< rename: the source.
  /// rename onto MANIFEST-<id>: the manifest bytes.
  std::vector<uint8_t> manifest;
};

struct Recorder {
  std::mutex mu;
  bool on = false;
  std::vector<Call> calls;
};

Recorder& Rec() {
  static Recorder* recorder = new Recorder();
  return *recorder;
}

void Note(Call call) {
  Recorder& rec = Rec();
  std::lock_guard<std::mutex> lock(rec.mu);
  if (!rec.on) return;
  call.thread = std::this_thread::get_id();
  rec.calls.push_back(std::move(call));
}

bool Recording() {
  Recorder& rec = Rec();
  std::lock_guard<std::mutex> lock(rec.mu);
  return rec.on;
}

void StartRecording() {
  Recorder& rec = Rec();
  std::lock_guard<std::mutex> lock(rec.mu);
  rec.calls.clear();
  rec.on = true;
}

std::vector<Call> StopRecording() {
  Recorder& rec = Rec();
  std::lock_guard<std::mutex> lock(rec.mu);
  rec.on = false;
  return std::move(rec.calls);
}

std::string PathOfFd(int fd) {
  char buf[PATH_MAX];
  const std::string link = "/proc/self/fd/" + std::to_string(fd);
  const ssize_t n = ::readlink(link.c_str(), buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<size_t>(n)) : std::string();
}

bool IsManifestName(const std::string& path) {
  const std::string base = fs::path(path).filename().string();
  return base.rfind("MANIFEST-", 0) == 0 &&
         base.find('.') == std::string::npos;
}

template <typename Fn>
Fn Real(const char* name) {
  return reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
}

int RecordedSync(int (*real)(int), int fd) {
  const std::string path = Recording() ? PathOfFd(fd) : std::string();
  const int rc = real(fd);
  if (rc == 0 && !path.empty()) {
    Call call;
    call.op = Call::Op::kFsync;
    call.path = path;
    Note(std::move(call));
  }
  return rc;
}

/// Records a successful unlink, rmdir, remove or truncate of `path`.
int RecordedPathOp(Call::Op op, const char* path, int rc) {
  if (rc == 0 && Recording()) {
    Call call;
    call.op = op;
    call.path = path;
    Note(std::move(call));
  }
  return rc;
}

/// A call that removes a directory entry or cuts bytes off a file.
bool IsDeletion(const Call& call) {
  return call.op == Call::Op::kUnlink || call.op == Call::Op::kRmdir ||
         call.op == Call::Op::kRemove || call.op == Call::Op::kTruncate;
}

}  // namespace
}  // namespace amnesia

extern "C" {

int fsync(int fd) {
  static const auto real = amnesia::Real<int (*)(int)>("fsync");
  return amnesia::RecordedSync(real, fd);
}

int fdatasync(int fd) {
  static const auto real = amnesia::Real<int (*)(int)>("fdatasync");
  return amnesia::RecordedSync(real, fd);
}

int rename(const char* from, const char* to) __THROW {
  static const auto real =
      amnesia::Real<int (*)(const char*, const char*)>("rename");
  const int rc = real(from, to);
  if (rc == 0 && amnesia::Recording()) {
    amnesia::Call call;
    call.op = amnesia::Call::Op::kRename;
    call.from = from;
    call.path = to;
    if (amnesia::IsManifestName(call.path)) {
      std::ifstream in(call.path, std::ios::binary);
      call.manifest.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }
    amnesia::Note(std::move(call));
  }
  return rc;
}

int unlink(const char* path) __THROW {
  static const auto real = amnesia::Real<int (*)(const char*)>("unlink");
  return amnesia::RecordedPathOp(amnesia::Call::Op::kUnlink, path,
                                 real(path));
}

int rmdir(const char* path) __THROW {
  static const auto real = amnesia::Real<int (*)(const char*)>("rmdir");
  return amnesia::RecordedPathOp(amnesia::Call::Op::kRmdir, path, real(path));
}

int remove(const char* path) __THROW {
  static const auto real = amnesia::Real<int (*)(const char*)>("remove");
  return amnesia::RecordedPathOp(amnesia::Call::Op::kRemove, path,
                                 real(path));
}

int truncate(const char* path, off_t size) __THROW {
  static const auto real =
      amnesia::Real<int (*)(const char*, off_t)>("truncate");
  return amnesia::RecordedPathOp(amnesia::Call::Op::kTruncate, path,
                                 real(path, size));
}

int ftruncate(int fd, off_t size) __THROW {
  static const auto real = amnesia::Real<int (*)(int, off_t)>("ftruncate");
  const std::string path =
      amnesia::Recording() ? amnesia::PathOfFd(fd) : std::string();
  return amnesia::RecordedPathOp(amnesia::Call::Op::kTruncate, path.c_str(),
                                 real(fd, size));
}

}  // extern "C"

namespace amnesia {
namespace {

/// Fresh scratch directory per test under its canonical path (the
/// recorded fsync paths are the kernel's), removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) {
    const fs::path path = fs::temp_directory_path() / name;
    fs::remove_all(path);
    fs::create_directories(path);
    path_ = fs::canonical(path).string();
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

std::string ParentOf(const std::string& path) {
  return fs::path(path).parent_path().string();
}

bool IsUnder(const std::string& path, const std::string& dir) {
  return path == dir || path.rfind(dir + "/", 0) == 0;
}

/// The journal's state right after one Initialize()/StepBatch() returned:
/// its next LSN (a checkpoint captured in that call covers exactly this
/// many events) and the base LSNs of the segment files then on disk.
struct BatchEnd {
  uint64_t next_lsn = 0;
  std::set<uint64_t> segments;
};

BatchEnd SnapshotJournal(const Simulator& sim, const std::string& segs) {
  BatchEnd end;
  end.next_lsn = sim.event_log()->next_lsn();
  for (const auto& entry : fs::directory_iterator(segs)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("log-", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 4, 4, ".seg") == 0) {
      end.segments.insert(std::stoull(name.substr(4, name.size() - 8)));
    }
  }
  return end;
}

/// Index of the first fsync in calls[lo, hi) whose path is one of `paths`,
/// or `hi` when there is none.
size_t FindSync(const std::vector<Call>& calls, size_t lo, size_t hi,
                const std::set<std::string>& paths) {
  for (size_t i = lo; i < hi; ++i) {
    if (calls[i].op == Call::Op::kFsync && paths.count(calls[i].path) > 0) {
      return i;
    }
  }
  return hi;
}

SimulationConfig PrivacyVacuumShape(const ScratchDir& dir) {
  SimulationConfig c;
  c.seed = 42;
  c.dbsize = 6000;
  c.upd_perc = 0.3;
  c.policy.kind = PolicyKind::kFifo;
  c.backend = BackendKind::kDelete;
  c.storage_backend = StorageBackend::kMapped;
  c.storage_dir = dir.file("storage");
  c.partition_rows = 1024;
  c.log_format = LogFormat::kSegmented;
  c.log_segment_bytes = 16u << 10;
  c.checkpoint_every_n_batches = 3;
  c.checkpoint_dir = dir.file("ckpt");
  c.checkpoint_retention = 2;
  c.audit_ledger = true;
  c.audit_segment_bytes = 4u << 10;
  c.vacuum_max_age_batches = 4;
  c.queries_per_batch = 20;
  c.record_access = false;
  return c;
}

TEST(FsyncOrderTest, BatchThreadLeavesSyncsToTheWriterBeforeEachManifest) {
  ScratchDir dir("amnesia_fsync_order_test");
  const SimulationConfig config = PrivacyVacuumShape(dir);
  const std::string storage = config.storage_dir;
  const std::string segs = config.checkpoint_dir + "/events.segs";
  auto sim = Simulator::Make(config).value();

  StartRecording();
  const std::thread::id batch_thread = std::this_thread::get_id();
  std::vector<BatchEnd> ends;
  ASSERT_TRUE(sim->Initialize().ok());
  ends.push_back(SnapshotJournal(*sim, segs));
  for (int b = 0; b < 15; ++b) {
    ASSERT_TRUE(sim->StepBatch().ok());
    ends.push_back(SnapshotJournal(*sim, segs));
  }
  ASSERT_TRUE(sim->FlushCheckpoints().ok());
  const std::vector<Call> calls = StopRecording();
  ASSERT_GT(sim->table().partitions().size(), 10u);
  ASSERT_GT(sim->controller().stats().partitions_dropped, 0u);

  // (a) The batch thread leaves partition and journal fsyncs to the
  // writer, which did make some.
  size_t writer_syncs = 0;
  for (const Call& call : calls) {
    if (call.op != Call::Op::kFsync) continue;
    const bool engine_path =
        IsUnder(call.path, storage) || IsUnder(call.path, segs);
    if (call.thread == batch_thread) {
      EXPECT_FALSE(engine_path) << "batch thread fsynced " << call.path;
    } else if (engine_path) {
      ++writer_syncs;
    }
  }
  EXPECT_GT(writer_syncs, 0u);

  // Every journal segment the run made, so each one's successor is known.
  std::set<uint64_t> all_segments;
  for (const BatchEnd& end : ends) {
    all_segments.insert(end.segments.begin(), end.segments.end());
  }

  // (b) Walk the manifests in commit order, each against the one before.
  std::map<std::string, std::set<std::string>> listed_before;
  size_t manifests = 0;
  for (size_t k = 0; k < calls.size(); ++k) {
    if (calls[k].op != Call::Op::kRename || calls[k].manifest.empty()) {
      continue;
    }
    auto manifest = DecodeManifest(calls[k].manifest);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    SCOPED_TRACE("manifest " + std::to_string(manifest->id));
    ++manifests;
    for (const ManifestShard& shard : manifest->shards) {
      ASSERT_EQ(shard.storage_dir, storage);
      const std::set<std::string> listed(shard.partitions.begin(),
                                         shard.partitions.end());
      const std::set<std::string>& before = listed_before[storage];
      // Index of the last seal or drop rename this manifest reflects.
      std::optional<size_t> last_change;
      auto note_change = [&last_change](size_t i) {
        last_change = std::max(last_change.value_or(i), i);
      };
      for (const std::string& name : listed) {
        if (before.count(name) > 0) continue;
        const std::string live = storage + "/" + name;
        const std::string dropped = live + ".dropped";
        size_t files = 0;
        for (size_t r = 0; r < k; ++r) {
          const Call& seal = calls[r];
          if (seal.op != Call::Op::kRename || ParentOf(seal.path) != live) {
            continue;
          }
          ++files;
          note_change(r);
          const std::string file = fs::path(seal.path).filename().string();
          // The file's bytes: fsynced under its tmp name before the
          // rename, or under either partition name after it.
          const bool data_synced =
              FindSync(calls, 0, r, {seal.from}) < r ||
              FindSync(calls, r + 1, k,
                       {seal.path, dropped + "/" + file}) < k;
          EXPECT_TRUE(data_synced) << seal.path;
          EXPECT_LT(FindSync(calls, r + 1, k, {live, dropped}), k)
              << "directory of " << seal.path;
        }
        EXPECT_GT(files, 0u) << "no seal of " << name << " was recorded";
      }
      for (const std::string& name : before) {
        if (listed.count(name) > 0) continue;
        const std::string live = storage + "/" + name;
        for (size_t r = 0; r < k; ++r) {
          if (calls[r].op == Call::Op::kRename && calls[r].from == live &&
              calls[r].path == live + ".dropped") {
            note_change(r);
          }
        }
      }
      if (last_change) {
        EXPECT_LT(FindSync(calls, *last_change + 1, k, {storage}), k)
            << "storage directory after its last reflected change";
      }
      listed_before[storage] = listed;
    }

    // Journal segments sealed before the capture — their successor's base
    // is below the covered LSN — that were still on disk when the
    // capturing call returned.
    const auto end = std::find_if(
        ends.begin(), ends.end(), [&](const BatchEnd& e) {
          return e.next_lsn == manifest->covered_lsn;
        });
    ASSERT_NE(end, ends.end());
    for (const uint64_t base : end->segments) {
      const auto next = all_segments.upper_bound(base);
      if (next == all_segments.end() || *next >= manifest->covered_lsn) {
        continue;
      }
      const std::string path = segs + "/log-" + std::to_string(base) + ".seg";
      EXPECT_LT(FindSync(calls, 0, k, {path}), k) << path;
    }
  }
  EXPECT_GE(manifests, 6u);  // the baseline plus one every 3 of 15 batches
}

/// The names of the blobs `manifest` references.
std::set<std::string> BlobsOf(const Manifest& manifest) {
  std::set<std::string> blobs;
  for (const ManifestShard& shard : manifest.shards) {
    blobs.insert(shard.filename);
  }
  if (manifest.cold.present()) blobs.insert(manifest.cold.filename);
  if (manifest.summary.present()) blobs.insert(manifest.summary.filename);
  return blobs;
}

TEST(FsyncOrderTest, RetentionGcDeletesOnlyAfterItsCommitsCurrentRename) {
  ScratchDir dir("amnesia_delete_order_test");
  const SimulationConfig config = PrivacyVacuumShape(dir);
  const std::string storage = config.storage_dir;
  const std::string ckpt = config.checkpoint_dir;
  const std::string segs = ckpt + "/events.segs";
  auto sim = Simulator::Make(config).value();

  StartRecording();
  const std::thread::id batch_thread = std::this_thread::get_id();
  ASSERT_TRUE(sim->Initialize().ok());
  std::set<uint64_t> all_segments = SnapshotJournal(*sim, segs).segments;
  for (int b = 0; b < 15; ++b) {
    ASSERT_TRUE(sim->StepBatch().ok());
    const BatchEnd end = SnapshotJournal(*sim, segs);
    all_segments.insert(end.segments.begin(), end.segments.end());
  }
  ASSERT_TRUE(sim->FlushCheckpoints().ok());
  const std::vector<Call> calls = StopRecording();

  // Walk the calls in order. `committed` is the last manifest renamed into
  // place; `current_named` says whether CURRENT was renamed since. On the
  // writer those are one commit's two renames, and its GC pass follows.
  std::optional<Manifest> committed;
  bool current_named = false;
  std::set<std::string> deleted_blobs;
  std::map<std::string, size_t> deleted;  // by kind
  for (const Call& call : calls) {
    if (call.op == Call::Op::kRename && !call.manifest.empty()) {
      auto manifest = DecodeManifest(call.manifest);
      ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
      for (const std::string& blob : BlobsOf(*manifest)) {
        EXPECT_EQ(deleted_blobs.count(blob), 0u)
            << "manifest " << manifest->id << " names deleted " << blob;
      }
      committed = std::move(manifest).value();
      current_named = false;
      continue;
    }
    if (call.op == Call::Op::kRename && call.path == ckpt + "/CURRENT") {
      current_named = true;
      continue;
    }
    if (!IsDeletion(call) ||
        !(IsUnder(call.path, storage) || IsUnder(call.path, ckpt))) {
      continue;
    }
    ASSERT_NE(call.thread, batch_thread)
        << "batch thread deleted " << call.path;
    ASSERT_TRUE(committed.has_value()) << "GC deleted " << call.path
                                       << " before any commit";
    SCOPED_TRACE("deleting " + call.path + " after manifest " +
                 std::to_string(committed->id));
    EXPECT_TRUE(current_named) << "before the commit's CURRENT rename";

    // Nothing the newest commit needs goes.
    const std::string name = fs::path(call.path).filename().string();
    if (ParentOf(call.path) == segs) {
      ++deleted["journal segment"];
      const uint64_t base = std::stoull(name.substr(4, name.size() - 8));
      const auto next = all_segments.upper_bound(base);
      ASSERT_NE(next, all_segments.end()) << "the journal's last segment";
      EXPECT_LE(*next, committed->covered_lsn) << "a segment it replays";
    } else if (ParentOf(call.path) == ckpt && IsManifestName(name)) {
      ++deleted["manifest"];
      EXPECT_NE(name, "MANIFEST-" + std::to_string(committed->id));
    } else if (ParentOf(call.path) == ckpt) {
      ++deleted["blob"];
      EXPECT_EQ(BlobsOf(*committed).count(name), 0u);
      deleted_blobs.insert(name);
    } else {
      ASSERT_TRUE(IsUnder(call.path, storage));
      ++deleted["partition entry"];
      const std::string rel = call.path.substr(storage.size() + 1);
      Tick lo = 0, hi = 0;
      bool dropped = false;
      ASSERT_TRUE(ParsePartitionDirName(rel.substr(0, rel.find('/')), &lo,
                                        &hi, &dropped));
      EXPECT_TRUE(dropped);
      for (const ManifestShard& shard : committed->shards) {
        for (const std::string& listed : shard.partitions) {
          EXPECT_NE(listed, PartitionDirName(lo, hi));
        }
      }
    }
  }
  // The run exercised every kind of GC deletion.
  for (const char* kind :
       {"journal segment", "manifest", "blob", "partition entry"}) {
    EXPECT_GT(deleted[kind], 0u) << kind;
  }
}

TEST(FsyncOrderTest, SyncStepRecordsOneSamplePerSyncingCommit) {
#if defined(AMNESIA_NO_METRICS)
  GTEST_SKIP() << "metrics compiled out (AMNESIA_NO_METRICS)";
#endif
  ScratchDir dir("amnesia_fsync_metrics_test");
  StorageOptions storage;
  storage.backend = StorageBackend::kMapped;
  storage.dir = dir.file("storage");
  storage.partition_rows = 64;
  Table table =
      Table::Make(Schema::SingleColumn("v", 0, 1'000'000), storage).value();
  auto append = [&table](int rows) {
    for (int i = 0; i < rows; ++i) ASSERT_TRUE(table.AppendRow({i}).ok());
  };
  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  obs::Histogram* sync_ns = obs::EngineMetrics::Get().checkpoint_sync_ns;
  const uint64_t samples = sync_ns->Snapshot().count;

  // First commit: three partitions, each one file and one directory,
  // then the storage directory. Second: the one partition sealed since.
  append(200);
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());
  append(64);
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());
  EXPECT_EQ(sync_ns->Snapshot().count, samples + 2);

  std::vector<std::pair<int64_t, int64_t>> synced;
  for (const obs::TraceSpan& span : obs::TraceLog::Global().Snapshot()) {
    if (std::string(span.name) != "checkpoint.sync") continue;
    ASSERT_EQ(span.num_annotations, 2);
    synced.emplace_back(span.annotations[0].value, span.annotations[1].value);
  }
  ASSERT_GE(synced.size(), 2u);
  EXPECT_EQ(synced[synced.size() - 2], std::make_pair(int64_t{3}, int64_t{4}));
  EXPECT_EQ(synced.back(), std::make_pair(int64_t{1}, int64_t{2}));
}

}  // namespace
}  // namespace amnesia
