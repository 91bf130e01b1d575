// Copyright 2026 The AmnesiaDB Authors

#include "durability/checkpointer.h"

#include <algorithm>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "common/fs.h"
#include "common/logging.h"
#include "durability/log_segments.h"
#include "obs/engine_metrics.h"
#include "obs/trace.h"
#include "storage/checkpoint.h"
#include "storage/checkpoint_io.h"
#include "storage/mapped_file.h"

namespace amnesia {

namespace {

constexpr uint32_t kManifestMagic = 0x414D4D46;  // "AMMF"
// The one manifest layout: shard blobs with their mapped-storage fields
// (empty for vector shards), then the cold/summary tier entries. Any
// other version is refused.
constexpr uint32_t kManifestVersion = 3;
constexpr const char* kManifestPrefix = "MANIFEST-";
constexpr const char* kCurrentName = "CURRENT";

std::string ManifestName(uint64_t id) {
  return kManifestPrefix + std::to_string(id);
}

std::string BlobName(uint64_t checkpoint_id, size_t shard) {
  return "ckpt-" + std::to_string(checkpoint_id) + "-shard-" +
         std::to_string(shard) + ".blob";
}

std::string TierBlobName(uint64_t checkpoint_id, const char* tier) {
  return "ckpt-" + std::to_string(checkpoint_id) + "-" + tier + ".blob";
}

/// Produces `blobs[i] = serialize(i)` for every i in `indices` (each
/// < `count`; other slots stay empty), fanning the serializers out on
/// `pool` via SubmitTask futures when one is given and more than one blob
/// is needed. The caller must not be a pool worker (the futures are
/// waited on directly).
template <typename Fn>
std::vector<std::vector<uint8_t>> SerializeBlobs(
    ThreadPool* pool, size_t count, const std::vector<size_t>& indices,
    const Fn& serialize) {
  std::vector<std::vector<uint8_t>> blobs(count);
  if (pool != nullptr && indices.size() > 1) {
    std::vector<std::future<std::vector<uint8_t>>> futures;
    futures.reserve(indices.size());
    for (size_t i : indices) {
      futures.push_back(pool->SubmitTask([&serialize, i] {
        return serialize(i);
      }));
    }
    for (size_t k = 0; k < indices.size(); ++k) {
      blobs[indices[k]] = futures[k].get();
    }
  } else {
    for (size_t i : indices) blobs[i] = serialize(i);
  }
  return blobs;
}

bool IsBlobName(const std::string& name) {
  return name.rfind("ckpt-", 0) == 0 && name.size() > 5 &&
         name.rfind(".blob") == name.size() - 5;
}

/// Reads and decodes `dir`/MANIFEST-<id>.
StatusOr<Manifest> ReadManifest(const std::string& dir, uint64_t id) {
  AMNESIA_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                           ReadBytesFile(dir + "/" + ManifestName(id)));
  return DecodeManifest(bytes);
}

void EncodeManifestBlob(ckpt::Writer* w, const ManifestBlob& blob) {
  w->U8(blob.present() ? 1 : 0);
  if (!blob.present()) return;
  w->String(blob.filename);
  w->U64(blob.size);
  w->U32(blob.crc32);
}

Status DecodeManifestBlob(ckpt::Reader* r, ManifestBlob* blob) {
  uint8_t present = 0;
  AMNESIA_RETURN_NOT_OK(r->U8(&present));
  if (present == 0) {
    *blob = ManifestBlob{};
    return Status::OK();
  }
  AMNESIA_RETURN_NOT_OK(r->String(&blob->filename));
  if (blob->filename.empty()) {
    return Status::InvalidArgument("manifest tier entry without a filename");
  }
  AMNESIA_RETURN_NOT_OK(r->U64(&blob->size));
  AMNESIA_RETURN_NOT_OK(r->U32(&blob->crc32));
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<uint64_t>> ListManifestIds(const std::string& dir) {
  AMNESIA_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                           ListDirEntries(dir));
  std::vector<uint64_t> ids;
  const size_t prefix_len = std::strlen(kManifestPrefix);
  for (const std::string& name : names) {
    if (name.rfind(kManifestPrefix, 0) != 0) continue;
    const std::string suffix = name.substr(prefix_len);
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    ids.push_back(std::strtoull(suffix.c_str(), nullptr, 10));
  }
  return ids;
}

std::vector<uint8_t> EncodeManifest(const Manifest& manifest) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  w.U32(kManifestMagic);
  w.U32(kManifestVersion);
  w.U64(manifest.id);
  w.U64(manifest.covered_lsn);
  w.U64(manifest.ingest_cursor);
  w.U64(manifest.shards.size());
  for (const ManifestShard& shard : manifest.shards) {
    w.U64(shard.epoch);
    w.String(shard.filename);
    w.U64(shard.size);
    w.U32(shard.crc32);
    w.String(shard.storage_dir);
    w.U64(shard.partition_rows);
    w.U64(shard.partitions.size());
    for (const std::string& name : shard.partitions) w.String(name);
  }
  EncodeManifestBlob(&w, manifest.cold);
  EncodeManifestBlob(&w, manifest.summary);
  w.U32(ckpt::Crc32(out));
  return out;
}

StatusOr<Manifest> DecodeManifest(const std::vector<uint8_t>& buffer) {
  if (buffer.size() < sizeof(uint32_t)) {
    return Status::InvalidArgument("manifest truncated");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buffer.data() + buffer.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  if (ckpt::Crc32(buffer.data(), buffer.size() - sizeof(stored_crc)) !=
      stored_crc) {
    return Status::InvalidArgument("manifest checksum mismatch (truncated "
                                   "or corrupt)");
  }

  ckpt::Reader r(buffer);
  uint32_t magic = 0, version = 0;
  AMNESIA_RETURN_NOT_OK(r.U32(&magic));
  if (magic != kManifestMagic) {
    return Status::InvalidArgument("not an AmnesiaDB checkpoint manifest");
  }
  AMNESIA_RETURN_NOT_OK(r.U32(&version));
  if (version != kManifestVersion) {
    return Status::FailedPrecondition("unsupported manifest version " +
                                      std::to_string(version));
  }
  Manifest manifest;
  AMNESIA_RETURN_NOT_OK(r.U64(&manifest.id));
  AMNESIA_RETURN_NOT_OK(r.U64(&manifest.covered_lsn));
  AMNESIA_RETURN_NOT_OK(r.U64(&manifest.ingest_cursor));
  uint64_t shards = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&shards));
  if (shards == 0 || shards > kMaxShards) {
    return Status::InvalidArgument("implausible manifest shard count");
  }
  manifest.shards.resize(static_cast<size_t>(shards));
  for (ManifestShard& shard : manifest.shards) {
    AMNESIA_RETURN_NOT_OK(r.U64(&shard.epoch));
    AMNESIA_RETURN_NOT_OK(r.String(&shard.filename));
    AMNESIA_RETURN_NOT_OK(r.U64(&shard.size));
    AMNESIA_RETURN_NOT_OK(r.U32(&shard.crc32));
    AMNESIA_RETURN_NOT_OK(r.String(&shard.storage_dir));
    AMNESIA_RETURN_NOT_OK(r.U64(&shard.partition_rows));
    uint64_t parts = 0;
    AMNESIA_RETURN_NOT_OK(r.U64(&parts));
    // Each name carries at least its 8-byte length prefix.
    if (parts > r.remaining() / sizeof(uint64_t)) {
      return Status::InvalidArgument("implausible manifest partition count");
    }
    shard.partitions.resize(static_cast<size_t>(parts));
    for (std::string& name : shard.partitions) {
      AMNESIA_RETURN_NOT_OK(r.String(&name));
    }
  }
  AMNESIA_RETURN_NOT_OK(DecodeManifestBlob(&r, &manifest.cold));
  AMNESIA_RETURN_NOT_OK(DecodeManifestBlob(&r, &manifest.summary));
  return manifest;
}

Status ClearCheckpointArtifacts(const std::string& dir) {
  return RemoveMatchingFiles(dir, [](const std::string& name) {
    return name.rfind(kManifestPrefix, 0) == 0 || name == kCurrentName ||
           IsBlobName(name);
  });
}

// -------------------------------------------------- BackgroundCheckpointer

StatusOr<BackgroundCheckpointer> BackgroundCheckpointer::Make(
    const CheckpointerOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("checkpointer needs a directory");
  }
  if (options.log != nullptr) {
    const bool is_segmented =
        dynamic_cast<SegmentedEventLog*>(options.log) != nullptr;
    if (is_segmented != (options.log_format == LogFormat::kSegmented)) {
      return Status::InvalidArgument(
          "log_format does not match the log implementation");
    }
  }
  AMNESIA_RETURN_NOT_OK(EnsureDir(options.dir));
  BackgroundCheckpointer out(options);
  // Resume the id sequence past manifests from a previous incarnation so
  // blob names never collide across a crash.
  AMNESIA_ASSIGN_OR_RETURN(const std::vector<uint64_t> ids,
                           ListManifestIds(options.dir));
  for (uint64_t id : ids) {
    out.next_checkpoint_id_ = std::max(out.next_checkpoint_id_, id + 1);
  }
  return out;
}

BackgroundCheckpointer::~BackgroundCheckpointer() {
  if (inflight_.joinable()) inflight_.join();
}

BackgroundCheckpointer::BackgroundCheckpointer(
    BackgroundCheckpointer&& other) noexcept
    : shared_(std::move(other.shared_)),
      next_checkpoint_id_(other.next_checkpoint_id_),
      inflight_(std::move(other.inflight_)) {
  // Safe even mid-flight: the writer thread co-owns the Shared block and
  // never touches the checkpointer object, so the thread handle simply
  // moves along with the state it belongs to.
}

Status BackgroundCheckpointer::WaitIdle() {
  if (inflight_.joinable()) inflight_.join();
  std::lock_guard<std::mutex> lock(shared_->mu);
  Status out = std::move(shared_->inflight_status);
  shared_->inflight_status = Status::OK();
  return out;
}

CheckpointerStats BackgroundCheckpointer::stats() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->stats;
}

BackgroundCheckpointer::Health BackgroundCheckpointer::health() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  Health h;
  h.last_write = shared_->inflight_status;
  h.checkpoints = shared_->stats.checkpoints;
  h.last_durable_lsn = shared_->last_durable_lsn;
  return h;
}

namespace {

/// Deletes manifests older than the newest `retain`, blobs no retained
/// manifest references, and the event-log prefix below the oldest
/// retained covered LSN, counting the files it deleted into `out`'s
/// *_gced fields. Runs strictly after the commit rename; every
/// deletion is individually crash-safe (a crash mid-GC leaves extra files
/// the next pass collects). When a retained manifest fails to decode the
/// pass backs off without deleting anything: GC must never turn a
/// readable directory into an unreadable one.
Status RunRetentionGc(const CheckpointerOptions& options,
                      CheckpointerStats* out) {
  AMNESIA_ASSIGN_OR_RETURN(std::vector<uint64_t> ids,
                           ListManifestIds(options.dir));
  std::sort(ids.begin(), ids.end(), std::greater<uint64_t>());
  if (ids.empty()) return Status::OK();
  const size_t keep = std::min<size_t>(options.retain, ids.size());

  std::set<std::string> referenced;
  // Per mapped storage directory: base names of partitions some retained
  // manifest still lists as live.
  std::map<std::string, std::set<std::string>> live_partitions;
  uint64_t oldest_covered = std::numeric_limits<uint64_t>::max();
  for (size_t i = 0; i < keep; ++i) {
    // Backing off keeps GC from ever turning a readable directory into an
    // unreadable one — but it also means the disk stops shrinking, so the
    // operator must be able to see WHICH manifest is pinning it.
    const StatusOr<Manifest> manifest = ReadManifest(options.dir, ids[i]);
    if (!manifest.ok()) {
      AMNESIA_LOG(kWarning)
          << "retention GC backing off: retained manifest " << ids[i]
          << " in '" << options.dir << "' does not read ("
          << manifest.status().ToString()
          << "); no checkpoint, blob or log prefix will be deleted until "
             "it reads";
      return Status::OK();  // back off, collect next time
    }
    for (const ManifestShard& shard : manifest->shards) {
      referenced.insert(shard.filename);
      if (shard.mapped()) {
        live_partitions[shard.storage_dir].insert(shard.partitions.begin(),
                                                  shard.partitions.end());
      }
    }
    if (manifest->cold.present()) referenced.insert(manifest->cold.filename);
    if (manifest->summary.present()) {
      referenced.insert(manifest->summary.filename);
    }
    oldest_covered = std::min(oldest_covered, manifest->covered_lsn);
  }

  for (size_t i = keep; i < ids.size(); ++i) {
    AMNESIA_RETURN_NOT_OK(
        RemoveFile(options.dir + "/" + ManifestName(ids[i])));
    ++out->manifests_gced;
  }
  AMNESIA_RETURN_NOT_OK(RemoveMatchingFiles(
      options.dir,
      [&referenced](const std::string& name) {
        return IsBlobName(name) && referenced.count(name) == 0;
      },
      &out->blobs_gced));

  // Partition-directory GC. Dropping a partition renames its directory to
  // `part-*.dropped` (the O(1) forget) and leaves the unlink to this
  // pass: the renamed bytes must stay on disk while any retained manifest
  // still lists the partition as live, because recovering from such a
  // manifest re-maps the files (under either name) and replays the drop
  // event from the log tail. Once no retained manifest lists it, every
  // recovery path sees it dropped and the bytes are unreachable.
  for (const auto& [storage_dir, live] : live_partitions) {
    auto entries = ListDirEntries(storage_dir);
    if (!entries.ok()) continue;  // storage dir gone; nothing to collect
    for (const std::string& name : entries.value()) {
      Tick lo = 0, hi = 0;
      bool dropped = false;
      if (!ParsePartitionDirName(name, &lo, &hi, &dropped) || !dropped) {
        continue;
      }
      if (live.count(PartitionDirName(lo, hi)) > 0) continue;
      if (RemoveDirRecursive(storage_dir + "/" + name).ok()) {
        ++out->partition_dirs_gced;
      }  // else: leave it for the next pass
    }
  }

  if (options.test_crash_hook && options.test_crash_hook("gc")) {
    return Status::FailedPrecondition("injected crash after GC deletions");
  }
  if (options.log != nullptr &&
      oldest_covered != std::numeric_limits<uint64_t>::max()) {
    AMNESIA_RETURN_NOT_OK(options.log->TruncateBefore(oldest_covered));
  }
  if (options.on_retention_gc &&
      oldest_covered != std::numeric_limits<uint64_t>::max()) {
    options.on_retention_gc(oldest_covered);
  }
  return Status::OK();
}

/// fsyncs one partition's column files, then its directory, under its
/// live name or, when the batch thread dropped it since the capture, its
/// `.dropped` name (the two names Table::FromParts maps). A partition gone
/// under both names was dropped and unlinked since: nothing to sync.
Status SyncPartition(const Table::Parts& image, const PartitionMeta& p,
                     uint64_t* files, uint64_t* dirs) {
  for (const std::string& name : {PartitionDirName(p.epoch_lo, p.epoch_hi),
                                  DroppedPartitionDirName(p.epoch_lo,
                                                          p.epoch_hi)}) {
    const std::string dir = image.storage.dir + "/" + name;
    Status status = Status::OK();
    uint64_t synced = 0;
    for (size_t c = 0; c < image.schema.num_columns() && status.ok(); ++c) {
      status = FsyncPath(dir + "/" +
                         PartitionColumnFileName(image.schema.column(c).name));
      if (status.ok()) ++synced;
    }
    if (status.ok()) status = FsyncPath(dir);
    if (status.code() == StatusCode::kNotFound) continue;  // renamed away
    AMNESIA_RETURN_NOT_OK(status);
    *files += synced;
    ++*dirs;
    return Status::OK();
  }
  return Status::OK();
}

/// Serializes a tier blob, reusing the previous durable blob when the
/// bytes are unchanged (size + CRC match). Updates `entry` (the manifest
/// slot), `durable` (the skip cache) and the counters.
Status WriteTierBlob(const std::string& dir, const std::vector<uint8_t>& bytes,
                     const std::string& filename, ManifestBlob* entry,
                     ManifestBlob* durable, uint64_t* bytes_written,
                     uint64_t* written, uint64_t* skipped) {
  ManifestBlob fresh;
  fresh.filename = filename;
  fresh.size = bytes.size();
  fresh.crc32 = ckpt::Crc32(bytes);
  if (durable->present() && durable->size == fresh.size &&
      durable->crc32 == fresh.crc32) {
    *entry = *durable;  // reference the existing file
    ++*skipped;
    return Status::OK();
  }
  AMNESIA_RETURN_NOT_OK(WriteBytesFileAtomic(bytes, dir + "/" + filename));
  *bytes_written += bytes.size();
  ++*written;
  *entry = fresh;
  *durable = fresh;
  return Status::OK();
}

}  // namespace

Status BackgroundCheckpointer::WriteSnapshot(
    const std::shared_ptr<Shared>& shared, TableSnapshot snapshot,
    uint64_t covered_lsn, uint64_t checkpoint_id) {
  obs::EngineMetrics& metrics = obs::EngineMetrics::Get();
  obs::TraceScope trace("checkpoint.write", metrics.checkpoint_write_ns);
  trace.Annotate("checkpoint_id", static_cast<int64_t>(checkpoint_id));
  const CheckpointerOptions& options = shared->options;
  auto crash = [&options](const char* phase) {
    return options.test_crash_hook && options.test_crash_hook(phase);
  };
  const size_t num_shards = snapshot.shards.size();

  // Work off a local copy of the durable-blob cache; the shared cache and
  // stats only update after the manifest commits, so an abandoned write
  // never poisons the skip decisions of the next one.
  std::vector<ManifestShard> durable_shards;
  ManifestBlob durable_cold, durable_summary;
  {
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->durable_shards.resize(num_shards);
    durable_shards = shared->durable_shards;
    durable_cold = shared->durable_cold;
    durable_summary = shared->durable_summary;
  }
  // A checkpoint without a tier commits a manifest without that tier's
  // entry, so nothing keeps the cached blob alive through retention GC.
  // Drop the cache: the next tiered checkpoint must write fresh bytes
  // rather than reference a file GC may have deleted.
  if (!snapshot.cold) durable_cold = ManifestBlob{};
  if (!snapshot.summaries) durable_summary = ManifestBlob{};

  Manifest manifest;
  manifest.id = checkpoint_id;
  manifest.covered_lsn = covered_lsn;
  manifest.ingest_cursor = snapshot.ingest_cursor;
  manifest.shards.resize(num_shards);

  CheckpointerStats delta;

  // Encode the shards whose epoch advanced, concurrently on the pool when
  // one is given. The writing thread is never a pool worker, so waiting on
  // the futures is safe.
  std::vector<size_t> to_write;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!durable_shards[s].filename.empty() &&
        durable_shards[s].epoch == snapshot.shards[s].epoch) {
      manifest.shards[s] = durable_shards[s];
      ++delta.shards_skipped;
    } else {
      to_write.push_back(s);
    }
  }
  const std::vector<std::vector<uint8_t>> blobs = SerializeBlobs(
      options.pool, num_shards, to_write, [&snapshot](size_t s) {
        return EncodeTableParts(snapshot.shards[s].image);
      });

  // What the manifest depends on that the last durable one did not: the
  // partitions it lists for the first time, as (shard, partition index),
  // and the storage directories whose live-partition list changed.
  std::vector<std::pair<size_t, size_t>> new_partitions;
  std::set<std::string> changed_dirs;
  for (size_t s : to_write) {
    const Table::Parts& image = snapshot.shards[s].image;
    ManifestShard entry;
    entry.epoch = snapshot.shards[s].epoch;
    entry.filename = BlobName(checkpoint_id, s);
    entry.size = blobs[s].size();
    entry.crc32 = ckpt::Crc32(blobs[s]);
    if (image.storage.backend == StorageBackend::kMapped) {
      entry.storage_dir = image.storage.dir;
      entry.partition_rows = image.storage.partition_rows;
      const std::set<std::string> durable(
          durable_shards[s].partitions.begin(),
          durable_shards[s].partitions.end());
      for (size_t i = 0; i < image.partitions.size(); ++i) {
        const PartitionMeta& p = image.partitions[i];
        if (p.dropped) continue;
        entry.partitions.push_back(PartitionDirName(p.epoch_lo, p.epoch_hi));
        if (durable.count(entry.partitions.back()) == 0) {
          new_partitions.emplace_back(s, i);
        }
      }
      if (entry.partitions != durable_shards[s].partitions) {
        changed_dirs.insert(entry.storage_dir);
      }
    }
    AMNESIA_RETURN_NOT_OK(
        WriteBytesFileAtomic(blobs[s], options.dir + "/" + entry.filename));
    delta.bytes_written += blobs[s].size();
    ++delta.shards_written;
    manifest.shards[s] = entry;
    durable_shards[s] = std::move(entry);
  }
  if (crash("shard-blobs")) {
    return Status::FailedPrecondition("injected crash after shard blobs");
  }

  // Tier blobs, captured in the same pass as the shards and committed by
  // the same manifest, so table and tiers commit atomically.
  if (snapshot.cold) {
    AMNESIA_RETURN_NOT_OK(WriteTierBlob(
        options.dir, CheckpointColdStore(*snapshot.cold),
        TierBlobName(checkpoint_id, "cold"), &manifest.cold, &durable_cold,
        &delta.bytes_written, &delta.tier_blobs_written,
        &delta.tier_blobs_skipped));
  }
  if (snapshot.summaries) {
    AMNESIA_RETURN_NOT_OK(WriteTierBlob(
        options.dir, CheckpointSummaryStore(*snapshot.summaries),
        TierBlobName(checkpoint_id, "summary"), &manifest.summary,
        &durable_summary, &delta.bytes_written, &delta.tier_blobs_written,
        &delta.tier_blobs_skipped));
  }
  if (crash("tier-blobs")) {
    return Status::FailedPrecondition("injected crash after tier blobs");
  }

  // Make durable what the manifest depends on, here rather than on the
  // batch thread that sealed, dropped or rolled it: the journal segments
  // sealed so far, each newly listed partition's files and directory, then
  // each storage directory whose listing changed (new partition
  // directories and drop renames).
  {
    obs::TraceScope sync_trace("checkpoint.sync", metrics.checkpoint_sync_ns);
    uint64_t files = 0;
    uint64_t dirs = 0;
    if (options.log != nullptr) {
      AMNESIA_ASSIGN_OR_RETURN(files, options.log->SyncSealed());
    }
    for (const auto& [s, i] : new_partitions) {
      const Table::Parts& image = snapshot.shards[s].image;
      AMNESIA_RETURN_NOT_OK(
          SyncPartition(image, image.partitions[i], &files, &dirs));
    }
    for (const std::string& dir : changed_dirs) {
      AMNESIA_RETURN_NOT_OK(FsyncPath(dir));
      ++dirs;
    }
    sync_trace.Annotate("files_synced", static_cast<int64_t>(files));
    sync_trace.Annotate("dirs_synced", static_cast<int64_t>(dirs));
  }

  // Commit point: the manifest (then CURRENT) renames into place.
  const std::vector<uint8_t> manifest_bytes = EncodeManifest(manifest);
  AMNESIA_RETURN_NOT_OK(WriteBytesFileAtomic(
      manifest_bytes, options.dir + "/" + ManifestName(checkpoint_id)));
  delta.bytes_written += manifest_bytes.size();
  if (crash("manifest")) {
    return Status::FailedPrecondition("injected crash after manifest");
  }
  const std::string current = ManifestName(checkpoint_id);
  AMNESIA_RETURN_NOT_OK(WriteBytesFileAtomic(
      std::vector<uint8_t>(current.begin(), current.end()),
      options.dir + "/" + kCurrentName));
  ++delta.checkpoints;
  if (crash("current")) {
    return Status::FailedPrecondition("injected crash after CURRENT");
  }

  // Retention GC, strictly after the commit.
  Status gc_status = Status::OK();
  if (options.retain > 0) {
    obs::TraceScope gc_trace("checkpoint.gc", metrics.checkpoint_gc_ns);
    gc_status = RunRetentionGc(options, &delta);
    gc_trace.Annotate("manifests_deleted",
                      static_cast<int64_t>(delta.manifests_gced));
    gc_trace.Annotate("blobs_deleted", static_cast<int64_t>(delta.blobs_gced));
  }

  // Mirror the committed delta into the registry at the same point the
  // per-instance stats absorb it, so both views advance together.
  metrics.checkpoint_commits->Inc(delta.checkpoints);
  metrics.checkpoint_bytes_written->Inc(delta.bytes_written);
  metrics.checkpoint_shards_written->Inc(delta.shards_written);
  metrics.checkpoint_shards_skipped->Inc(delta.shards_skipped);
  trace.Annotate("bytes_written", static_cast<int64_t>(delta.bytes_written));
  trace.Annotate("shards_skipped",
                 static_cast<int64_t>(delta.shards_skipped));

  {
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->durable_shards = std::move(durable_shards);
    shared->durable_cold = durable_cold;
    shared->durable_summary = durable_summary;
    shared->stats.checkpoints += delta.checkpoints;
    shared->stats.shards_written += delta.shards_written;
    shared->stats.shards_skipped += delta.shards_skipped;
    shared->stats.tier_blobs_written += delta.tier_blobs_written;
    shared->stats.tier_blobs_skipped += delta.tier_blobs_skipped;
    shared->stats.bytes_written += delta.bytes_written;
    shared->stats.manifests_gced += delta.manifests_gced;
    shared->stats.blobs_gced += delta.blobs_gced;
    shared->stats.partition_dirs_gced += delta.partition_dirs_gced;
    if (delta.checkpoints > 0 &&
        covered_lsn > shared->last_durable_lsn) {
      shared->last_durable_lsn = covered_lsn;
    }
  }
  return gc_status;
}

Status BackgroundCheckpointer::Checkpoint(const TableShards& table,
                                          uint64_t covered_lsn,
                                          const TierSet& tiers) {
  // One write in flight at a time; surfacing the previous write's error
  // here keeps the Status chain unbroken in async mode.
  AMNESIA_RETURN_NOT_OK(WaitIdle());

  TableSnapshot snapshot;
  {
    obs::TraceScope capture_trace(
        "checkpoint.capture",
        obs::EngineMetrics::Get().checkpoint_capture_ns);
    snapshot.ingest_cursor = table.ingest_cursor();
    snapshot.shards.reserve(table.num_shards());
    for (uint32_t s = 0; s < table.num_shards(); ++s) {
      const Table& shard = table.shard(s);
      snapshot.shards.push_back(TableSnapshot::Shard{
          shard.version() + shard.access_epoch(), shard.ToParts()});
    }
    // Tier copies in the same pass: the caller holds mutations off for
    // the whole capture, so table and tiers are one consistent cut.
    if (tiers.cold != nullptr) snapshot.cold = *tiers.cold;
    if (tiers.summaries != nullptr) snapshot.summaries = *tiers.summaries;
  }
  const uint64_t id = next_checkpoint_id_++;

  if (!shared_->options.async) {
    return WriteSnapshot(shared_, std::move(snapshot), covered_lsn, id);
  }

  inflight_ = std::thread([shared = shared_, snapshot = std::move(snapshot),
                           covered_lsn, id]() mutable {
    Status status = WriteSnapshot(shared, std::move(snapshot), covered_lsn, id);
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->inflight_status = std::move(status);
  });
  return Status::OK();
}

// ---------------------------------------------------------------- Recover

namespace {

/// Reads one referenced blob and verifies its size and checksum. Any
/// mismatch fails the whole manifest so recovery can fall back.
StatusOr<std::vector<uint8_t>> ReadVerifiedBlob(const std::string& dir,
                                                const std::string& filename,
                                                uint64_t size,
                                                uint32_t crc32) {
  AMNESIA_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                           ReadBytesFile(dir + "/" + filename));
  if (blob.size() != size || ckpt::Crc32(blob) != crc32) {
    return Status::InvalidArgument("blob '" + filename +
                                   "' fails size/checksum verification");
  }
  return blob;
}

/// Restores every shard a manifest references. Mapped shards re-map their
/// partition files from the recorded storage
/// directory instead of deserializing the sealed payload; a torn or
/// missing partition file fails the manifest so recovery falls back.
Status RestoreManifestShards(const std::string& dir, const Manifest& manifest,
                             std::vector<Table>* out) {
  out->clear();
  out->reserve(manifest.shards.size());
  for (const ManifestShard& entry : manifest.shards) {
    AMNESIA_ASSIGN_OR_RETURN(
        std::vector<uint8_t> blob,
        ReadVerifiedBlob(dir, entry.filename, entry.size, entry.crc32));
    AMNESIA_ASSIGN_OR_RETURN(Table table,
                             RestoreTable(blob, entry.storage_dir));
    out->push_back(std::move(table));
  }
  return Status::OK();
}

/// Restores the tier blobs the manifest references (a tier it does not
/// carry leaves its optional empty).
Status RestoreManifestTiers(const std::string& dir, const Manifest& manifest,
                            RecoveredState* state) {
  state->cold.reset();
  state->summaries.reset();
  if (manifest.cold.present()) {
    AMNESIA_ASSIGN_OR_RETURN(
        std::vector<uint8_t> blob,
        ReadVerifiedBlob(dir, manifest.cold.filename, manifest.cold.size,
                         manifest.cold.crc32));
    AMNESIA_ASSIGN_OR_RETURN(ColdStore cold, RestoreColdStore(blob));
    state->cold.emplace(std::move(cold));
  }
  if (manifest.summary.present()) {
    AMNESIA_ASSIGN_OR_RETURN(
        std::vector<uint8_t> blob,
        ReadVerifiedBlob(dir, manifest.summary.filename, manifest.summary.size,
                         manifest.summary.crc32));
    AMNESIA_ASSIGN_OR_RETURN(SummaryStore summaries,
                             RestoreSummaryStore(blob));
    state->summaries.emplace(std::move(summaries));
  }
  return Status::OK();
}

}  // namespace

StatusOr<RecoveredState> Recover(const std::string& dir,
                                 const std::string& log_path) {
  // Candidate manifests, newest first; the CURRENT pointer is a hint that
  // goes first when it parses.
  AMNESIA_ASSIGN_OR_RETURN(std::vector<uint64_t> ids, ListManifestIds(dir));
  std::sort(ids.begin(), ids.end(), std::greater<uint64_t>());
  {
    auto current = ReadBytesFile(dir + "/" + kCurrentName);
    if (current.ok()) {
      const std::string name(current.value().begin(), current.value().end());
      const size_t prefix_len = std::strlen(kManifestPrefix);
      if (name.rfind(kManifestPrefix, 0) == 0) {
        const uint64_t id =
            std::strtoull(name.substr(prefix_len).c_str(), nullptr, 10);
        auto it = std::find(ids.begin(), ids.end(), id);
        if (it != ids.end()) std::rotate(ids.begin(), it, it + 1);
      }
    }
  }
  if (ids.empty()) {
    return Status::NotFound("no checkpoint manifest in '" + dir + "'");
  }

  // The log is shared by every candidate; read it once. An absent log
  // file means no events were recorded after the snapshot (restore it
  // as-is); any other read failure is a real I/O error and recovery must
  // not silently pretend the log was empty.
  EventLogContents log;
  bool log_present = false;
  if (!log_path.empty()) {
    auto read = ReadAnyEventLogContents(log_path);
    if (read.ok()) {
      log = std::move(read).value();
      log_present = true;
    } else if (read.status().code() != StatusCode::kNotFound) {
      return read.status();
    }
  }

  Status last_error = Status::NotFound("no usable checkpoint manifest");
  for (uint64_t id : ids) {
    auto manifest = ReadManifest(dir, id);
    if (!manifest.ok()) {
      last_error = manifest.status();
      continue;
    }
    if (log_present && manifest->covered_lsn > log.next_lsn()) {
      // A log that exists but is shorter than the manifest's coverage has
      // lost records; an older manifest covers a shorter prefix. (With no
      // log file at all, the snapshot alone is the complete state as of
      // its covered LSN.)
      last_error = Status::InvalidArgument(
          "event log shorter than manifest coverage");
      continue;
    }
    if (log_present && manifest->covered_lsn < log.base_lsn) {
      // The log was compacted past this manifest's coverage: the events
      // between covered_lsn and the base are gone, so this (old, normally
      // GC'd) manifest cannot be replayed forward. A newer retained
      // manifest covers at least the base.
      last_error = Status::InvalidArgument(
          "event log truncated past manifest coverage");
      continue;
    }
    RecoveredState state;
    Status restored = RestoreManifestShards(dir, *manifest, &state.shards);
    if (!restored.ok()) {
      last_error = std::move(restored);
      continue;
    }
    restored = RestoreManifestTiers(dir, *manifest, &state);
    if (!restored.ok()) {
      last_error = std::move(restored);
      continue;
    }
    state.ingest_cursor = manifest->ingest_cursor;
    state.checkpoint_id = manifest->id;
    state.covered_lsn = manifest->covered_lsn;
    // Tail forget events re-route into the tiers restored from THIS
    // manifest.
    ReplaySinks sinks;
    if (state.cold) sinks.cold = &*state.cold;
    if (state.summaries) sinks.summaries = &*state.summaries;
    auto replayed = ReplayEvents(
        log.events, manifest->covered_lsn - log.base_lsn, &state.shards,
        &state.ingest_cursor, sinks);
    if (!replayed.ok()) {
      last_error = replayed.status();
      continue;
    }
    state.events_replayed = replayed.value();
    return state;
  }
  return last_error;
}

Status CollectCheckpointGarbage(const std::string& dir, uint32_t retain,
                                EventLogBase* log) {
  if (retain == 0) return Status::OK();
  CheckpointerOptions options;
  options.dir = dir;
  options.retain = retain;
  options.log = log;
  CheckpointerStats deleted;
  return RunRetentionGc(options, &deleted);
}

}  // namespace amnesia
