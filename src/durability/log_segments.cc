// Copyright 2026 The AmnesiaDB Authors

#include "durability/log_segments.h"

#include <utility>
#include <vector>

#include "common/fs.h"
#include "obs/engine_metrics.h"

namespace amnesia {

namespace {

constexpr SegmentFormat kLogFormat{0x47455341, "log-", false};  // "ASEG"

/// Every frame must decode as an event: a CRC-clean frame that does not
/// ends the chain like a tear. Decoded events go to `events` when it is
/// non-null.
SegmentVisitor DecodeEvents(std::vector<Event>* events) {
  SegmentVisitor visit;
  visit.frame = [events](const std::vector<uint8_t>& payload) {
    StatusOr<Event> event = DecodeEvent(payload);
    if (!event.ok()) return false;
    if (events != nullptr) events->push_back(std::move(event).value());
    return true;
  };
  return visit;
}

/// Accounts the flushes a chain call made in the log.* metrics.
void NoteBarriers(const SegmentBarriers& barriers) {
  if (barriers.seal) log_internal::NoteLogFlush(*barriers.seal);
  if (barriers.flush) log_internal::NoteLogFlush(*barriers.flush);
}

}  // namespace

StatusOr<SegmentedEventLog> SegmentedEventLog::Open(
    const std::string& dir, const SegmentedLogOptions& options) {
  AMNESIA_ASSIGN_OR_RETURN(
      SegmentChain chain,
      SegmentChain::Create(dir, kLogFormat, options.max_segment_bytes,
                           options.sync));
  return SegmentedEventLog(std::move(chain));
}

StatusOr<SegmentedEventLog> SegmentedEventLog::OpenForAppend(
    const std::string& dir, const SegmentedLogOptions& options) {
  // Every frame is decoded either way (chain validity depends on it), but
  // the events are not kept: the stream of a large log is an O(total
  // events) allocation.
  AMNESIA_ASSIGN_OR_RETURN(
      SegmentChain chain,
      SegmentChain::Resume(dir, kLogFormat, options.max_segment_bytes,
                           options.sync, DecodeEvents(nullptr)));
  return SegmentedEventLog(std::move(chain));
}

Status SegmentedEventLog::Append(const Event& event) {
  SegmentBarriers barriers;
  const Status appended =
      chain_.Append(EncodeEvent(event), /*seed=*/0, &barriers);
  NoteBarriers(barriers);
  if (appended.ok()) obs::EngineMetrics::Get().log_appends->Inc();
  return appended;
}

Status SegmentedEventLog::Flush() {
  SegmentBarriers barriers;
  AMNESIA_RETURN_NOT_OK(chain_.Flush(&barriers));
  NoteBarriers(barriers);
  return Status::OK();
}

Status SegmentedEventLog::TruncateBefore(uint64_t lsn) {
  AMNESIA_ASSIGN_OR_RETURN(const uint64_t unlinked,
                           chain_.TruncateBefore(lsn));
  if (unlinked > 0) obs::EngineMetrics::Get().log_truncations->Inc();
  return Status::OK();
}

uint64_t SegmentedEventLog::next_lsn() const { return chain_.next_index(); }

uint64_t SegmentedEventLog::base_lsn() const { return chain_.base_index(); }

uint64_t SegmentedEventLog::num_segments() const {
  return chain_.num_segments();
}

uint64_t SegmentedEventLog::segments_unlinked() const {
  return chain_.segments_unlinked();
}

// ---------------------------------------------------------------- readers

StatusOr<EventLogContents> ReadSegmentedLogContents(const std::string& dir) {
  EventLogContents contents;
  AMNESIA_ASSIGN_OR_RETURN(
      contents.base_lsn,
      ReadSegmentChain(dir, kLogFormat, DecodeEvents(&contents.events)));
  return contents;
}

StatusOr<EventLogContents> ReadAnyEventLogContents(const std::string& path) {
  if (StatPath(path).is_dir) return ReadSegmentedLogContents(path);
  return ReadEventLogContents(path);
}

std::string EventLogPathFor(const std::string& checkpoint_dir,
                            LogFormat format) {
  return format == LogFormat::kSegmented ? checkpoint_dir + "/events.segs"
                                         : checkpoint_dir + "/events.log";
}

Status RemoveEventLog(const std::string& path) {
  const PathInfo info = StatPath(path);
  if (!info.exists) return Status::OK();  // nothing there
  if (!info.is_dir) return RemoveFile(path);
  AMNESIA_RETURN_NOT_OK(RemoveSegmentFiles(path, kLogFormat));
  // Foreign files would make the rmdir fail; the segments are gone, which
  // is what correctness needs, so an undeletable directory is not fatal.
  (void)RemoveDir(path);
  return Status::OK();
}

}  // namespace amnesia
