// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the segmented event log (durability/log_segments): segment
// roll + round-trip bit-identical to the rewrite-based EventLog, O(1)
// whole-segment truncation, recovery from a torn tail / a crash between
// segment roll and old-segment unlink / a corrupt middle segment,
// group-commit sync policies, the byte layout of both segment-chain
// formats (event log and audit ledger), and the checkpointer crash-point
// matrix with log_format = segmented.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "amnesia/audit_ledger.h"
#include "common/rng.h"
#include "durability/checkpointer.h"
#include "durability/event_log.h"
#include "durability/frame_io.h"
#include "durability/log_segments.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"
#include "storage/checkpoint_io.h"

namespace amnesia {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

Event ForgetEvent(RowId row) {
  Event e;
  e.kind = EventKind::kForget;
  e.row = row;
  e.backend = static_cast<uint8_t>(BackendKind::kDelete);
  return e;
}

Event ScrubEvent(RowId row, Value value) {
  Event e;
  e.kind = EventKind::kScrub;
  e.row = row;
  e.value = value;
  return e;
}

/// A deterministic mixed event stream (every kind that needs no table).
std::vector<Event> MixedEvents(size_t n, uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0:
        events.push_back(ForgetEvent(rng.UniformInt(0, 999)));
        break;
      case 1:
        events.push_back(ScrubEvent(rng.UniformInt(0, 999),
                                    rng.UniformInt(0, 99'999)));
        break;
      case 2: {
        Event e;
        e.kind = EventKind::kBeginBatch;
        events.push_back(e);
        break;
      }
      default: {
        Event e;
        e.kind = EventKind::kDropPartition;
        e.row = rng.UniformInt(0, 999);
        e.value = 64;
        events.push_back(e);
        break;
      }
    }
  }
  return events;
}

/// Events compare by their canonical encoding — what "bit-identical to
/// the rewrite-based log" means at the record level.
void ExpectSameEvents(const std::vector<Event>& got,
                      const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(EncodeEvent(got[i]), EncodeEvent(want[i])) << "event " << i;
  }
}

SegmentedLogOptions SmallSegments(uint64_t bytes = 256) {
  SegmentedLogOptions options;
  options.max_segment_bytes = bytes;
  return options;
}

std::vector<std::string> SegmentFilesIn(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(SegmentedLogTest, RollsSegmentsAndMatchesRewriteLogBitForBit) {
  ScratchDir dir("amnesia_seglog_roundtrip_test");
  const std::vector<Event> events = MixedEvents(120);

  // The same stream through both formats.
  SegmentedEventLog seg =
      SegmentedEventLog::Open(dir.file("segs"), SmallSegments()).value();
  EventLog rewrite = EventLog::Open(dir.file("events.log")).value();
  for (const Event& e : events) {
    ASSERT_TRUE(seg.Append(e).ok());
    ASSERT_TRUE(rewrite.Append(e).ok());
  }
  ASSERT_TRUE(seg.Flush().ok());
  EXPECT_EQ(seg.next_lsn(), events.size());
  EXPECT_EQ(seg.base_lsn(), 0u);
  EXPECT_GT(seg.num_segments(), 3u);  // 256-byte segments: many rolls

  const EventLogContents from_segs =
      ReadSegmentedLogContents(dir.file("segs")).value();
  const EventLogContents from_file =
      ReadEventLogContents(dir.file("events.log")).value();
  EXPECT_EQ(from_segs.base_lsn, from_file.base_lsn);
  ExpectSameEvents(from_segs.events, from_file.events);
  ExpectSameEvents(from_segs.events, events);

  // ReadAnyEventLogContents dispatches on what is at the path.
  EXPECT_EQ(ReadAnyEventLogContents(dir.file("segs")).value().events.size(),
            events.size());
  EXPECT_EQ(
      ReadAnyEventLogContents(dir.file("events.log")).value().events.size(),
      events.size());
}

TEST(SegmentedLogTest, TruncateUnlinksWholeSegmentsAndKeepsLsnsStable) {
  ScratchDir dir("amnesia_seglog_truncate_test");
  const std::vector<Event> events = MixedEvents(100);
  SegmentedEventLog log =
      SegmentedEventLog::Open(dir.file("segs"), SmallSegments()).value();
  for (const Event& e : events) ASSERT_TRUE(log.Append(e).ok());
  ASSERT_TRUE(log.Flush().ok());
  const uint64_t segments_before = log.num_segments();
  ASSERT_GT(segments_before, 3u);

  // Truncate to mid-log: only segments wholly below the cut go away; the
  // segment containing the cut is retained whole (conservative base).
  ASSERT_TRUE(log.TruncateBefore(50).ok());
  EXPECT_GT(log.segments_unlinked(), 0u);
  EXPECT_LT(log.num_segments(), segments_before);
  EXPECT_LE(log.base_lsn(), 50u);
  EXPECT_EQ(log.next_lsn(), events.size());

  const EventLogContents contents =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_EQ(contents.base_lsn, log.base_lsn());
  EXPECT_EQ(contents.next_lsn(), events.size());
  // LSN stability: event at LSN L is still events[L].
  ExpectSameEvents(contents.events,
                   std::vector<Event>(
                       events.begin() + static_cast<long>(contents.base_lsn),
                       events.end()));

  // Truncating everything leaves just the active segment; appends resume.
  ASSERT_TRUE(log.TruncateBefore(log.next_lsn()).ok());
  EXPECT_FALSE(log.TruncateBefore(log.next_lsn() + 1).ok());  // beyond end
  ASSERT_TRUE(log.Append(ForgetEvent(7)).ok());
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(log.next_lsn(), events.size() + 1);
}

TEST(SegmentedLogTest, TornTailInNewestSegmentIsDroppedAndRepaired) {
  ScratchDir dir("amnesia_seglog_torn_test");
  const std::vector<Event> events = MixedEvents(60);
  {
    SegmentedEventLog log =
        SegmentedEventLog::Open(dir.file("segs"), SmallSegments()).value();
    for (const Event& e : events) ASSERT_TRUE(log.Append(e).ok());
    ASSERT_TRUE(log.Flush().ok());
  }

  // Tear the newest segment: chop bytes off its end, then append garbage
  // (a frame torn mid-write followed by nothing valid).
  std::vector<std::string> segs;
  for (const auto& entry : fs::directory_iterator(dir.file("segs"))) {
    segs.push_back(entry.path().string());
  }
  std::sort(segs.begin(), segs.end(),
            [](const std::string& a, const std::string& b) {
              return std::stoull(a.substr(a.rfind("log-") + 4)) <
                     std::stoull(b.substr(b.rfind("log-") + 4));
            });
  const std::string newest = segs.back();
  fs::resize_file(newest, fs::file_size(newest) - 5);
  {
    std::ofstream torn(newest, std::ios::binary | std::ios::app);
    torn.write("\xff\xff\xff", 3);
  }

  const EventLogContents contents =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_LT(contents.events.size(), events.size());
  EXPECT_GT(contents.events.size(), 0u);
  ExpectSameEvents(
      contents.events,
      std::vector<Event>(events.begin(),
                         events.begin() +
                             static_cast<long>(contents.events.size())));

  // OpenForAppend physically truncates the tear, then appends land where
  // a reader can see them.
  const uint64_t valid = contents.events.size();
  SegmentedEventLog log =
      SegmentedEventLog::OpenForAppend(dir.file("segs"), SmallSegments())
          .value();
  EXPECT_EQ(log.next_lsn(), valid);
  ASSERT_TRUE(log.Append(ForgetEvent(123)).ok());
  ASSERT_TRUE(log.Flush().ok());
  const EventLogContents after =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_EQ(after.events.size(), valid + 1);
  EXPECT_EQ(EncodeEvent(after.events.back()),
            EncodeEvent(ForgetEvent(123)));
}

TEST(SegmentedLogTest, CrashBetweenRollAndUnlinkRecovers) {
  ScratchDir dir("amnesia_seglog_roll_unlink_test");
  const std::vector<Event> events = MixedEvents(100);
  {
    SegmentedEventLog log =
        SegmentedEventLog::Open(dir.file("segs"), SmallSegments()).value();
    for (const Event& e : events) ASSERT_TRUE(log.Append(e).ok());
    ASSERT_TRUE(log.Flush().ok());
  }
  // The crash window: appenders rolled past the covered LSN but the
  // truncation never ran (killed between a checkpoint's GC deletions and
  // TruncateBefore). Every segment is still on disk — recovery must read
  // them all and replay from the covered LSN as usual.
  const EventLogContents all =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_EQ(all.base_lsn, 0u);
  EXPECT_EQ(all.events.size(), events.size());

  // Deeper window: the truncation unlinked SOME doomed segments (oldest
  // first) and died. Simulate by unlinking exactly the oldest segment;
  // the remaining chain is a contiguous suffix.
  std::vector<std::string> segs = SegmentFilesIn(dir.file("segs"));
  std::sort(segs.begin(), segs.end(),
            [](const std::string& a, const std::string& b) {
              return std::stoull(a.substr(4)) < std::stoull(b.substr(4));
            });
  ASSERT_GT(segs.size(), 3u);
  ASSERT_EQ(std::remove(
                (dir.file("segs") + "/" + segs.front()).c_str()),
            0);
  const uint64_t second_base = std::stoull(segs[1].substr(4));

  const EventLogContents suffix =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_EQ(suffix.base_lsn, second_base);
  EXPECT_EQ(suffix.next_lsn(), events.size());
  ExpectSameEvents(suffix.events,
                   std::vector<Event>(
                       events.begin() + static_cast<long>(second_base),
                       events.end()));

  // A resumed process finishes the interrupted truncation.
  SegmentedEventLog log =
      SegmentedEventLog::OpenForAppend(dir.file("segs"), SmallSegments())
          .value();
  EXPECT_EQ(log.base_lsn(), second_base);
  ASSERT_TRUE(log.TruncateBefore(events.size()).ok());
  EXPECT_GT(log.base_lsn(), second_base);  // the stale prefix is gone
  EXPECT_EQ(log.num_segments(), 1u);       // only the active segment left
  EXPECT_EQ(log.next_lsn(), events.size());
}

TEST(SegmentedLogTest, CorruptMiddleSegmentStopsAtLastValidFrame) {
  ScratchDir dir("amnesia_seglog_corrupt_middle_test");
  const std::vector<Event> events = MixedEvents(100);
  {
    SegmentedEventLog log =
        SegmentedEventLog::Open(dir.file("segs"), SmallSegments()).value();
    for (const Event& e : events) ASSERT_TRUE(log.Append(e).ok());
    ASSERT_TRUE(log.Flush().ok());
  }
  std::vector<std::string> segs = SegmentFilesIn(dir.file("segs"));
  std::sort(segs.begin(), segs.end(),
            [](const std::string& a, const std::string& b) {
              return std::stoull(a.substr(4)) < std::stoull(b.substr(4));
            });
  ASSERT_GT(segs.size(), 3u);

  // Flip a byte in the middle of the second segment's frames.
  const std::string victim = dir.file("segs") + "/" + segs[1];
  {
    std::fstream f(victim,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    f.put('\x5a');
  }

  const EventLogContents contents =
      ReadSegmentedLogContents(dir.file("segs")).value();
  const uint64_t second_base = std::stoull(segs[1].substr(4));
  const uint64_t third_base = std::stoull(segs[2].substr(4));
  // The prefix ends inside the corrupt segment: everything before it is
  // intact, nothing from the segments past it survives (their LSNs would
  // have a gap).
  EXPECT_GE(contents.events.size(), second_base);
  EXPECT_LT(contents.events.size(), third_base);
  ExpectSameEvents(
      contents.events,
      std::vector<Event>(events.begin(),
                         events.begin() +
                             static_cast<long>(contents.events.size())));

  // OpenForAppend repairs to exactly that prefix (truncates the corrupt
  // segment, unlinks the unreachable ones) and resumes.
  const uint64_t valid = contents.events.size();
  SegmentedEventLog log =
      SegmentedEventLog::OpenForAppend(dir.file("segs"), SmallSegments())
          .value();
  EXPECT_EQ(log.next_lsn(), valid);
  ASSERT_TRUE(log.Append(ForgetEvent(9)).ok());
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(ReadSegmentedLogContents(dir.file("segs")).value().next_lsn(),
            valid + 1);
}

TEST(SegmentedLogTest, GroupCommitBatchesFlushes) {
  ScratchDir dir("amnesia_seglog_group_commit_test");
  SegmentedLogOptions options;
  options.max_segment_bytes = 1u << 20;
  options.sync = SyncPolicy::GroupCommit(/*events=*/1000,
                                         /*interval_ms=*/0.0);
  SegmentedEventLog log =
      SegmentedEventLog::Open(dir.file("segs"), options).value();
  for (RowId r = 0; r < 10; ++r) {
    ASSERT_TRUE(log.Append(ForgetEvent(r)).ok());
  }
  // All 10 are in the stdio buffer, none durable yet: a reader sees an
  // empty (header-only) segment. next_lsn() is the in-memory truth.
  EXPECT_EQ(log.next_lsn(), 10u);
  EXPECT_EQ(ReadSegmentedLogContents(dir.file("segs")).value().events.size(),
            0u);
  // The explicit barrier (what the simulator calls at batch and
  // checkpoint boundaries) makes them all visible at once.
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(ReadSegmentedLogContents(dir.file("segs")).value().events.size(),
            10u);
}

TEST(SegmentedLogTest, ThresholdBelowHeaderSizeNeverSealsEmptySegments) {
  // A roll threshold below the header size must degrade to one-event
  // segments. The regression: an empty roll would seal a zero-event
  // entry aliasing the active file's path, and truncating at that LSN
  // would unlink the live segment out from under the appender.
  ScratchDir dir("amnesia_seglog_tiny_threshold_test");
  SegmentedEventLog log =
      SegmentedEventLog::Open(dir.file("segs"), SmallSegments(1)).value();
  for (RowId r = 0; r < 3; ++r) {
    ASSERT_TRUE(log.Append(ForgetEvent(r)).ok());
  }
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(log.num_segments(), 3u);
  ASSERT_TRUE(log.TruncateBefore(1).ok());
  EXPECT_EQ(log.segments_unlinked(), 1u);
  ASSERT_TRUE(log.Append(ForgetEvent(3)).ok());
  ASSERT_TRUE(log.Flush().ok());
  const EventLogContents contents =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_EQ(contents.base_lsn, 1u);
  ExpectSameEvents(contents.events,
                   {ForgetEvent(1), ForgetEvent(2), ForgetEvent(3)});
}

TEST(SegmentedLogTest, TruncationIsConcurrentWithAppends) {
  // The design claim: truncation never blocks appenders for more than
  // the index splice. Functionally, racing the two must still leave a
  // gapless LSN-ordered suffix — the TSan job runs this for the memory
  // side of the claim.
  ScratchDir dir("amnesia_seglog_truncate_race_test");
  SegmentedEventLog log =
      SegmentedEventLog::Open(dir.file("segs"), SmallSegments(512)).value();
  constexpr RowId kAppends = 400;

  std::thread appender([&log] {
    for (RowId r = 0; r < kAppends; ++r) {
      ASSERT_TRUE(log.Append(ForgetEvent(r)).ok());
    }
  });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(log.TruncateBefore(log.next_lsn() / 2).ok());
  }
  appender.join();
  ASSERT_TRUE(log.Flush().ok());

  const EventLogContents contents =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_EQ(contents.base_lsn, log.base_lsn());
  EXPECT_EQ(contents.next_lsn(), kAppends);
  for (size_t i = 0; i < contents.events.size(); ++i) {
    EXPECT_EQ(contents.events[i].row, contents.base_lsn + i);
  }
}

/// Little-endian `bytes`-byte encoding of `v`, appended to `out`.
void PutLe(std::vector<uint8_t>* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

/// A segment header assembled byte by byte: magic, version 1, base, the
/// seed when the format has one, then the CRC of everything before it.
std::vector<uint8_t> HandHeader(const char* magic, uint64_t base,
                                const uint32_t* seed) {
  std::vector<uint8_t> out(magic, magic + 4);
  PutLe(&out, 1, 4);
  PutLe(&out, base, 8);
  if (seed != nullptr) PutLe(&out, *seed, 4);
  PutLe(&out, ckpt::Crc32(out), 4);
  return out;
}

/// `header` followed by one [len|crc|payload] frame.
std::vector<uint8_t> HandSegment(std::vector<uint8_t> header,
                                 const std::vector<uint8_t>& payload) {
  PutLe(&header, payload.size(), 4);
  PutLe(&header, ckpt::Crc32(payload), 4);
  header.insert(header.end(), payload.begin(), payload.end());
  return header;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f), {});
}

TEST(SegmentChainTest, FilesMatchHandEncodedBytes) {
  // Both on-disk formats are pinned byte for byte, so directories written
  // by earlier builds keep recovering: the first headers as literals, the
  // rolled ones (base 1; the ledger's seeded with the CRC of record 0)
  // and the frames assembled by hand.
  ScratchDir dir("amnesia_segment_bytes_test");
  {
    SegmentedEventLog log =
        SegmentedEventLog::Open(dir.file("segs"), SmallSegments(1)).value();
    ASSERT_TRUE(log.Append(ForgetEvent(1)).ok());
    ASSERT_TRUE(log.Append(ForgetEvent(2)).ok());  // rolls to log-1.seg
  }
  const std::vector<uint8_t> log_header = {
      'A', 'S', 'E', 'G', 1, 0, 0, 0,  // magic, version
      0,   0,   0,   0,   0, 0, 0, 0,  // base LSN
      0x75, 0xE0, 0x08, 0x6D};         // CRC-32 of the 16 bytes above
  EXPECT_EQ(HandHeader("ASEG", 0, nullptr), log_header);
  EXPECT_EQ(FileBytes(dir.file("segs/log-0.seg")),
            HandSegment(log_header, EncodeEvent(ForgetEvent(1))));
  EXPECT_EQ(FileBytes(dir.file("segs/log-1.seg")),
            HandSegment(HandHeader("ASEG", 1, nullptr),
                        EncodeEvent(ForgetEvent(2))));

  AuditLedgerOptions opts;
  opts.max_segment_bytes = 1;
  std::vector<AuditRecord> records(2);
  {
    AuditLedger ledger = AuditLedger::Open(dir.file("audit"), opts).value();
    for (uint64_t i = 0; i < records.size(); ++i) {
      records[i].policy = "fifo";
      records[i].rows_marked = i + 1;
      records[i].wall_ms = 1'700'000'000'000ull;
      ASSERT_TRUE(ledger.Append(&records[i]).ok());  // rolls per record
    }
  }
  const std::vector<uint8_t> ledger_header = {
      'A', 'L', 'E', 'D', 1, 0, 0, 0,  // magic, version
      0,   0,   0,   0,   0, 0, 0, 0,  // base seq
      0,   0,   0,   0,                // chain seed
      0xBF, 0x3E, 0xDA, 0x2C};         // CRC-32 of the 20 bytes above
  const uint32_t no_seed = 0;
  EXPECT_EQ(HandHeader("ALED", 0, &no_seed), ledger_header);
  EXPECT_EQ(FileBytes(dir.file("audit/audit-0.seg")),
            HandSegment(ledger_header, EncodeAuditRecord(records[0])));
  const uint32_t seed = ckpt::Crc32(EncodeAuditRecord(records[0]));
  EXPECT_EQ(records[1].prev_crc, seed);
  EXPECT_EQ(FileBytes(dir.file("audit/audit-1.seg")),
            HandSegment(HandHeader("ALED", 1, &seed),
                        EncodeAuditRecord(records[1])));
}

TEST(FrameIoTest, LengthBeyondTheFileAllocatesNothing) {
  // A 20-byte file whose frame header claims a 60 MiB payload: the reader
  // rejects the frame before it sizes a buffer for the claimed length.
  ScratchDir dir("amnesia_frame_bound_test");
  std::vector<uint8_t> bytes;
  PutLe(&bytes, 60u << 20, 4);  // payload length
  PutLe(&bytes, 0, 4);          // payload CRC
  bytes.resize(20);             // 12 payload bytes follow
  {
    std::ofstream f(dir.file("frames"), std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  std::FILE* f = std::fopen(dir.file("frames").c_str(), "rb");
  ASSERT_NE(f, nullptr);
  uint64_t remaining = bytes.size();
  std::vector<uint8_t> payload;
  EXPECT_FALSE(wal::ReadFrame(f, &remaining, &payload));
  std::fclose(f);
  EXPECT_LT(payload.capacity(), size_t{1} << 20);
}

TEST(FrameIoTest, OversizedLastFrameEndsTheValidPrefix) {
  // Both log formats: a last frame whose length claims more than the file
  // holds ends the valid prefix, like any torn tail.
  ScratchDir dir("amnesia_frame_oversized_test");
  {
    EventLog single = EventLog::Open(dir.file("events.log")).value();
    SegmentedEventLog segmented =
        SegmentedEventLog::Open(dir.file("segs"), SegmentedLogOptions())
            .value();
    for (RowId r = 0; r < 3; ++r) {
      ASSERT_TRUE(single.Append(ForgetEvent(r)).ok());
      ASSERT_TRUE(segmented.Append(ForgetEvent(r)).ok());
    }
  }
  std::vector<uint8_t> oversized;
  PutLe(&oversized, 1u << 20, 4);  // 1 MiB claimed, 4 bytes present
  PutLe(&oversized, 0, 4);
  PutLe(&oversized, 0, 4);
  for (const std::string& path :
       {dir.file("events.log"), dir.file("segs/log-0.seg")}) {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write(reinterpret_cast<const char*>(oversized.data()),
            static_cast<std::streamsize>(oversized.size()));
  }
  for (const std::string& path : {dir.file("events.log"), dir.file("segs")}) {
    const EventLogContents contents = ReadAnyEventLogContents(path).value();
    ASSERT_EQ(contents.events.size(), 3u) << path;
    for (RowId r = 0; r < 3; ++r) {
      EXPECT_EQ(EncodeEvent(contents.events[r]), EncodeEvent(ForgetEvent(r)));
    }
  }
}

TEST(EventLogTest, GroupCommitOnLegacyLog) {
  ScratchDir dir("amnesia_eventlog_group_commit_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  log.set_sync_policy(SyncPolicy::GroupCommit(1000, 0.0));
  for (RowId r = 0; r < 10; ++r) {
    ASSERT_TRUE(log.Append(ForgetEvent(r)).ok());
  }
  EXPECT_EQ(log.next_lsn(), 10u);
  EXPECT_EQ(ReadEventLogFile(dir.file("events.log")).value().size(), 0u);
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(ReadEventLogFile(dir.file("events.log")).value().size(), 10u);
  // The count trigger flushes without an explicit barrier.
  log.set_sync_policy(SyncPolicy::GroupCommit(5, 0.0));
  for (RowId r = 0; r < 5; ++r) {
    ASSERT_TRUE(log.Append(ForgetEvent(100 + r)).ok());
  }
  EXPECT_EQ(ReadEventLogFile(dir.file("events.log")).value().size(), 15u);
}

// --------------------------------- checkpointer + recovery, segmented log

Table MakeLoadedTable(uint64_t rows, uint64_t seed) {
  Table t = Table::Make(Schema::SingleColumn("v", 0, 1'000'000)).value();
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({rng.UniformInt(0, 999'999)}).ok());
  }
  return t;
}

void JournalForget(RowId row, BackendKind backend, Table* table,
                   ColdStore* cold, SummaryStore* summaries,
                   EventLogBase* log) {
  if (backend == BackendKind::kColdStorage) {
    cold->Put(ColdTuple{row, table->value(0, row), table->insert_tick(row),
                        table->batch_of(row)});
  } else if (backend == BackendKind::kSummary) {
    summaries->AddForgotten(0, table->batch_of(row), table->value(0, row));
  }
  ASSERT_TRUE(table->Forget(row).ok());
  Event e;
  e.kind = EventKind::kForget;
  e.row = row;
  e.backend = static_cast<uint8_t>(backend);
  ASSERT_TRUE(log->Append(e).ok());
}

TEST(SegmentedRetentionTest, CrashPointMatrixRecoversBitIdentically) {
  // The PR 4 crash-point matrix, rerun with the segmented log as the GC's
  // truncation target. The "gc" phase is the acceptance crash point: the
  // writer dies after the blob/manifest deletions but before
  // TruncateBefore — i.e. between the appenders' segment rolls and the
  // old-segment unlinks — leaving every segment on disk for recovery.
  for (const char* phase :
       {"shard-blobs", "tier-blobs", "manifest", "current", "gc"}) {
    ScratchDir dir(std::string("amnesia_seg_crashpoint_") + phase + "_test");
    SegmentedLogOptions options = SmallSegments(512);
    SegmentedEventLog log =
        SegmentedEventLog::Open(dir.file("segs"), options).value();
    Table table = MakeLoadedTable(200, 73);
    ColdStore cold;
    SummaryStore summaries;

    bool armed = false;
    CheckpointerOptions opts;
    opts.dir = dir.path();
    opts.async = false;
    opts.retain = 2;
    opts.log_format = LogFormat::kSegmented;
    opts.log = &log;
    opts.test_crash_hook = [&armed, phase](const char* p) {
      return armed && std::strcmp(p, phase) == 0;
    };
    BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();

    RowId next = 0;
    for (int round = 0; round < 4; ++round) {
      for (int k = 0; k < 6; ++k, ++next) {
        JournalForget(next, next % 2 == 0 ? BackendKind::kColdStorage
                                          : BackendKind::kSummary,
                      &table, &cold, &summaries, &log);
      }
      ASSERT_TRUE(log.Flush().ok());
      armed = round == 3;  // the final checkpoint dies mid-write
      const Status status = ckpt.Checkpoint(
          table, log.next_lsn(), TierSet{&cold, &summaries});
      if (round == 3) {
        EXPECT_FALSE(status.ok()) << phase;
      } else {
        ASSERT_TRUE(status.ok()) << phase;
      }
    }

    RecoveredState state = Recover(dir.path(), dir.file("segs")).value();
    ASSERT_EQ(state.shards.size(), 1u);
    ASSERT_TRUE(state.cold.has_value());
    ASSERT_TRUE(state.summaries.has_value());
    EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table))
        << phase;
    EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold))
        << phase;
    EXPECT_EQ(CheckpointSummaryStore(*state.summaries),
              CheckpointSummaryStore(summaries))
        << phase;
  }
}

TEST(SegmentedRetentionTest, MakeRejectsMismatchedLogFormat) {
  // The declared pairing is enforced: a checkpointer configured for one
  // format cannot be handed the other implementation by accident.
  ScratchDir dir("amnesia_seg_format_mismatch_test");
  SegmentedEventLog seg =
      SegmentedEventLog::Open(dir.file("segs"), SmallSegments()).value();
  EventLog rewrite = EventLog::Open(dir.file("events.log")).value();

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.log_format = LogFormat::kSingleFile;
  opts.log = &seg;
  EXPECT_FALSE(BackgroundCheckpointer::Make(opts).ok());
  opts.log_format = LogFormat::kSegmented;
  EXPECT_TRUE(BackgroundCheckpointer::Make(opts).ok());
  opts.log = &rewrite;
  EXPECT_FALSE(BackgroundCheckpointer::Make(opts).ok());
  opts.log_format = LogFormat::kSingleFile;
  EXPECT_TRUE(BackgroundCheckpointer::Make(opts).ok());
}

TEST(SegmentedRetentionTest, GcTruncatesByUnlinkingSegments) {
  ScratchDir dir("amnesia_seg_retention_gc_test");
  SegmentedEventLog log =
      SegmentedEventLog::Open(dir.file("segs"), SmallSegments(512)).value();
  Table table = MakeLoadedTable(300, 71);
  ColdStore cold;
  SummaryStore summaries;

  CheckpointerOptions opts;
  opts.dir = dir.path();
  opts.async = false;
  opts.retain = 2;
  opts.log_format = LogFormat::kSegmented;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();

  RowId next = 0;
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < 20; ++k, ++next) {
      JournalForget(next, BackendKind::kColdStorage, &table, &cold,
                    &summaries, &log);
    }
    ASSERT_TRUE(log.Flush().ok());
    ASSERT_TRUE(
        ckpt.Checkpoint(table, log.next_lsn(), TierSet{&cold, &summaries})
            .ok());
  }
  // The GC's TruncateBefore landed as segment unlinks, and the retained
  // chain still starts at (or below) the oldest retained covered LSN.
  EXPECT_GT(log.segments_unlinked(), 0u);
  const EventLogContents contents =
      ReadSegmentedLogContents(dir.file("segs")).value();
  EXPECT_GT(contents.base_lsn, 0u);
  EXPECT_EQ(contents.next_lsn(), log.next_lsn());

  RecoveredState state = Recover(dir.path(), dir.file("segs")).value();
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
  EXPECT_EQ(CheckpointColdStore(*state.cold), CheckpointColdStore(cold));
}

TEST(SegmentedSimTest, ReusedDirDropsOtherFormatsStaleJournal) {
  // Format switch in a reused directory: the previous run's journal (in
  // the OTHER format) must not survive next to the new run's manifests —
  // a recovery through that path would replay stale events.
  ScratchDir dir("amnesia_seg_format_switch_test");
  SimulationConfig config;
  config.seed = 99;
  config.dbsize = 200;
  config.num_batches = 3;
  config.queries_per_batch = 5;
  config.policy.kind = PolicyKind::kFifo;
  config.record_access = false;
  config.checkpoint_every_n_batches = 2;
  config.checkpoint_dir = dir.path();
  config.log_format = LogFormat::kSegmented;
  {
    auto sim = Simulator::Make(config).value();
    ASSERT_TRUE(sim->Run().ok());
  }
  ASSERT_TRUE(fs::is_directory(dir.path() + "/events.segs"));

  config.log_format = LogFormat::kSingleFile;
  auto sim = Simulator::Make(config).value();
  EXPECT_FALSE(fs::exists(dir.path() + "/events.segs"));
  ASSERT_TRUE(sim->Run().ok());
  // And back: the single-file journal goes away when segmented reopens.
  config.log_format = LogFormat::kSegmented;
  auto sim2 = Simulator::Make(config).value();
  EXPECT_FALSE(fs::exists(dir.path() + "/events.log"));
  ASSERT_TRUE(sim2->Run().ok());
}

TEST(SegmentedSimTest, CrashRecoveryIsBitIdentical) {
  // End-to-end with the simulator journaling through a segmented log
  // under the default group-commit sync policy.
  ScratchDir dir("amnesia_seg_sim_crash_test");
  SimulationConfig config;
  config.seed = 1234;
  config.dbsize = 500;
  config.upd_perc = 0.4;
  config.num_batches = 7;
  config.queries_per_batch = 20;
  config.policy.kind = PolicyKind::kFifo;
  config.backend = BackendKind::kColdStorage;
  config.record_access = false;
  config.checkpoint_every_n_batches = 3;
  config.checkpoint_dir = dir.path();
  config.checkpoint_async = true;
  config.checkpoint_retention = 2;
  config.log_format = LogFormat::kSegmented;
  config.log_segment_bytes = 8u << 10;

  std::string log_path;
  {
    auto sim = Simulator::Make(config).value();
    ASSERT_TRUE(sim->Initialize().ok());
    for (int b = 0; b < 7; ++b) ASSERT_TRUE(sim->StepBatch().ok());
    log_path = sim->event_log_path();
    ASSERT_TRUE(fs::is_directory(log_path));
  }

  RecoveredState state = Recover(dir.path(), log_path).value();
  ASSERT_EQ(state.shards.size(), 1u);

  SimulationConfig plain = config;
  plain.checkpoint_every_n_batches = 0;
  plain.checkpoint_dir.clear();
  plain.checkpoint_retention = 0;
  auto reference = Simulator::Make(plain).value();
  ASSERT_TRUE(reference->Initialize().ok());
  for (int b = 0; b < 7; ++b) ASSERT_TRUE(reference->StepBatch().ok());

  EXPECT_EQ(CheckpointTable(state.shards[0]),
            CheckpointTable(reference->table()));
  ASSERT_TRUE(state.cold.has_value());
  EXPECT_EQ(CheckpointColdStore(*state.cold),
            CheckpointColdStore(reference->cold_store()));
  EXPECT_EQ(state.ingest_cursor, reference->table().lifetime_inserted());
}

}  // namespace
}  // namespace amnesia
