// Copyright 2026 The AmnesiaDB Authors

#include "amnesia/audit_ledger.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <utility>

#include "durability/event_log.h"  // SyncPolicy
#include "storage/checkpoint_io.h"

namespace amnesia {

namespace {

constexpr SegmentFormat kLedgerFormat{0x44454C41, "audit-", true};  // "ALED"
/// Records kept in the in-memory tail ring served by Tail()/auditz.
constexpr size_t kTailCapacity = 256;

/// Verifies the hash chain while a scan walks the ledger: the oldest
/// segment's seed starts the chain (retention GC may have unlinked
/// everything before it), every later segment's seed must equal the
/// running CRC, and every record must carry the next seq and its
/// predecessor's frame CRC. A frame that does not decode ends the chain
/// like a tear; a CRC-valid record or segment that does not chain is a
/// break (tampering or a splice), recorded in `break_detail`.
struct ChainWalk {
  /// Newest records kept in `records`.
  size_t keep = std::numeric_limits<size_t>::max();
  std::deque<AuditRecord> records;
  uint32_t crc = 0;       ///< Frame CRC of the newest adopted record.
  uint64_t next_seq = 0;  ///< Seq the next record must carry.
  bool started = false;
  std::string break_detail;

  SegmentVisitor Visitor() {
    SegmentVisitor visit;
    visit.segment = [this](uint64_t base, uint32_t seed) {
      if (!started) {
        started = true;
        crc = seed;
        next_seq = base;
        return true;
      }
      if (seed == crc) return true;
      break_detail = "segment at seq " + std::to_string(base) +
                     " breaks the chain (expected chain seed " +
                     std::to_string(crc) + "; found " +
                     std::to_string(seed) + ")";
      return false;
    };
    visit.frame = [this](const std::vector<uint8_t>& payload) {
      AuditRecord record;
      if (!DecodeAuditRecord(payload, &record).ok()) return false;
      if (record.prev_crc != crc || record.seq != next_seq) {
        break_detail =
            "record seq " + std::to_string(record.seq) +
            " breaks the chain (expected seq " + std::to_string(next_seq) +
            ", prev_crc " + std::to_string(crc) + "; found prev_crc " +
            std::to_string(record.prev_crc) + ")";
        return false;
      }
      crc = ckpt::Crc32(payload);
      ++next_seq;
      records.push_back(std::move(record));
      if (records.size() > keep) records.pop_front();
      return true;
    };
    return visit;
  }
};

}  // namespace

std::string_view AuditOpToString(AuditOp op) {
  switch (op) {
    case AuditOp::kEnforce:
      return "enforce";
    case AuditOp::kVacuum:
      return "vacuum";
  }
  return "unknown";
}

std::vector<uint8_t> EncodeAuditRecord(const AuditRecord& record) {
  std::vector<uint8_t> out;
  ckpt::Writer w(&out);
  w.U64(record.seq);
  w.U32(record.prev_crc);
  w.U8(static_cast<uint8_t>(record.op));
  w.String(record.policy);
  w.U8(record.backend);
  w.U32(record.shard);
  w.U64(record.rows_marked);
  w.U64(record.rows_scrubbed);
  w.U64(record.partitions_dropped);
  w.U64(record.tick_lo);
  w.U64(record.tick_hi);
  w.U64(record.batch);
  w.U64(record.lsn);
  w.U64(record.wall_ms);
  w.U64(record.lifetime_forgotten);
  return out;
}

Status DecodeAuditRecord(const std::vector<uint8_t>& payload,
                         AuditRecord* record) {
  ckpt::Reader r(payload);
  uint8_t op = 0;
  AMNESIA_RETURN_NOT_OK(r.U64(&record->seq));
  AMNESIA_RETURN_NOT_OK(r.U32(&record->prev_crc));
  AMNESIA_RETURN_NOT_OK(r.U8(&op));
  AMNESIA_RETURN_NOT_OK(r.String(&record->policy));
  AMNESIA_RETURN_NOT_OK(r.U8(&record->backend));
  AMNESIA_RETURN_NOT_OK(r.U32(&record->shard));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->rows_marked));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->rows_scrubbed));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->partitions_dropped));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->tick_lo));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->tick_hi));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->batch));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->lsn));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->wall_ms));
  AMNESIA_RETURN_NOT_OK(r.U64(&record->lifetime_forgotten));
  if (op != static_cast<uint8_t>(AuditOp::kEnforce) &&
      op != static_cast<uint8_t>(AuditOp::kVacuum)) {
    return Status::InvalidArgument("unknown audit op " + std::to_string(op));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in audit record");
  }
  record->op = static_cast<AuditOp>(op);
  return Status::OK();
}

AuditLedger::AuditLedger(SegmentChain chain) : chain_(std::move(chain)) {}

StatusOr<AuditLedger> AuditLedger::Open(const std::string& dir,
                                        const AuditLedgerOptions& options) {
  // Every append flushes: the record must reach the page cache before the
  // sweep it attests is reported done.
  AMNESIA_ASSIGN_OR_RETURN(
      SegmentChain chain,
      SegmentChain::Create(dir, kLedgerFormat, options.max_segment_bytes,
                           SyncPolicy::EveryAppend()));
  return AuditLedger(std::move(chain));
}

StatusOr<AuditLedger> AuditLedger::OpenForAppend(
    const std::string& dir, const AuditLedgerOptions& options) {
  ChainWalk walk;
  walk.keep = kTailCapacity;
  StatusOr<SegmentChain> chain =
      SegmentChain::Resume(dir, kLedgerFormat, options.max_segment_bytes,
                           SyncPolicy::EveryAppend(), walk.Visitor());
  if (chain.status().code() == StatusCode::kNotFound) {
    return Open(dir, options);
  }
  if (!chain.ok()) return chain.status();
  AuditLedger ledger(std::move(chain).value());
  ledger.chain_crc_ = walk.crc;
  ledger.tail_ = std::move(walk.records);
  return ledger;
}

AuditLedger::AuditLedger(AuditLedger&& other) noexcept
    : chain_crc_(other.chain_crc_),
      tail_(std::move(other.tail_)),
      chain_(std::move(other.chain_)) {}

AuditLedger& AuditLedger::operator=(AuditLedger&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  chain_crc_ = other.chain_crc_;
  tail_ = std::move(other.tail_);
  chain_ = std::move(other.chain_);
  return *this;
}

Status AuditLedger::Append(AuditRecord* record) {
  std::lock_guard<std::mutex> lock(mu_);
  record->seq = chain_.next_index();
  record->prev_crc = chain_crc_;
  if (record->wall_ms == 0) {
    record->wall_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }
  const std::vector<uint8_t> payload = EncodeAuditRecord(*record);
  // A segment this append opens is seeded with the chain head before the
  // record, so verification can start there.
  SegmentBarriers barriers;
  AMNESIA_RETURN_NOT_OK(chain_.Append(payload, chain_crc_, &barriers));
  chain_crc_ = ckpt::Crc32(payload);
  tail_.push_back(*record);
  while (tail_.size() > kTailCapacity) tail_.pop_front();
  // No checkpoint writer syncs the ledger: a segment this append sealed
  // is fsynced before Append returns.
  if (barriers.seal) return chain_.SyncSealed().status();
  return Status::OK();
}

std::vector<AuditRecord> AuditLedger::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t keep = std::min(n, tail_.size());
  return std::vector<AuditRecord>(tail_.end() - keep, tail_.end());
}

Status AuditLedger::TruncateBefore(uint64_t seq) {
  return chain_.TruncateBefore(seq).status();
}

uint64_t AuditLedger::next_seq() const { return chain_.next_index(); }

uint64_t AuditLedger::base_seq() const { return chain_.base_index(); }

uint32_t AuditLedger::chain_crc() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chain_crc_;
}

uint64_t AuditLedger::segments_unlinked() const {
  return chain_.segments_unlinked();
}

StatusOr<std::vector<AuditRecord>> ReadAuditRecords(const std::string& dir) {
  ChainWalk walk;
  AMNESIA_RETURN_NOT_OK(
      ReadSegmentChain(dir, kLedgerFormat, walk.Visitor()).status());
  return std::vector<AuditRecord>(std::make_move_iterator(walk.records.begin()),
                                  std::make_move_iterator(walk.records.end()));
}

StatusOr<AuditChainReport> VerifyAuditChain(const std::string& dir) {
  ChainWalk walk;
  AuditChainReport report;
  AMNESIA_ASSIGN_OR_RETURN(report.base_seq,
                           ReadSegmentChain(dir, kLedgerFormat,
                                            walk.Visitor()));
  report.ok = walk.break_detail.empty();
  report.records = walk.records.size();
  report.next_seq = walk.next_seq;
  report.chain_crc = walk.crc;
  report.detail = walk.break_detail;
  return report;
}

std::string AuditDirFor(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/audit.segs";
}

}  // namespace amnesia
