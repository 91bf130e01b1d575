// Copyright 2026 The AmnesiaDB Authors
//
// Crash-durable, hash-chained audit ledger of forget outcomes. Every
// controller sweep that marked, scrubbed or dropped anything appends one
// AuditRecord saying which policy ran, over which backend and shard, the
// tick range it covered, how many rows it marked/scrubbed and partitions
// it dropped, and where that stands against the durable event log (LSN)
// and wall clock. The ledger is what a compliance audit points at: "this
// data was forgotten, at this time, under this policy" — and, because
// each record embeds the CRC-32 of the previous record's payload,
// truncating or rewriting history breaks the chain detectably.
//
// On disk the ledger reuses the event-log machinery: it is a segment
// chain (durability/segment_chain.h, the same roll, seal, truncation and
// repair code as the segmented event log) in the `ALED` format, a
// dedicated directory of audit-<base seq>.seg files each opening with
//   [u32 magic "ALED"][u32 version][u64 base seq][u32 chain seed][u32 crc]
// followed by ordinary [len|crc32|payload] frames (durability/frame_io.h)
// whose payloads are ckpt-encoded AuditRecords. The `chain seed` is the
// frame CRC of the last record in the PREVIOUS segment, so verification
// can start at any surviving segment — retention GC unlinks sealed
// segments whole (TruncateBefore, same O(1) contract as the segmented
// event log) without orphaning the chain.
//
// Durability contract: Append flushes the frame to the page cache before
// returning, and callers append the ledger record only AFTER flushing the
// event sink that journals the same sweep. A crash between the two leaves
// the sweep journaled but unattested — recovery replays it and the totals
// check reads "replayed >= attested", never the reverse. The ledger can
// therefore under-claim after a kill −9 but can never claim a forget that
// did not durably happen.

#ifndef AMNESIA_AMNESIA_AUDIT_LEDGER_H_
#define AMNESIA_AMNESIA_AUDIT_LEDGER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "durability/segment_chain.h"

namespace amnesia {

/// \brief Which controller pass produced a record.
enum class AuditOp : uint8_t {
  kEnforce = 1,  ///< Budget-driven sweep (Controller::EnforceBudget).
  kVacuum = 2,   ///< Deadline-driven sweep (Controller::VacuumExpired).
};

std::string_view AuditOpToString(AuditOp op);

/// \brief One attested forget outcome. Append() stamps `seq` and
/// `prev_crc`; every other field is the caller's claim about the sweep.
struct AuditRecord {
  uint64_t seq = 0;       ///< Ledger sequence number (contiguous from 0).
  uint32_t prev_crc = 0;  ///< Frame CRC of the previous record (0 = first).
  AuditOp op = AuditOp::kEnforce;
  std::string policy;     ///< PolicyKindToString of the policy that ran.
  uint8_t backend = 0;    ///< BackendKind the controller scrubbed with.
  uint32_t shard = 0;     ///< Shard the sweep ran on (0 unsharded).
  uint64_t rows_marked = 0;      ///< Rows flipped dead this sweep.
  uint64_t rows_scrubbed = 0;    ///< Rows whose payloads were overwritten.
  uint64_t partitions_dropped = 0;  ///< Whole-partition fast-path drops.
  uint64_t tick_lo = 0;   ///< Oldest insert tick forgotten (0 when none).
  uint64_t tick_hi = 0;   ///< Newest insert tick forgotten.
  uint64_t batch = 0;     ///< Table batch the sweep ran at.
  uint64_t lsn = 0;       ///< Event-log next_lsn after the sweep's flush.
  uint64_t wall_ms = 0;   ///< Wall clock (ms since epoch) at append.
  uint64_t lifetime_forgotten = 0;  ///< Table lifetime total after sweep.
};

/// \brief Tuning for an AuditLedger.
struct AuditLedgerOptions {
  /// Roll to a fresh segment once the active file reaches this size.
  uint64_t max_segment_bytes = 64u << 10;
};

/// \brief Verification result for a ledger directory's hash chain.
struct AuditChainReport {
  bool ok = false;         ///< Chain intact: seeds, prev_crcs, seqs agree.
  uint64_t records = 0;    ///< Records read before the first break (or all).
  uint64_t base_seq = 0;   ///< Seq of the oldest surviving record.
  uint64_t next_seq = 0;   ///< One past the newest verified record.
  uint32_t chain_crc = 0;  ///< Frame CRC of the newest verified record.
  std::string detail;      ///< Human-readable break description when !ok.
};

/// \brief Append-only hash-chained ledger striped across segment files.
/// Append/Tail/TruncateBefore are thread-safe (sharded controllers sweep
/// concurrently; retention GC runs on the checkpoint writer thread).
class AuditLedger {
 public:
  /// Opens a fresh ledger in `dir` (created if missing); segment files
  /// from a previous instance are removed first.
  static StatusOr<AuditLedger> Open(const std::string& dir,
                                    const AuditLedgerOptions& options = {});

  /// Re-opens an existing ledger for appending: scans the segments,
  /// physically truncates a torn tail (the expected kill −9 artifact)
  /// before new appends land, and resumes the chain from the last valid
  /// record. Falls back to a fresh ledger when `dir` holds none.
  static StatusOr<AuditLedger> OpenForAppend(
      const std::string& dir, const AuditLedgerOptions& options = {});

  AuditLedger(AuditLedger&& other) noexcept;
  AuditLedger& operator=(AuditLedger&& other) noexcept;
  AuditLedger(const AuditLedger&) = delete;
  AuditLedger& operator=(const AuditLedger&) = delete;

  /// Stamps `record->seq` and `record->prev_crc`, appends the frame to
  /// the active segment (rolling first at the size threshold) and flushes
  /// it to the page cache before returning.
  Status Append(AuditRecord* record);

  /// Returns the newest records, oldest first, up to `n` (bounded by the
  /// 256-record in-memory ring and what this instance has seen).
  std::vector<AuditRecord> Tail(size_t n) const;

  /// Unlinks every sealed segment wholly below `seq`. Conservative like
  /// the event log: a segment containing `seq` is kept whole. Concurrent
  /// with Append, which only waits for the index splice.
  Status TruncateBefore(uint64_t seq);

  /// Sequence number the next Append will stamp.
  uint64_t next_seq() const;
  /// Oldest sequence number still on disk.
  uint64_t base_seq() const;
  /// Frame CRC of the newest record (the current chain head; 0 = empty).
  uint32_t chain_crc() const;
  /// Segments TruncateBefore has unlinked in total.
  uint64_t segments_unlinked() const;

  const std::string& dir() const { return chain_.dir(); }

 private:
  explicit AuditLedger(SegmentChain chain);

  /// Serializes stamping with the frame write, and guards the two below.
  mutable std::mutex mu_;
  uint32_t chain_crc_ = 0;  ///< Frame CRC of the newest record.
  std::deque<AuditRecord> tail_;
  SegmentChain chain_;
};

/// \brief Encodes/decodes one record payload (exposed for tests and the
/// offline verifier; the chain hashes exactly these bytes).
std::vector<uint8_t> EncodeAuditRecord(const AuditRecord& record);
Status DecodeAuditRecord(const std::vector<uint8_t>& payload,
                         AuditRecord* record);

/// \brief Reads every surviving record in seq order, stopping at the
/// first torn/corrupt frame. NotFound when `dir` holds no ledger.
StatusOr<std::vector<AuditRecord>> ReadAuditRecords(const std::string& dir);

/// \brief Walks the chain on disk and reports whether it is intact:
/// segment chain seeds match the running CRC, every record's prev_crc
/// matches its predecessor's frame CRC, and seqs are contiguous. A
/// torn final frame is NOT a break (it is the expected crash artifact);
/// a CRC-valid record whose prev_crc disagrees IS (tampering/splice).
/// NotFound when `dir` holds no ledger.
StatusOr<AuditChainReport> VerifyAuditChain(const std::string& dir);

/// \brief The canonical ledger location under a checkpoint directory:
/// `<dir>/audit.segs`.
std::string AuditDirFor(const std::string& checkpoint_dir);

}  // namespace amnesia

#endif  // AMNESIA_AMNESIA_AUDIT_LEDGER_H_
