// Copyright 2026 The AmnesiaDB Authors
//
// Table checkpointing. The paper's escape hatch for forgotten data is
// explicit recovery: "data is forgotten and will never show up in query
// results, unless the user takes the action and recover[s] a backup
// version of the database from cold storage explicitly" (§5). A
// checkpoint serializes a table — payload, amnesia metadata and all — to
// a byte buffer (common/fs.h writes it to a file); restoring yields a
// bit-identical table state.
//
// This module owns the table-blob format. A table's image is its
// Table::Parts: Table::ToParts() captures it, EncodeTableParts writes it,
// RestoreTable decodes a blob back into it and Table::FromParts rebuilds
// the table. The format has two layouts, each with one writer:
//  - version 1, self-contained: schema, payload, ticks, batches, access
//    counts and the active bitmap, one entry per row. A vector image
//    encodes to it (its batch runs expanded), and CheckpointTable writes a
//    live table's arrays in it directly; the two give the same bytes for
//    the same table.
//  - version 3, mapped: partition metadata, `row_base`, the unsealed tail,
//    the batch runs, and the access counts and active bits of the rows
//    from `row_base` on. A mapped image encodes to it, and restore
//    re-maps the sealed payload from the partition files. Rows below
//    `row_base` lie in dropped partitions, so the blob of a table whose
//    oldest partitions were dropped grows with its live partitions and
//    its batches, not with its history.
// Version 2, the mapped layout before `row_base` (access counts and bits
// of every row), still restores, as row_base 0; nothing writes it.

#ifndef AMNESIA_STORAGE_CHECKPOINT_H_
#define AMNESIA_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/cold_store.h"
#include "storage/schema.h"
#include "storage/summary_store.h"
#include "storage/table.h"

namespace amnesia {

/// \brief Serializes `table` (schema, payload, ticks, batches, access
/// counts, active bitmap, counters) into a self-contained (version 1)
/// blob. A mapped table's payload is spliced into one array per column,
/// so its blob is byte-identical to its vector-mode twin's.
std::vector<uint8_t> CheckpointTable(const Table& table);

/// \brief Serializes a table image as ToParts() returns it: a vector
/// image in the version 1 layout (the bytes CheckpointTable gives for the
/// table it was taken from), a mapped image in the version 3 layout.
std::vector<uint8_t> EncodeTableParts(const Table::Parts& parts);

/// \brief Reconstructs a table from a table blob of either layout. A
/// version 2 or 3 (mapped) blob carries partition metadata and the
/// unsealed tail only; restore re-maps the sealed partition files from
/// `storage_dir`, and fails without one. A dropped row's access count
/// reads 0 after restore, also from a version 2 blob that carried another
/// value. A version 1 blob restores as an in-memory table and ignores
/// `storage_dir`. Returns InvalidArgument on a corrupt or truncated buffer
/// (one naming more than Table::kMaxImageRows rows included) and
/// FailedPrecondition on an unsupported format version.
StatusOr<Table> RestoreTable(const std::vector<uint8_t>& buffer,
                             const std::string& storage_dir = "");

/// \brief Serializes the cold tier: cost model, resident tuples and the
/// accumulated accounting, so recall economics survive a restart.
std::vector<uint8_t> CheckpointColdStore(const ColdStore& store);

/// \brief Reconstructs a cold tier from a CheckpointColdStore() buffer.
StatusOr<ColdStore> RestoreColdStore(const std::vector<uint8_t>& buffer);

/// \brief Serializes the summary tier's per-(column, batch) cells.
std::vector<uint8_t> CheckpointSummaryStore(const SummaryStore& store);

/// \brief Reconstructs a summary tier from a CheckpointSummaryStore()
/// buffer.
StatusOr<SummaryStore> RestoreSummaryStore(const std::vector<uint8_t>& buffer);

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_CHECKPOINT_H_
