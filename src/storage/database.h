// Copyright 2026 The AmnesiaDB Authors
//
// Multi-table database with declared foreign keys. §5 of the paper raises
// the open question this module answers operationally: "Semantic database
// integrity creates another challenge for amnesia strategies. For example,
// foreign key relationships put a hard boundary on what we can forget.
// Should forgetting a key value be forbidden unless it is not referenced
// any more? Or should we cascade by forgetting all related tuples?"
// Both answers are implemented (see amnesia/referential.h).

#ifndef AMNESIA_STORAGE_DATABASE_H_
#define AMNESIA_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace amnesia {

/// \brief A declared foreign-key relationship: every active child row's
/// `child_col` value must equal some active parent row's `parent_col`
/// value. (Value-based semantics, like SQL — not row-id based.)
struct ForeignKey {
  std::string child_table;
  size_t child_col = 0;
  std::string parent_table;
  size_t parent_col = 0;
};

/// \brief A named collection of tables plus their foreign keys.
///
/// Tables are owned by the database and addressed by name; pointers remain
/// stable for the database's lifetime.
class Database {
 public:
  /// Creates an empty table with the given name and schema.
  /// Returns FailedPrecondition when the name is taken.
  StatusOr<Table*> CreateTable(const std::string& name, Schema schema);

  /// Returns the table, or NotFound.
  StatusOr<Table*> GetTable(const std::string& name);
  /// Const overload.
  StatusOr<const Table*> GetTable(const std::string& name) const;

  /// Declares a foreign key. Validates that both tables exist and the
  /// column indexes are in range. Existing data is NOT re-checked (like
  /// adding a constraint NOT VALID); use CheckReferentialIntegrity().
  Status AddForeignKey(const ForeignKey& fk);

  /// Returns all declared foreign keys.
  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }

  /// Returns the foreign keys whose parent is `table`.
  std::vector<ForeignKey> ForeignKeysReferencing(
      const std::string& table) const;

  /// Verifies that every active child row references an active parent
  /// value, for every declared foreign key. Returns the first violation
  /// as FailedPrecondition, OK when consistent. O(total rows).
  Status CheckReferentialIntegrity() const;

  /// Returns the table names, sorted.
  std::vector<std::string> TableNames() const;

  /// Returns the number of tables.
  size_t num_tables() const { return tables_.size(); }

  /// Sum of ApproxBytes over all tables.
  size_t ApproxBytes() const;

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<ForeignKey> fks_;
};

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_DATABASE_H_
