// Copyright 2026 The AmnesiaDB Authors

#include "storage/database.h"

#include <unordered_set>

namespace amnesia {

StatusOr<Table*> Database::CreateTable(const std::string& name,
                                       Schema schema) {
  if (tables_.count(name) > 0) {
    return Status::FailedPrecondition("table '" + name + "' already exists");
  }
  AMNESIA_ASSIGN_OR_RETURN(Table table, Table::Make(std::move(schema)));
  auto owned = std::make_unique<Table>(std::move(table));
  Table* raw = owned.get();
  tables_.emplace(name, std::move(owned));
  return raw;
}

StatusOr<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second.get();
}

StatusOr<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return static_cast<const Table*>(it->second.get());
}

Status Database::AddForeignKey(const ForeignKey& fk) {
  AMNESIA_ASSIGN_OR_RETURN(const Table* child, GetTable(fk.child_table));
  AMNESIA_ASSIGN_OR_RETURN(const Table* parent, GetTable(fk.parent_table));
  if (fk.child_col >= child->num_columns()) {
    return Status::InvalidArgument("child column out of range");
  }
  if (fk.parent_col >= parent->num_columns()) {
    return Status::InvalidArgument("parent column out of range");
  }
  fks_.push_back(fk);
  return Status::OK();
}

std::vector<ForeignKey> Database::ForeignKeysReferencing(
    const std::string& table) const {
  std::vector<ForeignKey> out;
  for (const ForeignKey& fk : fks_) {
    if (fk.parent_table == table) out.push_back(fk);
  }
  return out;
}

Status Database::CheckReferentialIntegrity() const {
  for (const ForeignKey& fk : fks_) {
    AMNESIA_ASSIGN_OR_RETURN(const Table* child, GetTable(fk.child_table));
    AMNESIA_ASSIGN_OR_RETURN(const Table* parent, GetTable(fk.parent_table));
    std::unordered_set<Value> parent_values;
    const uint64_t pn = parent->num_rows();
    for (RowId r = 0; r < pn; ++r) {
      if (parent->IsActive(r)) {
        parent_values.insert(parent->value(fk.parent_col, r));
      }
    }
    const uint64_t cn = child->num_rows();
    for (RowId r = 0; r < cn; ++r) {
      if (!child->IsActive(r)) continue;
      const Value v = child->value(fk.child_col, r);
      if (parent_values.count(v) == 0) {
        return Status::FailedPrecondition(
            "fk violation: " + fk.child_table + "[" + std::to_string(r) +
            "] references missing " + fk.parent_table + " value " +
            std::to_string(v));
      }
    }
  }
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    (void)table;
    out.push_back(name);
  }
  return out;
}

size_t Database::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& [name, table] : tables_) {
    (void)name;
    bytes += table->ApproxBytes();
  }
  return bytes;
}

}  // namespace amnesia
