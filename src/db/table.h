// Tables and the catalog of the in-house prototype column-store (paper §3.1).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/column.h"
#include "util/status.h"

namespace ndp::db {

/// \brief A table: equal-length named columns.
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Column* AddColumn(Column col) {
    NDP_CHECK_MSG(FindColumn(col.name()) == nullptr, "duplicate column");
    columns_.push_back(std::make_unique<Column>(std::move(col)));
    return columns_.back().get();
  }

  Column* FindColumn(const std::string& col_name) {
    for (auto& c : columns_) {
      if (c->name() == col_name) return c.get();
    }
    return nullptr;
  }
  const Column* FindColumn(const std::string& col_name) const {
    return const_cast<Table*>(this)->FindColumn(col_name);
  }

  /// Column lookup that fails loudly; use in query code.
  Column& Col(const std::string& col_name) {
    Column* c = FindColumn(col_name);
    NDP_CHECK_MSG(c != nullptr, col_name.c_str());
    return *c;
  }
  const Column& Col(const std::string& col_name) const {
    return const_cast<Table*>(this)->Col(col_name);
  }

  size_t num_columns() const { return columns_.size(); }

  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0]->size(); }

  /// Verifies all columns have equal length.
  Status Validate() const {
    for (const auto& c : columns_) {
      if (c->size() != num_rows()) {
        return Status::Internal("column '" + c->name() + "' length mismatch in " +
                                name_);
      }
    }
    return Status::OK();
  }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Column>> columns_;
};

/// \brief Named collection of tables.
class Catalog {
 public:
  Table* AddTable(std::string table_name) {
    auto [it, inserted] =
        tables_.emplace(table_name, std::make_unique<Table>(table_name));
    NDP_CHECK_MSG(inserted, "duplicate table");
    return it->second.get();
  }

  Table* FindTable(const std::string& table_name) {
    auto it = tables_.find(table_name);
    return it == tables_.end() ? nullptr : it->second.get();
  }

  Table& Tab(const std::string& table_name) {
    Table* t = FindTable(table_name);
    NDP_CHECK_MSG(t != nullptr, table_name.c_str());
    return *t;
  }

  size_t num_tables() const { return tables_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace ndp::db
