// Parsed statement AST. Expressions reuse expr/Expression (unbound).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/expression.h"
#include "types/type.h"

namespace relopt {

enum class StatementKind {
  kCreateTable,
  kCreateIndex,
  kDropTable,
  kInsert,
  kSelect,
  kExplain,
  kAnalyze,
  kDelete,
  kUpdate,
};

/// Base class of all parsed statements.
struct Statement {
  explicit Statement(StatementKind kind_in) : kind(kind_in) {}
  virtual ~Statement() = default;
  StatementKind kind;
  std::string text;  ///< this statement's source text (query-history records)
  /// Number of `?` parameter placeholders (positional, in source order).
  /// Non-zero only for statements prepared through Session::Prepare.
  size_t num_parameters = 0;
};

using StatementPtr = std::unique_ptr<Statement>;

struct ColumnDef {
  std::string name;
  TypeId type;
};

struct CreateTableStmt : Statement {
  CreateTableStmt() : Statement(StatementKind::kCreateTable) {}
  std::string table_name;
  std::vector<ColumnDef> columns;
};

struct CreateIndexStmt : Statement {
  CreateIndexStmt() : Statement(StatementKind::kCreateIndex) {}
  std::string index_name;
  std::string table_name;
  std::vector<std::string> columns;
  bool clustered = false;
};

struct DropTableStmt : Statement {
  DropTableStmt() : Statement(StatementKind::kDropTable) {}
  std::string table_name;
  bool if_exists = false;
};

struct InsertStmt : Statement {
  InsertStmt() : Statement(StatementKind::kInsert) {}
  std::string table_name;
  /// Optional explicit column list; empty = table order.
  std::vector<std::string> columns;
  /// One expression list per VALUES row (literals after folding).
  std::vector<std::vector<ExprPtr>> rows;
};

/// One item of the SELECT list. `is_star` covers the bare `*`.
struct SelectItem {
  ExprPtr expr;        // null when is_star
  std::string alias;   // empty unless AS given
  bool is_star = false;
};

/// A base-table or table-function reference in FROM, possibly aliased.
struct TableRef {
  std::string table_name;
  std::string alias;  // defaults to table_name
  bool is_function = false;  // true for `name()` (e.g. relopt_metrics())
  /// Appends an INT column `#rid` to the scan's schema, each row's packed
  /// RID. Only UPDATE and DELETE set it; no SQL text can name the column.
  bool with_rid = false;

  const std::string& EffectiveName() const { return alias.empty() ? table_name : alias; }
};

struct OrderByItem {
  ExprPtr expr;
  bool desc = false;
};

struct SelectStmt : Statement {
  SelectStmt() : Statement(StatementKind::kSelect) {}
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;          // empty = SELECT of constants
  ExprPtr where;                       // null if absent; JOIN ... ON folds in
  std::vector<ExprPtr> group_by;
  ExprPtr having;                      // null if absent
  std::vector<OrderByItem> order_by;
  std::optional<int64_t> limit;
};

struct ExplainStmt : Statement {
  ExplainStmt() : Statement(StatementKind::kExplain) {}
  StatementPtr inner;   // the SELECT being explained
  bool analyze = false; // EXPLAIN ANALYZE: run and report actual rows/IO
  bool trace = false;   // EXPLAIN TRACE: include the optimizer decision log
};

struct AnalyzeStmt : Statement {
  AnalyzeStmt() : Statement(StatementKind::kAnalyze) {}
  /// Empty = every table.
  std::string table_name;
};

struct DeleteStmt : Statement {
  DeleteStmt() : Statement(StatementKind::kDelete) {}
  std::string table_name;
  ExprPtr where;  // null = delete all rows
};

struct UpdateStmt : Statement {
  UpdateStmt() : Statement(StatementKind::kUpdate) {}
  std::string table_name;
  /// SET column = expression assignments; expressions may reference the
  /// row's old values.
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // null = update all rows
};

}  // namespace relopt
