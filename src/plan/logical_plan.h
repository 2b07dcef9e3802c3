// Logical query plans (the binder's output, the optimizer's input).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "expr/expression.h"
#include "types/schema.h"

namespace relopt {

enum class LogicalNodeKind {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kValues,
  kTableFunction,
};

class LogicalNode;
using LogicalPtr = std::unique_ptr<LogicalNode>;

/// \brief Base logical operator. Owns its children; exposes an output schema
/// so expressions above can bind.
class LogicalNode {
 public:
  LogicalNode(LogicalNodeKind kind, Schema schema)
      : kind_(kind), schema_(std::move(schema)) {}
  virtual ~LogicalNode() = default;

  LogicalNodeKind kind() const { return kind_; }
  const Schema& schema() const { return schema_; }

  const std::vector<LogicalPtr>& children() const { return children_; }
  std::vector<LogicalPtr>& mutable_children() { return children_; }
  LogicalNode* child(size_t i) const { return children_[i].get(); }
  void AddChild(LogicalPtr child) { children_.push_back(std::move(child)); }
  LogicalPtr TakeChild(size_t i) { return std::move(children_[i]); }

  /// One-line description of this node (no children).
  virtual std::string Describe() const = 0;

  /// Multi-line indented tree rendering.
  std::string ToString() const;

 protected:
  LogicalNodeKind kind_;
  Schema schema_;
  std::vector<LogicalPtr> children_;
};

/// Base-table scan. The schema is qualified by the FROM alias.
class LogicalScan : public LogicalNode {
 public:
  LogicalScan(std::string table_name, std::string alias, Schema schema)
      : LogicalNode(LogicalNodeKind::kScan, std::move(schema)),
        table_name_(std::move(table_name)),
        alias_(std::move(alias)) {}

  const std::string& table_name() const { return table_name_; }
  const std::string& alias() const { return alias_; }

  std::string Describe() const override;

 private:
  std::string table_name_;
  std::string alias_;
};

class LogicalFilter : public LogicalNode {
 public:
  LogicalFilter(LogicalPtr child, ExprPtr predicate)
      : LogicalNode(LogicalNodeKind::kFilter, child->schema()), predicate_(std::move(predicate)) {
    AddChild(std::move(child));
  }

  const Expression* predicate() const { return predicate_.get(); }
  ExprPtr TakePredicate() { return std::move(predicate_); }

  std::string Describe() const override;

 private:
  ExprPtr predicate_;
};

class LogicalProject : public LogicalNode {
 public:
  LogicalProject(LogicalPtr child, std::vector<ExprPtr> exprs, Schema out_schema)
      : LogicalNode(LogicalNodeKind::kProject, std::move(out_schema)), exprs_(std::move(exprs)) {
    AddChild(std::move(child));
  }

  const std::vector<ExprPtr>& exprs() const { return exprs_; }
  std::vector<ExprPtr>& mutable_exprs() { return exprs_; }

  std::string Describe() const override;

 private:
  std::vector<ExprPtr> exprs_;
};

/// Inner join (predicate null = cross product). The binder emits a left-deep
/// chain of these; the optimizer replaces the whole join subtree.
class LogicalJoin : public LogicalNode {
 public:
  LogicalJoin(LogicalPtr left, LogicalPtr right, ExprPtr predicate)
      : LogicalNode(LogicalNodeKind::kJoin, Schema::Concat(left->schema(), right->schema())),
        predicate_(std::move(predicate)) {
    AddChild(std::move(left));
    AddChild(std::move(right));
  }

  const Expression* predicate() const { return predicate_.get(); }
  ExprPtr TakePredicate() { return std::move(predicate_); }

  std::string Describe() const override;

 private:
  ExprPtr predicate_;
};

/// One aggregate to compute.
struct AggregateSpec {
  AggFunc func;
  ExprPtr arg;          // null for COUNT(*)
  std::string out_name; // display name, e.g. "count(*)"
};

class LogicalAggregate : public LogicalNode {
 public:
  LogicalAggregate(LogicalPtr child, std::vector<ExprPtr> group_by,
                   std::vector<AggregateSpec> aggs, Schema out_schema)
      : LogicalNode(LogicalNodeKind::kAggregate, std::move(out_schema)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {
    AddChild(std::move(child));
  }

  const std::vector<ExprPtr>& group_by() const { return group_by_; }
  const std::vector<AggregateSpec>& aggs() const { return aggs_; }
  std::vector<ExprPtr>& mutable_group_by() { return group_by_; }
  std::vector<AggregateSpec>& mutable_aggs() { return aggs_; }

  std::string Describe() const override;

 private:
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateSpec> aggs_;
};

struct SortKey {
  ExprPtr expr;
  bool desc = false;
};

class LogicalSort : public LogicalNode {
 public:
  LogicalSort(LogicalPtr child, std::vector<SortKey> keys)
      : LogicalNode(LogicalNodeKind::kSort, child->schema()), keys_(std::move(keys)) {
    AddChild(std::move(child));
  }

  const std::vector<SortKey>& keys() const { return keys_; }
  std::vector<SortKey>& mutable_keys() { return keys_; }

  std::string Describe() const override;

 private:
  std::vector<SortKey> keys_;
};

class LogicalLimit : public LogicalNode {
 public:
  LogicalLimit(LogicalPtr child, int64_t limit)
      : LogicalNode(LogicalNodeKind::kLimit, child->schema()), limit_(limit) {
    AddChild(std::move(child));
  }

  int64_t limit() const { return limit_; }

  std::string Describe() const override;

 private:
  int64_t limit_;
};

/// Introspection table function in FROM (relopt_metrics() etc.): a leaf scan
/// over engine snapshot data (engine/table_functions.h). The schema is
/// qualified by the FROM alias.
class LogicalTableFunction : public LogicalNode {
 public:
  LogicalTableFunction(std::string function_name, std::string alias, Schema schema)
      : LogicalNode(LogicalNodeKind::kTableFunction, std::move(schema)),
        function_name_(std::move(function_name)),
        alias_(std::move(alias)) {}

  const std::string& function_name() const { return function_name_; }
  const std::string& alias() const { return alias_; }

  std::string Describe() const override;

 private:
  std::string function_name_;
  std::string alias_;
};

/// Literal rows (INSERT ... VALUES and FROM-less SELECT).
class LogicalValues : public LogicalNode {
 public:
  LogicalValues(std::vector<Tuple> rows, Schema schema)
      : LogicalNode(LogicalNodeKind::kValues, std::move(schema)), rows_(std::move(rows)) {}

  const std::vector<Tuple>& rows() const { return rows_; }

  std::string Describe() const override;

 private:
  std::vector<Tuple> rows_;
};

}  // namespace relopt
