// Physical query plans: concrete access paths, join methods, sort, aggregate.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/expression.h"
#include "types/schema.h"
#include "types/value.h"

namespace relopt {

/// Optimizer cost in the System-R style: page I/Os plus a weighted per-tuple
/// CPU term. `Total()` is what plans are compared by.
struct Cost {
  double page_ios = 0;
  double cpu_tuples = 0;

  /// Weight of one tuple of CPU relative to one page I/O (System R's "W").
  static constexpr double kDefaultCpuWeight = 0.01;

  /// Multiplier on that weight for the batch engine: compiled column kernels
  /// and amortized per-batch dispatch make one tuple of CPU several times
  /// cheaper than a row-at-a-time Volcano loop, so plans that trade I/O for
  /// CPU (e.g. hash join over index nested loop) win earlier. The optimizer
  /// plans with kDefaultCpuWeight * kVectorizedCpuFactor.
  static constexpr double kVectorizedCpuFactor = 0.25;

  double Total(double cpu_weight = kDefaultCpuWeight) const {
    return page_ios + cpu_weight * cpu_tuples;
  }
  Cost operator+(const Cost& other) const {
    return Cost{page_ios + other.page_ios, cpu_tuples + other.cpu_tuples};
  }
  Cost& operator+=(const Cost& other) {
    page_ios += other.page_ios;
    cpu_tuples += other.cpu_tuples;
    return *this;
  }
};

enum class PhysicalNodeKind {
  kSeqScan,
  kIndexScan,
  kFilter,
  kProject,
  kNestedLoopJoin,
  kBlockNestedLoopJoin,
  kIndexNestedLoopJoin,
  kSortMergeJoin,
  kHashJoin,
  kSort,
  kAggregate,
  kLimit,
  kValues,
  kTableFunctionScan,
};

const char* PhysicalNodeKindToString(PhysicalNodeKind kind);

class PhysicalNode;
using PhysicalPtr = std::unique_ptr<PhysicalNode>;

/// \brief Base physical operator. Carries the optimizer's estimates so
/// EXPLAIN can show estimated vs actual.
class PhysicalNode {
 public:
  PhysicalNode(PhysicalNodeKind kind, Schema schema)
      : kind_(kind), schema_(std::move(schema)) {}
  virtual ~PhysicalNode() = default;

  PhysicalNodeKind kind() const { return kind_; }
  const Schema& schema() const { return schema_; }

  const std::vector<PhysicalPtr>& children() const { return children_; }
  PhysicalNode* child(size_t i) const { return children_[i].get(); }
  void AddChild(PhysicalPtr child) { children_.push_back(std::move(child)); }

  double est_rows() const { return est_rows_; }
  const Cost& est_cost() const { return est_cost_; }
  void SetEstimates(double rows, Cost cost) {
    est_rows_ = rows;
    est_cost_ = cost;
  }

  /// Cardinality-feedback signature (optimizer/feedback.h); empty when this
  /// node's actuals carry no feedback signal. Stamped at plan-build time so
  /// the harvest after execution knows which store entry each actual feeds.
  const std::string& feedback_key() const { return feedback_key_; }
  void set_feedback_key(std::string key) { feedback_key_ = std::move(key); }

  virtual std::string Describe() const = 0;
  /// Indented tree with estimates.
  std::string ToString() const;

 protected:
  PhysicalNodeKind kind_;
  Schema schema_;
  std::vector<PhysicalPtr> children_;
  double est_rows_ = 0;
  Cost est_cost_;
  std::string feedback_key_;
};

/// Full scan of a base table.
class PhysSeqScan : public PhysicalNode {
 public:
  PhysSeqScan(std::string table_name, std::string alias, Schema schema)
      : PhysicalNode(PhysicalNodeKind::kSeqScan, std::move(schema)),
        table_name_(std::move(table_name)),
        alias_(std::move(alias)) {}

  const std::string& table_name() const { return table_name_; }
  const std::string& alias() const { return alias_; }
  std::string Describe() const override;

 private:
  std::string table_name_;
  std::string alias_;
};

/// Range or point scan through a B+tree index, fetching matching heap rows.
/// Bounds are composite key prefixes (Values for the leading index columns).
class PhysIndexScan : public PhysicalNode {
 public:
  PhysIndexScan(std::string table_name, std::string alias, std::string index_name, Schema schema)
      : PhysicalNode(PhysicalNodeKind::kIndexScan, std::move(schema)),
        table_name_(std::move(table_name)),
        alias_(std::move(alias)),
        index_name_(std::move(index_name)) {}

  const std::string& table_name() const { return table_name_; }
  const std::string& alias() const { return alias_; }
  const std::string& index_name() const { return index_name_; }

  /// Lower/upper bound values for a prefix of the index key; empty = open.
  std::vector<Value> lo_values;
  bool lo_inclusive = true;
  std::vector<Value> hi_values;
  bool hi_inclusive = true;
  /// Predicate re-checked on fetched rows (non-sargable leftovers).
  ExprPtr residual;

  std::string Describe() const override;

 private:
  std::string table_name_;
  std::string alias_;
  std::string index_name_;
};

class PhysFilter : public PhysicalNode {
 public:
  PhysFilter(PhysicalPtr child, ExprPtr predicate)
      : PhysicalNode(PhysicalNodeKind::kFilter, child->schema()),
        predicate_(std::move(predicate)) {
    AddChild(std::move(child));
  }

  const Expression* predicate() const { return predicate_.get(); }
  std::string Describe() const override;

 private:
  ExprPtr predicate_;

 public:
  const ExprPtr& predicate_ptr() const { return predicate_; }
};

class PhysProject : public PhysicalNode {
 public:
  PhysProject(PhysicalPtr child, std::vector<ExprPtr> exprs, Schema out_schema)
      : PhysicalNode(PhysicalNodeKind::kProject, std::move(out_schema)),
        exprs_(std::move(exprs)) {
    AddChild(std::move(child));
  }

  const std::vector<ExprPtr>& exprs() const { return exprs_; }
  std::string Describe() const override;

 private:
  std::vector<ExprPtr> exprs_;
};

/// Tuple-at-a-time nested loop join; restarts the inner child per outer row.
class PhysNestedLoopJoin : public PhysicalNode {
 public:
  PhysNestedLoopJoin(PhysicalPtr outer, PhysicalPtr inner, ExprPtr predicate)
      : PhysicalNode(PhysicalNodeKind::kNestedLoopJoin,
                     Schema::Concat(outer->schema(), inner->schema())),
        predicate_(std::move(predicate)) {
    AddChild(std::move(outer));
    AddChild(std::move(inner));
  }

  const Expression* predicate() const { return predicate_.get(); }
  std::string Describe() const override;

 private:
  ExprPtr predicate_;
};

/// Block nested loop: buffers a block of outer rows sized to the buffer pool,
/// scanning the inner once per block.
class PhysBlockNestedLoopJoin : public PhysicalNode {
 public:
  PhysBlockNestedLoopJoin(PhysicalPtr outer, PhysicalPtr inner, ExprPtr predicate,
                          size_t block_pages)
      : PhysicalNode(PhysicalNodeKind::kBlockNestedLoopJoin,
                     Schema::Concat(outer->schema(), inner->schema())),
        predicate_(std::move(predicate)),
        block_pages_(block_pages) {
    AddChild(std::move(outer));
    AddChild(std::move(inner));
  }

  const Expression* predicate() const { return predicate_.get(); }
  size_t block_pages() const { return block_pages_; }
  std::string Describe() const override;

 private:
  ExprPtr predicate_;
  size_t block_pages_;
};

/// Index nested loop: probes an index on the inner base table per outer row.
class PhysIndexNestedLoopJoin : public PhysicalNode {
 public:
  PhysIndexNestedLoopJoin(PhysicalPtr outer, std::string inner_table, std::string inner_alias,
                          std::string index_name, Schema inner_schema,
                          std::vector<ExprPtr> outer_key_exprs, ExprPtr residual)
      : PhysicalNode(PhysicalNodeKind::kIndexNestedLoopJoin,
                     Schema::Concat(outer->schema(), inner_schema)),
        inner_table_(std::move(inner_table)),
        inner_alias_(std::move(inner_alias)),
        index_name_(std::move(index_name)),
        inner_schema_(std::move(inner_schema)),
        outer_key_exprs_(std::move(outer_key_exprs)),
        residual_(std::move(residual)) {
    AddChild(std::move(outer));
  }

  const std::string& inner_table() const { return inner_table_; }
  const std::string& inner_alias() const { return inner_alias_; }
  const std::string& index_name() const { return index_name_; }
  const Schema& inner_schema() const { return inner_schema_; }
  const std::vector<ExprPtr>& outer_key_exprs() const { return outer_key_exprs_; }
  const Expression* residual() const { return residual_.get(); }

  std::string Describe() const override;

 private:
  std::string inner_table_;
  std::string inner_alias_;
  std::string index_name_;
  Schema inner_schema_;
  std::vector<ExprPtr> outer_key_exprs_;  // bound against the outer schema
  ExprPtr residual_;                      // bound against the concat schema
};

/// Merge join over sorted inputs (the optimizer inserts Sorts as needed).
class PhysSortMergeJoin : public PhysicalNode {
 public:
  PhysSortMergeJoin(PhysicalPtr left, PhysicalPtr right, std::vector<size_t> left_keys,
                    std::vector<size_t> right_keys, ExprPtr residual)
      : PhysicalNode(PhysicalNodeKind::kSortMergeJoin,
                     Schema::Concat(left->schema(), right->schema())),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)) {
    AddChild(std::move(left));
    AddChild(std::move(right));
  }

  const std::vector<size_t>& left_keys() const { return left_keys_; }
  const std::vector<size_t>& right_keys() const { return right_keys_; }
  const Expression* residual() const { return residual_.get(); }
  std::string Describe() const override;

 private:
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  ExprPtr residual_;
};

/// Hash join; the left child is the build side.
class PhysHashJoin : public PhysicalNode {
 public:
  PhysHashJoin(PhysicalPtr build, PhysicalPtr probe, std::vector<size_t> build_keys,
               std::vector<size_t> probe_keys, ExprPtr residual, bool output_probe_first)
      : PhysicalNode(PhysicalNodeKind::kHashJoin,
                     output_probe_first ? Schema::Concat(probe->schema(), build->schema())
                                        : Schema::Concat(build->schema(), probe->schema())),
        build_keys_(std::move(build_keys)),
        probe_keys_(std::move(probe_keys)),
        residual_(std::move(residual)),
        output_probe_first_(output_probe_first) {
    AddChild(std::move(build));
    AddChild(std::move(probe));
  }

  const std::vector<size_t>& build_keys() const { return build_keys_; }
  const std::vector<size_t>& probe_keys() const { return probe_keys_; }
  const Expression* residual() const { return residual_.get(); }
  /// If true, output rows are (probe ++ build) so the schema matches the
  /// logical left-right order even when the optimizer swapped build sides.
  bool output_probe_first() const { return output_probe_first_; }
  std::string Describe() const override;

 private:
  std::vector<size_t> build_keys_;
  std::vector<size_t> probe_keys_;
  ExprPtr residual_;
  bool output_probe_first_;
};

/// External merge sort on key expressions.
class PhysSort : public PhysicalNode {
 public:
  struct Key {
    ExprPtr expr;
    bool desc = false;
  };

  PhysSort(PhysicalPtr child, std::vector<Key> keys)
      : PhysicalNode(PhysicalNodeKind::kSort, child->schema()), keys_(std::move(keys)) {
    AddChild(std::move(child));
  }

  const std::vector<Key>& keys() const { return keys_; }
  std::string Describe() const override;

 private:
  std::vector<Key> keys_;
};

/// Hash aggregation.
class PhysAggregate : public PhysicalNode {
 public:
  struct Agg {
    AggFunc func;
    ExprPtr arg;  // null for COUNT(*)
  };

  PhysAggregate(PhysicalPtr child, std::vector<ExprPtr> group_by, std::vector<Agg> aggs,
                Schema out_schema)
      : PhysicalNode(PhysicalNodeKind::kAggregate, std::move(out_schema)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {
    AddChild(std::move(child));
  }

  const std::vector<ExprPtr>& group_by() const { return group_by_; }
  const std::vector<Agg>& aggs() const { return aggs_; }
  std::string Describe() const override;

 private:
  std::vector<ExprPtr> group_by_;
  std::vector<Agg> aggs_;
};

class PhysLimit : public PhysicalNode {
 public:
  PhysLimit(PhysicalPtr child, int64_t limit)
      : PhysicalNode(PhysicalNodeKind::kLimit, child->schema()), limit_(limit) {
    AddChild(std::move(child));
  }

  int64_t limit() const { return limit_; }
  std::string Describe() const override;

 private:
  int64_t limit_;
};

class PhysValues : public PhysicalNode {
 public:
  PhysValues(std::vector<Tuple> rows, Schema schema)
      : PhysicalNode(PhysicalNodeKind::kValues, std::move(schema)), rows_(std::move(rows)) {}

  const std::vector<Tuple>& rows() const { return rows_; }
  std::string Describe() const override;

 private:
  std::vector<Tuple> rows_;
};

/// Leaf scan over an engine-introspection snapshot (relopt_metrics() etc.);
/// rows are materialized from the live registries at executor Init.
class PhysTableFunctionScan : public PhysicalNode {
 public:
  PhysTableFunctionScan(std::string function_name, std::string alias, Schema schema)
      : PhysicalNode(PhysicalNodeKind::kTableFunctionScan, std::move(schema)),
        function_name_(std::move(function_name)),
        alias_(std::move(alias)) {}

  const std::string& function_name() const { return function_name_; }
  const std::string& alias() const { return alias_; }
  std::string Describe() const override;

 private:
  std::string function_name_;
  std::string alias_;
};

}  // namespace relopt
