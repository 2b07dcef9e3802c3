// Query graph extraction: base relations, attached predicates, join edges.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "expr/conjuncts.h"
#include "plan/logical_plan.h"
#include "util/bitset.h"
#include "util/result.h"

namespace relopt {

/// One base relation of a join block.
struct BaseRelation {
  std::string alias;       ///< FROM alias (qualifier of its columns)
  TableInfo* table;
  Schema schema;           ///< alias-qualified table schema
  /// Base rows and pages (ANALYZE stats, else live rows and heap pages),
  /// each at least 1.
  double rows = 1;
  double pages = 1;
  std::vector<ExprPtr> conjuncts;  ///< single-table predicates on this relation
};

/// An equi-join edge `rel[left].left_column = rel[right].right_column`.
struct JoinEdge {
  int left_rel;
  std::string left_column;
  int right_rel;
  std::string right_column;
};

/// \brief The optimizer's view of a SELECT's join block: relations,
/// per-relation filters, equi-join edges, and everything else.
struct QueryGraph {
  std::vector<BaseRelation> relations;
  std::vector<JoinEdge> edges;
  /// Conjuncts referencing 2+ relations that are not simple equi-joins
  /// (non-equi joins, 3-table predicates, OR-of-joins, ...). Applied at the
  /// first join where all referenced relations are available.
  std::vector<ExprPtr> other_conjuncts;

  /// Index of a relation by alias; -1 if absent.
  int RelIndex(const std::string& alias) const;

  /// Set of relations referenced by `expr` (by alias); empty-qualifier refs
  /// map to the unique relation holding that column, or return an error.
  Result<JoinSet> RelationsOf(const Expression& expr) const;

  /// True if some edge connects `a` to `b`.
  bool Connected(JoinSet a, JoinSet b) const;

  /// True if the whole graph is connected (no cross product required).
  bool FullyConnected() const;
};

/// \brief Extracts a QueryGraph from a binder-produced join block: a subtree
/// of Filter / Join(inner, predicate folded into WHERE) / Scan nodes.
///
/// All predicates are split into conjuncts and classified: single-relation
/// conjuncts attach to their relation; two-relation equality of bare columns
/// becomes a JoinEdge; everything else lands in `other_conjuncts`.
Result<QueryGraph> BuildQueryGraph(LogicalPtr join_block, const Catalog* catalog);

}  // namespace relopt
