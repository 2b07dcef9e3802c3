#include "optimizer/join_graph.h"

#include <algorithm>

#include "expr/fold.h"
#include "util/str_util.h"

namespace relopt {

int QueryGraph::RelIndex(const std::string& alias) const {
  for (size_t i = 0; i < relations.size(); ++i) {
    if (EqualsIgnoreCase(relations[i].alias, alias)) return static_cast<int>(i);
  }
  return -1;
}

Result<JoinSet> QueryGraph::RelationsOf(const Expression& expr) const {
  JoinSet set;
  std::vector<const ColumnRefExpr*> refs;
  expr.CollectColumnRefs(&refs);
  for (const ColumnRefExpr* ref : refs) {
    if (!ref->table().empty()) {
      int idx = RelIndex(ref->table());
      if (idx < 0) {
        return Status::BindError("unknown qualifier '" + ref->table() + "' in predicate");
      }
      set = set.With(idx);
      continue;
    }
    // Unqualified: find the unique relation with this column.
    int found = -1;
    for (size_t i = 0; i < relations.size(); ++i) {
      if (relations[i].schema.IndexOf(ref->name()).ok()) {
        if (found >= 0) {
          return Status::BindError("ambiguous column '" + ref->name() + "' in predicate");
        }
        found = static_cast<int>(i);
      }
    }
    if (found < 0) {
      return Status::BindError("column '" + ref->name() + "' not found in any relation");
    }
    set = set.With(found);
  }
  return set;
}

bool QueryGraph::Connected(JoinSet a, JoinSet b) const {
  for (const JoinEdge& e : edges) {
    if ((a.Contains(e.left_rel) && b.Contains(e.right_rel)) ||
        (a.Contains(e.right_rel) && b.Contains(e.left_rel))) {
      return true;
    }
  }
  return false;
}

bool QueryGraph::FullyConnected() const {
  if (relations.empty()) return true;
  JoinSet reached = JoinSet::Single(0);
  bool grew = true;
  while (grew) {
    grew = false;
    for (const JoinEdge& e : edges) {
      bool l = reached.Contains(e.left_rel);
      bool r = reached.Contains(e.right_rel);
      if (l != r) {
        reached = reached.With(l ? e.right_rel : e.left_rel);
        grew = true;
      }
    }
  }
  return reached.Count() == static_cast<int>(relations.size());
}

namespace {

/// Walks the join block, collecting scans and predicates.
Status Collect(LogicalPtr node, const Catalog* catalog, QueryGraph* graph,
               std::vector<ExprPtr>* predicates) {
  switch (node->kind()) {
    case LogicalNodeKind::kScan: {
      auto* scan = static_cast<LogicalScan*>(node.get());
      BaseRelation rel;
      rel.alias = scan->alias();
      RELOPT_ASSIGN_OR_RETURN(rel.table, catalog->GetTable(scan->table_name()));
      rel.schema = scan->schema();
      const bool stats = rel.table->has_stats();
      rel.rows = std::max<double>(1, stats ? static_cast<double>(rel.table->stats().num_rows)
                                           : static_cast<double>(rel.table->live_rows()));
      rel.pages = std::max<double>(1, stats ? static_cast<double>(rel.table->stats().num_pages)
                                            : static_cast<double>(rel.table->heap()->NumPages()));
      graph->relations.push_back(std::move(rel));
      return Status::OK();
    }
    case LogicalNodeKind::kFilter: {
      auto* filter = static_cast<LogicalFilter*>(node.get());
      std::vector<ExprPtr> conjuncts = SplitConjuncts(filter->TakePredicate());
      for (ExprPtr& c : conjuncts) predicates->push_back(std::move(c));
      return Collect(node->TakeChild(0), catalog, graph, predicates);
    }
    case LogicalNodeKind::kJoin: {
      auto* join = static_cast<LogicalJoin*>(node.get());
      ExprPtr pred = join->TakePredicate();
      if (pred) {
        std::vector<ExprPtr> conjuncts = SplitConjuncts(std::move(pred));
        for (ExprPtr& c : conjuncts) predicates->push_back(std::move(c));
      }
      LogicalPtr left = node->TakeChild(0);
      LogicalPtr right = node->TakeChild(1);
      RELOPT_RETURN_NOT_OK(Collect(std::move(left), catalog, graph, predicates));
      return Collect(std::move(right), catalog, graph, predicates);
    }
    default:
      return Status::Internal("unexpected node kind in join block: " +
                              std::string(node->Describe()));
  }
}

}  // namespace

Result<QueryGraph> BuildQueryGraph(LogicalPtr join_block, const Catalog* catalog) {
  QueryGraph graph;
  std::vector<ExprPtr> predicates;
  RELOPT_RETURN_NOT_OK(Collect(std::move(join_block), catalog, &graph, &predicates));
  // Relation sets are 64-bit masks: a 65th relation would alias relation 0.
  if (graph.relations.size() > 64) {
    return Status::InvalidArgument(
        StringPrintf("a join block holds at most 64 relations, not %zu", graph.relations.size()));
  }

  for (ExprPtr& pred : predicates) {
    ExprPtr expr = FoldConstants(std::move(pred));
    RELOPT_ASSIGN_OR_RETURN(JoinSet rels, graph.RelationsOf(*expr));
    if (rels.Count() <= 1) {
      if (rels.Count() == 1) {
        graph.relations[rels.Lowest()].conjuncts.push_back(std::move(expr));
      } else {
        // Constant predicate: keep it with the first relation (or drop a
        // constant TRUE).
        if (expr->kind() == ExprKind::kLiteral) {
          const Value& v = static_cast<LiteralExpr*>(expr.get())->value();
          if (!v.is_null() && v.type() == TypeId::kBool && v.AsBool()) continue;
        }
        if (!graph.relations.empty()) {
          graph.relations[0].conjuncts.push_back(std::move(expr));
        }
      }
      continue;
    }
    if (rels.Count() == 2) {
      std::optional<EquiJoinPred> equi = MatchEquiJoin(*expr);
      if (equi.has_value()) {
        JoinEdge edge;
        edge.left_rel = graph.RelIndex(equi->left_table);
        edge.right_rel = graph.RelIndex(equi->right_table);
        edge.left_column = equi->left_column;
        edge.right_column = equi->right_column;
        if (edge.left_rel >= 0 && edge.right_rel >= 0) {
          graph.edges.push_back(std::move(edge));
          continue;
        }
      }
    }
    graph.other_conjuncts.push_back(std::move(expr));
  }
  return graph;
}

}  // namespace relopt
