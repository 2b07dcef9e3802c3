#include "expr/binder.h"

#include <set>

#include "engine/table_functions.h"
#include "expr/fold.h"
#include "util/str_util.h"

namespace relopt {

namespace {

/// The text a subtree is matched to GROUP BY expressions by: `e` bound
/// against the aggregate's input and folded, as the GROUP BY expressions
/// are, so `g + (1 + 1)` matches `GROUP BY g + 2`. A subtree that does not
/// bind there keeps its text as written.
std::string GroupingText(const Expression& e, const Schema& input) {
  ExprPtr bound = e.Clone();
  if (!bound->Bind(input).ok()) return e.ToString();
  return FoldConstants(std::move(bound))->ToString();
}

/// Replaces, in place, the subtrees of `*slot` that match a group-by
/// expression or a lifted aggregate call with column references into the
/// Aggregate node's output schema, and stops at other aggregate calls.
/// Matching is structural-by-rendering (ToString), the classic simple
/// approach for a rewriter without expression interning: group-by
/// expressions by GroupingText, aggregate calls as written.
void RewriteOverAggregate(ExprPtr* slot, const LogicalNode& agg,
                          const std::vector<std::string>& group_renderings, size_t num_group_cols,
                          const std::vector<std::string>& agg_renderings) {
  auto replace = [&](size_t agg_col) {
    const Column& col = agg.schema().ColumnAt(agg_col);
    *slot = MakeColumnRef(col.table, col.name);
  };
  if (!group_renderings.empty()) {
    const std::string text = GroupingText(**slot, agg.child(0)->schema());
    for (size_t i = 0; i < group_renderings.size(); ++i) {
      if (text == group_renderings[i]) return replace(i);
    }
  }
  const std::string rendering = (*slot)->ToString();
  for (size_t i = 0; i < agg_renderings.size(); ++i) {
    if (rendering == agg_renderings[i]) return replace(num_group_cols + i);
  }
  if ((*slot)->kind() == ExprKind::kAggregateCall) return;
  std::vector<ExprPtr*> children;
  (*slot)->ChildSlots(&children);
  for (ExprPtr* child : children) {
    RewriteOverAggregate(child, agg, group_renderings, num_group_cols, agg_renderings);
  }
}

/// Collects aggregate calls (deduplicated by rendering), in tree order.
void CollectAggCalls(Expression* expr, std::vector<const AggregateCallExpr*>* out,
                     std::set<std::string>* seen) {
  if (!expr) return;
  if (expr->kind() == ExprKind::kAggregateCall) {
    const auto* agg = static_cast<const AggregateCallExpr*>(expr);
    if (seen->insert(agg->ToString()).second) out->push_back(agg);
    return;  // no nested aggregates
  }
  std::vector<ExprPtr*> children;
  expr->ChildSlots(&children);
  for (ExprPtr* child : children) CollectAggCalls(child->get(), out, seen);
}

}  // namespace

Result<LogicalPtr> Binder::BindSelect(SelectStmt* stmt) {
  // ---- FROM: scans joined left-deep by cross joins (optimizer reorders). --
  LogicalPtr plan;
  std::set<std::string> seen_aliases;
  for (const TableRef& ref : stmt->from) {
    if (ref.is_function) {
      // Introspection table functions are snapshot-sized leaves; they cannot
      // participate in joins (the enumerator only handles base tables).
      if (stmt->from.size() > 1) {
        return Status::BindError("table function '" + ref.table_name +
                                 "()' must be the only FROM item");
      }
      if (!IsTableFunction(ref.table_name)) {
        return Status::BindError("unknown table function '" + ref.table_name + "()'");
      }
      std::string alias = ref.EffectiveName();
      RELOPT_ASSIGN_OR_RETURN(Schema schema, TableFunctionSchema(ref.table_name, alias));
      plan = std::make_unique<LogicalTableFunction>(ToLower(ref.table_name), alias,
                                                    std::move(schema));
      continue;
    }
    RELOPT_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(ref.table_name));
    std::string alias = ref.EffectiveName();
    std::string alias_lower = ToLower(alias);
    if (!seen_aliases.insert(alias_lower).second) {
      return Status::BindError("duplicate table name/alias '" + alias + "' in FROM");
    }
    Schema qualified = table->schema().WithQualifier(alias);
    if (ref.with_rid) qualified.AddColumn(Column("#rid", TypeId::kInt64, alias));
    auto scan = std::make_unique<LogicalScan>(table->name(), alias, std::move(qualified));
    if (!plan) {
      plan = std::move(scan);
    } else {
      plan = std::make_unique<LogicalJoin>(std::move(plan), std::move(scan), nullptr);
    }
  }
  if (!plan) {
    // FROM-less SELECT: one empty row so constant expressions produce output.
    plan = std::make_unique<LogicalValues>(std::vector<Tuple>{Tuple()}, Schema());
  }

  // ---- WHERE --------------------------------------------------------------
  if (stmt->where) {
    ExprPtr pred = std::move(stmt->where);
    if (pred->ContainsAggregate()) {
      return Status::BindError("aggregate calls are not allowed in WHERE");
    }
    RELOPT_RETURN_NOT_OK(pred->Bind(plan->schema()));
    if (pred->result_type() != TypeId::kBool) {
      return Status::BindError("WHERE predicate is not boolean");
    }
    plan = std::make_unique<LogicalFilter>(std::move(plan), FoldConstants(std::move(pred)));
  }

  // ---- Aggregate ----------------------------------------------------------
  bool has_agg = !stmt->group_by.empty();
  for (const SelectItem& item : stmt->items) {
    if (item.expr && item.expr->ContainsAggregate()) has_agg = true;
  }
  if (stmt->having) has_agg = true;
  for (const OrderByItem& item : stmt->order_by) {
    if (item.expr->ContainsAggregate()) has_agg = true;
  }

  std::vector<std::string> group_renderings;
  std::vector<std::string> agg_renderings;
  size_t num_group_cols = 0;

  if (has_agg) {
    for (const SelectItem& item : stmt->items) {
      if (item.is_star) {
        return Status::BindError("SELECT * cannot be combined with aggregation");
      }
    }
    // Bind group-by expressions against the input.
    std::vector<ExprPtr> group_exprs;
    Schema agg_schema;
    for (ExprPtr& g : stmt->group_by) {
      ExprPtr expr = std::move(g);
      RELOPT_RETURN_NOT_OK(expr->Bind(plan->schema()));
      expr = FoldConstants(std::move(expr));
      // Select/having/order subtrees are matched against this rendering.
      group_renderings.push_back(expr->ToString());
      if (expr->kind() == ExprKind::kColumnRef) {
        const auto* ref = static_cast<const ColumnRefExpr*>(expr.get());
        agg_schema.AddColumn(Column(ref->name(), expr->result_type(), ref->table()));
      } else {
        agg_schema.AddColumn(Column(group_renderings.back(), expr->result_type(), ""));
      }
      group_exprs.push_back(std::move(expr));
    }
    num_group_cols = group_exprs.size();

    // Collect aggregate calls from every consumer clause.
    std::vector<const AggregateCallExpr*> calls;
    std::set<std::string> seen;
    for (const SelectItem& item : stmt->items) CollectAggCalls(item.expr.get(), &calls, &seen);
    CollectAggCalls(stmt->having.get(), &calls, &seen);
    for (const OrderByItem& item : stmt->order_by) CollectAggCalls(item.expr.get(), &calls, &seen);

    std::vector<AggregateSpec> specs;
    for (const AggregateCallExpr* call : calls) {
      AggregateSpec spec;
      spec.func = call->func();
      spec.arg = call->arg() ? call->arg()->Clone() : nullptr;
      if (spec.arg) {
        RELOPT_RETURN_NOT_OK(spec.arg->Bind(plan->schema()));
        if ((spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg) &&
            !IsNumeric(spec.arg->result_type())) {
          return Status::BindError(std::string(AggFuncToString(spec.func)) +
                                   " needs a numeric argument");
        }
        spec.arg = FoldConstants(std::move(spec.arg));
      }
      spec.out_name = call->ToString();
      agg_renderings.push_back(spec.out_name);
      TypeId out_type;
      switch (spec.func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          out_type = TypeId::kInt64;
          break;
        case AggFunc::kAvg:
          out_type = TypeId::kDouble;
          break;
        default:
          out_type = spec.arg ? spec.arg->result_type() : TypeId::kInt64;
      }
      agg_schema.AddColumn(Column(spec.out_name, out_type, ""));
      specs.push_back(std::move(spec));
    }

    plan = std::make_unique<LogicalAggregate>(std::move(plan), std::move(group_exprs),
                                              std::move(specs), std::move(agg_schema));
  }

  auto rewrite_if_agg = [&](ExprPtr e) -> ExprPtr {
    if (!has_agg) return e;
    // `plan` may have a HAVING filter on top by the time ORDER BY is
    // rewritten; locate the aggregate node by walking down.
    const LogicalNode* node = plan.get();
    while (node->kind() != LogicalNodeKind::kAggregate) node = node->child(0);
    RewriteOverAggregate(&e, *node, group_renderings, num_group_cols, agg_renderings);
    return e;
  };

  // ---- HAVING ---------------------------------------------------------
  if (stmt->having) {
    if (!has_agg) return Status::BindError("HAVING without aggregation");
    ExprPtr pred = rewrite_if_agg(std::move(stmt->having));
    RELOPT_RETURN_NOT_OK(pred->Bind(plan->schema()));
    if (pred->result_type() != TypeId::kBool) {
      return Status::BindError("HAVING predicate is not boolean");
    }
    plan = std::make_unique<LogicalFilter>(std::move(plan), FoldConstants(std::move(pred)));
  }

  // ---- ORDER BY (below the projection; aliases substituted) -------------
  // With DISTINCT the sort must apply AFTER duplicate elimination, so it is
  // planned above the distinct aggregate further down.
  if (!stmt->order_by.empty() && !stmt->distinct) {
    std::vector<SortKey> keys;
    for (OrderByItem& item : stmt->order_by) {
      ExprPtr expr = std::move(item.expr);
      // Alias reference? Substitute the select item's expression.
      if (expr->kind() == ExprKind::kColumnRef) {
        const auto* ref = static_cast<const ColumnRefExpr*>(expr.get());
        if (ref->table().empty()) {
          for (const SelectItem& sel : stmt->items) {
            if (!sel.is_star && !sel.alias.empty() && EqualsIgnoreCase(sel.alias, ref->name())) {
              expr = sel.expr->Clone();
              break;
            }
          }
        }
      }
      expr = rewrite_if_agg(std::move(expr));
      RELOPT_RETURN_NOT_OK(expr->Bind(plan->schema()));
      keys.push_back(SortKey{FoldConstants(std::move(expr)), item.desc});
    }
    plan = std::make_unique<LogicalSort>(std::move(plan), std::move(keys));
  }

  // ---- Projection -------------------------------------------------------
  std::vector<ExprPtr> proj_exprs;
  Schema out_schema;
  for (SelectItem& item : stmt->items) {
    if (item.is_star) {
      for (size_t i = 0; i < plan->schema().NumColumns(); ++i) {
        const Column& col = plan->schema().ColumnAt(i);
        ExprPtr ref = MakeColumnRef(col.table, col.name);
        RELOPT_RETURN_NOT_OK(ref->Bind(plan->schema()));
        proj_exprs.push_back(std::move(ref));
        out_schema.AddColumn(col);
      }
      continue;
    }
    ExprPtr expr = rewrite_if_agg(std::move(item.expr));
    RELOPT_RETURN_NOT_OK(expr->Bind(plan->schema()));
    expr = FoldConstants(std::move(expr));
    std::string name;
    std::string table;
    if (!item.alias.empty()) {
      name = item.alias;
    } else if (expr->kind() == ExprKind::kColumnRef) {
      const auto* ref = static_cast<const ColumnRefExpr*>(expr.get());
      name = ref->name();
      table = ref->table();
    } else {
      name = expr->ToString();
    }
    out_schema.AddColumn(Column(name, expr->result_type(), table));
    proj_exprs.push_back(std::move(expr));
  }
  plan = std::make_unique<LogicalProject>(std::move(plan), std::move(proj_exprs),
                                          std::move(out_schema));

  // ---- DISTINCT: group on every output column (no aggregates) -----------
  if (stmt->distinct) {
    Schema distinct_schema = plan->schema();
    std::vector<ExprPtr> group_exprs;
    for (size_t i = 0; i < distinct_schema.NumColumns(); ++i) {
      const Column& col = distinct_schema.ColumnAt(i);
      ExprPtr ref = MakeColumnRef(col.table, col.name);
      RELOPT_RETURN_NOT_OK(ref->Bind(plan->schema()));
      group_exprs.push_back(std::move(ref));
    }
    plan = std::make_unique<LogicalAggregate>(std::move(plan), std::move(group_exprs),
                                              std::vector<AggregateSpec>{},
                                              std::move(distinct_schema));
    // ORDER BY over the distinct output (SQL requires its expressions to be
    // selected columns / aliases when DISTINCT is present).
    if (!stmt->order_by.empty()) {
      std::vector<SortKey> keys;
      for (OrderByItem& item : stmt->order_by) {
        ExprPtr expr = std::move(item.expr);
        Status bound = expr->Bind(plan->schema());
        if (!bound.ok()) {
          return Status::BindError("ORDER BY with DISTINCT must reference selected columns: " +
                                   bound.message());
        }
        keys.push_back(SortKey{FoldConstants(std::move(expr)), item.desc});
      }
      plan = std::make_unique<LogicalSort>(std::move(plan), std::move(keys));
    }
  }

  // ---- LIMIT --------------------------------------------------------------
  if (stmt->limit.has_value()) {
    if (*stmt->limit < 0) return Status::BindError("LIMIT must be non-negative");
    plan = std::make_unique<LogicalLimit>(std::move(plan), *stmt->limit);
  }
  return plan;
}

}  // namespace relopt
