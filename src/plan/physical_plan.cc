#include "plan/physical_plan.h"

#include "util/str_util.h"

namespace relopt {

const char* PhysicalNodeKindToString(PhysicalNodeKind kind) {
  switch (kind) {
    case PhysicalNodeKind::kSeqScan:
      return "SeqScan";
    case PhysicalNodeKind::kIndexScan:
      return "IndexScan";
    case PhysicalNodeKind::kFilter:
      return "Filter";
    case PhysicalNodeKind::kProject:
      return "Project";
    case PhysicalNodeKind::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PhysicalNodeKind::kBlockNestedLoopJoin:
      return "BlockNestedLoopJoin";
    case PhysicalNodeKind::kIndexNestedLoopJoin:
      return "IndexNestedLoopJoin";
    case PhysicalNodeKind::kSortMergeJoin:
      return "SortMergeJoin";
    case PhysicalNodeKind::kHashJoin:
      return "HashJoin";
    case PhysicalNodeKind::kSort:
      return "Sort";
    case PhysicalNodeKind::kAggregate:
      return "Aggregate";
    case PhysicalNodeKind::kLimit:
      return "Limit";
    case PhysicalNodeKind::kValues:
      return "Values";
    case PhysicalNodeKind::kTableFunctionScan:
      return "TableFunctionScan";
  }
  return "?";
}

namespace {
void Render(const PhysicalNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.Describe();
  *out += StringPrintf("  (rows=%.0f io=%.1f cpu=%.0f)", node.est_rows(),
                       node.est_cost().page_ios, node.est_cost().cpu_tuples);
  *out += "\n";
  for (const PhysicalPtr& child : node.children()) {
    Render(*child, depth + 1, out);
  }
}
}  // namespace

std::string PhysicalNode::ToString() const {
  std::string out;
  Render(*this, 0, &out);
  return out;
}

std::string PhysSeqScan::Describe() const {
  std::string out = "SeqScan " + table_name_;
  if (alias_ != table_name_) out += " AS " + alias_;
  return out;
}

std::string PhysIndexScan::Describe() const {
  std::string out = "IndexScan " + table_name_;
  if (alias_ != table_name_) out += " AS " + alias_;
  out += " using " + index_name_;
  auto render_bound = [](const std::vector<Value>& vals) {
    std::string s = "(";
    for (size_t i = 0; i < vals.size(); ++i) {
      if (i > 0) s += ", ";
      s += vals[i].ToString();
    }
    return s + ")";
  };
  if (!lo_values.empty()) {
    out += std::string(" lo") + (lo_inclusive ? ">=" : ">") + render_bound(lo_values);
  }
  if (!hi_values.empty()) {
    out += std::string(" hi") + (hi_inclusive ? "<=" : "<") + render_bound(hi_values);
  }
  if (residual) out += " residual " + residual->ToString();
  return out;
}

std::string PhysFilter::Describe() const {
  return "Filter " + (predicate_ ? predicate_->ToString() : "true");
}

std::string PhysProject::Describe() const {
  std::string out = "Project ";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  return out;
}

std::string PhysNestedLoopJoin::Describe() const {
  return "NestedLoopJoin " + (predicate_ ? predicate_->ToString() : "true");
}

std::string PhysBlockNestedLoopJoin::Describe() const {
  return "BlockNestedLoopJoin(block=" + std::to_string(block_pages_) + " pages) " +
         (predicate_ ? predicate_->ToString() : "true");
}

std::string PhysIndexNestedLoopJoin::Describe() const {
  std::string out = "IndexNestedLoopJoin inner=" + inner_table_;
  if (inner_alias_ != inner_table_) out += " AS " + inner_alias_;
  out += " using " + index_name_ + " keys(";
  for (size_t i = 0; i < outer_key_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += outer_key_exprs_[i]->ToString();
  }
  out += ")";
  if (residual_) out += " residual " + residual_->ToString();
  return out;
}

namespace {
std::string RenderKeyIndices(const std::vector<size_t>& keys) {
  std::string out = "(";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += "#" + std::to_string(keys[i]);
  }
  return out + ")";
}
}  // namespace

std::string PhysSortMergeJoin::Describe() const {
  std::string out =
      "SortMergeJoin left" + RenderKeyIndices(left_keys_) + " right" + RenderKeyIndices(right_keys_);
  if (residual_) out += " residual " + residual_->ToString();
  return out;
}

std::string PhysHashJoin::Describe() const {
  std::string out =
      "HashJoin build" + RenderKeyIndices(build_keys_) + " probe" + RenderKeyIndices(probe_keys_);
  if (output_probe_first_) out += " (sides swapped)";
  if (residual_) out += " residual " + residual_->ToString();
  return out;
}

std::string PhysSort::Describe() const {
  std::string out = "Sort ";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].expr->ToString();
    if (keys_[i].desc) out += " DESC";
  }
  return out;
}

std::string PhysAggregate::Describe() const {
  std::string out = "Aggregate";
  if (!group_by_.empty()) {
    out += " group by ";
    for (size_t i = 0; i < group_by_.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by_[i]->ToString();
    }
  }
  out += " [";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    if (aggs_[i].func == AggFunc::kCountStar) {
      out += "count(*)";
    } else {
      out += std::string(AggFuncToString(aggs_[i].func)) + "(" +
             (aggs_[i].arg ? aggs_[i].arg->ToString() : "*") + ")";
    }
  }
  out += "]";
  return out;
}

std::string PhysLimit::Describe() const { return "Limit " + std::to_string(limit_); }

std::string PhysValues::Describe() const {
  return "Values (" + std::to_string(rows_.size()) + " rows)";
}

std::string PhysTableFunctionScan::Describe() const {
  std::string out = "TableFunctionScan " + function_name_ + "()";
  if (alias_ != function_name_) out += " AS " + alias_;
  return out;
}

}  // namespace relopt
