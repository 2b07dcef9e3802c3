#include "exec/plan_profile.h"

#include <algorithm>

#include "util/str_util.h"

namespace relopt {

double QError(double est_rows, double actual_rows) {
  double est = std::max(est_rows, 1.0);
  double act = std::max(actual_rows, 1.0);
  return std::max(est / act, act / est);
}

namespace {

OperatorProfile BuildNode(const PhysicalNode& node, const ExecContext& ctx) {
  OperatorProfile p;
  p.op = PhysicalNodeKindToString(node.kind());
  p.describe = node.Describe();
  p.est_rows = node.est_rows();
  p.est_cost = node.est_cost();
  // Under parallelism one plan node maps to several worker executors; merge
  // their stats so actual_rows/IO are totals across workers.
  if (const std::vector<const Executor*>* execs = ctx.FindExecutors(&node)) {
    for (const Executor* exec : *execs) p.stats.Merge(exec->stats());
    p.executors = execs->size();
  }
  for (const PhysicalPtr& child : node.children()) {
    p.children.push_back(BuildNode(*child, ctx));
  }
  return p;
}

void RenderText(const OperatorProfile& p, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += p.describe;
  *out += StringPrintf(
      "  (est_rows=%.0f actual_rows=%llu q_err=%.2f est_io=%.1f reads=%llu writes=%llu "
      "hits=%llu misses=%llu time=%.3fms loops=%llu batches=%llu fallback=%llu)",
      p.est_rows, static_cast<unsigned long long>(p.stats.rows_produced), p.q_error(),
      p.est_cost.page_ios, static_cast<unsigned long long>(p.stats.page_reads),
      static_cast<unsigned long long>(p.stats.page_writes),
      static_cast<unsigned long long>(p.stats.pool_hits),
      static_cast<unsigned long long>(p.stats.pool_misses),
      static_cast<double>(p.stats.wall_nanos) / 1e6,
      static_cast<unsigned long long>(p.stats.init_calls),
      static_cast<unsigned long long>(p.stats.batches_produced),
      static_cast<unsigned long long>(p.stats.fallback_rows));
  *out += "\n";
  for (const OperatorProfile& c : p.children) RenderText(c, depth + 1, out);
}

void RenderJson(const OperatorProfile& p, std::string* out) {
  *out += StringPrintf(
      "{\"op\":\"%s\",\"describe\":\"%s\",\"est_rows\":%.2f,\"est_io\":%.2f,"
      "\"est_cpu\":%.2f,\"actual_rows\":%llu,\"q_error\":%.4f,\"init_calls\":%llu,"
      "\"batches_produced\":%llu,\"fallback_rows\":%llu,\"wall_ms\":%.4f,"
      "\"page_reads\":%llu,\"page_writes\":%llu,"
      "\"pool_hits\":%llu,\"pool_misses\":%llu,\"children\":[",
      JsonEscape(p.op).c_str(), JsonEscape(p.describe).c_str(), p.est_rows, p.est_cost.page_ios,
      p.est_cost.cpu_tuples, static_cast<unsigned long long>(p.stats.rows_produced), p.q_error(),
      static_cast<unsigned long long>(p.stats.init_calls),
      static_cast<unsigned long long>(p.stats.batches_produced),
      static_cast<unsigned long long>(p.stats.fallback_rows),
      static_cast<double>(p.stats.wall_nanos) / 1e6,
      static_cast<unsigned long long>(p.stats.page_reads),
      static_cast<unsigned long long>(p.stats.page_writes),
      static_cast<unsigned long long>(p.stats.pool_hits),
      static_cast<unsigned long long>(p.stats.pool_misses));
  for (size_t i = 0; i < p.children.size(); ++i) {
    if (i > 0) *out += ",";
    RenderJson(p.children[i], out);
  }
  *out += "]}";
}

void RenderTraceEvents(const OperatorProfile& p, int depth, bool* first, std::string* out) {
  if (!*first) *out += ",\n";
  *first = false;
  // Complete ("X") events; ts/dur in microseconds as chrome://tracing expects.
  *out += StringPrintf(
      "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
      "\"args\":{\"rows\":%llu,\"page_reads\":%llu}}",
      JsonEscape(p.describe).c_str(), static_cast<double>(p.stats.first_start_nanos) / 1e3,
      static_cast<double>(p.stats.wall_nanos) / 1e3, depth,
      static_cast<unsigned long long>(p.stats.rows_produced),
      static_cast<unsigned long long>(p.stats.page_reads));
  for (const OperatorProfile& c : p.children) RenderTraceEvents(c, depth + 1, first, out);
}

}  // namespace

std::string PlanProfile::ToText() const {
  std::string out;
  RenderText(root, 0, &out);
  return out;
}

std::string PlanProfile::ToJson() const {
  std::string out;
  RenderJson(root, &out);
  return out;
}

std::string PlanProfile::ToChromeTrace() const {
  std::string out = "[\n";
  bool first = true;
  RenderTraceEvents(root, 0, &first, &out);
  out += "\n]\n";
  return out;
}

OperatorStats PlanProfile::Total() const {
  OperatorStats total;
  ForEachOperator(root, [&](const OperatorProfile& p) { total.Merge(p.stats); });
  return total;
}

size_t PlanProfile::NumOperators() const {
  size_t n = 0;
  ForEachOperator(root, [&](const OperatorProfile&) { ++n; });
  return n;
}

PlanProfile BuildPlanProfile(const PhysicalNode& plan, const ExecContext& ctx) {
  PlanProfile profile;
  profile.root = BuildNode(plan, ctx);
  profile.valid = true;
  return profile;
}

}  // namespace relopt
