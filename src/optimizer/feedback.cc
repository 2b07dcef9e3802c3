#include "optimizer/feedback.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "exec/plan_profile.h"
#include "plan/physical_plan.h"
#include "util/metrics.h"
#include "util/str_util.h"

namespace relopt {

namespace {

/// Lower-cases everything outside single-quoted string literals, so
/// identifier case never splits a signature but literal values are kept
/// verbatim (same discipline as the plan-cache key normalization).
std::string LowerOutsideLiterals(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  bool in_literal = false;
  for (char c : in) {
    if (c == '\'') {
      in_literal = !in_literal;
      out += c;
    } else {
      out += in_literal ? c : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

}  // namespace

std::string FeedbackStore::RenderConjunct(const Expression& expr, bool strip_qualifiers) {
  ExprPtr clone = expr.Clone();
  if (strip_qualifiers) {
    std::vector<ColumnRefExpr*> refs;
    clone->CollectColumnRefsMutable(&refs);
    for (ColumnRefExpr* ref : refs) ref->set_table("");
  }
  return LowerOutsideLiterals(clone->ToString());
}

std::string FeedbackStore::ScanSignature(const std::string& table,
                                         std::vector<std::string> conjunct_sigs) {
  std::sort(conjunct_sigs.begin(), conjunct_sigs.end());
  std::string out = "s|" + ToLower(table) + "|";
  for (size_t i = 0; i < conjunct_sigs.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conjunct_sigs[i];
  }
  return out;
}

std::string FeedbackStore::JoinSignature(std::vector<std::string> rel_tags,
                                         std::vector<std::string> edge_sigs,
                                         std::vector<std::string> other_sigs) {
  std::sort(rel_tags.begin(), rel_tags.end());
  std::sort(edge_sigs.begin(), edge_sigs.end());
  std::sort(other_sigs.begin(), other_sigs.end());
  auto join = [](const std::vector<std::string>& parts, const char* sep) {
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += sep;
      out += parts[i];
    }
    return out;
  };
  return "j|" + join(rel_tags, ",") + "|" + join(edge_sigs, "&") + "|" + join(other_sigs, "&");
}

void FeedbackStore::RecordLocked(const std::string& signature,
                                 const std::vector<std::string>& tables, double value) {
  Entry& e = entries_[signature];
  const bool fresh = e.updates == 0;
  const double old = e.value;
  if (fresh) {
    for (const std::string& t : tables) e.tables.push_back(ToLower(t));
  }
  e.value = value;
  ++e.updates;
  // Bump the version only on a material change: a converged workload must
  // converge back to plan-cache hits, not re-optimize forever.
  const double denom = std::max(std::abs(old), 1.0);
  if (fresh || std::abs(value - old) / denom > kVersionBumpThreshold) {
    ++version_;
  }
  EngineMetrics::Get().optimizer_feedback_records->Add(1);
}

void FeedbackStore::RecordScanRows(const std::string& signature,
                                   const std::vector<std::string>& tables, double actual_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordLocked(signature, tables, std::max(actual_rows, 0.0));
}

void FeedbackStore::RecordJoinSelectivity(const std::string& signature,
                                          const std::vector<std::string>& tables,
                                          double selectivity) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordLocked(signature, tables, std::clamp(selectivity, 0.0, 1.0));
}

std::optional<double> FeedbackStore::LookupScanRows(const std::string& signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(signature);
  if (it == entries_.end()) return std::nullopt;
  ++it->second.hits;
  EngineMetrics::Get().optimizer_feedback_overrides->Add(1);
  return it->second.value;
}

std::optional<double> FeedbackStore::LookupJoinSelectivity(const std::string& signature) const {
  return LookupScanRows(signature);  // same map, same semantics
}

void FeedbackStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty()) return;
  EngineMetrics::Get().optimizer_feedback_invalidations->Add(entries_.size());
  entries_.clear();
  ++version_;
}

size_t FeedbackStore::InvalidateTable(const std::string& table) {
  const std::string needle = ToLower(table);
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const std::vector<std::string>& tables = it->second.tables;
    if (std::find(tables.begin(), tables.end(), needle) != tables.end()) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) {
    EngineMetrics::Get().optimizer_feedback_invalidations->Add(dropped);
    ++version_;
  }
  return dropped;
}

uint64_t FeedbackStore::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

size_t FeedbackStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<FeedbackStore::EntryInfo> FeedbackStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EntryInfo> out;
  out.reserve(entries_.size());
  for (const auto& [sig, e] : entries_) {
    EntryInfo info;
    info.kind = sig.rfind("s|", 0) == 0 ? "scan" : "join";
    for (size_t i = 0; i < e.tables.size(); ++i) {
      if (i > 0) info.tables += ",";
      info.tables += e.tables[i];
    }
    info.signature = sig;
    info.value = e.value;
    info.updates = e.updates;
    info.hits = e.hits;
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const EntryInfo& a, const EntryInfo& b) { return a.signature < b.signature; });
  return out;
}

namespace {

bool ContainsLimit(const PhysicalNode& node) {
  if (node.kind() == PhysicalNodeKind::kLimit) return true;
  for (const PhysicalPtr& child : node.children()) {
    if (ContainsLimit(*child)) return true;
  }
  return false;
}

/// Base tables a feedback key mentions: scan keys name one table, join keys
/// carry alias:table tags.
std::vector<std::string> TablesOfKey(const std::string& key) {
  std::vector<std::string> tables;
  size_t first = key.find('|');
  if (first == std::string::npos) return tables;
  size_t second = key.find('|', first + 1);
  std::string field = key.substr(first + 1, second == std::string::npos
                                                ? std::string::npos
                                                : second - first - 1);
  if (key.rfind("s|", 0) == 0) {
    tables.push_back(field);
    return tables;
  }
  for (const std::string& tag : Split(field, ',')) {
    size_t colon = tag.find(':');
    std::string table = colon == std::string::npos ? tag : tag.substr(colon + 1);
    if (std::find(tables.begin(), tables.end(), table) == tables.end()) {
      tables.push_back(std::move(table));
    }
  }
  return tables;
}

/// Rows an operator produced per loop; 0 if it never started. A rescanned
/// inner starts once per outer row and counts every pass, while the workers
/// of a parallel fragment each start once and share one pass.
double RowsPerLoop(const OperatorProfile& p) {
  const double workers = static_cast<double>(std::max<uint64_t>(p.executors, 1));
  return p.stats.init_calls == 0 ? 0 : p.stats.rows_produced * workers / p.stats.init_calls;
}

void HarvestNode(const PhysicalNode& plan, const OperatorProfile& profile,
                 FeedbackStore* store) {
  // An operator that never started measured nothing, and neither did the
  // subtree below it.
  if (profile.stats.init_calls == 0) return;
  const std::string& key = plan.feedback_key();
  if (!key.empty()) {
    const double actual = RowsPerLoop(profile);
    if (key.rfind("s|", 0) == 0) {
      store->RecordScanRows(key, TablesOfKey(key), actual);
    } else if (plan.children().size() == 2 && profile.children.size() == 2) {
      // Observed join selectivity: output over the input cross product. Only
      // meaningful when both inputs actually produced rows.
      const double l = RowsPerLoop(profile.children[0]);
      const double r = RowsPerLoop(profile.children[1]);
      if (l > 0 && r > 0) {
        store->RecordJoinSelectivity(key, TablesOfKey(key), actual / (l * r));
      }
    }
  }
  for (size_t i = 0; i < plan.children().size() && i < profile.children.size(); ++i) {
    HarvestNode(*plan.children()[i], profile.children[i], store);
  }
}

}  // namespace

void HarvestFeedback(const PhysicalNode& plan, const PlanProfile& profile,
                     FeedbackStore* store) {
  if (store == nullptr || !profile.valid) return;
  // A LIMIT stops consuming mid-stream: every operator below it reports the
  // rows produced so far, not the relation's true cardinality.
  if (ContainsLimit(plan)) return;
  HarvestNode(plan, profile.root, store);
}

}  // namespace relopt
