#include "engine/plan_cache.h"

#include <cctype>

#include "util/metrics.h"
#include "util/str_util.h"

namespace relopt {

namespace {

/// Literal-preserving SQL normalization: collapses whitespace runs to one
/// space and lower-cases text OUTSIDE string literals, so formatting
/// variants of the same statement share a cache entry but distinct literal
/// values never do. (Contrast query_history's NormalizeSql, which replaces
/// literals with '?' for shape-grouping — unusable as a cache key.)
std::string NormalizeKeepingLiterals(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  size_t i = 0;
  while (i < sql.size()) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!out.empty() && out.back() != ' ') out += ' ';
      ++i;
      continue;
    }
    if (c == '\'') {
      // Copy the string literal verbatim, '' escapes included.
      out += c;
      ++i;
      while (i < sql.size()) {
        out += sql[i];
        if (sql[i] == '\'') {
          if (i + 1 < sql.size() && sql[i + 1] == '\'') {
            out += sql[++i];
            ++i;
            continue;
          }
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    ++i;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

}  // namespace

std::string PlanCacheKey(const std::string& sql, const OptimizerOptions& options) {
  // Every option that can change which plan the optimizer picks goes into
  // the fingerprint; sessions with different knobs never share entries.
  const JoinEnumOptions& j = options.join;
  std::string fp = StringPrintf(
      "a%dio%dnlj%dbnlj%dinlj%dsmj%dh%dix%d|db%llu|sm%d|w%g|bp%zu|n%d",
      static_cast<int>(j.algorithm), j.use_interesting_orders ? 1 : 0, j.enable_nlj ? 1 : 0,
      j.enable_bnlj ? 1 : 0, j.enable_inlj ? 1 : 0, j.enable_smj ? 1 : 0,
      j.enable_hash ? 1 : 0, j.enable_index_scans ? 1 : 0,
      static_cast<unsigned long long>(j.dp_budget), static_cast<int>(options.stats_mode),
      options.cpu_weight, options.buffer_pages, options.naive ? 1 : 0);
  // The feedback-store version participates so cached plans optimized against
  // stale observations miss and re-optimize (0 when feedback is off).
  fp += StringPrintf("|fb%llu", options.feedback != nullptr
                                    ? static_cast<unsigned long long>(options.feedback->version())
                                    : 0ULL);
  return fp + "|" + NormalizeKeepingLiterals(sql);
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void PlanCache::EraseLocked(std::list<Entry>::iterator it) {
  index_.erase(it->key);
  lru_.erase(it);
}

std::shared_ptr<const PhysicalNode> PlanCache::Lookup(const std::string& key,
                                                      uint64_t catalog_version) {
  const EngineMetrics& em = EngineMetrics::Get();
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled()) {
    ++stats_.misses;
    em.optimizer_plan_cache_misses->Add(1);
    return nullptr;
  }
  auto it = index_.find(key);
  if (it != index_.end() && it->second->catalog_version != catalog_version) {
    // Optimized under an older catalog: a schema or statistics change made
    // this plan untrustworthy.
    EraseLocked(it->second);
    ++stats_.invalidations;
    em.optimizer_plan_cache_invalidations->Add(1);
    it = index_.end();
  }
  if (it == index_.end()) {
    ++stats_.misses;
    em.optimizer_plan_cache_misses->Add(1);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++it->second->hits;
  ++stats_.hits;
  em.optimizer_plan_cache_hits->Add(1);
  return it->second->plan;
}

void PlanCache::Insert(const std::string& key, uint64_t catalog_version,
                       std::shared_ptr<const PhysicalNode> plan) {
  if (plan == nullptr) return;
  const EngineMetrics& em = EngineMetrics::Get();
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled()) return;
  auto it = index_.find(key);
  if (it != index_.end()) EraseLocked(it->second);
  while (lru_.size() >= capacity_) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
    em.optimizer_plan_cache_evictions->Add(1);
  }
  lru_.push_front(Entry{key, catalog_version, 0, std::move(plan)});
  index_[key] = lru_.begin();
}

size_t PlanCache::InvalidateStale(uint64_t current_version) {
  const EngineMetrics& em = EngineMetrics::Get();
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->catalog_version != current_version) {
      auto victim = it++;
      EraseLocked(victim);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidations += dropped;
  em.optimizer_plan_cache_invalidations->Add(dropped);
  return dropped;
}

void PlanCache::Clear() {
  const EngineMetrics& em = EngineMetrics::Get();
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += lru_.size();
  em.optimizer_plan_cache_invalidations->Add(lru_.size());
  lru_.clear();
  index_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<PlanCache::EntryInfo> PlanCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EntryInfo> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) {
    EntryInfo info;
    info.key = e.key;
    info.catalog_version = e.catalog_version;
    info.hits = e.hits;
    info.est_cost = e.plan->est_cost().Total();
    info.est_rows = e.plan->est_rows();
    info.plan_root = e.plan->Describe();
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace relopt
