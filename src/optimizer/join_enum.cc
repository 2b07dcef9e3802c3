#include "optimizer/join_enum.h"

#include <algorithm>
#include <cmath>

#include "expr/conjuncts.h"
#include "util/logging.h"
#include "util/str_util.h"

namespace relopt {

const char* JoinMethodToString(JoinMethod method) {
  switch (method) {
    case JoinMethod::kNestedLoop:
      return "nlj";
    case JoinMethod::kBlockNestedLoop:
      return "bnlj";
    case JoinMethod::kIndexNestedLoop:
      return "inlj";
    case JoinMethod::kSortMerge:
      return "smj";
    case JoinMethod::kHash:
      return "hash";
  }
  return "?";
}

const char* JoinEnumAlgorithmToString(JoinEnumAlgorithm algorithm) {
  switch (algorithm) {
    case JoinEnumAlgorithm::kDpBushy:
      return "dp-bushy";
    case JoinEnumAlgorithm::kDpLeftDeep:
      return "dp-leftdeep";
    case JoinEnumAlgorithm::kGreedy:
      return "greedy";
    case JoinEnumAlgorithm::kExhaustive:
      return "exhaustive";
    case JoinEnumAlgorithm::kRandom:
      return "random";
    case JoinEnumAlgorithm::kWorst:
      return "worst";
    case JoinEnumAlgorithm::kSimpliSquared:
      return "simpli2";
    case JoinEnumAlgorithm::kDpCcp:
      return "dpccp";
  }
  return "?";
}

JoinEnumerator::JoinEnumerator(const QueryGraph* graph, const SelectivityEstimator* estimator,
                               const CostModel* cost_model, JoinEnumOptions options)
    : graph_(graph),
      estimator_(estimator),
      cost_model_(cost_model),
      options_(options),
      rng_(options.random_seed) {}

// --- resolving the query graph ------------------------------------------------

int JoinEnumerator::InternColumn(int rel, const std::string& alias, const std::string& name) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& c = columns_[i];
    if (c.rel == rel && EqualsIgnoreCase(c.name, name) &&
        (rel >= 0 || EqualsIgnoreCase(c.alias, alias))) {
      return static_cast<int>(i);
    }
  }
  const double ndv = rel >= 0 ? estimator_->ColumnNdv(alias, name) : 0;
  columns_.push_back(Column{rel, alias, name, ndv});
  return static_cast<int>(columns_.size() - 1);
}

int JoinEnumerator::InternOrder(const Order& order) {
  auto it = std::find(orders_.begin(), orders_.end(), order);
  if (it != orders_.end()) return static_cast<int>(it - orders_.begin());
  orders_.push_back(order);
  return static_cast<int>(orders_.size() - 1);
}

bool JoinEnumerator::Satisfies(int have, const Order& want) const {
  const Order& h = orders_[have];
  return want.size() <= h.size() && std::equal(want.begin(), want.end(), h.begin());
}

int JoinEnumerator::TrimOrder(const Order& order) const {
  int best = 0;
  for (int id : interesting_) {
    const Order& want = orders_[id];
    if (want.size() > orders_[best].size() && want.size() <= order.size() &&
        std::equal(want.begin(), want.end(), order.begin())) {
      best = id;
    }
  }
  return best;
}

OrderSpec JoinEnumerator::ToOrderSpec(int order) const {
  OrderSpec out;
  for (const OrderKey& k : orders_[order]) {
    out.push_back(OrderColumn{columns_[k.col].alias, columns_[k.col].name, k.desc});
  }
  return out;
}

Status JoinEnumerator::ResolveGraph(const OrderSpec& required_order) {
  const int n = static_cast<int>(graph_->relations.size());
  columns_.clear();
  edges_.clear();
  conjuncts_.clear();
  rels_.assign(n, Relation{});
  access_paths_.clear();
  orders_.assign(1, Order{});
  interesting_.clear();
  auto alias = [&](int rel) -> const std::string& { return graph_->relations[rel].alias; };

  // Interesting orders: the required order plus single-column join-key
  // orders on both sides of every edge.
  Order required;
  for (const OrderColumn& oc : required_order) {
    const int rel = graph_->RelIndex(oc.alias);
    required.push_back(
        OrderKey{InternColumn(rel, rel >= 0 ? alias(rel) : oc.alias, oc.column), oc.desc});
  }
  required_order_ = InternOrder(required);
  if (options_.use_interesting_orders && !required.empty()) interesting_.push_back(required_order_);
  for (const JoinEdge& e : graph_->edges) {
    Edge edge{{e.left_rel, e.right_rel},
              {InternColumn(e.left_rel, alias(e.left_rel), e.left_column),
               InternColumn(e.right_rel, alias(e.right_rel), e.right_column)},
              estimator_->EstimateEquiJoin(alias(e.left_rel), e.left_column, alias(e.right_rel),
                                           e.right_column)};
    edges_.push_back(edge);
    rels_[e.left_rel].edge_nbrs |= uint64_t{1} << e.right_rel;
    rels_[e.right_rel].edge_nbrs |= uint64_t{1} << e.left_rel;
    if (!options_.use_interesting_orders) continue;
    for (int col : edge.col) {
      const int id = InternOrder(Order{OrderKey{col, false}});
      if (std::find(interesting_.begin(), interesting_.end(), id) == interesting_.end()) {
        interesting_.push_back(id);
      }
    }
  }
  trimmed_orders_ = orders_.size();
  satisfies_.assign(trimmed_orders_ * trimmed_orders_, 0);
  for (size_t have = 0; have < trimmed_orders_; ++have) {
    for (size_t want = 0; want < trimmed_orders_; ++want) {
      satisfies_[have * trimmed_orders_ + want] = Satisfies(static_cast<int>(have), orders_[want]);
    }
  }

  adjacency_.clear();
  for (const Relation& rel : rels_) adjacency_.push_back(rel.edge_nbrs);
  for (const ExprPtr& c : graph_->other_conjuncts) {
    Result<JoinSet> rels = graph_->RelationsOf(*c);
    const uint64_t bits = rels.ok() ? rels->bits() : 0;
    conjuncts_.push_back(Conjunct{bits, estimator_->EstimatePredicate(*c)});
    JoinSet(bits).ForEach([&](int i) { adjacency_[i] |= bits & ~(uint64_t{1} << i); });
  }

  const bool worst = options_.algorithm == JoinEnumAlgorithm::kWorst;
  for (int r = 0; r < n; ++r) {
    const BaseRelation& base = graph_->relations[r];
    Relation& rel = rels_[r];
    const TableInfo& table = *base.table;
    for (const IndexInfo* index : table.indexes()) {
      Order keys;
      for (size_t kc : index->key_columns) {
        const std::string& name = table.schema().ColumnAt(kc).name;
        keys.push_back(OrderKey{InternColumn(r, base.alias, name), false});
      }
      rel.index_keys.push_back(std::move(keys));
    }
    RELOPT_ASSIGN_OR_RETURN(
        std::vector<AccessPath> paths,
        EnumerateAccessPaths(*graph_, r, *estimator_, *cost_model_, options_.enable_index_scans,
                             worst ? nullptr : options_.trace));
    access_paths_.push_back(std::move(paths));
  }
  return Status::OK();
}

// --- candidates and the frontier -----------------------------------------------

int JoinEnumerator::Intern(const Candidate& cand) {
  arena_.push_back(cand);
  return static_cast<int>(arena_.size() - 1);
}

std::string JoinEnumerator::SetName(JoinSet set) const {
  std::string out;
  set.ForEach([&](int r) { out += (out.empty() ? "{" : ",") + graph_->relations[r].alias; });
  return out + "}";
}

std::string JoinEnumerator::CandidateName(const Candidate& cand) const {
  if (cand.is_scan) {
    const AccessPath& path = access_paths_[cand.rel][cand.path];
    const BaseRelation& rel = graph_->relations[cand.rel];
    return path.index == nullptr ? "SeqScan(" + rel.alias + ")"
                                 : "IndexScan(" + rel.alias + " via " + path.index->name + ")";
  }
  return std::string(JoinMethodToString(cand.method)) + "(" + SetName(arena_[cand.left].set) +
         " x " + SetName(arena_[cand.right].set) + ")";
}

void JoinEnumerator::TraceCandidate(const Candidate& cand, const char* action, const char* reason,
                                    const char* phase) const {
  if (options_.trace == nullptr || maximize_) return;
  PlanTraceEvent ev;
  ev.phase = phase != nullptr ? phase : (cand.is_scan ? "access_path" : "join");
  ev.target = SetName(cand.set);
  ev.candidate = CandidateName(cand);
  ev.rows = cand.rows;
  ev.cost = cand.cost;
  ev.total_cost = cost_model_->Total(cand.cost);
  ev.action = action;
  ev.reason = reason;
  options_.trace->Add(std::move(ev));
}

void JoinEnumerator::Offer(const Candidate& cand) {
  const double total = cost_model_->Total(cand.cost);
  if (maximize_) {
    // Worst-order search keeps one candidate per set: the costliest join,
    // but the cheapest access path (the metric isolates join-order quality).
    if (frontier_.empty()) {
      frontier_.push_back(cand);
    } else if (cand.is_scan ? total <= cost_model_->Total(frontier_[0].cost)
                            : total > cost_model_->Total(frontier_[0].cost)) {
      frontier_[0] = cand;
    }
    return;
  }
  // Dominance: costs no more and its order satisfies the other's. Of two
  // candidates that dominate each other (equal cost and order) the first
  // emitted wins.
  for (const Candidate& kept : frontier_) {
    if (cost_model_->Total(kept.cost) <= total && Dominates(kept.order, cand.order)) {
      TraceCandidate(cand, "pruned", "dominated by a cheaper candidate with compatible order");
      return;
    }
  }
  size_t live = 0;
  for (const Candidate& kept : frontier_) {
    if (total <= cost_model_->Total(kept.cost) && Dominates(cand.order, kept.order)) {
      TraceCandidate(kept, "pruned", "dominated by a cheaper candidate with compatible order");
    } else {
      frontier_[live++] = kept;
    }
  }
  frontier_.resize(live);
  frontier_.push_back(cand);
}

void JoinEnumerator::KeepFrontier(JoinSet set) {
  if (frontier_.empty()) return;
  std::stable_sort(frontier_.begin(), frontier_.end(), [&](const Candidate& a, const Candidate& b) {
    return cost_model_->Total(a.cost) < cost_model_->Total(b.cost);
  });
  Slot slot{static_cast<int>(arena_.size()), 0};
  for (const Candidate& c : frontier_) {
    if (!maximize_ && static_cast<size_t>(slot.count) >= options_.max_candidates_per_set) {
      TraceCandidate(c, "pruned", "exceeds max_candidates_per_set");
      continue;
    }
    TraceCandidate(c, "kept", "");
    Intern(c);
    ++slot.count;
  }
  frontier_.clear();
  dp_[set.bits()] = slot;
  stats_.dp_entries += slot.count;
}

const JoinEnumerator::Candidate* JoinEnumerator::CheapestEmitted() const {
  const Candidate* best = nullptr;
  for (const Candidate& c : emitted_) {
    if (best == nullptr || cost_model_->Total(c.cost) < cost_model_->Total(best->cost)) best = &c;
  }
  return best;
}

void JoinEnumerator::SeedBaseRelations() {
  for (size_t i = 0; i < rels_.size(); ++i) {
    const Relation& rel = rels_[i];
    const BaseRelation& base = graph_->relations[i];
    const std::vector<IndexInfo*>& indexes = base.table->indexes();
    for (size_t p = 0; p < access_paths_[i].size(); ++p) {
      const AccessPath& path = access_paths_[i][p];
      Candidate c;
      c.set = JoinSet::Single(static_cast<int>(i));
      c.rows = std::max(path.out_rows, 0.0);
      c.row_bytes = base.pages * static_cast<double>(kPageSize) / base.rows;
      c.pages = CostModel::EstimatePages(std::max(c.rows, 1.0), c.row_bytes);
      c.cost = path.cost;
      // An index holding big INTs returns keys that share a double in RID
      // order, so it claims no order.
      if (path.index != nullptr && !path.index->big_int_keys) {
        auto pos = std::find(indexes.begin(), indexes.end(), path.index) - indexes.begin();
        c.order = TrimOrder(rel.index_keys[pos]);
      }
      c.is_scan = true;
      c.rel = static_cast<int>(i);
      c.path = static_cast<int>(p);
      Offer(c);
    }
    KeepFrontier(JoinSet::Single(static_cast<int>(i)));
  }
}

// --- splits and join candidates -------------------------------------------------

void JoinEnumerator::SplitEdges(JoinSet left, JoinSet right, Split* split) const {
  split->edges.clear();
  split->others.clear();
  split->left_keys.clear();
  split->right_keys.clear();
  for (size_t e = 0; e < edges_.size(); ++e) {
    const Edge& edge = edges_[e];
    int side;  // the endpoint on the left
    if (left.Contains(edge.rel[0]) && right.Contains(edge.rel[1])) {
      side = 0;
    } else if (left.Contains(edge.rel[1]) && right.Contains(edge.rel[0])) {
      side = 1;
    } else {
      continue;
    }
    split->edges.push_back(static_cast<int>(e));
    split->left_keys.push_back(OrderKey{edge.col[side], false});
    split->right_keys.push_back(OrderKey{edge.col[1 - side], false});
  }
  for (size_t o = 0; o < conjuncts_.size(); ++o) {
    if (NewlyApplies(conjuncts_[o].rels, left, right)) split->others.push_back(static_cast<int>(o));
  }
}

bool JoinEnumerator::NewlyApplies(uint64_t rels, JoinSet left, JoinSet right) {
  return rels != 0 && (rels & ~(left.bits() | right.bits())) == 0 && (rels & ~left.bits()) != 0 &&
         (rels & ~right.bits()) != 0;
}

uint64_t JoinEnumerator::EdgeNeighbors(JoinSet set) const {
  uint64_t nbrs = 0;
  set.ForEach([&](int r) { nbrs |= rels_[r].edge_nbrs; });
  return nbrs;
}

bool JoinEnumerator::Joinable(JoinSet left, JoinSet right) const {
  if ((EdgeNeighbors(left) & right.bits()) != 0) return true;
  for (const Conjunct& c : conjuncts_) {
    if (NewlyApplies(c.rels, left, right)) return true;
  }
  return false;
}

int JoinEnumerator::InnerColumn(int edge, int inner) const {
  const Edge& e = edges_[edge];
  return e.col[e.rel[0] == inner ? 0 : 1];
}

void JoinEnumerator::ProbeEdges(int inner, int index, const std::vector<int>& edges,
                                std::vector<int>* out) const {
  out->clear();
  for (const OrderKey& key : rels_[inner].index_keys[index]) {
    auto it = std::find_if(edges.begin(), edges.end(), [&](int e) {
      return InnerColumn(e, inner) == key.col &&
             std::find(out->begin(), out->end(), e) == out->end();
    });
    if (it == edges.end()) break;
    out->push_back(*it);
  }
}

void JoinEnumerator::PrepareSplit(JoinSet left, JoinSet right, Split* split) {
  SplitEdges(left, right, split);
  split->feedback_sel.reset();
  if (estimator_->feedback() != nullptr) {
    split->feedback_sel = estimator_->FeedbackJoinSelectivity(
        FeedbackJoinSignature(left, right, split->edges, split->others));
  }
  split->merge_order = trim_orders_ ? TrimOrder(split->left_keys) : InternOrder(split->left_keys);

  // Index nested loop probes an index of a single inner relation on a prefix
  // of its key columns.
  split->probes.clear();
  if (!options_.enable_inlj || right.Count() != 1 || split->edges.empty()) return;
  const int inner = right.Lowest();
  const BaseRelation& base = graph_->relations[inner];
  for (size_t i = 0; i < rels_[inner].index_keys.size(); ++i) {
    ProbeEdges(inner, static_cast<int>(i), split->edges, &split->probe_edges);
    if (split->probe_edges.empty()) continue;
    double matches = base.rows;
    for (int e : split->probe_edges) {
      matches /= std::max(1.0, columns_[InnerColumn(e, inner)].ndv);
    }
    const bool residual = split->probe_edges.size() < split->edges.size() ||
                          !split->others.empty() || !base.conjuncts.empty();
    split->probes.push_back(
        Split::Probe{base.table->indexes()[i], static_cast<int>(i), matches, residual});
  }
}

std::string JoinEnumerator::FeedbackJoinSignature(JoinSet left, JoinSet right,
                                                  const std::vector<int>& edges,
                                                  const std::vector<int>& others) const {
  std::vector<std::string> tags;
  left.Union(right).ForEach([&](int r) {
    const BaseRelation& rel = graph_->relations[r];
    tags.push_back(ToLower(rel.alias) + ":" + ToLower(rel.table->name()));
  });
  std::vector<std::string> edge_sigs;
  for (int e : edges) {
    const JoinEdge& edge = graph_->edges[e];
    std::string a =
        ToLower(graph_->relations[edge.left_rel].alias) + "." + ToLower(edge.left_column);
    std::string b =
        ToLower(graph_->relations[edge.right_rel].alias) + "." + ToLower(edge.right_column);
    if (b < a) std::swap(a, b);  // `a=b` and `b=a` are the same predicate
    edge_sigs.push_back(a + "=" + b);
  }
  std::vector<std::string> other_sigs;
  for (int o : others) {
    other_sigs.push_back(
        FeedbackStore::RenderConjunct(*graph_->other_conjuncts[o], /*strip_qualifiers=*/false));
  }
  return FeedbackStore::JoinSignature(std::move(tags), std::move(edge_sigs),
                                      std::move(other_sigs));
}

void JoinEnumerator::EmitJoinCandidates(int left_id, int right_id, const Split& split) {
  const Candidate& l = arena_[left_id];
  const Candidate& r = arena_[right_id];
  emitted_.clear();

  // An earlier execution's measured selectivity of this exact join overrides
  // the containment/independence model.
  double rows = l.rows * r.rows;
  if (split.feedback_sel.has_value()) {
    rows = std::max(rows * *split.feedback_sel, 1.0);
  } else {
    for (int e : split.edges) rows *= edges_[e].sel;
    for (int o : split.others) rows *= conjuncts_[o].sel;
    rows = std::max(rows, 0.0);
  }

  Candidate c;
  c.set = l.set.Union(r.set);
  c.rows = rows;
  c.row_bytes = l.row_bytes + r.row_bytes;
  c.pages = CostModel::EstimatePages(std::max(rows, 1.0), c.row_bytes);
  c.left = left_id;
  c.right = right_id;
  auto emit = [&](JoinMethod method, const Cost& cost, int order) {
    c.method = method;
    c.cost = cost;
    c.order = order;
    emitted_.push_back(c);
  };

  if (options_.enable_nlj) {
    emit(JoinMethod::kNestedLoop,
         l.cost + cost_model_->NestedLoop(l.rows, r.cost, r.rows) + Cost{0, rows}, l.order);
  }
  if (options_.enable_bnlj) {
    emit(JoinMethod::kBlockNestedLoop,
         l.cost + cost_model_->BlockNestedLoop(l.rows, l.pages, r.cost, r.rows) + Cost{0, rows},
         0);
  }
  // INLJ is emitted once per left candidate, anchored to the inner's
  // seq-scan candidate.
  if (r.is_scan && r.path == 0) {
    for (const Split::Probe& p : split.probes) {
      Cost cost = l.cost +
                  cost_model_->IndexNestedLoop(l.rows, p.index->tree->Height(), p.matches,
                                               graph_->relations[r.rel].pages, r.rows,
                                               p.index->clustered) +
                  Cost{0, rows};
      if (p.residual) cost += cost_model_->Filter(l.rows * std::max(p.matches, 1.0));
      c.rel = r.rel;
      c.path = p.position;
      emit(JoinMethod::kIndexNestedLoop, cost, l.order);
    }
    c.rel = c.path = -1;
  }
  if (options_.enable_smj && !split.edges.empty()) {
    c.sort_left = !Satisfies(l.order, split.left_keys);
    c.sort_right = !Satisfies(r.order, split.right_keys);
    Cost cost = l.cost + r.cost + cost_model_->MergeJoin(l.rows, r.rows, rows);
    if (c.sort_left) cost += cost_model_->Sort(l.rows, l.pages);
    if (c.sort_right) cost += cost_model_->Sort(r.rows, r.pages);
    emit(JoinMethod::kSortMerge, cost, split.merge_order);
    c.sort_left = c.sort_right = false;
  }
  if (options_.enable_hash && !split.edges.empty()) {
    c.build_left = l.pages <= r.pages;
    const Candidate& build = c.build_left ? l : r;
    const Candidate& probe = c.build_left ? r : l;
    emit(JoinMethod::kHash,
         l.cost + r.cost + cost_model_->HashJoin(build.rows, build.pages, probe.rows, probe.pages) +
             Cost{0, rows},
         0);
  }

  stats_.joins_costed += emitted_.size();
  if (maximize_ && !emitted_.empty()) {
    // Worst-order search: the plan still uses the cheapest method per join,
    // so the metric isolates join-order quality.
    const Candidate best = *CheapestEmitted();
    emitted_.assign(1, best);
  }
}

// --- strategies -------------------------------------------------------------------

Result<int> JoinEnumerator::PickFinal(JoinSet set, bool* order_satisfied) const {
  const Slot* slot = FindSlot(set);
  if (slot == nullptr || slot->count == 0) {
    return Status::Internal("join enumeration produced no plan for the full relation set");
  }
  int best = -1;
  double best_total = 0;
  for (int id = slot->first; id < slot->first + slot->count; ++id) {
    const Candidate& c = arena_[id];
    const bool satisfied = Satisfies(c.order, orders_[required_order_]);
    double total = cost_model_->Total(c.cost);
    if (!satisfied) total += cost_model_->Total(cost_model_->Sort(c.rows, c.pages));
    if (best < 0 || total < best_total) {
      best = id;
      best_total = total;
      *order_satisfied = satisfied;
    }
  }
  return best;
}

Result<int> JoinEnumerator::RunDp(bool left_deep_only, bool maximize) {
  maximize_ = maximize;
  trim_orders_ = true;
  SeedBaseRelations();
  const int n = static_cast<int>(graph_->relations.size());
  const uint64_t full = JoinSet::AllUpTo(n).bits();

  // Fast path for avoid_cross_products on a connected graph: a subset whose
  // induced join graph is disconnected can only be built by a cross-product
  // join, and (the graph being connected) the full set is always reachable
  // through connected subsets alone — so disconnected subsets are skipped
  // before any split gathering or candidate generation. On a disconnected
  // graph cross products are forced somewhere, so the old late split
  // filtering is kept as-is.
  const bool skip_disconnected =
      options_.avoid_cross_products && SubsetConnected(JoinSet(full));

  for (uint64_t mask = 1; mask <= full; ++mask) {
    JoinSet set(mask);
    if (set.Count() < 2) continue;
    stats_.subsets_visited++;
    if (skip_disconnected && !SubsetConnected(set)) {
      stats_.disconnected_subsets_skipped++;
      continue;
    }

    // Splits (left, right): every relation as the right side (left-deep), or
    // every proper subset as the left side (bushy).
    auto for_each_split = [&](auto&& fn) {
      if (left_deep_only) {
        set.ForEach([&](int r) { fn(set.Without(r), JoinSet::Single(r)); });
      } else {
        for (SubsetIterator it(set); it.Valid(); it.Next()) {
          fn(it.Current(), set.Minus(it.Current()));
        }
      }
    };
    bool any_connected = false;
    if (options_.avoid_cross_products) {
      for_each_split(
          [&](JoinSet l, JoinSet r) { any_connected = any_connected || Joinable(l, r); });
    }
    for_each_split([&](JoinSet left_set, JoinSet right_set) {
      const Slot* ls = FindSlot(left_set);
      const Slot* rs = FindSlot(right_set);
      if (ls == nullptr || rs == nullptr) return;
      if (any_connected && !Joinable(left_set, right_set)) return;
      PrepareSplit(left_set, right_set, &split_);
      for (int lid = ls->first; lid < ls->first + ls->count; ++lid) {
        for (int rid = rs->first; rid < rs->first + rs->count; ++rid) {
          EmitJoinCandidates(lid, rid, split_);
          for (const Candidate& c : emitted_) Offer(c);
        }
      }
    });
    KeepFrontier(set);
  }

  const Slot* slot = FindSlot(JoinSet(full));
  if (slot == nullptr) return Status::Internal("DP reached no full-set plan");
  return slot->count == 0 ? Status::Internal("DP kept no full-set candidate")
                          : Result<int>(slot->first);
}

bool JoinEnumerator::CheapestJoin(int left_id, int r, Candidate* out) {
  PrepareSplit(arena_[left_id].set, JoinSet::Single(r), &split_);
  const Slot& rs = *FindSlot(JoinSet::Single(r));
  bool have = false;
  for (int rid = rs.first; rid < rs.first + rs.count; ++rid) {
    EmitJoinCandidates(left_id, rid, split_);
    const Candidate* c = CheapestEmitted();
    if (c != nullptr && (!have || cost_model_->Total(c->cost) < cost_model_->Total(out->cost))) {
      *out = *c;
      have = true;
    }
  }
  return have;
}

Result<int> JoinEnumerator::RunGreedy() {
  trim_orders_ = false;
  SeedBaseRelations();
  const int n = static_cast<int>(graph_->relations.size());

  // Component list: cheapest candidate per relation to start.
  std::vector<int> components;
  for (int i = 0; i < n; ++i) components.push_back(CheapestOf(JoinSet::Single(i)));

  while (components.size() > 1) {
    auto set_of = [&](size_t i) { return arena_[components[i]].set; };
    bool any_connected = false;
    for (size_t i = 0; i < components.size() && !any_connected; ++i) {
      for (size_t j = 0; j < components.size() && !any_connected; ++j) {
        any_connected = i != j && Joinable(set_of(i), set_of(j));
      }
    }
    size_t best_i = 0, best_j = 0;
    Candidate best;
    bool have = false;
    for (size_t i = 0; i < components.size(); ++i) {
      for (size_t j = 0; j < components.size(); ++j) {
        if (i == j || (any_connected && !Joinable(set_of(i), set_of(j)))) continue;
        PrepareSplit(set_of(i), set_of(j), &split_);
        EmitJoinCandidates(components[i], components[j], split_);
        const Candidate* c = CheapestEmitted();
        if (c == nullptr) continue;
        if (!have || cost_model_->Total(c->cost) < cost_model_->Total(best.cost)) {
          best = *c;
          best_i = i;
          best_j = j;
          have = true;
        }
      }
    }
    if (!have) return Status::Internal("greedy enumeration found no joinable pair");
    const int merged = Intern(best);
    // Remove the higher index first.
    if (best_i < best_j) std::swap(best_i, best_j);
    components.erase(components.begin() + best_i);
    components.erase(components.begin() + best_j);
    components.push_back(merged);
  }
  return components.front();
}

Result<int> JoinEnumerator::RunExhaustive() {
  trim_orders_ = false;
  SeedBaseRelations();
  const int n = static_cast<int>(graph_->relations.size());
  const JoinSet full = JoinSet::AllUpTo(n);

  // Depth-first over left-deep permutations, cheapest method at each step.
  struct Frame {
    int cand;
    JoinSet remaining;
  };
  std::vector<Frame> stack;
  for (int i = 0; i < n; ++i) {
    stack.push_back(Frame{CheapestOf(JoinSet::Single(i)), full.Without(i)});
  }
  int best = -1;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.remaining.Empty()) {
      const double total = cost_model_->Total(arena_[frame.cand].cost);
      if (best < 0 || total < cost_model_->Total(arena_[best].cost)) best = frame.cand;
      continue;
    }
    const uint64_t nbrs = EdgeNeighbors(arena_[frame.cand].set);
    const bool any_connected = (nbrs & frame.remaining.bits()) != 0;
    frame.remaining.ForEach([&](int r) {
      if (options_.avoid_cross_products && any_connected && ((nbrs >> r) & 1) == 0) return;
      Candidate step;
      if (CheapestJoin(frame.cand, r, &step)) {
        stack.push_back(Frame{Intern(step), frame.remaining.Without(r)});
      }
    });
  }
  if (best < 0) return Status::Internal("exhaustive enumeration found no plan");
  return best;
}

template <typename NextFn>
Result<int> JoinEnumerator::RunLeftDeepWalk(int current, NextFn next, const char* name) {
  JoinSet remaining = JoinSet::AllUpTo(static_cast<int>(rels_.size())).Minus(arena_[current].set);
  std::vector<int> connected, all;
  while (!remaining.Empty()) {
    // Prefer relations connected to the current set (cross products only
    // when forced).
    const uint64_t nbrs = EdgeNeighbors(arena_[current].set);
    connected.clear();
    all.clear();
    remaining.ForEach([&](int r) {
      all.push_back(r);
      if ((nbrs >> r) & 1) connected.push_back(r);
    });
    const int r = next(connected.empty() ? all : connected);

    Candidate best;
    if (!CheapestJoin(current, r, &best)) {
      return Status::Internal(std::string(name) + " enumeration found no join");
    }
    current = Intern(best);
    remaining = remaining.Without(r);
  }
  return current;
}

Result<int> JoinEnumerator::RunRandom() {
  trim_orders_ = false;
  SeedBaseRelations();
  const int n = static_cast<int>(graph_->relations.size());
  const int start = static_cast<int>(rng_.UniformInt(0, n - 1));
  const Slot& slot = *FindSlot(JoinSet::Single(start));
  const int current = slot.first + static_cast<int>(rng_.UniformInt(0, slot.count - 1));
  return RunLeftDeepWalk(
      current,
      [&](const std::vector<int>& pool) {
        return pool[static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
      },
      "random");
}

Result<int> JoinEnumerator::RunSimpliSquared() {
  trim_orders_ = false;
  SeedBaseRelations();
  // The only "statistic" this strategy reads: base-table row counts, which
  // are physical facts — no selectivity estimation anywhere in the ordering.
  auto smallest = [&](const std::vector<int>& pool) {
    int best = pool.front();
    for (int r : pool) {
      if (graph_->relations[r].rows < graph_->relations[best].rows) best = r;
    }
    return best;
  };
  std::vector<int> all(rels_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return RunLeftDeepWalk(CheapestOf(JoinSet::Single(smallest(all))), smallest, "simpli-squared");
}

// --- DPccp -----------------------------------------------------------------

uint64_t JoinEnumerator::Neighborhood(uint64_t set, uint64_t excluded) const {
  uint64_t nbr = 0;
  JoinSet(set).ForEach([&](int i) { nbr |= adjacency_[i]; });
  return nbr & ~set & ~excluded;
}

bool JoinEnumerator::SubsetConnected(JoinSet set) const {
  if (set.Empty()) return false;
  const uint64_t target = set.bits();
  uint64_t reached = uint64_t{1} << set.Lowest();
  while (true) {
    uint64_t grown = reached;
    JoinSet(reached).ForEach([&](int i) { grown |= adjacency_[i] & target; });
    if (grown == reached) break;
    reached = grown;
  }
  return reached == target;
}

namespace {
/// Non-empty subsets of `mask` in increasing numeric order: start with
/// FirstSubset, stop when NextSubset wraps to zero.
inline uint64_t FirstSubset(uint64_t mask) { return mask & (~mask + 1); }
inline uint64_t NextSubset(uint64_t sub, uint64_t mask) { return (sub - mask) & mask; }
}  // namespace

bool JoinEnumerator::EnumerateCsgCmpPairs(std::vector<CsgCmpPair>* out) {
  const int n = static_cast<int>(graph_->relations.size());
  bool over_budget = false;
  // Start nodes descending; each start only grows into higher-numbered
  // relations (the B_i prohibited sets), which is what makes every csg —
  // and every csg-cmp pair — come out exactly once.
  for (int i = n - 1; i >= 0 && !over_budget; --i) {
    const uint64_t single = uint64_t{1} << i;
    EmitCsg(single, out, &over_budget);
    if (over_budget) break;
    const uint64_t prohibited = (single - 1) | single;  // {0..i}
    EnumerateCsgRec(single, prohibited, out, &over_budget);
  }
  return !over_budget;
}

void JoinEnumerator::EnumerateCsgRec(uint64_t set, uint64_t excluded,
                                     std::vector<CsgCmpPair>* out, bool* over_budget) {
  const uint64_t nbr = Neighborhood(set, excluded);
  if (nbr == 0) return;
  for (uint64_t sub = FirstSubset(nbr); sub != 0; sub = NextSubset(sub, nbr)) {
    EmitCsg(set | sub, out, over_budget);
    if (*over_budget) return;
  }
  for (uint64_t sub = FirstSubset(nbr); sub != 0; sub = NextSubset(sub, nbr)) {
    EnumerateCsgRec(set | sub, excluded | nbr, out, over_budget);
    if (*over_budget) return;
  }
}

void JoinEnumerator::EmitCsg(uint64_t csg, std::vector<CsgCmpPair>* out, bool* over_budget) {
  const int min_rel = JoinSet(csg).Lowest();
  const uint64_t single_min = uint64_t{1} << min_rel;
  // Complements only grow from relations above min(csg); the symmetric pairs
  // are covered when the roles are reversed.
  const uint64_t prohibited = csg | (single_min - 1) | single_min;
  const uint64_t nbr = Neighborhood(csg, prohibited);
  if (nbr == 0) return;
  for (uint64_t rest = nbr; rest != 0;) {  // neighbors, highest first
    const uint64_t single = uint64_t{1} << (63 - __builtin_clzll(rest));
    rest &= ~single;
    stats_.csg_cmp_pairs++;
    out->push_back(CsgCmpPair{csg, single});
    if (out->size() > options_.dp_budget) {
      *over_budget = true;
      return;
    }
    // Lower-numbered neighbors get their own start iteration; prohibit them
    // here so each complement is enumerated from its minimal start node.
    const uint64_t lower_neighbors = nbr & ((single - 1) | single);
    EnumerateCmpRec(csg, single, prohibited | lower_neighbors, out, over_budget);
    if (*over_budget) return;
  }
}

void JoinEnumerator::EnumerateCmpRec(uint64_t csg, uint64_t cmp, uint64_t excluded,
                                     std::vector<CsgCmpPair>* out, bool* over_budget) {
  const uint64_t nbr = Neighborhood(cmp, excluded);
  if (nbr == 0) return;
  for (uint64_t sub = FirstSubset(nbr); sub != 0; sub = NextSubset(sub, nbr)) {
    stats_.csg_cmp_pairs++;
    out->push_back(CsgCmpPair{csg, cmp | sub});
    if (out->size() > options_.dp_budget) {
      *over_budget = true;
      return;
    }
  }
  for (uint64_t sub = FirstSubset(nbr); sub != 0; sub = NextSubset(sub, nbr)) {
    EnumerateCmpRec(csg, cmp | sub, excluded | nbr, out, over_budget);
    if (*over_budget) return;
  }
}

Result<int> JoinEnumerator::RunDpCcp(std::vector<CsgCmpPair> pairs) {
  maximize_ = false;
  trim_orders_ = true;
  SeedBaseRelations();

  // Process pairs grouped by union, smaller unions first: both sides of a
  // partition are strictly smaller than the union, so every group only reads
  // DP slots that are already final — emission order of the enumeration
  // itself becomes irrelevant.
  std::sort(pairs.begin(), pairs.end(), [](const CsgCmpPair& a, const CsgCmpPair& b) {
    const uint64_t ua = a.csg | a.cmp, ub = b.csg | b.cmp;
    const int ca = __builtin_popcountll(ua), cb = __builtin_popcountll(ub);
    if (ca != cb) return ca < cb;
    return ua < ub;
  });

  for (size_t i = 0; i < pairs.size();) {
    const uint64_t union_bits = pairs[i].csg | pairs[i].cmp;
    size_t end = i;
    while (end < pairs.size() && (pairs[end].csg | pairs[end].cmp) == union_bits) ++end;
    stats_.subsets_visited++;

    // Same cross-product rule as RunDp: if no cut of this union applies a
    // predicate (possible when connectivity came from the hyperedge
    // relaxation), all cuts are admitted as forced cross products; otherwise
    // only predicate-connected cuts are costed.
    auto joinable = [&](const CsgCmpPair& p) { return Joinable(JoinSet(p.csg), JoinSet(p.cmp)); };
    bool any_connected = false;
    if (options_.avoid_cross_products) {
      for (size_t k = i; k < end && !any_connected; ++k) any_connected = joinable(pairs[k]);
    }

    // Both join orders of each pair are costed, mirroring RunDp's ordered
    // splits, into the one frontier of the union.
    for (size_t k = i; k < end; ++k) {
      if (any_connected && !joinable(pairs[k])) continue;
      const Slot* ls = FindSlot(JoinSet(pairs[k].csg));
      const Slot* rs = FindSlot(JoinSet(pairs[k].cmp));
      if (ls == nullptr || rs == nullptr) continue;
      PrepareSplit(JoinSet(pairs[k].csg), JoinSet(pairs[k].cmp), &split_);
      PrepareSplit(JoinSet(pairs[k].cmp), JoinSet(pairs[k].csg), &reverse_split_);
      for (int lid = ls->first; lid < ls->first + ls->count; ++lid) {
        for (int rid = rs->first; rid < rs->first + rs->count; ++rid) {
          EmitJoinCandidates(lid, rid, split_);
          for (const Candidate& c : emitted_) Offer(c);
          EmitJoinCandidates(rid, lid, reverse_split_);
          for (const Candidate& c : emitted_) Offer(c);
        }
      }
    }
    KeepFrontier(JoinSet(union_bits));
    i = end;
  }

  const Slot* slot = FindSlot(JoinSet::AllUpTo(static_cast<int>(graph_->relations.size())));
  if (slot == nullptr || slot->count == 0) {
    return Status::Internal("DPccp reached no full-set plan");
  }
  return slot->first;
}

void JoinEnumerator::ResetSearchState() {
  arena_.clear();
  dp_.clear();
}

void JoinEnumerator::TraceStrategy(JoinEnumAlgorithm strategy, const std::string& reason) const {
  if (options_.trace == nullptr) return;
  PlanTraceEvent ev;
  ev.phase = "strategy";
  ev.target = SetName(JoinSet::AllUpTo(static_cast<int>(graph_->relations.size())));
  ev.candidate = JoinEnumAlgorithmToString(strategy);
  ev.action = "chosen";
  ev.reason = reason;
  options_.trace->Add(std::move(ev));
}

Result<int> JoinEnumerator::RunDpCcpLadder(bool* dp_table_final) {
  // The budgeted strategy ladder. DPccp itself only handles connected graphs
  // (the full set must be a connected subgraph); disconnected graphs route
  // to the cross-product-capable DP at small n, greedy beyond. When the
  // csg-cmp pair count blows past dp_budget the search degrades to
  // greedy-GOO, then Simpli-Squared.
  const int n = static_cast<int>(graph_->relations.size());
  if (!SubsetConnected(JoinSet::AllUpTo(n))) {
    if (n <= 12) {
      stats_.strategy_used = JoinEnumAlgorithm::kDpBushy;
      TraceStrategy(JoinEnumAlgorithm::kDpBushy,
                    "join graph disconnected; cross products required");
      return RunDp(false, false);
    }
    *dp_table_final = false;
    stats_.strategy_used = JoinEnumAlgorithm::kGreedy;
    TraceStrategy(JoinEnumAlgorithm::kGreedy, "join graph disconnected and too large for DP");
    return RunGreedy();
  }
  std::vector<CsgCmpPair> pairs;
  const auto budget = static_cast<unsigned long long>(options_.dp_budget);
  if (EnumerateCsgCmpPairs(&pairs)) {
    TraceStrategy(JoinEnumAlgorithm::kDpCcp,
                  StringPrintf("%zu csg-cmp pairs within dp_budget=%llu", pairs.size(), budget));
    return RunDpCcp(std::move(pairs));
  }
  *dp_table_final = false;
  stats_.budget_fallback = true;
  stats_.strategy_used = JoinEnumAlgorithm::kGreedy;
  TraceStrategy(JoinEnumAlgorithm::kGreedy,
                StringPrintf("csg-cmp pairs exceed dp_budget=%llu; degrading", budget));
  ResetSearchState();
  Result<int> greedy = RunGreedy();
  if (greedy.ok()) return greedy;
  stats_.strategy_used = JoinEnumAlgorithm::kSimpliSquared;
  TraceStrategy(JoinEnumAlgorithm::kSimpliSquared, "greedy failed: " + greedy.status().ToString());
  ResetSearchState();
  return RunSimpliSquared();
}

Result<JoinEnumResult> JoinEnumerator::Run(const OrderSpec& required_order) {
  if (graph_->relations.empty()) {
    return Status::InvalidArgument("join enumeration needs at least one relation");
  }
  stats_ = JoinEnumStats{};
  stats_.strategy_used = options_.algorithm;
  maximize_ = false;
  ResetSearchState();
  RELOPT_RETURN_NOT_OK(ResolveGraph(required_order));
  const JoinSet full = JoinSet::AllUpTo(static_cast<int>(graph_->relations.size()));

  // DP strategies leave the full set's candidates in the table for PickFinal;
  // the others return one plan.
  const JoinEnumAlgorithm algorithm = options_.algorithm;
  bool dp_table_final = algorithm == JoinEnumAlgorithm::kDpBushy ||
                        algorithm == JoinEnumAlgorithm::kDpLeftDeep ||
                        algorithm == JoinEnumAlgorithm::kDpCcp;
  int final_id = -1;
  if (graph_->relations.size() == 1) {
    dp_table_final = true;
    SeedBaseRelations();
  } else {
    stats_.enumerated = true;
    Result<int> run = -1;
    switch (algorithm) {
      case JoinEnumAlgorithm::kDpBushy:
      case JoinEnumAlgorithm::kDpLeftDeep:
        run = RunDp(algorithm == JoinEnumAlgorithm::kDpLeftDeep, false);
        break;
      case JoinEnumAlgorithm::kWorst:
        run = RunDp(true, true);
        break;
      case JoinEnumAlgorithm::kGreedy:
        run = RunGreedy();
        break;
      case JoinEnumAlgorithm::kExhaustive:
        run = RunExhaustive();
        break;
      case JoinEnumAlgorithm::kRandom:
        run = RunRandom();
        break;
      case JoinEnumAlgorithm::kSimpliSquared:
        run = RunSimpliSquared();
        break;
      case JoinEnumAlgorithm::kDpCcp:
        run = RunDpCcpLadder(&dp_table_final);
        break;
    }
    RELOPT_ASSIGN_OR_RETURN(final_id, std::move(run));
  }

  bool order_satisfied = false;
  if (dp_table_final) {
    RELOPT_ASSIGN_OR_RETURN(final_id, PickFinal(full, &order_satisfied));
  } else if (algorithm == JoinEnumAlgorithm::kWorst) {
    order_satisfied = required_order.empty();
  } else {
    order_satisfied = Satisfies(arena_[final_id].order, orders_[required_order_]);
  }
  const Candidate& chosen = arena_[final_id];
  TraceCandidate(chosen, "chosen", "", "final");

  JoinEnumResult result;
  RELOPT_ASSIGN_OR_RETURN(result.plan, BuildPlan(final_id));
  result.rows = chosen.rows;
  result.cost = chosen.cost;
  result.order = ToOrderSpec(chosen.order);
  result.order_satisfied = order_satisfied;
  return result;
}

// --- plan construction -------------------------------------------------------------

Result<PhysicalPtr> JoinEnumerator::BuildPlan(int cand_id) const {
  const Candidate& cand = arena_[cand_id];
  if (cand.is_scan) {
    return BuildAccessPathPlan(*graph_, access_paths_[cand.rel][cand.path]);
  }
  return BuildJoinPlan(cand);
}

Result<PhysicalPtr> JoinEnumerator::BuildJoinPlan(const Candidate& cand) const {
  const Candidate& l = arena_[cand.left];
  const Candidate& r = arena_[cand.right];
  Split split;
  SplitEdges(l.set, r.set, &split);

  // Every two-child join node is stamped with its feedback signature so the
  // harvester can attribute measured selectivity (out / (l x r)) to it. INLJ
  // is excluded: with only one child in the plan tree, the inner actuals are
  // not observable.
  std::string feedback_key = FeedbackJoinSignature(l.set, r.set, split.edges, split.others);

  RELOPT_ASSIGN_OR_RETURN(PhysicalPtr left_plan, BuildPlan(cand.left));

  auto column_ref = [&](int col) {
    return MakeColumnRef(columns_[col].alias, columns_[col].name);
  };
  auto edge_expr = [&](int e) {
    return MakeComparison(CompareOp::kEq, column_ref(edges_[e].col[0]),
                          column_ref(edges_[e].col[1]));
  };
  auto others = [&]() {
    std::vector<ExprPtr> out;
    for (int o : split.others) out.push_back(graph_->other_conjuncts[o]->Clone());
    return out;
  };

  // --- INLJ: no right child plan; the inner is (table, index). -----------
  if (cand.method == JoinMethod::kIndexNestedLoop) {
    const BaseRelation& inner = graph_->relations[cand.rel];
    IndexInfo* index = inner.table->indexes()[cand.path];
    std::vector<int> probe_edges;
    ProbeEdges(cand.rel, cand.path, split.edges, &probe_edges);

    std::vector<ExprPtr> key_exprs;
    for (int e : probe_edges) {
      const int outer_side = edges_[e].rel[0] == cand.rel ? 1 : 0;
      ExprPtr ref = column_ref(edges_[e].col[outer_side]);
      RELOPT_RETURN_NOT_OK(ref->Bind(left_plan->schema()));
      key_exprs.push_back(std::move(ref));
    }

    // Residual: unused edges + other conjuncts + the inner's own filters.
    std::vector<ExprPtr> residual;
    for (int e : split.edges) {
      if (std::find(probe_edges.begin(), probe_edges.end(), e) == probe_edges.end()) {
        residual.push_back(edge_expr(e));
      }
    }
    for (ExprPtr& o : others()) residual.push_back(std::move(o));
    for (const ExprPtr& c : inner.conjuncts) residual.push_back(c->Clone());
    ExprPtr residual_expr = CombineConjuncts(std::move(residual));

    auto node = std::make_unique<PhysIndexNestedLoopJoin>(
        std::move(left_plan), inner.table->name(), inner.alias, index->name, inner.schema,
        std::move(key_exprs), std::move(residual_expr));
    if (node->residual() != nullptr) {
      RELOPT_RETURN_NOT_OK(const_cast<Expression*>(node->residual())->Bind(node->schema()));
    }
    node->SetEstimates(cand.rows, cand.cost);
    return PhysicalPtr(std::move(node));
  }

  RELOPT_ASSIGN_OR_RETURN(PhysicalPtr right_plan, BuildPlan(cand.right));

  if (cand.method == JoinMethod::kNestedLoop || cand.method == JoinMethod::kBlockNestedLoop) {
    std::vector<ExprPtr> preds;
    for (int e : split.edges) preds.push_back(edge_expr(e));
    for (ExprPtr& o : others()) preds.push_back(std::move(o));
    ExprPtr pred = CombineConjuncts(std::move(preds));
    if (pred) {
      RELOPT_RETURN_NOT_OK(pred->Bind(Schema::Concat(left_plan->schema(), right_plan->schema())));
    }
    PhysicalPtr node;
    if (cand.method == JoinMethod::kNestedLoop) {
      node = std::make_unique<PhysNestedLoopJoin>(std::move(left_plan), std::move(right_plan),
                                                  std::move(pred));
    } else {
      node = std::make_unique<PhysBlockNestedLoopJoin>(
          std::move(left_plan), std::move(right_plan), std::move(pred),
          std::max<size_t>(1, cost_model_->OperatorMemoryPages() - 2));
    }
    node->SetEstimates(cand.rows, cand.cost);
    node->set_feedback_key(std::move(feedback_key));
    return node;
  }
  if (cand.method != JoinMethod::kSortMerge && cand.method != JoinMethod::kHash) {
    return Status::Internal("unexpected join method in BuildJoinPlan");
  }

  // SMJ sort enforcers.
  auto add_sort = [&](PhysicalPtr plan, const Order& keys, double rows,
                      double pages) -> Result<PhysicalPtr> {
    std::vector<PhysSort::Key> sort_keys;
    for (const OrderKey& k : keys) {
      ExprPtr ref = column_ref(k.col);
      RELOPT_RETURN_NOT_OK(ref->Bind(plan->schema()));
      sort_keys.push_back(PhysSort::Key{std::move(ref), k.desc});
    }
    Cost child_cost = plan->est_cost();
    auto sort = std::make_unique<PhysSort>(std::move(plan), std::move(sort_keys));
    sort->SetEstimates(rows, child_cost + cost_model_->Sort(rows, pages));
    return PhysicalPtr(std::move(sort));
  };
  if (cand.sort_left) {
    RELOPT_ASSIGN_OR_RETURN(left_plan, add_sort(std::move(left_plan), split.left_keys, l.rows,
                                                l.pages));
  }
  if (cand.sort_right) {
    RELOPT_ASSIGN_OR_RETURN(right_plan, add_sort(std::move(right_plan), split.right_keys, r.rows,
                                                 r.pages));
  }
  auto key_positions = [&](const PhysicalNode& plan,
                           const Order& keys) -> Result<std::vector<size_t>> {
    std::vector<size_t> out;
    for (const OrderKey& k : keys) {
      RELOPT_ASSIGN_OR_RETURN(size_t idx,
                              plan.schema().IndexOf(columns_[k.col].alias, columns_[k.col].name));
      out.push_back(idx);
    }
    return out;
  };
  RELOPT_ASSIGN_OR_RETURN(std::vector<size_t> left_keys,
                          key_positions(*left_plan, split.left_keys));
  RELOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_keys,
                          key_positions(*right_plan, split.right_keys));
  ExprPtr residual = CombineConjuncts(others());
  if (residual) {
    RELOPT_RETURN_NOT_OK(
        residual->Bind(Schema::Concat(left_plan->schema(), right_plan->schema())));
  }
  PhysicalPtr node;
  if (cand.method == JoinMethod::kSortMerge) {
    node = std::make_unique<PhysSortMergeJoin>(std::move(left_plan), std::move(right_plan),
                                               std::move(left_keys), std::move(right_keys),
                                               std::move(residual));
  } else if (cand.build_left) {
    node = std::make_unique<PhysHashJoin>(std::move(left_plan), std::move(right_plan),
                                          std::move(left_keys), std::move(right_keys),
                                          std::move(residual), /*output_probe_first=*/false);
  } else {
    node = std::make_unique<PhysHashJoin>(std::move(right_plan), std::move(left_plan),
                                          std::move(right_keys), std::move(left_keys),
                                          std::move(residual), /*output_probe_first=*/true);
  }
  node->SetEstimates(cand.rows, cand.cost);
  node->set_feedback_key(std::move(feedback_key));
  return node;
}

}  // namespace relopt
