// Join-order enumeration: Selinger DP (bushy & left-deep) with interesting
// orders, plus the baseline strategies the evaluation compares against
// (exhaustive, greedy, random, worst-case).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "optimizer/access_path.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_graph.h"
#include "optimizer/order_spec.h"
#include "optimizer/selectivity.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace relopt {

enum class JoinMethod {
  kNestedLoop,
  kBlockNestedLoop,
  kIndexNestedLoop,
  kSortMerge,
  kHash,
};

const char* JoinMethodToString(JoinMethod method);

/// Which enumeration strategy to run.
enum class JoinEnumAlgorithm {
  kDpBushy,     ///< Selinger DP over all connected splits (bushy trees)
  kDpLeftDeep,  ///< Selinger DP restricted to left-deep trees
  kGreedy,      ///< greedy pairwise (GOO-style): repeatedly merge cheapest
  kExhaustive,  ///< all left-deep permutations, cheapest method per step
  kRandom,      ///< one random left-deep permutation (cheapest methods)
  kWorst,       ///< DP maximizing cost over orders (methods still cheapest)
  /// Simpli-Squared: estimate-free ordering. Left-deep, smallest base-table
  /// row count first, then repeatedly add the connected relation with the
  /// smallest base row count (cheapest method per step). The baseline that
  /// shows how far plain table sizes get without any selectivity model.
  kSimpliSquared,
  /// DPccp (Moerkotte & Neumann): DP over connected-subgraph/complement
  /// pairs of the join graph only. Same candidate lists, interesting orders,
  /// and dominance pruning as kDpBushy — cost-equal plans on connected
  /// graphs — but the enumeration is output-sensitive in the number of
  /// csg-cmp pairs instead of 3^n splits. Wrapped in a budgeted ladder:
  /// above `dp_budget` csg-cmp pairs it degrades to greedy-GOO, then
  /// kSimpliSquared; disconnected graphs route to kDpBushy (small n) or
  /// greedy.
  kDpCcp,
};

const char* JoinEnumAlgorithmToString(JoinEnumAlgorithm algorithm);

struct JoinEnumOptions {
  JoinEnumAlgorithm algorithm = JoinEnumAlgorithm::kDpCcp;
  bool use_interesting_orders = true;
  bool avoid_cross_products = true;
  bool enable_nlj = true;
  bool enable_bnlj = true;
  bool enable_inlj = true;
  bool enable_smj = true;
  bool enable_hash = true;
  bool enable_index_scans = true;
  uint64_t random_seed = 42;
  /// Cap on kept candidates per DP subset (dominance-pruned first).
  size_t max_candidates_per_set = 8;
  /// kDpCcp ladder: maximum csg-cmp pairs the DP may cost before degrading
  /// to greedy (then Simpli-Squared). ~100k pairs keeps a 20-relation chain
  /// exact and a 20-relation clique bounded.
  uint64_t dp_budget = 100000;
  /// Optional decision log (not owned). When set, every candidate considered
  /// is recorded with its cost and — for losers — the prune reason. The
  /// worst-case strategy never traces (its "pruning" is inverted on purpose).
  PlanTrace* trace = nullptr;
};

struct JoinEnumResult {
  PhysicalPtr plan;
  double rows = 0;
  Cost cost;
  OrderSpec order;          ///< delivered output order
  bool order_satisfied = false;  ///< true if `required_order` was delivered
};

struct JoinEnumStats {
  uint64_t joins_costed = 0;    ///< (left cand, right cand, method) combos
  uint64_t dp_entries = 0;      ///< candidates kept across all subsets
  uint64_t subsets_visited = 0;
  /// DPccp: csg-cmp pairs enumerated (also counts pairs seen before a
  /// budget abort).
  uint64_t csg_cmp_pairs = 0;
  /// Selinger DP: subsets skipped before candidate generation because their
  /// induced join graph is disconnected (avoid_cross_products fast path).
  uint64_t disconnected_subsets_skipped = 0;
  /// True iff a join search actually ran (>= 2 relations in the block);
  /// metric export keys off this so non-join statements don't skew counters.
  bool enumerated = false;
  /// True iff kDpCcp aborted because the csg-cmp pair count exceeded
  /// dp_budget and a cheaper strategy planned instead.
  bool budget_fallback = false;
  /// The strategy that produced the final plan (== the configured algorithm
  /// except when the kDpCcp ladder degraded).
  JoinEnumAlgorithm strategy_used = JoinEnumAlgorithm::kDpBushy;
};

/// \brief Enumerates join orders/methods for a QueryGraph and returns the
/// chosen physical plan with estimates.
class JoinEnumerator {
 public:
  JoinEnumerator(const QueryGraph* graph, const SelectivityEstimator* estimator,
                 const CostModel* cost_model, JoinEnumOptions options);

  /// `required_order` (possibly empty) is the ORDER BY the consumer wants;
  /// with interesting orders enabled the DP may deliver it sort-free.
  Result<JoinEnumResult> Run(const OrderSpec& required_order);

  const JoinEnumStats& stats() const { return stats_; }

 private:
  /// A DP candidate: estimates plus the recipe to rebuild its plan. Trivially
  /// copyable: its order is an interned order id, and an INLJ's probe edges
  /// are re-derived from (left set, inner relation, index) when the plan is
  /// built.
  struct Candidate {
    JoinSet set;
    double rows = 0;
    double row_bytes = 0;
    double pages = 0;
    Cost cost;
    int order = 0;  ///< interned order id; 0 = no order

    bool is_scan = false;
    int rel = -1;   ///< scan: the relation; INLJ: the inner relation
    int path = -1;  ///< scan: access path; INLJ: index position in the inner table

    JoinMethod method = JoinMethod::kNestedLoop;
    int left = -1;  // arena ids
    int right = -1;
    bool build_left = true;  // hash: which side builds
    bool sort_left = false;  // smj enforcers
    bool sort_right = false;
  };
  static_assert(std::is_trivially_copyable_v<Candidate>);

  // --- the query graph, resolved once per Run() into dense ids ------------
  struct OrderKey {
    int col;
    bool desc;
    bool operator==(const OrderKey& o) const { return col == o.col && desc == o.desc; }
  };
  using Order = std::vector<OrderKey>;
  /// A (relation, column) named by an edge, an index key or an order.
  struct Column {
    int rel;  ///< -1 for an order column naming no relation of this block
    std::string alias;
    std::string name;
    double ndv;
  };
  struct Edge {
    int rel[2];
    int col[2];
    double sel;  ///< EstimateEquiJoin
  };
  /// An other-conjunct: the relations it needs and its selectivity.
  struct Conjunct {
    uint64_t rels;  ///< 0 if its relations did not resolve (never applied)
    double sel;
  };
  struct Relation {
    uint64_t edge_nbrs;             ///< relations it shares an equi-join edge with
    std::vector<Order> index_keys;  ///< per index: its key columns, ascending
  };

  /// What every candidate pair of one split (left set, right set) shares.
  struct Split {
    std::vector<int> edges;   ///< joining left to right, ascending
    std::vector<int> others;  ///< other-conjuncts first applicable here
    std::optional<double> feedback_sel;
    Order left_keys, right_keys;  ///< merge keys per side, in edge order
    int merge_order = 0;          ///< the order a merge join delivers
    struct Probe {  ///< INLJ through one index of the (single) right relation
      const IndexInfo* index;
      int position;    ///< in the inner table's index list
      double matches;  ///< inner rows per probe
      bool residual;
    };
    std::vector<Probe> probes;
    std::vector<int> probe_edges;  ///< scratch
  };

  /// A relation set's DP entry: its kept candidates are the `count`
  /// consecutive arena entries from `first`.
  struct Slot {
    int first = 0;
    int count = 0;
  };
  const Slot* FindSlot(JoinSet set) const {
    auto it = dp_.find(set.bits());
    return it == dp_.end() ? nullptr : &it->second;
  }

  Status ResolveGraph(const OrderSpec& required_order);
  int InternColumn(int rel, const std::string& alias, const std::string& name);
  int InternOrder(const Order& order);
  /// Longest interesting order that `order` satisfies; 0 when none (or
  /// interesting orders are off).
  int TrimOrder(const Order& order) const;
  bool Satisfies(int have, const Order& want) const;
  /// Satisfies() between trimmed orders, from the precomputed matrix.
  bool Dominates(int have, int want) const {
    return satisfies_[static_cast<size_t>(have) * trimmed_orders_ + want] != 0;
  }
  OrderSpec ToOrderSpec(int order) const;

  // --- shared helpers -----------------------------------------------------
  void SeedBaseRelations();
  /// Fills the edges joining the sides, their keys, and the new other-conjuncts.
  void SplitEdges(JoinSet left, JoinSet right, Split* split) const;
  /// Fills all of `split` for joining `left` x `right`.
  void PrepareSplit(JoinSet left, JoinSet right, Split* split);
  /// True if an other-conjunct over `rels` needs both sides (and no more).
  static bool NewlyApplies(uint64_t rels, JoinSet left, JoinSet right);
  uint64_t EdgeNeighbors(JoinSet set) const;  ///< relations an edge joins to `set`
  /// True if some edge or newly applicable other-conjunct joins the sides.
  bool Joinable(JoinSet left, JoinSet right) const;
  int InnerColumn(int edge, int inner) const;  ///< `edge`'s column on `inner`
  /// The edges of `edges` that probe `index` of `inner`: for each key column
  /// in turn, the first unused edge on it, up to the first key without one.
  void ProbeEdges(int inner, int index, const std::vector<int>& edges,
                  std::vector<int>* out) const;

  /// Generates every enabled method's candidate for (l, r) into `emitted_`.
  void EmitJoinCandidates(int left_id, int right_id, const Split& split);
  /// Cheapest of `emitted_` (first among equals), or nullptr.
  const Candidate* CheapestEmitted() const;
  /// Cheapest of `set`'s kept candidates: slots are sorted by cost.
  int CheapestOf(JoinSet set) const { return FindSlot(set)->first; }
  /// Cheapest join of arena candidate `left_id` with any kept candidate of
  /// relation `r`; false if none applies.
  bool CheapestJoin(int left_id, int r, Candidate* out);

  /// Adds an emitted candidate to the frontier of the set being built.
  void Offer(const Candidate& cand);
  /// Stores the frontier as `set`'s slot: sorted by cost, capped.
  void KeepFrontier(JoinSet set);

  int Intern(const Candidate& cand);  ///< appends to the arena, returns the id

  std::string SetName(JoinSet set) const;  ///< "{a,b,c}" from the aliases
  /// Human-readable candidate label, e.g. "IndexScan(o via o_pk)" or
  /// "hash({c,o} x {l})".
  std::string CandidateName(const Candidate& cand) const;
  /// Records one decision in options_.trace (no-op when tracing is off or
  /// during worst-case search). `phase` overrides the default
  /// scan→"access_path" / join→"join" classification.
  void TraceCandidate(const Candidate& cand, const char* action, const char* reason,
                      const char* phase = nullptr) const;

  Result<int> RunDp(bool left_deep_only, bool maximize);
  Result<int> RunGreedy();
  Result<int> RunExhaustive();
  Result<int> RunRandom();
  Result<int> RunSimpliSquared();
  /// One left-deep walk: from `start`, repeatedly joins the relation `next`
  /// picks among the unjoined ones (edge-connected ones when any exist),
  /// cheapest method per step. Shared by kRandom and kSimpliSquared.
  template <typename NextFn>
  Result<int> RunLeftDeepWalk(int current, NextFn next, const char* name);

  // --- DPccp ---------------------------------------------------------------
  /// A connected subgraph and a connected complement adjacent to it; the DP
  /// costs both join orders of each pair.
  struct CsgCmpPair {
    uint64_t csg;
    uint64_t cmp;
  };

  /// Neighbors of `set` (members excluded), under `adjacency_`.
  uint64_t Neighborhood(uint64_t set, uint64_t excluded) const;
  /// True if `set` induces a connected subgraph under `adjacency_`.
  bool SubsetConnected(JoinSet set) const;

  /// Emits every csg-cmp pair of the join graph (Moerkotte & Neumann
  /// enumeration). Stops early and returns false once more than
  /// `options_.dp_budget` pairs exist; stats_.csg_cmp_pairs counts either
  /// way.
  bool EnumerateCsgCmpPairs(std::vector<CsgCmpPair>* out);
  void EnumerateCsgRec(uint64_t set, uint64_t excluded, std::vector<CsgCmpPair>* out,
                       bool* over_budget);
  void EmitCsg(uint64_t csg, std::vector<CsgCmpPair>* out, bool* over_budget);
  void EnumerateCmpRec(uint64_t csg, uint64_t cmp, uint64_t excluded,
                       std::vector<CsgCmpPair>* out, bool* over_budget);

  /// The DPccp search proper: assumes a connected graph and an in-budget
  /// pair list; same frontier discipline as RunDp.
  Result<int> RunDpCcp(std::vector<CsgCmpPair> pairs);
  /// kDpCcp's budgeted ladder; clears `dp_table_final` when a rung returns
  /// one plan instead of leaving the full set's candidates in the table.
  Result<int> RunDpCcpLadder(bool* dp_table_final);

  /// Drops the arena and DP table, so a ladder fallback re-seeds from scratch.
  void ResetSearchState();
  /// Records a kDpCcp ladder decision as a "strategy" PlanTrace event.
  void TraceStrategy(JoinEnumAlgorithm strategy, const std::string& reason) const;

  /// Cardinality-feedback signature of joining `left` x `right` over the
  /// given edges and freshly applicable other-conjuncts.
  std::string FeedbackJoinSignature(JoinSet left, JoinSet right, const std::vector<int>& edges,
                                    const std::vector<int>& others) const;

  /// Best arena id among `set`'s candidates honoring `required_order_`
  /// (`order_satisfied` false when a Sort must be added on top).
  Result<int> PickFinal(JoinSet set, bool* order_satisfied) const;

  Result<PhysicalPtr> BuildPlan(int cand_id) const;  ///< for an arena candidate
  Result<PhysicalPtr> BuildJoinPlan(const Candidate& cand) const;

  const QueryGraph* graph_;
  const SelectivityEstimator* estimator_;
  const CostModel* cost_model_;
  JoinEnumOptions options_;
  Rng rng_;

  std::vector<Column> columns_;
  std::vector<Edge> edges_;
  std::vector<Conjunct> conjuncts_;
  std::vector<Relation> rels_;
  std::vector<std::vector<AccessPath>> access_paths_;  // per relation
  /// Interned orders; id 0 is the empty order. Ids below `trimmed_orders_`
  /// are the empty order and the interesting orders, which `satisfies_`
  /// covers; later ids are untrimmed orders of the non-DP strategies.
  std::vector<Order> orders_;
  std::vector<int> interesting_;  ///< trim targets, in preference order
  std::vector<uint8_t> satisfies_;
  size_t trimmed_orders_ = 0;
  int required_order_ = 0;
  /// DP strategies keep trimmed orders; the others keep what a join delivers.
  bool trim_orders_ = true;

  std::vector<Candidate> arena_;
  std::unordered_map<uint64_t, Slot> dp_;  ///< keyed by relation-set bits
  std::vector<Candidate> frontier_;  ///< the set being built (DP)
  std::vector<Candidate> emitted_;   ///< one EmitJoinCandidates call
  Split split_, reverse_split_;
  /// Per-relation adjacency masks of the join graph: plain equi-join edges
  /// plus every other_conjunct's relation set treated as a clique (the
  /// hyperedge relaxation — connectivity may hold without an applicable
  /// predicate; the costing pass re-checks).
  std::vector<uint64_t> adjacency_;
  JoinEnumStats stats_;
  bool maximize_ = false;
};

}  // namespace relopt
