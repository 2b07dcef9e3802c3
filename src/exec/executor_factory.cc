#include "exec/executor_factory.h"

#include <unordered_map>

#include "exec/aggregate.h"
#include "exec/block_nested_loop_join.h"
#include "exec/external_sort.h"
#include "exec/filter.h"
#include "exec/gather.h"
#include "exec/hash_join.h"
#include "exec/index_nested_loop_join.h"
#include "exec/index_scan.h"
#include "exec/limit.h"
#include "exec/project.h"
#include "exec/seq_scan.h"
#include "exec/sort_merge_join.h"
#include "exec/table_function_scan.h"
#include "exec/values_exec.h"
#include "types/key_codec.h"

namespace relopt {

/// \brief The states the workers of one Gather fragment share, one per plan
/// node: the first worker built for a node creates it and the others reuse
/// it, so all workers of a scan pull from one morsel cursor and all workers
/// of a join meet at one barrier.
class SharedStateRegistry {
 public:
  explicit SharedStateRegistry(size_t num_workers) : num_workers_(num_workers) {}

  template <typename State, typename... Args>
  std::shared_ptr<State> Get(const PhysicalNode* node, Args&&... args) {
    std::shared_ptr<ParallelSharedState>& state = states_[node];
    if (state == nullptr) {
      state = std::make_shared<State>(num_workers_, std::forward<Args>(args)...);
    }
    return std::static_pointer_cast<State>(state);
  }

  /// Every state, for the Gather to reset before it launches the workers.
  std::vector<std::shared_ptr<ParallelSharedState>> States() const {
    std::vector<std::shared_ptr<ParallelSharedState>> out;
    for (const auto& [node, state] : states_) out.push_back(state);
    return out;
  }

 private:
  const size_t num_workers_;
  std::unordered_map<const PhysicalNode*, std::shared_ptr<ParallelSharedState>> states_;
};

namespace {

/// Records the node->executor mapping for plan profiling, then passes the
/// executor through.
ExecutorPtr Register(ExecContext* ctx, const PhysicalNode* node, ExecutorPtr exec) {
  ctx->RegisterExecutor(node, exec.get());
  return exec;
}

/// Node `plan`'s state shared with `worker`'s siblings; null for a
/// one-worker build, whose executor makes its own.
template <typename State, typename... Args>
std::shared_ptr<State> SharedState(FragmentWorker worker, const PhysicalNode* plan,
                                   Args&&... args) {
  if (worker.shared == nullptr) return nullptr;
  return worker.shared->Get<State>(plan, std::forward<Args>(args)...);
}

/// True if the subtree rooted at `plan` can run as a parallel fragment:
/// SeqScan (morsel-driven), Filter/Project over a parallelizable child,
/// HashJoin with both children parallelizable, and Aggregate (partitioned,
/// grouped or global) over a parallelizable child. Everything else (index
/// access, sorts, NLJ variants, Values) stays serial above the Gather.
bool SubtreeParallelizable(const PhysicalNode& plan) {
  switch (plan.kind()) {
    case PhysicalNodeKind::kSeqScan:
      return true;
    case PhysicalNodeKind::kFilter:
    case PhysicalNodeKind::kProject:
    case PhysicalNodeKind::kAggregate:
      return SubtreeParallelizable(*plan.child(0));
    case PhysicalNodeKind::kHashJoin:
      return SubtreeParallelizable(*plan.child(0)) && SubtreeParallelizable(*plan.child(1));
    default:
      return false;
  }
}

/// A Gather over `ctx->parallelism()` workers of `plan`, each built by
/// BuildExecutor against one shared-state registry. Each worker executor is
/// registered against its plan node, so EXPLAIN ANALYZE merges per-worker
/// stats per node; the Gather itself is not registered (its row count would
/// double-count the subtree root).
Result<ExecutorPtr> BuildGather(ExecContext* ctx, const PhysicalNode* plan) {
  const size_t n = ctx->parallelism();
  SharedStateRegistry shared(n);
  std::vector<ExecutorPtr> workers;
  workers.reserve(n);
  for (size_t w = 0; w < n; ++w) {
    RELOPT_ASSIGN_OR_RETURN(ExecutorPtr worker,
                            BuildExecutor(ctx, plan, /*allow_parallel=*/false, {&shared, w}));
    workers.push_back(std::move(worker));
  }
  return ExecutorPtr(std::make_unique<GatherExecutor>(ctx, plan->schema(), std::move(workers),
                                                      shared.States()));
}

}  // namespace

Result<ExecutorPtr> BuildExecutor(ExecContext* ctx, const PhysicalNode* plan,
                                  bool allow_parallel, FragmentWorker worker) {
  if (allow_parallel && ctx->parallelism() > 1 && ctx->thread_pool() != nullptr &&
      SubtreeParallelizable(*plan)) {
    return BuildGather(ctx, plan);
  }
  // Children are built for the same worker.
  auto build_child = [&](size_t i, bool may_gather = true) {
    return BuildExecutor(ctx, plan->child(i), allow_parallel && may_gather, worker);
  };
  switch (plan->kind()) {
    case PhysicalNodeKind::kSeqScan: {
      const auto* node = static_cast<const PhysSeqScan*>(plan);
      RELOPT_ASSIGN_OR_RETURN(TableInfo * table, ctx->catalog()->GetTable(node->table_name()));
      return Register(ctx, plan, std::make_unique<SeqScanExecutor>(
          ctx, node->schema(), table, SharedState<MorselSource>(worker, plan, table->heap())));
    }
    case PhysicalNodeKind::kIndexScan: {
      const auto* node = static_cast<const PhysIndexScan*>(plan);
      RELOPT_ASSIGN_OR_RETURN(TableInfo * table, ctx->catalog()->GetTable(node->table_name()));
      RELOPT_ASSIGN_OR_RETURN(IndexInfo * index, ctx->catalog()->GetIndex(node->index_name()));
      KeyRange range = EncodeKeyRange(node->lo_values, node->lo_inclusive, node->hi_values,
                                      node->hi_inclusive, index->key_columns.size());
      return Register(ctx, plan, std::make_unique<IndexScanExecutor>(
          ctx, node->schema(), table, index, std::move(range.lo), range.lo_inclusive,
          std::move(range.hi), range.hi_inclusive, node->residual.get()));
    }
    case PhysicalNodeKind::kFilter: {
      const auto* node = static_cast<const PhysFilter*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr child, build_child(0));
      return Register(ctx, plan,
          std::make_unique<FilterExecutor>(ctx, std::move(child), node->predicate()));
    }
    case PhysicalNodeKind::kProject: {
      const auto* node = static_cast<const PhysProject*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr child, build_child(0));
      return Register(ctx, plan,
          std::make_unique<ProjectExecutor>(ctx, node->schema(), std::move(child), &node->exprs()));
    }
    case PhysicalNodeKind::kNestedLoopJoin:
    case PhysicalNodeKind::kBlockNestedLoopJoin: {
      // A nested-loop join is a block nested-loop join of one-row blocks.
      const Expression* predicate;
      size_t block_pages = 0;
      std::span<const uint32_t> columns;
      if (plan->kind() == PhysicalNodeKind::kNestedLoopJoin) {
        const auto* node = static_cast<const PhysNestedLoopJoin*>(plan);
        predicate = node->predicate();
        columns = node->columns();
      } else {
        const auto* node = static_cast<const PhysBlockNestedLoopJoin*>(plan);
        predicate = node->predicate();
        block_pages = node->block_pages();
        columns = node->columns();
      }
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr outer, build_child(0));
      // The inner is re-Init per outer block; never put a Gather there.
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr inner, build_child(1, false));
      return Register(ctx, plan, std::make_unique<BlockNestedLoopJoinExecutor>(
          ctx, std::move(outer), std::move(inner), predicate, block_pages, columns));
    }
    case PhysicalNodeKind::kIndexNestedLoopJoin: {
      const auto* node = static_cast<const PhysIndexNestedLoopJoin*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr outer, build_child(0));
      RELOPT_ASSIGN_OR_RETURN(TableInfo * table, ctx->catalog()->GetTable(node->inner_table()));
      RELOPT_ASSIGN_OR_RETURN(IndexInfo * index, ctx->catalog()->GetIndex(node->index_name()));
      // The enumerator builds the probe keys as bound outer column references.
      std::vector<size_t> outer_keys;
      for (const ExprPtr& key : node->outer_key_exprs()) {
        const auto& ref = static_cast<const ColumnRefExpr&>(*key);
        outer_keys.push_back(static_cast<size_t>(ref.bound_index()));
      }
      return Register(ctx, plan, std::make_unique<IndexNestedLoopJoinExecutor>(
          ctx, std::move(outer), table, index, node->inner_schema(), std::move(outer_keys),
          node->residual(), node->columns()));
    }
    case PhysicalNodeKind::kSortMergeJoin: {
      const auto* node = static_cast<const PhysSortMergeJoin*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr left, build_child(0));
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr right, build_child(1));
      return Register(ctx, plan, std::make_unique<SortMergeJoinExecutor>(
          ctx, std::move(left), std::move(right), node->left_keys(), node->right_keys(),
          node->residual(), node->columns()));
    }
    case PhysicalNodeKind::kHashJoin: {
      const auto* node = static_cast<const PhysHashJoin*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr build, build_child(0));
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr probe, build_child(1));
      return Register(ctx, plan, std::make_unique<HashJoinExecutor>(
          ctx, std::move(build), std::move(probe), node->build_keys(), node->probe_keys(),
          node->residual(), node->output_probe_first(), node->columns(),
          SharedState<SharedHashJoinState>(worker, plan), worker.index));
    }
    case PhysicalNodeKind::kSort: {
      const auto* node = static_cast<const PhysSort*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr child, build_child(0));
      std::vector<SortKeySpec> keys;
      for (const PhysSort::Key& k : node->keys()) {
        keys.push_back(SortKeySpec{k.expr.get(), k.desc});
      }
      return Register(ctx, plan,
          std::make_unique<ExternalSortExecutor>(ctx, std::move(child), std::move(keys)));
    }
    case PhysicalNodeKind::kAggregate: {
      const auto* node = static_cast<const PhysAggregate*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr child, build_child(0));
      std::vector<const Expression*> group_exprs;
      for (const ExprPtr& g : node->group_by()) group_exprs.push_back(g.get());
      std::vector<AggSpecExec> aggs;
      for (const PhysAggregate::Agg& a : node->aggs()) {
        aggs.push_back(AggSpecExec{a.func, a.arg.get()});
      }
      return Register(ctx, plan, std::make_unique<AggregateExecutor>(
          ctx, node->schema(), std::move(child), std::move(group_exprs), std::move(aggs),
          SharedState<SharedAggregateState>(worker, plan), worker.index));
    }
    case PhysicalNodeKind::kLimit: {
      const auto* node = static_cast<const PhysLimit*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr child, build_child(0));
      return Register(ctx, plan, std::make_unique<LimitExecutor>(ctx, std::move(child), node->limit()));
    }
    case PhysicalNodeKind::kValues: {
      const auto* node = static_cast<const PhysValues*>(plan);
      return Register(ctx, plan, std::make_unique<ValuesExecutor>(ctx, node->schema(), &node->rows()));
    }
    case PhysicalNodeKind::kTableFunctionScan: {
      const auto* node = static_cast<const PhysTableFunctionScan*>(plan);
      return Register(ctx, plan, std::make_unique<TableFunctionScanExecutor>(
          ctx, node->schema(), node->function_name()));
    }
  }
  return Status::Internal("unknown physical node kind");
}

}  // namespace relopt
