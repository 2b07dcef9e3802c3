// Batch (vectorized) expression evaluation over TupleBatch selection vectors.
//
// The engine compiles a bound expression tree once per executor into a
// CompiledExpr kernel tree that evaluates column-at-a-time into typed
// ColumnVec vectors: int64/double/bool payloads live in flat arrays with a
// null byte per row; strings (and adaptively-detected mixed columns) are
// boxed Values. AND/OR/CASE/COALESCE evaluate lazily over shrinking row
// subsets (short-circuit selection compaction), so a row rejected by an
// earlier branch never pays for a later one — the batched equivalent of the
// row evaluator's short circuits, with identical SQL three-valued-logic and
// error semantics.
//
// Any expression kind without a kernel (aggregate calls, unbound parameters)
// routes through a per-row FallbackNode that counts every row it evaluates
// into the owning operator's `fallback_rows` stat and the engine-wide
// `relopt.exec.batch_fallback_rows` counter, so row-at-a-time evaluation is
// observable in EXPLAIN ANALYZE and relopt_metrics().
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/expression.h"
#include "types/tuple_batch.h"
#include "util/result.h"

namespace relopt {

/// \brief Splits a bound predicate into its top-level AND conjuncts,
/// non-owning (the predicate keeps ownership; pointers stay valid as long as
/// it lives). A non-AND predicate is a single conjunct; nullptr yields none.
///
/// Conjunct-wise filtering is equivalent to evaluating the whole AND per row:
/// under SQL three-valued logic a row passes the AND iff every conjunct
/// evaluates to true (any false OR NULL conjunct makes the AND false-or-NULL,
/// which a filter rejects either way).
std::vector<const Expression*> CollectConjuncts(const Expression* pred);

/// \brief A typed column of evaluation results, one entry per requested row.
///
/// Representation: `type` fixes the payload lane — kInt64/kBool in `i64`
/// (bools are 0/1), kDouble in `f64`, kString (or adaptively boxed columns)
/// in `vals`. `nulls[k] != 0` marks NULL. `is_const` broadcasts one physical
/// entry to every logical row (literals). Buffers are reused across batches.
struct ColumnVec {
  TypeId type = TypeId::kInt64;
  bool is_const = false;
  bool boxed = false;
  size_t n = 0;
  std::vector<uint8_t> nulls;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<Value> vals;

  size_t phys(size_t k) const { return is_const ? 0 : k; }
  bool NullAt(size_t k) const { return nulls[phys(k)] != 0; }
  int64_t I64At(size_t k) const { return i64[phys(k)]; }
  double F64At(size_t k) const { return f64[phys(k)]; }
  /// Numeric payload widened to double regardless of lane.
  double NumAt(size_t k) const {
    return type == TypeId::kDouble ? f64[phys(k)] : static_cast<double>(i64[phys(k)]);
  }
  const Value& BoxedAt(size_t k) const { return vals[phys(k)]; }

  /// Materializes row `k` as a Value (scatter/output path).
  Value GetValue(size_t k) const;

  /// Clears to `n` rows of the given shape, all non-null.
  void Reset(TypeId t, bool boxed_storage, size_t num_rows);
};

/// \brief One compiled kernel node. Eval fills `out` with one entry per row
/// of `rows` (physical indices into the batch's row storage — a selection
/// vector or a lazily-compacted subset of one).
///
/// A node instance belongs to one executor and is driven by one thread;
/// scratch vectors inside nodes are reused across batches.
class CompiledExpr {
 public:
  explicit CompiledExpr(TypeId type) : type_(type) {}
  virtual ~CompiledExpr() = default;

  TypeId type() const { return type_; }

  virtual Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
                      uint64_t* fallback_rows, ColumnVec* out) = 0;

 protected:
  TypeId type_;
};

using CompiledExprPtr = std::unique_ptr<CompiledExpr>;

/// \brief Per-row escape hatch for expression kinds without a kernel: runs
/// the row interpreter (Expression::Eval) on every requested row. Every row
/// it touches is charged to `*fallback_rows` and the engine-wide counter, so
/// row-at-a-time evaluation is observable, not silent.
class FallbackNode final : public CompiledExpr {
 public:
  /// `e` must outlive the node.
  explicit FallbackNode(const Expression* e) : CompiledExpr(e->result_type()), e_(e) {}

  Status Eval(const TupleBatch& batch, const std::vector<uint32_t>& rows,
              uint64_t* fallback_rows, ColumnVec* out) override;

 private:
  const Expression* e_;
};

/// Compiles a bound expression into a kernel tree. Unsupported kinds become
/// FallbackNodes (observable, never wrong). Never fails.
CompiledExprPtr CompileExpr(const Expression* expr);

/// \brief Compiled filter predicate: conjunct-wise selection compaction with
/// fused kernels for the hot shapes (`column <op> literal` and
/// `column <op> column` compare straight from tuple storage, no ColumnVec
/// materialization); all other conjuncts run their compiled kernel tree over
/// the surviving selection. Later conjuncts only see survivors.
class BatchPredicate {
 public:
  /// `pred` must be bound (or null = always true) and outlive this object.
  explicit BatchPredicate(const Expression* pred);

  /// Compacts `batch`'s selection to the rows where the predicate is TRUE.
  /// Fallback-evaluated rows are counted into `*fallback_rows` (if non-null).
  Status Filter(TupleBatch* batch, uint64_t* fallback_rows);

 private:
  struct Conjunct {
    const Expression* source;  ///< for fused-path error diagnostics
    // Fused `column <op> literal`.
    bool fused_col_lit = false;
    int lcol = -1;
    CompareOp op = CompareOp::kEq;
    const Value* literal = nullptr;
    // Fused `column <op> column`.
    bool fused_col_col = false;
    int rcol = -1;
    // General path.
    CompiledExprPtr tree;
  };
  std::vector<Conjunct> conjuncts_;
  ColumnVec scratch_;
};

/// \brief Compiled projection: bare bound column references copy straight
/// from storage; every other expression evaluates column-at-a-time through
/// its kernel tree, then scatters into the output batch's reusable tuples.
class BatchProjector {
 public:
  /// `exprs` must be bound and outlive this object.
  explicit BatchProjector(const std::vector<ExprPtr>* exprs);

  /// Projects the selected rows of `in` into `out` (cleared first). `out`
  /// must have capacity >= in.NumSelected().
  Status Project(const TupleBatch& in, TupleBatch* out, uint64_t* fallback_rows);

 private:
  const std::vector<ExprPtr>* exprs_;
  std::vector<int> direct_col_;  ///< bound column index or -1 per expression
  std::vector<CompiledExprPtr> compiled_;
  std::vector<ColumnVec> vecs_;
};

/// \brief Compiled key encoder behind external sort, hash aggregation and
/// DISTINCT: encodes the composite key of every selected row, per
/// expression the order-preserving encoding (types/key_codec.h) of its value
/// (an INT-typed expression's INTs exactly), byte-inverted for a descending
/// sort key. Retains the evaluated key columns, so a group-table miss can
/// materialize the group's key Values without re-evaluating the expressions.
class KeyEncoder {
 public:
  /// `exprs` must be bound and outlive this object. `desc` is empty (all
  /// ascending) or holds one flag per expression.
  explicit KeyEncoder(std::vector<const Expression*> exprs, std::vector<bool> desc = {});

  /// Encodes keys for all selected rows of `batch` into
  /// `keys[0..NumSelected())` (resized; strings reused across calls). Zero
  /// expressions yield empty keys.
  Status Encode(const TupleBatch& batch, std::vector<std::string>* keys,
                uint64_t* fallback_rows);

  /// Value of expression `i` for selected row `k` of the last Encode batch
  /// (which must still be alive).
  Value KeyValue(size_t i, size_t k) const;

 private:
  std::vector<const Expression*> exprs_;
  std::vector<bool> desc_;       ///< per expression: byte-inverted
  std::vector<bool> exact_int_;  ///< per expression: INT-typed
  std::vector<int> direct_col_;
  std::vector<CompiledExprPtr> compiled_;
  std::vector<ColumnVec> vecs_;
  const TupleBatch* last_batch_ = nullptr;
};

/// \brief Batch join-key encoding: computes the composite encoded key of
/// every selected row over fixed key columns in one tight loop. Rows with a
/// NULL key column get nullopt (NULL never matches an equi join). Keys are
/// EncodeKeyValue (types/key_codec.h) of the key values, with
/// `exact_int[i]` for key column `i` (set where both sides' columns are
/// INT); key strings are reused.
Status ComputeJoinKeys(const TupleBatch& batch, const std::vector<size_t>& key_cols,
                       const std::vector<bool>& exact_int,
                       std::vector<std::optional<std::string>>* keys);

}  // namespace relopt
