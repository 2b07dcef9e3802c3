// Hash join: in-memory when the build side fits, Grace partitioning when not.
#pragma once

#include <optional>
#include <unordered_map>

#include "exec/executor.h"

namespace relopt {

/// \brief Equi-join by hashing. The first child is the build side.
///
/// If the build side exceeds the operator memory budget, both sides are
/// partitioned to scratch heaps by key hash (Grace hash join) and each
/// partition pair is joined in memory — the partition writes and re-reads go
/// through the buffer pool, so measured I/O matches the classic
/// 3(P_build + P_probe) shape. Rows with NULL keys never match.
class HashJoinExecutor : public Executor {
 public:
  HashJoinExecutor(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                   std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                   const Expression* residual, bool output_probe_first);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  static Schema MakeOutputSchema(const Executor& build, const Executor& probe,
                                 bool output_probe_first);

  /// Writes the keyed build rows and the whole probe input to `num_parts_`
  /// scratch heap pairs by key hash, then loads the first partition.
  Status Partition(std::vector<Tuple>* build_rows,
                   std::vector<std::optional<std::string>>* build_keys);
  /// Loads partition `part_idx_`'s build rows into `table_` and opens its
  /// probe heap (skipping partitions that are empty on both sides).
  Status LoadPartition();
  /// Refills `probe_batch_` and its keys: from the probe child in memory, or
  /// from the current partition's probe heap under Grace (a batch never
  /// spans partitions). False once the probe side is exhausted.
  Result<bool> RefillProbeBatch();

  ExecutorPtr build_;
  ExecutorPtr probe_;
  std::vector<size_t> build_keys_;
  std::vector<size_t> probe_keys_;
  const Expression* residual_;
  bool output_probe_first_;

  // Probe state: probe keys are encoded for the whole batch up front, then
  // each probe row's match list is drained into the output batch.
  std::unordered_multimap<std::string, Tuple> table_;
  TupleBatch probe_batch_;
  std::vector<std::optional<std::string>> batch_keys_;
  size_t probe_pos_ = 0;        ///< next unprobed row in probe_batch_
  bool probe_done_ = false;     ///< the probe source has no more rows
  const Tuple* probe_row_ = nullptr;  ///< probe row owning matches_
  std::vector<const Tuple*> matches_;
  size_t match_idx_ = 0;

  // Grace state.
  bool grace_ = false;
  size_t num_partitions_ = 0;
  std::vector<HeapFile> build_parts_;
  std::vector<HeapFile> probe_parts_;
  size_t part_idx_ = 0;
  std::unique_ptr<HeapFile::Iterator> part_probe_iter_;
};

}  // namespace relopt
