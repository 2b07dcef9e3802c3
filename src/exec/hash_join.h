// Hash join, run as one worker of n: a partitioned in-memory build, and at
// one worker Grace partitioning when the build side does not fit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exec/executor.h"
#include "exec/gather.h"
#include "exec/group_table.h"
#include "expr/vector_eval.h"

namespace relopt {

/// \brief The build rows of one hash-join partition in one flat table.
///
/// Layout: row `i`'s values sit at `[i * width, (i + 1) * width)` of one
/// Value array (moved in from the build batches, so the batch slots keep
/// their storage); its encoded key sits in one byte arena, and one entry
/// holds the key's bounds, its GroupTable::Hash and the row's chain link.
/// Index() sizes a power-of-two bucket array over row indices, picking a
/// bucket by the low hash bits (partitions use the high ones,
/// GroupTable::PartitionOf), and pushes each row on its bucket's chain, so a
/// chain lists rows in reverse insertion order. The probe walks a chain in
/// place, comparing the hash and then the key bytes. Row ids are `size_t`
/// indices into these arrays, so they cannot wrap.
class JoinTable {
 public:
  /// The end of a chain.
  static constexpr size_t kEnd = SIZE_MAX;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Appends a build row, moving its values out of `row` (which keeps its
  /// capacity), with its encoded key and that key's hash.
  void Add(Tuple* row, std::string_view key, uint64_t hash);
  /// Moves every row of `other` to the end of this table and clears it.
  void Absorb(JoinTable* other);
  /// Chains every row into its bucket. Rows added afterwards are unindexed
  /// until the next Index().
  void Index();
  /// Forgets every row; the arrays keep their capacity.
  void Clear();

  /// The first indexed row whose key is `key` (with hash `hash`), or kEnd.
  size_t Find(std::string_view key, uint64_t hash) const {
    return Match(buckets_[hash & mask_], key, hash);
  }
  /// The next row after `row` on its chain whose key is `key`, or kEnd.
  size_t FindNext(size_t row, std::string_view key, uint64_t hash) const {
    return Match(entries_[row].next, key, hash);
  }

  std::span<const Value> row(size_t i) const {
    return std::span<const Value>(values_).subspan(i * width_, width_);
  }
  uint64_t hash(size_t i) const { return entries_[i].hash; }

 private:
  struct Entry {
    uint64_t hash;
    size_t key_begin;
    size_t key_end;
    size_t next;  ///< the next row on this row's bucket chain, or kEnd
  };

  std::string_view KeyAt(size_t i) const {
    return std::string_view(keys_).substr(entries_[i].key_begin,
                                          entries_[i].key_end - entries_[i].key_begin);
  }
  /// The first row from `i` on along a chain whose key is `key`, or kEnd.
  size_t Match(size_t i, std::string_view key, uint64_t hash) const {
    while (i != kEnd && (entries_[i].hash != hash || KeyAt(i) != key)) i = entries_[i].next;
    return i;
  }

  size_t width_ = 0;  ///< values per row
  std::vector<Value> values_;
  std::string keys_;
  std::vector<Entry> entries_;
  std::vector<size_t> buckets_ = {kEnd};  ///< chain heads; one empty bucket until Index()
  size_t mask_ = 0;
};

/// \brief State shared by the workers of one hash join.
///
/// Layout: `partition(w, p)` holds the rows worker `w` routed to partition
/// `p` (by the high hash bits) while draining its build input; after the
/// first barrier, worker `k` moves column `k` of that matrix into
/// `table(k)` and indexes it. After the second barrier every table is
/// read-only and probed lock-free. The number of partitions equals the
/// number of workers; one worker's only partition is its table, so its rows
/// are indexed where they landed.
class SharedHashJoinState : public PhasedSharedState {
 public:
  using PhasedSharedState::PhasedSharedState;

  /// Clears partitions, tables, and the error slot.
  void Reset() override {
    const size_t n = num_workers();
    partitions_.assign(n == 1 ? 0 : n * n, JoinTable{});
    tables_.assign(n, JoinTable{});
    ClearError();
  }

  /// The partition of a join key's hash.
  size_t PartitionOf(uint64_t hash) const { return GroupTable::PartitionOf(hash, num_workers()); }
  JoinTable& partition(size_t w, size_t p) {
    return num_workers() == 1 ? tables_[0] : partitions_[w * num_workers() + p];
  }
  JoinTable& table(size_t p) { return tables_[p]; }

 private:
  std::vector<JoinTable> partitions_;  ///< n x n, row-major by worker; none at one worker
  std::vector<JoinTable> tables_;
};

/// \brief Equi-join by hashing, as worker `w` of `n`. The first child is the
/// build side. Rows with NULL keys never match.
///
/// Init is SPMD: each worker partitions its build input by key hash, a
/// barrier, each worker builds one partition's table, a barrier, then every
/// worker probes with its own probe input. Every worker reaches both
/// barriers on every path (errors included), so errors are parked in the
/// shared state and re-raised after the second barrier. The Gather runs
/// exactly `n` siblings concurrently.
///
/// The one-worker join owns its state. If its build side exceeds the
/// operator memory budget, both sides are partitioned to scratch heaps by
/// key hash (Grace hash join) and each partition pair is joined in memory —
/// the partition writes and re-reads go through the buffer pool, so measured
/// I/O matches the classic 3(P_build + P_probe) shape. The parallel join is
/// in-memory only.
class HashJoinExecutor : public Executor {
 public:
  /// A null `shared` makes the one-worker join; otherwise this is worker
  /// `worker` of the siblings sharing `shared`.
  HashJoinExecutor(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                   std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                   const Expression* residual, bool output_probe_first,
                   std::shared_ptr<SharedHashJoinState> shared = nullptr, size_t worker = 0);

  Status InitImpl() override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  void Abandon() override {
    build_->Abandon();
    probe_->Abandon();
  }

 private:
  /// Drains the build input into this worker's partition row. `*bytes` sums
  /// the in-memory size of every build row, NULL keys included.
  Status PartitionBuildSide(size_t* bytes);
  /// Moves partition column `worker_` into `shared_->table(worker_)` and
  /// indexes it.
  void BuildTable();
  /// Grace: writes the one worker's build rows and the whole probe input to
  /// `num_spill_parts_` scratch heap pairs by key hash, then loads the first
  /// partition.
  Status Spill();
  /// Loads spill partition `part_idx_`'s build rows into `shared_->table(0)`
  /// and opens its probe heap (skipping partitions empty on both sides).
  Status LoadPartition();
  /// Refills `probe_batch_` and its keys: from the probe child in memory, or
  /// from the current partition's probe heap under Grace (a batch never
  /// spans partitions). False once the probe side is exhausted.
  Result<bool> RefillProbeBatch();
  /// Fills `out` with candidate pairs of equal keys; false once the probe
  /// side is exhausted.
  Result<bool> NextCandidates(TupleBatch* out);

  ExecutorPtr build_;
  ExecutorPtr probe_;
  std::vector<size_t> build_keys_;
  std::vector<size_t> probe_keys_;
  std::vector<bool> exact_int_;  ///< per key pair: INT on both sides
  BatchPredicate residual_;
  bool output_probe_first_;
  std::shared_ptr<SharedHashJoinState> shared_;
  size_t worker_;

  // Probe state: probe keys are encoded for the whole batch up front, then
  // each probe row's chain is walked in place into the output batch.
  TupleBatch probe_batch_;
  std::vector<std::optional<std::string>> batch_keys_;
  size_t probe_pos_ = 0;        ///< next unprobed row in probe_batch_
  bool probe_done_ = false;     ///< the probe source has no more rows
  size_t probe_k_ = 0;          ///< the probe row whose chain is walked
  uint64_t probe_hash_ = 0;     ///< its key's hash
  const JoinTable* match_table_ = nullptr;  ///< the table its chain is in
  size_t match_ = JoinTable::kEnd;          ///< next matching row on the chain

  // Grace state.
  bool grace_ = false;
  size_t num_spill_parts_ = 0;
  std::vector<HeapFile> build_parts_;
  std::vector<HeapFile> probe_parts_;
  size_t part_idx_ = 0;
  std::unique_ptr<HeapFile::PageCursor> part_probe_cursor_;  ///< the partition's probe heap
};

}  // namespace relopt
