// GroupTable: the one hash table behind serial and parallel hash aggregation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "expr/expression.h"
#include "types/tuple.h"
#include "util/result.h"

namespace relopt {

/// One aggregate to compute at execution time.
struct AggSpecExec {
  AggFunc func;
  const Expression* arg;  // null for COUNT(*)
};

/// \brief One scalar in 16 bytes: NULL (keeping its type), bool, int64,
/// double, or a string held in the owning GroupTable's string pool.
struct GroupCell {
  union {
    int64_t i = 0;  ///< int64, and bool as 0/1
    double d;
    uint64_t str;  ///< index into the owning table's string pool
  };
  TypeId type = TypeId::kInt64;
  bool is_null = false;
};

/// \brief Running state of one aggregate within one group, 24 bytes.
///
/// `count` is COUNT's result, AVG's denominator, and "a non-NULL input was
/// seen" for SUM/MIN/MAX. `value` is SUM/AVG's running sum — a checked int64
/// until a double input switches it to double (AVG also widens on overflow;
/// SUM reports OutOfRange instead) — or MIN/MAX's current extreme. A
/// zero-initialized record is the empty state of every aggregate function.
struct AggState {
  int64_t count = 0;
  GroupCell value;
};

/// \brief Open-addressing hash table from encoded group key to a dense group
/// id, plus the flat per-group storage that id indexes.
///
/// Layout: a power-of-two slot array (linear probing, at most half full)
/// holds {group id, high 32 hash bits}; per group there is one 64-bit hash,
/// the encoded key bytes in an append-only arena, `num_keys` key cells and
/// one AggState per aggregate, each in a flat array indexed by id. So a group
/// costs no heap allocation of its own; string key values and string MIN/MAX
/// extremes live in a string pool and are the only exception.
///
/// The slot index uses the low hash bits and PartitionOf the high ones, so
/// the parallel workers' partitions do not all crowd the same slots. Groups
/// keep their insertion order as ids; IdsInKeyOrder gives ascending encoded
/// key order (NULL first — the serial executor's documented output order).
///
/// Accumulate/MergeFrom/Emit reproduce the SQL aggregate semantics: NULL
/// inputs are skipped by the caller, COUNT(*) counts rows, SUM/AVG/MIN/MAX
/// over zero non-NULL inputs yield NULL, MIN/MAX compare like
/// Value::Compare, and merging partial states of one group is associative
/// and commutative with accumulating its rows.
class GroupTable {
 public:
  GroupTable() = default;
  GroupTable(size_t num_keys, const std::vector<AggSpecExec>& aggs);

  /// Hash of an encoded group key; computed once per row by the caller.
  static uint64_t Hash(std::string_view key);
  /// Partition of `hash` among `n` partitions, from the high hash bits.
  static size_t PartitionOf(uint64_t hash, size_t n) {
    return static_cast<size_t>(((hash >> 32) * n) >> 32);
  }

  size_t size() const { return hashes_.size(); }
  bool empty() const { return hashes_.empty(); }

  /// Returns the id of the group with encoded key `key` (whose Hash is
  /// `hash`), inserting it on a miss with key cell `i` taken from
  /// `key_value(i)` — so key values are materialized once per group.
  template <typename KeyValueFn>
  uint32_t FindOrInsert(std::string_view key, uint64_t hash, KeyValueFn&& key_value) {
    size_t slot = Probe(key, hash);
    if (slots_[slot].id != kEmpty) return slots_[slot].id;
    uint32_t id = Insert(slot, key, hash);
    for (size_t i = 0; i < num_keys_; ++i) keys_.push_back(ToCell(key_value(i)));
    return id;
  }

  /// Inserts the empty-key group a global aggregate emits over empty input.
  void AddDefaultGroup();

  /// The `num_aggs` accumulators of group `id`. Valid until the next insert.
  AggState* states(uint32_t id) { return states_.data() + size_t{id} * num_aggs_; }

  /// Folds one non-NULL input of aggregate `func` into `s` (a state of this
  /// table). The typed overloads are the batch fast paths.
  Status Accumulate(AggFunc func, const Value& v, AggState* s);
  Status AccumulateInt(AggFunc func, int64_t v, AggState* s);
  Status AccumulateDouble(AggFunc func, double v, AggState* s);

  /// Folds every group of `other` into this table, reusing the stored
  /// hashes. Both tables must aggregate the same functions.
  Status MergeFrom(const GroupTable& other);

  /// Appends group `id`'s key values and finalized aggregates to `out`.
  Status Emit(uint32_t id, Tuple* out) const;

  /// Group ids in ascending encoded-key order.
  std::vector<uint32_t> IdsInKeyOrder() const;

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint32_t id = kEmpty;
    uint32_t tag = 0;  ///< high 32 hash bits
  };

  std::string_view KeyAt(uint32_t id) const {
    return std::string_view(arena_).substr(key_offsets_[id],
                                           key_offsets_[id + 1] - key_offsets_[id]);
  }
  /// The slot holding `key`, or the empty slot where it belongs.
  size_t Probe(std::string_view key, uint64_t hash) const;
  /// Appends a group with empty accumulators at empty slot `slot`, growing
  /// the slot array past half full. The caller appends the key cells.
  uint32_t Insert(size_t slot, std::string_view key, uint64_t hash);
  void Grow();

  GroupCell ToCell(const Value& v);
  Value CellValue(const GroupCell& c) const;
  /// Overwrites extreme `*c` with non-NULL `v` of the aggregate's type,
  /// reusing its string pool entry if it has one.
  void StoreCell(const Value& v, GroupCell* c);
  /// Value::Compare(v, c) for a non-NULL `v` and `c` of one type, which
  /// the binder settles: an aggregate's inputs all have its argument's type.
  int CompareToCell(const Value& v, const GroupCell& c) const;
  Status AddIntSum(AggFunc func, int64_t addend, AggState* s);
  Status MergeState(AggFunc func, const GroupTable& from, const AggState& src, AggState* dst);
  Result<Value> Finalize(AggFunc func, const AggState& s) const;

  size_t num_keys_ = 0;
  size_t num_aggs_ = 0;
  std::vector<AggFunc> funcs_;

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  std::vector<uint64_t> hashes_;
  std::string arena_;
  std::vector<size_t> key_offsets_;  ///< group i's key is [off[i], off[i+1])
  std::vector<GroupCell> keys_;      ///< num_keys_ per group
  std::vector<AggState> states_;     ///< num_aggs_ per group
  std::vector<std::string> strings_;
};

}  // namespace relopt
