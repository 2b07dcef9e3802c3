// JoinSet: a small fixed-capacity bitset identifying a set of base relations.
#pragma once

#include <cstdint>
#include <string>

namespace relopt {

/// \brief Set of base-relation indices, used as the DP key in join
/// enumeration. Supports up to 64 relations, far above any practical
/// enumeration size; BuildQueryGraph rejects larger join blocks.
class JoinSet {
 public:
  JoinSet() : bits_(0) {}
  explicit JoinSet(uint64_t bits) : bits_(bits) {}

  /// Singleton set {i}.
  static JoinSet Single(int i) { return JoinSet(uint64_t{1} << i); }
  /// Set {0, 1, ..., n-1}.
  static JoinSet AllUpTo(int n) {
    return JoinSet(n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1);
  }

  bool Contains(int i) const { return (bits_ >> i) & 1; }
  bool Empty() const { return bits_ == 0; }
  int Count() const { return __builtin_popcountll(bits_); }
  uint64_t bits() const { return bits_; }

  JoinSet Union(JoinSet other) const { return JoinSet(bits_ | other.bits_); }
  JoinSet Intersect(JoinSet other) const { return JoinSet(bits_ & other.bits_); }
  JoinSet Minus(JoinSet other) const { return JoinSet(bits_ & ~other.bits_); }
  bool Intersects(JoinSet other) const { return (bits_ & other.bits_) != 0; }
  bool IsSubsetOf(JoinSet other) const { return (bits_ & other.bits_) == bits_; }

  JoinSet With(int i) const { return JoinSet(bits_ | (uint64_t{1} << i)); }
  JoinSet Without(int i) const { return JoinSet(bits_ & ~(uint64_t{1} << i)); }

  /// Index of the lowest set bit; undefined on the empty set.
  int Lowest() const { return __builtin_ctzll(bits_); }

  /// Returns the set members as indices, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    uint64_t b = bits_;
    while (b) {
      int i = __builtin_ctzll(b);
      fn(i);
      b &= b - 1;
    }
  }

  bool operator==(const JoinSet& other) const { return bits_ == other.bits_; }
  bool operator!=(const JoinSet& other) const { return bits_ != other.bits_; }
  bool operator<(const JoinSet& other) const { return bits_ < other.bits_; }

  /// "{0,2,5}" for debugging.
  std::string ToString() const;

 private:
  uint64_t bits_;
};

/// Iterates all non-empty proper subsets of `set` (for bushy DP splits).
/// Standard submask enumeration: O(3^n) total across all sets.
class SubsetIterator {
 public:
  explicit SubsetIterator(JoinSet set) : set_(set.bits()), sub_(set.bits() & (set.bits() - 1)) {}

  /// False once exhausted. The full set itself is not produced.
  bool Valid() const { return sub_ != 0; }
  JoinSet Current() const { return JoinSet(sub_); }
  void Next() { sub_ = (sub_ - 1) & set_; }

 private:
  uint64_t set_;
  uint64_t sub_;
};

}  // namespace relopt
