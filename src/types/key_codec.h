// Order-preserving key encoding: Values -> memcmp-comparable byte strings.
//
// This lets the B+tree (and external sort's run merger) compare composite
// keys of any type with plain memcmp, the classic technique used by storage
// engines (e.g. MyRocks, CockroachDB key encodings).
//
// Encoding per value:
//   NULL    -> 0x00
//   bool    -> 0x01 then 0x00/0x01
//   numeric -> 0x02 then 8-byte big-endian "rank" of the double value
//              (int64 encodes as the same rank as its double value, so mixed
//               int/double composite keys order correctly; -0.0 encodes as
//               0.0, which Value::Compare calls equal)
//   exact int -> an INT beyond +-2^53, in a key position where every value
//              compared is INT: 0x01 (negative) or 0x03 (positive), then the
//              sign-flipped 8-byte big-endian int64. Such a position holds no
//              bool or string, and |i| <= 2^53 keeps the numeric form, whose
//              rank is exact there; so distinct INTs get distinct bytes in
//              numeric order, as Value::Compare orders them
//   string  -> 0x03 then bytes with 0x00 escaped as 0x00 0xFF, terminated by
//              0x00 0x00 (standard escape so 'a' < 'ab' and embedded NULs work)
//
// NULL sorts before everything, matching Value::Compare.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "types/tuple.h"
#include "types/value.h"

namespace relopt {

/// True for an INT beyond +-2^53, which the numeric form ranks as the double
/// it shares with other INTs.
bool IsBigInt(const Value& v);

/// Appends the order-preserving encoding of `v` to `out`. `exact_int`
/// gives an INT beyond +-2^53 its exact form; pass it only for a key position
/// where every value compared is INT (B+tree keys never pass it).
void EncodeKeyValue(const Value& v, std::string* out, bool exact_int = false);

/// Encodes a composite key.
std::string EncodeKey(const std::vector<Value>& values);

/// Encodes a composite key from selected columns of a tuple.
std::string EncodeKeyFromTuple(const Tuple& tuple, const std::vector<size_t>& key_columns);

/// Successor of a key prefix: smallest string strictly greater than every
/// string having `prefix` as a prefix (appends 0xFF... semantics via
/// increment). Used for prefix range scans.
std::string PrefixSuccessor(std::string prefix);

/// Encoded bounds of an index scan; nullopt = open on that side.
struct KeyRange {
  std::optional<std::string> lo;
  bool lo_inclusive = true;
  std::optional<std::string> hi;
  bool hi_inclusive = true;
};

/// The encoded range of every index path: `lo` and `hi` are values of a
/// prefix of the index's `num_key_columns` key columns (empty = open). A
/// bound on a shorter prefix covers every longer key with that prefix, so
/// an exclusive lower and an inclusive upper bound there move to the prefix
/// successor; with no successor, the first gives an empty range and the
/// second an open end.
KeyRange EncodeKeyRange(const std::vector<Value>& lo, bool lo_inclusive,
                        const std::vector<Value>& hi, bool hi_inclusive, size_t num_key_columns);

}  // namespace relopt
