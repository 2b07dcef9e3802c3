#include "types/key_codec.h"

#include <cstring>

namespace relopt {

namespace {
constexpr char kNullTag = 0x00;
constexpr char kBoolTag = 0x01;
constexpr char kNumTag = 0x02;
constexpr char kStrTag = 0x03;
// Exact INT keys share the bool and string tags' bytes: an exact-INT key
// position holds neither.
constexpr char kBigNegIntTag = kNumTag - 1;
constexpr char kBigPosIntTag = kNumTag + 1;

/// Maps a double to a uint64 whose unsigned big-endian byte order matches the
/// double's numeric order (IEEE-754 total-order trick; NaNs map above +inf).
uint64_t DoubleToRank(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 equals 0.0
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  if (bits & (uint64_t{1} << 63)) {
    return ~bits;  // negative: flip all bits
  }
  return bits | (uint64_t{1} << 63);  // positive: set sign bit
}

void AppendBigEndian64(uint64_t v, std::string* out) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (56 - 8 * i));
  out->append(bytes, sizeof(bytes));
}
}  // namespace

bool IsBigInt(const Value& v) {
  // Every INT of magnitude up to 2^53 is a double exactly.
  constexpr int64_t kMaxExactDoubleInt = int64_t{1} << 53;
  return !v.is_null() && v.type() == TypeId::kInt64 &&
         (v.AsInt() > kMaxExactDoubleInt || v.AsInt() < -kMaxExactDoubleInt);
}

void EncodeKeyValue(const Value& v, std::string* out, bool exact_int) {
  if (v.is_null()) {
    out->push_back(kNullTag);
    return;
  }
  switch (v.type()) {
    case TypeId::kBool:
      out->push_back(kBoolTag);
      out->push_back(v.AsBool() ? 1 : 0);
      return;
    case TypeId::kInt64:
      if (exact_int && IsBigInt(v)) {
        out->push_back(v.AsInt() < 0 ? kBigNegIntTag : kBigPosIntTag);
        AppendBigEndian64(static_cast<uint64_t>(v.AsInt()) ^ (uint64_t{1} << 63), out);
        return;
      }
      [[fallthrough]];
    case TypeId::kDouble: {
      out->push_back(kNumTag);
      AppendBigEndian64(DoubleToRank(v.NumericAsDouble()), out);
      return;
    }
    case TypeId::kString: {
      out->push_back(kStrTag);
      for (char c : v.AsString()) {
        if (c == '\0') {
          out->push_back('\0');
          out->push_back(static_cast<char>(0xFF));
        } else {
          out->push_back(c);
        }
      }
      out->push_back('\0');
      out->push_back('\0');
      return;
    }
  }
}

std::string EncodeKey(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) EncodeKeyValue(v, &out);
  return out;
}

std::string EncodeKeyFromTuple(const Tuple& tuple, const std::vector<size_t>& key_columns) {
  std::string out;
  for (size_t c : key_columns) EncodeKeyValue(tuple.At(c), &out);
  return out;
}

std::string PrefixSuccessor(std::string prefix) {
  while (!prefix.empty()) {
    unsigned char last = static_cast<unsigned char>(prefix.back());
    if (last != 0xFF) {
      prefix.back() = static_cast<char>(last + 1);
      return prefix;
    }
    prefix.pop_back();
  }
  return prefix;  // empty: no successor (scan to end)
}

KeyRange EncodeKeyRange(const std::vector<Value>& lo, bool lo_inclusive,
                        const std::vector<Value>& hi, bool hi_inclusive, size_t num_key_columns) {
  KeyRange range{std::nullopt, lo_inclusive, std::nullopt, hi_inclusive};
  if (!lo.empty()) range.lo = EncodeKey(lo);
  if (!hi.empty()) range.hi = EncodeKey(hi);
  if (!hi.empty() && hi.size() < num_key_columns && hi_inclusive) {
    std::string succ = PrefixSuccessor(std::move(*range.hi));
    range.hi = succ.empty() ? std::nullopt : std::optional<std::string>(std::move(succ));
    range.hi_inclusive = false;
  }
  if (!lo.empty() && lo.size() < num_key_columns && !lo_inclusive) {
    range.lo = PrefixSuccessor(std::move(*range.lo));
    range.lo_inclusive = true;
    if (range.lo->empty()) {  // no key follows the prefix: [lo, lo) is empty
      range.hi = range.lo;
      range.hi_inclusive = false;
    }
  }
  return range;
}

}  // namespace relopt
