// Property tests for the order-preserving key codec: encoded byte order must
// match Value::Compare order for every supported type and composite.
#include <gtest/gtest.h>

#include <algorithm>

#include "types/key_codec.h"
#include "util/rng.h"

namespace relopt {
namespace {

std::string Enc(const Value& v) {
  std::string out;
  EncodeKeyValue(v, &out);
  return out;
}

int Sign(int x) { return x < 0 ? -1 : (x > 0 ? 1 : 0); }

void ExpectOrderPreserved(const Value& a, const Value& b) {
  Result<int> cmp = a.Compare(b);
  ASSERT_TRUE(cmp.ok());
  int enc_cmp = Enc(a).compare(Enc(b));
  EXPECT_EQ(Sign(*cmp), Sign(enc_cmp)) << a.ToString() << " vs " << b.ToString();
}

TEST(KeyCodecTest, IntOrdering) {
  std::vector<int64_t> ints = {-1000000, -2, -1, 0, 1, 2, 7, 4096, 1000000};
  for (size_t i = 0; i < ints.size(); ++i) {
    for (size_t j = 0; j < ints.size(); ++j) {
      ExpectOrderPreserved(Value::Int(ints[i]), Value::Int(ints[j]));
    }
  }
}

TEST(KeyCodecTest, DoubleOrdering) {
  std::vector<double> doubles = {-1e18, -3.5, -0.0001, 0.0, 0.0001, 1.0, 3.5, 1e18};
  for (size_t i = 0; i < doubles.size(); ++i) {
    for (size_t j = 0; j < doubles.size(); ++j) {
      ExpectOrderPreserved(Value::Double(doubles[i]), Value::Double(doubles[j]));
    }
  }
}

TEST(KeyCodecTest, MixedNumericOrdering) {
  ExpectOrderPreserved(Value::Int(2), Value::Double(2.5));
  ExpectOrderPreserved(Value::Double(-0.5), Value::Int(0));
  ExpectOrderPreserved(Value::Int(3), Value::Double(3.0));
}

TEST(KeyCodecTest, NegativeZeroEncodesAsZero) {
  EXPECT_EQ(Enc(Value::Double(-0.0)), Enc(Value::Double(0.0)));
  ExpectOrderPreserved(Value::Double(-0.0), Value::Double(0.0));
  ExpectOrderPreserved(Value::Double(-0.0), Value::Int(0));
}

TEST(KeyCodecTest, ExactIntsOrderLikeCompareBeyond2To53) {
  const int64_t e = int64_t{1} << 53;
  std::vector<int64_t> ints = {INT64_MIN, -e * 4 - 1, -e - 1, -e, -e + 1, -1, 0, 1,
                               e - 1,     e,          e + 1,  e + 2, e * 4 + 1, INT64_MAX};
  for (int64_t a : ints) {
    for (int64_t b : ints) {
      std::string ea, eb;
      EncodeKeyValue(Value::Int(a), &ea, /*exact_int=*/true);
      EncodeKeyValue(Value::Int(b), &eb, /*exact_int=*/true);
      EXPECT_EQ(Sign(ea.compare(eb)), a < b ? -1 : (a > b ? 1 : 0)) << a << " vs " << b;
    }
  }
  // Within +-2^53 the exact form is the numeric one, and NULL still sorts first.
  std::string exact, plain;
  EncodeKeyValue(Value::Int(e), &exact, /*exact_int=*/true);
  EncodeKeyValue(Value::Int(e), &plain);
  EXPECT_EQ(exact, plain);
  std::string null_key, min_key;
  EncodeKeyValue(Value::Null(), &null_key, /*exact_int=*/true);
  EncodeKeyValue(Value::Int(INT64_MIN), &min_key, /*exact_int=*/true);
  EXPECT_LT(null_key, min_key);
}

TEST(KeyCodecTest, StringOrdering) {
  std::vector<std::string> strs = {"", "a", "aa", "ab", "b", "ba", "zzz"};
  for (size_t i = 0; i < strs.size(); ++i) {
    for (size_t j = 0; j < strs.size(); ++j) {
      ExpectOrderPreserved(Value::String(strs[i]), Value::String(strs[j]));
    }
  }
}

TEST(KeyCodecTest, StringWithEmbeddedNulOrdersCorrectly) {
  // "a" < "a\0" < "a\0x" < "ab"
  Value a = Value::String("a");
  Value a0 = Value::String(std::string("a\0", 2));
  Value a0x = Value::String(std::string("a\0x", 3));
  Value ab = Value::String("ab");
  ExpectOrderPreserved(a, a0);
  ExpectOrderPreserved(a0, a0x);
  ExpectOrderPreserved(a0x, ab);
  EXPECT_LT(Enc(a), Enc(a0));
  EXPECT_LT(Enc(a0), Enc(a0x));
  EXPECT_LT(Enc(a0x), Enc(ab));
}

TEST(KeyCodecTest, NullSortsBeforeEverything) {
  EXPECT_LT(Enc(Value::Null()), Enc(Value::Int(INT64_MIN + 1)));
  EXPECT_LT(Enc(Value::Null()), Enc(Value::String("")));
  EXPECT_LT(Enc(Value::Null()), Enc(Value::Bool(false)));
}

TEST(KeyCodecTest, BoolOrdering) {
  EXPECT_LT(Enc(Value::Bool(false)), Enc(Value::Bool(true)));
}

TEST(KeyCodecTest, CompositeKeysOrderLexicographically) {
  std::string k1 = EncodeKey({Value::Int(1), Value::String("b")});
  std::string k2 = EncodeKey({Value::Int(1), Value::String("c")});
  std::string k3 = EncodeKey({Value::Int(2), Value::String("a")});
  EXPECT_LT(k1, k2);
  EXPECT_LT(k2, k3);
}

TEST(KeyCodecTest, CompositeShorterStringDoesNotBleedIntoNextColumn) {
  // ("a", 2) must sort before ("ab", 1): column 1 decides.
  std::string k1 = EncodeKey({Value::String("a"), Value::Int(2)});
  std::string k2 = EncodeKey({Value::String("ab"), Value::Int(1)});
  EXPECT_LT(k1, k2);
}

TEST(KeyCodecTest, EncodeKeyFromTuple) {
  Tuple t({Value::Int(5), Value::String("x"), Value::Double(1.5)});
  EXPECT_EQ(EncodeKeyFromTuple(t, {0, 2}), EncodeKey({Value::Int(5), Value::Double(1.5)}));
  EXPECT_EQ(EncodeKeyFromTuple(t, {1}), EncodeKey({Value::String("x")}));
}

TEST(KeyCodecTest, PrefixSuccessorBounds) {
  EXPECT_EQ(PrefixSuccessor("abc"), "abd");
  std::string with_ff = std::string("a") + std::string(1, static_cast<char>(0xFF));
  EXPECT_EQ(PrefixSuccessor(with_ff), "b");
  // All-0xFF has no successor -> empty (unbounded).
  EXPECT_EQ(PrefixSuccessor(std::string(3, static_cast<char>(0xFF))), "");
}

TEST(KeyCodecTest, RandomizedSortConsistency) {
  // Sorting random values by encoded key must equal sorting by Compare.
  Rng rng(99);
  std::vector<Value> values;
  for (int i = 0; i < 300; ++i) {
    switch (rng.UniformInt(0, 2)) {
      case 0:
        values.push_back(Value::Int(rng.UniformInt(-1000, 1000)));
        break;
      case 1:
        values.push_back(Value::Double(rng.UniformDouble() * 200 - 100));
        break;
      default:
        values.push_back(Value::Int(rng.UniformInt(-5, 5)));
    }
  }
  std::vector<Value> by_compare = values;
  std::sort(by_compare.begin(), by_compare.end(),
            [](const Value& a, const Value& b) { return *a.Compare(b) < 0; });
  std::vector<Value> by_key = values;
  std::sort(by_key.begin(), by_key.end(),
            [](const Value& a, const Value& b) { return Enc(a) < Enc(b); });
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(*by_compare[i].Compare(by_key[i]), 0) << "at " << i;
  }
}

}  // namespace
}  // namespace relopt
