#include "types/value.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "util/str_util.h"

namespace relopt {

namespace {
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt = 2;
constexpr uint8_t kTagDouble = 3;
constexpr uint8_t kTagString = 4;

void AppendFixed(std::string* out, const void* p, size_t n) {
  out->append(reinterpret_cast<const char*>(p), n);
}
}  // namespace

Result<int> Value::Compare(const Value& other) const {
  // NULLs sort first; two NULLs are equal for ordering purposes.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    if (type_ == TypeId::kInt64 && other.type_ == TypeId::kInt64) {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = NumericAsDouble(), b = other.NumericAsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type_ != other.type_) {
    return Status::TypeError(std::string("cannot compare ") + TypeIdToString(type_) + " with " +
                             TypeIdToString(other.type_));
  }
  switch (type_) {
    case TypeId::kBool: {
      int a = AsBool() ? 1 : 0, b = other.AsBool() ? 1 : 0;
      return a - b;
    }
    case TypeId::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return Status::Internal("unreachable compare");
  }
}

bool Value::Equals(const Value& other) const {
  Result<int> c = Compare(other);
  return c.ok() && *c == 0;
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b9;
  switch (type_) {
    case TypeId::kBool:
      return AsBool() ? 0x1234567 : 0x89abcdef;
    case TypeId::kInt64:
      return std::hash<double>()(static_cast<double>(AsInt()));
    case TypeId::kDouble:
      return std::hash<double>()(AsDouble());
    case TypeId::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  switch (type_) {
    case TypeId::kBool:
      return AsBool() ? "true" : "false";
    case TypeId::kInt64:
      return std::to_string(AsInt());
    case TypeId::kDouble:
      return FormatDouble(AsDouble());
    case TypeId::kString:
      return "'" + EscapeSqlString(AsString()) + "'";
  }
  return "?";
}

Result<Value> Value::CastTo(TypeId target) const {
  if (is_null()) return Value::Null(target);
  if (type_ == target) return *this;
  switch (target) {
    case TypeId::kInt64:
      if (type_ == TypeId::kDouble) {
        // Truncates toward zero. 2^63 is exact as a double; NaN fails both tests.
        const double d = AsDouble();
        if (!(d >= -0x1p63 && d < 0x1p63)) {
          return Status::OutOfRange("double " + FormatDouble(d) + " is out of int64 range");
        }
        return Value::Int(static_cast<int64_t>(d));
      }
      if (type_ == TypeId::kBool) return Value::Int(AsBool() ? 1 : 0);
      if (type_ == TypeId::kString) {
        errno = 0;
        char* end = nullptr;
        long long v = std::strtoll(AsString().c_str(), &end, 10);
        if (end == AsString().c_str() || *end != '\0' || errno == ERANGE) {
          return Status::TypeError("cannot cast '" + AsString() + "' to int64");
        }
        return Value::Int(v);
      }
      break;
    case TypeId::kDouble:
      if (type_ == TypeId::kInt64) return Value::Double(static_cast<double>(AsInt()));
      if (type_ == TypeId::kBool) return Value::Double(AsBool() ? 1.0 : 0.0);
      if (type_ == TypeId::kString) {
        errno = 0;
        char* end = nullptr;
        double v = std::strtod(AsString().c_str(), &end);
        if (end == AsString().c_str() || *end != '\0' || errno == ERANGE) {
          return Status::TypeError("cannot cast '" + AsString() + "' to double");
        }
        return Value::Double(v);
      }
      break;
    case TypeId::kString:
      if (type_ == TypeId::kInt64) return Value::String(std::to_string(AsInt()));
      if (type_ == TypeId::kDouble) return Value::String(FormatDouble(AsDouble()));
      if (type_ == TypeId::kBool) return Value::String(AsBool() ? "true" : "false");
      break;
    case TypeId::kBool:
      if (type_ == TypeId::kInt64) return Value::Bool(AsInt() != 0);
      if (type_ == TypeId::kDouble) return Value::Bool(AsDouble() != 0.0);
      break;
  }
  return Status::TypeError(std::string("unsupported cast ") + TypeIdToString(type_) + " -> " +
                           TypeIdToString(target));
}

void Value::SerializeTo(std::string* out) const {
  if (is_null()) {
    out->push_back(static_cast<char>(kTagNull));
    out->push_back(static_cast<char>(type_));
    return;
  }
  switch (type_) {
    case TypeId::kBool:
      out->push_back(static_cast<char>(kTagBool));
      out->push_back(AsBool() ? 1 : 0);
      break;
    case TypeId::kInt64: {
      out->push_back(static_cast<char>(kTagInt));
      int64_t v = AsInt();
      AppendFixed(out, &v, sizeof(v));
      break;
    }
    case TypeId::kDouble: {
      out->push_back(static_cast<char>(kTagDouble));
      double v = AsDouble();
      AppendFixed(out, &v, sizeof(v));
      break;
    }
    case TypeId::kString: {
      out->push_back(static_cast<char>(kTagString));
      uint32_t len = static_cast<uint32_t>(AsString().size());
      AppendFixed(out, &len, sizeof(len));
      out->append(AsString());
      break;
    }
  }
}

size_t Value::SerializedSize() const {
  if (is_null()) return 2;
  switch (type_) {
    case TypeId::kBool:
      return 2;
    case TypeId::kInt64:
    case TypeId::kDouble:
      return 1 + 8;
    case TypeId::kString:
      return 1 + sizeof(uint32_t) + AsString().size();
  }
  return 0;
}

Result<Value> Value::DeserializeFrom(std::string_view data, size_t* offset) {
  if (*offset >= data.size()) return Status::OutOfRange("value deserialize past end");
  uint8_t tag = static_cast<uint8_t>(data[(*offset)++]);
  auto need = [&](size_t n) -> Status {
    if (*offset + n > data.size()) return Status::OutOfRange("value deserialize past end");
    return Status::OK();
  };
  switch (tag) {
    case kTagNull: {
      RELOPT_RETURN_NOT_OK(need(1));
      TypeId t = static_cast<TypeId>(data[(*offset)++]);
      return Value::Null(t);
    }
    case kTagBool: {
      RELOPT_RETURN_NOT_OK(need(1));
      return Value::Bool(data[(*offset)++] != 0);
    }
    case kTagInt: {
      RELOPT_RETURN_NOT_OK(need(sizeof(int64_t)));
      int64_t v;
      std::memcpy(&v, data.data() + *offset, sizeof(v));
      *offset += sizeof(v);
      return Value::Int(v);
    }
    case kTagDouble: {
      RELOPT_RETURN_NOT_OK(need(sizeof(double)));
      double v;
      std::memcpy(&v, data.data() + *offset, sizeof(v));
      *offset += sizeof(v);
      return Value::Double(v);
    }
    case kTagString: {
      RELOPT_RETURN_NOT_OK(need(sizeof(uint32_t)));
      uint32_t len;
      std::memcpy(&len, data.data() + *offset, sizeof(len));
      *offset += sizeof(len);
      RELOPT_RETURN_NOT_OK(need(len));
      Value v = Value::String(std::string(data.substr(*offset, len)));
      *offset += len;
      return v;
    }
    default:
      return Status::Internal("bad value tag " + std::to_string(tag));
  }
}

}  // namespace relopt
