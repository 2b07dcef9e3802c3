#include "types/tuple.h"

namespace relopt {

namespace {

/// The one record decoder: decodes the `num_fields` values of `data` in
/// order, appending those `keep(field)` selects to `values` and skipping the
/// others (tag and bounds still checked).
template <typename Keep>
Status DecodeRecord(std::string_view data, size_t num_fields, Keep keep,
                    std::vector<Value>* values) {
  size_t offset = 0;
  for (size_t i = 0; i < num_fields; ++i) {
    if (keep(i)) {
      RELOPT_ASSIGN_OR_RETURN(Value v, Value::DeserializeFrom(data, &offset));
      values->push_back(std::move(v));
    } else {
      RELOPT_RETURN_NOT_OK(Value::SkipFrom(data, &offset));
    }
  }
  if (offset != data.size()) {
    return Status::Internal("trailing bytes after tuple deserialize");
  }
  return Status::OK();
}

}  // namespace

std::string Tuple::Serialize() const {
  std::string out;
  for (const Value& v : values_) v.SerializeTo(&out);
  return out;
}

size_t Tuple::SerializedSize() const {
  size_t n = 0;
  for (const Value& v : values_) n += v.SerializedSize();
  return n;
}

Result<Tuple> Tuple::Deserialize(std::string_view data, size_t num_values) {
  Tuple t;
  RELOPT_RETURN_NOT_OK(t.FillFrom(data, num_values));
  return t;
}

Status Tuple::FillFrom(std::string_view data, size_t num_values) {
  values_.clear();
  if (values_.capacity() < num_values) values_.reserve(num_values);
  return DecodeRecord(data, num_values, [](size_t) { return true; }, &values_);
}

Status Tuple::FillFrom(std::string_view data, size_t num_fields,
                       std::span<const uint32_t> columns) {
  values_.clear();
  if (values_.capacity() < columns.size()) values_.reserve(columns.size());
  size_t next = 0;
  RELOPT_RETURN_NOT_OK(DecodeRecord(
      data, num_fields,
      [&](size_t field) {
        if (next == columns.size() || columns[next] != field) return false;
        ++next;
        return true;
      },
      &values_));
  if (next != columns.size()) return Status::Internal("column list beyond the record's fields");
  return Status::OK();
}

std::vector<uint32_t> AllColumns(size_t n) {
  std::vector<uint32_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint32_t>(i);
  return out;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

bool Tuple::operator==(const Tuple& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    // NULL == NULL here (row identity, not SQL predicate semantics).
    if (values_[i].is_null() != other.values_[i].is_null()) return false;
    if (!values_[i].is_null() && !values_[i].Equals(other.values_[i])) return false;
  }
  return true;
}

Result<int> CompareTuples(const Tuple& a, const Tuple& b, const std::vector<size_t>& keys,
                          const std::vector<bool>& desc) {
  for (size_t k = 0; k < keys.size(); ++k) {
    RELOPT_ASSIGN_OR_RETURN(int c, a.At(keys[k]).Compare(b.At(keys[k])));
    if (c != 0) return (k < desc.size() && desc[k]) ? -c : c;
  }
  return 0;
}

}  // namespace relopt
