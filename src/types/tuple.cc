#include "types/tuple.h"

namespace relopt {

void Tuple::Concat(std::span<const Value> left, std::span<const Value> right) {
  values_.clear();
  values_.reserve(left.size() + right.size());
  values_.insert(values_.end(), left.begin(), left.end());
  values_.insert(values_.end(), right.begin(), right.end());
}

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
  size_t offset = 0;
  for (size_t i = 0; i < num_values; ++i) {
    RELOPT_ASSIGN_OR_RETURN(Value v, Value::DeserializeFrom(data, &offset));
    values_.push_back(std::move(v));
  }
  if (offset != data.size()) {
    return Status::Internal("trailing bytes after tuple deserialize");
  }
  return Status::OK();
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
