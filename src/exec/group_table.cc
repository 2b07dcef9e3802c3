#include "exec/group_table.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace relopt {

namespace {

constexpr size_t kInitialSlots = 16;

bool IsMinMax(AggFunc f) { return f == AggFunc::kMin || f == AggFunc::kMax; }

/// Whether comparison result `c` (new vs current extreme) replaces it.
bool Replaces(AggFunc f, int c) { return f == AggFunc::kMin ? c < 0 : c > 0; }

}  // namespace

GroupTable::GroupTable(size_t num_keys, const std::vector<AggSpecExec>& aggs)
    : num_keys_(num_keys), num_aggs_(aggs.size()), slots_(kInitialSlots),
      mask_(kInitialSlots - 1), key_offsets_(1, 0) {
  funcs_.reserve(aggs.size());
  for (const AggSpecExec& a : aggs) funcs_.push_back(a.func);
}

uint64_t GroupTable::Hash(std::string_view key) { return std::hash<std::string_view>()(key); }

size_t GroupTable::Probe(std::string_view key, uint64_t hash) const {
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  size_t slot = hash & mask_;
  while (slots_[slot].id != kEmpty &&
         (slots_[slot].tag != tag || KeyAt(slots_[slot].id) != key)) {
    slot = (slot + 1) & mask_;
  }
  return slot;
}

uint32_t GroupTable::Insert(size_t slot, std::string_view key, uint64_t hash) {
  const uint32_t id = static_cast<uint32_t>(hashes_.size());
  slots_[slot] = Slot{id, static_cast<uint32_t>(hash >> 32)};
  hashes_.push_back(hash);
  arena_.append(key);
  key_offsets_.push_back(arena_.size());
  states_.resize(states_.size() + num_aggs_);
  if (hashes_.size() * 2 > slots_.size()) Grow();
  return id;
}

void GroupTable::Grow() {
  slots_.assign(slots_.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (uint32_t id = 0; id < hashes_.size(); ++id) {
    size_t slot = hashes_[id] & mask_;
    while (slots_[slot].id != kEmpty) slot = (slot + 1) & mask_;
    slots_[slot] = Slot{id, static_cast<uint32_t>(hashes_[id] >> 32)};
  }
}

void GroupTable::AddDefaultGroup() {
  FindOrInsert(std::string_view(), Hash(std::string_view()), [](size_t) { return Value(); });
}

GroupCell GroupTable::ToCell(const Value& v) {
  GroupCell c;
  c.type = v.type();
  if (v.is_null()) {
    c.is_null = true;
    return c;
  }
  switch (v.type()) {
    case TypeId::kBool:
      c.i = v.AsBool() ? 1 : 0;
      break;
    case TypeId::kInt64:
      c.i = v.AsInt();
      break;
    case TypeId::kDouble:
      c.d = v.AsDouble();
      break;
    case TypeId::kString:
      c.str = strings_.size();
      strings_.push_back(v.AsString());
      break;
  }
  return c;
}

Value GroupTable::CellValue(const GroupCell& c) const {
  if (c.is_null) return Value::Null(c.type);
  switch (c.type) {
    case TypeId::kBool:
      return Value::Bool(c.i != 0);
    case TypeId::kInt64:
      return Value::Int(c.i);
    case TypeId::kDouble:
      return Value::Double(c.d);
    case TypeId::kString:
      return Value::String(strings_[c.str]);
  }
  return Value();
}

void GroupTable::StoreCell(const Value& v, GroupCell* c) {
  if (c->type == TypeId::kString) {
    strings_[c->str] = v.AsString();
    return;
  }
  *c = ToCell(v);
}

int GroupTable::CompareToCell(const Value& v, const GroupCell& c) const {
  switch (c.type) {
    case TypeId::kBool:
      return ThreeWay(v.AsBool() ? 1 : 0, c.i);
    case TypeId::kInt64:
      return ThreeWay(v.AsInt(), c.i);
    case TypeId::kDouble:
      return ThreeWay(v.AsDouble(), c.d);
    case TypeId::kString:
      return ThreeWay(v.AsString().compare(strings_[c.str]), 0);
  }
  return 0;
}

/// Checked int64 accumulation for SUM/AVG: SUM errors instead of wrapping,
/// AVG widens to double (lossy above 2^53, like every double AVG).
Status GroupTable::AddIntSum(AggFunc func, int64_t addend, AggState* s) {
  int64_t sum;
  if (!__builtin_add_overflow(s->value.i, addend, &sum)) {
    s->value.i = sum;
    return Status::OK();
  }
  if (func == AggFunc::kAvg) {
    s->value.d = static_cast<double>(s->value.i) + static_cast<double>(addend);
    s->value.type = TypeId::kDouble;
    return Status::OK();
  }
  return Status::OutOfRange("integer overflow in SUM aggregate");
}

Status GroupTable::AccumulateInt(AggFunc func, int64_t v, AggState* s) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      ++s->count;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++s->count;
      if (s->value.type == TypeId::kInt64) return AddIntSum(func, v, s);
      s->value.d += static_cast<double>(v);
      return Status::OK();
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (s->count == 0 || (func == AggFunc::kMin ? v < s->value.i : v > s->value.i)) {
        s->value.i = v;
        s->value.type = TypeId::kInt64;
      }
      ++s->count;
      return Status::OK();
  }
  return Status::Internal("bad aggregate function");
}

Status GroupTable::AccumulateDouble(AggFunc func, double v, AggState* s) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      ++s->count;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++s->count;
      if (s->value.type == TypeId::kInt64) {
        s->value.d = static_cast<double>(s->value.i);
        s->value.type = TypeId::kDouble;
      }
      s->value.d += v;
      return Status::OK();
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (s->count == 0 || (func == AggFunc::kMin ? v < s->value.d : v > s->value.d)) {
        s->value.d = v;
        s->value.type = TypeId::kDouble;
      }
      ++s->count;
      return Status::OK();
  }
  return Status::Internal("bad aggregate function");
}

Status GroupTable::Accumulate(AggFunc func, const Value& v, AggState* s) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      ++s->count;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg:
      return v.type() == TypeId::kInt64 ? AccumulateInt(func, v.AsInt(), s)
                                        : AccumulateDouble(func, v.AsDouble(), s);
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (s->count == 0 || Replaces(func, CompareToCell(v, s->value))) StoreCell(v, &s->value);
      ++s->count;
      return Status::OK();
  }
  return Status::Internal("bad aggregate function");
}

Status GroupTable::MergeState(AggFunc func, const GroupTable& from, const AggState& src,
                              AggState* dst) {
  const bool dst_seen = dst->count > 0;
  dst->count += src.count;
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (src.value.type == TypeId::kInt64 && dst->value.type == TypeId::kInt64) {
        return AddIntSum(func, src.value.i, dst);
      }
      if (dst->value.type == TypeId::kInt64) {
        dst->value.d = static_cast<double>(dst->value.i);
        dst->value.type = TypeId::kDouble;
      }
      dst->value.d +=
          src.value.type == TypeId::kInt64 ? static_cast<double>(src.value.i) : src.value.d;
      return Status::OK();
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (src.count == 0) return Status::OK();
      Value extreme = from.CellValue(src.value);
      if (!dst_seen || Replaces(func, CompareToCell(extreme, dst->value))) {
        StoreCell(extreme, &dst->value);
      }
      return Status::OK();
    }
  }
  return Status::Internal("bad aggregate function");
}

Status GroupTable::MergeFrom(const GroupTable& other) {
  for (uint32_t src = 0; src < other.size(); ++src) {
    std::string_view key = other.KeyAt(src);
    uint64_t hash = other.hashes_[src];
    size_t slot = Probe(key, hash);
    const AggState* from = other.states_.data() + size_t{src} * num_aggs_;
    if (slots_[slot].id != kEmpty) {
      AggState* into = states(slots_[slot].id);
      for (size_t a = 0; a < num_aggs_; ++a) {
        RELOPT_RETURN_NOT_OK(MergeState(funcs_[a], other, from[a], &into[a]));
      }
      continue;
    }
    uint32_t id = Insert(slot, key, hash);
    for (size_t i = 0; i < num_keys_; ++i) {
      keys_.push_back(ToCell(other.CellValue(other.keys_[size_t{src} * num_keys_ + i])));
    }
    AggState* into = states(id);
    for (size_t a = 0; a < num_aggs_; ++a) {
      into[a] = from[a];
      if (IsMinMax(funcs_[a]) && from[a].count > 0 && from[a].value.type == TypeId::kString) {
        into[a].value = ToCell(other.CellValue(from[a].value));
      }
    }
  }
  return Status::OK();
}

Result<Value> GroupTable::Finalize(AggFunc func, const AggState& s) const {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int(s.count);
    case AggFunc::kSum:
      if (s.count == 0) return Value::Null();
      return s.value.type == TypeId::kInt64 ? Value::Int(s.value.i) : Value::Double(s.value.d);
    case AggFunc::kAvg: {
      if (s.count == 0) return Value::Null(TypeId::kDouble);
      double total = s.value.type == TypeId::kInt64 ? static_cast<double>(s.value.i) : s.value.d;
      return Value::Double(total / static_cast<double>(s.count));
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      return s.count == 0 ? Value::Null() : CellValue(s.value);
  }
  return Status::Internal("bad aggregate function");
}

Status GroupTable::Emit(uint32_t id, Tuple* out) const {
  for (size_t i = 0; i < num_keys_; ++i) out->Append(CellValue(keys_[size_t{id} * num_keys_ + i]));
  const AggState* s = states_.data() + size_t{id} * num_aggs_;
  for (size_t a = 0; a < num_aggs_; ++a) {
    RELOPT_ASSIGN_OR_RETURN(Value v, Finalize(funcs_[a], s[a]));
    out->Append(std::move(v));
  }
  return Status::OK();
}

std::vector<uint32_t> GroupTable::IdsInKeyOrder() const {
  std::vector<uint32_t> ids(size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) { return KeyAt(a) < KeyAt(b); });
  return ids;
}

}  // namespace relopt
