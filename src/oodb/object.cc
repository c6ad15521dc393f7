#include "oodb/object.h"

#include <algorithm>

namespace sdms::oodb {

DbObject::Attributes::const_iterator DbObject::LowerBound(
    const std::string& attr) const {
  return std::lower_bound(
      attrs_.begin(), attrs_.end(), attr,
      [](const Attributes::value_type& entry, const std::string& name) {
        return entry.first < name;
      });
}

const Value* DbObject::Find(const std::string& attr) const {
  auto it = LowerBound(attr);
  if (it == attrs_.end() || it->first != attr) return nullptr;
  return &it->second;
}

StatusOr<Value> DbObject::Get(const std::string& attr) const {
  const Value* value = Find(attr);
  if (value == nullptr) {
    return Status::NotFound("attribute '" + attr + "' not set on " +
                            oid_.ToString());
  }
  return *value;
}

Value DbObject::GetOr(const std::string& attr, Value fallback) const {
  const Value* value = Find(attr);
  return value == nullptr ? fallback : *value;
}

void DbObject::Set(const std::string& attr, Value value) {
  // Snapshots and schema defaults arrive in name order: append.
  if (attrs_.empty() || attrs_.back().first < attr) {
    attrs_.emplace_back(attr, std::move(value));
    return;
  }
  auto it = attrs_.begin() + (LowerBound(attr) - attrs_.cbegin());
  if (it->first == attr) {
    it->second = std::move(value);
  } else {
    attrs_.emplace(it, attr, std::move(value));
  }
}

void DbObject::Unset(const std::string& attr) {
  auto it = LowerBound(attr);
  if (it != attrs_.end() && it->first == attr) attrs_.erase(it);
}

std::string DbObject::ToString() const {
  std::string out = class_name_ + "(" + oid_.ToString() + "){";
  bool first = true;
  for (const auto& [k, v] : attrs_) {
    if (!first) out += ", ";
    first = false;
    out += k + ": " + v.ToString();
  }
  out += "}";
  return out;
}

}  // namespace sdms::oodb
