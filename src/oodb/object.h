#ifndef SDMS_OODB_OBJECT_H_
#define SDMS_OODB_OBJECT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/oid.h"
#include "common/status.h"
#include "oodb/value.h"

namespace sdms::oodb {

/// One stored database object: an OID, the name of its class, and its
/// attribute values. Behaviour (methods) lives in the MethodRegistry,
/// dispatched by class name, so objects stay plain data on disk.
class DbObject {
 public:
  /// Attribute name/value pairs, sorted by name, each name once.
  using Attributes = std::vector<std::pair<std::string, Value>>;

  DbObject(Oid oid, std::string class_name)
      : oid_(oid), class_name_(std::move(class_name)) {}

  Oid oid() const { return oid_; }
  const std::string& class_name() const { return class_name_; }

  /// The value of `attr`, or null when it is not set. The pointer is
  /// valid until the next Set or Unset on this object.
  const Value* Find(const std::string& attr) const;

  /// Returns the value of `attr`, or NotFound.
  StatusOr<Value> Get(const std::string& attr) const;

  /// Returns the value of `attr`, or `fallback` when absent.
  Value GetOr(const std::string& attr, Value fallback) const;

  bool Has(const std::string& attr) const { return Find(attr) != nullptr; }

  /// Sets `attr` to `value` (no schema check here; Database::SetAttribute
  /// validates against the schema and records undo/redo).
  void Set(const std::string& attr, Value value);

  /// Removes `attr` if present.
  void Unset(const std::string& attr);

  /// The set attributes in name order (the order snapshots encode).
  const Attributes& attributes() const { return attrs_; }

  /// Debug rendering: "ClassName(oid:n){attr: value, ...}".
  std::string ToString() const;

 private:
  Attributes::const_iterator LowerBound(const std::string& attr) const;

  Oid oid_;
  std::string class_name_;
  // One sorted vector rather than a tree: an object has a handful of
  // attributes, so a binary search over contiguous pairs beats walking
  // map nodes, and the object costs one allocation for all of them.
  Attributes attrs_;
};

}  // namespace sdms::oodb

#endif  // SDMS_OODB_OBJECT_H_
