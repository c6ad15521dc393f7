#ifndef SDMS_OODB_METHOD_REGISTRY_H_
#define SDMS_OODB_METHOD_REGISTRY_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/oid.h"
#include "common/status.h"
#include "oodb/schema.h"
#include "oodb/value.h"

namespace sdms::oodb {

class Database;

/// Context passed to every method invocation. `coupling` is an opaque
/// hook the coupling layer uses to reach the IRS from inside VQL method
/// calls (e.g. `p -> getIRSValue(coll, 'WWW')`).
struct MethodContext {
  Database* db = nullptr;
  void* coupling = nullptr;
};

/// Signature of a database method: invoked on object `self` with
/// evaluated argument values, returns a Value or an error.
using MethodFn = std::function<StatusOr<Value>(
    const MethodContext&, Oid self, const std::vector<Value>& args)>;

/// Per-class method table with inheritance-aware dispatch: resolving a
/// method on class C walks C's isA chain and returns the most specific
/// implementation, which is how IRSObject's getIRSValue/deriveIRSValue
/// are inherited (and can be overridden) by element-type classes.
class MethodRegistry {
 public:
  /// Registers `fn` as method `name` on class `cls`. Re-registering on
  /// the same class replaces the implementation (override-in-place).
  void Register(const std::string& cls, const std::string& name, MethodFn fn);

  /// Resolves `name` for an object of class `cls`, walking the schema's
  /// inheritance chain from most-derived to root. Builds no strings: a
  /// miss on a class costs one hash lookup, a hit two.
  StatusOr<const MethodFn*> Resolve(const Schema& schema,
                                    const std::string& cls,
                                    const std::string& name) const;

  /// True if `cls` (or an ancestor) defines `name`.
  bool Has(const Schema& schema, const std::string& cls,
           const std::string& name) const {
    return Resolve(schema, cls, name).ok();
  }

 private:
  // Class name -> method name -> implementation. Only classes that
  // define a method have an entry; inherited methods are found by
  // Resolve's isA walk, so a subclass defined after registration
  // inherits without touching this table.
  std::unordered_map<std::string, std::unordered_map<std::string, MethodFn>>
      methods_;
};

}  // namespace sdms::oodb

#endif  // SDMS_OODB_METHOD_REGISTRY_H_
