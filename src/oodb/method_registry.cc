#include "oodb/method_registry.h"

namespace sdms::oodb {

void MethodRegistry::Register(const std::string& cls, const std::string& name,
                              MethodFn fn) {
  methods_[cls][name] = std::move(fn);
}

StatusOr<const MethodFn*> MethodRegistry::Resolve(
    const Schema& schema, const std::string& cls,
    const std::string& name) const {
  const std::string* cur = &cls;
  while (!cur->empty()) {
    auto table = methods_.find(*cur);
    if (table != methods_.end()) {
      auto it = table->second.find(name);
      if (it != table->second.end()) return &it->second;
    }
    auto cd = schema.GetClass(*cur);
    if (!cd.ok()) break;
    cur = &(*cd)->super;
  }
  return Status::NotFound("method '" + name + "' not defined for class " +
                          cls);
}

}  // namespace sdms::oodb
