#include "oodb/object_store.h"

namespace sdms::oodb {

Status ObjectStore::Insert(DbObject obj) {
  Oid oid = obj.oid();
  if (!oid.valid()) return Status::InvalidArgument("cannot insert null OID");
  if (Contains(oid)) {
    return Status::AlreadyExists("object exists: " + oid.ToString());
  }
  std::vector<Oid>& extent = extents_[obj.class_name()];
  if (extent.empty() || extent.back() < oid) {
    extent.push_back(oid);
  } else {
    extent.insert(std::lower_bound(extent.begin(), extent.end(), oid), oid);
  }
  BumpOidWatermark(oid);
  objects_.emplace(oid, std::move(obj));
  return Status::OK();
}

Status ObjectStore::Remove(Oid oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound("no object " + oid.ToString());
  }
  std::vector<Oid>& extent = extents_[it->second.class_name()];
  auto pos = std::lower_bound(extent.begin(), extent.end(), oid);
  if (pos != extent.end() && *pos == oid) extent.erase(pos);
  objects_.erase(it);
  return Status::OK();
}

StatusOr<DbObject*> ObjectStore::Get(Oid oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound("no object " + oid.ToString());
  }
  return &it->second;
}

StatusOr<const DbObject*> ObjectStore::Get(Oid oid) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound("no object " + oid.ToString());
  }
  return &it->second;
}

std::vector<Oid> ObjectStore::DirectExtent(const std::string& cls) const {
  auto it = extents_.find(cls);
  if (it == extents_.end()) return {};
  return it->second;
}

size_t ObjectStore::DirectExtentSize(const std::string& cls) const {
  auto it = extents_.find(cls);
  return it == extents_.end() ? 0 : it->second.size();
}

void ObjectStore::Clear() {
  objects_.clear();
  extents_.clear();
  next_oid_ = 1;
}

}  // namespace sdms::oodb
