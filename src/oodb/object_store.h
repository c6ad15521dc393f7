#ifndef SDMS_OODB_OBJECT_STORE_H_
#define SDMS_OODB_OBJECT_STORE_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/oid.h"
#include "common/status.h"
#include "oodb/object.h"

namespace sdms::oodb {

/// In-memory primary storage of all objects plus per-class extents.
/// Durability is layered on top by Database (WAL + snapshot); the store
/// itself is a plain container with OID allocation.
class ObjectStore {
 public:
  ObjectStore() = default;
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Allocates the next OID (monotonically increasing, never reused).
  Oid AllocateOid() { return Oid(next_oid_++); }

  /// Ensures future allocations are above `oid` (used by recovery).
  void BumpOidWatermark(Oid oid) {
    if (oid.raw() >= next_oid_) next_oid_ = oid.raw() + 1;
  }

  /// Inserts `obj`; fails if its OID is taken.
  Status Insert(DbObject obj);

  /// Removes the object with `oid`.
  Status Remove(Oid oid);

  /// Mutable object lookup.
  StatusOr<DbObject*> Get(Oid oid);

  /// Const object lookup.
  StatusOr<const DbObject*> Get(Oid oid) const;

  bool Contains(Oid oid) const { return objects_.find(oid) != objects_.end(); }

  /// OIDs of the *direct* extent of `cls` (no subclasses), in OID order.
  std::vector<Oid> DirectExtent(const std::string& cls) const;

  /// Number of objects in the direct extent of `cls`.
  size_t DirectExtentSize(const std::string& cls) const;

  size_t size() const { return objects_.size(); }

  /// Iterates all objects in OID order. Sorts the OIDs first, so it
  /// costs O(n log n): meant for checkpoints, not for query paths.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::vector<Oid> oids;
    oids.reserve(objects_.size());
    for (const auto& entry : objects_) oids.push_back(entry.first);
    std::sort(oids.begin(), oids.end());
    for (Oid oid : oids) fn(objects_.find(oid)->second);
  }

  /// Drops all contents (used when loading a snapshot).
  void Clear();

  uint64_t next_oid() const { return next_oid_; }
  void set_next_oid(uint64_t v) { next_oid_ = v; }

 private:
  // Hash table: the join looks every binding up here, so lookup must be
  // O(1). Nodes never move, so the DbObject pointers Get() hands out
  // stay valid across later inserts. Ordered iteration (snapshots) goes
  // through ForEach, which sorts.
  std::unordered_map<Oid, DbObject> objects_;
  // Direct extent of each class as a vector sorted by OID. OIDs are
  // allocated in increasing order, so an insert is normally an append;
  // recovery and aborted deletes re-insert in the middle.
  std::unordered_map<std::string, std::vector<Oid>> extents_;
  uint64_t next_oid_ = 1;
};

}  // namespace sdms::oodb

#endif  // SDMS_OODB_OBJECT_STORE_H_
