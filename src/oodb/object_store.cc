#include "oodb/object_store.h"

#include <algorithm>

namespace sdms::oodb {

Status ObjectStore::CheckOidInRange(uint64_t raw) const {
  if (raw >= kMaxOid || raw > next_oid_ + kMaxOidGap) {
    return Status::Corruption("OID " + std::to_string(raw) +
                              " is far above the OID watermark " +
                              std::to_string(next_oid_));
  }
  return Status::OK();
}

Status ObjectStore::Insert(DbObject obj) {
  Oid oid = obj.oid();
  if (!oid.valid()) return Status::InvalidArgument("cannot insert null OID");
  SDMS_RETURN_IF_ERROR(CheckOidInRange(oid.raw()));
  if (Contains(oid)) {
    return Status::AlreadyExists("object exists: " + oid.ToString());
  }
  std::vector<Oid>& extent = extents_[obj.class_name()];
  if (extent.empty() || extent.back() < oid) {
    extent.push_back(oid);
  } else {
    extent.insert(std::lower_bound(extent.begin(), extent.end(), oid), oid);
  }
  uint64_t raw = oid.raw();
  if (raw >= next_oid_) next_oid_ = raw + 1;
  uint64_t b = raw >> kBlockShift;
  if (b >= blocks_.size()) blocks_.resize(b + 1);
  if (blocks_[b] == nullptr) blocks_[b] = std::make_unique<Block>();
  Block& block = *blocks_[b];
  std::unique_ptr<Page>& page = block.pages[(raw >> kPageBits) & kBlockMask];
  if (page == nullptr) {
    page = std::make_unique<Page>();
    ++block.live;
    ++page_count_;
  }
  page->slots[raw & kPageMask].emplace(std::move(obj));
  ++page->live;
  ++size_;
  return Status::OK();
}

Status ObjectStore::Remove(Oid oid) {
  DbObject* obj = Find(oid);
  if (obj == nullptr) return Status::NotFound("no object " + oid.ToString());
  std::vector<Oid>& extent = extents_[obj->class_name()];
  auto pos = std::lower_bound(extent.begin(), extent.end(), oid);
  if (pos != extent.end() && *pos == oid) extent.erase(pos);
  uint64_t raw = oid.raw();
  std::unique_ptr<Block>& block = blocks_[raw >> kBlockShift];
  std::unique_ptr<Page>& page = block->pages[(raw >> kPageBits) & kBlockMask];
  page->slots[raw & kPageMask].reset();
  --size_;
  if (--page->live == 0) {
    page.reset();
    --page_count_;
    if (--block->live == 0) block.reset();
  }
  return Status::OK();
}

StatusOr<DbObject*> ObjectStore::Get(Oid oid) {
  DbObject* obj = Find(oid);
  if (obj == nullptr) return Status::NotFound("no object " + oid.ToString());
  return obj;
}

StatusOr<const DbObject*> ObjectStore::Get(Oid oid) const {
  const DbObject* obj = Find(oid);
  if (obj == nullptr) return Status::NotFound("no object " + oid.ToString());
  return obj;
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
  blocks_.clear();
  page_count_ = 0;
  size_ = 0;
  extents_.clear();
  next_oid_ = 1;
}

Status ObjectStore::RaiseNextOid(uint64_t next_oid) {
  if (next_oid > kMaxOid) {
    return Status::Corruption("OID watermark " + std::to_string(next_oid) +
                              " is beyond the object table");
  }
  next_oid_ = std::max(next_oid_, next_oid);
  return Status::OK();
}

}  // namespace sdms::oodb
