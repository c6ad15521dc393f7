#ifndef SDMS_OODB_OBJECT_STORE_H_
#define SDMS_OODB_OBJECT_STORE_H_

#include <array>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
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
  /// OIDs the table holds lie below kMaxOid, about 10^12: far more than
  /// AllocateOid hands out in the life of a database. An OID at or
  /// above it (a WAL record, snapshot or IRS key naming, say, OID 2^62)
  /// is kCorruption. The table's directory is two-level, so even an OID
  /// just below the bound costs an 8 MB directory, not a table sized by
  /// the OID.
  static constexpr uint64_t kMaxOid = uint64_t{1} << 40;

  /// The farthest above the running OID watermark (next_oid()) an
  /// inserted OID, such as one replayed from the WAL, or an IRS key may
  /// lie; beyond it is kCorruption. OIDs come from AllocateOid, so there
  /// only OIDs allocated and never committed open a gap. A snapshot is
  /// bounded by its own header watermark instead (RaiseNextOid).
  static constexpr uint64_t kMaxOidGap = uint64_t{1} << 24;

  ObjectStore() = default;
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Allocates the next OID (monotonically increasing, never reused).
  Oid AllocateOid() { return Oid(next_oid_++); }

  /// Inserts `obj`; fails if its OID is taken, and with kCorruption if
  /// CheckOidInRange rejects it.
  Status Insert(DbObject obj);

  /// Removes the object with `oid`. A table page is freed when its last
  /// object goes, so the table's memory follows the live objects rather
  /// than every OID ever allocated.
  Status Remove(Oid oid);

  /// The object with `oid`, or null. Three array indexes and no
  /// hashing: the join fetches every binding's object through this.
  const DbObject* Find(Oid oid) const {
    uint64_t raw = oid.raw();
    uint64_t block = raw >> kBlockShift;
    if (block >= blocks_.size() || blocks_[block] == nullptr) return nullptr;
    const Page* page =
        blocks_[block]->pages[(raw >> kPageBits) & kBlockMask].get();
    if (page == nullptr) return nullptr;
    const std::optional<DbObject>& slot = page->slots[raw & kPageMask];
    return slot.has_value() ? &*slot : nullptr;
  }
  DbObject* Find(Oid oid) {
    return const_cast<DbObject*>(std::as_const(*this).Find(oid));
  }

  /// Mutable object lookup.
  StatusOr<DbObject*> Get(Oid oid);

  /// Const object lookup.
  StatusOr<const DbObject*> Get(Oid oid) const;

  bool Contains(Oid oid) const { return Find(oid) != nullptr; }

  /// OIDs of the *direct* extent of `cls` (no subclasses), in OID order.
  std::vector<Oid> DirectExtent(const std::string& cls) const;

  /// Number of objects in the direct extent of `cls`.
  size_t DirectExtentSize(const std::string& cls) const;

  size_t size() const { return size_; }

  /// Slots per table page: OIDs [k * kPageSlots, (k + 1) * kPageSlots)
  /// share page k. Pages are small so that a page kept by the one object
  /// that deletes left in it wastes little.
  static constexpr uint64_t kPageSlots = 32;

  /// Number of table pages allocated.
  size_t page_count() const { return page_count_; }

  /// Iterates all objects in OID order: the table is indexed by OID, so
  /// this is a walk over it that skips the holes.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::unique_ptr<Block>& block : blocks_) {
      if (block == nullptr) continue;
      for (const std::unique_ptr<Page>& page : block->pages) {
        if (page == nullptr) continue;
        for (const std::optional<DbObject>& slot : page->slots) {
          if (slot.has_value()) fn(*slot);
        }
      }
    }
  }

  /// Drops all contents (used when loading a snapshot).
  void Clear();

  uint64_t next_oid() const { return next_oid_; }

  /// kCorruption unless raw OID `raw` lies below kMaxOid and within
  /// kMaxOidGap of the watermark: the check for an OID read from a WAL
  /// record or an IRS key before anything is sized by it.
  Status CheckOidInRange(uint64_t raw) const;

  /// Raises the watermark to `next_oid` (a snapshot's recorded value);
  /// never lowers it. kCorruption when `next_oid` lies above kMaxOid.
  /// Deleted objects leave gaps below a snapshot's watermark, so it is
  /// bounded only by what the table can address, not by the gap rule.
  Status RaiseNextOid(uint64_t next_oid);

 private:
  static constexpr int kPageBits = std::countr_zero(kPageSlots);
  static constexpr uint64_t kPageMask = kPageSlots - 1;
  static constexpr int kBlockShift = 20;
  static constexpr uint64_t kBlockMask =
      (uint64_t{1} << (kBlockShift - kPageBits)) - 1;

  struct Page {
    std::array<std::optional<DbObject>, kPageSlots> slots;
    size_t live = 0;  // Slots holding an object.
  };
  struct Block {
    std::array<std::unique_ptr<Page>, kBlockMask + 1> pages;
    size_t live = 0;  // Pages allocated.
  };

  // The object table, indexed by raw OID: a directory of blocks, each
  // covering 2^20 OIDs with 32768 pages of 32 slots. OIDs are allocated
  // densely from next_oid_, so the table has few holes. Slots never
  // move: the pointers Get() and Find() hand out stay valid across
  // later inserts and table growth, until the object is removed. A page
  // (and its block) is allocated when an OID in it is first inserted,
  // and freed when its last object is removed.
  std::vector<std::unique_ptr<Block>> blocks_;
  size_t page_count_ = 0;
  size_t size_ = 0;
  // Direct extent of each class as a vector sorted by OID. OIDs are
  // allocated in increasing order, so an insert is normally an append;
  // recovery and aborted deletes re-insert in the middle.
  std::unordered_map<std::string, std::vector<Oid>> extents_;
  uint64_t next_oid_ = 1;
};

}  // namespace sdms::oodb

#endif  // SDMS_OODB_OBJECT_STORE_H_
