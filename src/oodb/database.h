#ifndef SDMS_OODB_DATABASE_H_
#define SDMS_OODB_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/oid.h"
#include "common/status.h"
#include "oodb/index/btree.h"
#include "oodb/lock_manager.h"
#include "oodb/method_registry.h"
#include "oodb/object_store.h"
#include "oodb/schema.h"
#include "oodb/storage/wal.h"
#include "oodb/value.h"

namespace sdms::oodb {

/// Kinds of data updates reported to listeners (paper Section 4.6: one
/// of three update methods must be invoked whenever a relevant update
/// occurs — insertion, modification, deletion).
enum class UpdateKind { kInsert, kModify, kDelete };

/// Observer interface for committed object changes; the IRS coupling
/// registers one listener per COLLECTION to drive update propagation.
class UpdateListener {
 public:
  virtual ~UpdateListener() = default;
  /// `attr` is the modified attribute for kModify, empty otherwise.
  /// `seq` is the event's global monotonic sequence number — assigned
  /// at commit, persisted in the WAL (kUpdateEvent), and the unit of
  /// the coupling's exactly-once accounting.
  virtual void OnUpdate(UpdateKind kind, Oid oid,
                        const std::string& class_name,
                        const std::string& attr, uint64_t seq) = 0;
};

/// One committed update event reconstructed from the WAL during
/// recovery. The coupling re-routes these (filtered by each IRS
/// snapshot's high-water sequence number) to rebuild exactly the
/// update-log state a crash destroyed.
struct RecoveredUpdate {
  uint64_t seq = 0;
  UpdateKind kind = UpdateKind::kInsert;
  Oid oid;
  std::string cls;
  std::string attr;
};

/// Special transaction handle: each call runs in its own transaction
/// that commits immediately.
inline constexpr TxnId kAutoCommit = 0;

/// The object database: schema + object store + methods + transactions
/// + durability (WAL with snapshot checkpoints) + attribute indexes.
/// This is the "VODAK" substitute of the reproduction; the coupling
/// uses only manifesto-level features of it.
class Database {
 public:
  struct Options {
    /// Directory for snapshot + WAL. Empty = fully in-memory.
    std::string data_dir;
    /// fsync the WAL on every commit (durability over speed).
    bool sync_commits = false;
  };

  /// Opens a database. With a `data_dir`, loads the latest snapshot and
  /// replays the WAL (crash recovery).
  static StatusOr<std::unique_ptr<Database>> Open(Options options);

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Schema& schema() { return schema_; }
  const Schema& schema() const { return schema_; }
  MethodRegistry& methods() { return methods_; }
  const MethodRegistry& methods() const { return methods_; }
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }

  /// Sets the opaque coupling context exposed to method invocations.
  void set_coupling_context(void* ctx) { coupling_context_ = ctx; }
  void* coupling_context() const { return coupling_context_; }

  // --- Transactions -------------------------------------------------

  /// Starts an explicit transaction.
  TxnId Begin();

  /// Commits `txn`: logs redo records, releases locks, fires update
  /// listeners for the net effects.
  Status Commit(TxnId txn);

  /// Aborts `txn`: rolls back all its changes and releases locks.
  Status Abort(TxnId txn);

  // --- Object operations (txn = kAutoCommit wraps a transaction) ----

  /// Creates an object of `cls` with schema defaults applied.
  StatusOr<Oid> CreateObject(const std::string& cls, TxnId txn = kAutoCommit);

  /// Deletes the object `oid`.
  Status DeleteObject(Oid oid, TxnId txn = kAutoCommit);

  /// Sets attribute `attr` (validated against the schema) on `oid`.
  Status SetAttribute(Oid oid, const std::string& attr, Value value,
                      TxnId txn = kAutoCommit);

  /// Reads attribute `attr` of `oid` (falling back to schema default).
  StatusOr<Value> GetAttribute(Oid oid, const std::string& attr) const;

  /// GetAttribute for an object already fetched from the store.
  StatusOr<Value> AttributeOf(const DbObject& obj,
                              const std::string& attr) const;

  /// Const access to a stored object.
  StatusOr<const DbObject*> GetObject(Oid oid) const;

  /// Class of `oid`, or NotFound.
  StatusOr<std::string> ClassOf(Oid oid) const;

  /// Extent of `cls`; includes subclass extents by default (the VQL
  /// `FROM x IN Cls` semantics).
  std::vector<Oid> Extent(const std::string& cls,
                          bool include_subclasses = true) const;

  /// Number of objects in Extent(cls), subclasses included, without
  /// building the extent.
  size_t ExtentSize(const std::string& cls) const;

  // --- Method invocation --------------------------------------------

  /// Invokes method `name` on `self` with `args`, dispatching through
  /// the inheritance hierarchy.
  StatusOr<Value> Invoke(Oid self, const std::string& name,
                         const std::vector<Value>& args);

  // --- Indexes -------------------------------------------------------

  /// Creates (and backfills) a B-tree index on `cls.attr`. Lookups via
  /// the index include subclass objects, matching Extent semantics.
  Status CreateIndex(const std::string& cls, const std::string& attr);

  /// Index-assisted equality lookup; NotFound when no index exists.
  StatusOr<std::vector<Oid>> IndexLookup(const std::string& cls,
                                         const std::string& attr,
                                         const Value& key) const;

  /// Index-assisted range scan over [lo, hi] (either bound optional);
  /// NotFound when no index exists.
  StatusOr<std::vector<Oid>> IndexRange(const std::string& cls,
                                        const std::string& attr,
                                        const std::optional<Value>& lo,
                                        bool lo_inclusive,
                                        const std::optional<Value>& hi,
                                        bool hi_inclusive) const;

  bool HasIndex(const std::string& cls, const std::string& attr) const;

  // --- Durability ----------------------------------------------------

  /// Writes a full snapshot and truncates the WAL. When a checkpoint
  /// hook is installed it runs first; a failing hook aborts the
  /// checkpoint (the WAL — including its update events — survives).
  Status Checkpoint();

  /// Installs a pre-checkpoint hook. Truncating the WAL discards the
  /// kUpdateEvent records the coupling needs for exactly-once replay,
  /// so the coupling registers a hook that propagates and persists the
  /// IRS indexes (advancing their high-water marks) before the events
  /// are dropped.
  void SetCheckpointHook(std::function<Status()> hook) {
    checkpoint_hook_ = std::move(hook);
  }

  /// Sequence number of the most recent committed update event (0 when
  /// none). Monotonic across restarts: recovered from the snapshot and
  /// replayed WAL events.
  uint64_t last_update_seq() const { return next_update_seq_ - 1; }

  /// Committed update events replayed from the WAL by Open(), in
  /// commit order. Ownership moves to the caller; a second call
  /// returns an empty vector.
  std::vector<RecoveredUpdate> TakeRecoveredUpdates() {
    return std::move(recovered_updates_);
  }

  // --- Update listeners ----------------------------------------------

  void AddUpdateListener(UpdateListener* listener) {
    listeners_.push_back(listener);
  }
  void RemoveUpdateListener(UpdateListener* listener);

  /// Count of committed update events fired (metrics for E7).
  uint64_t update_events_fired() const { return update_events_fired_; }

 private:
  struct UndoRecord;
  struct PendingUpdate;
  struct TxnState;
  /// Per-transaction replay buffers: redo payloads plus update events,
  /// both applied/surfaced only once the commit record is seen.
  struct ReplayBuffer;

  explicit Database(Options options);

  Status Recover();
  Status LoadSnapshot(const std::string& path);
  Status ApplyWalRecord(std::string_view payload,
                        std::map<TxnId, ReplayBuffer>& pending);
  Status ApplyRedoPayload(std::string_view payload);

  TxnState* GetTxn(TxnId txn);
  StatusOr<TxnId> EnsureTxn(TxnId txn, bool& implicit);
  Status FinishImplicit(TxnId txn, bool implicit, Status status);

  void IndexInsert(const DbObject& obj);
  void IndexRemoveAll(const DbObject& obj);
  void IndexUpdate(const DbObject& obj, const std::string& attr,
                   const Value* old_value, const Value* new_value);

  Options options_;
  Schema schema_;
  ObjectStore store_;
  MethodRegistry methods_;
  LockManager locks_;
  Wal wal_;
  void* coupling_context_ = nullptr;

  TxnId next_txn_ = 1;
  std::map<TxnId, std::unique_ptr<TxnState>> txns_;

  // Indexes keyed by "<class>::<attr>".
  std::map<std::string, std::unique_ptr<BTreeIndex>> indexes_;

  std::vector<UpdateListener*> listeners_;
  uint64_t update_events_fired_ = 0;

  /// Next global update-event sequence number (1-based; gaps are
  /// allowed, order is what matters).
  uint64_t next_update_seq_ = 1;
  std::vector<RecoveredUpdate> recovered_updates_;
  std::function<Status()> checkpoint_hook_;
};

}  // namespace sdms::oodb

#endif  // SDMS_OODB_DATABASE_H_
