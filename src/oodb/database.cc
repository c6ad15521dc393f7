#include "oodb/database.h"

#include <algorithm>
#include <optional>

#include "common/file_util.h"
#include "oodb/storage/serializer.h"

namespace sdms::oodb {

namespace {

constexpr uint32_t kSnapshotMagic = 0x53444d53;    // "SDMS" (v1, no seq)
constexpr uint32_t kSnapshotMagicV2 = 0x53444d54;  // v1 + next_update_seq

std::string SnapshotPath(const std::string& dir) { return dir + "/snapshot.db"; }
std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

}  // namespace

// ---------------------------------------------------------------------------
// Transaction bookkeeping
// ---------------------------------------------------------------------------

struct Database::UndoRecord {
  enum Kind { kCreated, kDeleted, kSetAttr } kind;
  Oid oid;
  // Full object image for kDeleted (restored on abort).
  std::optional<DbObject> snapshot;
  // Attribute rollback data for kSetAttr.
  std::string attr;
  std::optional<Value> old_value;  // nullopt = attribute was absent
};

struct Database::PendingUpdate {
  UpdateKind kind;
  Oid oid;
  std::string cls;
  std::string attr;
};

struct Database::TxnState {
  std::vector<UndoRecord> undo;
  std::vector<std::string> redo;  // Encoded WAL payloads.
  std::vector<PendingUpdate> updates;
};

struct Database::ReplayBuffer {
  std::vector<std::string> redo;
  std::vector<RecoveredUpdate> events;
};

// ---------------------------------------------------------------------------
// Open / recovery
// ---------------------------------------------------------------------------

Database::Database(Options options) : options_(std::move(options)) {}
Database::~Database() = default;

StatusOr<std::unique_ptr<Database>> Database::Open(Options options) {
  std::unique_ptr<Database> db(new Database(std::move(options)));
  if (!db->options_.data_dir.empty()) {
    SDMS_RETURN_IF_ERROR(MakeDirs(db->options_.data_dir));
    SDMS_RETURN_IF_ERROR(db->Recover());
    SDMS_RETURN_IF_ERROR(db->wal_.Open(WalPath(db->options_.data_dir)));
  }
  return db;
}

Status Database::Recover() {
  const std::string snap = SnapshotPath(options_.data_dir);
  if (PathExists(snap)) {
    SDMS_RETURN_IF_ERROR(LoadSnapshot(snap));
  }
  // Replay committed transactions from the WAL. Records are buffered
  // per transaction and applied only when the commit record is seen, so
  // a crash mid-transaction leaves no partial effects.
  std::map<TxnId, ReplayBuffer> pending;
  return Wal::Replay(WalPath(options_.data_dir),
                     [&](std::string_view payload) {
                       return ApplyWalRecord(payload, pending);
                     });
}

Status Database::ApplyWalRecord(std::string_view payload,
                                std::map<TxnId, ReplayBuffer>& pending) {
  Decoder dec(payload);
  SDMS_ASSIGN_OR_RETURN(uint8_t type_raw, dec.GetU8());
  auto type = static_cast<WalRecordType>(type_raw);
  if (type == WalRecordType::kCheckpoint) return Status::OK();
  SDMS_ASSIGN_OR_RETURN(uint64_t txn, dec.GetU64());
  // Retire every transaction id seen in the log — committed or not. A
  // crash mid-commit leaves the transaction's already-appended redo
  // records physically in the WAL with no commit record; if a later
  // incarnation reused the id, its own commit record would adopt those
  // orphaned records on the next replay and resurrect effects of a
  // transaction that never committed.
  next_txn_ = std::max<TxnId>(next_txn_, txn + 1);
  switch (type) {
    case WalRecordType::kCommit: {
      auto it = pending.find(txn);
      if (it != pending.end()) {
        for (const std::string& p : it->second.redo) {
          SDMS_RETURN_IF_ERROR(ApplyRedoPayload(p));
        }
        for (RecoveredUpdate& ev : it->second.events) {
          next_update_seq_ = std::max(next_update_seq_, ev.seq + 1);
          recovered_updates_.push_back(std::move(ev));
        }
        pending.erase(it);
      }
      return Status::OK();
    }
    case WalRecordType::kAbort:
      pending.erase(txn);
      return Status::OK();
    case WalRecordType::kUpdateEvent: {
      RecoveredUpdate ev;
      SDMS_ASSIGN_OR_RETURN(ev.seq, dec.GetU64());
      SDMS_ASSIGN_OR_RETURN(uint8_t kind_raw, dec.GetU8());
      if (kind_raw > static_cast<uint8_t>(UpdateKind::kDelete)) {
        return Status::Corruption("bad update-event kind");
      }
      ev.kind = static_cast<UpdateKind>(kind_raw);
      SDMS_ASSIGN_OR_RETURN(uint64_t oid_raw, dec.GetU64());
      ev.oid = Oid(oid_raw);
      SDMS_ASSIGN_OR_RETURN(ev.cls, dec.GetString());
      SDMS_ASSIGN_OR_RETURN(ev.attr, dec.GetString());
      pending[txn].events.push_back(std::move(ev));
      return Status::OK();
    }
    default:
      pending[txn].redo.emplace_back(payload);
      return Status::OK();
  }
}

// Redo is idempotent (the ARIES principle): a crash between the
// checkpoint's snapshot rename and its WAL truncation leaves a WAL
// whose every record is already reflected in the snapshot. Replaying
// that WAL re-applies a full prefix of history, which converges to the
// snapshot state as long as each record reconciles against the current
// store instead of asserting preconditions: a create of an existing
// object resets it (its attribute sets follow later in the log), a set
// or delete of a missing object is a no-op (the object was deleted
// later in the same replayed prefix).
Status Database::ApplyRedoPayload(std::string_view payload) {
  Decoder dec(payload);
  SDMS_ASSIGN_OR_RETURN(uint8_t type_raw, dec.GetU8());
  auto type = static_cast<WalRecordType>(type_raw);
  SDMS_ASSIGN_OR_RETURN(uint64_t txn, dec.GetU64());
  (void)txn;
  switch (type) {
    case WalRecordType::kCreateObject: {
      SDMS_ASSIGN_OR_RETURN(uint64_t raw, dec.GetU64());
      SDMS_ASSIGN_OR_RETURN(std::string cls, dec.GetString());
      if (store_.Contains(Oid(raw))) {
        SDMS_RETURN_IF_ERROR(store_.Remove(Oid(raw)));
      }
      return store_.Insert(DbObject(Oid(raw), std::move(cls)));
    }
    case WalRecordType::kSetAttribute: {
      SDMS_ASSIGN_OR_RETURN(uint64_t raw, dec.GetU64());
      SDMS_ASSIGN_OR_RETURN(std::string attr, dec.GetString());
      SDMS_ASSIGN_OR_RETURN(Value value, dec.GetValue());
      if (!store_.Contains(Oid(raw))) return Status::OK();
      SDMS_ASSIGN_OR_RETURN(DbObject * obj, store_.Get(Oid(raw)));
      obj->Set(attr, std::move(value));
      return Status::OK();
    }
    case WalRecordType::kDeleteObject: {
      SDMS_ASSIGN_OR_RETURN(uint64_t raw, dec.GetU64());
      if (!store_.Contains(Oid(raw))) return Status::OK();
      return store_.Remove(Oid(raw));
    }
    default:
      return Status::Corruption("unexpected redo record");
  }
}

Status Database::LoadSnapshot(const std::string& path) {
  SDMS_ASSIGN_OR_RETURN(std::string data, ReadFile(path));
  if (data.size() < 4) return Status::Corruption("snapshot too small");
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(static_cast<uint8_t>(data[i]))
                  << (8 * i);
  }
  std::string_view body(data.data() + 4, data.size() - 4);
  if (Crc32(body) != stored_crc) {
    return Status::Corruption("snapshot checksum mismatch: " + path);
  }
  Decoder dec(body);
  SDMS_ASSIGN_OR_RETURN(uint32_t magic, dec.GetU32());
  if (magic != kSnapshotMagic && magic != kSnapshotMagicV2) {
    return Status::Corruption("bad snapshot magic");
  }
  SDMS_ASSIGN_OR_RETURN(uint64_t next_oid, dec.GetU64());
  if (magic == kSnapshotMagicV2) {
    SDMS_ASSIGN_OR_RETURN(uint64_t next_seq, dec.GetU64());
    next_update_seq_ = std::max(next_update_seq_, next_seq);
  }
  SDMS_ASSIGN_OR_RETURN(uint64_t count, dec.GetU64());
  store_.Clear();
  // The checksummed header watermark bounds every object: deletes leave
  // gaps of any size below it, so objects are not held to the gap rule
  // of a running watermark.
  SDMS_RETURN_IF_ERROR(store_.RaiseNextOid(next_oid));
  for (uint64_t i = 0; i < count; ++i) {
    SDMS_ASSIGN_OR_RETURN(DbObject obj, dec.GetObject());
    if (obj.oid().raw() >= next_oid) {
      return Status::Corruption("snapshot object " + obj.oid().ToString() +
                                " is above its OID watermark " +
                                std::to_string(next_oid));
    }
    SDMS_RETURN_IF_ERROR(store_.Insert(std::move(obj)));
  }
  return Status::OK();
}

Status Database::Checkpoint() {
  if (options_.data_dir.empty()) {
    return Status::FailedPrecondition("in-memory database: no checkpointing");
  }
  // Truncating the WAL below discards its kUpdateEvent records; the
  // hook lets the coupling flush those events into the IRS snapshots
  // first. A failing hook keeps the WAL (and the events) intact.
  if (checkpoint_hook_) {
    SDMS_RETURN_IF_ERROR(checkpoint_hook_());
  }
  Encoder enc;
  enc.PutU32(kSnapshotMagicV2);
  enc.PutU64(store_.next_oid());
  enc.PutU64(next_update_seq_);
  enc.PutU64(store_.size());
  store_.ForEach([&](const DbObject& obj) { enc.PutObject(obj); });
  std::string body = enc.Release();
  std::string file;
  uint32_t crc = Crc32(body);
  for (int i = 0; i < 4; ++i) {
    file.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  file += body;
  SDMS_RETURN_IF_ERROR(
      WriteFileAtomic(SnapshotPath(options_.data_dir), file));
  return wal_.Truncate();
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

TxnId Database::Begin() {
  TxnId id = next_txn_++;
  txns_[id] = std::make_unique<TxnState>();
  return id;
}

Database::TxnState* Database::GetTxn(TxnId txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : it->second.get();
}

StatusOr<TxnId> Database::EnsureTxn(TxnId txn, bool& implicit) {
  if (txn == kAutoCommit) {
    implicit = true;
    return Begin();
  }
  implicit = false;
  if (GetTxn(txn) == nullptr) {
    return Status::InvalidArgument("unknown transaction " +
                                   std::to_string(txn));
  }
  return txn;
}

Status Database::FinishImplicit(TxnId txn, bool implicit, Status status) {
  if (!implicit) return status;
  if (status.ok()) return Commit(txn);
  Status abort_status = Abort(txn);
  (void)abort_status;  // Original error takes precedence.
  return status;
}

Status Database::Commit(TxnId txn) {
  TxnState* state = GetTxn(txn);
  if (state == nullptr) {
    return Status::InvalidArgument("unknown transaction " +
                                   std::to_string(txn));
  }
  // Assign global sequence numbers to this transaction's update
  // events. Gaps (from commits that later fail at the WAL) are fine:
  // consumers rely on monotonicity, not density.
  std::vector<uint64_t> seqs;
  seqs.reserve(state->updates.size());
  for (size_t i = 0; i < state->updates.size(); ++i) {
    seqs.push_back(next_update_seq_++);
  }
  if (wal_.is_open()) {
    for (const std::string& payload : state->redo) {
      SDMS_RETURN_IF_ERROR(wal_.Append(payload));
    }
    // Event records ride inside the transaction (before its commit
    // record), so replay surfaces exactly the committed events.
    for (size_t i = 0; i < state->updates.size(); ++i) {
      const PendingUpdate& u = state->updates[i];
      Encoder ev;
      ev.PutU8(static_cast<uint8_t>(WalRecordType::kUpdateEvent));
      ev.PutU64(txn);
      ev.PutU64(seqs[i]);
      ev.PutU8(static_cast<uint8_t>(u.kind));
      ev.PutU64(u.oid.raw());
      ev.PutString(u.cls);
      ev.PutString(u.attr);
      SDMS_RETURN_IF_ERROR(wal_.Append(ev.data()));
    }
    Encoder commit_rec;
    commit_rec.PutU8(static_cast<uint8_t>(WalRecordType::kCommit));
    commit_rec.PutU64(txn);
    SDMS_RETURN_IF_ERROR(wal_.Append(commit_rec.data()));
    if (options_.sync_commits) {
      SDMS_RETURN_IF_ERROR(wal_.Sync());
    }
  }
  // Fire listeners for the net effects, post-commit (paper 4.6: the
  // coupling's update methods are invoked for every relevant update).
  for (size_t i = 0; i < state->updates.size(); ++i) {
    const PendingUpdate& u = state->updates[i];
    ++update_events_fired_;
    for (UpdateListener* l : listeners_) {
      l->OnUpdate(u.kind, u.oid, u.cls, u.attr, seqs[i]);
    }
  }
  locks_.ReleaseAll(txn);
  txns_.erase(txn);
  return Status::OK();
}

Status Database::Abort(TxnId txn) {
  TxnState* state = GetTxn(txn);
  if (state == nullptr) {
    return Status::InvalidArgument("unknown transaction " +
                                   std::to_string(txn));
  }
  // Undo in reverse order.
  for (auto it = state->undo.rbegin(); it != state->undo.rend(); ++it) {
    switch (it->kind) {
      case UndoRecord::kCreated: {
        auto obj = store_.Get(it->oid);
        if (obj.ok()) {
          IndexRemoveAll(**obj);
          (void)store_.Remove(it->oid);
        }
        break;
      }
      case UndoRecord::kDeleted: {
        if (it->snapshot.has_value()) {
          (void)store_.Insert(*it->snapshot);
          auto obj = store_.Get(it->oid);
          if (obj.ok()) IndexInsert(**obj);
        }
        break;
      }
      case UndoRecord::kSetAttr: {
        auto obj = store_.Get(it->oid);
        if (obj.ok()) {
          Value current = (*obj)->GetOr(it->attr, Value());
          if (it->old_value.has_value()) {
            (*obj)->Set(it->attr, *it->old_value);
            IndexUpdate(**obj, it->attr, &current, &*it->old_value);
          } else {
            (*obj)->Unset(it->attr);
            IndexUpdate(**obj, it->attr, &current, nullptr);
          }
        }
        break;
      }
    }
  }
  if (wal_.is_open()) {
    Encoder abort_rec;
    abort_rec.PutU8(static_cast<uint8_t>(WalRecordType::kAbort));
    abort_rec.PutU64(txn);
    (void)wal_.Append(abort_rec.data());
  }
  locks_.ReleaseAll(txn);
  txns_.erase(txn);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Object operations
// ---------------------------------------------------------------------------

StatusOr<Oid> Database::CreateObject(const std::string& cls, TxnId txn) {
  SDMS_ASSIGN_OR_RETURN(const ClassDef* def, schema_.GetClass(cls));
  if (def->abstract) {
    return Status::InvalidArgument("class " + cls + " is abstract");
  }
  bool implicit = false;
  auto txn_or = EnsureTxn(txn, implicit);
  if (!txn_or.ok()) return txn_or.status();
  TxnId tid = *txn_or;
  TxnState* state = GetTxn(tid);

  Oid oid = store_.AllocateOid();
  Status status = locks_.Acquire(tid, oid, LockMode::kExclusive);
  if (status.ok()) {
    DbObject obj(oid, cls);
    // Apply schema defaults (inherited attributes included).
    auto attrs = schema_.AllAttributes(cls);
    if (attrs.ok()) {
      for (const AttributeDef& a : *attrs) {
        if (!a.default_value.is_null()) obj.Set(a.name, a.default_value);
      }
    }
    status = store_.Insert(std::move(obj));
    if (status.ok()) {
      auto stored = store_.Get(oid);
      if (stored.ok()) IndexInsert(**stored);
      state->undo.push_back(UndoRecord{UndoRecord::kCreated, oid, std::nullopt,
                                       "", std::nullopt});
      Encoder enc;
      enc.PutU8(static_cast<uint8_t>(WalRecordType::kCreateObject));
      enc.PutU64(tid);
      enc.PutU64(oid.raw());
      enc.PutString(cls);
      state->redo.push_back(enc.Release());
      // Defaults must also reach the redo log.
      if (stored.ok()) {
        for (const auto& [k, v] : (*stored)->attributes()) {
          Encoder attr_enc;
          attr_enc.PutU8(static_cast<uint8_t>(WalRecordType::kSetAttribute));
          attr_enc.PutU64(tid);
          attr_enc.PutU64(oid.raw());
          attr_enc.PutString(k);
          attr_enc.PutValue(v);
          state->redo.push_back(attr_enc.Release());
        }
      }
      state->updates.push_back(PendingUpdate{UpdateKind::kInsert, oid, cls, ""});
    }
  }
  Status final = FinishImplicit(tid, implicit, status);
  if (!final.ok()) return final;
  return oid;
}

Status Database::DeleteObject(Oid oid, TxnId txn) {
  bool implicit = false;
  auto txn_or = EnsureTxn(txn, implicit);
  if (!txn_or.ok()) return txn_or.status();
  TxnId tid = *txn_or;
  TxnState* state = GetTxn(tid);

  Status status = locks_.Acquire(tid, oid, LockMode::kExclusive);
  if (status.ok()) {
    auto obj_or = store_.Get(oid);
    if (!obj_or.ok()) {
      status = obj_or.status();
    } else {
      DbObject snapshot = **obj_or;
      IndexRemoveAll(snapshot);
      status = store_.Remove(oid);
      if (status.ok()) {
        std::string cls = snapshot.class_name();
        state->undo.push_back(UndoRecord{UndoRecord::kDeleted, oid,
                                         std::move(snapshot), "",
                                         std::nullopt});
        Encoder enc;
        enc.PutU8(static_cast<uint8_t>(WalRecordType::kDeleteObject));
        enc.PutU64(tid);
        enc.PutU64(oid.raw());
        state->redo.push_back(enc.Release());
        state->updates.push_back(
            PendingUpdate{UpdateKind::kDelete, oid, cls, ""});
      }
    }
  }
  return FinishImplicit(tid, implicit, status);
}

Status Database::SetAttribute(Oid oid, const std::string& attr, Value value,
                              TxnId txn) {
  bool implicit = false;
  auto txn_or = EnsureTxn(txn, implicit);
  if (!txn_or.ok()) return txn_or.status();
  TxnId tid = *txn_or;
  TxnState* state = GetTxn(tid);

  Status status = locks_.Acquire(tid, oid, LockMode::kExclusive);
  if (status.ok()) {
    auto obj_or = store_.Get(oid);
    if (!obj_or.ok()) {
      status = obj_or.status();
    } else {
      DbObject* obj = *obj_or;
      // Schema validation: the attribute must be declared, and a
      // declared type must match (ints are accepted where REAL is
      // declared and silently widened).
      auto decl = schema_.FindAttribute(obj->class_name(), attr);
      if (!decl.ok()) {
        status = decl.status();
      } else {
        ValueType want = (*decl)->type;
        if (want == ValueType::kReal && value.is_int()) {
          value = Value(static_cast<double>(value.as_int()));
        }
        if (want != ValueType::kNull && !value.is_null() &&
            value.type() != want) {
          status = Status::TypeError(
              "attribute " + attr + " expects " + ValueTypeName(want) +
              ", got " + ValueTypeName(value.type()));
        } else {
          std::optional<Value> old;
          if (obj->Has(attr)) old = obj->GetOr(attr, Value());
          const Value* old_ptr = old.has_value() ? &*old : nullptr;
          obj->Set(attr, value);
          IndexUpdate(*obj, attr, old_ptr, &value);
          state->undo.push_back(
              UndoRecord{UndoRecord::kSetAttr, oid, std::nullopt, attr, old});
          Encoder enc;
          enc.PutU8(static_cast<uint8_t>(WalRecordType::kSetAttribute));
          enc.PutU64(tid);
          enc.PutU64(oid.raw());
          enc.PutString(attr);
          enc.PutValue(value);
          state->redo.push_back(enc.Release());
          state->updates.push_back(
              PendingUpdate{UpdateKind::kModify, oid, obj->class_name(), attr});
        }
      }
    }
  }
  return FinishImplicit(tid, implicit, status);
}

StatusOr<Value> Database::GetAttribute(Oid oid, const std::string& attr) const {
  SDMS_ASSIGN_OR_RETURN(const DbObject* obj, store_.Get(oid));
  return AttributeOf(*obj, attr);
}

StatusOr<Value> Database::AttributeOf(const DbObject& obj,
                                      const std::string& attr) const {
  if (const Value* value = obj.Find(attr)) return *value;
  // Declared but unset: the schema default.
  SDMS_ASSIGN_OR_RETURN(const AttributeDef* decl,
                        schema_.FindAttribute(obj.class_name(), attr));
  return decl->default_value;
}

StatusOr<const DbObject*> Database::GetObject(Oid oid) const {
  return store_.Get(oid);
}

StatusOr<std::string> Database::ClassOf(Oid oid) const {
  SDMS_ASSIGN_OR_RETURN(const DbObject* obj, store_.Get(oid));
  return obj->class_name();
}

std::vector<Oid> Database::Extent(const std::string& cls,
                                  bool include_subclasses) const {
  if (!include_subclasses) return store_.DirectExtent(cls);
  std::vector<std::string> subs = schema_.SubclassesOf(cls);
  if (subs.size() == 1) return store_.DirectExtent(subs[0]);
  // Each direct extent is sorted: merge them instead of sorting.
  std::vector<Oid> out;
  for (const std::string& sub : subs) {
    std::vector<Oid> part = store_.DirectExtent(sub);
    size_t mid = out.size();
    out.insert(out.end(), part.begin(), part.end());
    std::inplace_merge(out.begin(), out.begin() + mid, out.end());
  }
  return out;
}

size_t Database::ExtentSize(const std::string& cls) const {
  size_t n = 0;
  for (const std::string& sub : schema_.SubclassesOf(cls)) {
    n += store_.DirectExtentSize(sub);
  }
  return n;
}

StatusOr<Value> Database::Invoke(Oid self, const std::string& name,
                                 const std::vector<Value>& args) {
  SDMS_ASSIGN_OR_RETURN(const DbObject* obj, store_.Get(self));
  SDMS_ASSIGN_OR_RETURN(const MethodFn* fn,
                        methods_.Resolve(schema_, obj->class_name(), name));
  MethodContext ctx{this, coupling_context_};
  return (*fn)(ctx, self, args);
}

// ---------------------------------------------------------------------------
// Indexes
// ---------------------------------------------------------------------------

Status Database::CreateIndex(const std::string& cls, const std::string& attr) {
  SDMS_RETURN_IF_ERROR(schema_.GetClass(cls).status());
  std::string key = cls + "::" + attr;
  if (indexes_.count(key) > 0) {
    return Status::AlreadyExists("index exists on " + key);
  }
  auto index = std::make_unique<BTreeIndex>();
  for (Oid oid : Extent(cls, /*include_subclasses=*/true)) {
    auto obj = store_.Get(oid);
    if (obj.ok() && (*obj)->Has(attr)) {
      index->Insert((*obj)->GetOr(attr, Value()), oid);
    }
  }
  indexes_.emplace(key, std::move(index));
  return Status::OK();
}

StatusOr<std::vector<Oid>> Database::IndexLookup(const std::string& cls,
                                                 const std::string& attr,
                                                 const Value& key) const {
  auto it = indexes_.find(cls + "::" + attr);
  if (it == indexes_.end()) {
    return Status::NotFound("no index on " + cls + "::" + attr);
  }
  return it->second->Lookup(key);
}

StatusOr<std::vector<Oid>> Database::IndexRange(
    const std::string& cls, const std::string& attr,
    const std::optional<Value>& lo, bool lo_inclusive,
    const std::optional<Value>& hi, bool hi_inclusive) const {
  auto it = indexes_.find(cls + "::" + attr);
  if (it == indexes_.end()) {
    return Status::NotFound("no index on " + cls + "::" + attr);
  }
  return it->second->Range(lo, lo_inclusive, hi, hi_inclusive);
}

bool Database::HasIndex(const std::string& cls, const std::string& attr) const {
  return indexes_.count(cls + "::" + attr) > 0;
}

void Database::IndexInsert(const DbObject& obj) {
  for (auto& [key, index] : indexes_) {
    size_t sep = key.find("::");
    std::string icls = key.substr(0, sep);
    std::string iattr = key.substr(sep + 2);
    if (schema_.IsSubclassOf(obj.class_name(), icls) && obj.Has(iattr)) {
      index->Insert(obj.GetOr(iattr, Value()), obj.oid());
    }
  }
}

void Database::IndexRemoveAll(const DbObject& obj) {
  for (auto& [key, index] : indexes_) {
    size_t sep = key.find("::");
    std::string icls = key.substr(0, sep);
    std::string iattr = key.substr(sep + 2);
    if (schema_.IsSubclassOf(obj.class_name(), icls) && obj.Has(iattr)) {
      index->Remove(obj.GetOr(iattr, Value()), obj.oid());
    }
  }
}

void Database::IndexUpdate(const DbObject& obj, const std::string& attr,
                           const Value* old_value, const Value* new_value) {
  for (auto& [key, index] : indexes_) {
    size_t sep = key.find("::");
    std::string icls = key.substr(0, sep);
    std::string iattr = key.substr(sep + 2);
    if (iattr != attr || !schema_.IsSubclassOf(obj.class_name(), icls)) {
      continue;
    }
    if (old_value != nullptr) index->Remove(*old_value, obj.oid());
    if (new_value != nullptr) index->Insert(*new_value, obj.oid());
  }
}

void Database::RemoveUpdateListener(UpdateListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

}  // namespace sdms::oodb
