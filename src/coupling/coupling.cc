#include "coupling/coupling.h"

#include <algorithm>
#include <cstdlib>

#include "coupling/remote_shard.h"

#include "common/file_util.h"
#include "common/obs/log.h"
#include "common/obs/metrics.h"
#include "common/string_util.h"
#include "oodb/builtins.h"
#include "oodb/query/parser.h"
#include "oodb/storage/serializer.h"

namespace sdms::coupling {

using oodb::AttributeDef;
using oodb::ClassDef;
using oodb::Database;
using oodb::MethodContext;
using oodb::TxnId;
using oodb::UpdateKind;
using oodb::Value;
using oodb::ValueDict;
using oodb::ValueList;
using oodb::ValueType;
using oodb::vql::ExprKind;
using oodb::vql::ParsedQuery;

namespace {

constexpr char kIrsObjectClass[] = "IRSObject";
constexpr char kCollectionClass[] = "COLLECTION";

// Structural attributes every IRSObject carries.
constexpr char kAttrGi[] = "GI";
constexpr char kAttrText[] = "TEXT";
constexpr char kAttrChildren[] = "CHILDREN";
constexpr char kAttrParent[] = "PARENT";
constexpr char kAttrOrd[] = "ORD";

/// Events the dispatcher dropped because the target collection's
/// routed high-water mark already covered them (recovery re-delivery).
obs::Counter& RouteDuplicates() {
  static obs::Counter& c =
      obs::GetCounter("coupling.propagate.duplicates_skipped");
  return c;
}

obs::Counter& RecoveredInflight() {
  static obs::Counter& c =
      obs::GetCounter("coupling.propagate.recovered_inflight");
  return c;
}

}  // namespace

Coupling::Coupling(Database* db, irs::IrsEngine* engine, Options options)
    : db_(db), engine_(engine), options_(std::move(options)),
      query_engine_(db), admission_(options_.admission) {}

Coupling::~Coupling() {
  if (initialized_) {
    db_->RemoveUpdateListener(this);
    if (!options_.irs_snapshot_dir.empty()) db_->SetCheckpointHook(nullptr);
  }
}

Status Coupling::Initialize() {
  if (initialized_) return Status::FailedPrecondition("already initialized");
  SDMS_RETURN_IF_ERROR(oodb::RegisterBuiltins(*db_));
  SDMS_RETURN_IF_ERROR(RegisterCouplingSchema());
  SDMS_RETURN_IF_ERROR(RegisterIrsObjectMethods());
  SDMS_RETURN_IF_ERROR(RegisterCollectionMethods());
  SDMS_RETURN_IF_ERROR(RegisterBuiltinTextModes());
  if (!options_.journal_path.empty()) {
    journal_ = std::make_unique<oodb::Wal>();
    SDMS_RETURN_IF_ERROR(journal_->Open(options_.journal_path));
  }
  if (!options_.irs_snapshot_dir.empty()) {
    // The checkpoint hook persists the IRS (and parks pending ops in
    // the journal) before the database WAL is truncated, so no update
    // event disappears while its effect exists only in memory.
    db_->SetCheckpointHook([this]() { return PersistIrs(); });
  }
  db_->AddUpdateListener(this);
  db_->set_coupling_context(this);
  query_engine_.AddPrepareHook([this](Database&, const ParsedQuery& query,
                                      oodb::vql::BoundCalls& calls) {
    return PrepareIrsConjuncts(query, calls);
  });
  initialized_ = true;
  return Status::OK();
}

Status Coupling::RegisterCouplingSchema() {
  if (!db_->schema().HasClass(kIrsObjectClass)) {
    ClassDef irs_object;
    irs_object.name = kIrsObjectClass;
    irs_object.super = oodb::kObjectClass;
    irs_object.abstract = true;
    irs_object.attributes = {
        AttributeDef{kAttrGi, ValueType::kString, Value()},
        AttributeDef{kAttrText, ValueType::kString, Value()},
        AttributeDef{kAttrChildren, ValueType::kList, Value()},
        AttributeDef{kAttrParent, ValueType::kOid, Value()},
        AttributeDef{kAttrOrd, ValueType::kInt, Value()},
    };
    SDMS_RETURN_IF_ERROR(db_->schema().DefineClass(std::move(irs_object)));
  }
  if (!db_->schema().HasClass(kCollectionClass)) {
    ClassDef collection;
    collection.name = kCollectionClass;
    collection.super = oodb::kObjectClass;
    collection.attributes = {
        AttributeDef{"NAME", ValueType::kString, Value()},
        AttributeDef{"SPECQUERY", ValueType::kString, Value()},
        AttributeDef{"TEXTMODE", ValueType::kInt, Value()},
        AttributeDef{"IRSMODEL", ValueType::kString, Value()},
    };
    SDMS_RETURN_IF_ERROR(db_->schema().DefineClass(std::move(collection)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

StatusOr<Collection*> Coupling::CreateCollection(
    const std::string& name, const std::string& model_name,
    irs::AnalyzerOptions analyzer_options) {
  if (collections_by_name_.count(name) > 0) {
    return Status::AlreadyExists("collection exists: " + name);
  }
  SDMS_RETURN_IF_ERROR(
      engine_->CreateCollection(name, analyzer_options, model_name).status());
  SDMS_ASSIGN_OR_RETURN(Oid oid, db_->CreateObject(kCollectionClass));
  SDMS_RETURN_IF_ERROR(db_->SetAttribute(oid, "NAME", Value(name)));
  SDMS_RETURN_IF_ERROR(db_->SetAttribute(oid, "IRSMODEL", Value(model_name)));
  // The inference-network model assigns the default belief to documents
  // without evidence; other models score them zero.
  double missing = model_name == "inquery" ? 0.4 : 0.0;
  auto collection = std::make_unique<Collection>(this, oid, name, missing);
  Collection* raw = collection.get();
  collections_.emplace(oid, std::move(collection));
  collections_by_name_.emplace(name, oid);
  return raw;
}

StatusOr<Collection*> Coupling::GetCollection(Oid oid) {
  auto it = collections_.find(oid);
  if (it == collections_.end()) {
    return Status::NotFound("no COLLECTION object " + oid.ToString());
  }
  return it->second.get();
}

StatusOr<Collection*> Coupling::GetCollectionByName(const std::string& name) {
  auto it = collections_by_name_.find(name);
  if (it == collections_by_name_.end()) {
    return Status::NotFound("no collection named " + name);
  }
  return GetCollection(it->second);
}

std::vector<Collection*> Coupling::collections() {
  std::vector<Collection*> out;
  out.reserve(collections_.size());
  for (auto& [oid, c] : collections_) out.push_back(c.get());
  return out;
}

Status Coupling::ConnectRemoteShards(const std::string& collection_name,
                                     const std::string& endpoints) {
  SDMS_ASSIGN_OR_RETURN(Collection * collection,
                        GetCollectionByName(collection_name));
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                        engine_->GetCollection(collection_name));
  std::vector<std::string> parts = Split(endpoints, ',');
  if (parts.size() > coll->num_shards()) {
    return Status::InvalidArgument(
        "endpoint list names " + std::to_string(parts.size()) +
        " shards, collection '" + collection_name + "' has " +
        std::to_string(coll->num_shards()));
  }
  Status first_failure = Status::OK();
  for (size_t s = 0; s < parts.size(); ++s) {
    const std::string& ep = parts[s];
    if (ep.empty()) continue;  // this shard stays in-process
    size_t colon = ep.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == ep.size()) {
      return Status::InvalidArgument("malformed shard endpoint '" + ep +
                                     "' (want host:port)");
    }
    char* end = nullptr;
    unsigned long port = std::strtoul(ep.c_str() + colon + 1, &end, 10);
    if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
      return Status::InvalidArgument("malformed shard endpoint port in '" +
                                     ep + "'");
    }
    RemoteShardOptions opts;
    opts.host = ep.substr(0, colon);
    opts.port = static_cast<uint16_t>(port);
    opts.collection = collection_name;
    opts.shard = static_cast<uint32_t>(s);
    opts.num_shards = static_cast<uint32_t>(coll->num_shards());
    opts.model_name = coll->model().name();
    opts.analyzer = coll->analyzer().options();
    Status attached = collection->AttachRemoteShard(
        s, std::make_shared<RemoteShardChannel>(opts));
    if (!attached.ok()) {
      SDMS_LOG(WARN) << "remote shard " << collection_name << "/" << s
                     << " at " << ep << " not yet synced: "
                     << attached.ToString();
      if (first_failure.ok()) first_failure = attached;
    }
  }
  return first_failure;
}

Status Coupling::DropCollection(const std::string& name) {
  auto it = collections_by_name_.find(name);
  if (it == collections_by_name_.end()) {
    return Status::NotFound("no collection named " + name);
  }
  Oid oid = it->second;
  SDMS_RETURN_IF_ERROR(engine_->DropCollection(name));
  collections_.erase(oid);
  collections_by_name_.erase(it);
  return db_->DeleteObject(oid);
}

StatusOr<size_t> Coupling::RestoreCollections() {
  size_t restored = 0;
  for (Oid oid : db_->Extent(kCollectionClass)) {
    if (collections_.count(oid) > 0) continue;
    auto name = db_->GetAttribute(oid, "NAME");
    if (!name.ok() || !name->is_string()) continue;
    if (collections_by_name_.count(name->as_string()) > 0) continue;
    // The IRS collection must have been restored already.
    auto irs_coll = engine_->GetCollection(name->as_string());
    if (!irs_coll.ok()) continue;

    auto model = db_->GetAttribute(oid, "IRSMODEL");
    std::string model_name =
        model.ok() && model->is_string() ? model->as_string() : "inquery";
    double missing = model_name == "inquery" ? 0.4 : 0.0;
    auto collection =
        std::make_unique<Collection>(this, oid, name->as_string(), missing);

    // Reattach the persisted indexing configuration.
    auto spec = db_->GetAttribute(oid, "SPECQUERY");
    if (spec.ok() && spec->is_string() && !spec->as_string().empty()) {
      auto parsed = oodb::vql::ParseQuery(spec->as_string());
      if (parsed.ok()) {
        collection->spec_query_ = spec->as_string();
        collection->parsed_spec_ = std::move(*parsed);
      }
    }
    auto mode = db_->GetAttribute(oid, "TEXTMODE");
    if (mode.ok() && mode->is_int()) {
      collection->text_mode_ = static_cast<int>(mode->as_int());
    }
    // The represented set is exactly the restored index's live keys.
    SDMS_RETURN_IF_ERROR(collection->ResyncRepresented(*irs_coll));
    // Exactly-once floor: every sequenced event at or below the
    // snapshot's high-water mark is already reflected in (or cancelled
    // out of) the restored index, so recovery must not re-route it.
    collection->last_routed_seq_ = (*irs_coll)->applied_seq();
    collections_by_name_.emplace(name->as_string(), oid);
    collections_.emplace(oid, std::move(collection));
    ++restored;
  }
  return restored;
}

Status Coupling::SetDefaultCollection(const std::string& name) {
  SDMS_RETURN_IF_ERROR(GetCollectionByName(name).status());
  default_collection_ = name;
  return Status::OK();
}

Status Coupling::SetClassCollection(const std::string& class_name,
                                    const std::string& collection_name) {
  if (!db_->schema().HasClass(class_name)) {
    return Status::NotFound("no class " + class_name);
  }
  SDMS_RETURN_IF_ERROR(GetCollectionByName(collection_name).status());
  class_collections_[class_name] = collection_name;
  return Status::OK();
}

StatusOr<Collection*> Coupling::ChooseCollectionFor(Oid obj) {
  // Most-derived class mapping first (alternative (3)).
  auto cls_or = db_->ClassOf(obj);
  if (cls_or.ok()) {
    std::string cur = *cls_or;
    while (!cur.empty()) {
      auto it = class_collections_.find(cur);
      if (it != class_collections_.end()) {
        return GetCollectionByName(it->second);
      }
      auto def = db_->schema().GetClass(cur);
      if (!def.ok()) break;
      cur = (*def)->super;
    }
  }
  // Fallback: the hard-wired default (alternative (1)).
  if (!default_collection_.empty()) {
    return GetCollectionByName(default_collection_);
  }
  return Status::FailedPrecondition(
      "no collection configured for " + obj.ToString() +
      " (pass one explicitly, or SetDefaultCollection / "
      "SetClassCollection first)");
}

StatusOr<Collection*> Coupling::ResolveCollectionArg(const Value& v) {
  if (v.is_oid()) return GetCollection(v.as_oid());
  if (v.is_string()) return GetCollectionByName(v.as_string());
  return Status::TypeError(
      "collection argument must be a COLLECTION object or name, got " +
      v.ToString());
}

// ---------------------------------------------------------------------------
// Text modes
// ---------------------------------------------------------------------------

void Coupling::RegisterTextProvider(int mode, TextProvider provider) {
  text_providers_[mode] = std::move(provider);
}

StatusOr<std::string> Coupling::GetText(Oid obj, int mode) {
  auto it = text_providers_.find(mode);
  if (it == text_providers_.end()) {
    return Status::NotFound("no text provider for mode " +
                            std::to_string(mode));
  }
  return it->second(*db_, obj);
}

Status Coupling::RegisterBuiltinTextModes() {
  // Mode 0: all leaf text of the subtree (the paper's SGML default:
  // "by inspecting the leaves of the subtree rooted at an element,
  // getText identifies its representation").
  RegisterTextProvider(kTextModeSubtree,
                       [this](Database&, Oid oid) -> StatusOr<std::string> {
                         return SubtreeText(oid);
                       });
  // Mode 1: the element's own text only.
  RegisterTextProvider(kTextModeDirect,
                       [](Database& db, Oid oid) -> StatusOr<std::string> {
                         SDMS_ASSIGN_OR_RETURN(Value text,
                                               db.GetAttribute(oid, kAttrText));
                         return text.is_string() ? text.as_string()
                                                 : std::string();
                       });
  // Mode 2: automatically generated abstract from the titles of all
  // subobjects (Section 4.3.1, alternative (1)).
  RegisterTextProvider(
      kTextModeTitles, [this](Database& db, Oid oid) -> StatusOr<std::string> {
        std::string out;
        std::vector<Oid> stack = {oid};
        while (!stack.empty()) {
          Oid cur = stack.back();
          stack.pop_back();
          SDMS_ASSIGN_OR_RETURN(std::string cls, db.ClassOf(cur));
          if (cls.find("TITLE") != std::string::npos) {
            SDMS_ASSIGN_OR_RETURN(std::string text, SubtreeText(cur));
            if (!out.empty()) out += " ";
            out += text;
          }
          SDMS_ASSIGN_OR_RETURN(std::vector<Oid> children, ChildrenOf(cur));
          for (auto it = children.rbegin(); it != children.rend(); ++it) {
            stack.push_back(*it);
          }
        }
        return out;
      });
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SGML document storage (Section 4.1)
// ---------------------------------------------------------------------------

Status Coupling::RegisterDtdClasses(const sgml::Dtd& dtd) {
  for (const std::string& name : dtd.element_names()) {
    if (db_->schema().HasClass(name)) continue;
    SDMS_ASSIGN_OR_RETURN(const sgml::ElementDecl* decl,
                          dtd.GetElement(name));
    ClassDef cls;
    cls.name = name;
    cls.super = kIrsObjectClass;
    for (const sgml::AttributeDecl& attr : decl->attributes) {
      AttributeDef def;
      def.name = attr.name;
      def.type = attr.type == sgml::AttrType::kNumber ? ValueType::kInt
                                                      : ValueType::kString;
      if (attr.has_default) def.default_value = Value(attr.default_value);
      cls.attributes.push_back(std::move(def));
    }
    SDMS_RETURN_IF_ERROR(db_->schema().DefineClass(std::move(cls)));
  }
  return Status::OK();
}

StatusOr<Oid> Coupling::StoreDocument(const sgml::Document& doc) {
  if (doc.root == nullptr) {
    return Status::InvalidArgument("document has no root element");
  }
  TxnId txn = db_->Begin();
  auto root_or = StoreElement(*doc.root, kNullOid, 0, txn);
  if (!root_or.ok()) {
    (void)db_->Abort(txn);
    return root_or.status();
  }
  SDMS_RETURN_IF_ERROR(db_->Commit(txn));
  return *root_or;
}

StatusOr<Oid> Coupling::StoreElement(const sgml::ElementNode& element,
                                     Oid parent, int ord, TxnId txn) {
  if (!db_->schema().HasClass(element.gi())) {
    return Status::NotFound("no element-type class for " + element.gi() +
                            " (RegisterDtdClasses first)");
  }
  SDMS_ASSIGN_OR_RETURN(Oid oid, db_->CreateObject(element.gi(), txn));
  SDMS_RETURN_IF_ERROR(
      db_->SetAttribute(oid, kAttrGi, Value(element.gi()), txn));
  if (parent.valid()) {
    SDMS_RETURN_IF_ERROR(
        db_->SetAttribute(oid, kAttrParent, Value(parent), txn));
  }
  SDMS_RETURN_IF_ERROR(
      db_->SetAttribute(oid, kAttrOrd, Value(static_cast<int64_t>(ord)), txn));
  // SGML attributes (declared ones are schema-typed).
  for (const auto& [name, raw] : element.attributes()) {
    auto decl = db_->schema().FindAttribute(element.gi(), name);
    if (!decl.ok()) continue;  // Undeclared: dropped (validator reports).
    Value value;
    if ((*decl)->type == ValueType::kInt) {
      try {
        value = Value(static_cast<int64_t>(std::stoll(raw)));
      } catch (...) {
        return Status::TypeError("attribute " + name + " of " + element.gi() +
                                 " is not numeric: " + raw);
      }
    } else {
      value = Value(raw);
    }
    SDMS_RETURN_IF_ERROR(db_->SetAttribute(oid, name, value, txn));
  }
  SDMS_RETURN_IF_ERROR(
      db_->SetAttribute(oid, kAttrText, Value(element.DirectText()), txn));
  ValueList children;
  int child_ord = 0;
  for (const sgml::Node& n : element.children()) {
    if (n.kind != sgml::Node::Kind::kElement) continue;
    SDMS_ASSIGN_OR_RETURN(Oid child,
                          StoreElement(*n.element, oid, child_ord++, txn));
    children.push_back(Value(child));
  }
  SDMS_RETURN_IF_ERROR(
      db_->SetAttribute(oid, kAttrChildren, Value(std::move(children)), txn));
  return oid;
}

StatusOr<std::vector<Oid>> Coupling::ChildrenOf(Oid oid) const {
  SDMS_ASSIGN_OR_RETURN(Value children, db_->GetAttribute(oid, kAttrChildren));
  std::vector<Oid> out;
  if (!children.is_list()) return out;
  for (const Value& v : children.as_list()) {
    if (v.is_oid()) out.push_back(v.as_oid());
  }
  return out;
}

StatusOr<Oid> Coupling::ParentOf(Oid oid) const {
  SDMS_ASSIGN_OR_RETURN(Value parent, db_->GetAttribute(oid, kAttrParent));
  return parent.is_oid() ? parent.as_oid() : kNullOid;
}

StatusOr<Oid> Coupling::ContainingOf(Oid oid, const std::string& gi) const {
  Oid cur = oid;
  while (cur.valid()) {
    SDMS_ASSIGN_OR_RETURN(std::string cls, db_->ClassOf(cur));
    if (cls == gi) return cur;
    SDMS_ASSIGN_OR_RETURN(cur, ParentOf(cur));
  }
  return kNullOid;
}

StatusOr<Oid> Coupling::NextSiblingOf(Oid oid) const {
  SDMS_ASSIGN_OR_RETURN(Oid parent, ParentOf(oid));
  if (!parent.valid()) return kNullOid;
  SDMS_ASSIGN_OR_RETURN(std::vector<Oid> siblings, ChildrenOf(parent));
  for (size_t i = 0; i < siblings.size(); ++i) {
    if (siblings[i] == oid) {
      return i + 1 < siblings.size() ? siblings[i + 1] : kNullOid;
    }
  }
  return kNullOid;
}

StatusOr<std::string> Coupling::SubtreeText(Oid oid) const {
  SDMS_ASSIGN_OR_RETURN(Value text, db_->GetAttribute(oid, kAttrText));
  std::string out = text.is_string() ? text.as_string() : std::string();
  SDMS_ASSIGN_OR_RETURN(std::vector<Oid> children, ChildrenOf(oid));
  for (Oid child : children) {
    SDMS_ASSIGN_OR_RETURN(std::string part, SubtreeText(child));
    if (part.empty()) continue;
    if (!out.empty()) out += " ";
    out += part;
  }
  return out;
}

Status Coupling::DeleteSubtree(Oid oid) {
  SDMS_ASSIGN_OR_RETURN(Oid parent, ParentOf(oid));
  // Collect the subtree bottom-up.
  std::vector<Oid> order;
  std::vector<Oid> stack = {oid};
  while (!stack.empty()) {
    Oid cur = stack.back();
    stack.pop_back();
    order.push_back(cur);
    SDMS_ASSIGN_OR_RETURN(std::vector<Oid> children, ChildrenOf(cur));
    for (Oid c : children) stack.push_back(c);
  }
  TxnId txn = db_->Begin();
  // Unlink from the parent first: the CHILDREN update is a modify event
  // on the parent, which tells collections the ancestor text changed.
  if (parent.valid()) {
    auto children_or = db_->GetAttribute(parent, kAttrChildren);
    if (children_or.ok() && children_or->is_list()) {
      ValueList rest;
      for (const Value& v : children_or->as_list()) {
        if (!(v.is_oid() && v.as_oid() == oid)) rest.push_back(v);
      }
      Status s = db_->SetAttribute(parent, kAttrChildren,
                                   Value(std::move(rest)), txn);
      if (!s.ok()) {
        (void)db_->Abort(txn);
        return s;
      }
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Status s = db_->DeleteObject(*it, txn);
    if (!s.ok()) {
      (void)db_->Abort(txn);
      return s;
    }
  }
  return db_->Commit(txn);
}

// ---------------------------------------------------------------------------
// Update dispatch (Section 4.6)
// ---------------------------------------------------------------------------

void Coupling::OnUpdate(UpdateKind kind, Oid oid,
                        const std::string& class_name,
                        const std::string& attr, uint64_t seq) {
  (void)attr;
  RouteUpdate(kind, oid, class_name, seq);
}

void Coupling::RouteUpdate(UpdateKind kind, Oid oid,
                           const std::string& class_name, uint64_t seq) {
  if (class_name == kCollectionClass || collections_.empty()) return;
  // Indirect effect: the text of every ancestor changed as well (its
  // getText covers the subtree). The ancestors are collected once;
  // their modifies share the event's seq, so a collection's routed
  // high-water mark only advances after the direct effect *and* every
  // ancestor modify are recorded — never in between.
  std::vector<Oid> ancestors;
  if (kind != UpdateKind::kDelete) {
    auto parent_or = ParentOf(oid);
    while (parent_or.ok() && parent_or->valid()) {
      ancestors.push_back(*parent_or);
      parent_or = ParentOf(*parent_or);
    }
  }
  for (auto& [coid, collection] : collections_) {
    // Exactly-once guard: recovery re-delivers WAL events from the
    // last checkpoint on; those already covered are duplicates. The
    // check is per shard: an event concerns exactly one shard (each
    // ancestor its own), and that shard's applied floor says exactly
    // whether the effect survives in the restored index. The
    // collection-wide routed mark alone undershoots after a restart
    // (it restores as the minimum across shards), and a re-delivered
    // durable insert is not merely wasted work — it folds with a
    // fresh modify of the same object into a net insert the duplicate
    // check then swallows, or with a fresh delete into annihilation.
    auto irs_coll = engine_->GetCollection(collection->irs_collection_name());
    auto floor_for = [&](Oid target) {
      uint64_t floor = collection->last_routed_seq();
      if (irs_coll.ok()) {
        floor = std::max(floor, (*irs_coll)->shard_applied_seq(
                                    (*irs_coll)->ShardOfKey(
                                        target.ToString())));
      }
      return floor;
    };
    if (seq != 0 && seq <= floor_for(oid)) {
      RouteDuplicates().Increment();
      continue;
    }
    Status s = Status::OK();
    switch (kind) {
      case UpdateKind::kInsert:
        s = collection->OnInsert(oid, seq);
        break;
      case UpdateKind::kModify:
        s = collection->OnModify(oid, seq);
        break;
      case UpdateKind::kDelete:
        s = collection->OnDelete(oid, seq);
        break;
    }
    (void)s;  // Propagation errors surface on the next query.
    for (Oid ancestor : ancestors) {
      if (collection->Represents(ancestor) &&
          (seq == 0 || seq > floor_for(ancestor))) {
        (void)collection->OnModify(ancestor, seq);
      }
    }
    collection->NoteRoutedSeq(seq);
  }
}

// ---------------------------------------------------------------------------
// Exactly-once propagation: journal, recovery, persistence
// ---------------------------------------------------------------------------

namespace {

std::string EncodePrepare(Oid collection, uint32_t shard, uint64_t high,
                          const std::vector<PendingOp>& ops) {
  oodb::Encoder enc;
  enc.PutU8(static_cast<uint8_t>(oodb::WalRecordType::kPropagatePrepare));
  enc.PutU64(collection.raw());
  enc.PutU32(shard);
  enc.PutU64(high);
  enc.PutU32(static_cast<uint32_t>(ops.size()));
  for (const PendingOp& op : ops) {
    enc.PutU8(static_cast<uint8_t>(op.kind));
    enc.PutU64(op.oid.raw());
    enc.PutU64(op.seq);
  }
  return std::string(enc.data());
}

}  // namespace

Status Coupling::JournalPrepare(Oid collection, uint32_t shard, uint64_t high,
                                const std::vector<PendingOp>& ops) {
  if (journal_ == nullptr) return Status::OK();
  return journal_->AppendDurable(EncodePrepare(collection, shard, high, ops));
}

Status Coupling::JournalCommit(Oid collection, uint32_t shard, uint64_t high) {
  if (journal_ == nullptr) return Status::OK();
  oodb::Encoder enc;
  enc.PutU8(static_cast<uint8_t>(oodb::WalRecordType::kPropagateCommit));
  enc.PutU64(collection.raw());
  enc.PutU32(shard);
  enc.PutU64(high);
  return journal_->AppendDurable(enc.data());
}

Status Coupling::RecoverPropagation() {
  // (1) Journal replay. A commit record only proves the batch was
  // applied to the *in-memory* index — if the process died before the
  // next SaveTo, those effects are gone, and for ops whose database
  // WAL events a checkpoint already truncated (the parked prepares)
  // the journal is the only durable record left. So commits are NOT
  // trusted to resolve prepares here; the one durable truth is the
  // restored snapshot's high-water mark, and every journaled batch
  // above that floor is folded back into the collection's update log.
  // The reconciling ApplyOp makes replay idempotent, so this
  // over-approximation (re-delivering batches that did apply and
  // commit but were never persisted) is safe — duplicates reconcile
  // to no-ops.
  struct PreparedBatch {
    uint32_t shard = 0;
    uint64_t high = 0;
    std::vector<PendingOp> ops;
  };
  if (!options_.journal_path.empty()) {
    std::map<Oid, std::vector<PreparedBatch>> prepared;
    SDMS_RETURN_IF_ERROR(oodb::Wal::Replay(
        options_.journal_path, [&](std::string_view payload) -> Status {
          oodb::Decoder dec(payload);
          SDMS_ASSIGN_OR_RETURN(uint8_t type, dec.GetU8());
          if (type ==
              static_cast<uint8_t>(oodb::WalRecordType::kPropagatePrepare)) {
            SDMS_ASSIGN_OR_RETURN(uint64_t coll_raw, dec.GetU64());
            PreparedBatch batch;
            SDMS_ASSIGN_OR_RETURN(batch.shard, dec.GetU32());
            SDMS_ASSIGN_OR_RETURN(batch.high, dec.GetU64());
            SDMS_ASSIGN_OR_RETURN(uint32_t count, dec.GetU32());
            for (uint32_t i = 0; i < count; ++i) {
              SDMS_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
              if (kind > static_cast<uint8_t>(UpdateKind::kDelete)) {
                return Status::Corruption("bad op kind in prepare record");
              }
              SDMS_ASSIGN_OR_RETURN(uint64_t oid_raw, dec.GetU64());
              SDMS_ASSIGN_OR_RETURN(uint64_t seq, dec.GetU64());
              batch.ops.push_back(PendingOp{static_cast<UpdateKind>(kind),
                                            Oid(oid_raw), seq});
            }
            prepared[Oid(coll_raw)].push_back(std::move(batch));
          } else if (type == static_cast<uint8_t>(
                                 oodb::WalRecordType::kPropagateCommit)) {
            // Advisory only (see above): the batch completed in memory
            // at the time, which says nothing about durability.
            SDMS_ASSIGN_OR_RETURN(uint64_t coll_raw, dec.GetU64());
            SDMS_ASSIGN_OR_RETURN(uint32_t shard, dec.GetU32());
            SDMS_ASSIGN_OR_RETURN(uint64_t high, dec.GetU64());
            (void)coll_raw;
            (void)shard;
            (void)high;
          } else {
            return Status::Corruption("unknown propagation-journal record");
          }
          return Status::OK();
        }));
    for (auto& [coid, batches] : prepared) {
      auto it = collections_.find(coid);
      if (it == collections_.end()) continue;
      // The durable floor: every sequenced effect at or below it is in
      // the restored index (the floor only ever advances on a fully
      // applied batch, and the snapshot persisted that index). Ops at
      // or below the floor must NOT be requeued — not just as an
      // optimization: re-delivering an already-durable insert would
      // fold with a later re-routed delete of the same object and
      // annihilate in the update log, silently dropping the delete.
      // Unsequenced ops (seq 0, direct API calls) are requeued
      // conservatively; their replay reconciles to a no-op.
      //
      // Floors are per shard: a prepare is scoped to one shard, and
      // that shard's restored applied_seq tells exactly whether its
      // sub-batch is in the snapshot — shard 2 may have committed high
      // while shard 0 faulted and stayed behind. When the record's
      // shard no longer exists (the snapshot was written under a
      // smaller shard count), the collection-wide minimum is the
      // conservative floor.
      auto irs_coll = engine_->GetCollection(it->second->irs_collection_name());
      uint64_t min_floor = it->second->last_routed_seq();
      size_t requeued = 0;
      for (const PreparedBatch& batch : batches) {
        uint64_t floor = min_floor;
        if (irs_coll.ok() && batch.shard < (*irs_coll)->num_shards()) {
          floor = (*irs_coll)->shard_applied_seq(batch.shard);
        }
        if (batch.high < floor) continue;
        for (const PendingOp& op : batch.ops) {
          if (op.seq != 0 && op.seq <= floor) continue;
          it->second->update_log_.Requeue(op);
          ++requeued;
        }
      }
      if (requeued > 0) {
        RecoveredInflight().Add(requeued);
        SDMS_LOG(INFO) << "recovery: requeued " << requeued
                       << " in-flight op(s) for '"
                       << it->second->irs_collection_name()
                       << "' from the propagation journal";
      }
    }
  }
  // (2) Re-route the committed update events the database WAL
  // re-delivered. Per collection, the routing guard drops the ones its
  // restored high-water mark already covers.
  for (const oodb::RecoveredUpdate& ev : db_->TakeRecoveredUpdates()) {
    RouteUpdate(ev.kind, ev.oid, ev.cls, ev.seq);
  }
  // (3) Sweep stray files a crashed run left behind: half-written
  // snapshot temps, and (when this coupling owns a private exchange
  // directory) abandoned IRS result files. The shared /tmp default is
  // deliberately not swept — a concurrent process may be mid-exchange.
  size_t swept = 0;
  if (!options_.irs_snapshot_dir.empty()) {
    auto n = RemoveMatchingFiles(options_.irs_snapshot_dir, "", ".tmp");
    if (n.ok()) swept += *n;
  }
  if (options_.file_exchange && options_.exchange_dir != "/tmp") {
    auto n = RemoveMatchingFiles(options_.exchange_dir, "irs_result_", "");
    if (n.ok()) swept += *n;
  }
  obs::GetGauge("coupling.recovery.swept_files")
      .Set(static_cast<int64_t>(swept));
  if (swept > 0) {
    SDMS_LOG(INFO) << "recovery: swept " << swept << " stray file(s)";
  }
  return Status::OK();
}

Status Coupling::PersistIrs() {
  if (options_.irs_snapshot_dir.empty()) {
    return Status::FailedPrecondition("no irs_snapshot_dir configured");
  }
  SDMS_RETURN_IF_ERROR(engine_->SaveTo(options_.irs_snapshot_dir));
  if (journal_ != nullptr) {
    // Everything applied is now durable (the snapshots carry their
    // high-water marks), so the journal's history is obsolete — except
    // for still-pending ops: once the database checkpoint this persist
    // precedes truncates the WAL, their update events are gone, making
    // the journal their only durable record. Park them as uncommitted
    // prepares; recovery requeues those unconditionally.
    //
    // The swap to parks-only MUST be atomic. A previous checkpoint may
    // have parked these same ops and truncated their WAL events, so if
    // the journal were truncated first and the parks appended after, a
    // crash between the two would destroy the ops' only durable copy —
    // a permanently lost update the reconciling replay cannot repair.
    std::vector<std::string> parked;
    for (auto& [coid, collection] : collections_) {
      std::vector<PendingOp> pending = collection->update_log_.Peek();
      if (pending.empty()) continue;
      uint64_t high = std::max(collection->last_routed_seq(),
                               collection->update_log_.last_seq());
      // Park one prepare per (collection, shard) so recovery can apply
      // its per-shard floors. Without a resolvable IRS collection the
      // ops park under shard 0; recovery then falls back to the
      // collection-wide floor, which is merely conservative.
      auto irs_coll = engine_->GetCollection(collection->irs_collection_name());
      std::map<uint32_t, std::vector<PendingOp>> by_shard;
      for (const PendingOp& op : pending) {
        uint32_t shard =
            irs_coll.ok() ? static_cast<uint32_t>(
                                (*irs_coll)->ShardOfKey(op.oid.ToString()))
                          : 0;
        by_shard[shard].push_back(op);
      }
      for (const auto& [shard, shard_ops] : by_shard) {
        parked.push_back(EncodePrepare(coid, shard, high, shard_ops));
      }
    }
    SDMS_RETURN_IF_ERROR(journal_->ReplaceAtomic(parked));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Semantic query optimization hook
// ---------------------------------------------------------------------------

namespace {

/// `getIRSValue('<coll>', '<query>')` bound for one VQL statement to the
/// IRS result PrepareIrsConjuncts pinned in the statement's read
/// context. Each evaluation is FindIrsValue's walk over that context:
/// one buffer hit, as a per-binding lookup would be, booked with the
/// rest of the context when the engine flushes the call.
class BoundIrsValue : public oodb::vql::BoundCall {
 public:
  BoundIrsValue(std::shared_ptr<ReadContext> ctx, ReadContext::Query* query)
      : ctx_(std::move(ctx)), query_(query) {}

  StatusOr<Value> Call(Oid self) override {
    SDMS_ASSIGN_OR_RETURN(double value,
                          query_->coll->FindIrsValue(*ctx_, *query_, self));
    return Value(value);
  }

  void Flush() override { ctx_->Flush(); }

 private:
  std::shared_ptr<ReadContext> ctx_;
  ReadContext::Query* query_;
};

/// Calls `fn` on every `getIRSValue(collection-literal, query-literal)`
/// in the tree under `root` (not only top-level conjuncts).
template <typename Fn>
void ForEachContentCall(const oodb::vql::Expr* root, Fn&& fn) {
  std::vector<const oodb::vql::Expr*> stack;
  if (root != nullptr) stack.push_back(root);
  while (!stack.empty()) {
    const oodb::vql::Expr* e = stack.back();
    stack.pop_back();
    if (e->kind == ExprKind::kMethodCall && e->name == "getIRSValue" &&
        e->args.size() == 2 && e->args[0]->kind == ExprKind::kLiteral &&
        e->args[0]->literal.is_string() &&
        e->args[1]->kind == ExprKind::kLiteral &&
        e->args[1]->literal.is_string()) {
      fn(e, e->args[0]->literal.as_string(), e->args[1]->literal.as_string());
    }
    if (e->child) stack.push_back(e->child.get());
    if (e->rhs) stack.push_back(e->rhs.get());
    for (const auto& a : e->args) stack.push_back(a.get());
  }
}

}  // namespace

Status Coupling::PrepareIrsConjuncts(const ParsedQuery& query,
                                     oodb::vql::BoundCalls& calls) {
  // The implementation a receiver must dispatch getIRSValue to for a
  // bound call to answer for it; overrides keep the Invoke path.
  auto method =
      db_->methods().Resolve(db_->schema(), kIrsObjectClass, "getIRSValue");
  // The statement's read context, shared by every call bound to it.
  auto ctx = std::make_shared<ReadContext>();
  auto bind = [&](const oodb::vql::Expr* call, ReadContext::Query* q) {
    calls.Bind(call, *method, std::make_unique<BoundIrsValue>(ctx, q));
  };
  // WHERE: every content call warms its collection's buffer with one
  // batched IRS call, and a result served fresh from the buffer is
  // pinned for the statement.
  Status status = Status::OK();
  ForEachContentCall(query.where.get(), [&](const oodb::vql::Expr* call,
                                            const std::string& name,
                                            const std::string& irs_query) {
    if (!status.ok()) return;
    auto coll = GetCollectionByName(name);
    if (!coll.ok()) return;
    ReadContext::Query& q = ctx->Get(*coll, irs_query);
    Status warmed = (*coll)->WarmIrsResult(q);
    if (!warmed.ok()) {
      // An unavailable IRS leaves the call to FindIrsValue's degraded
      // fallback (null score, derivation). The query's own stop
      // (deadline, budget, cancellation) and logic errors propagate.
      QueryContext* qctx = QueryContext::Current();
      if (!IsUnavailable(warmed) || (qctx != nullptr && qctx->ShouldStop())) {
        status = warmed;
        return;
      }
      calls.NoteDegraded("IRS unavailable for '" + irs_query + "' on '" +
                         name + "': " + warmed.ToString());
      return;
    }
    if (q.pinned != nullptr && method.ok()) bind(call, &q);
  });
  SDMS_RETURN_IF_ERROR(status);
  // SELECT and ORDER BY reuse what WHERE pinned; a query first seen
  // there keeps the per-binding path.
  auto bind_pinned = [&](const oodb::vql::Expr* call, const std::string& name,
                         const std::string& irs_query) {
    auto coll = GetCollectionByName(name);
    if (!coll.ok() || !method.ok()) return;
    ReadContext::Query& q = ctx->Get(*coll, irs_query);
    if (q.pinned != nullptr) bind(call, &q);
  };
  for (const auto& e : query.select) ForEachContentCall(e.get(), bind_pinned);
  if (query.order_by != nullptr) {
    ForEachContentCall(query.order_by->expr.get(), bind_pinned);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// VQL method registration
// ---------------------------------------------------------------------------

namespace {

Coupling* CouplingOf(const MethodContext& ctx) {
  return static_cast<Coupling*>(ctx.coupling);
}

}  // namespace

Status Coupling::RegisterIrsObjectMethods() {
  auto& methods = db_->methods();

  methods.Register(
      kIrsObjectClass, "getText",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>& args) -> StatusOr<Value> {
        int mode = 0;
        if (args.size() == 1 && args[0].is_int()) {
          mode = static_cast<int>(args[0].as_int());
        } else if (!args.empty()) {
          return Status::InvalidArgument("getText takes an optional INT mode");
        }
        SDMS_ASSIGN_OR_RETURN(std::string text,
                              CouplingOf(ctx)->GetText(self, mode));
        return Value(std::move(text));
      });

  methods.Register(
      kIrsObjectClass, "getIRSValue",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>& args) -> StatusOr<Value> {
        Collection* coll = nullptr;
        const std::string* query = nullptr;
        if (args.size() == 2 && args[1].is_string()) {
          // Alternative (2) of Section 4.5.1: explicit collection.
          SDMS_ASSIGN_OR_RETURN(coll,
                                CouplingOf(ctx)->ResolveCollectionArg(args[0]));
          query = &args[1].as_string();
        } else if (args.size() == 1 && args[0].is_string()) {
          // Alternatives (1)/(3): the coupling chooses the collection.
          SDMS_ASSIGN_OR_RETURN(coll,
                                CouplingOf(ctx)->ChooseCollectionFor(self));
          query = &args[0].as_string();
        } else {
          return Status::InvalidArgument(
              "getIRSValue expects ([collection,] IRSQuery)");
        }
        SDMS_ASSIGN_OR_RETURN(double value, coll->FindIrsValue(*query, self));
        return Value(value);
      });

  methods.Register(
      kIrsObjectClass, "deriveIRSValue",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>& args) -> StatusOr<Value> {
        if (args.size() != 2 || !args[1].is_string()) {
          return Status::InvalidArgument(
              "deriveIRSValue expects (collection, IRSQuery)");
        }
        SDMS_ASSIGN_OR_RETURN(Collection * coll,
                              CouplingOf(ctx)->ResolveCollectionArg(args[0]));
        SDMS_ASSIGN_OR_RETURN(double value,
                              coll->DeriveIrsValue(args[1].as_string(), self));
        return Value(value);
      });

  methods.Register(
      kIrsObjectClass, "getChildren",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>&) -> StatusOr<Value> {
        SDMS_ASSIGN_OR_RETURN(std::vector<Oid> children,
                              CouplingOf(ctx)->ChildrenOf(self));
        ValueList out;
        out.reserve(children.size());
        for (Oid c : children) out.push_back(Value(c));
        return Value(std::move(out));
      });

  methods.Register(
      kIrsObjectClass, "getParent",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>&) -> StatusOr<Value> {
        SDMS_ASSIGN_OR_RETURN(Oid parent, CouplingOf(ctx)->ParentOf(self));
        return parent.valid() ? Value(parent) : Value();
      });

  methods.Register(
      kIrsObjectClass, "getNext",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>&) -> StatusOr<Value> {
        SDMS_ASSIGN_OR_RETURN(Oid next, CouplingOf(ctx)->NextSiblingOf(self));
        return next.valid() ? Value(next) : Value();
      });

  methods.Register(
      kIrsObjectClass, "getContaining",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>& args) -> StatusOr<Value> {
        if (args.size() != 1 || !args[0].is_string()) {
          return Status::InvalidArgument(
              "getContaining expects an element-type name");
        }
        SDMS_ASSIGN_OR_RETURN(
            Oid found, CouplingOf(ctx)->ContainingOf(self, args[0].as_string()));
        return found.valid() ? Value(found) : Value();
      });

  methods.Register(
      kIrsObjectClass, "length",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>&) -> StatusOr<Value> {
        SDMS_ASSIGN_OR_RETURN(std::string text,
                              CouplingOf(ctx)->SubtreeText(self));
        return Value(static_cast<int64_t>(SplitWhitespace(text).size()));
      });

  methods.Register(
      kIrsObjectClass, "subtreeText",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>&) -> StatusOr<Value> {
        SDMS_ASSIGN_OR_RETURN(std::string text,
                              CouplingOf(ctx)->SubtreeText(self));
        return Value(std::move(text));
      });

  return Status::OK();
}

Status Coupling::RegisterCollectionMethods() {
  auto& methods = db_->methods();

  methods.Register(
      kCollectionClass, "indexObjects",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>& args) -> StatusOr<Value> {
        if (args.empty() || !args[0].is_string()) {
          return Status::InvalidArgument(
              "indexObjects expects (specQuery [, textMode])");
        }
        int mode = 0;
        if (args.size() >= 2 && args[1].is_int()) {
          mode = static_cast<int>(args[1].as_int());
        }
        SDMS_ASSIGN_OR_RETURN(Collection * coll,
                              CouplingOf(ctx)->GetCollection(self));
        SDMS_RETURN_IF_ERROR(coll->IndexObjects(args[0].as_string(), mode));
        return Value(true);
      });

  methods.Register(
      kCollectionClass, "getIRSResult",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>& args) -> StatusOr<Value> {
        if (args.size() != 1 || !args[0].is_string()) {
          return Status::InvalidArgument("getIRSResult expects (IRSQuery)");
        }
        SDMS_ASSIGN_OR_RETURN(Collection * coll,
                              CouplingOf(ctx)->GetCollection(self));
        SDMS_ASSIGN_OR_RETURN(std::shared_ptr<const OidScoreMap> result,
                              coll->GetIrsResult(args[0].as_string()));
        ValueDict dict;
        for (const auto& [oid, score] : *result) {
          dict.emplace(oid.ToString(), Value(score));
        }
        return Value(std::move(dict));
      });

  methods.Register(
      kCollectionClass, "findIRSValue",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>& args) -> StatusOr<Value> {
        if (args.size() != 2 || !args[0].is_string() || !args[1].is_oid()) {
          return Status::InvalidArgument(
              "findIRSValue expects (IRSQuery, IRSObject)");
        }
        SDMS_ASSIGN_OR_RETURN(Collection * coll,
                              CouplingOf(ctx)->GetCollection(self));
        SDMS_ASSIGN_OR_RETURN(
            double value,
            coll->FindIrsValue(args[0].as_string(), args[1].as_oid()));
        return Value(value);
      });

  methods.Register(
      kCollectionClass, "propagateUpdates",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>&) -> StatusOr<Value> {
        SDMS_ASSIGN_OR_RETURN(Collection * coll,
                              CouplingOf(ctx)->GetCollection(self));
        SDMS_RETURN_IF_ERROR(coll->PropagateUpdates());
        return Value(true);
      });

  methods.Register(
      kCollectionClass, "setDerivationScheme",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>& args) -> StatusOr<Value> {
        if (args.size() != 1 || !args[0].is_string()) {
          return Status::InvalidArgument(
              "setDerivationScheme expects a scheme name");
        }
        SDMS_ASSIGN_OR_RETURN(Collection * coll,
                              CouplingOf(ctx)->GetCollection(self));
        SDMS_RETURN_IF_ERROR(coll->SetDerivationScheme(args[0].as_string()));
        return Value(true);
      });

  return Status::OK();
}

CouplingStats Coupling::AggregateStats() const {
  CouplingStats total;
  for (const auto& [oid, c] : collections_) {
    const CouplingStats& s = c->stats();
    total.irs_queries += s.irs_queries;
    total.buffer_hits += s.buffer_hits;
    total.buffer_misses += s.buffer_misses;
    total.derive_calls += s.derive_calls;
    total.reindex_ops += s.reindex_ops;
    total.bytes_exchanged += s.bytes_exchanged;
    total.files_exchanged += s.files_exchanged;
    total.stale_serves += s.stale_serves;
    total.degraded_reads += s.degraded_reads;
    total.shard_degraded_queries += s.shard_degraded_queries;
  }
  return total;
}

}  // namespace sdms::coupling
