#ifndef SDMS_COUPLING_COUPLING_H_
#define SDMS_COUPLING_COUPLING_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "coupling/admission.h"
#include "coupling/call_guard.h"
#include "coupling/collection_class.h"
#include "coupling/types.h"
#include "irs/engine.h"
#include "oodb/database.h"
#include "oodb/query/executor.h"
#include "oodb/storage/wal.h"
#include "sgml/document.h"
#include "sgml/dtd.h"

namespace sdms::coupling {

/// Produces an object's textual representation for one text mode — the
/// paper's parameterized getText(mode) (Section 4.2): "To provide
/// different representations of the same IRSObject in different
/// collections, the parameter textMode will be used".
using TextProvider =
    std::function<StatusOr<std::string>(oodb::Database&, Oid)>;

/// Well-known text modes registered by Initialize().
inline constexpr int kTextModeSubtree = 0;   // all leaf text under the element
inline constexpr int kTextModeDirect = 1;    // the element's own text only
inline constexpr int kTextModeTitles = 2;    // titles of all sub-elements
inline constexpr int kTextModeWithLinks = 3; // subtree + implies-link sources

/// Configuration of a Coupling (top-level so it can carry default
/// member initializers usable in default arguments).
struct CouplingOptions {
  /// Exchange IRS results through files (the paper's original
  /// mechanism) instead of the in-process API.
  bool file_exchange = false;
  /// Directory for exchange files.
  std::string exchange_dir = "/tmp";
  /// Result-buffer byte budget per collection (approximate accounting
  /// of query strings, IRS results and derived values; 0 = unbounded).
  size_t buffer_max_bytes = 0;
  /// Disables the result buffer (ablation).
  bool disable_buffering = false;
  /// Retry/deadline/circuit-breaker policy for every IRS call a
  /// Collection makes on behalf of the database.
  CallGuardOptions call_guard;
  /// Path of the propagation journal — the coupling-owned WAL holding
  /// the prepare/commit records of the exactly-once protocol. Empty
  /// disables journaling (propagation still works; crash recovery then
  /// relies on the database WAL alone).
  std::string journal_path;
  /// Directory the IRS indexes are persisted to by PersistIrs() and
  /// the database checkpoint hook. Empty disables both.
  std::string irs_snapshot_dir;
  /// Overload protection for the coupled query path: every mixed query
  /// passes through the coupling's AdmissionController. Defaults honor
  /// SDMS_MAX_CONCURRENT_QUERIES and SDMS_DEFAULT_DEADLINE_MS.
  AdmissionOptions admission = AdmissionOptionsFromEnv();
};

/// The loose OODBMS-IRS coupling with the DBMS as control component
/// (architecture (3) of Figure 1). Owns the coupling-specific part of
/// the database schema (classes IRSObject and COLLECTION plus their
/// methods), the Collection handles, the getText mode registry, the
/// SGML-to-objects mapping (Section 4.1) and the update listener that
/// drives propagation (Section 4.6).
class Coupling : public oodb::UpdateListener {
 public:
  using Options = CouplingOptions;

  Coupling(oodb::Database* db, irs::IrsEngine* engine,
           Options options = Options());
  ~Coupling() override;

  Coupling(const Coupling&) = delete;
  Coupling& operator=(const Coupling&) = delete;

  /// Defines the coupling schema (classes Object/IRSObject/COLLECTION),
  /// registers the coupling methods (getText, getIRSValue, structural
  /// navigation) and the built-in text modes, installs the update
  /// listener and the semantic-optimizer prepare hook.
  Status Initialize();

  // --- Collections ------------------------------------------------------

  /// Creates a COLLECTION database object encapsulating a fresh IRS
  /// collection using retrieval model `model_name`.
  StatusOr<Collection*> CreateCollection(
      const std::string& name, const std::string& model_name = "inquery",
      irs::AnalyzerOptions analyzer_options = {});

  StatusOr<Collection*> GetCollection(Oid oid);
  StatusOr<Collection*> GetCollectionByName(const std::string& name);
  std::vector<Collection*> collections();

  /// Attaches remote shard channels for `collection_name` from an
  /// endpoint list "host:port,host:port,..." — one element per shard
  /// in shard order; an empty element keeps that shard in-process.
  /// Fewer elements than shards leave the tail in-process. The
  /// channel configuration (model, analyzer, shard count) is derived
  /// from the local collection, so the shard servers build identical
  /// scorers. `SDMS_SHARD_ENDPOINTS` carries this list to sdms_server
  /// ("<collection>=<endpoints>"). Channels whose initial sync fails
  /// stay attached (they serve degraded until the server appears);
  /// the first such error is returned.
  Status ConnectRemoteShards(const std::string& collection_name,
                             const std::string& endpoints);

  /// Rebuilds the Collection handles after a restart: for every
  /// persisted COLLECTION database object whose IRS collection was
  /// restored (IrsEngine::LoadFrom), reattaches name, model,
  /// specification query, text mode, the represented set (taken from
  /// the restored IRS index's document keys), and the exactly-once
  /// routing floor (the snapshot's applied_seq). Returns the number
  /// of collections restored; COLLECTION objects without a matching
  /// IRS collection are skipped.
  StatusOr<size_t> RestoreCollections();

  // --- Exactly-once propagation (crash recovery) --------------------------

  /// Completes the exactly-once protocol after a restart. Call after
  /// RestoreCollections(). Three steps: (1) replays the propagation
  /// journal and requeues the ops of every prepared batch not covered
  /// by the restored index snapshot's high-water mark (commit records
  /// are advisory — they prove in-memory completion, not durability);
  /// (2) re-routes the committed update events the database WAL
  /// re-delivered (Database::TakeRecoveredUpdates), skipping per
  /// collection those at or below its restored high-water mark;
  /// (3) sweeps stray temp/exchange files a crashed run left behind.
  /// Replay is idempotent (ApplyOp reconciles against the current
  /// database state), so any crash point recovers to exactly-once.
  Status RecoverPropagation();

  /// Persists the IRS indexes (with their high-water marks) to
  /// options().irs_snapshot_dir, then truncates the propagation
  /// journal and re-parks any still-pending update-log ops in it — so
  /// the journal stays bounded while nothing pending ever exists only
  /// in memory once the database WAL is truncated. Installed as the
  /// database checkpoint hook (runs before WAL truncation; its failure
  /// aborts the checkpoint).
  Status PersistIrs();

  Status DropCollection(const std::string& name);

  // --- Collection choice (Section 4.5.1) --------------------------------
  // When getIRSValue is called with only the query, the coupling must
  // decide which COLLECTION to use. The paper's alternatives: (1) a
  // hard-wired collection, (2) an explicit argument (the 2-argument
  // getIRSValue), (3) a sophisticated choice by the object itself —
  // realized here as a per-element-type mapping resolved along the
  // isA chain.

  /// Alternative (1): the fallback collection for 1-argument
  /// getIRSValue calls.
  Status SetDefaultCollection(const std::string& name);

  /// Alternative (3): objects of `class_name` (and its subclasses,
  /// unless overridden) prefer `collection_name`.
  Status SetClassCollection(const std::string& class_name,
                            const std::string& collection_name);

  /// Resolves the collection for `obj`: class mapping (most-derived
  /// class first), then the default collection.
  StatusOr<Collection*> ChooseCollectionFor(Oid obj);

  // --- Text modes ---------------------------------------------------------

  void RegisterTextProvider(int mode, TextProvider provider);
  StatusOr<std::string> GetText(Oid obj, int mode);

  // --- SGML document storage (Section 4.1) --------------------------------

  /// Defines one element-type class per DTD element declaration, all
  /// subclasses of IRSObject, with the ATTLIST attributes.
  Status RegisterDtdClasses(const sgml::Dtd& dtd);

  /// Fragments `doc` into one database object per element (Section
  /// 4.1) inside a single transaction; returns the root element's OID.
  StatusOr<Oid> StoreDocument(const sgml::Document& doc);

  /// Deletes the subtree rooted at `oid` (recording ancestor text
  /// changes for update propagation before removal).
  Status DeleteSubtree(Oid oid);

  /// Concatenated leaf text of the subtree at `oid` (document order).
  StatusOr<std::string> SubtreeText(Oid oid) const;

  /// Child element OIDs in document order.
  StatusOr<std::vector<Oid>> ChildrenOf(Oid oid) const;

  /// Parent element, or kNullOid at the root.
  StatusOr<Oid> ParentOf(Oid oid) const;

  /// Nearest ancestor (or self) whose class is `gi`, or kNullOid.
  StatusOr<Oid> ContainingOf(Oid oid, const std::string& gi) const;

  /// Next sibling, or kNullOid.
  StatusOr<Oid> NextSiblingOf(Oid oid) const;

  // --- Access ---------------------------------------------------------------

  oodb::Database& db() { return *db_; }
  irs::IrsEngine& irs() { return *engine_; }
  oodb::vql::QueryEngine& query_engine() { return query_engine_; }
  AdmissionController& admission() { return admission_; }
  Options& options() { return options_; }

  /// Aggregated stats across all collections.
  CouplingStats AggregateStats() const;

  // --- UpdateListener -----------------------------------------------------

  /// Dispatches committed database updates to the collections'
  /// update methods, including text-bearing ancestors of the changed
  /// object (a paragraph edit changes the document's getText too).
  /// `seq` is the event's global sequence number; per collection,
  /// events at or below the routed high-water mark are dropped as
  /// duplicates (exactly-once re-delivery guard).
  void OnUpdate(oodb::UpdateKind kind, Oid oid, const std::string& class_name,
                const std::string& attr, uint64_t seq) override;

 private:
  friend class Collection;

  /// Shared routing core of OnUpdate and recovery re-delivery.
  void RouteUpdate(oodb::UpdateKind kind, Oid oid,
                   const std::string& class_name, uint64_t seq);

  /// Writes a prepare/commit record of the mini two-phase commit to
  /// the propagation journal (durably). Records carry the target shard
  /// so recovery can honor per-shard high-water floors — shards fail
  /// (and replay) independently. No-ops without a journal.
  Status JournalPrepare(Oid collection, uint32_t shard, uint64_t high,
                        const std::vector<PendingOp>& ops);
  Status JournalCommit(Oid collection, uint32_t shard, uint64_t high);

  /// Semantic query optimization [AbF95]: before evaluating a VQL
  /// query, warm the result buffer of every collection referenced by a
  /// getIRSValue call in WHERE with one batched IRS call, and bind each
  /// call whose result was served fresh from the buffer — in WHERE,
  /// SELECT and ORDER BY — to that result for the whole statement.
  /// An unavailable IRS leaves the calls to FindIrsValue's degraded
  /// fallback and flags the statement degraded.
  Status PrepareIrsConjuncts(const oodb::vql::ParsedQuery& query,
                             oodb::vql::BoundCalls& calls);

  Status RegisterCouplingSchema();
  Status RegisterIrsObjectMethods();
  Status RegisterCollectionMethods();
  Status RegisterBuiltinTextModes();

  StatusOr<Oid> StoreElement(const sgml::ElementNode& element, Oid parent,
                             int ord, oodb::TxnId txn);

  /// Resolves a VQL method argument naming a collection (OID value or
  /// collection-name string).
  StatusOr<Collection*> ResolveCollectionArg(const oodb::Value& v);

  oodb::Database* db_;
  irs::IrsEngine* engine_;
  Options options_;
  oodb::vql::QueryEngine query_engine_;
  AdmissionController admission_;

  std::map<Oid, std::unique_ptr<Collection>> collections_;
  std::map<std::string, Oid> collections_by_name_;
  std::map<int, TextProvider> text_providers_;
  /// Collection-choice state (Section 4.5.1).
  std::string default_collection_;
  std::map<std::string, std::string> class_collections_;
  bool initialized_ = false;
  uint64_t exchange_file_counter_ = 0;
  /// The propagation journal (see CouplingOptions::journal_path).
  std::unique_ptr<oodb::Wal> journal_;
};

}  // namespace sdms::coupling

#endif  // SDMS_COUPLING_COUPLING_H_
