#ifndef SDMS_COUPLING_COLLECTION_CLASS_H_
#define SDMS_COUPLING_COLLECTION_CLASS_H_

#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/oid.h"
#include "common/query_context.h"
#include "common/status.h"
#include "coupling/call_guard.h"
#include "coupling/derivation.h"
#include "coupling/result_buffer.h"
#include "coupling/shard_protocol.h"
#include "coupling/types.h"
#include "coupling/update_log.h"
#include "irs/query/query_node.h"
#include "oodb/query/ast.h"

namespace sdms::irs {
class IrsCollection;
}  // namespace sdms::irs

namespace sdms::coupling {

class Coupling;
class RemoteShardChannel;

/// Outcome of Collection::VerifyConsistency: spec-query membership
/// reconciled against the IRS index after a crash or failed
/// propagation.
struct ConsistencyReport {
  /// Objects that satisfy the specification query but have no IRS
  /// document (lost inserts/updates).
  std::vector<Oid> missing_in_irs;
  /// IRS documents whose object vanished or no longer satisfies the
  /// specification query (lost deletes).
  std::vector<Oid> orphaned_in_irs;

  bool consistent() const {
    return missing_in_irs.empty() && orphaned_in_irs.empty();
  }
};

class Collection;

/// The Figure 3 read state of one VQL statement, or of one FindIrsValue
/// or DeriveIrsValue call: per (collection, IRS query) what its lookups
/// learned, the derivations on the stack, and the counts to book at
/// Flush. Collection::FindIrsValue is the one walk over it. A context
/// belongs to the statement or call that made it (not thread-safe).
class ReadContext {
 public:
  struct Query {
    Collection* coll = nullptr;
    std::string text;
    /// The IRS result, once a lookup was served it fresh from the
    /// buffer; later lookups probe it instead of resolving the query.
    /// Null while the query resolves per lookup (stale, partial,
    /// buffering off).
    std::shared_ptr<const OidScoreMap> pinned;
    /// Lower bound in `pinned` of the last object probed: lookups come
    /// mostly in OID order, so the search moves forward from it.
    OidScoreMap::const_iterator cursor;
    Oid last;
    /// Computed on first use.
    std::optional<double> null_score;
    std::unique_ptr<irs::QueryNode> tree;
    /// Lookups answered from `pinned` (buffer hits) and derivations run.
    uint64_t hits = 0;
    uint64_t derive_calls = 0;

    void Pin(std::shared_ptr<const OidScoreMap> result) {
      pinned = std::move(result);
      cursor = pinned->begin();
      last = Oid();
    }
  };

  ReadContext() = default;
  ReadContext(const ReadContext&) = delete;
  ReadContext& operator=(const ReadContext&) = delete;
  ~ReadContext() { Flush(); }

  /// The entry of `text` on `coll`, created on first use. Entries never
  /// move.
  Query& Get(Collection* coll, std::string_view text);

  /// Books every entry's hits and derivations with its collection, in
  /// every place a resolved lookup or a derivation is counted, and
  /// zeroes them.
  void Flush();

 private:
  friend class Collection;

  std::list<Query> queries_;
  /// (query, object) derivations on the stack. One that is re-entered
  /// (cyclic structures, e.g. mutual implies-links) takes the null
  /// score instead of recursing.
  std::vector<std::pair<const Query*, Oid>> deriving_;
};

/// The database class COLLECTION (paper Section 4.2): encapsulates
/// exactly one IRS collection. Holds the specification query and text
/// mode that define which objects are represented and with which text;
/// buffers IRS results; propagates updates; and derives
/// IRS values for objects that are not represented.
class Collection {
 public:
  Collection(Coupling* coupling, Oid self, std::string irs_collection_name,
             double missing_value);
  ~Collection();

  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  /// OID of the COLLECTION database object.
  Oid oid() const { return self_; }
  /// Name of the encapsulated IRS collection.
  const std::string& irs_collection_name() const { return irs_name_; }

  // --- Paper interface ------------------------------------------------

  /// indexObjects(specQuery, textMode): evaluates the specification
  /// query (a VQL query whose single select column yields IRSObjects),
  /// fetches each object's getText(textMode) and indexes it in the IRS
  /// collection with the OID as document key. Objects already
  /// represented are skipped, so the method may be re-run after bulk
  /// loads.
  Status IndexObjects(const std::string& spec_query, int text_mode);

  /// getIRSResult(IRSQuery): submits the query to the IRS (unless
  /// buffered) and returns the dictionary ||IRSObject --> REAL|| — the
  /// IRS hits only, never values derived for unrepresented objects.
  /// Pending updates are propagated first unless the policy is kManual.
  /// The handle stays valid however the buffer changes afterwards. A
  /// degraded partial result, and any result while buffering is off,
  /// is owned by the caller alone.
  ///
  /// Degraded mode: when the IRS is unavailable (guarded call failed,
  /// breaker open) and the buffer still holds the query, the buffered
  /// result is served with `*served_stale = true` — pending updates
  /// stay queued in the update log for later replay. Without a
  /// buffered result the unavailability status is returned.
  StatusOr<std::shared_ptr<const OidScoreMap>> GetIrsResult(
      const std::string& irs_query, bool* served_stale = nullptr);

  /// findIRSValue(IRSQuery, obj): FindIrsValue below, under a read
  /// context of its own for this one call.
  StatusOr<double> FindIrsValue(const std::string& irs_query, Oid obj,
                                bool* degraded = nullptr);

  /// The Figure 3 flow for `obj` under `query`, an entry of `ctx` on
  /// this collection: the object's score in the IRS result; else the
  /// query's null belief for a represented object; else the value
  /// derived earlier, kept in the buffer entry's side table; else
  /// deriveIRSValue, whose result goes into that side table. The IRS
  /// result is the one `query` pinned; without one the lookup resolves
  /// the query as GetIrsResult does and pins a result fresh from the
  /// buffer.
  ///
  /// Degraded mode: a stale result sets `*degraded` and caches no
  /// derived values. When the IRS is unavailable and nothing is
  /// buffered, represented objects fall back to the query's null score
  /// and unrepresented ones to derivation over components (whose own
  /// lookups degrade the same way), with `*degraded = true`.
  StatusOr<double> FindIrsValue(ReadContext& ctx, ReadContext::Query& query,
                                Oid obj, bool* degraded = nullptr);

  /// The prepare-stage warm-up of a statement's `query`: resolves it as
  /// GetIrsResult does and pins a result fresh from the buffer. A query
  /// left unpinned keeps the per-binding FindIrsValue path.
  Status WarmIrsResult(ReadContext::Query& query);

  /// The three update methods (Section 4.2): invoked when a relevant
  /// database update occurred. Under kEager the IRS index is
  /// maintained immediately; otherwise the operation is recorded in
  /// the cancelling update log. `seq` is the database update-event
  /// sequence number driving the exactly-once bookkeeping (0 for
  /// direct calls outside the sequenced listener path).
  Status OnInsert(Oid oid, uint64_t seq = 0);
  Status OnModify(Oid oid, uint64_t seq = 0);
  Status OnDelete(Oid oid, uint64_t seq = 0);

  /// Applies all pending net operations to the IRS index and
  /// invalidates the result buffer when the index changed. The batch
  /// runs as a mini two-phase commit against the coupling's
  /// propagation journal: a prepare record (collection, high-water
  /// seq, the drained ops) is forced to the journal before the first
  /// IRS call, and a commit record after the last — so a crash at any
  /// point leaves either a journaled batch to replay or a resolved
  /// one to skip. Each shard's sub-batch applies whole or not at all:
  /// a failed one is re-recorded in the update log whole and the error
  /// is returned, so no update is ever silently lost — a later call
  /// replays exactly the remaining work.
  Status PropagateUpdates();

  /// Highest update-event seq this collection has seen routed to it.
  /// Restored from the IRS snapshot's high-water mark after a crash;
  /// the coupling's dispatcher skips re-routing events at or below it.
  uint64_t last_routed_seq() const { return last_routed_seq_; }

  /// Called by the dispatcher after an event (direct effect plus
  /// ancestor modifies, which share its seq) is fully routed.
  void NoteRoutedSeq(uint64_t seq) {
    if (seq > last_routed_seq_) last_routed_seq_ = seq;
  }

  // --- Consistency (crash/fault recovery) -------------------------------

  /// Reconciles specification-query membership against the IRS index:
  /// which spec-satisfying objects lack an IRS document, which IRS
  /// documents lost their object. Requires an indexed collection
  /// (spec query set) and an empty update log — call
  /// PropagateUpdates() first.
  StatusOr<ConsistencyReport> VerifyConsistency();

  /// Restores exact consistency after faults: propagates pending
  /// updates, re-indexes objects missing from the IRS, removes
  /// orphaned IRS documents, resyncs the represented set, clears the
  /// (now stale) result buffer, and closes the circuit breaker.
  Status Repair();

  // --- deriveIRSValue ---------------------------------------------------

  /// Derives the IRS value of a non-represented object from its
  /// components via the installed derivation scheme, under a read
  /// context of its own for this one call.
  StatusOr<double> DeriveIrsValue(const std::string& irs_query, Oid obj);

  /// Installs a derivation scheme by name ("max", "avg", "wtype",
  /// "length", "subquery").
  Status SetDerivationScheme(const std::string& name);
  void SetDerivationScheme(std::unique_ptr<DerivationScheme> scheme);
  const DerivationScheme& derivation_scheme() const { return *scheme_; }

  // --- Duplicated IRS operators (Section 4.5.4) -------------------------

  /// Evaluates a structured IRS query *inside the DBMS*: term leaves
  /// are resolved with (buffered) single-term IRS calls, operator
  /// nodes are recombined through irs::CombineBeliefs, the operator
  /// fold of the IRS's own model, so the scores equal the IRS's. When
  /// the single-term results are already buffered this avoids calling
  /// the IRS at all.
  StatusOr<OidScoreMap> EvalOperatorsInDbms(const std::string& irs_query);

  // --- Configuration / introspection ------------------------------------

  void set_propagation_policy(PropagationPolicy policy) { policy_ = policy; }
  PropagationPolicy propagation_policy() const { return policy_; }

  bool Represents(Oid oid) const { return represented_.contains(oid); }
  size_t represented_count() const { return represented_.size(); }
  /// The represented objects; iterates in OID order.
  const OidBitSet& represented() const { return represented_; }

  const std::string& spec_query() const { return spec_query_; }
  int text_mode() const { return text_mode_; }

  size_t pending_updates() const { return update_log_.size(); }
  const UpdateLog& update_log() const { return update_log_; }

  ResultBuffer& buffer() { return buffer_; }
  /// The retry/deadline/circuit-breaker guard around every IRS call
  /// this collection makes that is not scoped to a single shard
  /// (indexObjects, file exchange, batch inserts).
  CallGuard& guard() { return guard_; }
  /// The per-shard guard for shard `s` of the fan-out search path —
  /// one breaker per shard is the failure-domain boundary: shard 3
  /// faulting trips only shard 3's breaker, the other shards keep
  /// answering. Guards are (re)created on demand to match the IRS
  /// collection's current shard count.
  CallGuard& shard_guard(size_t s);
  /// Per-shard outcomes of the most recent fan-out search (empty when
  /// the last search was served from the buffer or file exchange).
  const std::vector<ShardStatusEntry>& last_shard_report() const {
    return last_shard_report_;
  }
  const CouplingStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CouplingStats{}; }

  // --- Remote shard serving (protocol v3) -------------------------------

  /// Routes shard `shard`'s fan-out searches through `channel` (a
  /// `sdms_server --shard` process) instead of the in-process index,
  /// and tees propagated updates to it. The local collection keeps
  /// the shard's full index — it is the indexing/durability tier; the
  /// remote server is the serving tier — so healthy remote rankings
  /// are bit-identical to local ones, and a dead server is caught up
  /// by a full install of the local shard rather than rebuilt from
  /// source objects.
  ///
  /// Performs the initial sync; on failure the channel stays attached
  /// (searches on that shard degrade visibly until the server comes
  /// back — there is deliberately no silent local fallback) and the
  /// error is returned.
  Status AttachRemoteShard(size_t shard,
                           std::shared_ptr<RemoteShardChannel> channel);

  /// Detaches every remote channel; searches revert to in-process.
  void DetachRemoteShards();

  /// The channel attached to `shard`, or null.
  RemoteShardChannel* remote_shard_channel(size_t shard);
  bool has_remote_shards() const;

  /// Re-partitions the IRS collection into `m` shards (verify-before-
  /// swap, see IrsCollection::Reshard). Refused while remote channels
  /// are attached: the remote topology is one process per shard, so
  /// rebalancing is detach -> reshard -> relaunch -> reattach.
  Status ReshardIrs(uint32_t m);

  /// Per-*term* belief assigned when a document provides no evidence
  /// (0.4 for the inference-network model, 0.0 otherwise).
  double missing_value() const { return missing_value_; }

  /// Score the IRS would assign to a represented document with no
  /// evidence for any term of `irs_query`: the query tree evaluated
  /// with every term belief at the default (e.g. 0.4 * 0.4 for
  /// #and(a b) under the inference-network model). Used when a
  /// represented object is absent from the IRS result, so that
  /// no-evidence documents rank below partial-evidence ones. A read
  /// context computes it once per query.
  StatusOr<double> NullScore(const std::string& irs_query);

  /// True if `oid`'s class matches the specification query's range
  /// class (candidate for representation on insert).
  bool IsSpecCandidate(Oid oid) const;

  /// True if objects of class `cls` are the kind this collection
  /// represents: `cls` is the specification query's range class or a
  /// subclass of it. Objects of any other class get derived IRS values.
  bool RepresentsClass(const std::string& cls) const;

 private:
  friend class Coupling;

  /// Where ResolveIrsResult's answer came from.
  enum class ResultSource {
    kBuffer,       // fresh from the buffer (a hit, or a miss just stored)
    kStale,        // the buffered result, served stale
    kCallerOwned,  // buffering is off, or a degraded partial result
  };

  class Derivation;
  friend class ReadContext;

  /// The shared body of GetIrsResult and FindIrsValue: cancellation,
  /// update propagation with its stale fallback, one counted buffer
  /// access and, on a miss, the IRS call.
  StatusOr<std::shared_ptr<const OidScoreMap>> ResolveIrsResult(
      const std::string& irs_query, ResultSource* source);

  /// deriveIRSValue for `obj` under `query`; component lookups walk
  /// FindIrsValue in the same context.
  StatusOr<double> DeriveIrsValue(ReadContext& ctx, ReadContext::Query& query,
                                  Oid obj);

  /// `query`'s operator tree and null score, computed once per entry.
  StatusOr<const irs::QueryNode*> QueryTree(ReadContext::Query& query);
  StatusOr<double> NullScore(ReadContext::Query& query);

  /// Actually submits to the IRS (in-process or file exchange). The
  /// in-process path fans the search out across the collection's
  /// shards, each under its own guard; when some (but not all) shards
  /// fail, the merged partial result is returned with `*partial` set —
  /// the caller must not buffer it. `last_shard_report_` and the
  /// current QueryContext receive the per-shard statuses.
  StatusOr<OidScoreMap> RunIrsQuery(const std::string& irs_query,
                                    bool* partial = nullptr);

  /// Fan-out core of RunIrsQuery (in-process mode only).
  StatusOr<OidScoreMap> RunIrsQuerySharded(irs::IrsCollection* coll,
                                           const std::string& irs_query,
                                           bool* partial);

  /// Sizes shard_guards_ to the IRS collection's shard count.
  void EnsureShardGuards(size_t num_shards);

  /// Forwards the plan shard `shard` applied (empty for a
  /// floor-advancing push) and its floor `high` to the shard's remote
  /// channel. Failures never fail propagation — the local apply already
  /// happened; the channel marks itself unsynced and the next search
  /// catches the server up.
  void TeeOpsToRemote(irs::IrsCollection* coll, size_t shard,
                      const std::vector<ShardOp>& ops, uint64_t high);

  /// Invalidates every channel's sync mark after an out-of-band index
  /// rebuild (IndexObjects, Repair).
  void MarkRemoteShardsUnsynced();

  /// Ensures pending updates are applied according to the policy.
  Status MaybePropagate();

  /// Plans `ops` into their target documents, read once from the
  /// database: absent for a delete or an object gone from the store;
  /// present with its getText text for a represented object or one that
  /// has an IRS document; otherwise present only if it satisfies the
  /// specification query.
  StatusOr<std::vector<ShardOp>> PlanOps(irs::IrsCollection* coll,
                                         const std::vector<PendingOp>& ops);

  /// Brings shard `shard` of `coll` to the documents `plan` targets in
  /// one IrsCollection::Apply under the shard's guard, then books the
  /// represented set and reindex_ops. A failed apply changes nothing.
  Status ApplyPlan(irs::IrsCollection* coll, size_t shard,
                   const std::vector<ShardOp>& plan);

  /// Evaluates whether `oid` currently satisfies the spec query.
  StatusOr<bool> SatisfiesSpec(Oid oid);

  /// Rebuilds the represented set from the live keys of `coll`, across
  /// every shard. A foreign key format leaves its document
  /// unrepresented; a key naming an OID far above the database's OID
  /// watermark is kCorruption, since the set is indexed by OID.
  Status ResyncRepresented(irs::IrsCollection* coll);

  Coupling* coupling_;
  Oid self_;
  std::string irs_name_;
  std::string spec_query_;
  std::optional<oodb::vql::ParsedQuery> parsed_spec_;
  int text_mode_ = 0;
  double missing_value_ = 0.0;

  OidBitSet represented_;
  ResultBuffer buffer_;
  CallGuard guard_;
  /// One guard per shard (named "<irs_name>/shard<i>"); see
  /// shard_guard().
  std::vector<std::unique_ptr<CallGuard>> shard_guards_;
  /// Remote serving channels, indexed by shard; null = in-process.
  std::vector<std::shared_ptr<RemoteShardChannel>> remote_channels_;
  /// Per-shard outcomes of the most recent fan-out search.
  std::vector<ShardStatusEntry> last_shard_report_;
  UpdateLog update_log_;
  PropagationPolicy policy_ = PropagationPolicy::kOnQuery;
  std::unique_ptr<DerivationScheme> scheme_;
  CouplingStats stats_;
  /// Exactly-once routing floor: highest event seq fully dispatched to
  /// this collection. Survives restarts via the IRS snapshot's
  /// applied_seq (RestoreCollections copies it back), so recovery can
  /// tell replayed WAL events already covered by the persisted index
  /// from genuinely undelivered ones.
  uint64_t last_routed_seq_ = 0;
};

}  // namespace sdms::coupling

#endif  // SDMS_COUPLING_COLLECTION_CLASS_H_
