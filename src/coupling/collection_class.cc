#include "coupling/collection_class.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "common/fault/fault.h"
#include "common/file_util.h"
#include "common/obs/log.h"
#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "common/obs/trace.h"
#include "common/query_context.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "coupling/coupling.h"
#include "coupling/remote_shard.h"
#include "coupling/shard_protocol.h"
#include "irs/query/belief_fold.h"
#include "irs/query/query_node.h"
#include "oodb/query/parser.h"

namespace sdms::coupling {

using oodb::UpdateKind;
using oodb::vql::ParsedQuery;

namespace {

struct CollectionMetrics {
  obs::Counter& irs_queries = obs::GetCounter("coupling.collection.irs_queries");
  obs::Counter& derive_calls =
      obs::GetCounter("coupling.collection.derive_calls");
  obs::Counter& reindex_ops = obs::GetCounter("coupling.collection.reindex_ops");
  obs::Counter& bytes_exchanged =
      obs::GetCounter("coupling.collection.bytes_exchanged");
  obs::Histogram& index_objects_us =
      obs::GetHistogram("coupling.collection.index_objects_micros");
  obs::Histogram& irs_query_us =
      obs::GetHistogram("coupling.collection.irs_query_micros");
  obs::Histogram& derive_us =
      obs::GetHistogram("coupling.collection.derive_micros");
  obs::Counter& stale_serves = obs::GetCounter("coupling.result.stale_serves");
  obs::Counter& degraded_reads =
      obs::GetCounter("coupling.result.degraded_reads");
  obs::Counter& repairs = obs::GetCounter("coupling.collection.repairs");
  // Exactly-once propagation bookkeeping.
  obs::Counter& propagate_batches =
      obs::GetCounter("coupling.propagate.batches");
  obs::Counter& propagate_ops =
      obs::GetCounter("coupling.propagate.ops_applied");
  obs::Counter& duplicates_skipped =
      obs::GetCounter("coupling.propagate.duplicates_skipped");
  obs::Counter& requeued = obs::GetCounter("coupling.propagate.requeued");
  obs::Gauge& requeued_pending =
      obs::GetGauge("coupling.propagate.requeued_pending");
  obs::Gauge& high_water = obs::GetGauge("coupling.propagate.high_water");
  obs::Counter& exchange_cleaned =
      obs::GetCounter("coupling.files.exchange_cleaned");
  // Fan-out search over shards.
  obs::Counter& shard_degraded =
      obs::GetCounter("coupling.shard.degraded_queries");
  obs::Counter& shard_failures = obs::GetCounter("coupling.shard.failures");
};

CollectionMetrics& Metrics() {
  static CollectionMetrics* m = new CollectionMetrics();
  return *m;
}

}  // namespace

Collection::Collection(Coupling* coupling, Oid self,
                       std::string irs_collection_name, double missing_value)
    : coupling_(coupling),
      self_(self),
      irs_name_(std::move(irs_collection_name)),
      missing_value_(missing_value),
      buffer_(coupling->options().buffer_max_bytes),
      guard_(coupling->options().call_guard, irs_name_),
      // The paper's own tests used the component-maximum derivation
      // ("iterating through the elements components and determining the
      // maximal IRS value", Section 4.5.2).
      scheme_(MakeMaxScheme()) {}

Collection::~Collection() = default;

// ---------------------------------------------------------------------------
// indexObjects
// ---------------------------------------------------------------------------

Status Collection::IndexObjects(const std::string& spec_query, int text_mode) {
  obs::TraceSpan span("coupling.index_objects");
  SDMS_ASSIGN_OR_RETURN(ParsedQuery parsed,
                        oodb::vql::ParseQuery(spec_query));
  if (parsed.select.size() != 1) {
    return Status::InvalidArgument(
        "specification query must select exactly one column of IRSObjects");
  }
  SDMS_ASSIGN_OR_RETURN(oodb::vql::QueryResult result,
                        coupling_->query_engine().Run(parsed));
  spec_query_ = spec_query;
  parsed_spec_ = std::move(parsed);
  text_mode_ = text_mode;
  // Persist the indexing configuration on the COLLECTION database
  // object so Coupling::RestoreCollections can reattach it after a
  // restart.
  SDMS_RETURN_IF_ERROR(coupling_->db().SetAttribute(
      self_, "SPECQUERY", oodb::Value(spec_query)));
  SDMS_RETURN_IF_ERROR(coupling_->db().SetAttribute(
      self_, "TEXTMODE", oodb::Value(static_cast<int64_t>(text_mode))));

  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                        coupling_->irs().GetCollection(irs_name_));
  // Bulk representation: gather the objects' texts, then hand the whole
  // batch to the IRS in one Apply, whose analysis fans out across the
  // thread pool.
  std::vector<irs::DocOp> batch;
  std::set<Oid> batch_oids;
  batch.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    if (!row[0].is_oid()) {
      return Status::TypeError(
          "specification query yielded a non-object value: " +
          row[0].ToString());
    }
    Oid oid = row[0].as_oid();
    if (Represents(oid)) continue;
    if (!batch_oids.insert(oid).second) continue;  // spec yielded it twice
    SDMS_ASSIGN_OR_RETURN(std::string text,
                          coupling_->GetText(oid, text_mode_));
    batch.push_back(irs::DocOp{oid.ToString(), std::move(text)});
  }
  SDMS_RETURN_IF_ERROR(guard_.Run("index_objects", [&]() -> Status {
    SDMS_RETURN_IF_ERROR(fault::InjectFault("coupling.irs_call"));
    return coll->Apply(batch);
  }));
  represented_.insert(batch_oids.begin(), batch_oids.end());
  // The index now reflects the database state as of the latest
  // committed update event, so the exactly-once high-water mark jumps
  // there — unless updates are still queued, in which case their
  // propagation will advance it.
  if (update_log_.empty()) {
    uint64_t seq = coupling_->db().last_update_seq();
    NoteRoutedSeq(seq);
    coll->set_applied_seq(seq);
  }
  // The index was rebuilt outside the propagation path: any remote
  // serving copies are stale until re-synced (install).
  MarkRemoteShardsUnsynced();
  Metrics().index_objects_us.Record(static_cast<double>(span.ElapsedMicros()));
  SDMS_LOG(DEBUG) << "indexObjects(" << irs_name_ << "): " << spec_query
                  << " -> " << represented_.size() << " represented objects";
  return Status::OK();
}

Status Collection::ResyncRepresented(irs::IrsCollection* coll) {
  represented_.clear();
  const oodb::ObjectStore& store = coupling_->db().store();
  Status status = Status::OK();
  coll->ForEachDoc([&](size_t, irs::DocId, const irs::DocInfo& info) {
    if (!status.ok()) return;
    StatusOr<Oid> oid = ParseOidKey(info.key);
    if (!oid.ok()) return;
    status = store.CheckOidInRange(oid->raw());
    if (status.ok()) represented_.insert(*oid);
  });
  return status;
}

bool Collection::IsSpecCandidate(Oid oid) const {
  auto cls_or = coupling_->db().ClassOf(oid);
  return cls_or.ok() && RepresentsClass(*cls_or);
}

bool Collection::RepresentsClass(const std::string& cls) const {
  if (!parsed_spec_.has_value()) return false;
  // Find the binding of the selected variable (spec queries select a
  // single range variable or an expression over one).
  const ParsedQuery& q = *parsed_spec_;
  std::string var;
  if (q.select[0]->kind == oodb::vql::ExprKind::kVarRef) {
    var = q.select[0]->name;
  }
  for (const auto& b : q.bindings) {
    if (var.empty() || b.var == var) {
      if (coupling_->db().schema().IsSubclassOf(cls, b.class_name)) {
        return true;
      }
    }
  }
  return false;
}

StatusOr<bool> Collection::SatisfiesSpec(Oid oid) {
  if (!parsed_spec_.has_value()) return false;
  const ParsedQuery& q = *parsed_spec_;
  std::string var;
  if (q.select[0]->kind == oodb::vql::ExprKind::kVarRef) {
    var = q.select[0]->name;
  } else if (!q.bindings.empty()) {
    var = q.bindings[0].var;
  }
  SDMS_ASSIGN_OR_RETURN(oodb::vql::QueryResult result,
                        coupling_->query_engine().Run(q, {{var, {oid}}}));
  for (const auto& row : result.rows) {
    if (row[0].is_oid() && row[0].as_oid() == oid) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Query path (Figure 3)
// ---------------------------------------------------------------------------

void Collection::EnsureShardGuards(size_t num_shards) {
  while (shard_guards_.size() < num_shards) {
    size_t s = shard_guards_.size();
    shard_guards_.push_back(std::make_unique<CallGuard>(
        coupling_->options().call_guard,
        irs_name_ + "/shard" + std::to_string(s)));
  }
}

CallGuard& Collection::shard_guard(size_t s) {
  EnsureShardGuards(s + 1);
  return *shard_guards_[s];
}

Status Collection::AttachRemoteShard(size_t shard,
                                     std::shared_ptr<RemoteShardChannel> channel) {
  if (channel == nullptr) {
    return Status::InvalidArgument("null remote shard channel");
  }
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                        coupling_->irs().GetCollection(irs_name_));
  if (shard >= coll->num_shards()) {
    return Status::InvalidArgument(
        "shard " + std::to_string(shard) + " out of range for " +
        std::to_string(coll->num_shards()) + " shards");
  }
  if (remote_channels_.size() < coll->num_shards()) {
    remote_channels_.resize(coll->num_shards());
  }
  EnsureShardGuards(coll->num_shards());
  remote_channels_[shard] = std::move(channel);
  // Initial sync (full install on a fresh server). A failure leaves
  // the channel attached but unsynced: the shard serves degraded until
  // the server appears, exactly like any other remote outage.
  return remote_channels_[shard]->EnsureSynced(coll);
}

void Collection::DetachRemoteShards() { remote_channels_.clear(); }

RemoteShardChannel* Collection::remote_shard_channel(size_t shard) {
  return shard < remote_channels_.size() ? remote_channels_[shard].get()
                                         : nullptr;
}

bool Collection::has_remote_shards() const {
  for (const auto& ch : remote_channels_) {
    if (ch != nullptr) return true;
  }
  return false;
}

Status Collection::ReshardIrs(uint32_t m) {
  if (has_remote_shards()) {
    return Status::FailedPrecondition(
        "collection '" + irs_name_ +
        "' has remote shard channels attached; rebalancing is detach -> "
        "reshard -> relaunch shard servers -> reattach");
  }
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                        coupling_->irs().GetCollection(irs_name_));
  SDMS_RETURN_IF_ERROR(coll->Reshard(m));
  // Per-shard state keyed by the old layout is stale now.
  last_shard_report_.clear();
  EnsureShardGuards(coll->num_shards());
  SDMS_LOG(INFO) << "resharded '" << irs_name_ << "' to " << m
                 << " shard(s), " << coll->doc_count() << " documents";
  return Status::OK();
}

void Collection::MarkRemoteShardsUnsynced() {
  for (const auto& ch : remote_channels_) {
    if (ch != nullptr) ch->MarkUnsynced();
  }
}

void Collection::TeeOpsToRemote(irs::IrsCollection* coll, size_t shard,
                                const std::vector<ShardOp>& ops,
                                uint64_t high) {
  RemoteShardChannel* ch = remote_shard_channel(shard);
  if (ch == nullptr) return;
  Status pushed = ch->PushOps(ops, high, coll);
  if (!pushed.ok()) {
    // The local apply already happened — remote catch-up is deferred
    // to the next search/sync, never a propagation failure.
    SDMS_LOG(WARN) << "remote tee for '" << irs_name_ << "' shard " << shard
                   << " failed (" << ops.size()
                   << " op(s), server will be caught up by a full install): "
                   << pushed.ToString();
  }
}

StatusOr<OidScoreMap> Collection::RunIrsQuerySharded(
    irs::IrsCollection* coll, const std::string& irs_query, bool* partial) {
  // Parse once and snapshot the corpus-wide statistics every shard
  // scores against — this is what keeps an N-shard merged result
  // bit-identical to the single-shard one. The result is keyed by OID,
  // so no ranking is ever needed here: each shard answers in OID order
  // and one linear merge builds the map.
  irs::IrsCollection::SearchPlan plan;
  {
    obs::ProfileStageScope prepare_stage("irs_prepare");
    SDMS_ASSIGN_OR_RETURN(plan, coll->PrepareSearch(irs_query));
  }
  const size_t n = coll->num_shards();
  EnsureShardGuards(n);

  struct ShardRun {
    irs::OidHits hits;
    Status status = Status::OK();
    bool breaker_rejected = false;
    int64_t micros = 0;
  };
  std::vector<ShardRun> runs(n);
  // One guarded search per shard. Each shard is its own failure
  // domain: its guard retries/trips independently — the guard's retry
  // budget is the only retry a shard gets — and the
  // "coupling.irs_call" + "irs.search.shard<i>" fault points fire per
  // shard, so an injected fault takes out one shard's call, not the
  // whole query.
  auto attempt_shard = [&](size_t s) {
    ShardRun& r = runs[s];
    const int64_t start = QueryContext::NowMicros();
    obs::ProfileStageScope shard_stage(irs::ShardSearchStageName(s));
    // A shard with an attached remote channel is served over the wire
    // — never silently from the local copy: the remote server is the
    // serving tier, and masking its outage would hide a dead node
    // behind bit-identical answers. Remote transport failures surface
    // as kIoError/kDeadlineExceeded, the same failure classes the
    // in-process fault points produce, so the guard and partial-merge
    // machinery below applies unchanged.
    RemoteShardChannel* remote =
        s < remote_channels_.size() ? remote_channels_[s].get() : nullptr;
    r.status = shard_guards_[s]->Run(
        "irs_query",
        [&]() -> Status {
          SDMS_RETURN_IF_ERROR(fault::InjectFault("coupling.irs_call"));
          if (remote != nullptr) {
            SDMS_ASSIGN_OR_RETURN(r.hits,
                                  remote->Search(irs_query, plan, coll));
            return Status::OK();
          }
          SDMS_ASSIGN_OR_RETURN(r.hits, coll->SearchShard(plan, s));
          return Status::OK();
        },
        &r.breaker_rejected);
    r.micros = QueryContext::NowMicros() - start;
  };
  if (n > 1) {
    if (ThreadPool* pool = DefaultThreadPool()) {
      pool->ParallelFor(n, [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) attempt_shard(s);
      });
    } else {
      for (size_t s = 0; s < n; ++s) attempt_shard(s);
    }
  } else {
    attempt_shard(0);
  }

  QueryContext* ctx = QueryContext::Current();
  // Explicit cancellation is never degradable — propagate it.
  if (ctx != nullptr &&
      ctx->stop_reason() == QueryContext::StopReason::kCancelled) {
    return ctx->StopStatus();
  }

  std::vector<ShardStatusEntry> report(n);
  std::vector<irs::OidHits> per_shard;
  per_shard.reserve(n);
  size_t ok_shards = 0;
  Status first_failure = Status::OK();
  std::string failed_names;
  for (size_t s = 0; s < n; ++s) {
    ShardRun& r = runs[s];
    ShardStatusEntry& e = report[s];
    e.collection = irs_name_;
    e.shard = static_cast<uint32_t>(s);
    e.micros = r.micros;
    if (r.status.ok()) {
      e.state = ShardState::kOk;
      ++ok_shards;
      per_shard.push_back(std::move(r.hits));
    } else {
      e.state = r.breaker_rejected ? ShardState::kSkipped : ShardState::kFailed;
      e.detail = r.status.ToString();
      if (first_failure.ok()) first_failure = r.status;
      if (!failed_names.empty()) failed_names += ",";
      failed_names += "shard" + std::to_string(s);
      Metrics().shard_failures.Increment();
    }
  }
  last_shard_report_ = report;
  if (ctx != nullptr) ctx->AddShardStatus(report);
  if (ok_shards == 0) {
    // Every shard failed: the collection as a whole is unavailable —
    // the caller's stale-serve / derivation fallbacks take over.
    return first_failure;
  }
  if (ok_shards < n) {
    // Partial result: merged ranking over the surviving shards,
    // explicitly flagged. Never buffered (the buffer must only hold
    // complete answers).
    if (partial != nullptr) *partial = true;
    ++stats_.shard_degraded_queries;
    Metrics().shard_degraded.Increment();
    obs::ProfileCount("shard_degraded");
    obs::ProfileAnnotate("degradation_reason",
                         "shard(s) " + failed_names + " of '" + irs_name_ +
                             "' unavailable: " + first_failure.ToString());
    if (ctx != nullptr) ctx->NoteDegraded();
    SDMS_LOG(WARN) << "degraded fan-out search on '" << irs_name_ << "': "
                   << failed_names << " failed (" << ok_shards << "/" << n
                   << " shards answered): " << first_failure.ToString();
  }
  obs::ProfileStageScope merge_stage("irs_merge");
  return MergeShardOidHits(per_shard);
}

StatusOr<OidScoreMap> Collection::RunIrsQuery(const std::string& irs_query,
                                              bool* partial) {
  obs::TraceSpan span("coupling.irs_query");
  obs::ProfileStageScope stage("irs_query");
  if (partial != nullptr) *partial = false;
  ++stats_.irs_queries;
  Metrics().irs_queries.Increment();
  last_shard_report_.clear();
  if (!coupling_->options().file_exchange) {
    SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                          coupling_->irs().GetCollection(irs_name_));
    StatusOr<OidScoreMap> out = RunIrsQuerySharded(coll, irs_query, partial);
    if (out.ok()) {
      Metrics().irs_query_us.Record(static_cast<double>(span.ElapsedMicros()));
    }
    return out;
  }
  // File-exchange mode stays a single stream: the result file carries
  // one merged ranking with no per-shard framing, so shard statuses
  // are not reported and any failure fails the whole exchange (see
  // docs/robustness.md, "Shard failure domains").
  OidScoreMap out;
  // The whole submit (including the exchange-file round trip) runs
  // under the guard: a transient failure is retried from scratch, so a
  // retry always parses a freshly written result file.
  Status submit = guard_.Run("irs_query", [&]() -> Status {
    SDMS_RETURN_IF_ERROR(fault::InjectFault("coupling.irs_call"));
    std::vector<irs::SearchHit> hits;
    // The paper's original mechanism: "the IRS writes the result to a
    // file which is parsed afterwards".
    std::string path = coupling_->options().exchange_dir + "/irs_result_" +
                       irs_name_ + "_" +
                       std::to_string(coupling_->exchange_file_counter_++) +
                       ".txt";
    SDMS_RETURN_IF_ERROR(
        coupling_->irs().SearchToFile(irs_name_, irs_query, path));
    // The result file is transient: remove it whether or not it
    // parses, so a corrupt result (or an injected fault) doesn't
    // strand exchange files in the directory.
    StatusOr<std::vector<irs::SearchHit>> hits_or =
        irs::IrsEngine::ParseResultFile(path);
    auto size = FileSize(path);
    if (size.ok()) {
      stats_.bytes_exchanged += static_cast<uint64_t>(*size);
      Metrics().bytes_exchanged.Add(static_cast<uint64_t>(*size));
    }
    ++stats_.files_exchanged;
    if (RemoveFile(path).ok()) Metrics().exchange_cleaned.Increment();
    SDMS_ASSIGN_OR_RETURN(hits, std::move(hits_or));
    SDMS_ASSIGN_OR_RETURN(out, OidScoreMapFromHits(hits));
    return Status::OK();
  });
  SDMS_RETURN_IF_ERROR(submit);
  Metrics().irs_query_us.Record(static_cast<double>(span.ElapsedMicros()));
  return out;
}

StatusOr<std::shared_ptr<const OidScoreMap>> Collection::GetIrsResult(
    const std::string& irs_query, bool* served_stale) {
  ResultSource source;
  auto result = ResolveIrsResult(irs_query, &source);
  if (served_stale != nullptr) {
    *served_stale = result.ok() && source == ResultSource::kStale;
  }
  return result;
}

Status Collection::WarmIrsResult(ReadContext::Query& query) {
  ResultSource source;
  SDMS_ASSIGN_OR_RETURN(std::shared_ptr<const OidScoreMap> result,
                        ResolveIrsResult(query.text, &source));
  if (source == ResultSource::kBuffer) query.Pin(std::move(result));
  return Status::OK();
}

namespace {

/// Explicit cancellation stops a read outright: no buffer hit, no stale
/// serve, no further derivation. (An expired deadline is NOT
/// short-circuited: the guarded IRS call fails fast with
/// kDeadlineExceeded and the degradation paths turn that into a
/// stale/derived answer.)
Status CheckCancelled() {
  if (QueryContext* qctx = QueryContext::Current();
      qctx != nullptr && qctx->ShouldStop() &&
      qctx->stop_reason() == QueryContext::StopReason::kCancelled) {
    return qctx->StopStatus();
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::shared_ptr<const OidScoreMap>> Collection::ResolveIrsResult(
    const std::string& irs_query, ResultSource* source) {
  *source = ResultSource::kCallerOwned;
  SDMS_RETURN_IF_ERROR(CheckCancelled());
  Status propagated = MaybePropagate();
  if (!propagated.ok()) {
    // Serves the buffered result when the IRS is unavailable: pending
    // updates stay queued, the caller sees an explicitly flagged stale
    // answer instead of an error. Only transient failures degrade this
    // way — logic errors propagate.
    if (!IsUnavailable(propagated) || coupling_->options().disable_buffering) {
      return propagated;
    }
    std::shared_ptr<const OidScoreMap> buffered = buffer_.Get(irs_query);
    if (buffered == nullptr) return propagated;
    ++stats_.stale_serves;
    Metrics().stale_serves.Increment();
    obs::ProfileCount("stale_serves");
    obs::ProfileAnnotate("degradation_reason",
                         "stale buffer serve: " + propagated.ToString());
    *source = ResultSource::kStale;
    SDMS_LOG(WARN) << "serving stale buffered result for '" << irs_query
                   << "' on '" << irs_name_ << "': " << propagated.ToString();
    return buffered;
  }
  auto note_miss = [&]() {
    ++stats_.buffer_misses;
    obs::ProfileCount("buffer_misses");
  };
  if (coupling_->options().disable_buffering) {
    note_miss();
    SDMS_ASSIGN_OR_RETURN(OidScoreMap result, RunIrsQuery(irs_query));
    return std::make_shared<const OidScoreMap>(std::move(result));
  }
  obs::ProfileStageScope lookup_stage("buffer_lookup");
  if (std::shared_ptr<const OidScoreMap> buffered = buffer_.Get(irs_query)) {
    ++stats_.buffer_hits;
    obs::ProfileCount("buffer_hits");
    *source = ResultSource::kBuffer;
    return buffered;
  }
  note_miss();
  bool partial = false;
  SDMS_ASSIGN_OR_RETURN(OidScoreMap result, RunIrsQuery(irs_query, &partial));
  if (partial) {
    // A degraded partial result never enters the buffer: once the
    // failed shard recovers, the next query must see the complete
    // ranking, not a cached partial one presented as fresh.
    return std::make_shared<const OidScoreMap>(std::move(result));
  }
  std::shared_ptr<const OidScoreMap> stored =
      buffer_.Put(irs_query, std::move(result));
  // Served through Get, so the first read of a fetched result counts as
  // a buffer hit like every later read. Get finds nothing only if
  // another thread cleared the buffer in between.
  std::shared_ptr<const OidScoreMap> buffered = buffer_.Get(irs_query);
  if (buffered == nullptr) return stored;
  *source = ResultSource::kBuffer;
  return buffered;
}

ReadContext::Query& ReadContext::Get(Collection* coll, std::string_view text) {
  for (Query& q : queries_) {
    if (q.coll == coll && q.text == text) return q;
  }
  Query& q = queries_.emplace_back();
  q.coll = coll;
  q.text = text;
  return q;
}

void ReadContext::Flush() {
  for (Query& q : queries_) {
    Collection& c = *q.coll;
    if (q.hits > 0) {
      c.buffer_.CountHits(q.hits);
      c.stats_.buffer_hits += q.hits;
      obs::ProfileCount("buffer_hits", q.hits);
    }
    if (q.derive_calls > 0) {
      c.stats_.derive_calls += q.derive_calls;
      Metrics().derive_calls.Add(q.derive_calls);
      obs::ProfileCount("derive_calls", q.derive_calls);
    }
    q.hits = 0;
    q.derive_calls = 0;
  }
}

StatusOr<const irs::QueryNode*> Collection::QueryTree(
    ReadContext::Query& query) {
  if (query.tree == nullptr) {
    SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                          coupling_->irs().GetCollection(irs_name_));
    SDMS_ASSIGN_OR_RETURN(query.tree,
                          irs::ParseIrsQuery(query.text, coll->analyzer()));
  }
  return query.tree.get();
}

StatusOr<double> Collection::NullScore(ReadContext::Query& query) {
  if (query.null_score.has_value()) return *query.null_score;
  // Models without default beliefs score no-evidence documents zero.
  if (missing_value_ == 0.0) return *(query.null_score = 0.0);
  // A buffered query keeps its null score in its entry, so a lookup of
  // its own does not parse the query again.
  query.null_score = buffer_.FindNullScore(query.text);
  if (!query.null_score.has_value()) {
    SDMS_ASSIGN_OR_RETURN(const irs::QueryNode* tree, QueryTree(query));
    query.null_score = irs::NullBelief(*tree, missing_value_);
    buffer_.SetNullScore(query.text, *query.null_score);
  }
  return *query.null_score;
}

StatusOr<double> Collection::NullScore(const std::string& irs_query) {
  ReadContext ctx;
  return NullScore(ctx.Get(this, irs_query));
}

StatusOr<double> Collection::FindIrsValue(const std::string& irs_query,
                                          Oid obj, bool* degraded) {
  ReadContext ctx;
  return FindIrsValue(ctx, ctx.Get(this, irs_query), obj, degraded);
}

StatusOr<double> Collection::FindIrsValue(ReadContext& ctx,
                                          ReadContext::Query& query, Oid obj,
                                          bool* degraded) {
  if (degraded != nullptr) *degraded = false;
  if (query.pinned != nullptr) {
    ++query.hits;
  } else {
    ResultSource source;
    StatusOr<std::shared_ptr<const OidScoreMap>> result =
        ResolveIrsResult(query.text, &source);
    if (!result.ok()) {
      if (!IsUnavailable(result.status())) return result.status();
      // IRS unavailable with nothing buffered: fall back to local
      // knowledge. NullScore and derivation evaluate the query tree
      // inside the DBMS, so represented objects get the query's null
      // belief and unrepresented ones aggregate their components'
      // (equally degraded) values — never a wrong score presented as
      // fresh.
      ++stats_.degraded_reads;
      Metrics().degraded_reads.Increment();
      obs::ProfileCount("degraded_reads");
      obs::ProfileAnnotate("degradation_reason",
                           "IRS unavailable: " + result.status().ToString());
      if (degraded != nullptr) *degraded = true;
      SDMS_LOG(WARN) << "findIRSValue degraded for '" << query.text
                     << "' on '" << irs_name_
                     << "': " << result.status().ToString();
      if (Represents(obj)) return NullScore(query);
      StatusOr<double> derived = DeriveIrsValue(ctx, query, obj);
      if (derived.ok()) return derived;
      if (IsUnavailable(derived.status())) return NullScore(query);
      return derived.status();
    }
    if (source == ResultSource::kBuffer) {
      query.Pin(std::move(*result));
    } else {
      // A stale or caller-owned result is not pinned: the next lookup
      // resolves the query again.
      if (source == ResultSource::kStale && degraded != nullptr) {
        *degraded = true;
      }
      if (auto it = (*result)->find(obj); it != (*result)->end()) {
        return it->second;
      }
    }
  }
  if (query.pinned != nullptr) {
    // Lookups come mostly in OID order, so the search starts at the
    // previous one; when they go backwards it starts over.
    if (obj < query.last) query.cursor = query.pinned->begin();
    query.last = obj;
    query.cursor = std::lower_bound(
        query.cursor, query.pinned->end(), obj,
        [](const OidScoreMap::value_type& p, Oid o) { return p.first < o; });
    if (query.cursor != query.pinned->end() && query.cursor->first == obj) {
      return query.cursor->second;
    }
  }
  // Represented but not retrieved: the IRS assigned no evidence; the
  // object scores the query's null belief.
  if (Represents(obj)) return NullScore(query);
  if (std::optional<double> derived = buffer_.FindDerived(query.text, obj)) {
    return *derived;
  }
  // Not represented: force the object to derive its value and insert
  // the result into the buffer (Figure 3) — unless the result is stale,
  // as its entry is invalidated wholesale once the IRS is back, or not
  // buffered at all.
  SDMS_ASSIGN_OR_RETURN(double derived, DeriveIrsValue(ctx, query, obj));
  if (query.pinned != nullptr) buffer_.InsertValue(query.text, obj, derived);
  return derived;
}

/// The DerivationContext of one derivation: component lookups walk
/// FindIrsValue in the derivation's read context.
class Collection::Derivation : public DerivationContext {
 public:
  Derivation(Collection* coll, ReadContext* ctx, ReadContext::Query* query)
      : coll_(coll), ctx_(ctx), query_(query) {}

  StatusOr<double> ComponentValue(Oid component,
                                  std::string_view query) const override {
    ReadContext::Query& q =
        query == query_->text ? *query_ : ctx_->Get(coll_, query);
    return coll_->FindIrsValue(*ctx_, q, component);
  }
  StatusOr<std::vector<Oid>> ComponentsOf(Oid object) const override {
    return coll_->coupling_->ChildrenOf(object);
  }
  StatusOr<std::string> ClassOf(Oid object) const override {
    return coll_->coupling_->db().ClassOf(object);
  }
  StatusOr<double> LengthOf(Oid object) const override {
    SDMS_ASSIGN_OR_RETURN(std::string text,
                          coll_->coupling_->SubtreeText(object));
    return static_cast<double>(SplitWhitespace(text).size());
  }

 private:
  Collection* coll_;
  ReadContext* ctx_;
  ReadContext::Query* query_;
};

StatusOr<double> Collection::DeriveIrsValue(const std::string& irs_query,
                                            Oid obj) {
  ReadContext ctx;
  return DeriveIrsValue(ctx, ctx.Get(this, irs_query), obj);
}

StatusOr<double> Collection::DeriveIrsValue(ReadContext& ctx,
                                            ReadContext::Query& query,
                                            Oid obj) {
  constexpr size_t kMaxDepth = 64;
  if (ctx.deriving_.size() >= kMaxDepth) {
    return Status::FailedPrecondition(
        "deriveIRSValue recursion depth exceeded");
  }
  // Cyclic related-object structures (e.g. mutual implies-links): a
  // derivation already on the stack contributes its null score rather
  // than recursing forever.
  for (const auto& [q, o] : ctx.deriving_) {
    if (q == &query && o == obj) return NullScore(query);
  }
  SDMS_RETURN_IF_ERROR(CheckCancelled());
  obs::TraceSpan span("coupling.derive");
  obs::ProfileStageScope stage("derive");
  ++query.derive_calls;
  Derivation derivation(this, &ctx, &query);
  derivation.object = obj;
  derivation.irs_query = query.text;
  SDMS_ASSIGN_OR_RETURN(derivation.query_tree, QueryTree(query));
  // The floor for derived values is the query's null belief, so an
  // object without components never outranks one with weak evidence.
  SDMS_ASSIGN_OR_RETURN(derivation.default_value, NullScore(query));
  ctx.deriving_.emplace_back(&query, obj);
  auto result = scheme_->Derive(derivation);
  ctx.deriving_.pop_back();
  Metrics().derive_us.Record(static_cast<double>(span.ElapsedMicros()));
  return result;
}

Status Collection::SetDerivationScheme(const std::string& name) {
  SDMS_ASSIGN_OR_RETURN(std::unique_ptr<DerivationScheme> scheme,
                        MakeScheme(name));
  scheme_ = std::move(scheme);
  return Status::OK();
}

void Collection::SetDerivationScheme(std::unique_ptr<DerivationScheme> scheme) {
  scheme_ = std::move(scheme);
}

// ---------------------------------------------------------------------------
// Update propagation (Section 4.6)
// ---------------------------------------------------------------------------

Status Collection::OnInsert(Oid oid, uint64_t seq) {
  if (!parsed_spec_.has_value() || !IsSpecCandidate(oid)) return Status::OK();
  update_log_.Record(UpdateKind::kInsert, oid, seq);
  if (policy_ == PropagationPolicy::kEager) return PropagateUpdates();
  return Status::OK();
}

Status Collection::OnModify(Oid oid, uint64_t seq) {
  if (Represents(oid)) {
    update_log_.Record(UpdateKind::kModify, oid, seq);
  } else if (parsed_spec_.has_value() && IsSpecCandidate(oid)) {
    // A modification may have made the object satisfy the spec query.
    update_log_.Record(UpdateKind::kInsert, oid, seq);
  } else {
    return Status::OK();
  }
  if (policy_ == PropagationPolicy::kEager) return PropagateUpdates();
  return Status::OK();
}

Status Collection::OnDelete(Oid oid, uint64_t seq) {
  // Relevant only for represented objects or ones with a pending
  // insert (which the log then cancels out).
  if (!Represents(oid) && !update_log_.Has(oid)) return Status::OK();
  update_log_.Record(UpdateKind::kDelete, oid, seq);
  if (policy_ == PropagationPolicy::kEager) return PropagateUpdates();
  return Status::OK();
}

Status Collection::MaybePropagate() {
  if (policy_ == PropagationPolicy::kManual) return Status::OK();
  if (update_log_.empty()) return Status::OK();
  // "If an information-need query is issued with update propagation
  // pending, propagation is enforced."
  return PropagateUpdates();
}

Status Collection::PropagateUpdates() {
  obs::TraceSpan span("coupling.propagate");
  // High-water mark this batch advances the index to: every sequenced
  // event routed so far is either already applied, cancelled out in
  // the log, or part of this drain. Snapshot it before draining —
  // last_seq() survives the drain, but the invariant is what holds
  // *now*.
  uint64_t high = std::max(last_routed_seq_, update_log_.last_seq());
  std::vector<PendingOp> ops = update_log_.Drain();
  if (ops.empty()) return Status::OK();
  Metrics().propagate_batches.Increment();
  auto requeue = [&](const std::vector<PendingOp>& batch, const Status& why,
                     const std::string& what) {
    for (const PendingOp& op : batch) update_log_.Requeue(op);
    Metrics().requeued.Add(batch.size());
    Metrics().requeued_pending.Set(static_cast<int64_t>(update_log_.size()));
    SDMS_LOG(WARN) << what << " for '" << irs_name_ << "' failed, "
                   << batch.size()
                   << " net update(s) requeued: " << why.ToString();
  };
  auto coll_or = coupling_->irs().GetCollection(irs_name_);
  if (!coll_or.ok()) {
    requeue(ops, coll_or.status(), "propagation");
    return coll_or.status();
  }
  irs::IrsCollection* coll = *coll_or;
  // Propagation is shard-isolated: the drained batch is partitioned by
  // the documents' shards, journaled and applied per shard under that
  // shard's guard. A faulting shard requeues only its own sub-batch
  // and leaves its applied_seq floor behind; the healthy shards
  // commit, advance their floors, and keep serving.
  const size_t n = coll->num_shards();
  EnsureShardGuards(n);
  std::vector<std::vector<PendingOp>> per_shard(n);
  for (const PendingOp& op : ops) {
    per_shard[coll->ShardOfKey(op.oid.ToString())].push_back(op);
  }
  // Phase 1: force every shard's prepare record (collection, shard,
  // high-water, sub-batch) to the propagation journal before the first
  // IRS call. A crash anywhere past this point leaves journaled
  // batches that recovery requeues against the per-shard floors; a
  // journal failure here has touched nothing, so the whole batch goes
  // back into the log.
  for (size_t s = 0; s < n; ++s) {
    if (per_shard[s].empty()) continue;
    Status prepared = coupling_->JournalPrepare(
        self_, static_cast<uint32_t>(s), high, per_shard[s]);
    if (!prepared.ok()) {
      requeue(ops, prepared, "propagation journal prepare");
      return prepared;
    }
  }
  // Phase 2: per shard, plan each op's target document from the
  // database, then apply the plan (see ApplyPlan).
  //
  // Failure contract per shard: a failed plan or apply changes nothing,
  // so the whole sub-batch goes back into the update log and nothing is
  // teed. Other shards are unaffected.
  Status first_failure = Status::OK();
  const uint64_t reindexed_before = stats_.reindex_ops;
  size_t applied_total = 0;
  for (size_t s = 0; s < n; ++s) {
    const std::vector<PendingOp>& shard_ops = per_shard[s];
    StatusOr<std::vector<ShardOp>> plan = PlanOps(coll, shard_ops);
    Status failure = plan.ok() ? ApplyPlan(coll, s, *plan) : plan.status();
    if (!failure.ok()) {
      if (first_failure.ok()) first_failure = failure;
      requeue(shard_ops, failure,
              "propagation into shard " + std::to_string(s));
      continue;
    }
    // This shard's whole sub-batch applied (or it had none: pending
    // work would have drained into this batch), so it now reflects
    // every sequenced event routed to it up to `high`. Advance only
    // this shard's high-water mark — never per op — so a crash
    // mid-batch replays the full remaining work instead of skipping
    // requeued lower-seq ops. The remote server gets the same plan
    // under the same floor.
    coll->set_shard_applied_seq(s, high);
    TeeOpsToRemote(coll, s, *plan, coll->shard_applied_seq(s));
    if (shard_ops.empty()) continue;
    applied_total += shard_ops.size();
    // The commit record marks the shard's batch complete in memory.
    // Recovery treats it as advisory (only the persisted snapshot's
    // high-water marks prove durability) and the reconciling replay is
    // idempotent, so failing to write it only warns.
    Status committed =
        coupling_->JournalCommit(self_, static_cast<uint32_t>(s), high);
    if (!committed.ok()) {
      SDMS_LOG(WARN) << "propagation journal commit for '" << irs_name_
                     << "' shard " << s
                     << " failed (batch stays replayable): "
                     << committed.ToString();
    }
  }
  Metrics().high_water.Set(static_cast<int64_t>(coll->applied_seq()));
  if (!first_failure.ok()) {
    // IRS index structures may have changed on the healthy shards, but
    // on a partial failure the buffer intentionally survives —
    // degraded reads serve it flagged stale until propagation
    // succeeds end to end.
    return first_failure;
  }
  if (stats_.reindex_ops != reindexed_before) buffer_.Clear();
  Metrics().propagate_ops.Add(applied_total);
  Metrics().requeued_pending.Set(static_cast<int64_t>(update_log_.size()));
  SDMS_LOG(DEBUG) << "propagated " << ops.size() << " net update(s) into '"
                  << irs_name_ << "' (high-water " << high << ")";
  return Status::OK();
}

StatusOr<std::vector<ShardOp>> Collection::PlanOps(
    irs::IrsCollection* coll, const std::vector<PendingOp>& ops) {
  // Planning from the current database state makes replay reconciling,
  // and so idempotent: applying the same sequenced op twice (duplicate
  // delivery after a crash) converges to the same index.
  std::vector<ShardOp> plan(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const PendingOp& op = ops[i];
    ShardOp& out = plan[i];
    out.key = op.oid.ToString();
    out.seq = op.seq;
    const bool represented = Represents(op.oid);
    // A re-delivered insert of a represented object, or delete of an
    // unrepresented one: the usual shape of a duplicate delivery after
    // crash recovery. The insert is planned as an update all the same,
    // since a net insert can carry a folded modify.
    const bool duplicate = op.kind == UpdateKind::kInsert
                               ? represented
                               : op.kind == UpdateKind::kDelete && !represented;
    if (duplicate && op.seq != 0) Metrics().duplicates_skipped.Increment();
    out.is_delete = op.kind == UpdateKind::kDelete ||
                    !coupling_->db().store().Contains(op.oid);
    if (!out.is_delete && !represented && !coll->HasDocument(out.key)) {
      SDMS_ASSIGN_OR_RETURN(bool satisfies, SatisfiesSpec(op.oid));
      out.is_delete = !satisfies;
    }
    if (!out.is_delete) {
      SDMS_ASSIGN_OR_RETURN(out.text, coupling_->GetText(op.oid, text_mode_));
    }
  }
  return plan;
}

Status Collection::ApplyPlan(irs::IrsCollection* coll, size_t shard,
                             const std::vector<ShardOp>& plan) {
  std::vector<irs::DocOp> ops;
  std::vector<Oid> oids;
  for (const ShardOp& op : plan) {
    SDMS_ASSIGN_OR_RETURN(Oid oid, ParseOidKey(op.key));
    // A delete of an absent document is a no-op, and a plan of no-ops
    // makes no IRS call.
    if (op.is_delete && !coll->HasDocument(op.key)) continue;
    ops.push_back(ToDocOp(op));
    oids.push_back(oid);
  }
  if (ops.empty()) return Status::OK();
  SDMS_RETURN_IF_ERROR(shard_guard(shard).Run("apply", [&]() -> Status {
    SDMS_RETURN_IF_ERROR(fault::InjectFault("coupling.irs_call"));
    return coll->Apply(ops);
  }));
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].text) {
      represented_.insert(oids[i]);
    } else {
      represented_.erase(oids[i]);
    }
    ++stats_.reindex_ops;
    Metrics().reindex_ops.Increment();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Consistency verification and repair
// ---------------------------------------------------------------------------

StatusOr<ConsistencyReport> Collection::VerifyConsistency() {
  if (!parsed_spec_.has_value()) {
    return Status::FailedPrecondition(
        "collection '" + irs_name_ +
        "' has no specification query; run IndexObjects first");
  }
  if (!update_log_.empty()) {
    return Status::FailedPrecondition(
        "collection '" + irs_name_ + "' has " +
        std::to_string(update_log_.size()) +
        " pending update(s); call PropagateUpdates() first");
  }
  // Ground truth: the specification query evaluated now.
  SDMS_ASSIGN_OR_RETURN(oodb::vql::QueryResult result,
                        coupling_->query_engine().Run(*parsed_spec_));
  std::set<Oid> expected;
  for (const auto& row : result.rows) {
    if (row[0].is_oid()) expected.insert(row[0].as_oid());
  }
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                        coupling_->irs().GetCollection(irs_name_));
  std::set<Oid> indexed;
  Status bad_key = Status::OK();
  coll->ForEachDoc([&](size_t, irs::DocId, const irs::DocInfo& info) {
    StatusOr<Oid> oid = ParseOidKey(info.key);
    if (oid.ok()) {
      indexed.insert(*oid);
    } else if (bad_key.ok()) {
      bad_key = oid.status();
    }
  });
  SDMS_RETURN_IF_ERROR(bad_key);
  ConsistencyReport report;
  std::set_difference(expected.begin(), expected.end(), indexed.begin(),
                      indexed.end(),
                      std::back_inserter(report.missing_in_irs));
  std::set_difference(indexed.begin(), indexed.end(), expected.begin(),
                      expected.end(),
                      std::back_inserter(report.orphaned_in_irs));
  return report;
}

Status Collection::Repair() {
  // Queued work first: most post-fault divergence is just unapplied
  // updates, and replaying them may already restore consistency.
  SDMS_RETURN_IF_ERROR(PropagateUpdates());
  SDMS_ASSIGN_OR_RETURN(ConsistencyReport report, VerifyConsistency());
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                        coupling_->irs().GetCollection(irs_name_));
  // Missing objects are re-indexed with their text and orphans removed,
  // through the apply propagation uses.
  std::vector<std::vector<ShardOp>> plans(coll->num_shards());
  for (Oid oid : report.orphaned_in_irs) {
    std::string key = oid.ToString();
    plans[coll->ShardOfKey(key)].push_back(
        ShardOp{true, std::move(key), "", 0});
  }
  for (Oid oid : report.missing_in_irs) {
    std::string key = oid.ToString();
    SDMS_ASSIGN_OR_RETURN(std::string text,
                          coupling_->GetText(oid, text_mode_));
    plans[coll->ShardOfKey(key)].push_back(
        ShardOp{false, std::move(key), std::move(text), 0});
  }
  for (size_t s = 0; s < plans.size(); ++s) {
    SDMS_RETURN_IF_ERROR(ApplyPlan(coll, s, plans[s]));
  }
  // Resync the represented set with what the IRS index now holds (it
  // can drift when a crash interrupted IndexObjects or a batch).
  SDMS_RETURN_IF_ERROR(ResyncRepresented(coll));
  if (!report.consistent()) {
    buffer_.Clear();
    Metrics().repairs.Increment();
    SDMS_LOG(INFO) << "repaired '" << irs_name_ << "': "
                   << report.missing_in_irs.size() << " re-indexed, "
                   << report.orphaned_in_irs.size() << " orphan(s) removed";
  }
  // Consistency is restored, so the failure bookkeeping that led here
  // must not linger: the requeued-pending gauge goes back to zero,
  // and the breaker reset force-publishes its state gauges (a
  // breaker recreated after a restart starts closed, so without the
  // forced publish the previous incarnation's "open" gauge would
  // survive the repair).
  Metrics().requeued_pending.Set(0);
  // A successful repair is positive proof the IRS is reachable again —
  // for every failure domain, so the per-shard breakers close too.
  guard_.breaker().Reset();
  for (auto& g : shard_guards_) g->breaker().Reset();
  // Repair may have rewritten index entries outside the propagation
  // path; remote serving copies must re-sync before the next search.
  MarkRemoteShardsUnsynced();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Duplicated IRS operators (Section 4.5.4)
// ---------------------------------------------------------------------------

namespace {

/// Combines the score maps of `node`'s operands through the INQUERY
/// operator fold. A document absent from an operand has no evidence for
/// it and takes the operand's null belief (every leaf at
/// `leaf_belief`), as in the IRS. The candidates are the union of the
/// operands' OIDs, found by one merge over the OID-sorted operands.
OidScoreMap CombineMaps(
    const irs::QueryNode& node,
    const std::vector<std::shared_ptr<const OidScoreMap>>& operands,
    double leaf_belief) {
  const size_t n = operands.size();
  std::vector<OidScoreMap::const_iterator> pos(n);
  std::vector<double> missing(n);
  for (size_t i = 0; i < n; ++i) {
    pos[i] = operands[i]->begin();
    missing[i] = irs::NullBelief(*node.children[i], leaf_belief);
  }
  std::vector<double> values(n);
  auto value = [&values](size_t i) { return values[i]; };
  std::vector<OidScoreMap::value_type> out;
  while (true) {
    // The next candidate is the smallest OID any operand has left.
    bool any = false;
    Oid next;
    for (size_t i = 0; i < n; ++i) {
      if (pos[i] != operands[i]->end() && (!any || pos[i]->first < next)) {
        next = pos[i]->first;
        any = true;
      }
    }
    if (!any) break;
    for (size_t i = 0; i < n; ++i) {
      if (pos[i] != operands[i]->end() && pos[i]->first == next) {
        values[i] = pos[i]->second;
        ++pos[i];
      } else {
        values[i] = missing[i];
      }
    }
    out.emplace_back(next, irs::CombineBeliefs(node, leaf_belief, value));
  }
  return OidScoreMap::FromSorted(std::move(out));
}

}  // namespace

StatusOr<OidScoreMap> Collection::EvalOperatorsInDbms(
    const std::string& irs_query) {
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                        coupling_->irs().GetCollection(irs_name_));
  SDMS_ASSIGN_OR_RETURN(std::unique_ptr<irs::QueryNode> tree,
                        irs::ParseIrsQuery(irs_query, coll->analyzer()));

  // Recursive evaluation: leaves hit the (buffered) IRS, inner nodes
  // are computed here, inside the DBMS. Leaves share the buffered
  // results instead of copying them.
  using Result = std::shared_ptr<const OidScoreMap>;
  std::function<StatusOr<Result>(const irs::QueryNode&)> eval =
      [&](const irs::QueryNode& node) -> StatusOr<Result> {
    if (node.op == irs::QueryOp::kTerm) return GetIrsResult(node.term);
    if (node.op == irs::QueryOp::kOdn || node.op == irs::QueryOp::kUwn) {
      // Proximity nodes cannot be recombined from term results (they
      // need positions); they are submitted to the IRS as a unit.
      return GetIrsResult(node.ToString());
    }
    std::vector<Result> operands;
    operands.reserve(node.children.size());
    for (const auto& c : node.children) {
      SDMS_ASSIGN_OR_RETURN(Result m, eval(*c));
      operands.push_back(std::move(m));
    }
    return std::make_shared<const OidScoreMap>(
        CombineMaps(node, operands, missing_value_));
  };
  SDMS_ASSIGN_OR_RETURN(Result result, eval(*tree));
  return *result;
}

}  // namespace sdms::coupling
