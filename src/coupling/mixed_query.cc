#include "coupling/mixed_query.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "common/obs/profile.h"
#include "common/query_context.h"
#include "oodb/query/parser.h"

namespace sdms::coupling {

using oodb::vql::BinOp;
using oodb::vql::Expr;
using oodb::vql::ExprKind;
using oodb::vql::ParsedQuery;
using oodb::vql::QueryResult;
using oodb::vql::SplitConjuncts;

namespace {

/// A recognized content restriction: var -> getIRSValue(coll, 'q') > t.
struct ContentRestriction {
  std::string var;
  std::string collection;
  std::string irs_query;
  double threshold = 0.0;
  bool inclusive = false;  // >= vs >
};

bool AsContentRestriction(const Expr& e, ContentRestriction* out) {
  if (e.kind != ExprKind::kBinary) return false;
  const Expr* call = nullptr;
  const Expr* bound = nullptr;
  bool greater;   // call > bound vs bound < call etc.
  bool inclusive;
  switch (e.bin_op) {
    case BinOp::kGt:
      call = e.child.get();
      bound = e.rhs.get();
      greater = true;
      inclusive = false;
      break;
    case BinOp::kGe:
      call = e.child.get();
      bound = e.rhs.get();
      greater = true;
      inclusive = true;
      break;
    case BinOp::kLt:
      call = e.rhs.get();
      bound = e.child.get();
      greater = true;
      inclusive = false;
      break;
    case BinOp::kLe:
      call = e.rhs.get();
      bound = e.child.get();
      greater = true;
      inclusive = true;
      break;
    default:
      return false;
  }
  if (!greater) return false;
  if (call->kind != ExprKind::kMethodCall || call->name != "getIRSValue") {
    return false;
  }
  if (call->child->kind != ExprKind::kVarRef) return false;
  if (call->args.size() != 2 ||
      call->args[0]->kind != ExprKind::kLiteral ||
      !call->args[0]->literal.is_string() ||
      call->args[1]->kind != ExprKind::kLiteral ||
      !call->args[1]->literal.is_string()) {
    return false;
  }
  if (bound->kind != ExprKind::kLiteral || !bound->literal.is_numeric()) {
    return false;
  }
  out->var = call->child->name;
  out->collection = call->args[0]->literal.as_string();
  out->irs_query = call->args[1]->literal.as_string();
  out->threshold = bound->literal.AsNumber().value();
  out->inclusive = inclusive;
  return true;
}

const char* StrategyName(MixedQueryEvaluator::Strategy s) {
  return s == MixedQueryEvaluator::Strategy::kIrsFirst ? "irs_first"
                                                       : "independent";
}

}  // namespace

StatusOr<QueryResult> MixedQueryEvaluator::Run(
    const std::string& vql, Strategy strategy,
    AdmissionController::Ticket* preadmitted) {
  info_ = RunInfo{};
  info_.strategy = strategy;

  // Adopt the caller's QueryContext (shell, bench, service layer) or
  // install a fresh one, so admission and degradation always have a
  // context to consult.
  QueryContext* ctx = QueryContext::Current();
  std::optional<QueryContext> local_ctx;
  if (ctx == nullptr) {
    local_ctx.emplace();
    ctx = &*local_ctx;
  }
  // Attach a profile when profiling is on or the slow-query log is
  // armed (a profile the caller attached is kept).
  std::shared_ptr<obs::QueryProfile> profile = ctx->profile();
  if (profile == nullptr &&
      (obs::ProfilingEnabled() || obs::SlowQueryLog::Instance().enabled())) {
    profile = std::make_shared<obs::QueryProfile>(ctx->query_id());
    ctx->set_profile(profile);
  }
  // Unconditional nested scope: (re-)installs the thread's binding so
  // it sees the just-attached profile even when the caller's Scope
  // predates it.
  QueryContext::Scope scope(ctx);
  info_.query_id = ctx->query_id();
  info_.profile = profile;

  // Mixed queries degrade to partial results on deadline/budget expiry
  // instead of failing the whole VQL statement (restored on exit).
  struct AllowPartialGuard {
    QueryContext* ctx;
    bool prev;
    ~AllowPartialGuard() { ctx->set_allow_partial(prev); }
  } partial_guard{ctx, ctx->allow_partial()};
  ctx->set_allow_partial(true);

  const int64_t run_start = QueryContext::NowMicros();
  // Finalization runs on every exit path (shed, parse error, success):
  // close the profile, log the query when it crossed the slow
  // threshold, and stamp the total into RunInfo.
  struct Finalizer {
    MixedQueryEvaluator* self;
    const std::string& vql;
    int64_t start;
    ~Finalizer() {
      RunInfo& info = self->info_;
      info.total_micros = QueryContext::NowMicros() - start;
      if (info.profile != nullptr) {
        info.profile->Annotate("strategy", StrategyName(info.strategy));
        info.profile->Finish();
      }
      obs::SlowQueryLog::Instance().MaybeRecord(
          info.query_id, vql, info.total_micros, info.profile.get());
    }
  } finalizer{this, vql, run_start};

  if (profile != nullptr) profile->Annotate("query", vql);

  AdmissionController::Ticket ticket;
  if (preadmitted != nullptr && preadmitted->held()) {
    ticket = std::move(*preadmitted);
  } else {
    obs::ProfileStageScope admission_stage("admission");
    SDMS_ASSIGN_OR_RETURN(ticket, coupling_->admission().Admit(ctx));
  }
  info_.queue_wait_micros = ticket.wait_micros();

  StatusOr<ParsedQuery> parsed = [&] {
    obs::ProfileStageScope parse_stage("parse");
    return oodb::vql::ParseQuery(vql);
  }();
  SDMS_ASSIGN_OR_RETURN(ParsedQuery query, std::move(parsed));
  if (strategy == Strategy::kIrsFirst) {
    obs::ProfileStageScope irs_first_stage("irs_first");
    SDMS_RETURN_IF_ERROR(ApplyIrsFirst(query));
    obs::ProfileCount("irs_restrictions", info_.irs_restrictions);
    obs::ProfileCount("irs_candidates", info_.irs_candidates);
  }
  SDMS_ASSIGN_OR_RETURN(QueryResult result,
                        coupling_->query_engine().Run(query));
  if (info_.degraded && !result.degraded) {
    result.degraded = true;
    result.degraded_reason = "content restrictions degraded (IRS deadline)";
  }
  info_.degraded = result.degraded;
  // Collect the per-shard outcomes every fan-out search parked in the
  // context, so callers (wire protocol, shell) can name the failure
  // domain behind a degraded answer.
  info_.shard_status = ctx->TakeShardStatus();
  if (info_.degraded && profile != nullptr) {
    profile->Annotate("degradation_reason", result.degraded_reason);
  }
  return result;
}

Status MixedQueryEvaluator::ApplyIrsFirst(const ParsedQuery& query) {
  // Candidate sets per variable, sorted by OID; conjuncts on the same
  // variable intersect.
  std::map<std::string, std::vector<Oid>> candidates;
  for (const Expr* conjunct : SplitConjuncts(query.where.get())) {
    ContentRestriction r;
    if (!AsContentRestriction(*conjunct, &r)) continue;
    SDMS_ASSIGN_OR_RETURN(Collection * coll,
                          coupling_->GetCollectionByName(r.collection));
    // Soundness guard: the IRS result only holds represented objects.
    // A variable ranging over another class (MMFDOC against a PARA
    // collection) has derived values, which only independent
    // evaluation computes, so the conjunct stays with it.
    auto binding = std::find_if(
        query.bindings.begin(), query.bindings.end(),
        [&](const oodb::vql::Binding& b) { return b.var == r.var; });
    if (binding == query.bindings.end() ||
        !coll->RepresentsClass(binding->class_name)) {
      continue;
    }
    // Soundness guard: objects absent from the IRS result still score
    // the query's null belief. If that already passes the threshold,
    // the content predicate cannot restrict the candidate set (every
    // represented object qualifies) — fall back to independent
    // evaluation for this conjunct.
    SDMS_ASSIGN_OR_RETURN(double null_score, coll->NullScore(r.irs_query));
    if (null_score > r.threshold ||
        (r.inclusive && null_score >= r.threshold)) {
      continue;
    }
    auto result_or = coll->GetIrsResult(r.irs_query);
    if (!result_or.ok()) {
      // The IRS side missed the deadline (or is unavailable): leave
      // this conjunct to independent evaluation, whose per-object
      // getIRSValue has its own degraded fallbacks. Cancellation is
      // not degradable and propagates.
      if (IsUnavailable(result_or.status())) {
        info_.degraded = true;
        if (QueryContext* ctx = QueryContext::Current()) ctx->NoteDegraded();
        continue;
      }
      return result_or.status();
    }
    // The result is sorted by OID, so `qualifying` is too.
    const OidScoreMap& result = **result_or;
    std::vector<Oid> qualifying;
    for (const auto& [oid, score] : result) {
      if (score > r.threshold || (r.inclusive && score >= r.threshold)) {
        qualifying.push_back(oid);
      }
    }
    ++info_.irs_restrictions;
    auto [it, first] = candidates.try_emplace(r.var, std::move(qualifying));
    if (!first) {
      std::vector<Oid> merged;
      std::set_intersection(it->second.begin(), it->second.end(),
                            qualifying.begin(), qualifying.end(),
                            std::back_inserter(merged));
      it->second = std::move(merged);
    }
  }
  for (auto& [var, oids] : candidates) {
    info_.irs_candidates += oids.size();
    coupling_->query_engine().SetCandidateOverride(var, std::move(oids));
  }
  return Status::OK();
}

}  // namespace sdms::coupling
