#include "oodb/query/executor.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "common/obs/trace.h"
#include "common/query_context.h"
#include "common/string_util.h"
#include "oodb/query/parser.h"

namespace sdms::oodb::vql {

namespace {

struct QueryMetrics {
  obs::Counter& runs = obs::GetCounter("oodb.query.runs");
  obs::Counter& errors = obs::GetCounter("oodb.query.errors");
  obs::Counter& rows = obs::GetCounter("oodb.query.rows_emitted");
  obs::Counter& bindings = obs::GetCounter("oodb.query.bindings_scanned");
  obs::Counter& index_lookups = obs::GetCounter("oodb.query.index_lookups");
  obs::Counter& partial_results = obs::GetCounter("oodb.query.partial_results");
  obs::Histogram& parse_us = obs::GetHistogram("oodb.query.parse_micros");
  obs::Histogram& plan_us = obs::GetHistogram("oodb.query.plan_micros");
  obs::Histogram& join_us = obs::GetHistogram("oodb.query.join_micros");
  obs::Histogram& run_us = obs::GetHistogram("oodb.query.run_micros");
};

QueryMetrics& Metrics() {
  static QueryMetrics* m = new QueryMetrics();
  return *m;
}

/// An index-usable equality: `var.attr == literal` (or the method form
/// `var -> getAttributeValue('attr') == literal`, and mirrored sides).
struct IndexableEq {
  std::string var;
  std::string attr;
  Value key;
};

/// Tries to interpret `e` as attribute access on a direct variable.
bool AsVarAttr(const Expr& e, std::string* var, std::string* attr) {
  if (e.kind == ExprKind::kAttrAccess &&
      e.child->kind == ExprKind::kVarRef) {
    *var = e.child->name;
    *attr = e.name;
    return true;
  }
  if (e.kind == ExprKind::kMethodCall && e.child->kind == ExprKind::kVarRef &&
      EqualsIgnoreCase(e.name, "getAttributeValue") && e.args.size() == 1 &&
      e.args[0]->kind == ExprKind::kLiteral &&
      e.args[0]->literal.is_string()) {
    *var = e.child->name;
    *attr = e.args[0]->literal.as_string();
    return true;
  }
  return false;
}

bool AsIndexableEq(const Expr& e, IndexableEq* out) {
  if (e.kind != ExprKind::kBinary || e.bin_op != BinOp::kEq) return false;
  const Expr* lhs = e.child.get();
  const Expr* rhs = e.rhs.get();
  for (int swap = 0; swap < 2; ++swap) {
    std::string var, attr;
    if (AsVarAttr(*lhs, &var, &attr) && rhs->kind == ExprKind::kLiteral) {
      out->var = std::move(var);
      out->attr = std::move(attr);
      out->key = rhs->literal;
      return true;
    }
    std::swap(lhs, rhs);
  }
  return false;
}

/// An index-usable range predicate: `var.attr <op> literal` with an
/// ordering operator (or the mirrored literal-first form).
struct IndexableRange {
  std::string var;
  std::string attr;
  std::optional<Value> lo;
  bool lo_inclusive = false;
  std::optional<Value> hi;
  bool hi_inclusive = false;
};

bool AsIndexableRange(const Expr& e, IndexableRange* out) {
  if (e.kind != ExprKind::kBinary) return false;
  BinOp op = e.bin_op;
  if (op != BinOp::kLt && op != BinOp::kLe && op != BinOp::kGt &&
      op != BinOp::kGe) {
    return false;
  }
  const Expr* lhs = e.child.get();
  const Expr* rhs = e.rhs.get();
  bool mirrored = false;
  std::string var, attr;
  if (AsVarAttr(*lhs, &var, &attr) && rhs->kind == ExprKind::kLiteral) {
    // var.attr <op> literal
  } else if (AsVarAttr(*rhs, &var, &attr) &&
             lhs->kind == ExprKind::kLiteral) {
    // literal <op> var.attr: flip the operator.
    mirrored = true;
    std::swap(lhs, rhs);
  } else {
    return false;
  }
  if (mirrored) {
    switch (op) {
      case BinOp::kLt:
        op = BinOp::kGt;
        break;
      case BinOp::kLe:
        op = BinOp::kGe;
        break;
      case BinOp::kGt:
        op = BinOp::kLt;
        break;
      default:
        op = BinOp::kLe;
        break;
    }
  }
  out->var = std::move(var);
  out->attr = std::move(attr);
  switch (op) {
    case BinOp::kGt:
      out->lo = rhs->literal;
      out->lo_inclusive = false;
      break;
    case BinOp::kGe:
      out->lo = rhs->literal;
      out->lo_inclusive = true;
      break;
    case BinOp::kLt:
      out->hi = rhs->literal;
      out->hi_inclusive = false;
      break;
    default:
      out->hi = rhs->literal;
      out->hi_inclusive = true;
      break;
  }
  return true;
}

}  // namespace

std::vector<const Expr*> SplitConjuncts(const Expr* where) {
  std::vector<const Expr*> out;
  if (where == nullptr) return out;
  if (where->kind == ExprKind::kBinary && where->bin_op == BinOp::kAnd) {
    auto l = SplitConjuncts(where->child.get());
    auto r = SplitConjuncts(where->rhs.get());
    out.insert(out.end(), l.begin(), l.end());
    out.insert(out.end(), r.begin(), r.end());
    return out;
  }
  out.push_back(where);
  return out;
}

void CollectVars(const Expr& expr, std::vector<std::string>& out) {
  switch (expr.kind) {
    case ExprKind::kVarRef:
      if (std::find(out.begin(), out.end(), expr.name) == out.end()) {
        out.push_back(expr.name);
      }
      return;
    case ExprKind::kLiteral:
      return;
    default:
      if (expr.child) CollectVars(*expr.child, out);
      if (expr.rhs) CollectVars(*expr.rhs, out);
      for (const auto& a : expr.args) CollectVars(*a, out);
      return;
  }
}

bool AllVarsBound(const Expr& expr, const std::vector<std::string>& bound) {
  std::vector<std::string> vars;
  CollectVars(expr, vars);
  for (const std::string& v : vars) {
    if (std::find(bound.begin(), bound.end(), v) == bound.end()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

struct QueryEngine::BindingPlan {
  Binding binding;
  /// Candidate OIDs (from index) or empty to scan the extent.
  std::optional<std::vector<Oid>> candidates;
  /// Single-variable conjuncts evaluated as soon as this var is bound.
  std::vector<const Expr*> filters;
  /// Join conjuncts evaluated at this depth (all vars bound here).
  std::vector<const Expr*> join_conjuncts;
  /// Planner's cardinality estimate (for reorder decisions).
  size_t estimate = 0;
};

StatusOr<std::vector<QueryEngine::BindingPlan>> QueryEngine::BuildPlan(
    const ParsedQuery& query) {
  obs::TraceSpan span("vql.plan");
  obs::ProfileStageScope stage("plan");
  std::vector<BindingPlan> plan;
  for (const Binding& b : query.bindings) {
    if (!db_->schema().HasClass(b.class_name)) {
      return Status::NotFound("unknown class in FROM: " + b.class_name);
    }
    BindingPlan bp;
    bp.binding = b;
    auto ov = candidate_overrides_.find(b.var);
    if (ov != candidate_overrides_.end()) {
      std::vector<Oid> sorted = ov->second;
      std::sort(sorted.begin(), sorted.end());
      bp.candidates = std::move(sorted);
      bp.estimate = bp.candidates->size();
    } else {
      bp.estimate = db_->ExtentSize(b.class_name);
    }
    plan.push_back(std::move(bp));
  }

  std::vector<const Expr*> conjuncts = SplitConjuncts(query.where.get());
  std::vector<const Expr*> remaining;

  // Index selection + single-variable filter classification.
  auto apply_candidates = [&](BindingPlan& bp, std::vector<Oid> hits) {
    ++stats_.index_lookups;
    std::sort(hits.begin(), hits.end());
    if (bp.candidates.has_value()) {
      // Intersect with any earlier index result on the same var.
      std::vector<Oid> merged;
      std::set_intersection(bp.candidates->begin(), bp.candidates->end(),
                            hits.begin(), hits.end(),
                            std::back_inserter(merged));
      bp.candidates = std::move(merged);
    } else {
      bp.candidates = std::move(hits);
    }
    bp.estimate = bp.candidates->size();
    // The conjunct is still re-checked as a filter afterwards, which
    // keeps the engine honest about index contents.
  };
  for (const Expr* c : conjuncts) {
    if (options_.use_indexes) {
      IndexableEq eq;
      IndexableRange range;
      if (AsIndexableEq(*c, &eq)) {
        for (BindingPlan& bp : plan) {
          if (bp.binding.var == eq.var &&
              db_->HasIndex(bp.binding.class_name, eq.attr)) {
            auto hits =
                db_->IndexLookup(bp.binding.class_name, eq.attr, eq.key);
            if (hits.ok()) apply_candidates(bp, std::move(*hits));
            break;
          }
        }
      } else if (AsIndexableRange(*c, &range)) {
        for (BindingPlan& bp : plan) {
          if (bp.binding.var == range.var &&
              db_->HasIndex(bp.binding.class_name, range.attr)) {
            auto hits = db_->IndexRange(bp.binding.class_name, range.attr,
                                        range.lo, range.lo_inclusive,
                                        range.hi, range.hi_inclusive);
            if (hits.ok()) apply_candidates(bp, std::move(*hits));
            break;
          }
        }
      }
    }
    remaining.push_back(c);
  }

  // Filter pushdown: single-variable conjuncts attach to their binding.
  std::vector<const Expr*> join_conjuncts;
  for (const Expr* c : remaining) {
    std::vector<std::string> vars;
    CollectVars(*c, vars);
    if (options_.pushdown_filters && vars.size() == 1) {
      bool attached = false;
      for (BindingPlan& bp : plan) {
        if (bp.binding.var == vars[0]) {
          bp.filters.push_back(c);
          attached = true;
          break;
        }
      }
      if (!attached) join_conjuncts.push_back(c);
    } else {
      join_conjuncts.push_back(c);
    }
  }

  // Binding reorder: cheapest candidate set first.
  if (options_.reorder_bindings) {
    std::stable_sort(plan.begin(), plan.end(),
                     [](const BindingPlan& a, const BindingPlan& b) {
                       return a.estimate < b.estimate;
                     });
  }

  // Assign join conjuncts to the earliest depth where all vars bound.
  std::vector<std::string> bound;
  for (BindingPlan& bp : plan) {
    bound.push_back(bp.binding.var);
    for (auto it = join_conjuncts.begin(); it != join_conjuncts.end();) {
      if (AllVarsBound(**it, bound)) {
        bp.join_conjuncts.push_back(*it);
        it = join_conjuncts.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (!join_conjuncts.empty()) {
    // Conjuncts referencing unknown variables.
    std::vector<std::string> vars;
    CollectVars(*join_conjuncts.front(), vars);
    return Status::InvalidArgument("WHERE references unbound variable(s) in " +
                                   join_conjuncts.front()->ToString());
  }
  Metrics().plan_us.Record(static_cast<double>(span.ElapsedMicros()));
  return plan;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

void BoundCalls::Bind(const Expr* call, const MethodFn* method,
                      std::unique_ptr<BoundCall> bound) {
  entries_.push_back(Entry{call, method, std::move(bound), {}});
}

bool QueryEngine::BindingApplies(BoundCalls::Entry& entry,
                                 const DbObject& self) {
  const std::string& cls = self.class_name();
  for (const auto& [name, applies] : entry.classes) {
    if (name == cls) return applies;
  }
  auto method = db_->methods().Resolve(db_->schema(), cls, entry.call->name);
  bool applies = method.ok() && *method == entry.method;
  entry.classes.emplace_back(cls, applies);
  return applies;
}

StatusOr<Value> QueryEngine::Eval(const Expr& expr, Frame& frame) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kVarRef: {
      if (const Frame::Var* var = frame.Find(expr.name)) return var->value;
      return Status::InvalidArgument("unbound variable: " + expr.name);
    }
    case ExprKind::kAttrAccess: {
      // A bound variable's object was fetched when it was bound.
      if (expr.child->kind == ExprKind::kVarRef) {
        if (const Frame::Var* var = frame.Find(expr.child->name)) {
          return db_->AttributeOf(*var->object, expr.name);
        }
      }
      SDMS_ASSIGN_OR_RETURN(Value recv, Eval(*expr.child, frame));
      if (!recv.is_oid()) {
        return Status::TypeError("attribute access on non-object: " +
                                 expr.ToString());
      }
      return db_->GetAttribute(recv.as_oid(), expr.name);
    }
    case ExprKind::kMethodCall: {
      const DbObject* recv_obj = nullptr;
      Value recv;
      if (const Frame::Var* var = expr.child->kind == ExprKind::kVarRef
                                      ? frame.Find(expr.child->name)
                                      : nullptr) {
        recv = var->value;
        recv_obj = var->object;
      } else {
        SDMS_ASSIGN_OR_RETURN(recv, Eval(*expr.child, frame));
      }
      if (!recv.is_oid()) {
        return Status::TypeError("method call on non-object: " +
                                 expr.ToString());
      }
      if (BoundCalls::Entry* bound = frame.calls.Find(&expr); bound != nullptr) {
        if (recv_obj == nullptr) recv_obj = db_->store().Find(recv.as_oid());
        // A missing receiver takes the Invoke path, which reports it.
        if (recv_obj != nullptr && BindingApplies(*bound, *recv_obj)) {
          ++stats_.method_calls;
          return bound->bound->Call(recv.as_oid());
        }
      }
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        SDMS_ASSIGN_OR_RETURN(Value v, Eval(*a, frame));
        args.push_back(std::move(v));
      }
      ++stats_.method_calls;
      return db_->Invoke(recv.as_oid(), expr.name, args);
    }
    case ExprKind::kListExpr: {
      ValueList list;
      list.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        SDMS_ASSIGN_OR_RETURN(Value v, Eval(*a, frame));
        list.push_back(std::move(v));
      }
      return Value(std::move(list));
    }
    case ExprKind::kUnary: {
      SDMS_ASSIGN_OR_RETURN(Value v, Eval(*expr.child, frame));
      if (expr.un_op == UnOp::kNot) return Value(!v.Truthy());
      SDMS_ASSIGN_OR_RETURN(double d, v.AsNumber());
      if (v.is_int()) return Value(-v.as_int());
      return Value(-d);
    }
    case ExprKind::kBinary: {
      // AND/OR short-circuit.
      if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
        SDMS_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.child, frame));
        bool l = lhs.Truthy();
        if (expr.bin_op == BinOp::kAnd && !l) return Value(false);
        if (expr.bin_op == BinOp::kOr && l) return Value(true);
        SDMS_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.rhs, frame));
        return Value(rhs.Truthy());
      }
      SDMS_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.child, frame));
      SDMS_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.rhs, frame));
      switch (expr.bin_op) {
        case BinOp::kEq:
          return Value(lhs.Equals(rhs));
        case BinOp::kNe:
          return Value(!lhs.Equals(rhs));
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe: {
          // Comparisons involving null are false (unknown-as-false).
          if (lhs.is_null() || rhs.is_null()) return Value(false);
          auto cmp = lhs.Compare(rhs);
          if (!cmp.ok()) return cmp.status();
          int c = *cmp;
          switch (expr.bin_op) {
            case BinOp::kLt:
              return Value(c < 0);
            case BinOp::kLe:
              return Value(c <= 0);
            case BinOp::kGt:
              return Value(c > 0);
            default:
              return Value(c >= 0);
          }
        }
        case BinOp::kAdd: {
          if (lhs.is_string() || rhs.is_string()) {
            std::string l = lhs.is_string() ? lhs.as_string() : lhs.ToString();
            std::string r = rhs.is_string() ? rhs.as_string() : rhs.ToString();
            return Value(l + r);
          }
          if (lhs.is_int() && rhs.is_int()) {
            return Value(lhs.as_int() + rhs.as_int());
          }
          SDMS_ASSIGN_OR_RETURN(double a, lhs.AsNumber());
          SDMS_ASSIGN_OR_RETURN(double b, rhs.AsNumber());
          return Value(a + b);
        }
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv: {
          if (lhs.is_int() && rhs.is_int() && expr.bin_op != BinOp::kDiv) {
            int64_t a = lhs.as_int();
            int64_t b = rhs.as_int();
            return Value(expr.bin_op == BinOp::kSub ? a - b : a * b);
          }
          SDMS_ASSIGN_OR_RETURN(double a, lhs.AsNumber());
          SDMS_ASSIGN_OR_RETURN(double b, rhs.AsNumber());
          if (expr.bin_op == BinOp::kSub) return Value(a - b);
          if (expr.bin_op == BinOp::kMul) return Value(a * b);
          if (b == 0.0) return Status::InvalidArgument("division by zero");
          return Value(a / b);
        }
        default:
          return Status::Internal("unhandled binary op");
      }
    }
  }
  return Status::Internal("unhandled expression kind");
}

StatusOr<QueryResult> QueryEngine::Run(const std::string& vql) {
  obs::TraceSpan span("vql.parse");
  StatusOr<ParsedQuery> parsed = [&] {
    obs::ProfileStageScope stage("parse");
    return ParseQuery(vql);
  }();
  Metrics().parse_us.Record(static_cast<double>(span.ElapsedMicros()));
  if (!parsed.ok()) {
    Metrics().errors.Increment();
    return parsed.status();
  }
  return Run(*parsed);
}

StatusOr<std::string> QueryEngine::Explain(const std::string& vql) {
  SDMS_ASSIGN_OR_RETURN(ParsedQuery query, ParseQuery(vql));
  auto plan_or = BuildPlan(query);
  candidate_overrides_.clear();
  if (!plan_or.ok()) return plan_or.status();
  std::string out = "plan for: " + query.ToString() + "\n";
  int step = 0;
  for (const BindingPlan& bp : *plan_or) {
    out += StrFormat("%d. %s IN %s: ", ++step, bp.binding.var.c_str(),
                     bp.binding.class_name.c_str());
    if (bp.candidates.has_value()) {
      out += StrFormat("index/injected candidates (%zu objects)",
                       bp.candidates->size());
    } else {
      out += StrFormat("extent scan (%zu objects)", bp.estimate);
    }
    for (const Expr* f : bp.filters) {
      out += "\n     filter: " + f->ToString();
    }
    for (const Expr* jc : bp.join_conjuncts) {
      out += "\n     join:   " + jc->ToString();
    }
    out += "\n";
  }
  if (query.order_by != nullptr) {
    out += "sort: " + query.order_by->expr->ToString() +
           (query.order_by->descending ? " DESC" : " ASC") + "\n";
  }
  if (query.limit >= 0) {
    out += "limit: " + std::to_string(query.limit) + "\n";
  }
  return out;
}

StatusOr<QueryResult> QueryEngine::Run(const ParsedQuery& query) {
  obs::TraceSpan run_span("vql.run");
  QueryMetrics& metrics = Metrics();
  metrics.runs.Increment();
  stats_ = QueryStats{};
  QueryContext* ctx = QueryContext::Current();
  if (ctx != nullptr) {
    // A query whose deadline already passed (or that was cancelled
    // before starting) never reaches the prepare hooks or the join.
    Status pre = ctx->CheckStatus();
    if (!pre.ok() && !(ctx->allow_partial() && !pre.IsCancelled())) {
      candidate_overrides_.clear();
      metrics.errors.Increment();
      return pre;
    }
  }
  Frame frame;
  {
    obs::ProfileStageScope prepare_stage("prepare");
    for (const PrepareHook& hook : prepare_hooks_) {
      Status hook_status = hook(*db_, query, frame.calls);
      if (!hook_status.ok()) {
        // Prepare hooks are optimizations (buffer warmups); when the
        // deadline fires inside one and the query tolerates partial
        // answers, skip the warmup instead of failing the statement.
        if (ctx != nullptr && ctx->allow_partial() &&
            (hook_status.IsDeadlineExceeded() ||
             hook_status.IsResourceExhausted())) {
          frame.partial_stop = true;
          break;
        }
        candidate_overrides_.clear();
        metrics.errors.Increment();
        return hook_status;
      }
    }
  }
  auto plan_or = BuildPlan(query);
  candidate_overrides_.clear();  // Overrides apply to this Run only.
  if (!plan_or.ok()) {
    metrics.errors.Increment();
    return plan_or.status();
  }
  std::vector<BindingPlan> plan = std::move(plan_or).value();

  QueryResult result;
  for (const auto& e : query.select) result.columns.push_back(e->ToString());

  {
    obs::TraceSpan join_span("vql.join");
    obs::ProfileStageScope join_stage("join");
    frame.env.reserve(plan.size());
    Status join_status = RunJoin(query, plan, 0, frame, result);
    for (BoundCalls::Entry& e : frame.calls.entries_) e.bound->Flush();
    metrics.join_us.Record(static_cast<double>(join_span.ElapsedMicros()));
    obs::ProfileCount("tuples_considered", stats_.tuples_considered);
    obs::ProfileCount("method_calls", stats_.method_calls);
    if (!join_status.ok()) {
      metrics.errors.Increment();
      return join_status;
    }
  }
  if (frame.partial_stop) {
    result.degraded = true;
    result.degraded_reason =
        ctx != nullptr && !ctx->StopStatus().ok()
            ? ctx->StopStatus().ToString()
            : "DeadlineExceeded: prepare-stage deadline";
    if (ctx != nullptr) ctx->NoteDegraded();
    metrics.partial_results.Increment();
  } else if (!frame.calls.degraded_reason().empty()) {
    // Complete rows, but some values came from a degraded fallback.
    result.degraded = true;
    result.degraded_reason = frame.calls.degraded_reason();
    if (ctx != nullptr) ctx->NoteDegraded();
  }

  // DISTINCT: keep the first row per distinct select-column tuple
  // (the hidden sort key, when present, follows the first occurrence).
  if (query.distinct && !result.rows.empty()) {
    std::set<std::string> seen;
    std::vector<std::vector<Value>> unique_rows;
    unique_rows.reserve(result.rows.size());
    for (auto& row : result.rows) {
      std::string key;
      for (size_t i = 0; i < query.select.size() && i < row.size(); ++i) {
        key += row[i].ToString();
        key.push_back('\x1f');
      }
      if (seen.insert(std::move(key)).second) {
        unique_rows.push_back(std::move(row));
      }
    }
    result.rows = std::move(unique_rows);
  }

  // ORDER BY: sort rows by a sort key computed per row. The key is
  // evaluated against the select expressions' environment, so it must
  // be one of the select expressions or an expression over constants;
  // to keep it general we re-evaluate with the captured env per row,
  // which requires storing envs. Instead we evaluate the key during
  // emission (appended as a hidden column) and strip it afterwards.
  if (query.order_by != nullptr && !result.rows.empty()) {
    size_t key_col = result.columns.size();  // hidden column index
    bool desc = query.order_by->descending;
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const std::vector<Value>& a,
                         const std::vector<Value>& b) {
                       auto cmp = a[key_col].Compare(b[key_col]);
                       int c = cmp.ok() ? *cmp : 0;
                       return desc ? c > 0 : c < 0;
                     });
    for (auto& row : result.rows) row.pop_back();
  }
  if (query.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(query.limit)) {
    result.rows.resize(static_cast<size_t>(query.limit));
  }
  stats_.rows_emitted = result.rows.size();
  metrics.rows.Add(stats_.rows_emitted);
  metrics.bindings.Add(stats_.bindings_scanned);
  metrics.index_lookups.Add(stats_.index_lookups);
  metrics.run_us.Record(static_cast<double>(run_span.ElapsedMicros()));
  // Batch the per-run stats into the active profile so the stage tree
  // and the process-wide counters above move in lockstep.
  obs::ProfileCount("rows_emitted", stats_.rows_emitted);
  obs::ProfileCount("bindings_scanned", stats_.bindings_scanned);
  obs::ProfileCount("index_lookups", stats_.index_lookups);
  return result;
}

Status QueryEngine::RunJoin(const ParsedQuery& query,
                            const std::vector<BindingPlan>& plan, size_t depth,
                            Frame& frame, QueryResult& result) {
  if (depth == plan.size()) {
    QueryContext* row_ctx = QueryContext::Current();
    if (row_ctx != nullptr) row_ctx->ChargeRows(1);
    return EmitRow(query, frame, result);
  }
  const BindingPlan& bp = plan[depth];
  std::vector<Oid> extent;
  if (!bp.candidates.has_value()) {
    extent = db_->Extent(bp.binding.class_name, /*include_subclasses=*/true);
  }
  const std::vector<Oid>& candidates =
      bp.candidates.has_value() ? *bp.candidates : extent;
  QueryContext* ctx = QueryContext::Current();
  // This depth's variable occupies env[depth] while its candidates run.
  frame.env.push_back(Frame::Var{&bp.binding.var, Value(), nullptr});
  for (Oid oid : candidates) {
    if (frame.partial_stop) break;
    if (ctx != nullptr && ctx->ShouldStop()) {
      // Cancellation always errors; deadline/budget stops degrade to a
      // partial result when the context allows it (mixed queries).
      if (ctx->allow_partial() &&
          ctx->stop_reason() != QueryContext::StopReason::kCancelled) {
        frame.partial_stop = true;
        break;
      }
      return ctx->StopStatus();
    }
    const DbObject* obj = db_->store().Find(oid);
    if (obj == nullptr) continue;
    ++stats_.bindings_scanned;
    frame.env.back().value = Value(oid);
    frame.env.back().object = obj;
    bool pass = true;
    for (const Expr* f : bp.filters) {
      SDMS_ASSIGN_OR_RETURN(Value v, Eval(*f, frame));
      if (!v.Truthy()) {
        pass = false;
        break;
      }
    }
    if (pass) {
      for (const Expr* jc : bp.join_conjuncts) {
        SDMS_ASSIGN_OR_RETURN(Value v, Eval(*jc, frame));
        if (!v.Truthy()) {
          pass = false;
          break;
        }
      }
    }
    if (pass) {
      ++stats_.tuples_considered;
      SDMS_RETURN_IF_ERROR(RunJoin(query, plan, depth + 1, frame, result));
    }
  }
  frame.env.pop_back();
  return Status::OK();
}

Status QueryEngine::EmitRow(const ParsedQuery& query, Frame& frame,
                            QueryResult& result) {
  std::vector<Value> row;
  row.reserve(query.select.size() + 1);
  for (const auto& e : query.select) {
    SDMS_ASSIGN_OR_RETURN(Value v, Eval(*e, frame));
    row.push_back(std::move(v));
  }
  if (query.order_by != nullptr) {
    SDMS_ASSIGN_OR_RETURN(Value key, Eval(*query.order_by->expr, frame));
    row.push_back(std::move(key));  // Hidden sort key, stripped later.
  }
  result.rows.push_back(std::move(row));
  return Status::OK();
}

std::string QueryResult::ToTable(size_t max_rows) const {
  std::vector<size_t> widths(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) widths[i] = columns[i].size();
  std::vector<std::vector<std::string>> cells;
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    std::vector<std::string> row;
    for (size_t i = 0; i < rows[r].size() && i < columns.size(); ++i) {
      row.push_back(rows[r][i].ToString());
      widths[i] = std::max(widths[i], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  std::string out;
  auto add_row = [&](const std::vector<std::string>& row) {
    out += "|";
    for (size_t i = 0; i < columns.size(); ++i) {
      std::string cell = i < row.size() ? row[i] : "";
      out += " " + cell + std::string(widths[i] - cell.size(), ' ') + " |";
    }
    out += "\n";
  };
  add_row(columns);
  out += "|";
  for (size_t i = 0; i < columns.size(); ++i) {
    out += std::string(widths[i] + 2, '-') + "|";
  }
  out += "\n";
  for (const auto& row : cells) add_row(row);
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size() - max_rows) + " more rows)\n";
  }
  return out;
}

}  // namespace sdms::oodb::vql
