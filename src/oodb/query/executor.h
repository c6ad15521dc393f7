#ifndef SDMS_OODB_QUERY_EXECUTOR_H_
#define SDMS_OODB_QUERY_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "oodb/database.h"
#include "oodb/query/ast.h"

namespace sdms::oodb::vql {

/// Tabular result of a VQL query.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// True when the rows are a *partial* answer: the query's
  /// QueryContext allowed partial results (allow_partial) and its
  /// deadline or budget fired mid-join. Extends the coupling's
  /// stale-read flag convention (docs/robustness.md) to the VQL layer.
  bool degraded = false;
  /// Why the result is partial ("DeadlineExceeded: ...", ...).
  std::string degraded_reason;

  /// Pretty-prints as an aligned ASCII table (examples/benches).
  std::string ToTable(size_t max_rows = 50) const;
};

/// Counters exposed after each query; benches use them to show the
/// effect of optimizations (index use, binding reorder, IRS prefetch).
struct QueryStats {
  uint64_t bindings_scanned = 0;   // candidate objects enumerated
  uint64_t tuples_considered = 0;  // join tuples evaluated
  uint64_t method_calls = 0;       // VQL method invocations
  uint64_t index_lookups = 0;      // B-tree probes
  uint64_t rows_emitted = 0;
};

/// A method call that a prepare hook resolved once for a whole Run, so
/// that evaluating it per binding skips method dispatch and argument
/// evaluation (the coupling binds `getIRSValue('coll', 'q')` to the
/// buffered IRS result of 'q').
class BoundCall {
 public:
  BoundCall() = default;
  BoundCall(const BoundCall&) = delete;
  BoundCall& operator=(const BoundCall&) = delete;
  virtual ~BoundCall() = default;
  /// Evaluates the call on receiver `self`.
  virtual StatusOr<Value> Call(Oid self) = 0;
  /// Books the accounting of the evaluations made so far. The engine
  /// calls it once per Run, inside the `join` stage, on every exit path.
  virtual void Flush() {}
};

/// Per-Run state the prepare hooks fill: the calls bound for this Run,
/// and whether a prepare step left the statement to a degraded
/// fallback. It lives in QueryEngine::Run's frame, so a nested Run has
/// its own and never frees a call that is still executing.
class BoundCalls {
 public:
  /// Binds the method-call expression `call` of the running query. The
  /// binding applies to receivers whose class resolves the call's
  /// method name to `method` (checked once per class per Run); any
  /// other receiver is dispatched through Database::Invoke as usual.
  void Bind(const Expr* call, const MethodFn* method,
            std::unique_ptr<BoundCall> bound);

  /// Flags the statement's result degraded with `reason` (the first
  /// reason noted wins): a prepare step could not do its work and left
  /// the calls to their per-binding fallbacks.
  void NoteDegraded(std::string reason) {
    if (degraded_reason_.empty()) degraded_reason_ = std::move(reason);
  }
  const std::string& degraded_reason() const { return degraded_reason_; }

 private:
  friend class QueryEngine;

  struct Entry {
    const Expr* call;
    const MethodFn* method;
    std::unique_ptr<BoundCall> bound;
    /// Receiver class -> whether the binding applies to it.
    std::vector<std::pair<std::string, bool>> classes;
  };

  Entry* Find(const Expr* call) {
    for (Entry& e : entries_) {
      if (e.call == call) return &e;
    }
    return nullptr;
  }

  std::vector<Entry> entries_;
  std::string degraded_reason_;
};

/// Hook invoked before evaluation with the parsed query and the Run's
/// bound-call table; the coupling layer uses it for semantic query
/// optimization [AbF95]: it spots `getIRSValue(coll, 'q')` calls, warms
/// the collection's IRS result buffer with a single batched IRS call,
/// and binds the calls to the buffered result.
using PrepareHook =
    std::function<Status(Database&, const ParsedQuery&, BoundCalls&)>;

/// Evaluates VQL queries against a Database: parsing, optimization
/// (filter pushdown, index selection, binding reorder) and nested-loop
/// join evaluation with short-circuit predicates.
class QueryEngine {
 public:
  struct Options {
    bool use_indexes = true;
    bool reorder_bindings = true;
    bool pushdown_filters = true;
  };

  explicit QueryEngine(Database* db) : db_(db) {}

  Options& options() { return options_; }

  /// Registers a prepare hook (run in registration order).
  void AddPrepareHook(PrepareHook hook) {
    prepare_hooks_.push_back(std::move(hook));
  }

  /// Restricts the candidate set of range variable `var` for the *next*
  /// Run only (cleared afterwards). This is how the IRS-first mixed-
  /// query strategy (paper Section 4.5.3, alternative 2) feeds the
  /// IRS-selected objects into the database evaluation: the IRS
  /// restricts the search space, the DBMS verifies the structure
  /// conditions on those objects only.
  void SetCandidateOverride(const std::string& var, std::vector<Oid> oids) {
    candidate_overrides_[var] = std::move(oids);
  }

  /// Parses and runs `vql`.
  StatusOr<QueryResult> Run(const std::string& vql);

  /// Runs an already-parsed query.
  StatusOr<QueryResult> Run(const ParsedQuery& query);

  /// Renders the evaluation plan for `vql` without running it: binding
  /// order, candidate sources (extent scan / index lookup / injected
  /// candidates), pushed-down filters and join conjuncts.
  StatusOr<std::string> Explain(const std::string& vql);

  /// Stats of the most recent Run.
  const QueryStats& last_stats() const { return stats_; }

  Database* db() { return db_; }

 private:
  struct BindingPlan;

  /// Per-Run evaluation state (not a member: the engine is externally
  /// synchronized but keeps no per-call mutable state beyond stats).
  struct Frame {
    /// One bound join variable.
    struct Var {
      /// Points into the Run's plan.
      const std::string* name;
      Value value;
      /// The object `value` names, fetched once per binding. Objects
      /// never move and no VQL method deletes one, so the pointer holds
      /// for as long as the variable is bound.
      const DbObject* object;
    };
    /// Join variables bound so far, outermost first: a query binds a
    /// handful, so a linear scan beats a tree.
    std::vector<Var> env;

    /// The innermost binding of `name`, or null.
    const Var* Find(const std::string& name) const {
      for (auto it = env.rbegin(); it != env.rend(); ++it) {
        if (*it->name == name) return &*it;
      }
      return nullptr;
    }
    BoundCalls calls;
    /// Set when the current QueryContext demands a stop that degrades
    /// to a partial result instead of an error.
    bool partial_stop = false;
  };

  StatusOr<std::vector<BindingPlan>> BuildPlan(const ParsedQuery& query);
  StatusOr<Value> Eval(const Expr& expr, Frame& frame);
  /// True if the bound call `entry` applies to receiver `self`.
  bool BindingApplies(BoundCalls::Entry& entry, const DbObject& self);
  Status RunJoin(const ParsedQuery& query,
                 const std::vector<BindingPlan>& plan, size_t depth,
                 Frame& frame, QueryResult& result);
  Status EmitRow(const ParsedQuery& query, Frame& frame, QueryResult& result);

  Database* db_;
  Options options_;
  std::vector<PrepareHook> prepare_hooks_;
  std::map<std::string, std::vector<Oid>> candidate_overrides_;
  QueryStats stats_;
};

// --- Expression analysis helpers (shared with the coupling layer) -----

/// Splits a WHERE tree into top-level AND conjuncts.
std::vector<const Expr*> SplitConjuncts(const Expr* where);

/// Collects the names of all range variables referenced by `expr`.
void CollectVars(const Expr& expr, std::vector<std::string>& out);

/// True if every variable used by `expr` is in `bound`.
bool AllVarsBound(const Expr& expr, const std::vector<std::string>& bound);

}  // namespace sdms::oodb::vql

#endif  // SDMS_OODB_QUERY_EXECUTOR_H_
