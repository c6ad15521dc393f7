#ifndef SDMS_COUPLING_MIXED_QUERY_H_
#define SDMS_COUPLING_MIXED_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/obs/profile.h"
#include "common/query_context.h"
#include "common/status.h"
#include "coupling/coupling.h"

namespace sdms::coupling {

/// Evaluates mixed (structure + content) queries with the two
/// strategies of Section 4.5.3:
///
///  (1) kIndependent — the query portions are processed independently
///      by the corresponding system and the results are combined: the
///      DBMS enumerates its extents, and every content conjunct
///      (`getIRSValue`) is answered from the buffered IRS result (the
///      prepare hook warms the buffer with one IRS call per distinct
///      query). "Restrictions on the search space by the IRS cannot be
///      used by the OODBMS."
///
///  (2) kIrsFirst — "the IRS selects all IRS documents fulfilling the
///      conditions on the content. The structure conditions are only
///      verified for the text objects identified in this first step":
///      content conjuncts of the form
///          var -> getIRSValue(coll, 'q') > threshold
///      are evaluated via getIRSResult first; the qualifying OIDs
///      become the candidate set of `var` in the database evaluation.
///      Two soundness rules apply, each leaving its conjunct to
///      independent evaluation: a restriction whose threshold is at or
///      below the query's null score is skipped (objects without
///      evidence would qualify too), and so is one on a `var` whose
///      class the collection does not represent (its values are
///      derived, which only the independent strategy evaluates).
class MixedQueryEvaluator {
 public:
  enum class Strategy { kIndependent, kIrsFirst };

  /// Diagnostics of the most recent Run.
  struct RunInfo {
    Strategy strategy = Strategy::kIndependent;
    /// Content conjuncts converted to candidate restrictions.
    size_t irs_restrictions = 0;
    /// Total candidates injected by the IRS-first step.
    size_t irs_candidates = 0;
    /// True when the answer is degraded: the IRS side missed the
    /// query's deadline (or was unavailable) and the statement fell
    /// back to partial/derived evidence instead of failing (mirrors
    /// QueryResult::degraded).
    bool degraded = false;
    /// Process-unique id of the run's QueryContext — correlates this
    /// run with its [qN]-stamped log lines and trace spans.
    uint64_t query_id = 0;
    /// Time spent queued in the AdmissionController.
    int64_t queue_wait_micros = 0;
    /// Wall time of the whole run (admission included).
    int64_t total_micros = 0;
    /// The run's stage/counter profile; null when profiling was off and
    /// the slow-query log unarmed. Shared so EXPLAIN ANALYZE can render
    /// it after the context is gone.
    std::shared_ptr<obs::QueryProfile> profile;
    /// Per-shard outcomes of every fan-out IRS search the run issued
    /// (one entry per shard per search). Names the failure domain when
    /// `degraded`: which collection's shard failed or was skipped by
    /// its breaker. Empty when every
    /// IRS answer came from the buffer or a single healthy shard path.
    std::vector<ShardStatusEntry> shard_status;
  };

  explicit MixedQueryEvaluator(Coupling* coupling) : coupling_(coupling) {}

  /// Parses and runs `vql` under `strategy`. Both strategies return
  /// identical rows; they differ in evaluation cost.
  ///
  /// Overload behavior: the run is admitted through the coupling's
  /// AdmissionController (kResourceExhausted when shed) and executes
  /// under the caller's QueryContext (or a fresh one) with
  /// allow_partial set — an IRS-side deadline expiry degrades the
  /// statement to a partial result flagged QueryResult::degraded
  /// rather than failing it. Explicit cancellation still errors.
  ///
  /// `preadmitted`: a held Ticket from the *same* controller when the
  /// caller already performed admission (the network service admits on
  /// the dispatch path so it can answer a typed shed response before
  /// any parsing). The ticket is adopted — moved into the run and
  /// released when it finishes — and the internal Admit is skipped;
  /// admitting twice would consume two concurrency slots per query.
  StatusOr<oodb::vql::QueryResult> Run(
      const std::string& vql, Strategy strategy,
      AdmissionController::Ticket* preadmitted = nullptr);

  const RunInfo& last_run() const { return info_; }

 private:
  Status ApplyIrsFirst(const oodb::vql::ParsedQuery& query);

  Coupling* coupling_;
  RunInfo info_;
};

}  // namespace sdms::coupling

#endif  // SDMS_COUPLING_MIXED_QUERY_H_
