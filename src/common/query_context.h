#ifndef SDMS_COMMON_QUERY_CONTEXT_H_
#define SDMS_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/obs/profile.h"
#include "common/status.h"

namespace sdms {

/// Outcome of one shard of a fan-out IRS search. The values are wire
/// numbers. 1 is retired and must not be reused: an older server may
/// still send it, and the decoder reads it as kFailed.
enum class ShardState : uint8_t {
  kOk = 0,       // answered within the shard's guarded call
  kFailed = 2,   // no answer (fault, deadline, corrupt result)
  kSkipped = 3,  // not attempted — circuit breaker open
};

const char* ShardStateName(ShardState state);

/// Per-shard diagnostics of a fan-out search, carried from the coupling
/// through RunInfo and the wire protocol to the client: when a query
/// degrades, the caller learns *which* shard failed and why.
struct ShardStatusEntry {
  std::string collection;
  uint32_t shard = 0;
  ShardState state = ShardState::kOk;
  /// Failure detail (status string); empty when the shard was healthy.
  std::string detail;
  /// Wall time of the shard's search, including guard retries.
  int64_t micros = 0;
};

/// A cooperative cancellation flag. Cancel() may be called from any
/// thread (it is a single atomic store, so it is also safe from a
/// signal handler); workers poll cancelled() at loop boundaries.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query execution context: deadline, cancellation, and row/byte
/// budgets, threaded cooperatively through the whole read path (VQL
/// executor -> coupling -> IRS kernels). A context is installed for
/// the current thread with QueryContext::Scope; deep code reaches it
/// through QueryContext::Current() so no signature has to change.
///
/// All state is atomic: ThreadPool::ParallelFor propagates the
/// installing thread's context into its workers, which then observe
/// deadline/cancellation concurrently.
///
/// The stop decision is *sticky*: once a deadline expiry, cancellation
/// or budget exhaustion has been observed, every later ShouldStop() /
/// CheckStatus() reports it, and the corresponding obs counter
/// (query.deadline_expired / query.cancelled / query.budget_exhausted)
/// is bumped exactly once per context.
class QueryContext {
 public:
  enum class StopReason : int { kNone = 0, kCancelled, kDeadline, kBudget };

  QueryContext() : query_id_(obs::NextQueryId()) {}
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // --- Identity / profiling -----------------------------------------------

  /// Process-unique id (never 0); stamped into log lines and trace
  /// spans emitted while this context is installed.
  uint64_t query_id() const { return query_id_; }

  /// Attaches a profile; while this context is installed, charges from
  /// ProfileCount / ProfileStageScope land in it (null detaches).
  void set_profile(std::shared_ptr<obs::QueryProfile> profile) {
    profile_ = std::move(profile);
  }
  const std::shared_ptr<obs::QueryProfile>& profile() const {
    return profile_;
  }

  /// Microseconds on the steady clock (the time base of deadlines).
  static int64_t NowMicros() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // --- Deadline -----------------------------------------------------------

  /// Absolute deadline in steady-clock micros; 0 clears it.
  void set_deadline_micros(int64_t deadline) {
    deadline_micros_.store(deadline, std::memory_order_relaxed);
  }
  /// Deadline `ms` milliseconds from now; ms <= 0 clears it.
  void SetDeadlineAfterMs(int64_t ms) {
    set_deadline_micros(ms > 0 ? NowMicros() + ms * 1000 : 0);
  }
  int64_t deadline_micros() const {
    return deadline_micros_.load(std::memory_order_relaxed);
  }
  bool has_deadline() const { return deadline_micros() != 0; }

  /// Micros until the deadline (negative when past it). A context
  /// without a deadline reports a very large value.
  int64_t RemainingMicros() const;

  // --- Cancellation -------------------------------------------------------

  /// Attaches an external token (e.g. the shell's SIGINT token). The
  /// token must outlive the context. Null restores the internal one.
  void set_cancel_token(CancelToken* token) {
    external_cancel_.store(token, std::memory_order_release);
  }
  CancelToken& cancel_token() {
    CancelToken* t = external_cancel_.load(std::memory_order_acquire);
    return t != nullptr ? *t : internal_cancel_;
  }
  void RequestCancel() { cancel_token().Cancel(); }

  // --- Budgets ------------------------------------------------------------

  /// 0 = unbounded.
  void set_max_rows(uint64_t n) {
    max_rows_.store(n, std::memory_order_relaxed);
  }

  /// Charges `n` rows against the budget; returns false (and latches
  /// StopReason::kBudget) once the budget is exceeded.
  bool ChargeRows(uint64_t n);

  uint64_t rows_charged() const {
    return rows_.load(std::memory_order_relaxed);
  }

  // --- Degradation --------------------------------------------------------

  /// When set, the VQL executor converts a deadline/budget stop into a
  /// partial result flagged QueryResult::degraded instead of an error
  /// (mixed queries opt in; explicit cancellation always errors).
  void set_allow_partial(bool v) {
    allow_partial_.store(v, std::memory_order_relaxed);
  }
  bool allow_partial() const {
    return allow_partial_.load(std::memory_order_relaxed);
  }

  /// Marks the query's answer as degraded (partial rows, stale buffer
  /// serve, null-score fallback, ...).
  void NoteDegraded() { degraded_.store(true, std::memory_order_relaxed); }
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  // --- Shard status -------------------------------------------------------

  /// Records the per-shard outcomes of one fan-out IRS search (appended
  /// — a query may touch several collections). Thread-safe.
  void AddShardStatus(std::vector<ShardStatusEntry> entries) {
    if (entries.empty()) return;
    std::lock_guard<std::mutex> lock(shard_status_mu_);
    for (auto& e : entries) shard_status_.push_back(std::move(e));
  }

  /// Moves the accumulated shard statuses out (RunInfo assembly).
  std::vector<ShardStatusEntry> TakeShardStatus() {
    std::lock_guard<std::mutex> lock(shard_status_mu_);
    return std::move(shard_status_);
  }

  // --- Polling ------------------------------------------------------------

  /// Cheap cooperative check for hot loops: the cancel flag is read on
  /// every call, the clock only every kDeadlineCheckStride calls (and
  /// on the first). Returns true once the query must stop.
  bool ShouldStop();

  /// Authoritative check for call boundaries: always reads the clock.
  /// Returns OK, or the Status matching the (now latched) stop reason:
  /// kCancelled / kDeadlineExceeded / kResourceExhausted.
  Status CheckStatus();

  /// The latched stop reason (kNone while the query may continue).
  StopReason stop_reason() const {
    return static_cast<StopReason>(stop_reason_.load(std::memory_order_relaxed));
  }

  /// The Status equivalent of stop_reason() (OK for kNone).
  Status StopStatus() const;

  // --- Thread-local installation ------------------------------------------

  /// The context installed for this thread, or nullptr.
  static QueryContext* Current();

  /// RAII installation of a context for the current thread. Nests; the
  /// previous context is restored on destruction.
  class Scope {
   public:
    explicit Scope(QueryContext* ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    QueryContext* prev_;
    obs::ProfileBinding prev_binding_;
  };

  /// Clock reads happen once per this many ShouldStop() calls.
  static constexpr uint32_t kDeadlineCheckStride = 64;

 private:
  /// Latches `reason` (first writer wins) and bumps its obs counter.
  void LatchStop(StopReason reason);

  const uint64_t query_id_;
  std::shared_ptr<obs::QueryProfile> profile_;
  std::atomic<int64_t> deadline_micros_{0};
  std::atomic<CancelToken*> external_cancel_{nullptr};
  CancelToken internal_cancel_;
  std::atomic<uint64_t> max_rows_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<bool> allow_partial_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<int> stop_reason_{static_cast<int>(StopReason::kNone)};
  std::atomic<uint32_t> poll_calls_{0};
  std::mutex shard_status_mu_;
  std::vector<ShardStatusEntry> shard_status_;
};

/// Free-function form of QueryContext::Current()->ShouldStop() for deep
/// kernels: false when no context is installed.
inline bool QueryShouldStop() {
  QueryContext* ctx = QueryContext::Current();
  return ctx != nullptr && ctx->ShouldStop();
}

/// OK when no context is installed or the query may continue, else the
/// stop Status (kCancelled / kDeadlineExceeded / kResourceExhausted).
inline Status CurrentQueryStatus() {
  QueryContext* ctx = QueryContext::Current();
  return ctx != nullptr ? ctx->CheckStatus() : Status::OK();
}

}  // namespace sdms

#endif  // SDMS_COMMON_QUERY_CONTEXT_H_
