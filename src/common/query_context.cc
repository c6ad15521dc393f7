#include "common/query_context.h"

#include <limits>

#include "common/obs/metrics.h"

namespace sdms {

namespace {

thread_local QueryContext* tls_query_context = nullptr;

struct StopMetrics {
  obs::Counter& cancelled = obs::GetCounter("query.cancelled");
  obs::Counter& deadline_expired = obs::GetCounter("query.deadline_expired");
  obs::Counter& budget_exhausted = obs::GetCounter("query.budget_exhausted");
};

StopMetrics& Metrics() {
  static StopMetrics m;
  return m;
}

}  // namespace

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kOk: return "ok";
    case ShardState::kFailed: return "failed";
    case ShardState::kSkipped: return "skipped";
  }
  return "unknown";
}

int64_t QueryContext::RemainingMicros() const {
  int64_t dl = deadline_micros();
  if (dl == 0) return std::numeric_limits<int64_t>::max();
  return dl - NowMicros();
}

bool QueryContext::ChargeRows(uint64_t n) {
  uint64_t total = rows_.fetch_add(n, std::memory_order_relaxed) + n;
  uint64_t max = max_rows_.load(std::memory_order_relaxed);
  if (max != 0 && total > max) {
    LatchStop(StopReason::kBudget);
    return false;
  }
  return true;
}

bool QueryContext::ShouldStop() {
  if (stop_reason() != StopReason::kNone) return true;
  if (cancel_token().cancelled()) {
    LatchStop(StopReason::kCancelled);
    return true;
  }
  int64_t dl = deadline_micros();
  if (dl != 0) {
    uint32_t n = poll_calls_.fetch_add(1, std::memory_order_relaxed);
    if (n % kDeadlineCheckStride == 0 && NowMicros() >= dl) {
      LatchStop(StopReason::kDeadline);
      return true;
    }
  }
  return false;
}

Status QueryContext::CheckStatus() {
  if (stop_reason() == StopReason::kNone) {
    if (cancel_token().cancelled()) {
      LatchStop(StopReason::kCancelled);
    } else {
      int64_t dl = deadline_micros();
      if (dl != 0 && NowMicros() >= dl) LatchStop(StopReason::kDeadline);
    }
  }
  return StopStatus();
}

Status QueryContext::StopStatus() const {
  switch (stop_reason()) {
    case StopReason::kNone:
      return Status::OK();
    case StopReason::kCancelled:
      return Status::Cancelled("query cancelled");
    case StopReason::kDeadline:
      return Status::DeadlineExceeded("query deadline exceeded");
    case StopReason::kBudget:
      return Status::ResourceExhausted("query budget exhausted");
  }
  return Status::Internal("unknown stop reason");
}

void QueryContext::LatchStop(StopReason reason) {
  int expected = static_cast<int>(StopReason::kNone);
  if (!stop_reason_.compare_exchange_strong(expected,
                                            static_cast<int>(reason),
                                            std::memory_order_relaxed)) {
    return;  // already latched by another observer
  }
  switch (reason) {
    case StopReason::kCancelled:
      Metrics().cancelled.Increment();
      break;
    case StopReason::kDeadline:
      Metrics().deadline_expired.Increment();
      break;
    case StopReason::kBudget:
      Metrics().budget_exhausted.Increment();
      break;
    case StopReason::kNone:
      break;
  }
}

QueryContext* QueryContext::Current() { return tls_query_context; }

QueryContext::Scope::Scope(QueryContext* ctx) : prev_(tls_query_context) {
  tls_query_context = ctx;
  obs::ProfileBinding binding;
  if (ctx != nullptr) {
    binding.query_id = ctx->query_id();
    if (ctx->profile() != nullptr) {
      binding.profile = ctx->profile().get();
      binding.stage = binding.profile->root();
    }
  }
  prev_binding_ = obs::ExchangeProfileBinding(binding);
}

QueryContext::Scope::~Scope() {
  obs::ExchangeProfileBinding(prev_binding_);
  tls_query_context = prev_;
}

}  // namespace sdms
