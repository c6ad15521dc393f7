// Overload-protection tests: end-to-end deadlines, cooperative
// cancellation, budgets, admission control, and the degradation
// semantics of mixed queries under pressure. The thread-safety rules of
// the rest of the system still hold — Database/QueryEngine are not
// internally synchronized — so the multi-threaded stress below shares
// only the AdmissionController and gives each thread its own coupled
// system.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/obs/metrics.h"
#include "common/query_context.h"
#include "common/thread_pool.h"
#include "coupling/admission.h"
#include "coupling/call_guard.h"
#include "coupling/mixed_query.h"
#include "coupling/result_buffer.h"
#include "coupling_test_util.h"
#include "irs/index/postings_kernels.h"
#include "irs/model/retrieval_model.h"
#include "irs/query/query_node.h"

namespace sdms::coupling {
namespace {

using testutil::MakeFigure4System;
using Strategy = MixedQueryEvaluator::Strategy;

int64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// QueryContext
// ---------------------------------------------------------------------------

TEST(QueryContextTest, NoContextMeansNoStop) {
  EXPECT_EQ(QueryContext::Current(), nullptr);
  EXPECT_FALSE(QueryShouldStop());
  EXPECT_TRUE(CurrentQueryStatus().ok());
}

TEST(QueryContextTest, ScopeInstallsAndRestores) {
  QueryContext outer;
  {
    QueryContext::Scope a(&outer);
    EXPECT_EQ(QueryContext::Current(), &outer);
    QueryContext inner;
    {
      QueryContext::Scope b(&inner);
      EXPECT_EQ(QueryContext::Current(), &inner);
    }
    EXPECT_EQ(QueryContext::Current(), &outer);
  }
  EXPECT_EQ(QueryContext::Current(), nullptr);
}

TEST(QueryContextTest, ExpiredDeadlineLatchesAndCountsOnce) {
  obs::Counter& expired = obs::GetCounter("query.deadline_expired");
  uint64_t before = expired.value();
  QueryContext ctx;
  ctx.set_deadline_micros(QueryContext::NowMicros() - 1);
  Status s = ctx.CheckStatus();
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_EQ(ctx.stop_reason(), QueryContext::StopReason::kDeadline);
  // Sticky: further checks keep reporting it but bump the metric once.
  EXPECT_TRUE(ctx.CheckStatus().IsDeadlineExceeded());
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(expired.value(), before + 1);
}

TEST(QueryContextTest, CancellationIsStickyAndWinsImmediately) {
  obs::Counter& cancelled = obs::GetCounter("query.cancelled");
  uint64_t before = cancelled.value();
  QueryContext ctx;
  // ShouldStop reads the cancel flag on *every* call (no stride).
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.RequestCancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(cancelled.value(), before + 1);
  EXPECT_TRUE(ctx.CheckStatus().IsCancelled());
  // Resetting the token does not unlatch the stop decision.
  ctx.cancel_token().Reset();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), QueryContext::StopReason::kCancelled);
}

TEST(QueryContextTest, ExternalTokenCancelsFromAnotherThread) {
  CancelToken token;
  QueryContext ctx;
  ctx.set_cancel_token(&token);
  std::thread canceller([&token] { token.Cancel(); });
  canceller.join();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.CheckStatus().IsCancelled());
}

TEST(QueryContextTest, RowBudgetExhaustsToResourceExhausted) {
  QueryContext ctx;
  ctx.set_max_rows(2);
  EXPECT_TRUE(ctx.ChargeRows(1));
  EXPECT_TRUE(ctx.ChargeRows(1));
  EXPECT_FALSE(ctx.ChargeRows(1));
  EXPECT_TRUE(ctx.CheckStatus().IsResourceExhausted());
  EXPECT_EQ(ctx.stop_reason(), QueryContext::StopReason::kBudget);
}

TEST(QueryContextTest, ParallelForPropagatesContextIntoWorkers) {
  QueryContext ctx;
  QueryContext::Scope scope(&ctx);
  ThreadPool pool(4);
  std::atomic<int> seen{0};
  std::atomic<int> missing{0};
  pool.ParallelFor(1000, [&](size_t begin, size_t end) {
    if (QueryContext::Current() == &ctx) {
      seen.fetch_add(1);
    } else {
      missing.fetch_add(1);
    }
    (void)begin;
    (void)end;
  });
  EXPECT_GT(seen.load(), 0);
  EXPECT_EQ(missing.load(), 0);
}

// ---------------------------------------------------------------------------
// Kernel-level cancellation
// ---------------------------------------------------------------------------

/// An index of `n` documents "alpha beta": both lists hold every document, so
/// their intersection and the inquery candidate set are all n docs.
irs::InvertedIndex MakeTwoTermIndex(size_t n) {
  irs::InvertedIndex index;
  for (size_t i = 0; i < n; ++i) {
    index.AddDocument("oid:" + std::to_string(i), {"alpha", "beta"});
  }
  return index;
}

std::vector<irs::PostingsCursor> OpenCursors(const irs::InvertedIndex& index) {
  std::vector<irs::PostingsCursor> cursors;
  cursors.push_back(index.OpenCursor("alpha"));
  cursors.push_back(index.OpenCursor("beta"));
  return cursors;
}

TEST(KernelCancellationTest, IntersectExitsEarlyWithPartialOutput) {
  obs::Counter& early = obs::GetCounter("irs.kernel.early_exits");
  // 10k-entry identical lists: the full intersection would return all
  // 10k docs; a pre-cancelled context must truncate at the first
  // stride poll.
  irs::InvertedIndex index = MakeTwoTermIndex(10000);
  QueryContext ctx;
  ctx.RequestCancel();
  QueryContext::Scope scope(&ctx);
  uint64_t before = early.value();
  auto out = irs::IntersectCursors(OpenCursors(index));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_LT(out->size(), 10000u);
  EXPECT_GT(early.value(), before);
}

TEST(KernelCancellationTest, InqueryScoreStopsWithTheStopStatus) {
  // The inquery doc-at-a-time walk polls per candidate: a cancelled
  // context ends the scoring with kCancelled instead of a partial map.
  irs::InvertedIndex index = MakeTwoTermIndex(5000);
  irs::Analyzer analyzer;
  auto tree = irs::ParseIrsQuery("alpha beta", analyzer);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ((*tree)->children.size(), 2u);
  std::unique_ptr<irs::RetrievalModel> model = irs::MakeInferenceNetModel();
  ASSERT_TRUE(model->Score(index, **tree).ok());
  QueryContext ctx;
  ctx.RequestCancel();
  QueryContext::Scope scope(&ctx);
  auto scores = model->Score(index, **tree);
  EXPECT_EQ(scores.status().code(), StatusCode::kCancelled);
}

TEST(KernelCancellationTest, UncancelledKernelsAreExact) {
  // The strided poll must not change results when nothing stops.
  irs::InvertedIndex index = MakeTwoTermIndex(5000);
  auto out = irs::IntersectCursors(OpenCursors(index));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 5000u);
}

// ---------------------------------------------------------------------------
// End-to-end deadline / cancellation through the coupled query path
// ---------------------------------------------------------------------------

const char kMixedQuery[] =
    "ACCESS p FROM p IN PARA "
    "WHERE p -> getIRSValue('paras', 'www') > 0.5";

TEST(OverloadE2eTest, ExpiredDeadlineFailsFastWithoutPartialOptIn) {
  auto sys = MakeFigure4System();
  obs::Counter& expired = obs::GetCounter("query.deadline_expired");
  uint64_t before = expired.value();
  QueryContext ctx;
  ctx.set_deadline_micros(QueryContext::NowMicros() - 1);
  QueryContext::Scope scope(&ctx);
  auto start = std::chrono::steady_clock::now();
  auto result = sys->coupling->query_engine().Run(kMixedQuery);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // Failing fast means *no* IRS work and no retry/backoff: generous CI
  // margin over an operation that takes microseconds.
  EXPECT_LT(ElapsedMs(start), 200);
  EXPECT_GT(expired.value(), before);
}

TEST(OverloadE2eTest, CancellationPropagatesThroughCollection) {
  auto sys = MakeFigure4System();
  auto coll = sys->coupling->GetCollectionByName("paras");
  ASSERT_TRUE(coll.ok());
  QueryContext ctx;
  ctx.RequestCancel();
  QueryContext::Scope scope(&ctx);
  auto result = (*coll)->GetIrsResult("www");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST(OverloadE2eTest, MixedQueryDegradesToPartialOnDeadline) {
  auto sys = MakeFigure4System();
  obs::Counter& partials = obs::GetCounter("oodb.query.partial_results");
  uint64_t before = partials.value();
  MixedQueryEvaluator eval(sys->coupling.get());
  QueryContext ctx;
  ctx.set_deadline_micros(QueryContext::NowMicros() - 1);
  QueryContext::Scope scope(&ctx);
  auto start = std::chrono::steady_clock::now();
  auto result = eval.Run(kMixedQuery, Strategy::kIndependent);
  // Graceful degradation: the VQL statement succeeds with an explicit
  // degraded flag instead of failing.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  EXPECT_FALSE(result->degraded_reason.empty());
  EXPECT_TRUE(eval.last_run().degraded);
  EXPECT_LT(ElapsedMs(start), 200);
  EXPECT_GT(partials.value(), before);
}

TEST(OverloadE2eTest, MixedQueryWithRoomCompletesUndegraded) {
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  QueryContext ctx;
  ctx.SetDeadlineAfterMs(60'000);
  QueryContext::Scope scope(&ctx);
  auto result = eval.Run(kMixedQuery, Strategy::kIrsFirst);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->degraded);
  EXPECT_EQ(result->rows.size(), 5u);
}

TEST(OverloadE2eTest, CancelledMixedQueryErrorsInsteadOfDegrading) {
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  QueryContext ctx;
  ctx.RequestCancel();
  QueryContext::Scope scope(&ctx);
  auto result = eval.Run(kMixedQuery, Strategy::kIndependent);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST(OverloadE2eTest, MidQueryCancelFromAnotherThread) {
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  CancelToken token;
  QueryContext ctx;
  ctx.set_cancel_token(&token);
  QueryContext::Scope scope(&ctx);
  // Cancel shortly after the query starts; with no deadline the query
  // either finishes first (small corpus) or stops with kCancelled —
  // both are correct, the invariant is that it returns promptly and
  // never reports a degraded partial for a cancellation.
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    token.Cancel();
  });
  auto result = eval.Run(kMixedQuery, Strategy::kIndependent);
  canceller.join();
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  } else {
    EXPECT_FALSE(result->degraded);
  }
}

// ---------------------------------------------------------------------------
// CallGuard deadline integration (satellite)
// ---------------------------------------------------------------------------

TEST(CallGuardDeadlineTest, FailsFastOnAlreadyExpiredCallerDeadline) {
  CallGuard guard(CallGuardOptions{}, "irs");
  QueryContext ctx;
  ctx.set_deadline_micros(QueryContext::NowMicros() - 1);
  QueryContext::Scope scope(&ctx);
  int calls = 0;
  auto start = std::chrono::steady_clock::now();
  Status s = guard.Run("op", [&] {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  // No attempt, no retry cycle, no breaker penalty.
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(guard.stats().attempts, 0u);
  EXPECT_EQ(guard.stats().deadline_exceeded, 1u);
  EXPECT_EQ(guard.breaker().consecutive_failures(), 0);
  EXPECT_LT(ElapsedMs(start), 200);
}

TEST(CallGuardDeadlineTest, StopsRetryingOnceCallerDeadlineExpires) {
  CallGuardOptions opts;
  opts.retry.max_attempts = 1000;
  opts.retry.initial_backoff_micros = 2000;
  opts.retry.max_backoff_micros = 20000;
  opts.breaker.failure_threshold = 1000000;
  CallGuard guard(opts, "irs");
  QueryContext ctx;
  ctx.SetDeadlineAfterMs(30);
  QueryContext::Scope scope(&ctx);
  auto start = std::chrono::steady_clock::now();
  Status s = guard.Run("op", [] { return Status::IoError("down"); });
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  // Without the context check this would burn ~1000 backoffs; with it
  // the call returns around the 30ms deadline.
  EXPECT_LT(ElapsedMs(start), 2000);
  EXPECT_LT(guard.stats().attempts, 1000u);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionTest, UnlimitedControllerAdmitsImmediately) {
  AdmissionController ctl;
  auto t = ctl.Admit(nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->held());
  EXPECT_EQ(ctl.running(), 0u);  // Unlimited mode does no accounting.
}

TEST(AdmissionTest, TicketReleasesSlot) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  AdmissionController ctl(opts);
  {
    auto t = ctl.Admit(nullptr);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(ctl.running(), 1u);
  }
  EXPECT_EQ(ctl.running(), 0u);
  auto again = ctl.Admit(nullptr);
  EXPECT_TRUE(again.ok());
}

TEST(AdmissionTest, FullQueueShedsInsteadOfWaiting) {
  obs::Counter& shed = obs::GetCounter("coupling.admission.shed");
  uint64_t before = shed.value();
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 0;
  AdmissionController ctl(opts);
  auto held = ctl.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  auto start = std::chrono::steady_clock::now();
  auto second = ctl.Admit(nullptr);
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted())
      << second.status().ToString();
  EXPECT_LT(ElapsedMs(start), 200);  // Shedding is immediate.
  EXPECT_GT(shed.value(), before);
}

TEST(AdmissionTest, QueuedDeadlineExpiryShedsPromptly) {
  obs::Counter& expired_q =
      obs::GetCounter("coupling.admission.expired_in_queue");
  uint64_t before = expired_q.value();
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 4;
  AdmissionController ctl(opts);
  auto held = ctl.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  QueryContext ctx;
  ctx.SetDeadlineAfterMs(20);
  auto start = std::chrono::steady_clock::now();
  auto queued = ctl.Admit(&ctx);
  EXPECT_FALSE(queued.ok());
  EXPECT_TRUE(queued.status().IsResourceExhausted())
      << queued.status().ToString();
  // Bounded: roughly the deadline plus one wait slice, not the 5s
  // default queue-wait bound.
  EXPECT_LT(ElapsedMs(start), 2000);
  EXPECT_GT(expired_q.value(), before);
  EXPECT_EQ(ctl.queued(), 0u);
}

TEST(AdmissionTest, ShedCauseSplitsIntoPerCauseCounters) {
  obs::Counter& queue_full =
      obs::GetCounter("coupling.admission.shed_queue_full");
  obs::Counter& deadline_expired =
      obs::GetCounter("coupling.admission.shed_deadline_expired");
  obs::Counter& total = obs::GetCounter("coupling.admission.shed");
  uint64_t qf_before = queue_full.value();
  uint64_t de_before = deadline_expired.value();
  uint64_t total_before = total.value();

  // Cause 1: queue full.
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 0;
  AdmissionController ctl(opts);
  auto held = ctl.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  ShedCause cause = ShedCause::kNone;
  auto second = ctl.Admit(nullptr, &cause);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(cause, ShedCause::kQueueFull);
  EXPECT_EQ(queue_full.value(), qf_before + 1);
  EXPECT_EQ(deadline_expired.value(), de_before);

  // Cause 2: deadline already expired at admission (queue has room).
  AdmissionOptions q_opts;
  q_opts.max_concurrent = 1;
  q_opts.max_queue = 4;
  AdmissionController q_ctl(q_opts);
  auto q_held = q_ctl.Admit(nullptr);
  ASSERT_TRUE(q_held.ok());
  QueryContext expired_ctx;
  expired_ctx.set_deadline_micros(QueryContext::NowMicros() - 1'000);
  cause = ShedCause::kNone;
  auto expired = q_ctl.Admit(&expired_ctx, &cause);
  EXPECT_FALSE(expired.ok());
  EXPECT_EQ(cause, ShedCause::kDeadlineExpired);
  EXPECT_EQ(deadline_expired.value(), de_before + 1);

  // The per-cause counters partition the total.
  EXPECT_EQ(total.value(), total_before + 2);
}

TEST(AdmissionTest, ShedCauseQueueWaitBoundElapsed) {
  obs::Counter& queue_wait =
      obs::GetCounter("coupling.admission.shed_queue_wait");
  uint64_t before = queue_wait.value();
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 4;
  opts.max_queue_wait_micros = 30'000;  // 30 ms, no ctx deadline
  AdmissionController ctl(opts);
  auto held = ctl.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  ShedCause cause = ShedCause::kNone;
  auto start = std::chrono::steady_clock::now();
  auto waited = ctl.Admit(nullptr, &cause);
  EXPECT_FALSE(waited.ok());
  EXPECT_TRUE(waited.status().IsResourceExhausted())
      << waited.status().ToString();
  EXPECT_EQ(cause, ShedCause::kQueueWait);
  EXPECT_GE(ElapsedMs(start), 25);
  EXPECT_LT(ElapsedMs(start), 2000);
  EXPECT_EQ(queue_wait.value(), before + 1);
}

TEST(AdmissionTest, AdmittedCallReportsNoShedCause) {
  AdmissionOptions opts;
  opts.max_concurrent = 2;
  AdmissionController ctl(opts);
  ShedCause cause = ShedCause::kQueueFull;  // stale value must be reset
  auto t = ctl.Admit(nullptr, &cause);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(cause, ShedCause::kNone);
}

TEST(AdmissionTest, CancelledWaiterReturnsCancelledNotShed) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 4;
  AdmissionController ctl(opts);
  auto held = ctl.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  CancelToken token;
  QueryContext ctx;
  ctx.set_cancel_token(&token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.Cancel();
  });
  auto queued = ctl.Admit(&ctx);
  canceller.join();
  EXPECT_FALSE(queued.ok());
  EXPECT_TRUE(queued.status().IsCancelled()) << queued.status().ToString();
}

TEST(AdmissionTest, AppliesDefaultDeadlineToDeadlinelessQueries) {
  AdmissionOptions opts;
  opts.max_concurrent = 4;
  opts.default_deadline_micros = 250'000;
  AdmissionController ctl(opts);
  QueryContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  auto t = ctl.Admit(&ctx);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_GT(ctx.RemainingMicros(), 0);
  EXPECT_LE(ctx.RemainingMicros(), 250'000);
}

TEST(AdmissionTest, EnvKnobsParse) {
  ASSERT_EQ(setenv("SDMS_MAX_CONCURRENT_QUERIES", "3", 1), 0);
  ASSERT_EQ(setenv("SDMS_DEFAULT_DEADLINE_MS", "250", 1), 0);
  AdmissionOptions opts = AdmissionOptionsFromEnv();
  EXPECT_EQ(opts.max_concurrent, 3u);
  EXPECT_EQ(opts.default_deadline_micros, 250'000);
  unsetenv("SDMS_MAX_CONCURRENT_QUERIES");
  unsetenv("SDMS_DEFAULT_DEADLINE_MS");
}

TEST(AdmissionTest, StressHoldsConcurrencyBoundWithoutDeadlock) {
  // 8 threads contend for 2 slots; the controller is the only shared
  // state. The high-water mark proves the bound, completion proves
  // there is no lost-wakeup deadlock.
  AdmissionOptions opts;
  opts.max_concurrent = 2;
  opts.max_queue = 64;
  AdmissionController ctl(opts);
  std::atomic<int> inside{0};
  std::atomic<int> high_water{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto ticket = ctl.Admit(nullptr);
        ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
        int now = inside.fetch_add(1) + 1;
        int hw = high_water.load();
        while (now > hw && !high_water.compare_exchange_weak(hw, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        inside.fetch_sub(1);
        completed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load(), 160);
  EXPECT_LE(high_water.load(), 2);
  EXPECT_EQ(ctl.running(), 0u);
  EXPECT_EQ(ctl.queued(), 0u);
}

TEST(AdmissionTest, StressMixedQueriesThroughSharedController) {
  // Real mixed queries under a shared admission gate. Each thread owns
  // its coupled system (Database/QueryEngine are not internally
  // synchronized); only admission is shared, with a small limit so the
  // queue is constantly exercised.
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 5;
  AdmissionOptions opts;
  opts.max_concurrent = 2;
  opts.max_queue = 64;
  AdmissionController ctl(opts);
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto sys = MakeFigure4System();
      MixedQueryEvaluator eval(sys->coupling.get());
      for (int i = 0; i < kQueriesPerThread; ++i) {
        QueryContext ctx;
        ctx.SetDeadlineAfterMs(60'000);
        QueryContext::Scope scope(&ctx);
        auto ticket = ctl.Admit(&ctx);
        ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
        auto result = eval.Run(kMixedQuery, Strategy::kIndependent);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->rows.size(), 5u);
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads * kQueriesPerThread);
  EXPECT_EQ(ctl.running(), 0u);
}

// ---------------------------------------------------------------------------
// ResultBuffer byte budget (satellite)
// ---------------------------------------------------------------------------

TEST(ResultBufferBudgetTest, ByteBudgetEvictsLruEntries) {
  OidScoreMap result{{Oid(1), 0.5}, {Oid(2), 0.7}};
  // Room for two entries but not for three.
  const size_t entry = ResultBuffer::ApproxEntryBytes("query0", result);
  const size_t budget = 2 * entry + entry / 2;
  ResultBuffer buf(budget);
  buf.Put("query" + std::to_string(0), result);
  buf.Put("query" + std::to_string(1), result);
  EXPECT_EQ(buf.evictions(), 0u);
  buf.Put("query" + std::to_string(2), result);
  // Over budget: the LRU entry went, the MRU one stayed.
  EXPECT_GT(buf.evictions(), 0u);
  EXPECT_LE(buf.bytes(), budget);
  EXPECT_EQ(buf.Get("query0"), nullptr);
  EXPECT_NE(buf.Get("query2"), nullptr);
}

TEST(ResultBufferBudgetTest, MruEntryIsNeverEvicted) {
  // One oversized entry exceeds the whole budget but must survive
  // (soft cap): evicting what the current query needs is useless.
  std::vector<OidScoreMap::value_type> pairs;
  for (uint64_t i = 0; i < 64; ++i) pairs.emplace_back(Oid(i), 1.0);
  OidScoreMap big = OidScoreMap::FromSorted(std::move(pairs));
  const size_t budget = ResultBuffer::ApproxEntryBytes("big", big) / 2;
  ResultBuffer buf(budget);
  buf.Put("big", big);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_NE(buf.Get("big"), nullptr);
  EXPECT_GT(buf.bytes(), budget);
}

TEST(ResultBufferBudgetTest, InsertValueGrowthTriggersEviction) {
  OidScoreMap small{{Oid(1), 0.1}};
  // Both entries fit until "b" holds its tenth derived value.
  ResultBuffer buf(ResultBuffer::ApproxEntryBytes("a", small) +
                   ResultBuffer::ApproxEntryBytes("b", small, 10) - 1);
  buf.Put("a", small);
  buf.Put("b", small);
  uint64_t before = buf.evictions();
  // Growing "b" past the budget must evict "a", not "b" itself.
  for (uint64_t i = 10; i < 19; ++i) buf.InsertValue("b", Oid(i), 0.5);
  EXPECT_EQ(buf.evictions(), before);
  buf.InsertValue("b", Oid(19), 0.5);
  EXPECT_GT(buf.evictions(), before);
  EXPECT_EQ(buf.Get("a"), nullptr);
  EXPECT_NE(buf.Get("b"), nullptr);
}

TEST(ResultBufferBudgetTest, BytesAccountingRoundTrips) {
  ResultBuffer buf;  // Unbounded: pure accounting test.
  OidScoreMap result{{Oid(1), 0.5}};
  buf.Put("q", result);
  size_t expect = ResultBuffer::ApproxEntryBytes("q", result);
  EXPECT_EQ(buf.bytes(), expect);
  buf.InsertValue("q", Oid(2), 0.6);
  EXPECT_EQ(buf.bytes(), ResultBuffer::ApproxEntryBytes("q", result, 1));
  buf.InsertValue("q", Oid(2), 0.7);  // overwrites, no new node
  EXPECT_EQ(buf.bytes(), ResultBuffer::ApproxEntryBytes("q", result, 1));
  buf.Erase("q");
  EXPECT_EQ(buf.bytes(), 0u);
  buf.Put("q", result);
  buf.Clear();
  EXPECT_EQ(buf.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Coupling wiring
// ---------------------------------------------------------------------------

TEST(CouplingAdmissionTest, MixedQueriesRunThroughTheCouplingController) {
  CouplingOptions options;
  options.admission.max_concurrent = 1;
  options.admission.max_queue = 0;
  auto sys = testutil::MakeFigure4System(options);
  EXPECT_EQ(sys->coupling->admission().options().max_concurrent, 1u);
  MixedQueryEvaluator eval(sys->coupling.get());
  auto result = eval.Run(kMixedQuery, Strategy::kIrsFirst);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The slot was released on completion; a second query still admits.
  auto again = eval.Run(kMixedQuery, Strategy::kIndependent);
  EXPECT_TRUE(again.ok());
  obs::Counter& admitted = obs::GetCounter("coupling.admission.admitted");
  EXPECT_GE(admitted.value(), 2u);
}

TEST(CouplingAdmissionTest, BufferByteBudgetFlowsFromCouplingOptions) {
  CouplingOptions options;
  // Less than any two entries: every new query evicts the previous one.
  options.buffer_max_bytes =
      ResultBuffer::ApproxEntryBytes("", OidScoreMap{}) * 3 / 2;
  auto sys = testutil::MakeFigure4System(options);
  auto coll = sys->coupling->GetCollectionByName("paras");
  ASSERT_TRUE(coll.ok());
  // Distinct IRS queries fill the buffer past the byte budget.
  ASSERT_TRUE((*coll)->GetIrsResult("www").ok());
  ASSERT_TRUE((*coll)->GetIrsResult("nii").ok());
  ASSERT_TRUE((*coll)->GetIrsResult("internet").ok());
  EXPECT_GT((*coll)->stats().buffer_misses, 0u);
  obs::Counter& evictions =
      obs::GetCounter("coupling.result_buffer.evictions");
  EXPECT_GT(evictions.value(), 0u);
}

}  // namespace
}  // namespace sdms::coupling
