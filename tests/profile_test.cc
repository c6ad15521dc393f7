// Per-query profiling and statistics-service tests: worker charge
// attribution across ThreadPool::ParallelFor, cross-query isolation,
// slow-query log threshold semantics, profile-vs-metrics consistency
// on a real mixed query, and statistics persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/obs/log.h"
#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "common/query_context.h"
#include "common/thread_pool.h"
#include "coupling/mixed_query.h"
#include "coupling_test_util.h"

namespace sdms {
namespace {

using coupling::MixedQueryEvaluator;
using coupling::testutil::MakeFigure4System;

const char kMixedQuery[] =
    "ACCESS p FROM p IN PARA "
    "WHERE p -> getIRSValue('paras', 'www') > 0.3";

TEST(QueryProfileTest, ParallelForWorkerChargesLandInOwningTree) {
  QueryContext ctx;
  auto profile = std::make_shared<obs::QueryProfile>(ctx.query_id());
  ctx.set_profile(profile);
  QueryContext::Scope scope(&ctx);
  ThreadPool pool(4);
  {
    obs::ProfileStageScope fanout("fanout");
    pool.ParallelFor(1000, [](size_t begin, size_t end) {
      obs::ProfileCount("work", end - begin);
    });
  }
  profile->Finish();
  EXPECT_EQ(profile->TotalCounter("work"), 1000u);
  // Charges landed under the stage that was active at fan-out time,
  // not at the root.
  obs::QueryProfile::Stage* root = profile->root();
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_EQ(root->children[0]->name, "fanout");
  EXPECT_EQ(root->children[0]->counters["work"], 1000u);
  EXPECT_EQ(root->counters.count("work"), 0u);
}

TEST(QueryProfileTest, ConcurrentQueriesNeverCrossCharge) {
  ThreadPool pool(4);
  auto run_query = [&pool](const char* counter, size_t n,
                           std::shared_ptr<obs::QueryProfile>* out) {
    QueryContext ctx;
    auto profile = std::make_shared<obs::QueryProfile>(ctx.query_id());
    ctx.set_profile(profile);
    QueryContext::Scope scope(&ctx);
    obs::ProfileStageScope stage("fanout");
    pool.ParallelFor(n, [counter](size_t begin, size_t end) {
      obs::ProfileCount(counter, end - begin);
    });
    profile->Finish();
    *out = profile;
  };
  for (int iter = 0; iter < 20; ++iter) {
    std::shared_ptr<obs::QueryProfile> a, b;
    std::thread ta(run_query, "alpha", size_t{512}, &a);
    std::thread tb(run_query, "beta", size_t{256}, &b);
    ta.join();
    tb.join();
    // Both queries fanned out onto the same pool concurrently; every
    // charge must land in its owner's tree and nowhere else.
    EXPECT_EQ(a->TotalCounter("alpha"), 512u);
    EXPECT_EQ(a->TotalCounter("beta"), 0u);
    EXPECT_EQ(b->TotalCounter("beta"), 256u);
    EXPECT_EQ(b->TotalCounter("alpha"), 0u);
  }
}

TEST(SlowQueryLogTest, FiresAtExactlyTheThreshold) {
  obs::SlowQueryLog& log = obs::SlowQueryLog::Instance();
  std::string path = testing::TempDir() + "/sdms_slow_queries.jsonl";
  std::remove(path.c_str());
  log.set_path(path);
  log.set_threshold_ms(5);
  uint64_t before = log.recorded();
  EXPECT_FALSE(log.MaybeRecord(7, "q-under", 4999, nullptr));
  EXPECT_TRUE(log.MaybeRecord(7, "q-at", 5000, nullptr));
  EXPECT_TRUE(log.MaybeRecord(7, "q-over", 5001, nullptr));
  EXPECT_EQ(log.recorded(), before + 2);
  auto content = ReadFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_NE(content->find("\"query\":\"q-at\""), std::string::npos);
  EXPECT_NE(content->find("\"query\":\"q-over\""), std::string::npos);
  EXPECT_EQ(content->find("q-under"), std::string::npos);
  log.set_threshold_ms(-1);  // disarm for the rest of the process
}

TEST(SlowQueryLogTest, RecordCarriesTheProfileDetail) {
  obs::SlowQueryLog& log = obs::SlowQueryLog::Instance();
  std::string path = testing::TempDir() + "/sdms_slow_detail.jsonl";
  std::remove(path.c_str());
  log.set_path(path);
  log.set_threshold_ms(0);  // every query is slow
  obs::QueryProfile profile(99);
  profile.Count(nullptr, "rows_emitted", 3);
  profile.Finish();
  EXPECT_TRUE(log.MaybeRecord(99, "detail-query", 1234, &profile));
  log.set_threshold_ms(-1);
  auto content = ReadFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_NE(content->find("\"detail\":{"), std::string::npos);
  EXPECT_NE(content->find("\"rows_emitted\":3"), std::string::npos);
  EXPECT_NE(content->find("\"query_id\":99"), std::string::npos);
}

/// Acceptance: the per-stage counters of a profiled mixed query sum to
/// exactly the process-wide metric deltas of the same run.
TEST(QueryProfileTest, MixedQueryProfileMatchesMetricsDeltas) {
  auto sys = MakeFigure4System();
  obs::Counter& rows = obs::GetCounter("oodb.query.rows_emitted");
  obs::Counter& bindings = obs::GetCounter("oodb.query.bindings_scanned");
  obs::Counter& index_lookups = obs::GetCounter("oodb.query.index_lookups");
  obs::Counter& term_lookups = obs::GetCounter("irs.index.term_lookups");
  obs::Counter& postings = obs::GetCounter("irs.index.postings_scanned");

  QueryContext ctx;
  auto profile = std::make_shared<obs::QueryProfile>(ctx.query_id());
  ctx.set_profile(profile);
  QueryContext::Scope scope(&ctx);

  const uint64_t rows0 = rows.value();
  const uint64_t bindings0 = bindings.value();
  const uint64_t index0 = index_lookups.value();
  const uint64_t term0 = term_lookups.value();
  const uint64_t postings0 = postings.value();

  MixedQueryEvaluator eval(sys->coupling.get());
  auto result = eval.Run(kMixedQuery, MixedQueryEvaluator::Strategy::kIndependent);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(profile->TotalCounter("rows_emitted"), rows.value() - rows0);
  EXPECT_EQ(profile->TotalCounter("bindings_scanned"),
            bindings.value() - bindings0);
  EXPECT_EQ(profile->TotalCounter("index_lookups"),
            index_lookups.value() - index0);
  EXPECT_EQ(profile->TotalCounter("term_lookups"),
            term_lookups.value() - term0);
  EXPECT_EQ(profile->TotalCounter("postings_scanned"),
            postings.value() - postings0);
  EXPECT_GT(profile->TotalCounter("term_lookups"), 0u);

  const MixedQueryEvaluator::RunInfo& info = eval.last_run();
  EXPECT_EQ(info.profile.get(), profile.get());
  EXPECT_EQ(info.query_id, ctx.query_id());
  EXPECT_GT(info.total_micros, 0);
  EXPECT_GE(info.queue_wait_micros, 0);

  // The rendered tree shows the evaluation stages.
  std::string rendered = profile->Render();
  EXPECT_NE(rendered.find("parse"), std::string::npos);
  EXPECT_NE(rendered.find("join"), std::string::npos);
  EXPECT_NE(rendered.find("admission"), std::string::npos);
}

TEST(QueryIdTest, FreshContextsGetDistinctNonZeroIds) {
  QueryContext a;
  QueryContext b;
  EXPECT_NE(a.query_id(), 0u);
  EXPECT_NE(b.query_id(), 0u);
  EXPECT_NE(a.query_id(), b.query_id());
}

class CaptureSink : public obs::LogSink {
 public:
  explicit CaptureSink(std::vector<obs::LogRecord>* out) : out_(out) {}
  void Write(const obs::LogRecord& record) override {
    std::lock_guard<std::mutex> lock(mu_);
    out_->push_back(record);
  }

 private:
  std::mutex mu_;
  std::vector<obs::LogRecord>* out_;
};

TEST(QueryIdTest, LogRecordsCarryTheActiveQueryId) {
  std::vector<obs::LogRecord> records;
  obs::Logger::Instance().SetSink(std::make_unique<CaptureSink>(&records));
  uint64_t expected = 0;
  {
    QueryContext ctx;
    QueryContext::Scope scope(&ctx);
    expected = ctx.query_id();
    SDMS_LOG(INFO) << "profile-test-inside";
  }
  SDMS_LOG(INFO) << "profile-test-outside";
  obs::Logger::Instance().SetSink(nullptr);  // back to stderr

  uint64_t inside_id = 0, outside_id = 99;
  bool saw_inside = false, saw_outside = false;
  for (const obs::LogRecord& r : records) {
    if (r.message.find("profile-test-inside") != std::string::npos) {
      inside_id = r.query_id;
      saw_inside = true;
    }
    if (r.message.find("profile-test-outside") != std::string::npos) {
      outside_id = r.query_id;
      saw_outside = true;
    }
  }
  ASSERT_TRUE(saw_inside);
  ASSERT_TRUE(saw_outside);
  EXPECT_EQ(inside_id, expected);
  EXPECT_EQ(outside_id, 0u);
}

}  // namespace
}  // namespace sdms
