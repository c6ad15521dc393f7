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
#include "common/obs/stats.h"
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

TEST(StatisticsServiceTest, CapturesIndexedWorkload) {
  obs::StatisticsService& stats = obs::StatisticsService::Instance();
  stats.ResetForTest();
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  auto result = eval.Run(kMixedQuery, MixedQueryEvaluator::Strategy::kIndependent);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Real data from the indexed workload: term DF snapshots, doc and
  // extent cardinalities, a buffer hit rate, and a strategy latency.
  EXPECT_GT(stats.TermCount("paras"), 0u);
  ASSERT_TRUE(stats.TermDf("paras", "www").has_value());
  EXPECT_GT(*stats.TermDf("paras", "www"), 0u);
  EXPECT_GT(stats.CollectionDocCount("paras"), 0u);
  EXPECT_GT(stats.ExtentCardinality("PARA"), 0u);
  EXPECT_GE(stats.BufferHitRate("paras"), 0.0);
  auto lat = stats.StrategyLatency("b1.c1", "independent");
  ASSERT_TRUE(lat.has_value());
  EXPECT_GE(lat->count, 1u);

  std::string json = stats.DumpJson();
  EXPECT_NE(json.find("\"paras\""), std::string::npos);
  EXPECT_NE(json.find("\"PARA\""), std::string::npos);
  EXPECT_NE(json.find("\"strategy_latency\""), std::string::npos);
  stats.ResetForTest();
}

TEST(StatisticsServiceTest, BatchedHitsMatchSingleLookups) {
  obs::StatisticsService& stats = obs::StatisticsService::Instance();
  stats.ResetForTest();
  // From an empty average (the first hit seeds it) and from a mixed
  // history, n batched hits land where n single hits do.
  for (uint64_t n : {1u, 2u, 37u, 5000u}) {
    const std::string single = "single" + std::to_string(n);
    const std::string batched = "batched" + std::to_string(n);
    for (int i = 0; i < static_cast<int>(n); ++i) {
      stats.RecordBufferLookup(single, true);
    }
    stats.RecordBufferLookups(batched, n);
    EXPECT_NEAR(stats.BufferHitRate(batched), stats.BufferHitRate(single),
                1e-12);
    for (bool hit : {false, true, false, false}) {
      stats.RecordBufferLookup(single, hit);
      stats.RecordBufferLookup(batched, hit);
    }
    for (int i = 0; i < static_cast<int>(n); ++i) {
      stats.RecordBufferLookup(single, true);
    }
    stats.RecordBufferLookups(batched, n);
    EXPECT_NEAR(stats.BufferHitRate(batched), stats.BufferHitRate(single),
                1e-12)
        << n;
  }
  stats.RecordBufferLookups("untouched", 0);
  EXPECT_LT(stats.BufferHitRate("untouched"), 0.0);
  stats.ResetForTest();
}

TEST(StatisticsServiceTest, SaveLoadRoundTrip) {
  obs::StatisticsService& stats = obs::StatisticsService::Instance();
  stats.ResetForTest();
  stats.RecordTermDf("c1", "alpha", 7);
  stats.RecordCollectionDocCount("c1", 42);
  stats.RecordExtentCardinality("PARA", 11);
  stats.RecordBufferLookup("c1", true);
  stats.RecordBufferLookup("c1", false);
  stats.RecordStrategyLatency("b1.c1", "independent", 1500);
  const double rate = stats.BufferHitRate("c1");

  std::string path = testing::TempDir() + "/sdms_stats_roundtrip.sdms";
  ASSERT_TRUE(stats.SaveToFile(path).ok());
  stats.ResetForTest();
  EXPECT_FALSE(stats.TermDf("c1", "alpha").has_value());
  ASSERT_TRUE(stats.LoadFromFile(path).ok());

  EXPECT_EQ(stats.TermDf("c1", "alpha").value_or(0), 7u);
  EXPECT_EQ(stats.CollectionDocCount("c1"), 42u);
  EXPECT_EQ(stats.ExtentCardinality("PARA"), 11u);
  EXPECT_NEAR(stats.BufferHitRate("c1"), rate, 1e-6);
  auto lat = stats.StrategyLatency("b1.c1", "independent");
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(lat->count, 1u);
  EXPECT_EQ(lat->sum_us, 1500u);
  EXPECT_EQ(lat->max_us, 1500u);
  stats.ResetForTest();
}

TEST(StatisticsServiceTest, LoadRejectsCorruptHeader) {
  std::string path = testing::TempDir() + "/sdms_stats_bad.sdms";
  ASSERT_TRUE(WriteFileAtomic(path, "not a stats file\n").ok());
  obs::StatisticsService& stats = obs::StatisticsService::Instance();
  stats.ResetForTest();
  EXPECT_FALSE(stats.LoadFromFile(path).ok());
}

}  // namespace
}  // namespace sdms
