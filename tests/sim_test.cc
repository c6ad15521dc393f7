// Deterministic simulation soak for the exactly-once DB->IRS update
// propagation protocol: seeded workloads with injected IO errors,
// single-shard kill/stall bursts against the fan-out search, and
// simulated process deaths, each followed by full crash recovery and
// the invariant suite (no lost updates, no double applies, index
// bit-identical to a fault-free oracle, VerifyConsistency without
// Repair, no stray files, and every merged search answer complete or
// explicitly degraded with the failed shard named).
//
// Schedule count: SDMS_SIM_SCHEDULES (default 500). CI's fault-matrix
// job runs the default; the nightly soak raises it to 2000.

#include "sim/simulation.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "common/obs/log.h"

namespace sdms::sim {
namespace {

size_t ScheduleCount() {
  const char* env = std::getenv("SDMS_SIM_SCHEDULES");
  if (env != nullptr) {
    long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 500;
}

// Unique per test case, seed, and process, so parallel ctest runs
// never share scratch state.
std::string WorkDir(const std::string& tag, uint64_t seed) {
  return ::testing::TempDir() + "sdms_sim_" + tag + "_" +
         std::to_string(seed) + "_" + std::to_string(::getpid());
}

TEST(SimulationTest, FaultFreeBaselineConverges) {
  SimOptions options;
  options.seed = 7;
  options.steps = 80;
  options.enable_faults = false;
  options.work_dir = WorkDir("baseline", options.seed);
  auto report = RunSchedule(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->crash_restarts, 0u);
  EXPECT_EQ(report->faults_fired, 0u);
  EXPECT_EQ(report->stale_serves, 0u);
  EXPECT_FALSE(report->final_digest.empty());
  EXPECT_EQ(report->steps_executed, options.steps);
}

TEST(SimulationTest, SameSeedSameTrace) {
  SimOptions options;
  options.seed = 424242;
  options.steps = 60;
  options.work_dir = WorkDir("det_a", options.seed);
  auto first = RunSchedule(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  options.work_dir = WorkDir("det_b", options.seed);
  auto second = RunSchedule(options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  EXPECT_EQ(first->trace, second->trace);
  EXPECT_EQ(first->final_digest, second->final_digest);
  EXPECT_EQ(first->faults_fired, second->faults_fired);
  EXPECT_EQ(first->crash_restarts, second->crash_restarts);
  EXPECT_EQ(first->clock_micros, second->clock_micros);
}

TEST(SimulationTest, RemoteShardSchedules) {
  // Every multi-shard schedule serves its shards from in-process
  // ShardServers over loopback channels; bursts land on the network
  // fault points (connect/read/stall/partition) and simulated router
  // crashes force the applied-seq catch-up handshake on recovery.
  // Remote transport reads the wall clock, so this asserts invariants
  // and coverage, not trace equality.
  const size_t schedules = 30;
  size_t remote_schedules = 0;
  size_t shard_bursts = 0;
  size_t crash_restarts = 0;
  size_t catchup_installs = 0;
  for (size_t i = 0; i < schedules; ++i) {
    SimOptions options;
    options.seed = 9000 + i;
    options.steps = 40;
    options.enable_remote_shards = true;
    options.work_dir = WorkDir("remote", options.seed);
    auto report = RunSchedule(options);
    ASSERT_TRUE(report.ok())
        << "remote schedule seed=" << options.seed
        << " violated an invariant: " << report.status().ToString();
    if (report->remote_shards) {
      ++remote_schedules;
      shard_bursts += report->shard_bursts;
      crash_restarts += report->crash_restarts;
      catchup_installs += report->remote_catchup_installs;
    }
  }
  // Coverage, not vacuity: most seeds draw a multi-shard layout, and
  // across them the machinery under test actually ran — network
  // bursts, router crash recoveries, and at least the initial full
  // install per attached shard.
  RecordProperty("remote_schedules", static_cast<int>(remote_schedules));
  RecordProperty("catchup_installs", static_cast<int>(catchup_installs));
  EXPECT_GT(remote_schedules, schedules / 2);
  EXPECT_GT(shard_bursts, 0u);
  EXPECT_GT(crash_restarts, 0u);
  EXPECT_GT(catchup_installs, remote_schedules);
}

TEST(SimulationTest, SeededFaultSchedules) {
  const size_t schedules = ScheduleCount();
  size_t crash_restarts = 0;
  size_t io_bursts = 0;
  size_t shard_bursts = 0;
  size_t shard_degraded = 0;
  size_t sharded_schedules = 0;
  size_t faults_fired = 0;
  for (size_t i = 0; i < schedules; ++i) {
    SimOptions options;
    options.seed = 1000 + i;
    options.steps = 40;
    options.work_dir = WorkDir("soak", options.seed);
    auto report = RunSchedule(options);
    ASSERT_TRUE(report.ok())
        << "schedule seed=" << options.seed
        << " violated an invariant: " << report.status().ToString();
    crash_restarts += report->crash_restarts;
    io_bursts += report->io_bursts;
    shard_bursts += report->shard_bursts;
    shard_degraded += report->shard_degraded;
    if (report->num_shards > 1) ++sharded_schedules;
    faults_fired += report->faults_fired;
  }
  // The soak must actually exercise the failure machinery, not just
  // pass vacuously: across the seed range, a healthy fraction of
  // schedules crash-restarts, fires faults, kills single shards, and
  // actually observes explicitly degraded fan-out answers.
  EXPECT_GT(crash_restarts, schedules / 4);
  EXPECT_GT(io_bursts, schedules / 4);
  EXPECT_GT(shard_bursts, schedules / 8);
  EXPECT_GT(shard_degraded, 0u);
  EXPECT_GT(sharded_schedules, schedules / 2);
  EXPECT_GT(faults_fired, schedules / 4);
}

}  // namespace
}  // namespace sdms::sim

int main(int argc, char** argv) {
  // Before anything touches a file: FsyncEnabled() caches the answer
  // in a function-local static on first use, and the soak would spend
  // most of its wall clock in fsync otherwise.
  ::setenv("SDMS_NO_FSYNC", "1", 1);
  // SDMS_SIM_DEBUG=1 surfaces the coupling's DEBUG-level protocol
  // logging (prepares, commits, batch sizes) for schedule post-mortems.
  if (std::getenv("SDMS_SIM_DEBUG") != nullptr) {
    sdms::obs::Logger::Instance().SetLevel(sdms::obs::LogLevel::kDebug);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
