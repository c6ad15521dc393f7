#ifndef SDMS_SIM_SIMULATION_H_
#define SDMS_SIM_SIMULATION_H_

#include <cstdint>
#include <memory>
#include <string>

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "coupling/coupling.h"
#include "irs/engine.h"
#include "oodb/database.h"

namespace sdms::server {
class ShardServer;
}  // namespace sdms::server

namespace sdms::sim {

/// Deterministic virtual time: the simulation never reads the wall
/// clock; every action advances this counter by a seeded amount, so a
/// schedule's timeline is a pure function of its seed.
struct VirtualClock {
  uint64_t now_micros = 0;
  void Advance(uint64_t micros) { now_micros += micros; }
};

/// Configuration of one simulated schedule.
struct SimOptions {
  /// Seed of the whole schedule: workload, fault positions, and fault
  /// draws all derive from it. Same seed + same options = same trace.
  uint64_t seed = 1;
  /// Scratch directory for this schedule (database, WAL, propagation
  /// journal, IRS snapshots, exchange files). Created on Run(),
  /// removed afterwards unless `keep_work_dir` is set.
  std::string work_dir;
  /// Workload actions per schedule (bursts count as one action).
  size_t steps = 48;
  /// Objects inserted before the first persisted baseline.
  size_t initial_objects = 6;
  /// Arms fault bursts (IO-error storms and crash-restarts). Off =
  /// fault-free baseline schedule.
  bool enable_faults = true;
  /// Serves every shard of a multi-shard schedule from its own
  /// in-process ShardServer over a loopback RemoteShardChannel, with
  /// shard bursts armed at the network fault points instead of the
  /// in-process search points. Opt-in: the remote transport reads the
  /// wall clock (deadlines, reconnect backoff), so while every
  /// invariant still holds, the action trace of two runs of the same
  /// seed is no longer guaranteed to be identical.
  bool enable_remote_shards = false;
  /// Leaves the scratch directory behind for post-mortem debugging.
  bool keep_work_dir = false;
};

/// Outcome and counters of one schedule.
struct SimReport {
  uint64_t seed = 0;
  size_t steps_executed = 0;
  size_t inserts = 0;
  size_t modifies = 0;
  size_t deletes = 0;
  size_t queries = 0;
  size_t propagates = 0;
  size_t persists = 0;
  size_t checkpoints = 0;
  size_t io_bursts = 0;
  /// Bursts that killed or stalled exactly one shard's search path.
  size_t shard_bursts = 0;
  /// Fresh fan-out answers during a shard burst that were explicitly
  /// degraded (the armed shard reported failed/skipped).
  size_t shard_degraded = 0;
  /// Seeded shard count of the schedule's collection (1..4).
  uint32_t num_shards = 1;
  /// True when the schedule served its shards from in-process
  /// ShardServers over loopback channels (enable_remote_shards and
  /// num_shards > 1).
  bool remote_shards = false;
  /// Remote catch-ups (full shard installs) observed across every
  /// router incarnation: crash recoveries and failed tees both land
  /// here.
  size_t remote_catchup_installs = 0;
  size_t crash_restarts = 0;
  /// Fault firings observed across all bursts.
  size_t faults_fired = 0;
  /// Queries answered from the result buffer while the IRS was
  /// unreachable (must be 0 outside fault bursts — checked).
  size_t stale_serves = 0;
  uint64_t clock_micros = 0;
  /// Canonical digest of the surviving index after the final
  /// convergence check (equals the fault-free oracle's digest).
  std::string final_digest;
  /// Compact deterministic action trace ("I12 M12 Q B(wal.sync) X R
  /// ..."): two runs of the same seed must produce identical traces.
  std::string trace;
};

/// One deterministic schedule against a real coupled system on disk:
/// seeded workload (insert / modify / delete / query / propagate /
/// persist / checkpoint) interleaved with fault bursts injected
/// through the src/common/fault/ points, including simulated process
/// death (kCrash) followed by a full restart and crash recovery.
///
/// After every recovery — and once more at the end — the invariants of
/// the exactly-once protocol are checked:
///   1. PropagateUpdates succeeds (fault-free drain of requeued work);
///   2. VerifyConsistency passes WITHOUT Repair — no lost updates, no
///      orphans, spec-query membership matches the index;
///   3. the index digest is bit-identical to an oracle index built
///      sequentially from the recovered database with no faults;
///   4. InvertedIndex::CheckInvariants reports nothing;
///   5. no stray temp/exchange files survive the recovery sweep;
/// plus, during the live workload: a query result is flagged stale
/// only while a fault burst has the IRS unreachable, and — the fan-out
/// invariant — every fresh merged search answer is either complete
/// (no shard reported failed) or explicitly degraded with the failed
/// shard named in the per-shard report; a shard that was not faulted
/// must never be the one reported failed.
class Simulation {
 public:
  explicit Simulation(SimOptions options);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs the schedule. OK iff every invariant held at every recovery
  /// point; the first violation is returned as an error naming the
  /// failing invariant and the trace position.
  Status Run();

  const SimReport& report() const { return report_; }

 private:
  Status RunImpl();
  /// Builds (fresh) or recovers (restart) the full coupled system.
  Status Boot(bool fresh);
  /// Tears the system down and recovers it from disk, as after a
  /// process crash. Fault registry is cleared first: recovery itself
  /// runs fault-free.
  Status Restart();
  Status DefineParaClass();

  /// One workload action, `roll` in [0, 100).
  Status DoWorkAction(uint32_t roll);
  Status DoInsert();
  Status DoModify();
  Status DoDelete();
  Status DoQuery();
  Status DoPropagate();
  Status DoPersist();
  Status DoCheckpoint();
  /// Transient IRS unavailability: arms kIoError at an IRS-side fault
  /// point, runs a few actions against it, disarms, then checks
  /// convergence in place (no restart).
  Status DoIoBurst();
  /// Simulated process death: arms kCrash at a seeded fault point,
  /// runs actions until it fires (or the burst ends), then restarts
  /// and checks all recovery invariants.
  Status DoCrashBurst();
  /// Kills (kIoError) or stalls (kLatency) exactly one shard's search
  /// path — in-process ("irs.search.shard<i>") or, in remote mode,
  /// one of the network fault classes ("net.shard<i>.connect/read/
  /// stall/partition") — and runs queries against the surviving
  /// fan-out, checking the fan-out invariant on every fresh answer
  /// (class comment above).
  Status DoShardBurst();

  /// Starts one in-process ShardServer per shard (first boot only —
  /// the "processes" survive simulated router crashes) and attaches a
  /// loopback RemoteShardChannel for each, syncing them from the
  /// local index (full install on first contact, applied-seq catch-up
  /// after a restart).
  Status AttachRemoteShards();
  /// Bounded wait after a cleared network burst: fresh fan-outs must
  /// return to fully-complete answers once reconnect backoff expires.
  Status SettleRemoteShards(const std::string& where);
  /// Accumulates the current channels' catch-up counters into the
  /// report (channels die with each router incarnation). Fails the
  /// schedule when a push left a server out of step with its router:
  /// both apply the same ops, so only a lost or re-applied op can.
  Status HarvestRemoteStats();

  /// The post-recovery / final invariant suite (class comment above).
  Status CheckInvariants(const std::string& where);
  /// Digest of a fault-free oracle index built sequentially from the
  /// current database state.
  StatusOr<std::string> OracleDigest();
  /// Per-document term diff between `coll` (all shards) and a fresh
  /// oracle, for digest-mismatch post-mortems ("" when it cannot be
  /// computed).
  std::string IndexDiff(const irs::IrsCollection& coll);

  std::string RandomText();
  /// A live PARA object drawn from the extent, or kNullOid when empty.
  Oid PickLiveOid();
  void Trace(const std::string& token);

  SimOptions options_;
  SimReport report_;
  Rng rng_;
  VirtualClock clock_;

  coupling::CouplingOptions coupling_options_;
  std::unique_ptr<oodb::Database> db_;
  std::unique_ptr<irs::IrsEngine> engine_;
  std::unique_ptr<coupling::Coupling> coupling_;
  coupling::Collection* collection_ = nullptr;
  coupling::PropagationPolicy policy_ = coupling::PropagationPolicy::kOnQuery;
  /// Seeded once per schedule, applied on the fresh boot (a restored
  /// snapshot's shard layout wins over it, which is the same value).
  uint32_t num_shards_ = 1;
  /// True while a burst has faults armed — the only time a stale serve
  /// is legal.
  bool faults_armed_ = false;
  /// Remote-shard serving tier (enable_remote_shards): one in-process
  /// ShardServer per shard, started lazily on the first boot and kept
  /// across simulated router crashes.
  bool remote_shards_ = false;
  std::vector<std::unique_ptr<server::ShardServer>> shard_servers_;
};

/// Convenience wrapper: runs one schedule and returns its report.
StatusOr<SimReport> RunSchedule(const SimOptions& options);

}  // namespace sdms::sim

#endif  // SDMS_SIM_SIMULATION_H_
