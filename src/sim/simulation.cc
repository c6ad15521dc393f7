#include "sim/simulation.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault/fault.h"
#include "common/file_util.h"
#include "common/obs/log.h"
#include "coupling/remote_shard.h"
#include "irs/model/retrieval_model.h"
#include "server/shard_service.h"

namespace sdms::sim {

namespace {

/// Small closed vocabulary so queries actually hit documents and the
/// cancelling update log sees real overwrite patterns.
constexpr const char* kVocab[] = {
    "hypertext", "retrieval", "coupling",  "document",  "structure",
    "query",     "index",     "object",    "database",  "sgml",
    "paragraph", "section",   "relevance", "inference", "network",
    "update",    "snapshot",  "journal",   "recovery",  "propagation",
    "buffer",    "collection","schema",    "vodak",
};
constexpr size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);

/// Points a simulated process death may be positioned at. Includes the
/// database WAL, the IRS maintenance calls, index persistence, and the
/// atomic-write protocol (death before/after the rename).
constexpr const char* kCrashPoints[] = {
    "wal.append",
    "wal.sync",
    "irs.add",
    "irs.update",
    "irs.remove",
    "irs.batch_add",
    "irs.save",
    "coupling.irs_call",
    "file.atomic_write",
    "file.atomic_write.before_rename",
    "file.atomic_write.after_rename",
};
constexpr size_t kCrashPointCount = sizeof(kCrashPoints) / sizeof(kCrashPoints[0]);

/// Points an IO-error storm may target. Deliberately IRS-side only:
/// a transient database-WAL write error leaves the in-memory store
/// ahead of the log, which is a database-atomicity concern, not an
/// update-propagation one — crash bursts cover the WAL points instead.
constexpr const char* kIoPoints[] = {
    "coupling.irs_call",
    "irs.add",
    "irs.update",
    "irs.remove",
    "irs.batch_add",
    "irs.search",
    "irs.save",
    "irs.exchange.write",
    "irs.exchange.read",
};
constexpr size_t kIoPointCount = sizeof(kIoPoints) / sizeof(kIoPoints[0]);

constexpr char kCollectionName[] = "paras";
constexpr char kSpecQuery[] = "ACCESS p FROM p IN PARA";

Status SimFailure(const std::string& where, const std::string& what) {
  return Status::Internal("sim invariant violated at " + where + ": " + what);
}

}  // namespace

Simulation::Simulation(SimOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  report_.seed = options_.seed;
}

Simulation::~Simulation() {
  // Tear down in dependency order; the coupling unhooks its update
  // listener and checkpoint hook from the database it still points at.
  collection_ = nullptr;
  coupling_.reset();
  db_.reset();
  engine_.reset();
  fault::FaultRegistry::Instance().Clear();
  if (!options_.keep_work_dir && !options_.work_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(options_.work_dir, ec);
  }
}

Status Simulation::Run() {
  Status result = RunImpl();
  report_.clock_micros = clock_.now_micros;
  return result;
}

Status Simulation::RunImpl() {
  if (options_.work_dir.empty()) {
    return Status::InvalidArgument("SimOptions::work_dir is required");
  }
  SDMS_RETURN_IF_ERROR(MakeDirs(options_.work_dir));

  // Schedule-wide configuration drawn once, before any system exists,
  // so it is identical across the restarts within the schedule.
  coupling_options_.journal_path = options_.work_dir + "/journal.wal";
  coupling_options_.irs_snapshot_dir = options_.work_dir + "/irs";
  coupling_options_.exchange_dir = options_.work_dir + "/exchange";
  coupling_options_.file_exchange = rng_.Bernoulli(0.3);
  // Determinism: no retries (a retry count depends on how often a
  // probabilistic fault fires) and a breaker that never opens (the
  // open->half-open transition reads the wall clock).
  coupling_options_.call_guard.retry.max_attempts = 1;
  coupling_options_.call_guard.retry.deadline_micros = 0;
  coupling_options_.call_guard.breaker.failure_threshold = 1 << 20;
  policy_ = rng_.Bernoulli(0.5) ? coupling::PropagationPolicy::kOnQuery
                                : coupling::PropagationPolicy::kManual;
  // Seeded shard count 1..4: schedules exercise the unsharded layout
  // and real fan-outs alike; the snapshot's layout survives restarts.
  num_shards_ = 1 + static_cast<uint32_t>(rng_.Uniform(4));
  report_.num_shards = num_shards_;
  // Remote mode serves every shard of a multi-shard schedule from its
  // own in-process ShardServer; a 1-shard schedule stays local (there
  // is no fan-out to distribute).
  remote_shards_ = options_.enable_remote_shards && num_shards_ > 1;
  report_.remote_shards = remote_shards_;
  SDMS_RETURN_IF_ERROR(MakeDirs(coupling_options_.exchange_dir));

  SDMS_RETURN_IF_ERROR(Boot(/*fresh=*/true));

  for (size_t step = 0; step < options_.steps; ++step) {
    uint32_t roll = static_cast<uint32_t>(rng_.Uniform(100));
    if (roll >= 90 && options_.enable_faults) {
      if (roll < 93) {
        SDMS_RETURN_IF_ERROR(DoIoBurst());
      } else if (roll < 96) {
        SDMS_RETURN_IF_ERROR(DoShardBurst());
      } else {
        SDMS_RETURN_IF_ERROR(DoCrashBurst());
      }
    } else {
      SDMS_RETURN_IF_ERROR(DoWorkAction(roll % 90));
    }
    clock_.Advance(100 + rng_.Uniform(900));
    ++report_.steps_executed;
  }

  // Final convergence: a full fault-free propagate must land the index
  // bit-identical to the oracle.
  SDMS_RETURN_IF_ERROR(CheckInvariants("end-of-schedule"));
  auto coll = engine_->GetCollection(kCollectionName);
  if (coll.ok()) report_.final_digest = (*coll)->CanonicalDigest();
  HarvestRemoteStats();
  return Status::OK();
}

Status Simulation::Boot(bool fresh) {
  engine_ = std::make_unique<irs::IrsEngine>();
  if (!fresh) {
    SDMS_RETURN_IF_ERROR(engine_->LoadFrom(coupling_options_.irs_snapshot_dir));
  }
  oodb::Database::Options db_options;
  db_options.data_dir = options_.work_dir + "/db";
  db_options.sync_commits = true;
  SDMS_ASSIGN_OR_RETURN(db_, oodb::Database::Open(db_options));
  coupling_ = std::make_unique<coupling::Coupling>(db_.get(), engine_.get(),
                                                   coupling_options_);
  SDMS_RETURN_IF_ERROR(coupling_->Initialize());
  SDMS_RETURN_IF_ERROR(DefineParaClass());

  if (fresh) {
    SDMS_ASSIGN_OR_RETURN(
        collection_, coupling_->CreateCollection(kCollectionName, "inquery"));
    SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * irs_coll,
                          engine_->GetCollection(kCollectionName));
    SDMS_RETURN_IF_ERROR(irs_coll->SetNumShards(num_shards_));
    for (size_t i = 0; i < options_.initial_objects; ++i) {
      SDMS_RETURN_IF_ERROR(DoInsert());
    }
    SDMS_RETURN_IF_ERROR(
        collection_->IndexObjects(kSpecQuery, coupling::kTextModeSubtree));
    // Persisted baseline: every schedule starts from a durable index
    // snapshot plus a checkpointed database, so recovery always has a
    // snapshot pair to load.
    SDMS_RETURN_IF_ERROR(coupling_->PersistIrs());
    SDMS_RETURN_IF_ERROR(db_->Checkpoint());
  } else {
    SDMS_RETURN_IF_ERROR(coupling_->RestoreCollections().status());
    SDMS_RETURN_IF_ERROR(coupling_->RecoverPropagation());
    SDMS_ASSIGN_OR_RETURN(collection_,
                          coupling_->GetCollectionByName(kCollectionName));
  }
  collection_->set_propagation_policy(policy_);
  if (remote_shards_) {
    SDMS_RETURN_IF_ERROR(AttachRemoteShards());
  }
  return Status::OK();
}

Status Simulation::AttachRemoteShards() {
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection * coll,
                        engine_->GetCollection(kCollectionName));
  for (uint32_t s = 0; s < coll->num_shards(); ++s) {
    if (shard_servers_.size() <= s) {
      // First boot: spawn the serving "process" for this shard. It
      // deliberately outlives router restarts — a simulated router
      // crash kills the channels, not the servers, so every recovery
      // exercises the applied-seq catch-up handshake.
      server::ShardServerOptions so;
      so.port = 0;  // ephemeral loopback port
      so.io_timeout_ms = 2000;
      auto srv = std::make_unique<server::ShardServer>(so);
      SDMS_RETURN_IF_ERROR(srv->Start());
      shard_servers_.push_back(std::move(srv));
    }
    coupling::RemoteShardOptions ro;
    ro.port = shard_servers_[s]->port();
    ro.collection = kCollectionName;
    ro.shard = s;
    ro.num_shards = static_cast<uint32_t>(coll->num_shards());
    ro.model_name = coll->model().name();
    ro.analyzer = coll->analyzer().options();
    ro.connect_timeout_ms = 1000;
    ro.io_timeout_ms = 2000;
    ro.search_deadline_ms = 2000;
    // Tight, seeded backoff: bursts clear within the settle loop's
    // budget, and the jitter draw is a pure function of the schedule.
    ro.backoff_min_ms = 1;
    ro.backoff_max_ms = 10;
    ro.jitter_seed = options_.seed * 1000003ull + s + 1;
    Status attached = collection_->AttachRemoteShard(
        s, std::make_shared<coupling::RemoteShardChannel>(ro));
    if (!attached.ok()) {
      // Attach runs fault-free (fresh boot or post-crash recovery), so
      // a failed initial sync is an invariant violation, not weather.
      return SimFailure("attach remote shard " + std::to_string(s),
                        attached.ToString());
    }
  }
  return Status::OK();
}

void Simulation::HarvestRemoteStats() {
  if (!remote_shards_ || collection_ == nullptr) return;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    coupling::RemoteShardChannel* ch = collection_->remote_shard_channel(s);
    if (ch == nullptr) continue;
    coupling::RemoteShardChannelStats stats = ch->stats();
    report_.remote_catchup_installs += stats.catchup_installs;
  }
}

Status Simulation::SettleRemoteShards(const std::string& where) {
  // Reconnect backoff is bounded at 10ms (AttachRemoteShards), so a
  // cleared burst heals within a few probe rounds; 400 x 5ms is a
  // generous ceiling before calling it an invariant violation.
  Status last = Status::OK();
  for (int attempt = 0; attempt < 400; ++attempt) {
    collection_->buffer().Clear();
    bool stale = false;
    auto result = collection_->GetIrsResult(kVocab[0], &stale);
    if (result.ok() && !stale) {
      bool all_ok = true;
      for (const ShardStatusEntry& e : collection_->last_shard_report()) {
        if (e.state != ShardState::kOk) {
          all_ok = false;
          last = Status::IoError("shard " + std::to_string(e.shard) +
                                 " still " +
                                 std::string(ShardStateName(e.state)) + ": " +
                                 e.detail);
        }
      }
      if (all_ok) return Status::OK();
    } else if (!result.ok()) {
      last = result.status();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return SimFailure(where, "remote shards failed to heal after the fault "
                           "was cleared: " + last.ToString());
}

Status Simulation::DefineParaClass() {
  if (db_->schema().HasClass("PARA")) return Status::OK();
  oodb::ClassDef def;
  def.name = "PARA";
  def.super = "IRSObject";
  return db_->schema().DefineClass(std::move(def));
}

Status Simulation::Restart() {
  // Recovery itself runs fault-free: the simulated process is dead,
  // and the next incarnation starts with a clean fault registry.
  fault::FaultRegistry::Instance().Clear();
  faults_armed_ = false;
  // Channels die with the router incarnation (the servers live on);
  // bank their catch-up counters before the teardown loses them.
  HarvestRemoteStats();
  collection_ = nullptr;
  coupling_.reset();
  db_.reset();
  engine_.reset();
  ++report_.crash_restarts;
  Trace("X");
  return Boot(/*fresh=*/false);
}

Status Simulation::DoWorkAction(uint32_t roll) {
  if (roll < 22) return DoInsert();
  if (roll < 42) return DoModify();
  if (roll < 52) return DoDelete();
  if (roll < 70) return DoQuery();
  if (roll < 80) return DoPropagate();
  if (roll < 86) return DoPersist();
  return DoCheckpoint();
}

Status Simulation::DoInsert() {
  oodb::TxnId txn = db_->Begin();
  auto oid = db_->CreateObject("PARA", txn);
  Status status = oid.status();
  if (status.ok()) status = db_->SetAttribute(*oid, "GI", "PARA", txn);
  if (status.ok()) {
    std::string text = RandomText();
    SDMS_LOG(DEBUG) << "workload insert " << oid->ToString() << " text '"
                    << text << "'";
    status = db_->SetAttribute(*oid, "TEXT", text, txn);
  }
  if (status.ok()) status = db_->Commit(txn);
  if (!status.ok()) {
    // A failed commit (e.g. a WAL fault) leaves the transaction open
    // with its in-memory effects applied; roll them back so memory
    // stays consistent with the log.
    (void)db_->Abort(txn);
    Trace("i");
    return Status::OK();
  }
  ++report_.inserts;
  Trace("I" + std::to_string(oid->raw()));
  return Status::OK();
}

Status Simulation::DoModify() {
  Oid target = PickLiveOid();
  if (!target.valid()) return DoInsert();
  std::string text = RandomText();
  SDMS_LOG(DEBUG) << "workload modify " << target.ToString() << " text '"
                  << text << "'";
  Status status = db_->SetAttribute(target, "TEXT", text);
  if (!status.ok()) {
    Trace("m");
    return Status::OK();
  }
  ++report_.modifies;
  Trace("M" + std::to_string(target.raw()));
  return Status::OK();
}

Status Simulation::DoDelete() {
  Oid target = PickLiveOid();
  if (!target.valid()) return Status::OK();
  Status status = db_->DeleteObject(target);
  if (!status.ok()) {
    Trace("d");
    return Status::OK();
  }
  ++report_.deletes;
  Trace("D" + std::to_string(target.raw()));
  return Status::OK();
}

Status Simulation::DoQuery() {
  std::string term = kVocab[rng_.Uniform(kVocabSize)];
  bool stale = false;
  // Distinguish a fresh fan-out from a buffer hit: only a fresh one
  // refreshed last_shard_report(), so only then is it inspectable.
  uint64_t searches_before = collection_->stats().irs_queries;
  auto result = collection_->GetIrsResult(term, &stale);
  bool fresh_search = collection_->stats().irs_queries > searches_before;
  ++report_.queries;
  if (!result.ok()) {
    if (!faults_armed_) {
      return SimFailure("query", "IRS query failed outside a fault burst: " +
                                     result.status().ToString());
    }
    Trace("q");
    return Status::OK();
  }
  if (stale) {
    // The paper's degraded mode: buffered (possibly stale) results are
    // legal only while the IRS is actually unreachable.
    if (!faults_armed_) {
      return SimFailure("query", "stale result served with no fault armed");
    }
    ++report_.stale_serves;
    Trace("S");
    return Status::OK();
  }
  if (fresh_search && !faults_armed_) {
    // Fan-out invariant, healthy half: with no fault armed, a fresh
    // answer must be complete — no shard may report a non-ok state.
    for (const ShardStatusEntry& e : collection_->last_shard_report()) {
      if (e.state != ShardState::kOk) {
        return SimFailure(
            "query", "shard " + std::to_string(e.shard) + " reported " +
                         std::string(ShardStateName(e.state)) +
                         " with no fault armed: " + e.detail);
      }
    }
  }
  Trace("Q");
  return Status::OK();
}

Status Simulation::DoPropagate() {
  Status status = collection_->PropagateUpdates();
  ++report_.propagates;
  if (!status.ok() && !faults_armed_) {
    return SimFailure("propagate",
                      "propagation failed outside a fault burst: " +
                          status.ToString());
  }
  Trace(status.ok() ? "P" : "p");
  return Status::OK();
}

Status Simulation::DoPersist() {
  Status status = coupling_->PersistIrs();
  ++report_.persists;
  if (!status.ok() && !faults_armed_) {
    return SimFailure("persist", "PersistIrs failed outside a fault burst: " +
                                     status.ToString());
  }
  Trace(status.ok() ? "F" : "f");
  return Status::OK();
}

Status Simulation::DoCheckpoint() {
  Status status = db_->Checkpoint();
  ++report_.checkpoints;
  if (!status.ok() && !faults_armed_) {
    return SimFailure("checkpoint",
                      "checkpoint failed outside a fault burst: " +
                          status.ToString());
  }
  Trace(status.ok() ? "C" : "c");
  return Status::OK();
}

Status Simulation::DoIoBurst() {
  fault::FaultRegistry& registry = fault::FaultRegistry::Instance();
  const char* point = kIoPoints[rng_.Uniform(kIoPointCount)];
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kIoError;
  rule.probability = 0.6;
  rule.max_fires = 1 + rng_.Uniform(3);
  rule.skip = rng_.Uniform(2);
  registry.SetSeed(rng_.Next());
  registry.Arm(point, rule);
  faults_armed_ = true;
  ++report_.io_bursts;
  Trace("B(" + std::string(point) + ")");

  size_t actions = 1 + rng_.Uniform(4);
  for (size_t i = 0; i < actions; ++i) {
    SDMS_RETURN_IF_ERROR(DoWorkAction(static_cast<uint32_t>(rng_.Uniform(90))));
  }
  report_.faults_fired += registry.fires(point);
  registry.Clear();
  faults_armed_ = false;
  // Transient unavailability over: requeued work must drain and the
  // index must converge without a restart (and without Repair).
  return CheckInvariants("after io burst @" + std::string(point));
}

Status Simulation::DoCrashBurst() {
  fault::FaultRegistry& registry = fault::FaultRegistry::Instance();
  const char* point = kCrashPoints[rng_.Uniform(kCrashPointCount)];
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kCrash;
  rule.probability = 1.0;
  rule.max_fires = 1;
  rule.skip = rng_.Uniform(3);
  registry.SetSeed(rng_.Next());
  registry.Arm(point, rule);
  faults_armed_ = true;
  Trace("B(" + std::string(point) + "!)");

  // The process is notionally dead the instant the crash fault fires;
  // stop the workload there. Actions the fault never reached run
  // normally (the armed point may simply not be on their path).
  size_t actions = 1 + rng_.Uniform(4);
  for (size_t i = 0; i < actions && registry.fires(point) == 0; ++i) {
    SDMS_RETURN_IF_ERROR(DoWorkAction(static_cast<uint32_t>(rng_.Uniform(90))));
  }
  report_.faults_fired += registry.fires(point);

  // Hard restart either way: a fired fault makes this a mid-operation
  // crash, an unfired one a plain stop-and-recover.
  SDMS_RETURN_IF_ERROR(Restart());
  SDMS_RETURN_IF_ERROR(
      CheckInvariants("after crash @" + std::string(point)));
  Trace("R");
  return Status::OK();
}

Status Simulation::DoShardBurst() {
  auto coll_or = engine_->GetCollection(kCollectionName);
  if (!coll_or.ok()) return coll_or.status();
  const uint32_t shard_count = static_cast<uint32_t>((*coll_or)->num_shards());
  const uint32_t target = static_cast<uint32_t>(rng_.Uniform(shard_count));
  // Kill (IO error) or stall (latency) exactly this shard's search
  // path. A stalled shard still answers, so its burst exercises the
  // complete-but-slow side of the invariant. In remote mode the burst
  // lands on the network instead: a seeded draw over the four fault
  // classes of the shard's transport (connect only bites on a closed
  // connection, but a prior read/partition fire closes it, and the
  // reconnect then pays the connect gauntlet too).
  const bool stall = rng_.Bernoulli(0.34);
  const char* point;
  if (remote_shards_) {
    if (stall) {
      point = coupling::ShardNetStallFaultPoint(target);
    } else {
      switch (rng_.Uniform(3)) {
        case 0: point = coupling::ShardNetConnectFaultPoint(target); break;
        case 1: point = coupling::ShardNetReadFaultPoint(target); break;
        default: point = coupling::ShardNetPartitionFaultPoint(target); break;
      }
    }
  } else {
    point = irs::ShardSearchFaultPoint(target);
  }
  fault::FaultRegistry& registry = fault::FaultRegistry::Instance();
  fault::FaultRule rule;
  rule.kind = stall ? fault::FaultKind::kLatency : fault::FaultKind::kIoError;
  rule.latency_micros = 200 + rng_.Uniform(800);
  rule.probability = 1.0;
  rule.max_fires = 1 + rng_.Uniform(3);
  registry.SetSeed(rng_.Next());
  registry.Arm(point, rule);
  faults_armed_ = true;
  ++report_.shard_bursts;
  Trace("B(" + std::string(point) + (stall ? "~)" : ")"));

  // Fan-out invariant, faulted half: while exactly one shard is down,
  // every fresh merged answer is either complete (no shard reported
  // failed — the fault budget ran out within the guard's retries) or
  // explicitly degraded with the failed shard named — and the named
  // shard must be the armed one. A healthy shard reported failed is an
  // invariant violation, not bad luck.
  size_t queries = 1 + rng_.Uniform(3);
  for (size_t i = 0; i < queries; ++i) {
    std::string term = kVocab[rng_.Uniform(kVocabSize)];
    bool stale = false;
    uint64_t searches_before = collection_->stats().irs_queries;
    auto result = collection_->GetIrsResult(term, &stale);
    bool fresh_search = collection_->stats().irs_queries > searches_before;
    ++report_.queries;
    if (!result.ok()) {
      // All shards failed (a 1-shard collection under a kill burst)
      // with nothing buffered: a clean error is the legal outcome.
      Trace("q");
      continue;
    }
    if (stale) {
      ++report_.stale_serves;
      Trace("S");
      continue;
    }
    if (!fresh_search) {
      Trace("Q");  // buffer hit: a complete earlier answer
      continue;
    }
    bool any_failed = false;
    for (const ShardStatusEntry& e : collection_->last_shard_report()) {
      if (e.state != ShardState::kFailed && e.state != ShardState::kSkipped) {
        continue;
      }
      any_failed = true;
      if (e.shard != target) {
        return SimFailure(
            "shard burst @" + std::string(point),
            "healthy shard " + std::to_string(e.shard) + " reported " +
                std::string(ShardStateName(e.state)) + " while only shard " +
                std::to_string(target) + " was faulted: " + e.detail);
      }
    }
    if (any_failed) {
      ++report_.shard_degraded;
      Trace("G");
    } else {
      Trace("Q");
    }
  }
  report_.faults_fired += registry.fires(point);
  registry.Clear();
  faults_armed_ = false;
  // The shard is back: the next fresh fan-out must be complete again
  // and the index bit-identical to the oracle (searches never touch
  // the index, so this doubles as a no-corruption check). In remote
  // mode "back" also means reconnected — give the channel its backoff
  // window before demanding complete answers.
  if (remote_shards_) {
    SDMS_RETURN_IF_ERROR(
        SettleRemoteShards("after shard burst @" + std::string(point)));
  }
  return CheckInvariants("after shard burst @" + std::string(point));
}

Status Simulation::CheckInvariants(const std::string& where) {
  // 1. Fault-free propagation must succeed and drain everything.
  Status propagated = collection_->PropagateUpdates();
  if (!propagated.ok()) {
    return SimFailure(where, "PropagateUpdates: " + propagated.ToString());
  }
  if (collection_->pending_updates() != 0) {
    return SimFailure(where, "update log not drained after propagation");
  }

  // 2. Exactly-once: spec membership matches the index WITHOUT Repair.
  auto consistency = collection_->VerifyConsistency();
  if (!consistency.ok()) {
    return SimFailure(where,
                      "VerifyConsistency: " + consistency.status().ToString());
  }
  if (!consistency->consistent()) {
    std::string detail = "inconsistent:";
    for (Oid oid : consistency->missing_in_irs) {
      detail += " missing " + oid.ToString();
    }
    for (Oid oid : consistency->orphaned_in_irs) {
      detail += " orphaned " + oid.ToString();
    }
    return SimFailure(where, detail);
  }

  // 3. Bit-identical convergence against the fault-free oracle.
  SDMS_ASSIGN_OR_RETURN(std::string oracle, OracleDigest());
  auto coll = engine_->GetCollection(kCollectionName);
  if (!coll.ok()) {
    return SimFailure(where, "IRS collection vanished: " +
                                 coll.status().ToString());
  }
  std::string actual = (*coll)->CanonicalDigest();
  if (actual != oracle) {
    return SimFailure(where, "index digest " + actual +
                                 " != oracle digest " + oracle +
                                 IndexDiff(**coll));
  }

  // 4. Structural invariants of every shard plus key-routing.
  std::string broken = (*coll)->CheckInvariants();
  if (!broken.empty()) {
    return SimFailure(where, "index invariants: " + broken);
  }

  // 5. No stray files: recovery swept crash leftovers, and successful
  // exchange queries removed their result files.
  auto stray_tmp = RemoveMatchingFiles(coupling_options_.irs_snapshot_dir, "",
                                       ".tmp");
  if (stray_tmp.ok() && *stray_tmp != 0) {
    return SimFailure(where, std::to_string(*stray_tmp) +
                                 " stray .tmp file(s) in the IRS snapshot dir");
  }
  auto stray_exchange =
      RemoveMatchingFiles(coupling_options_.exchange_dir, "irs_result_", "");
  if (stray_exchange.ok() && *stray_exchange != 0) {
    return SimFailure(where, std::to_string(*stray_exchange) +
                                 " stray exchange file(s)");
  }
  return Status::OK();
}

std::string Simulation::IndexDiff(const irs::IrsCollection& coll) {
  // Post-mortem detail for a digest mismatch: per-document term/tf
  // maps of the surviving collection (all shards merged — keys are
  // disjoint across shards) vs a freshly built oracle, printed only
  // for documents whose contents differ.
  auto term_map = [](const irs::IrsCollection& c) {
    std::map<std::string, std::map<std::string, uint32_t>> by_key;
    for (size_t s = 0; s < c.num_shards(); ++s) {
      const irs::InvertedIndex& idx = c.shard(s);
      idx.ForEachDoc(
          [&](irs::DocId, const irs::DocInfo& info) { by_key[info.key]; });
      idx.ForEachTerm([&](const std::string& term,
                          const irs::BlockPostingsList& list) {
        auto postings = list.DecodeAll();
        if (!postings.ok()) return;  // best-effort post-mortem detail
        for (const irs::Posting& p : *postings) {
          if (!idx.IsAlive(p.doc)) continue;
          auto doc = idx.GetDoc(p.doc);
          if (doc.ok()) by_key[(*doc)->key][term] = p.tf;
        }
      });
    }
    return by_key;
  };
  auto model = irs::MakeModel("inquery");
  if (!model.ok()) return "";
  irs::IrsCollection oracle("oracle-diff", irs::AnalyzerOptions{},
                            std::move(*model));
  std::vector<Oid> members = db_->Extent("PARA");
  std::sort(members.begin(), members.end());
  for (Oid oid : members) {
    auto text = coupling_->GetText(oid, coupling::kTextModeSubtree);
    if (!text.ok()) return "";
    if (!oracle.AddDocument(oid.ToString(), *text).ok()) return "";
  }
  auto lhs = term_map(coll);
  auto rhs = term_map(oracle);
  std::string out;
  auto describe = [](const std::map<std::string, uint32_t>& terms) {
    std::string s = "{";
    for (const auto& [term, tf] : terms) {
      if (s.size() > 1) s += ' ';
      s += term + ":" + std::to_string(tf);
    }
    return s + "}";
  };
  for (const auto& [key, terms] : lhs) {
    auto it = rhs.find(key);
    if (it == rhs.end()) {
      out += "; doc " + key + " only in index " + describe(terms);
    } else if (it->second != terms) {
      out += "; doc " + key + " index=" + describe(terms) +
             " oracle=" + describe(it->second);
    }
  }
  for (const auto& [key, terms] : rhs) {
    if (lhs.count(key) == 0) {
      out += "; doc " + key + " only in oracle " + describe(terms);
    }
  }
  return out;
}

StatusOr<std::string> Simulation::OracleDigest() {
  // The oracle is what a sequential, fault-free indexer would build
  // from the current database ground truth: one document per live
  // spec-query member, keyed and analyzed exactly like the real
  // collection. DocId assignment and tombstone history differ wildly
  // from the survivor's — CanonicalDigest is independent of both.
  SDMS_ASSIGN_OR_RETURN(auto model, irs::MakeModel("inquery"));
  irs::IrsCollection oracle("oracle", irs::AnalyzerOptions{},
                            std::move(model));
  std::vector<Oid> members = db_->Extent("PARA");
  std::sort(members.begin(), members.end());
  for (Oid oid : members) {
    SDMS_ASSIGN_OR_RETURN(std::string text,
                          coupling_->GetText(oid, coupling::kTextModeSubtree));
    SDMS_RETURN_IF_ERROR(oracle.AddDocument(oid.ToString(), text));
  }
  return oracle.CanonicalDigest();
}

std::string Simulation::RandomText() {
  size_t words = 3 + rng_.Uniform(6);
  std::string text;
  for (size_t i = 0; i < words; ++i) {
    if (!text.empty()) text += ' ';
    text += kVocab[rng_.Uniform(kVocabSize)];
  }
  return text;
}

Oid Simulation::PickLiveOid() {
  std::vector<Oid> members = db_->Extent("PARA");
  if (members.empty()) return Oid();
  std::sort(members.begin(), members.end());
  return members[rng_.Uniform(members.size())];
}

void Simulation::Trace(const std::string& token) {
  if (!report_.trace.empty()) report_.trace += ' ';
  report_.trace += token;
}

StatusOr<SimReport> RunSchedule(const SimOptions& options) {
  Simulation sim(options);
  Status status = sim.Run();
  if (!status.ok()) {
    SDMS_LOG(ERROR) << "schedule seed=" << options.seed
                    << " failed: " << status.ToString()
                    << " trace: " << sim.report().trace;
    return status;
  }
  return sim.report();
}

}  // namespace sdms::sim
