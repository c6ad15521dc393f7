// Remote shard transport tests: the tentpole contract of multi-node
// collections.
//
//   1. Oracle: a shard served by a remote `sdms_server --shard`
//      process ranks BIT-identically to the in-process SearchShard of
//      the same plan — across shard counts, through tombstones, and
//      after a shard-server crash/restart or a healed partition (both
//      caught up by a full install, exactly-once with respect to the
//      server's applied-seq floor).
//   2. Fault matrix: any single network fault class (connect, read,
//      stall, partition) on one shard degrades that shard only — the
//      query answers partially with the failed shard named, never
//      fails outright.
//   3. Version negotiation: a v2-style client against a v3 shard
//      server — and a v3 shard hello against the main server — is a
//      typed kFailedPrecondition in both directions, never a parse
//      crash.
//   4. SdmsClient retry semantics: connection-refused retries always;
//      a mid-stream disconnect on a non-idempotent request surfaces a
//      typed "result unknown" error instead of silently re-sending.
//   5. Rebalancing: Reshard(N->M) preserves the canonical digest and
//      the rankings; it is refused while remote channels are attached.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault/fault.h"
#include "common/net/frame.h"
#include "common/net/socket.h"
#include "common/obs/metrics.h"
#include "common/query_context.h"
#include "coupling/remote_shard.h"
#include "coupling/shard_protocol.h"
#include "coupling_test_util.h"
#include "irs/collection.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/shard_service.h"

namespace sdms::coupling {
namespace {

using testutil::MakeFigure4System;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::unique_ptr<irs::IrsCollection> MakeLocalCollection(
    const std::string& name, uint32_t shards) {
  auto model = irs::MakeModel("inquery");
  EXPECT_TRUE(model.ok());
  auto coll = std::make_unique<irs::IrsCollection>(
      name, irs::AnalyzerOptions{}, std::move(*model), 1);
  EXPECT_TRUE(coll->SetNumShards(shards).ok());
  return coll;
}

/// Deterministic corpus mirroring shard_oracle_test: a common term,
/// a singleton term (most shards answer it empty), and a spread of
/// mid-frequency terms.
void FillCorpus(irs::IrsCollection& coll, int docs = 60) {
  const std::vector<std::string> vocab = {
      "alpha", "beta",  "gamma", "delta", "epsilon",
      "zeta",  "theta", "iota",  "kappa", "lambda"};
  for (int i = 0; i < docs; ++i) {
    std::string text = vocab[i % 10] + " " + vocab[(i * 3 + 1) % 10] + " " +
                       vocab[(i * 7 + 4) % 10] + " omega";
    if (i == 17 % docs) text += " unicorn";
    ASSERT_TRUE(coll.AddDocument("oid:" + std::to_string(i), text).ok())
        << "doc " << i;
  }
}

const std::vector<std::string> kOracleQueries = {
    "omega", "unicorn", "alpha", "#or(alpha beta)", "nosuchterm"};

std::unique_ptr<server::ShardServer> StartShardServer(uint16_t port = 0) {
  server::ShardServerOptions opts;
  opts.port = port;
  opts.io_timeout_ms = 2000;
  auto srv = std::make_unique<server::ShardServer>(opts);
  EXPECT_TRUE(srv->Start().ok());
  return srv;
}

/// Channel options tuned for tests: short timeouts, near-zero backoff
/// (the healed-path assertions reconnect immediately), pinned jitter.
RemoteShardOptions FastChannelOptions(uint16_t port, const std::string& coll,
                                      uint32_t shard, uint32_t num_shards) {
  RemoteShardOptions o;
  o.port = port;
  o.collection = coll;
  o.shard = shard;
  o.num_shards = num_shards;
  o.connect_timeout_ms = 500;
  o.io_timeout_ms = 1000;
  o.search_deadline_ms = 500;
  o.backoff_min_ms = 1;
  o.backoff_max_ms = 5;
  o.jitter_seed = 7;
  return o;
}

void ExpectHitsBitIdentical(const std::vector<irs::SearchHit>& want,
                            const std::vector<irs::SearchHit>& got,
                            const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << where << " rank " << i;
    // Bit-identical, not approximately-equal: the wire carries raw
    // 8-byte doubles precisely so this holds.
    EXPECT_EQ(got[i].score, want[i].score) << where << " rank " << i;
  }
}

class RemoteShardTest : public testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Instance().Clear();
    fault::FaultRegistry::Instance().SetSeed(42);
  }
  void TearDown() override { fault::FaultRegistry::Instance().Clear(); }
};

// ---------------------------------------------------------------------------
// Channel-level oracle: remote SearchShard == local SearchShard
// ---------------------------------------------------------------------------

TEST_F(RemoteShardTest, RemoteSearchBitIdenticalAcrossShardCounts) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    auto local = MakeLocalCollection("oracle", shards);
    FillCorpus(*local);
    std::vector<std::unique_ptr<server::ShardServer>> servers;
    std::vector<std::unique_ptr<RemoteShardChannel>> channels;
    for (uint32_t s = 0; s < shards; ++s) {
      servers.push_back(StartShardServer());
      channels.push_back(std::make_unique<RemoteShardChannel>(
          FastChannelOptions(servers[s]->port(), "oracle", s, shards)));
      Status synced = channels[s]->EnsureSynced(local.get());
      ASSERT_TRUE(synced.ok())
          << "shards=" << shards << " shard=" << s << ": "
          << synced.ToString();
      EXPECT_TRUE(channels[s]->synced());
    }
    for (const std::string& query : kOracleQueries) {
      for (size_t k : {size_t{0}, size_t{5}}) {
        auto plan = local->PrepareSearch(query, k);
        ASSERT_TRUE(plan.ok()) << query;
        for (uint32_t s = 0; s < shards; ++s) {
          auto want = local->SearchShard(*plan, s);
          ASSERT_TRUE(want.ok());
          auto got = channels[s]->Search(query, *plan, local.get());
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectHitsBitIdentical(*want, *got,
                                 "shards=" + std::to_string(shards) +
                                     " shard=" + std::to_string(s) +
                                     " query '" + query + "' k=" +
                                     std::to_string(k));
        }
      }
    }
    // Tombstones: deletes must reach the remote side before the next
    // search answers (here via the op push path).
    for (int i = 0; i < 60; i += 7) {
      std::string key = "oid:" + std::to_string(i);
      uint32_t s = local->ShardOfKey(key);
      ASSERT_TRUE(local->RemoveDocument(key).ok());
      ShardOp op;
      op.is_delete = true;
      op.key = key;
      ASSERT_TRUE(channels[s]->PushOps({op}, 0, local.get()).ok()) << key;
    }
    for (const std::string& query : kOracleQueries) {
      auto plan = local->PrepareSearch(query, 0);
      ASSERT_TRUE(plan.ok());
      for (uint32_t s = 0; s < shards; ++s) {
        auto want = local->SearchShard(*plan, s);
        auto got = channels[s]->Search(query, *plan, local.get());
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectHitsBitIdentical(*want, *got,
                               "tombstoned shards=" + std::to_string(shards) +
                                   " query '" + query + "'");
      }
    }
    for (auto& srv : servers) srv->Shutdown();
  }
}

TEST_F(RemoteShardTest, CrashRestartCatchesUpByInstall) {
  auto local = MakeLocalCollection("crash", 1);
  FillCorpus(*local);
  auto server = StartShardServer();
  uint16_t port = server->port();
  RemoteShardChannel channel(FastChannelOptions(port, "crash", 0, 1));
  ASSERT_TRUE(channel.EnsureSynced(local.get()).ok());
  ASSERT_EQ(channel.stats().catchup_installs, 1u);
  ASSERT_EQ(server->doc_count(), local->doc_count());

  // Crash: the server process dies; its state is gone (the shard
  // server is deliberately stateless across restarts).
  server->Shutdown();
  server.reset();
  server = StartShardServer(port);  // restart on the same endpoint

  // The channel still believes in its old connection — the first call
  // fails in the transport class (the per-shard CallGuard owns the
  // retry at the coupling layer)...
  auto plan = local->PrepareSearch("omega", 0);
  ASSERT_TRUE(plan.ok());
  auto first = channel.Search("omega", *plan, local.get());
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().code() == StatusCode::kIoError ||
              first.status().IsNotFound() ||
              first.status().IsDeadlineExceeded())
      << first.status().ToString();

  // ...and the next one reconnects, sees the restarted server at
  // applied_seq 0, and catches it up by a full install.
  auto second = channel.Search("omega", *plan, local.get());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(channel.stats().catchup_installs, 2u);
  EXPECT_EQ(server->doc_count(), local->doc_count());
  auto want = local->SearchShard(*plan, 0);
  ASSERT_TRUE(want.ok());
  ExpectHitsBitIdentical(*want, *second, "after crash/restart");
  server->Shutdown();
}

TEST_F(RemoteShardTest, FailedPushCatchesUpByInstallExactlyOnce) {
  auto local = MakeLocalCollection("heal", 1);
  FillCorpus(*local, 20);
  auto server = StartShardServer();
  RemoteShardChannel channel(
      FastChannelOptions(server->port(), "heal", 0, 1));
  ASSERT_TRUE(channel.EnsureSynced(local.get()).ok());

  // Sequenced updates applied locally; the matching push hits a
  // partition, so only the local side advances.
  fault::FaultRule partition;
  partition.kind = fault::FaultKind::kIoError;
  partition.probability = 1.0;
  fault::FaultRegistry::Instance().Arm(ShardNetPartitionFaultPoint(0),
                                       partition);
  std::vector<ShardOp> ops;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ShardOp op;
    op.key = "late:" + std::to_string(seq);
    op.text = "omega nu xi seq" + std::to_string(seq);
    op.seq = seq;
    ASSERT_TRUE(local->AddDocument(op.key, op.text).ok());
    local->set_shard_applied_seq(0, seq);
    ops.push_back(op);
  }
  Status pushed = channel.PushOps(ops, 3, local.get());
  ASSERT_FALSE(pushed.ok());
  EXPECT_FALSE(channel.synced());
  ASSERT_EQ(server->applied_seq(), 0u) << "partitioned push must not land";

  // Heal the partition: the next search sees the server behind and
  // catches it up by a second full install — the only catch-up path —
  // and the shard answers the post-update ranking.
  fault::FaultRegistry::Instance().Clear();
  auto plan = local->PrepareSearch("omega", 0);
  ASSERT_TRUE(plan.ok());
  auto hits = channel.Search("omega", *plan, local.get());
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(channel.stats().catchup_installs, 2u);
  EXPECT_EQ(server->applied_seq(), 3u);
  EXPECT_EQ(server->doc_count(), local->doc_count());
  auto want = local->SearchShard(*plan, 0);
  ASSERT_TRUE(want.ok());
  ExpectHitsBitIdentical(*want, *hits, "after install catch-up");

  // Exactly-once: re-delivering the same sequenced batch is a no-op —
  // the server's floor filters every duplicate.
  uint64_t skipped0 = obs::GetCounter("shard_server.ops_skipped").value();
  uint64_t docs0 = server->doc_count();
  ASSERT_TRUE(channel.PushOps(ops, 3, local.get()).ok());
  EXPECT_EQ(obs::GetCounter("shard_server.ops_skipped").value(),
            skipped0 + 3);
  EXPECT_EQ(server->doc_count(), docs0);
  EXPECT_EQ(server->applied_seq(), 3u);
  server->Shutdown();
}

TEST_F(RemoteShardTest, DocTableMismatchWithEqualDocCountIsInstalled) {
  auto local = MakeLocalCollection("table", 1);
  FillCorpus(*local, 20);
  local->set_shard_applied_seq(0, 5);
  auto server = StartShardServer();
  RemoteShardChannel channel(
      FastChannelOptions(server->port(), "table", 0, 1));
  ASSERT_TRUE(channel.EnsureSynced(local.get()).ok());
  ASSERT_EQ(channel.stats().catchup_installs, 1u);

  // A lost delete plus a lost insert under the same applied seq: the
  // peer's live doc count and seq still match, its doc table does not.
  const uint64_t docs = local->shard(0).doc_count();
  const uint64_t table = local->shard(0).doc_table_size();
  ASSERT_TRUE(local->RemoveDocument("oid:3").ok());
  ASSERT_TRUE(local->AddDocument("oid:99", "omega unicorn zeta").ok());
  ASSERT_EQ(local->shard(0).doc_count(), docs);
  ASSERT_EQ(local->shard_applied_seq(0), 5u);
  ASSERT_EQ(server->doc_count(), docs);
  ASSERT_EQ(server->applied_seq(), 5u);
  ASSERT_NE(local->shard(0).doc_table_size(), table);

  // The next search re-hellos, sees the table differ, and installs.
  channel.MarkUnsynced();
  for (const std::string& q : kOracleQueries) {
    auto plan = local->PrepareSearch(q, 0);
    ASSERT_TRUE(plan.ok());
    auto got = channel.Search(q, *plan, local.get());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = local->SearchShard(*plan, 0);
    ASSERT_TRUE(want.ok());
    ExpectHitsBitIdentical(*want, *got, "after doc-table install: " + q);
  }
  EXPECT_EQ(channel.stats().catchup_installs, 2u);
  EXPECT_TRUE(channel.synced());
  // In step again: a further re-hello installs nothing.
  channel.MarkUnsynced();
  ASSERT_TRUE(channel.EnsureSynced(local.get()).ok());
  EXPECT_EQ(channel.stats().catchup_installs, 2u);
  server->Shutdown();
}

// ---------------------------------------------------------------------------
// Coupling-level: scatter-gather over remote shards
// ---------------------------------------------------------------------------

CouplingOptions FastGuardOptions() {
  CouplingOptions options;
  options.call_guard.retry.max_attempts = 2;
  options.call_guard.retry.initial_backoff_micros = 1;
  options.call_guard.retry.max_backoff_micros = 10;
  options.call_guard.breaker.failure_threshold = 16;
  options.call_guard.jitter_seed = 7;
  return options;
}

/// A Figure-4 system with SDMS_SHARDS=3 whose 'paras' collection is
/// served by three in-process ShardServers over real loopback sockets.
struct RemoteFixture {
  std::unique_ptr<testutil::CoupledSystem> sys;
  Collection* coll = nullptr;
  irs::IrsCollection* irs_coll = nullptr;
  std::vector<std::unique_ptr<server::ShardServer>> servers;
  OidScoreMap complete;  // the fault-free answer for "www"

  ~RemoteFixture() {
    if (coll != nullptr) coll->DetachRemoteShards();
    for (auto& srv : servers) srv->Shutdown();
  }
};

std::unique_ptr<RemoteFixture> MakeRemoteFixture() {
  auto fx = std::make_unique<RemoteFixture>();
  fx->sys = MakeFigure4System(FastGuardOptions());
  fx->coll = *fx->sys->coupling->GetCollectionByName("paras");
  fx->irs_coll = *fx->sys->irs_engine->GetCollection("paras");
  EXPECT_EQ(fx->irs_coll->num_shards(), 3u);

  auto complete_or = fx->coll->GetIrsResult("www");
  EXPECT_TRUE(complete_or.ok());
  fx->complete = **complete_or;
  fx->coll->buffer().Clear();

  std::string endpoints;
  for (uint32_t s = 0; s < 3; ++s) {
    fx->servers.push_back(StartShardServer());
    if (s > 0) endpoints += ",";
    endpoints += "127.0.0.1:" + std::to_string(fx->servers[s]->port());
  }
  EXPECT_TRUE(
      fx->sys->coupling->ConnectRemoteShards("paras", endpoints).ok());
  for (uint32_t s = 0; s < 3; ++s) {
    RemoteShardChannel* ch = fx->coll->remote_shard_channel(s);
    EXPECT_NE(ch, nullptr);
    if (ch != nullptr) {
      EXPECT_TRUE(ch->synced()) << "shard " << s;
    }
  }
  return fx;
}

/// Re-queries until the fan-out answers completely (reconnect backoff
/// and breaker cooldowns make the first healed query nondeterministic).
void ExpectEventuallyComplete(RemoteFixture& fx, const OidScoreMap& want) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    fx.coll->buffer().Clear();
    bool stale = false;
    auto got = fx.coll->GetIrsResult("www", &stale);
    if (got.ok() && **got == want) {
      bool all_ok = true;
      for (const ShardStatusEntry& e : fx.coll->last_shard_report()) {
        all_ok = all_ok && e.state == ShardState::kOk;
      }
      if (all_ok) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  FAIL() << "fan-out never healed back to the complete answer";
}

class RemoteCouplingTest : public testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Instance().Clear();
    fault::FaultRegistry::Instance().SetSeed(42);
    ::setenv("SDMS_SHARDS", "3", 1);
  }
  void TearDown() override {
    fault::FaultRegistry::Instance().Clear();
    ::unsetenv("SDMS_SHARDS");
  }
};

TEST_F(RemoteCouplingTest, RemoteFanOutMatchesInProcessResults) {
  auto fx = MakeRemoteFixture();
  bool stale = false;
  auto remote_or = fx->coll->GetIrsResult("www", &stale);
  ASSERT_TRUE(remote_or.ok()) << remote_or.status().ToString();
  EXPECT_FALSE(stale);
  EXPECT_EQ(**remote_or, fx->complete)
      << "remote fan-out must be bit-identical to the in-process answer";
  for (const ShardStatusEntry& e : fx->coll->last_shard_report()) {
    EXPECT_EQ(e.state, ShardState::kOk) << "shard " << e.shard;
  }
  // Every shard server now mirrors its slice exactly.
  uint64_t total = 0;
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(fx->servers[s]->doc_count(),
              fx->irs_coll->shard(s).doc_count())
        << "shard " << s;
    total += fx->servers[s]->doc_count();
  }
  EXPECT_EQ(total, fx->irs_coll->doc_count());
}

TEST_F(RemoteCouplingTest, UpdatesTeeToRemoteShardsThroughPropagation) {
  auto fx = MakeRemoteFixture();
  ASSERT_TRUE(fx->coll->GetIrsResult("www").ok());

  // Mutate through the database: delete one document subtree (its
  // paragraphs tombstone) — propagation applies locally and tees the
  // materialized ops to the shard servers.
  ASSERT_TRUE(fx->sys->coupling->DeleteSubtree(fx->sys->roots[0]).ok());
  fx->coll->buffer().Clear();
  auto after_or = fx->coll->GetIrsResult("www");
  ASSERT_TRUE(after_or.ok()) << after_or.status().ToString();
  OidScoreMap remote_answer = **after_or;
  for (const ShardStatusEntry& e : fx->coll->last_shard_report()) {
    ASSERT_EQ(e.state, ShardState::kOk) << "shard " << e.shard;
  }
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(fx->servers[s]->applied_seq(),
              fx->irs_coll->shard_applied_seq(s))
        << "shard " << s;
    EXPECT_EQ(fx->servers[s]->doc_count(), fx->irs_coll->shard(s).doc_count())
        << "shard " << s;
  }

  // Oracle: detaching and re-running in-process yields the same map.
  fx->coll->DetachRemoteShards();
  fx->coll->buffer().Clear();
  auto local_or = fx->coll->GetIrsResult("www");
  ASSERT_TRUE(local_or.ok());
  EXPECT_EQ(remote_answer, **local_or)
      << "teed remote state must rank like the local index";
}

TEST_F(RemoteCouplingTest, NetworkFaultMatrixDegradesOneShardOnly) {
  struct Scenario {
    const char* name;
    fault::FaultKind kind;
    uint64_t latency_micros;
  };
  const std::vector<Scenario> scenarios = {
      {"connect", fault::FaultKind::kIoError, 0},
      {"read", fault::FaultKind::kIoError, 0},
      {"stall", fault::FaultKind::kLatency, 2'600'000},
      {"partition", fault::FaultKind::kIoError, 0},
  };
  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    fault::FaultRegistry::Instance().Clear();
    auto fx = MakeRemoteFixture();

    const char* point = nullptr;
    if (std::string(sc.name) == "connect") {
      // A connect fault only bites on a closed connection.
      fx->coll->remote_shard_channel(1)->Close();
      point = ShardNetConnectFaultPoint(1);
    } else if (std::string(sc.name) == "read") {
      point = ShardNetReadFaultPoint(1);
    } else if (std::string(sc.name) == "stall") {
      point = ShardNetStallFaultPoint(1);
    } else {
      point = ShardNetPartitionFaultPoint(1);
    }
    fault::FaultRule rule;
    rule.kind = sc.kind;
    rule.probability = 1.0;
    rule.latency_micros = sc.latency_micros;
    fault::FaultRegistry::Instance().Arm(point, rule);

    // The stall's injected latency exceeds the channel's own search
    // deadline (2000ms default), so the stalled round trip expires its
    // budget exactly like a wedged peer; the channel deadlines bound
    // the other scenarios. The caller deadline only backstops the
    // whole matrix.
    QueryContext ctx;
    ctx.SetDeadlineAfterMs(30'000);
    QueryContext::Scope scope(&ctx);
    bool stale = false;
    auto partial_or = fx->coll->GetIrsResult("www", &stale);
    ASSERT_TRUE(partial_or.ok())
        << sc.name << ": one faulted shard must degrade the query, not "
        << "fail it: " << partial_or.status().ToString();
    EXPECT_FALSE(stale);

    const std::vector<ShardStatusEntry>& report =
        fx->coll->last_shard_report();
    ASSERT_EQ(report.size(), 3u);
    EXPECT_EQ(report[0].state, ShardState::kOk) << sc.name;
    EXPECT_EQ(report[2].state, ShardState::kOk) << sc.name;
    EXPECT_NE(report[1].state, ShardState::kOk)
        << sc.name << ": the faulted shard must be reported";
    EXPECT_EQ(report[1].collection, "paras");

    // Every surviving score is bit-identical to the complete answer.
    for (const auto& [oid, score] : **partial_or) {
      auto it = fx->complete.find(oid);
      ASSERT_NE(it, fx->complete.end()) << sc.name;
      EXPECT_EQ(it->second, score) << sc.name;
    }

    // Heal: clear the fault and the fan-out converges back to the
    // complete answer (reconnect + re-sync happen on the query path).
    fault::FaultRegistry::Instance().Clear();
    ExpectEventuallyComplete(*fx, fx->complete);
  }
}

TEST_F(RemoteCouplingTest, ShardServerKillAndRestartHealsViaCatchUp) {
  auto fx = MakeRemoteFixture();
  ASSERT_TRUE(fx->coll->GetIrsResult("www").ok());
  fx->coll->buffer().Clear();

  // Kill shard 1's server outright.
  uint16_t port = fx->servers[1]->port();
  fx->servers[1]->Shutdown();
  fx->servers[1].reset();

  bool stale = false;
  auto degraded_or = fx->coll->GetIrsResult("www", &stale);
  ASSERT_TRUE(degraded_or.ok())
      << "a dead shard server must degrade, not fail: "
      << degraded_or.status().ToString();
  const std::vector<ShardStatusEntry>& report = fx->coll->last_shard_report();
  ASSERT_EQ(report.size(), 3u);
  EXPECT_NE(report[1].state, ShardState::kOk);
  EXPECT_FALSE(report[1].detail.empty());
  EXPECT_EQ(fx->coll->stats().shard_degraded_queries, 1u);

  // Restart on the same endpoint: the handshake sees applied_seq 0 and
  // reinstalls; queries heal to the complete answer.
  fx->servers[1] = StartShardServer(port);
  ExpectEventuallyComplete(*fx, fx->complete);
  EXPECT_EQ(fx->servers[1]->doc_count(), fx->irs_coll->shard(1).doc_count());
  EXPECT_EQ(fx->servers[1]->applied_seq(),
            fx->irs_coll->shard_applied_seq(1));
}

// ---------------------------------------------------------------------------
// Rebalancing
// ---------------------------------------------------------------------------

TEST_F(RemoteShardTest, ReshardPreservesDigestAndRankings) {
  auto reference = MakeLocalCollection("reference", 1);
  FillCorpus(*reference);
  for (int i = 0; i < 60; i += 11) {
    ASSERT_TRUE(reference->RemoveDocument("oid:" + std::to_string(i)).ok());
  }
  // Reshard rebuilds every shard from live documents, which purges
  // tombstone residue from the collection statistics — the reference
  // must be compacted the same way for scores to compare bit-exactly.
  reference->CompactIndex();
  for (const auto& [from, to] : std::vector<std::pair<uint32_t, uint32_t>>{
           {2, 4}, {4, 2}, {1, 3}, {3, 1}}) {
    auto coll = MakeLocalCollection("reshard", from);
    FillCorpus(*coll);
    for (int i = 0; i < 60; i += 11) {
      ASSERT_TRUE(coll->RemoveDocument("oid:" + std::to_string(i)).ok());
    }
    std::string digest = coll->CanonicalDigest();
    ASSERT_TRUE(coll->Reshard(to).ok()) << from << "->" << to;
    EXPECT_EQ(coll->num_shards(), to);
    EXPECT_EQ(coll->CanonicalDigest(), digest) << from << "->" << to;
    for (const std::string& query : kOracleQueries) {
      auto want = reference->Search(query, 0);
      auto got = coll->Search(query, 0);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ExpectHitsBitIdentical(*want, *got,
                             "reshard " + std::to_string(from) + "->" +
                                 std::to_string(to) + " '" + query + "'");
    }
  }
}

TEST_F(RemoteCouplingTest, ReshardRefusedWhileRemoteShardsAttached) {
  auto fx = MakeRemoteFixture();
  Status blocked = fx->coll->ReshardIrs(2);
  EXPECT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.code() == StatusCode::kFailedPrecondition) << blocked.ToString();
  EXPECT_EQ(fx->irs_coll->num_shards(), 3u) << "refusal must not mutate";

  // Detach -> reshard -> the same answers at the new layout.
  fx->coll->DetachRemoteShards();
  std::string digest = fx->irs_coll->CanonicalDigest();
  ASSERT_TRUE(fx->coll->ReshardIrs(2).ok());
  EXPECT_EQ(fx->irs_coll->num_shards(), 2u);
  EXPECT_EQ(fx->irs_coll->CanonicalDigest(), digest);
  fx->coll->buffer().Clear();
  auto after_or = fx->coll->GetIrsResult("www");
  ASSERT_TRUE(after_or.ok());
  EXPECT_EQ(**after_or, fx->complete);
}

// ---------------------------------------------------------------------------
// Version negotiation: typed errors in both directions
// ---------------------------------------------------------------------------

/// Reads one frame and decodes the expected typed error answer.
Status ReadTypedError(int fd) {
  auto frame = net::ReadFrame(fd, 2000, 2000, net::kDefaultMaxFrameBytes);
  if (!frame.ok()) return frame.status();
  if (frame->type != net::FrameType::kError) {
    return Status::Internal(std::string("expected error frame, got ") +
                            net::FrameTypeName(frame->type));
  }
  auto err = server::DecodeErrorResponse(frame->payload);
  if (!err.ok()) return err.status();
  return server::AsStatus(*err);
}

TEST_F(RemoteShardTest, MainHelloAgainstShardServerIsTypedMismatch) {
  auto shard_server = StartShardServer();
  auto fd = net::ConnectTcp("127.0.0.1", shard_server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  server::Hello hello;
  hello.peer = "v2_client";
  ASSERT_TRUE(net::WriteFrame(*fd, net::FrameType::kHello,
                              server::EncodeHello(hello), 1000,
                              net::kDefaultMaxFrameBytes)
                  .ok());
  Status answer = ReadTypedError(*fd);
  EXPECT_TRUE(answer.code() == StatusCode::kFailedPrecondition) << answer.ToString();
  net::CloseFd(*fd);
  shard_server->Shutdown();
}

TEST_F(RemoteShardTest, OldProtocolShardHelloIsTypedVersionMismatch) {
  auto shard_server = StartShardServer();
  auto fd = net::ConnectTcp("127.0.0.1", shard_server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  ShardHello hello;
  hello.protocol_version = 2;  // a router one protocol generation back
  hello.collection = "paras";
  ASSERT_TRUE(net::WriteFrame(*fd, net::FrameType::kShardHello,
                              EncodeShardHello(hello), 1000,
                              net::kDefaultMaxFrameBytes)
                  .ok());
  Status answer = ReadTypedError(*fd);
  EXPECT_TRUE(answer.code() == StatusCode::kFailedPrecondition) << answer.ToString();
  EXPECT_NE(answer.ToString().find("version"), std::string::npos)
      << answer.ToString();
  net::CloseFd(*fd);
  shard_server->Shutdown();
}

TEST_F(RemoteCouplingTest, ShardHelloAgainstMainServerIsTypedMismatch) {
  auto sys = MakeFigure4System();
  server::ServerOptions options;
  server::Server main_server(sys->coupling.get(), options);
  ASSERT_TRUE(main_server.Start().ok());

  // Direction router -> v2 server, at the raw frame level: the main
  // session's hello-first state machine answers typed.
  auto fd = net::ConnectTcp("127.0.0.1", main_server.port(), 1000);
  ASSERT_TRUE(fd.ok());
  ShardHello hello;
  hello.collection = "paras";
  ASSERT_TRUE(net::WriteFrame(*fd, net::FrameType::kShardHello,
                              EncodeShardHello(hello), 1000,
                              net::kDefaultMaxFrameBytes)
                  .ok());
  Status answer = ReadTypedError(*fd);
  EXPECT_TRUE(answer.code() == StatusCode::kFailedPrecondition) << answer.ToString();
  net::CloseFd(*fd);

  // The same direction through the real client: a channel pointed at a
  // main-protocol server gets the typed refusal, not a crash, and the
  // failure counts as a connect failure (backoff applies).
  auto local = MakeLocalCollection("paras", 1);
  RemoteShardChannel channel(
      FastChannelOptions(main_server.port(), "paras", 0, 1));
  Status synced = channel.EnsureSynced(local.get());
  EXPECT_FALSE(synced.ok());
  EXPECT_TRUE(synced.code() == StatusCode::kFailedPrecondition) << synced.ToString();
  EXPECT_FALSE(channel.connected());
  main_server.Shutdown();
}

// ---------------------------------------------------------------------------
// SdmsClient: connection-refused vs mid-stream disconnect
// ---------------------------------------------------------------------------

/// A hostile server: completes the hello handshake, reads the request
/// frame, then drops the connection — the mid-stream disconnect whose
/// outcome the client cannot know.
class MidStreamDropServer {
 public:
  MidStreamDropServer() {
    auto lfd = net::ListenTcp("127.0.0.1", 0);
    EXPECT_TRUE(lfd.ok());
    listen_fd_ = *lfd;
    auto port = net::LocalPort(listen_fd_);
    EXPECT_TRUE(port.ok());
    port_ = *port;
    thread_ = std::thread([this] { Loop(); });
  }
  ~MidStreamDropServer() {
    stop_.store(true);
    net::ShutdownFd(listen_fd_);
    thread_.join();
    net::CloseFd(listen_fd_);
  }
  uint16_t port() const { return port_; }
  int requests_seen() const {
    return requests_seen_.load(std::memory_order_relaxed);
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      auto fd = net::AcceptConn(listen_fd_, 100);
      if (!fd.ok()) continue;
      auto hello = net::ReadFrame(*fd, 1000, 1000,
                                  net::kDefaultMaxFrameBytes);
      if (hello.ok() && hello->type == net::FrameType::kHello) {
        server::Hello answer;
        answer.peer = "drop_server";
        net::WriteFrame(*fd, net::FrameType::kHello,
                        server::EncodeHello(answer), 1000,
                        net::kDefaultMaxFrameBytes)
            .ok();
        auto request = net::ReadFrame(*fd, 2000, 1000,
                                      net::kDefaultMaxFrameBytes);
        if (request.ok() && request->type == net::FrameType::kQuery) {
          requests_seen_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      net::CloseFd(*fd);  // mid-stream drop: request read, no answer
    }
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> requests_seen_{0};
  std::thread thread_;
};

server::ClientOptions FastClientOptions(uint16_t port) {
  server::ClientOptions options;
  options.port = port;
  options.connect_timeout_ms = 500;
  options.io_timeout_ms = 1000;
  options.response_timeout_ms = 2000;
  options.guard.retry.max_attempts = 3;
  options.guard.retry.initial_backoff_micros = 100;
  options.guard.retry.max_backoff_micros = 1000;
  options.guard.breaker.failure_threshold = 100;
  options.guard.jitter_seed = 7;
  return options;
}

TEST_F(RemoteShardTest, ClientMidStreamDisconnectNonIdempotentIsTyped) {
  MidStreamDropServer drop_server;
  server::SdmsClient client(FastClientOptions(drop_server.port()));
  server::QueryRequest req;
  req.vql = "ACCESS p FROM p IN PARA";
  auto result = client.Query(req, /*idempotent=*/false);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kFailedPrecondition)
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("result unknown"),
            std::string::npos)
      << result.status().ToString();
  // The decisive property: the request went out exactly once — no
  // silent re-send of a request the server may have executed.
  EXPECT_EQ(drop_server.requests_seen(), 1);
  EXPECT_EQ(client.guard_stats().retries, 0u);
}

TEST_F(RemoteShardTest, ClientMidStreamDisconnectIdempotentRetries) {
  MidStreamDropServer drop_server;
  server::SdmsClient client(FastClientOptions(drop_server.port()));
  server::QueryRequest req;
  req.vql = "ACCESS p FROM p IN PARA";
  auto result = client.Query(req);  // idempotent by default: read-only
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(result.status().code() == StatusCode::kFailedPrecondition)
      << result.status().ToString();
  EXPECT_GE(client.guard_stats().retries, 1u)
      << "read-only queries replay on a fresh connection";
  EXPECT_GE(drop_server.requests_seen(), 2);
}

TEST_F(RemoteShardTest, ClientConnectRefusedRetriesEvenWhenNonIdempotent) {
  // Reserve a port with no listener: connects are refused, so the
  // request was never sent and replaying is always safe.
  auto lfd = net::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(lfd.ok());
  auto port = net::LocalPort(*lfd);
  ASSERT_TRUE(port.ok());
  net::CloseFd(*lfd);

  server::SdmsClient client(FastClientOptions(*port));
  server::QueryRequest req;
  req.vql = "ACCESS p FROM p IN PARA";
  auto result = client.Query(req, /*idempotent=*/false);
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(result.status().code() == StatusCode::kFailedPrecondition)
      << "refused connects predate the request; they stay retriable: "
      << result.status().ToString();
  EXPECT_GE(client.guard_stats().retries, 1u);
}

}  // namespace
}  // namespace sdms::coupling
