// Shard fan-out benchmark: the same query mix against collections of
// 1 / 2 / 4 / 8 shards, served either in-process (local) or from one
// ShardServer process per shard over loopback RemoteShardChannels
// (remote), in three weather conditions:
//
//   healthy     — every shard answers;
//   one-dead    — the last shard is gone (local: persistent kIoError
//                 at its search point; remote: its server is shut
//                 down, so connects are refused);
//   one-stalled — the last shard answers after a 40ms stall (local:
//                 kLatency at the search point; remote: kLatency at
//                 the channel's net.shard<i>.stall point, above the
//                 channel's per-request deadline).
//
// The table demonstrates the two failure-domain contrasts of the
// remote transport: a dead shard costs a partial answer instead of
// the whole query (except at one shard, where it IS the whole
// query), and a *stalled* shard is where the transports genuinely
// differ — the local fan-out has no per-shard deadline, so a stalled
// shard silently inflates every "ok" answer; the remote channel's
// deadline surfaces it as an explicitly degraded answer with the
// stalled shard named failed. Note the injected stall sleeps on the
// calling thread before the request goes out, so the remote
// one-stalled latencies price the full stall rather than the
// deadline-bounded wait a genuinely unresponsive peer would cost.
//
// Artifacts: BENCH_shards.json carries the per-config latency
// histograms under bench.shards.latency_us.n<N>.<transport>.<mode>
// and the outcome counters / degraded-rate gauges next to them.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault/fault.h"
#include "common/query_context.h"
#include "coupling/remote_shard.h"
#include "irs/collection.h"
#include "irs/engine.h"
#include "server/shard_service.h"

namespace sdms::bench {
namespace {

constexpr int kQueriesPerConfig = 100;
// Stalled configs pay the stall (or its deadline) per query; fewer
// samples keep the bench's wall clock bounded without losing the tail.
constexpr int kQueriesStalled = 40;
constexpr uint64_t kStallMicros = 40'000;
// Remote per-request deadline: generous against a healthy loopback
// round trip (sub-millisecond here), decisively under the stall.
constexpr int64_t kRemoteSearchDeadlineMs = 25;

const char* kQueryMix[] = {"www", "document", "#or(www document)"};

enum class Mode { kHealthy, kOneDead, kOneStalled };

const char* ModeTag(Mode mode) {
  switch (mode) {
    case Mode::kHealthy: return "healthy";
    case Mode::kOneDead: return "one_dead";
    case Mode::kOneStalled: return "one_stalled";
  }
  return "?";
}

const char* ModeLabel(Mode mode) {
  switch (mode) {
    case Mode::kHealthy: return "healthy";
    case Mode::kOneDead: return "one-dead";
    case Mode::kOneStalled: return "one-stalled";
  }
  return "?";
}

struct ConfigResult {
  uint32_t shards = 0;
  bool remote = false;
  Mode mode = Mode::kHealthy;
  uint64_t ok = 0;
  uint64_t degraded = 0;  // answered, but with a non-kOk shard
  uint64_t failed = 0;    // no answer at all
  double p50_us = 0;
  double p99_us = 0;
};

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * double(sorted_us.size() - 1));
  return sorted_us[idx];
}

ConfigResult RunConfig(uint32_t shards, bool remote, Mode mode) {
  ConfigResult out;
  out.shards = shards;
  out.remote = remote;
  out.mode = mode;

  // The shard map is fixed at collection creation from SDMS_SHARDS.
  setenv("SDMS_SHARDS", std::to_string(shards).c_str(), 1);
  sgml::CorpusOptions corpus;
  corpus.num_docs = 24;
  corpus.seed = 42;
  coupling::CouplingOptions options;
  // Every query pays the real fan-out instead of a buffer hit, and the
  // guard backs off in microseconds so the bench measures fan-out and
  // failure-handling cost, not sleep time. The breaker's open window
  // is pinned so every config amortizes a dead/stalled shard the same
  // way (a handful of slow probes, the rest skipped instantly).
  options.disable_buffering = true;
  options.call_guard.retry.max_attempts = 2;
  options.call_guard.retry.initial_backoff_micros = 50;
  options.call_guard.retry.max_backoff_micros = 500;
  options.call_guard.breaker.open_micros = 500'000;

  // Declared before the system: the channels inside the collection
  // must be torn down before the servers they talk to.
  std::vector<std::unique_ptr<server::ShardServer>> servers;

  auto sys = MakeSystem(corpus, options);
  coupling::Collection* coll = MakeIndexedCollection(
      *sys, "paras", "ACCESS p FROM p IN PARA", coupling::kTextModeSubtree);

  auto& registry = fault::FaultRegistry::Instance();
  registry.Clear();

  if (remote) {
    auto irs_coll = sys->irs_engine->GetCollection("paras");
    if (!irs_coll.ok()) {
      std::fprintf(stderr, "bench_shards: %s\n",
                   irs_coll.status().ToString().c_str());
      std::abort();
    }
    for (uint32_t s = 0; s < shards; ++s) {
      server::ShardServerOptions so;
      so.port = 0;  // ephemeral loopback port
      so.io_timeout_ms = 2000;
      servers.push_back(std::make_unique<server::ShardServer>(so));
      Status started = servers.back()->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "bench_shards: %s\n", started.ToString().c_str());
        std::abort();
      }
      coupling::RemoteShardOptions ro;
      ro.port = servers.back()->port();
      ro.collection = "paras";
      ro.shard = s;
      ro.num_shards = shards;
      ro.model_name = (*irs_coll)->model().name();
      ro.analyzer = (*irs_coll)->analyzer().options();
      ro.search_deadline_ms = kRemoteSearchDeadlineMs;
      // Tight reconnect backoff: a refused connect costs microseconds,
      // not a scheduled multi-second wait, so the one-dead numbers
      // price the refusal itself.
      ro.backoff_min_ms = 1;
      ro.backoff_max_ms = 5;
      ro.jitter_seed = 42 + s;
      Status attached = coll->AttachRemoteShard(
          s, std::make_shared<coupling::RemoteShardChannel>(ro));
      if (!attached.ok()) {
        std::fprintf(stderr, "bench_shards: %s\n",
                     attached.ToString().c_str());
        std::abort();
      }
    }
  }

  // Arm the weather AFTER the attach/install handshake: setup runs
  // fault-free; the measured queries face the fault. The last shard is
  // targeted at every shard count, and for one shard it is the whole
  // collection — the failure-domain contrast the table is about.
  switch (mode) {
    case Mode::kHealthy:
      break;
    case Mode::kOneDead:
      if (remote) {
        servers.back()->Shutdown();
      } else {
        registry.SetSeed(42);
        fault::FaultRule rule;
        rule.kind = fault::FaultKind::kIoError;
        rule.probability = 1.0;
        registry.Arm(irs::ShardSearchFaultPoint(shards - 1), rule);
      }
      break;
    case Mode::kOneStalled: {
      registry.SetSeed(42);
      fault::FaultRule rule;
      rule.kind = fault::FaultKind::kLatency;
      rule.probability = 1.0;
      rule.latency_micros = kStallMicros;
      registry.Arm(remote ? coupling::ShardNetStallFaultPoint(shards - 1)
                          : irs::ShardSearchFaultPoint(shards - 1),
                   rule);
      break;
    }
  }

  const std::string tag = "n" + std::to_string(shards) +
                          (remote ? ".remote." : ".local.") + ModeTag(mode);
  obs::Histogram& latency_hist =
      obs::GetHistogram("bench.shards.latency_us." + tag);
  const int queries =
      mode == Mode::kOneStalled ? kQueriesStalled : kQueriesPerConfig;
  std::vector<double> latencies;
  latencies.reserve(queries);

  for (int i = 0; i < queries; ++i) {
    const char* query = kQueryMix[i % std::size(kQueryMix)];
    QueryContext ctx;
    QueryContext::Scope scope(&ctx);
    auto start = std::chrono::steady_clock::now();
    auto result = coll->GetIrsResult(query);
    double us = double(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    latencies.push_back(us);
    latency_hist.Record(us);
    if (!result.ok()) {
      ++out.failed;
      continue;
    }
    bool partial = false;
    for (const auto& entry : coll->last_shard_report()) {
      if (entry.state != ShardState::kOk) partial = true;
    }
    if (partial) {
      ++out.degraded;
    } else {
      ++out.ok;
    }
  }
  registry.Clear();

  std::sort(latencies.begin(), latencies.end());
  out.p50_us = Percentile(latencies, 0.50);
  out.p99_us = Percentile(latencies, 0.99);

  obs::GetCounter("bench.shards.ok." + tag).Add(out.ok);
  obs::GetCounter("bench.shards.degraded." + tag).Add(out.degraded);
  obs::GetCounter("bench.shards.failed." + tag).Add(out.failed);
  uint64_t total = out.ok + out.degraded + out.failed;
  obs::GetGauge("bench.shards.degraded_rate_pct." + tag)
      .Set(total ? static_cast<int64_t>(100 * out.degraded / total) : 0);

  // Local shutdown of remote servers before `sys` (and the channels it
  // owns) is NOT needed for correctness — channels tolerate a vanished
  // peer — but a quiet teardown keeps the bench output clean.
  for (auto& srv : servers) srv->Shutdown();
  return out;
}

void Run() {
  std::printf(
      "shards: %d queries/config (%d stalled), one faulted shard in "
      "one-dead/one-stalled runs, stall=%llums, remote deadline=%lldms\n\n",
      kQueriesPerConfig, kQueriesStalled,
      static_cast<unsigned long long>(kStallMicros / 1000),
      static_cast<long long>(kRemoteSearchDeadlineMs));
  Table table({"shards", "transport", "mode", "ok", "degraded", "failed",
               "degr-rate", "p50-us", "p99-us"});
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (bool remote : {false, true}) {
      for (Mode mode :
           {Mode::kHealthy, Mode::kOneDead, Mode::kOneStalled}) {
        ConfigResult r = RunConfig(shards, remote, mode);
        uint64_t total = r.ok + r.degraded + r.failed;
        table.AddRow({FmtInt(r.shards), remote ? "remote" : "local",
                      ModeLabel(mode), FmtInt(r.ok), FmtInt(r.degraded),
                      FmtInt(r.failed),
                      Fmt("%.2f", total ? double(r.degraded) / double(total)
                                        : 0.0),
                      Fmt("%.0f", r.p50_us), Fmt("%.0f", r.p99_us)});
      }
    }
  }
  unsetenv("SDMS_SHARDS");
  table.Print();
}

}  // namespace
}  // namespace sdms::bench

int main() {
  sdms::bench::Run();
  sdms::bench::EmitMetricsJson("shards");
  return 0;
}
