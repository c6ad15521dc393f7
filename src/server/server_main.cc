// sdms_server: the network front-end of the coupled system.
//
//   $ ./sdms_server --demo --port 4646
//   listening on port 4646
//
// Loads a corpus (--demo: the Figure 4 corpus; --gen N [seed]: a
// generated one) with an indexed 'paras' collection, then serves the
// sdms protocol (docs/protocol.md) until SIGTERM/SIGINT triggers a
// graceful drain: accepting stops, in-flight queries finish (or are
// cancelled at the drain deadline), the metrics dump and the slow-query
// log are flushed, and the process exits 0.

#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/file_util.h"
#include "common/obs/log.h"
#include "common/obs/metrics.h"
#include "coupling/coupling.h"
#include "irs/engine.h"
#include "oodb/database.h"
#include "server/server.h"
#include "server/shard_service.h"
#include "sgml/corpus/generator.h"
#include "sgml/mmf_dtd.h"

using namespace sdms;

namespace {

/// SIGTERM/SIGINT set a flag the main loop polls; the drain itself
/// (threads, mutexes, I/O) must not run inside a signal handler.
volatile std::sig_atomic_t g_shutdown = 0;

void HandleShutdownSignal(int) { g_shutdown = 1; }

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --host <addr>        bind address (default 127.0.0.1)\n"
      "  --port <n>           port (default 0 = ephemeral, printed)\n"
      "  --demo               preload the Figure 4 corpus + 'paras'\n"
      "  --gen <n> [seed]     generate+store n documents + 'paras'\n"
      "  --snapshot-dir <d>   persist IRS indexes there on exit\n"
      "  --drain-ms <n>       graceful-drain deadline (default 5000)\n"
      "  --stats-file <f>     write the metrics registry (JSON) there on exit\n"
      "  --shard <coll>/<i>   serve as the remote shard server for one\n"
      "                       shard (protocol v3; no corpus is loaded —\n"
      "                       the router installs the index)\n"
      "  --shard-endpoints <coll>=<h:p,h:p,...>\n"
      "                       route this router's fan-out searches for\n"
      "                       <coll> to remote shard servers (one\n"
      "                       endpoint per shard, in shard order; empty\n"
      "                       element = keep that shard in-process)\n"
      "Environment: SDMS_HOST, SDMS_PORT, SDMS_MAX_FRAME_BYTES,\n"
      "SDMS_IDLE_TIMEOUT_MS, SDMS_IO_TIMEOUT_MS, SDMS_DRAIN_DEADLINE_MS,\n"
      "SDMS_MAX_SESSIONS, SDMS_MAX_CONCURRENT_QUERIES, SDMS_MAX_QUEUE,\n"
      "SDMS_DEFAULT_DEADLINE_MS, SDMS_FAULTS, SDMS_SLOW_QUERY_MS,\n"
      "SDMS_SHARDS, SDMS_SHARD_ENDPOINTS (same syntax as\n"
      "--shard-endpoints), SDMS_DISABLE_BUFFERING (=1 makes every\n"
      "query pay a fresh IRS fan-out — smoke tests of the shard\n"
      "transport need the real search path, not a buffer hit).\n",
      argv0);
}

Status LoadDemo(coupling::Coupling& coupling) {
  sgml::Corpus corpus = sgml::MakeFigure4Corpus();
  for (const auto& doc : corpus.documents) {
    SDMS_RETURN_IF_ERROR(coupling.StoreDocument(doc).status());
  }
  SDMS_ASSIGN_OR_RETURN(coupling::Collection * coll,
                        coupling.CreateCollection("paras", "inquery"));
  SDMS_RETURN_IF_ERROR(coll->IndexObjects("ACCESS p FROM p IN PARA",
                                          coupling::kTextModeSubtree));
  std::fprintf(stderr,
               "demo corpus loaded; collection 'paras' over %zu paragraphs\n",
               coll->represented_count());
  return Status::OK();
}

Status LoadGenerated(coupling::Coupling& coupling, size_t num_docs,
                     uint64_t seed) {
  sgml::CorpusOptions opts;
  opts.num_docs = num_docs;
  opts.seed = seed;
  sgml::Corpus corpus = sgml::CorpusGenerator(opts).Generate();
  for (const auto& doc : corpus.documents) {
    SDMS_RETURN_IF_ERROR(coupling.StoreDocument(doc).status());
  }
  SDMS_ASSIGN_OR_RETURN(coupling::Collection * coll,
                        coupling.CreateCollection("paras", "inquery"));
  SDMS_RETURN_IF_ERROR(coll->IndexObjects("ACCESS p FROM p IN PARA",
                                          coupling::kTextModeSubtree));
  std::fprintf(stderr,
               "generated %zu documents; collection 'paras' over %zu "
               "paragraphs\n",
               corpus.documents.size(), coll->represented_count());
  return Status::OK();
}

/// `--shard <coll>/<i>` serving mode: no database, no corpus — just a
/// ShardServer waiting for a router to install its slice. Shares the
/// readiness line and signal-driven shutdown with the main mode so
/// scripts drive both identically.
int RunShardServer(const std::string& host, uint16_t port,
                   const std::string& spec) {
  server::ShardServerOptions options;
  options.host = host;
  options.port = port;
  size_t slash = spec.rfind('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 == spec.size()) {
    std::fprintf(stderr, "malformed --shard spec '%s' (want <coll>/<i>)\n",
                 spec.c_str());
    return 2;
  }
  options.collection = spec.substr(0, slash);
  options.shard = std::strtoll(spec.c_str() + slash + 1, nullptr, 10);
  server::ShardServer server(options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "shard server start: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("listening on port %u\n", server.port());
  std::fflush(stdout);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGPIPE, SIG_IGN);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "shutdown signal received\n");
  server.Shutdown();
  std::fprintf(stderr, "exit 0\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions options = server::ServerOptionsFromEnv();
  bool demo = false;
  size_t gen_docs = 0;
  uint64_t gen_seed = 42;
  std::string snapshot_dir;
  std::string stats_file;
  std::string shard_spec;
  std::string shard_endpoints;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else if (arg == "--host") {
      if (const char* v = next()) options.host = v;
    } else if (arg == "--port") {
      if (const char* v = next()) {
        options.port = static_cast<uint16_t>(std::atoi(v));
      }
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--gen") {
      if (const char* v = next()) gen_docs = std::strtoull(v, nullptr, 10);
      if (i + 1 < argc && std::isdigit(argv[i + 1][0])) {
        gen_seed = std::strtoull(argv[++i], nullptr, 10);
      }
    } else if (arg == "--snapshot-dir") {
      if (const char* v = next()) snapshot_dir = v;
    } else if (arg == "--drain-ms") {
      if (const char* v = next()) options.drain_deadline_ms = std::atoi(v);
    } else if (arg == "--stats-file") {
      if (const char* v = next()) stats_file = v;
    } else if (arg == "--shard") {
      if (const char* v = next()) shard_spec = v;
    } else if (arg == "--shard-endpoints") {
      if (const char* v = next()) shard_endpoints = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    }
  }

  if (!shard_spec.empty()) {
    return RunShardServer(options.host, options.port, shard_spec);
  }

  auto die = [](const Status& s, const char* what) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
      std::exit(1);
    }
  };

  auto db = oodb::Database::Open({});
  die(db.status(), "db open");
  irs::IrsEngine irs_engine;
  coupling::CouplingOptions coupling_options;
  coupling_options.irs_snapshot_dir = snapshot_dir;
  if (const char* env = std::getenv("SDMS_DISABLE_BUFFERING");
      env != nullptr && *env != '\0' && *env != '0') {
    coupling_options.disable_buffering = true;
  }
  coupling::Coupling coupling(db->get(), &irs_engine, coupling_options);
  die(coupling.Initialize(), "coupling init");
  auto dtd = sgml::LoadMmfDtd();
  die(dtd.status(), "dtd");
  die(coupling.RegisterDtdClasses(*dtd), "schema");
  if (demo) die(LoadDemo(coupling), "demo corpus");
  if (gen_docs > 0) die(LoadGenerated(coupling, gen_docs, gen_seed), "corpus");

  if (shard_endpoints.empty()) {
    if (const char* env = std::getenv("SDMS_SHARD_ENDPOINTS");
        env != nullptr && *env != '\0') {
      shard_endpoints = env;
    }
  }
  if (!shard_endpoints.empty()) {
    // "<collection>=<host:port,host:port,...>" — attach remote shard
    // channels. A shard server that is not up yet only warns: it gets
    // caught up by the first search that finds it alive.
    size_t eq = shard_endpoints.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr,
                   "malformed shard endpoints '%s' (want <coll>=<h:p,...>)\n",
                   shard_endpoints.c_str());
      return 2;
    }
    Status connected = coupling.ConnectRemoteShards(
        shard_endpoints.substr(0, eq), shard_endpoints.substr(eq + 1));
    if (!connected.ok()) {
      std::fprintf(stderr, "remote shards not yet synced: %s\n",
                   connected.ToString().c_str());
    }
  }

  server::Server server(&coupling, options);
  die(server.Start(), "server start");

  // Machine-readable readiness line for scripts/CI (port 0 resolves to
  // the ephemeral port here). stderr carries the human log.
  std::printf("listening on port %u\n", server.port());
  std::fflush(stdout);

  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  // A client that vanishes mid-write must be a Status, not a process
  // kill (send uses MSG_NOSIGNAL, this covers any stray path).
  std::signal(SIGPIPE, SIG_IGN);

  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "shutdown signal received, draining...\n");
  size_t cancelled = server.Shutdown();
  std::fprintf(stderr, "drained (%zu query(ies) cancelled)\n", cancelled);

  // Flush the metrics registry dump and, when configured, the IRS
  // snapshot. The slow-query log appends at record time and needs no
  // flush.
  if (!stats_file.empty()) {
    Status s = WriteFileAtomic(
        stats_file, obs::MetricsRegistry::Instance().DumpJson() + "\n");
    if (!s.ok()) {
      std::fprintf(stderr, "stats flush failed: %s\n", s.ToString().c_str());
    }
  }
  if (!snapshot_dir.empty()) {
    Status s = coupling.PersistIrs();
    if (!s.ok()) {
      std::fprintf(stderr, "irs persist failed: %s\n", s.ToString().c_str());
    }
  }
  std::fprintf(stderr, "exit 0\n");
  return 0;
}
