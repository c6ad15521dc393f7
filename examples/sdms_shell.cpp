// An interactive shell over the coupled system: load SGML documents,
// create and index collections, and run VQL / IRS queries from a
// prompt. Reads commands from stdin (scripts work via redirection);
// `.help` lists the commands. Started with --demo it preloads the
// Figure 4 corpus and a paragraph collection.
//
//   $ ./sdms_shell --demo
//   sdms> ACCESS p, p -> length() FROM p IN PARA
//         WHERE p -> getIRSValue('paras', 'www') > 0.5
//   sdms> .irs paras #and(www nii)
//   sdms> .explain ACCESS d FROM d IN MMFDOC WHERE d.YEAR >= 1994

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/file_util.h"
#include "common/obs/log.h"
#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "common/obs/trace.h"
#include "common/query_context.h"
#include "common/string_util.h"
#include "coupling/coupling.h"
#include "coupling/hypertext.h"
#include "coupling/media.h"
#include "coupling/mixed_query.h"
#include "irs/engine.h"
#include "oodb/database.h"
#include "sgml/corpus/generator.h"
#include "sgml/mmf_dtd.h"
#include "server/client.h"

using namespace sdms;

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  <VQL query>                        run a database query\n"
      "  .load <file.sgml>                  parse + store an SGML file\n"
      "  .demo                              load the Figure 4 corpus\n"
      "  .gen <n> [seed]                    generate+store n documents\n"
      "  .collection <name> [model]         create a collection\n"
      "  .index <name> <mode> <spec query>  indexObjects on a collection\n"
      "  .irs <name> <IRS query>            raw getIRSResult (top 10)\n"
      "  .value <name> <oid> <IRS query>    findIRSValue for one object\n"
      "  .scheme <name> <scheme>            set derivation scheme\n"
      "  .explain <VQL query>               show the evaluation plan\n"
      "  EXPLAIN ANALYZE <VQL query>        run and print the stage profile\n"
      "  .profile <on|off|save <file>>      per-query profiling / last profile JSON\n"
      "  .stats                             coupling counters + metrics registry\n"
      "  .stats save <file>                 metrics registry as JSON\n"
      "  .deadline <ms>                     per-query deadline (0 = off)\n"
      "  .connect <host>:<port>             remote mode: queries go to sdms_server\n"
      "  .disconnect                        back to the local (in-process) system\n"
      "  .classes                           schema classes\n"
      "  .log <debug|info|warn|error|off>   set log verbosity\n"
      "  .trace <on|off|save <file.json>>   per-query trace spans\n"
      "  .help / .quit\n"
      "Ctrl-C cancels the in-flight query (kCancelled) instead of\n"
      "killing the shell; in remote mode the cancel travels over the\n"
      "wire. SIGTERM exits cleanly.\n");
}

/// Ctrl-C cancellation: the handler performs a single atomic store
/// (async-signal-safe); the query path observes it at its next
/// cooperative poll. The token is reset before each command.
CancelToken g_sigint_cancel;

void HandleSigint(int) { g_sigint_cancel.Cancel(); }

/// SIGTERM asks for a clean exit: the handler sets a flag (and cancels
/// the in-flight query); the main loop notices it — installed without
/// SA_RESTART so a blocking getline() is interrupted — flushes the
/// statistics checkpoint and slow-query log, and exits 0.
volatile std::sig_atomic_t g_sigterm = 0;

void HandleSigterm(int) {
  g_sigterm = 1;
  g_sigint_cancel.Cancel();
}

struct Shell {
  std::unique_ptr<oodb::Database> db;
  irs::IrsEngine irs_engine;
  std::unique_ptr<coupling::Coupling> coupling;
  /// Deadline applied to every command (.deadline sets it; 0 = off).
  int64_t deadline_ms = 0;
  /// Most recent command's profile (.profile save writes its JSON).
  std::shared_ptr<obs::QueryProfile> last_profile;
  /// Set by EXPLAIN ANALYZE so the main loop doesn't render twice.
  bool profile_rendered_inline = false;
  /// Remote mode: non-null after .connect — bare VQL lines (and
  /// EXPLAIN ANALYZE) are sent to an sdms_server instead of the
  /// in-process system. Deadline, Ctrl-C cancellation and degraded
  /// display all travel over the wire.
  std::unique_ptr<server::SdmsClient> remote;

  Status RunRemote(const std::string& vql, bool want_profile);

  Status Init() {
    SDMS_ASSIGN_OR_RETURN(db, oodb::Database::Open({}));
    coupling = std::make_unique<coupling::Coupling>(db.get(), &irs_engine);
    SDMS_RETURN_IF_ERROR(coupling->Initialize());
    SDMS_ASSIGN_OR_RETURN(sgml::Dtd dtd, sgml::LoadMmfDtd());
    SDMS_RETURN_IF_ERROR(coupling->RegisterDtdClasses(dtd));
    SDMS_RETURN_IF_ERROR(coupling::RegisterHypertext(*coupling));
    SDMS_RETURN_IF_ERROR(coupling::RegisterMediaTextMode(*coupling));
    return Status::OK();
  }

  Status LoadDemo() {
    sgml::Corpus corpus = sgml::MakeFigure4Corpus();
    for (const auto& doc : corpus.documents) {
      SDMS_RETURN_IF_ERROR(coupling->StoreDocument(doc).status());
    }
    SDMS_ASSIGN_OR_RETURN(coupling::Collection * coll,
                          coupling->CreateCollection("paras", "inquery"));
    SDMS_RETURN_IF_ERROR(coll->IndexObjects("ACCESS p FROM p IN PARA",
                                            coupling::kTextModeSubtree));
    std::printf("demo: Figure 4 corpus loaded; collection 'paras' over "
                "%zu paragraphs\n",
                coll->represented_count());
    return Status::OK();
  }

  Status Dispatch(const std::string& line);
  Status ExplainAnalyze(const std::string& vql);
};

/// Strips a leading "EXPLAIN ANALYZE" (case-insensitive); returns true
/// when the line carried one, leaving the bare VQL in `line`.
bool ConsumeExplainAnalyze(std::string& line) {
  std::istringstream in(line);
  std::string w1, w2;
  if (!(in >> w1 >> w2)) return false;
  auto lower = [](std::string s) {
    for (char& c : s) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return s;
  };
  if (lower(w1) != "explain" || lower(w2) != "analyze") return false;
  std::string rest;
  std::getline(in, rest);
  line = std::string(Trim(rest));
  return true;
}

/// Prints the non-ok entries of a fan-out search's per-shard report:
/// degraded answers name exactly which collection shard failed or was
/// skipped by its breaker.
void PrintShardStatus(const std::vector<ShardStatusEntry>& entries) {
  for (const ShardStatusEntry& e : entries) {
    if (e.state == ShardState::kOk) continue;
    std::printf("(shard %s/%u %s, %lld us%s%s)\n", e.collection.c_str(),
                e.shard, ShardStateName(e.state),
                static_cast<long long>(e.micros),
                e.detail.empty() ? "" : ": ", e.detail.c_str());
  }
}

Status Shell::ExplainAnalyze(const std::string& vql) {
  if (vql.empty()) {
    return Status::InvalidArgument("usage: EXPLAIN ANALYZE <VQL query>");
  }
  // Force a profile for this run even when .profile is off.
  QueryContext* ctx = QueryContext::Current();
  if (ctx != nullptr && ctx->profile() == nullptr) {
    ctx->set_profile(std::make_shared<obs::QueryProfile>(ctx->query_id()));
  }
  coupling::MixedQueryEvaluator eval(coupling.get());
  SDMS_ASSIGN_OR_RETURN(
      oodb::vql::QueryResult result,
      eval.Run(vql, coupling::MixedQueryEvaluator::Strategy::kIndependent));
  const coupling::MixedQueryEvaluator::RunInfo& info = eval.last_run();
  std::printf("%s(%zu rows)\n", result.ToTable(25).c_str(),
              result.rows.size());
  if (result.degraded) {
    std::printf("(degraded: %s)\n", result.degraded_reason.c_str());
  }
  PrintShardStatus(info.shard_status);
  if (info.profile != nullptr) {
    std::printf("%s", info.profile->Render().c_str());
    last_profile = info.profile;
    profile_rendered_inline = true;
  }
  std::printf("queue wait %lld us, total %lld us\n",
              static_cast<long long>(info.queue_wait_micros),
              static_cast<long long>(info.total_micros));
  return Status::OK();
}

Status Shell::RunRemote(const std::string& vql, bool want_profile) {
  server::QueryRequest req;
  req.vql = vql;
  req.deadline_ms = deadline_ms;
  req.want_profile = want_profile;
  SDMS_ASSIGN_OR_RETURN(server::SdmsClient::Response resp,
                        remote->Query(std::move(req)));
  std::printf("%s(%zu rows)\n", resp.result.ToTable(25).c_str(),
              resp.result.rows.size());
  if (resp.result.degraded) {
    std::printf("(degraded: %s)\n", resp.result.degraded_reason.c_str());
  }
  PrintShardStatus(resp.info.shard_status);
  if (want_profile && !resp.info.profile_json.empty()) {
    std::printf("%s\n", resp.info.profile_json.c_str());
  }
  std::printf("remote query_id %llu, queue wait %lld us, total %lld us\n",
              static_cast<unsigned long long>(resp.info.query_id),
              static_cast<long long>(resp.info.queue_wait_micros),
              static_cast<long long>(resp.info.total_micros));
  if (remote->server_draining()) {
    std::printf("(server is draining: new queries will be shed)\n");
  }
  return Status::OK();
}

Status Shell::Dispatch(const std::string& line) {
  if (line.empty()) return Status::OK();
  if (line[0] != '.') {
    std::string vql = line;
    if (ConsumeExplainAnalyze(vql)) {
      return remote != nullptr ? RunRemote(vql, /*want_profile=*/true)
                               : ExplainAnalyze(vql);
    }
    if (remote != nullptr) return RunRemote(vql, /*want_profile=*/false);
    // A VQL query.
    SDMS_ASSIGN_OR_RETURN(oodb::vql::QueryResult result,
                          coupling->query_engine().Run(line));
    std::printf("%s(%zu rows)\n", result.ToTable(25).c_str(),
                result.rows.size());
    if (result.degraded) {
      std::printf("(degraded: %s)\n", result.degraded_reason.c_str());
    }
    // Fan-out searches report per-shard outcomes on the query context;
    // drain them here so local queries name failed shards like the
    // remote and EXPLAIN ANALYZE paths do.
    if (QueryContext* ctx = QueryContext::Current(); ctx != nullptr) {
      PrintShardStatus(ctx->TakeShardStatus());
    }
    return Status::OK();
  }
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd == ".help") {
    PrintHelp();
  } else if (cmd == ".demo") {
    return LoadDemo();
  } else if (cmd == ".load") {
    std::string path;
    in >> path;
    SDMS_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    SDMS_ASSIGN_OR_RETURN(sgml::Document doc, sgml::ParseSgml(text));
    SDMS_ASSIGN_OR_RETURN(Oid root, coupling->StoreDocument(doc));
    std::printf("stored %s, root %s\n", path.c_str(),
                root.ToString().c_str());
  } else if (cmd == ".gen") {
    size_t n = 10;
    uint64_t seed = 42;
    in >> n >> seed;
    sgml::CorpusOptions opts;
    opts.num_docs = n;
    opts.seed = seed;
    sgml::Corpus corpus = sgml::CorpusGenerator(opts).Generate();
    for (const auto& doc : corpus.documents) {
      SDMS_RETURN_IF_ERROR(coupling->StoreDocument(doc).status());
    }
    std::printf("generated and stored %zu documents (%zu paragraphs)\n",
                corpus.documents.size(), corpus.TotalParagraphs());
  } else if (cmd == ".collection") {
    std::string name, model = "inquery";
    in >> name >> model;
    if (name.empty()) return Status::InvalidArgument("usage: .collection <name> [model]");
    SDMS_RETURN_IF_ERROR(coupling->CreateCollection(name, model).status());
    std::printf("collection '%s' (%s) created\n", name.c_str(),
                model.c_str());
  } else if (cmd == ".index") {
    std::string name;
    int mode = 0;
    in >> name >> mode;
    std::string spec;
    std::getline(in, spec);
    SDMS_ASSIGN_OR_RETURN(coupling::Collection * coll,
                          coupling->GetCollectionByName(name));
    SDMS_RETURN_IF_ERROR(
        coll->IndexObjects(std::string(Trim(spec)), mode));
    std::printf("'%s' now represents %zu objects\n", name.c_str(),
                coll->represented_count());
  } else if (cmd == ".irs") {
    std::string name;
    in >> name;
    std::string query;
    std::getline(in, query);
    SDMS_ASSIGN_OR_RETURN(coupling::Collection * coll,
                          coupling->GetCollectionByName(name));
    SDMS_ASSIGN_OR_RETURN(std::shared_ptr<const coupling::OidScoreMap> result,
                          coll->GetIrsResult(std::string(Trim(query))));
    // Top 10 by score.
    std::vector<std::pair<double, Oid>> ranked;
    for (const auto& [oid, score] : *result) ranked.emplace_back(score, oid);
    std::sort(ranked.rbegin(), ranked.rend());
    for (size_t i = 0; i < ranked.size() && i < 10; ++i) {
      std::printf("  %-10s %.4f\n", ranked[i].second.ToString().c_str(),
                  ranked[i].first);
    }
    std::printf("(%zu objects)\n", result->size());
    if (QueryContext* ctx = QueryContext::Current(); ctx != nullptr) {
      PrintShardStatus(ctx->TakeShardStatus());
    }
  } else if (cmd == ".value") {
    std::string name;
    uint64_t raw = 0;
    in >> name >> raw;
    std::string query;
    std::getline(in, query);
    SDMS_ASSIGN_OR_RETURN(coupling::Collection * coll,
                          coupling->GetCollectionByName(name));
    SDMS_ASSIGN_OR_RETURN(
        double v, coll->FindIrsValue(std::string(Trim(query)), Oid(raw)));
    std::printf("  %.6f%s\n", v,
                coll->Represents(Oid(raw)) ? "" : "  (derived)");
  } else if (cmd == ".scheme") {
    std::string name, scheme;
    in >> name >> scheme;
    SDMS_ASSIGN_OR_RETURN(coupling::Collection * coll,
                          coupling->GetCollectionByName(name));
    SDMS_RETURN_IF_ERROR(coll->SetDerivationScheme(scheme));
    std::printf("'%s' derives with %s\n", name.c_str(), scheme.c_str());
  } else if (cmd == ".explain") {
    std::string query;
    std::getline(in, query);
    SDMS_ASSIGN_OR_RETURN(
        std::string plan,
        coupling->query_engine().Explain(std::string(Trim(query))));
    std::printf("%s", plan.c_str());
  } else if (cmd == ".profile") {
    std::string arg;
    in >> arg;
    if (arg == "on") {
      obs::SetProfilingEnabled(true);
      std::printf("profiling on\n");
    } else if (arg == "off") {
      obs::SetProfilingEnabled(false);
      std::printf("profiling off\n");
    } else if (arg == "save") {
      std::string path;
      in >> path;
      if (path.empty()) {
        return Status::InvalidArgument("usage: .profile save <file>");
      }
      if (last_profile == nullptr) {
        return Status::InvalidArgument(
            "no profiled query yet (run EXPLAIN ANALYZE or .profile on)");
      }
      SDMS_RETURN_IF_ERROR(
          WriteFileAtomic(path, last_profile->ToJson() + "\n"));
      std::printf("profile written to %s\n", path.c_str());
    } else {
      return Status::InvalidArgument("usage: .profile <on|off|save <file>>");
    }
  } else if (cmd == ".stats") {
    std::string arg;
    in >> arg;
    if (arg == "save") {
      std::string path;
      in >> path;
      if (path.empty()) {
        return Status::InvalidArgument("usage: .stats save <file>");
      }
      SDMS_RETURN_IF_ERROR(WriteFileAtomic(
          path, obs::MetricsRegistry::Instance().DumpJson() + "\n"));
      std::printf("metrics written to %s\n", path.c_str());
      return Status::OK();
    }
    if (!arg.empty()) {
      return Status::InvalidArgument("usage: .stats [save <file>]");
    }
    coupling::CouplingStats s = coupling->AggregateStats();
    std::printf(
        "objects=%zu  IRS queries=%llu  buffer hits=%llu  misses=%llu  "
        "derive calls=%llu  reindex ops=%llu\n",
        db->store().size(), static_cast<unsigned long long>(s.irs_queries),
        static_cast<unsigned long long>(s.buffer_hits),
        static_cast<unsigned long long>(s.buffer_misses),
        static_cast<unsigned long long>(s.derive_calls),
        static_cast<unsigned long long>(s.reindex_ops));
    std::printf("\n%s", obs::MetricsRegistry::Instance().DumpText().c_str());
  } else if (cmd == ".deadline") {
    int64_t ms = -1;
    in >> ms;
    if (ms < 0) return Status::InvalidArgument("usage: .deadline <ms>");
    deadline_ms = ms;
    if (ms == 0) {
      std::printf("deadline off\n");
    } else {
      std::printf("deadline %lld ms per query\n",
                  static_cast<long long>(ms));
    }
  } else if (cmd == ".log") {
    std::string level;
    in >> level;
    obs::LogLevel parsed;
    if (level == "debug") {
      parsed = obs::LogLevel::kDebug;
    } else if (level == "info") {
      parsed = obs::LogLevel::kInfo;
    } else if (level == "warn") {
      parsed = obs::LogLevel::kWarn;
    } else if (level == "error") {
      parsed = obs::LogLevel::kError;
    } else if (level == "off") {
      parsed = obs::LogLevel::kOff;
    } else {
      return Status::InvalidArgument(
          "usage: .log <debug|info|warn|error|off>");
    }
    obs::Logger::Instance().SetLevel(parsed);
    std::printf("log level set to %s\n", level.c_str());
  } else if (cmd == ".trace") {
    std::string arg;
    in >> arg;
    if (arg == "on") {
      obs::EnableTracing(true);
      std::printf("tracing on\n");
    } else if (arg == "off") {
      obs::EnableTracing(false);
      std::printf("tracing off\n");
    } else if (arg == "save") {
      std::string path;
      in >> path;
      if (path.empty()) return Status::InvalidArgument("usage: .trace save <file.json>");
      SDMS_RETURN_IF_ERROR(
          WriteFileAtomic(path, obs::TraceCollector::ExportChromeTrace()));
      std::printf("trace written to %s (load in chrome://tracing)\n",
                  path.c_str());
    } else {
      return Status::InvalidArgument("usage: .trace <on|off|save <file>>");
    }
  } else if (cmd == ".connect") {
    std::string target;
    in >> target;
    auto colon = target.rfind(':');
    if (colon == std::string::npos || colon + 1 >= target.size()) {
      return Status::InvalidArgument("usage: .connect <host>:<port>");
    }
    server::ClientOptions copts;
    copts.host = target.substr(0, colon);
    copts.port = static_cast<uint16_t>(
        std::atoi(target.c_str() + colon + 1));
    copts.peer_label = "sdms_shell";
    auto client = std::make_unique<server::SdmsClient>(copts);
    SDMS_RETURN_IF_ERROR(client->Connect());
    remote = std::move(client);
    std::printf("remote mode: queries go to %s (local data commands "
                "still act on the in-process system)\n",
                target.c_str());
  } else if (cmd == ".disconnect") {
    if (remote == nullptr) {
      return Status::InvalidArgument("not in remote mode");
    }
    remote.reset();
    std::printf("back to local mode\n");
  } else if (cmd == ".classes") {
    for (const std::string& name : db->schema().class_names()) {
      std::printf("  %-12s (%zu objects)\n", name.c_str(),
                  db->Extent(name, false).size());
    }
  } else {
    return Status::InvalidArgument("unknown command " + cmd +
                                   " (try .help)");
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  if (Status s = shell.Init(); !s.ok()) {
    std::fprintf(stderr, "init failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("sdms shell — OODBMS-IRS coupling (.help for commands)\n");
  {
    // SA_RESTART keeps getline() below from failing when Ctrl-C
    // arrives while the shell is idle at the prompt.
    struct sigaction sa = {};
    sa.sa_handler = HandleSigint;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGINT, &sa, nullptr);
    // SIGTERM: no SA_RESTART — the blocking getline() must return so
    // the loop can exit and flush durable state.
    struct sigaction st = {};
    st.sa_handler = HandleSigterm;
    st.sa_flags = 0;
    sigaction(SIGTERM, &st, nullptr);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--demo") {
      if (Status s = shell.LoadDemo(); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
    } else if (std::string(argv[i]) == "--connect" && i + 1 < argc) {
      if (Status s = shell.Dispatch(std::string(".connect ") + argv[++i]);
          !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
    }
  }
  std::string line;
  while (g_sigterm == 0) {
    std::printf("sdms> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (g_sigterm != 0) break;
    std::string trimmed(Trim(line));
    if (trimmed == ".quit" || trimmed == ".exit") break;
    // Fresh context per command: the stop latch is sticky, so a
    // cancelled/expired context must not leak into the next query.
    QueryContext ctx;
    g_sigint_cancel.Reset();
    ctx.set_cancel_token(&g_sigint_cancel);
    if (shell.deadline_ms > 0) ctx.SetDeadlineAfterMs(shell.deadline_ms);
    if (obs::ProfilingEnabled()) {
      ctx.set_profile(std::make_shared<obs::QueryProfile>(ctx.query_id()));
    }
    QueryContext::Scope scope(&ctx);
    shell.profile_rendered_inline = false;
    Status s = shell.Dispatch(trimmed);
    if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
    if (ctx.profile() != nullptr) {
      shell.last_profile = ctx.profile();
      if (!shell.profile_rendered_inline && obs::ProfilingEnabled()) {
        ctx.profile()->Finish();
        std::printf("%s", ctx.profile()->Render().c_str());
      }
    }
  }
  if (g_sigterm != 0) {
    // Clean SIGTERM exit. The slow-query log appends at record time, so
    // "flush" here means confirming nothing is lost.
    obs::SlowQueryLog& slow = obs::SlowQueryLog::Instance();
    if (slow.enabled()) {
      std::fprintf(stderr,
                   "sigterm: slow-query log flushed (%llu record(s) in "
                   "%s)\n",
                   static_cast<unsigned long long>(slow.recorded()),
                   slow.path().c_str());
    }
  }
  std::printf("bye\n");
  return 0;
}
