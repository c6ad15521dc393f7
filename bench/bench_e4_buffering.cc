// E4 — Sections 4.2/4.5: the IRS-result buffer.
//
// The paper buffers getIRSResult outputs "for both intra- and inter-
// query optimization". This bench quantifies:
//  (a) intra-query: one VQL query probes every object of an extent
//      against one IRS query — with the buffer (plus the semantic
//      prepare hook) this costs a single IRS call;
//  (b) inter-query: a Zipf-distributed stream of getIRSValue calls
//      across a query pool — hit rate and latency vs a bufferless run.

#include <memory>

#include "bench_util.h"
#include "common/obs/profile.h"
#include "common/query_context.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace sdms::bench {
namespace {

constexpr int kCalls = 3000;
constexpr int kQueryPool = 24;

std::vector<std::string> MakeQueryPool(const System& sys) {
  std::vector<std::string> pool = {"www", "nii", "telnet", "hypertext",
                                   "#and(www nii)", "#or(telnet www)"};
  // Pad with background vocabulary terms.
  sgml::CorpusOptions copts;
  sgml::CorpusGenerator gen(copts);
  for (size_t i = 0; pool.size() < kQueryPool; i += 7) {
    pool.push_back(gen.vocabulary()[i % gen.vocabulary().size()]);
  }
  (void)sys;
  return pool;
}

void Run() {
  std::printf("E4 (Sections 4.2/4.5): IRS result buffering\n\n");
  sgml::CorpusOptions copts;
  copts.num_docs = 200;
  copts.seed = 13;

  // ---------- (a) intra-query ----------
  std::printf("--- (a) intra-query optimization ---\n");
  {
    Table table({"configuration", "IRS calls", "buffer hits", "ms",
                 "prof-hits", "postings"});
    for (bool buffered : {true, false}) {
      coupling::CouplingOptions opts;
      opts.disable_buffering = !buffered;
      auto sys = MakeSystem(copts, opts);
      auto* coll = MakeIndexedCollection(*sys, "paras",
                                         "ACCESS p FROM p IN PARA",
                                         coupling::kTextModeSubtree);
      // Profile the query so the table can show where the work went.
      QueryContext ctx;
      auto profile = std::make_shared<obs::QueryProfile>(ctx.query_id());
      ctx.set_profile(profile);
      QueryContext::Scope scope(&ctx);
      Timer timer;
      auto result = sys->coupling->query_engine().Run(
          "ACCESS p FROM p IN PARA "
          "WHERE p -> getIRSValue('paras', 'www') > 0.45");
      if (!result.ok()) std::abort();
      profile->Finish();
      table.AddRow({buffered ? "buffer + prepare hook" : "no buffer",
                    FmtInt(coll->stats().irs_queries),
                    FmtInt(coll->stats().buffer_hits),
                    Fmt("%.2f", timer.ElapsedMillis()),
                    FmtInt(profile->TotalCounter("buffer_hits")),
                    FmtInt(profile->TotalCounter("postings_scanned"))});
      obs::GetCounter(std::string("bench.e4.profile.buffer_hits.") +
                      (buffered ? "buffered" : "bufferless"))
          .Add(profile->TotalCounter("buffer_hits"));
      obs::GetCounter(std::string("bench.e4.profile.postings_scanned.") +
                      (buffered ? "buffered" : "bufferless"))
          .Add(profile->TotalCounter("postings_scanned"));
    }
    table.Print();
    std::printf(
        "one VQL query probing every PARA object: buffered evaluation\n"
        "submits a single IRS query; the bufferless run calls the IRS\n"
        "once per candidate object.\n\n");
  }

  // ---------- (b) inter-query ----------
  std::printf("--- (b) inter-query optimization (Zipf query stream) ---\n");
  {
    Table table({"configuration", "IRS calls", "hit rate", "ms",
                 "us/call"});
    obs::Counter& registry_hits =
        obs::GetCounter("coupling.result_buffer.hits");
    obs::Counter& registry_misses =
        obs::GetCounter("coupling.result_buffer.misses");
    double registry_hit_rate = 0.0;
    for (bool buffered : {true, false}) {
      coupling::CouplingOptions opts;
      opts.disable_buffering = !buffered;
      auto sys = MakeSystem(copts, opts);
      auto* coll = MakeIndexedCollection(*sys, "paras",
                                         "ACCESS p FROM p IN PARA",
                                         coupling::kTextModeSubtree);
      std::vector<std::string> pool = MakeQueryPool(*sys);
      std::vector<Oid> paras = sys->db->Extent("PARA");
      Rng rng(99);
      ZipfSampler zipf(pool.size(), 1.2);
      uint64_t hits0 = registry_hits.value();
      uint64_t misses0 = registry_misses.value();
      Timer timer;
      for (int i = 0; i < kCalls; ++i) {
        const std::string& q = pool[zipf.Sample(rng)];
        Oid obj = paras[rng.Uniform(paras.size())];
        auto v = coll->FindIrsValue(q, obj);
        if (!v.ok()) std::abort();
      }
      double ms = timer.ElapsedMillis();
      if (buffered) {
        uint64_t h = registry_hits.value() - hits0;
        uint64_t m = registry_misses.value() - misses0;
        registry_hit_rate =
            h + m > 0 ? static_cast<double>(h) / static_cast<double>(h + m)
                      : 0.0;
      }
      double hit_rate =
          static_cast<double>(coll->stats().buffer_hits) /
          static_cast<double>(coll->stats().buffer_hits +
                              coll->stats().buffer_misses);
      table.AddRow({buffered ? "buffered" : "bufferless",
                    FmtInt(coll->stats().irs_queries),
                    Fmt("%.3f", hit_rate), Fmt("%.1f", ms),
                    Fmt("%.1f", ms * 1000.0 / kCalls)});
    }
    table.Print();
    std::printf("%d getIRSValue calls, %d distinct IRS queries (Zipf 1.2)\n",
                kCalls, kQueryPool);
    std::printf("registry hit rate (coupling.result_buffer.{hits,misses}), "
                "buffered stream: %.3f\n",
                registry_hit_rate);
  }
}

}  // namespace
}  // namespace sdms::bench

int main() {
  sdms::bench::Run();
  sdms::bench::EmitMetricsJson("e4_buffering");
  return 0;
}
