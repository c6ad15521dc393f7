// E5 — Section 4.5.3: evaluating mixed queries.
//
// Strategy (1): the query portions are processed independently and the
// results combined — the DBMS enumerates its candidates and probes the
// (buffered) IRS result per object.
// Strategy (2): the IRS selects the content-qualifying objects first;
// the DBMS verifies the structure conditions only for those.
//
// We sweep the *content selectivity* (IRS threshold) and the
// *structure selectivity* (a YEAR range predicate) and report the
// latency of both strategies. Expected shape: IRS-first wins when the
// content predicate is selective; the advantage shrinks as the content
// predicate matches everything.

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "coupling/mixed_query.h"

namespace sdms::bench {
namespace {

using Strategy = coupling::MixedQueryEvaluator::Strategy;

constexpr int kRepetitions = 5;

/// The first column's OIDs, sorted: the strategies may emit rows in
/// different orders but must return the same objects.
std::vector<Oid> SortedRowOids(const oodb::vql::QueryResult& result) {
  std::vector<Oid> oids;
  oids.reserve(result.rows.size());
  for (const auto& row : result.rows) oids.push_back(row[0].as_oid());
  std::sort(oids.begin(), oids.end());
  return oids;
}

void Run() {
  std::printf("E5 (Section 4.5.3): mixed-query evaluation strategies\n\n");
  sgml::CorpusOptions copts;
  copts.num_docs = 250;
  copts.seed = 23;
  copts.topic_para_prob = 0.5;
  auto sys = MakeSystem(copts);
  (void)MakeIndexedCollection(*sys, "paras", "ACCESS p FROM p IN PARA",
                              coupling::kTextModeSubtree);
  coupling::MixedQueryEvaluator eval(sys->coupling.get());
  size_t num_paras = sys->db->Extent("PARA").size();
  std::printf("corpus: %zu documents, %zu paragraphs\n\n",
              sys->corpus.documents.size(), num_paras);

  // Two query terms spanning the selectivity range: the planted topic
  // "www" (~10% of paragraphs) and the most frequent background word
  // (appears in nearly every paragraph).
  sgml::CorpusGenerator vocab_gen(copts);
  const std::string common_term = vocab_gen.vocabulary()[0];

  Table table({"term", "content threshold", "qualifying paras",
               "structure sel.", "strat-1 ms", "strat-2 ms", "winner"});

  struct ContentArm {
    std::string term;
    double threshold;
  };
  const ContentArm content_arms[] = {
      {"www", 0.50},        {"www", 0.45},
      {common_term, 0.42},  {common_term, 0.30},
  };
  for (const ContentArm& arm : content_arms) {
    double threshold = arm.threshold;
    for (int min_year : {1990, 1994, 1996}) {
      std::string vql = StrFormat(
          "ACCESS p FROM p IN PARA, d IN MMFDOC "
          "WHERE p -> getContaining('MMFDOC') == d AND "
          "d -> getAttributeValue('YEAR') >= %d AND "
          "p -> getIRSValue('paras', '%s') > %.2f",
          min_year, arm.term.c_str(), threshold);

      // Warm code paths once, then time repetitions. Buffers stay warm
      // for both strategies, so the difference is candidate-set size.
      auto warm = eval.Run(vql, Strategy::kIndependent);
      if (!warm.ok()) std::abort();

      double ms1 = 0;
      double ms2 = 0;
      size_t candidates = 0;
      for (int r = 0; r < kRepetitions; ++r) {
        Timer t1;
        auto r1 = eval.Run(vql, Strategy::kIndependent);
        if (!r1.ok()) std::abort();
        ms1 += t1.ElapsedMillis();
        Timer t2;
        auto r2 = eval.Run(vql, Strategy::kIrsFirst);
        if (!r2.ok()) std::abort();
        ms2 += t2.ElapsedMillis();
        candidates = eval.last_run().irs_candidates;
        if (SortedRowOids(*r1) != SortedRowOids(*r2)) {
          std::fprintf(stderr, "strategies disagree on %s\n", vql.c_str());
          std::abort();
        }
      }
      ms1 /= kRepetitions;
      ms2 /= kRepetitions;
      // Actual structure selectivity: fraction of documents passing the
      // YEAR predicate.
      auto year_rows = sys->coupling->query_engine().Run(StrFormat(
          "ACCESS d FROM d IN MMFDOC "
          "WHERE d -> getAttributeValue('YEAR') >= %d",
          min_year));
      if (!year_rows.ok()) std::abort();
      double struct_sel = static_cast<double>(year_rows->rows.size()) /
                          static_cast<double>(sys->roots.size());
      table.AddRow({arm.term == "www" ? "www (rare)" : "common word",
                    Fmt("%.2f", threshold), FmtInt(candidates),
                    Fmt("%.2f", struct_sel), Fmt("%.2f", ms1),
                    Fmt("%.2f", ms2),
                    ms2 < ms1 * 0.95 ? "IRS-first"
                    : ms1 < ms2 * 0.95 ? "independent"
                                       : "~tie"});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: with a selective content predicate (few\n"
      "qualifying paragraphs) the IRS-first strategy evaluates far fewer\n"
      "candidate tuples and wins; as the threshold drops toward matching\n"
      "everything its advantage disappears (both enumerate ~all\n"
      "paragraphs). The paper also notes the reverse restriction (DBMS\n"
      "restricting the IRS) is not feasible because IRSs search entire\n"
      "collections.\n");
}

}  // namespace
}  // namespace sdms::bench

int main() {
  sdms::bench::Run();
  sdms::bench::EmitMetricsJson("e5_mixed_eval");
  return 0;
}
