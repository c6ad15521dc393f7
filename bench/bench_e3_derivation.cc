// E3 — Figure 4 / Section 4.5.2: deriving IRS values for objects from
// their components' values.
//
// Part A reproduces the exact Figure 4 configuration (documents M1..M4
// over paragraphs P1..P11) and shows, for the query #and(WWW NII):
//  * max/avg cannot separate M3 (one www-para + one nii-para, relevant)
//    from M4 (two www-paras, not relevant) — the paper's argument that
//    "the information how relevant elements are to the subqueries must
//    be exploited";
//  * the subquery-aware scheme ranks M2 and M3 above M4.
//
// The bench exits non-zero when the subquery-aware scheme fails to rank
// M3 above M4 in either Part A table.
//
// Part B scales the comparison: on a generated corpus every scheme
// ranks all documents for two-term #and queries; quality is measured
// against planted ground truth (MAP) and against the redundant direct
// document index (Kendall tau).

#include <algorithm>

#include "bench_util.h"
#include "eval/metrics.h"

namespace sdms::bench {
namespace {

const char* kSchemes[] = {"max", "avg", "wtype", "length", "subquery"};

/// Returns false when the subquery-aware scheme does not rank M3 above
/// M4, on the real index or in the idealized setting.
bool PartA() {
  std::printf("--- Part A: the Figure 4 configuration ---\n");
  sgml::CorpusOptions dummy;  // unused; Figure 4 is fixed
  (void)dummy;

  auto sys = std::make_unique<System>();
  {
    auto db = oodb::Database::Open({});
    if (!db.ok()) std::abort();
    sys->db = std::move(*db);
    sys->irs_engine = std::make_unique<irs::IrsEngine>();
    sys->coupling = std::make_unique<coupling::Coupling>(
        sys->db.get(), sys->irs_engine.get());
    if (!sys->coupling->Initialize().ok()) std::abort();
    auto dtd = sgml::LoadMmfDtd();
    if (!dtd.ok() || !sys->coupling->RegisterDtdClasses(*dtd).ok()) {
      std::abort();
    }
    sys->corpus = sgml::MakeFigure4Corpus();
    for (const sgml::Document& doc : sys->corpus.documents) {
      auto root = sys->coupling->StoreDocument(doc);
      if (!root.ok()) std::abort();
      sys->roots.push_back(*root);
    }
  }
  auto* coll = MakeIndexedCollection(*sys, "paras", "ACCESS p FROM p IN PARA",
                                     coupling::kTextModeSubtree);

  bool subquery_separates = true;
  const std::string query = "#and(www nii)";
  Table table({"scheme", "M1", "M2 (P4: both)", "M3 (www+nii)",
               "M4 (www,www)", "ranks M3 > M4?"});
  for (const char* scheme : kSchemes) {
    if (!coll->SetDerivationScheme(scheme).ok()) std::abort();
    coll->buffer().Clear();
    double v[4];
    for (int d = 0; d < 4; ++d) {
      auto value = coll->FindIrsValue(query, sys->roots[d]);
      if (!value.ok()) std::abort();
      v[d] = *value;
    }
    const bool separates = v[2] > v[3] + 1e-9;
    if (std::string(scheme) == "subquery") subquery_separates &= separates;
    table.AddRow({scheme, Fmt("%.4f", v[0]), Fmt("%.4f", v[1]),
                  Fmt("%.4f", v[2]), Fmt("%.4f", v[3]),
                  separates ? "yes" : "NO"});
  }
  std::printf("query: %s (document values derived from paragraphs)\n",
              query.c_str());
  table.Print();
  std::printf(
      "\nGround truth: M2 and M3 are relevant to both terms; M1 and M4\n"
      "are not. (On the real index the rare term NII carries a higher\n"
      "idf than WWW, which lets even max/avg sneak a small M3 margin;\n"
      "the paper's argument assumes the terms are 'treated equally by\n"
      "the IRS' — the idealized table below reproduces that exactly.)\n\n");

  // Idealized re-run: every relevant paragraph has belief 0.8 for its
  // term(s), 0.4 otherwise — the figure's "terms treated equally,
  // paragraphs of equal length" assumption.
  std::printf("Idealized (equal term beliefs, as in the paper's text):\n");
  struct FakeDoc {
    const char* name;
    // Per paragraph: (www belief, nii belief).
    std::vector<std::pair<double, double>> paras;
  };
  const FakeDoc fake_docs[] = {
      {"M3", {{0.8, 0.4}, {0.4, 0.8}}},
      {"M4", {{0.8, 0.4}, {0.8, 0.4}}},
  };
  /// One idealized document: its paragraphs' beliefs stand in for the
  /// IRS.
  class FakeDerivation : public coupling::DerivationContext {
   public:
    explicit FakeDerivation(const FakeDoc& doc) : doc_(doc) {}

    StatusOr<double> ComponentValue(Oid c,
                                    std::string_view q) const override {
      const auto& [www, nii] = doc_.paras[c.raw() - 10];
      if (q == "www") return www;
      if (q == "nii") return nii;
      return www * nii;  // #and for the full query (simple schemes)
    }
    StatusOr<std::vector<Oid>> ComponentsOf(Oid) const override {
      std::vector<Oid> components;
      for (size_t p = 0; p < doc_.paras.size(); ++p) {
        components.push_back(Oid(10 + p));
      }
      return components;
    }
    StatusOr<std::string> ClassOf(Oid) const override {
      return std::string("PARA");
    }
    StatusOr<double> LengthOf(Oid) const override { return 30.0; }

   private:
    const FakeDoc& doc_;
  };
  irs::Analyzer analyzer{irs::AnalyzerOptions{false, false, 1}};
  auto tree = irs::ParseIrsQuery(query, analyzer);
  if (!tree.ok()) std::abort();
  Table ideal({"scheme", "M3", "M4", "distinguishes M3 from M4?"});
  for (const char* scheme_name : kSchemes) {
    auto scheme = coupling::MakeScheme(scheme_name);
    if (!scheme.ok()) std::abort();
    double values[2];
    for (int d = 0; d < 2; ++d) {
      FakeDerivation ctx(fake_docs[d]);
      ctx.object = Oid(1);
      ctx.irs_query = query;
      ctx.query_tree = tree->get();
      ctx.default_value = 0.4;
      auto v = (*scheme)->Derive(ctx);
      if (!v.ok()) std::abort();
      values[d] = *v;
    }
    const bool separates = values[0] > values[1] + 1e-9;
    if (std::string(scheme_name) == "subquery") {
      subquery_separates &= separates;
    }
    ideal.AddRow({scheme_name, Fmt("%.4f", values[0]),
                  Fmt("%.4f", values[1]), separates ? "yes" : "NO"});
  }
  ideal.Print();
  std::printf(
      "\nExactly the paper's observation: max and avg (and their\n"
      "type/length-weighted variants) give M3 and M4 identical values;\n"
      "only the subquery-aware combination separates them.\n\n");
  return subquery_separates;
}

void PartB() {
  std::printf("--- Part B: corpus-scale ranking quality ---\n");
  sgml::CorpusOptions copts;
  copts.num_docs = 120;
  copts.seed = 17;
  copts.topics = {"www", "nii", "telnet", "hypertext"};
  auto sys = MakeSystem(copts);
  auto* paras = MakeIndexedCollection(*sys, "paras",
                                      "ACCESS p FROM p IN PARA",
                                      coupling::kTextModeSubtree);
  auto* docs = MakeIndexedCollection(*sys, "docs",
                                     "ACCESS d FROM d IN MMFDOC",
                                     coupling::kTextModeSubtree);

  // Two-term conjunctive queries over all topic pairs.
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t i = 0; i < copts.topics.size(); ++i) {
    for (size_t j = i + 1; j < copts.topics.size(); ++j) {
      pairs.emplace_back(copts.topics[i], copts.topics[j]);
    }
  }

  Table table({"scheme", "MAP", "tau vs direct", "derive calls",
               "IRS calls"});

  // Reference arm: the redundant document-level index.
  std::vector<std::vector<double>> direct_scores;
  {
    std::vector<eval::Ranking> rankings;
    std::vector<eval::RelevantSet> relevants;
    for (const auto& [t1, t2] : pairs) {
      std::string q = "#and(" + t1 + " " + t2 + ")";
      std::vector<std::pair<double, size_t>> scored;
      std::vector<double> raw;
      for (size_t d = 0; d < sys->roots.size(); ++d) {
        auto v = docs->FindIrsValue(q, sys->roots[d]);
        if (!v.ok()) std::abort();
        scored.emplace_back(*v, d);
        raw.push_back(*v);
      }
      direct_scores.push_back(std::move(raw));
      std::sort(scored.rbegin(), scored.rend());
      eval::Ranking ranking;
      eval::RelevantSet relevant;
      for (const auto& [score, d] : scored) {
        ranking.push_back("doc" + std::to_string(d));
      }
      for (size_t d = 0; d < sys->roots.size(); ++d) {
        if (sys->corpus.truths[d].doc_topics.count(t1) > 0 &&
            sys->corpus.truths[d].doc_topics.count(t2) > 0) {
          relevant.insert("doc" + std::to_string(d));
        }
      }
      rankings.push_back(std::move(ranking));
      relevants.push_back(std::move(relevant));
    }
    table.AddRow({"direct (redundant doc index)",
                  Fmt("%.4f", eval::MeanAveragePrecision(rankings, relevants)),
                  "1.0000", "0", FmtInt(docs->stats().irs_queries)});
  }

  for (const char* scheme : kSchemes) {
    if (!paras->SetDerivationScheme(scheme).ok()) std::abort();
    paras->buffer().Clear();
    paras->ResetStats();
    std::vector<eval::Ranking> rankings;
    std::vector<eval::RelevantSet> relevants;
    double tau_sum = 0;
    for (size_t qi = 0; qi < pairs.size(); ++qi) {
      const auto& [t1, t2] = pairs[qi];
      std::string q = "#and(" + t1 + " " + t2 + ")";
      std::vector<std::pair<double, size_t>> scored;
      std::vector<double> raw;
      for (size_t d = 0; d < sys->roots.size(); ++d) {
        auto v = paras->FindIrsValue(q, sys->roots[d]);
        if (!v.ok()) std::abort();
        scored.emplace_back(*v, d);
        raw.push_back(*v);
      }
      tau_sum += eval::KendallTau(raw, direct_scores[qi]);
      std::sort(scored.rbegin(), scored.rend());
      eval::Ranking ranking;
      for (const auto& [score, d] : scored) {
        ranking.push_back("doc" + std::to_string(d));
      }
      eval::RelevantSet relevant;
      for (size_t d = 0; d < sys->roots.size(); ++d) {
        if (sys->corpus.truths[d].doc_topics.count(t1) > 0 &&
            sys->corpus.truths[d].doc_topics.count(t2) > 0) {
          relevant.insert("doc" + std::to_string(d));
        }
      }
      rankings.push_back(std::move(ranking));
      relevants.push_back(std::move(relevant));
    }
    table.AddRow({scheme,
                  Fmt("%.4f", eval::MeanAveragePrecision(rankings, relevants)),
                  Fmt("%.4f", tau_sum / static_cast<double>(pairs.size())),
                  FmtInt(paras->stats().derive_calls),
                  FmtInt(paras->stats().irs_queries)});
  }
  std::printf("corpus: %zu documents, %zu paragraphs; %zu two-term #and "
              "queries\n",
              sys->corpus.documents.size(), sys->corpus.TotalParagraphs(),
              pairs.size());
  table.Print();
  std::printf(
      "\nExpected shape: the subquery-aware scheme approaches (or beats)\n"
      "the redundant direct index in MAP while avoiding all redundant\n"
      "document text in the IRS; max/avg trail it because they ignore\n"
      "the subquery structure.\n");
}

/// Returns false when the subquery-aware scheme fails Part A.
bool Run() {
  std::printf("E3 (Figure 4, Section 4.5.2): derivation schemes\n\n");
  const bool separates = PartA();
  PartB();
  return separates;
}

}  // namespace
}  // namespace sdms::bench

int main() {
  const bool separates = sdms::bench::Run();
  sdms::bench::EmitMetricsJson("e3_derivation");
  if (!separates) {
    std::fprintf(stderr,
                 "FAIL: the subquery-aware scheme does not rank M3 above M4\n");
    return 1;
  }
  return 0;
}
