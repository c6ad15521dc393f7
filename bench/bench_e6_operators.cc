// E6 — Section 4.5.4: optimizing mixed queries by duplicating IRS
// operators as collection methods.
//
// "INQUERY's AND-operator corresponds to a method IRSOperatorAND in our
// implementation ... it is possible to calculate conjunction both in
// the IRS or the OODBMS. Consider the case that the corresponding
// collection object already knows intermediate results because they
// have been buffered ... Then the second alternative is particularly
// appealing."
//
// Arms, for compound queries of growing width:
//  * IRS evaluation: submit the whole compound query to the IRS;
//  * DBMS evaluation, cold: single-term results fetched then combined;
//  * DBMS evaluation, warm: operand results already buffered — no IRS
//    contact at all.
// Scores are verified identical (the coupling knows the operators'
// exact semantics): the bench exits non-zero on any difference.

#include <cmath>

#include "bench_util.h"

namespace sdms::bench {
namespace {

constexpr int kRepetitions = 20;

/// Returns false when a DBMS-side score differs from the IRS's.
bool Run() {
  std::printf("E6 (Section 4.5.4): IRS operators inside the DBMS\n\n");
  sgml::CorpusOptions copts;
  copts.num_docs = 200;
  copts.seed = 41;
  copts.topics = {"www", "nii", "telnet", "hypertext", "gopher"};
  auto sys = MakeSystem(copts);
  auto* coll = MakeIndexedCollection(*sys, "paras",
                                     "ACCESS p FROM p IN PARA",
                                     coupling::kTextModeSubtree);

  bool identical = true;
  Table table({"compound query", "IRS eval ms", "DBMS cold ms",
               "DBMS warm ms", "max |diff|", "IRS calls warm"});

  for (size_t width = 2; width <= copts.topics.size(); ++width) {
    std::string q = "#and(";
    for (size_t i = 0; i < width; ++i) {
      if (i > 0) q += " ";
      q += copts.topics[i];
    }
    q += ")";

    // IRS evaluation (fresh collection state per arm: clear buffer).
    coll->buffer().Clear();
    Timer t_irs;
    for (int r = 0; r < kRepetitions; ++r) {
      coll->buffer().Clear();
      if (!coll->GetIrsResult(q).ok()) std::abort();
    }
    double irs_ms = t_irs.ElapsedMillis() / kRepetitions;
    auto irs_result = **coll->GetIrsResult(q);

    // DBMS evaluation, cold: term results fetched on demand.
    Timer t_cold;
    for (int r = 0; r < kRepetitions; ++r) {
      coll->buffer().Clear();
      if (!coll->EvalOperatorsInDbms(q).ok()) std::abort();
    }
    double cold_ms = t_cold.ElapsedMillis() / kRepetitions;

    // DBMS evaluation, warm: operands buffered by the cold run.
    coll->buffer().Clear();
    if (!coll->EvalOperatorsInDbms(q).ok()) std::abort();  // warm the terms
    coll->ResetStats();
    Timer t_warm;
    coupling::OidScoreMap dbms_result;
    for (int r = 0; r < kRepetitions; ++r) {
      auto result = coll->EvalOperatorsInDbms(q);
      if (!result.ok()) std::abort();
      dbms_result = std::move(*result);
    }
    double warm_ms = t_warm.ElapsedMillis() / kRepetitions;
    uint64_t warm_irs_calls = coll->stats().irs_queries;

    // Verify exact-semantics equality.
    double max_diff = 0.0;
    for (const auto& [oid, score] : irs_result) {
      auto it = dbms_result.find(oid);
      double other = it == dbms_result.end() ? -1.0 : it->second;
      max_diff = std::max(max_diff, std::fabs(score - other));
    }
    identical = identical && max_diff == 0.0;
    table.AddRow({q, Fmt("%.3f", irs_ms), Fmt("%.3f", cold_ms),
                  Fmt("%.3f", warm_ms), Fmt("%.2e", max_diff),
                  FmtInt(warm_irs_calls)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: bit-identical scores everywhere (|diff| = 0);\n"
      "with buffered operands the DBMS-side combination needs zero IRS\n"
      "calls and is the cheapest way to evaluate a compound whose parts\n"
      "were already asked — the inter-query case the paper highlights.\n");
  return identical;
}

}  // namespace
}  // namespace sdms::bench

int main() {
  const bool identical = sdms::bench::Run();
  sdms::bench::EmitMetricsJson("e6_operators");
  if (!identical) {
    std::fprintf(stderr, "FAIL: DBMS-side scores differ from the IRS's\n");
    return 1;
  }
  return 0;
}
