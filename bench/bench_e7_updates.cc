// E7 — Section 4.6: propagating updates.
//
// "The first alternative [propagate after each update] is costly if the
// number of updates is high as compared to the number of information-
// need queries. With the second [propagate before query evaluation],
// evaluation of mixed queries is slowed down."
//
// Part A sweeps the update:query ratio for the three policies (eager /
// on-query / manual) and reports total time, per-query latency, and
// reindex operations.
// Part B shows operation-log cancellation: a stream in which half the
// inserts are deleted again before any query ("operations cancel out
// each other's effect") — the cancelling log avoids the useless IRS
// work entirely.
//
// The bench exits non-zero when a deterministic count drifts: Part A's
// reindex operations per policy and ratio, or Part B's recorded, net,
// cancelled and reindex counts. Timings are never gated.

#include "bench_util.h"
#include "common/rng.h"

namespace sdms::bench {
namespace {

using coupling::PropagationPolicy;

/// One workload run: `updates` text edits interleaved with `queries`
/// IRS queries, round-robin.
struct RunStats {
  double total_ms = 0;
  double query_ms = 0;
  uint64_t reindex_ops = 0;
  uint64_t irs_queries = 0;
};

RunStats RunWorkload(PropagationPolicy policy, int updates, int queries) {
  sgml::CorpusOptions copts;
  copts.num_docs = 60;
  copts.seed = 3;
  auto sys = MakeSystem(copts);
  auto* coll = MakeIndexedCollection(*sys, "paras",
                                     "ACCESS p FROM p IN PARA",
                                     coupling::kTextModeSubtree);
  coll->set_propagation_policy(policy);
  std::vector<Oid> paras = sys->db->Extent("PARA");
  Rng rng(1234);
  const char* query_pool[] = {"www", "nii", "telnet", "hypertext"};

  int total_ops = updates + queries;
  int done_updates = 0;
  int done_queries = 0;
  RunStats stats;
  Timer total;
  for (int i = 0; i < total_ops; ++i) {
    // Interleave proportionally.
    bool do_update =
        done_updates * queries <= done_queries * updates && done_updates < updates;
    if ((do_update && done_updates < updates) || done_queries >= queries) {
      Oid victim = paras[rng.Uniform(paras.size())];
      Status s = sys->db->SetAttribute(
          victim, "TEXT",
          oodb::Value("edited text revision " + std::to_string(i) +
                      " about www topics"));
      if (!s.ok()) std::abort();
      ++done_updates;
    } else {
      Timer qt;
      auto r = coll->GetIrsResult(query_pool[done_queries % 4]);
      if (!r.ok()) std::abort();
      stats.query_ms += qt.ElapsedMillis();
      ++done_queries;
    }
  }
  // Leftover pending work is not charged: manual policy may legally
  // leave the index stale.
  stats.total_ms = total.ElapsedMillis();
  stats.reindex_ops = coll->stats().reindex_ops;
  stats.irs_queries = coll->stats().irs_queries;
  return stats;
}

/// Prints a gate failure unless `got` equals `want`; returns whether
/// it did.
bool CountMatches(const std::string& what, uint64_t got, uint64_t want) {
  if (got == want) return true;
  std::fprintf(stderr, "FAIL: %s is %llu, expected %llu\n", what.c_str(),
               static_cast<unsigned long long>(got),
               static_cast<unsigned long long>(want));
  return false;
}

/// Returns false when a reindex count differs from the expected shape.
bool PartA() {
  std::printf("--- Part A: policies across update:query ratios ---\n");
  struct Ratio {
    int updates;
    int queries;
    const char* label;
    /// Expected reindex ops: eager, deferred, manual.
    uint64_t reindex[3];
  };
  const Ratio ratios[] = {
      {400, 4, "100:1", {400, 281, 0}},
      {200, 20, "10:1", {200, 191, 0}},
      {60, 60, "1:1", {60, 60, 0}},
      {20, 200, "1:10", {20, 20, 0}},
  };
  bool ok = true;
  Table table({"updates:queries", "policy", "total ms", "ms/query",
               "reindex ops"});
  for (const Ratio& ratio : ratios) {
    struct Arm {
      PropagationPolicy policy;
      const char* name;
    };
    const Arm arms[] = {
        {PropagationPolicy::kEager, "eager (per update)"},
        {PropagationPolicy::kOnQuery, "deferred (on query)"},
        {PropagationPolicy::kManual, "manual (stale reads)"},
    };
    for (size_t a = 0; a < 3; ++a) {
      const Arm& arm = arms[a];
      RunStats stats = RunWorkload(arm.policy, ratio.updates, ratio.queries);
      table.AddRow({ratio.label, arm.name, Fmt("%.1f", stats.total_ms),
                    Fmt("%.3f", stats.query_ms /
                                    std::max(1, ratio.queries)),
                    FmtInt(stats.reindex_ops)});
      ok &= CountMatches(std::string("Part A reindex ops at ") + ratio.label +
                             ", " + arm.name,
                         stats.reindex_ops, ratio.reindex[a]);
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: at high update:query ratios the deferred policy\n"
      "performs far fewer reindex operations than eager (repeated edits\n"
      "of one object collapse in the cancelling log) at the price of\n"
      "slower queries; at query-heavy ratios the policies converge.\n\n");
  return ok;
}

/// Returns false when a log count differs from the expected shape.
bool PartB() {
  std::printf("--- Part B: operation-log cancellation ---\n");
  sgml::CorpusOptions copts;
  copts.num_docs = 40;
  copts.seed = 4;
  Table table({"workload", "recorded ops", "net ops applied",
               "cancelled", "reindex ops"});
  bool ok = true;
  for (bool churn : {false, true}) {
    auto sys = MakeSystem(copts);
    auto* coll = MakeIndexedCollection(*sys, "paras",
                                       "ACCESS p FROM p IN PARA",
                                       coupling::kTextModeSubtree);
    coll->set_propagation_policy(PropagationPolicy::kOnQuery);
    // 100 new paragraphs; in the churn workload every second one is
    // deleted again before the next query.
    std::vector<Oid> created;
    for (int i = 0; i < 100; ++i) {
      oodb::TxnId txn = sys->db->Begin();
      auto para = sys->db->CreateObject("PARA", txn);
      if (!para.ok()) std::abort();
      (void)sys->db->SetAttribute(*para, "GI", oodb::Value("PARA"), txn);
      (void)sys->db->SetAttribute(
          *para, "TEXT",
          oodb::Value("transient paragraph " + std::to_string(i)), txn);
      (void)sys->db->SetAttribute(*para, "CHILDREN",
                                  oodb::Value(oodb::ValueList{}), txn);
      if (!sys->db->Commit(txn).ok()) std::abort();
      created.push_back(*para);
    }
    if (churn) {
      for (size_t i = 0; i < created.size(); i += 2) {
        if (!sys->db->DeleteObject(created[i]).ok()) std::abort();
      }
    }
    uint64_t recorded = coll->update_log().recorded();
    size_t net = coll->pending_updates();
    if (!coll->PropagateUpdates().ok()) std::abort();
    const char* workload = churn ? "insert, half deleted again" : "insert only";
    const uint64_t cancelled = coll->update_log().cancelled();
    const uint64_t reindex = coll->stats().reindex_ops;
    table.AddRow({workload, FmtInt(recorded), FmtInt(net), FmtInt(cancelled),
                  FmtInt(reindex)});
    // 100 inserts of four writes each; churn adds 50 deletes.
    const std::string row = std::string("Part B ") + workload;
    ok &= CountMatches(row + " recorded ops", recorded, churn ? 450 : 400);
    ok &= CountMatches(row + " net ops", net, churn ? 50 : 100);
    ok &= CountMatches(row + " cancelled", cancelled, churn ? 400 : 300);
    ok &= CountMatches(row + " reindex ops", reindex, churn ? 50 : 100);
  }
  table.Print();
  std::printf(
      "\nExpected shape: in the churn workload half the inserts never\n"
      "reach the IRS — the insert+delete pairs annihilate in the log\n"
      "(the paper's 'deletion of a text object that has just been\n"
      "generated' example), halving the reindex operations.\n");
  return ok;
}

void PartC() {
  std::printf("\n--- Part C: delete architectures ---\n");
  // Section 4.3.1(3): "deleting IRS documents is costly" — the eager
  // architecture scans the whole dictionary per delete. The tombstone
  // architecture defers that scan into threshold-triggered compactions.
  auto build = [](bool eager) {
    auto model = irs::MakeModel("inquery");
    if (!model.ok()) std::abort();
    auto coll = std::make_unique<irs::IrsCollection>(
        "del", irs::AnalyzerOptions{}, std::move(*model));
    coll->set_eager_delete(eager);
    Rng rng(77);
    ZipfSampler zipf(4000, 1.05);
    std::vector<irs::DocOp> docs;
    for (int i = 0; i < 1500; ++i) {
      std::string text;
      for (int w = 0; w < 80; ++w) {
        if (!text.empty()) text += ' ';
        text += "w" + std::to_string(zipf.Sample(rng));
      }
      docs.push_back({"oid:" + std::to_string(i), std::move(text)});
    }
    if (!coll->Apply(docs).ok()) std::abort();
    return coll;
  };
  Table table({"architecture", "1000 deletes ms", "us/delete"});
  for (bool eager : {true, false}) {
    auto coll = build(eager);
    Timer t;
    for (int i = 0; i < 1000; ++i) {
      if (!coll->RemoveDocument("oid:" + std::to_string(i)).ok())
        std::abort();
    }
    if (!eager) coll->CompactIndex();  // charge the deferred work too
    double ms = t.ElapsedMillis();
    table.AddRow({eager ? "eager (paper)" : "tombstone + compaction",
                  Fmt("%.1f", ms), Fmt("%.1f", ms * 1000.0 / 1000)});
    obs::GetGauge(eager ? "bench.e7.eager_delete_micros"
                        : "bench.e7.tombstone_delete_micros")
        .Set(t.ElapsedMicros());
  }
  table.Print();
  std::printf(
      "\nExpected shape: eager pays a full dictionary scan per delete;\n"
      "tombstoning batches that cost into a handful of compactions, so\n"
      "the per-delete cost drops by roughly the deletes-per-compaction\n"
      "factor even with the final compaction charged.\n");
}

/// Returns false when a Part A or Part B count drifts.
bool Run() {
  std::printf("E7 (Section 4.6): update propagation\n\n");
  const bool a = PartA();
  const bool b = PartB();
  PartC();
  return a && b;
}

}  // namespace
}  // namespace sdms::bench

int main() {
  const bool counts_hold = sdms::bench::Run();
  sdms::bench::EmitMetricsJson("e7_updates");
  return counts_hold ? 0 : 1;
}
