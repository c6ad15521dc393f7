// Postings-storage benchmark: block skipping and decode volume.
//
// Part A verifies the top-k oracle — Search(q, k) must be bit-identical
// to the first k hits of the exhaustive Search(q) — and exits non-zero
// on any divergence (CI runs this as a correctness gate).
// Part B compares decoded-postings volume between the exhaustive path
// and the Block-Max pruned top-k path (postings_scanned, blocks
// decoded/skipped).
//
// Knobs: --docs=N --words=N (corpus size).

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "irs/collection.h"

namespace sdms::bench {
namespace {

const char* kQueries[] = {
    "shared topic",
    "rare",
    "shared topic rare",
    "t1 t2 t3 shared",
    "t0",
    "t7 topic",
};
constexpr int kQueryIters = 20;
constexpr size_t kTopK = 10;

/// Doc ids are assigned in descending static quality — the docid
/// assignment production systems use to make Block-Max pruning bite:
/// the planted query terms appear with high tf in low-id documents and
/// decay towards tf 1, so late blocks carry low max_tf metadata and the
/// scorer can veto them once the top-k threshold is warm.
std::vector<irs::DocOp> MakeCorpus(size_t num_docs,
                                           size_t words_per_doc) {
  Rng rng(20260809);
  ZipfSampler zipf(2500, 1.1);
  std::vector<irs::DocOp> docs;
  docs.reserve(num_docs);
  for (size_t i = 0; i < num_docs; ++i) {
    // Quality boost 24 -> 1 across the corpus: caps how many planted
    // occurrences a document receives.
    size_t boost = 1 + (23 * (num_docs - 1 - i)) / std::max<size_t>(1, num_docs - 1);
    std::string text;
    text.reserve(words_per_doc * 8);
    for (size_t w = 0; w < words_per_doc; ++w) {
      if (!text.empty()) text += ' ';
      text += "t" + std::to_string(zipf.Sample(rng));
      if (w % 7 == 0 && i % 2 == 0 && w / 7 < boost) text += " shared";
      if (w % 11 == 0 && i % 3 == 0 && w / 11 < boost) text += " topic";
      if (w % 13 == 0 && i % 5 == 0 && w / 13 < boost) text += " rare";
    }
    docs.push_back({"oid:" + std::to_string(i), std::move(text)});
  }
  return docs;
}

struct ScanDelta {
  uint64_t postings = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
};

/// Runs `fn` and returns how much decode work it charged.
template <typename Fn>
ScanDelta MeasureScans(Fn&& fn) {
  obs::Counter& scanned = obs::GetCounter("irs.index.postings_scanned");
  obs::Counter& decoded = obs::GetCounter("irs.index.blocks_decoded");
  obs::Counter& skipped = obs::GetCounter("irs.index.blocks_skipped");
  uint64_t s0 = scanned.value(), d0 = decoded.value(), k0 = skipped.value();
  fn();
  return {scanned.value() - s0, decoded.value() - d0, skipped.value() - k0};
}

size_t FlagValue(int argc, char** argv, const char* flag, size_t def) {
  std::string prefix = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return static_cast<size_t>(std::stoul(argv[i] + prefix.size()));
    }
  }
  return def;
}

int Main(int argc, char** argv) {
  size_t num_docs = FlagValue(argc, argv, "--docs", 2000);
  size_t words = FlagValue(argc, argv, "--words", 120);
  std::printf("E-postings: block storage (%zu docs x %zu words)\n\n",
              num_docs, words);

  auto model = irs::MakeModel("bm25");
  if (!model.ok()) std::abort();
  irs::IrsCollection coll("bench", irs::AnalyzerOptions{}, std::move(*model));
  if (!coll.Apply(MakeCorpus(num_docs, words)).ok()) std::abort();

  // --- Part A: top-k oracle gate ----------------------------------------
  for (const char* q : kQueries) {
    auto full = coll.Search(q);
    auto topk = coll.Search(q, kTopK);
    if (!full.ok() || !topk.ok()) std::abort();
    size_t expect = std::min(kTopK, full->size());
    bool same = topk->size() == expect;
    for (size_t i = 0; same && i < expect; ++i) {
      same = (*topk)[i].key == (*full)[i].key &&
             (*topk)[i].score == (*full)[i].score;
    }
    if (!same) {
      std::fprintf(stderr,
                   "FATAL: top-%zu of '%s' diverges from the exhaustive "
                   "ranking\n",
                   kTopK, q);
      return 1;
    }
  }
  std::printf("top-%zu oracle: %zu queries bit-identical to exhaustive "
              "ranking\n\n",
              kTopK, std::size(kQueries));

  // --- Part B: decode volume, exhaustive vs pruned ----------------------
  auto run_workload = [&](size_t k) {
    for (int i = 0; i < kQueryIters; ++i) {
      for (const char* q : kQueries) {
        auto hits = coll.Search(q, k);
        if (!hits.ok()) std::abort();
      }
    }
  };
  Timer t_full;
  ScanDelta full = MeasureScans([&] { run_workload(0); });
  double full_ms = t_full.ElapsedMillis();
  Timer t_topk;
  ScanDelta topk = MeasureScans([&] { run_workload(kTopK); });
  double topk_ms = t_topk.ElapsedMillis();

  Table b({"path", "postings decoded", "blocks decoded", "blocks skipped",
           "ms"});
  b.AddRow({"exhaustive Search(q)", FmtInt(full.postings),
            FmtInt(full.blocks_decoded), FmtInt(full.blocks_skipped),
            Fmt("%.1f", full_ms)});
  b.AddRow({"top-10 Block-Max", FmtInt(topk.postings),
            FmtInt(topk.blocks_decoded), FmtInt(topk.blocks_skipped),
            Fmt("%.1f", topk_ms)});
  b.Print();
  double reduction = topk.postings > 0
                         ? static_cast<double>(full.postings) /
                               static_cast<double>(topk.postings)
                         : 0.0;
  std::printf("pruned path decodes %.1fx fewer postings\n\n", reduction);
  obs::GetGauge("bench.postings.full_postings_scanned")
      .Set(static_cast<int64_t>(full.postings));
  obs::GetGauge("bench.postings.topk_postings_scanned")
      .Set(static_cast<int64_t>(topk.postings));
  obs::GetGauge("bench.postings.topk_blocks_skipped")
      .Set(static_cast<int64_t>(topk.blocks_skipped));
  obs::GetGauge("bench.postings.scan_reduction_x100")
      .Set(static_cast<int64_t>(reduction * 100));

  EmitMetricsJson("postings");
  return 0;
}

}  // namespace
}  // namespace sdms::bench

int main(int argc, char** argv) { return sdms::bench::Main(argc, argv); }
