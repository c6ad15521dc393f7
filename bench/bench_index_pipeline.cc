// Index-pipeline benchmark: batch/parallel indexing vs the sequential
// per-document path, plus the postings-level query kernels.
//
// Part A times indexing the same synthetic corpus four ways —
// AddDocument loop, one IrsCollection::Apply without a pool, and
// Apply on 2- and 4-thread pools — and reports throughput
// and speedup. The batch results are verified bit-identical to the
// sequential index before any number is printed.
// Part B times the query kernels: the block-cursor intersection
// (IntersectCursors) against decoding every list whole and merging
// linearly, and end-to-end #and / #od latency.
//
// Knobs: --docs=N --words=N (corpus size), SDMS_THREADS (default pool).

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "irs/collection.h"
#include "irs/index/postings_kernels.h"

namespace sdms::bench {
namespace {

std::vector<irs::DocOp> MakeCorpus(size_t num_docs,
                                           size_t words_per_doc) {
  Rng rng(4242);
  ZipfSampler zipf(3000, 1.05);
  std::vector<irs::DocOp> docs;
  docs.reserve(num_docs);
  for (size_t i = 0; i < num_docs; ++i) {
    std::string text;
    text.reserve(words_per_doc * 8);
    for (size_t w = 0; w < words_per_doc; ++w) {
      if (!text.empty()) text += ' ';
      text += "w" + std::to_string(zipf.Sample(rng));
      // Plant query terms with doc-dependent density so #and/#od have
      // non-trivial, partially-overlapping postings to chew on.
      if (w % 7 == 0 && i % 2 == 0) text += " shared";
      if (w % 11 == 0 && i % 3 == 0) text += " topic";
      if (w % 13 == 0 && i % 5 == 0) text += " rare";
    }
    docs.push_back({"oid:" + std::to_string(i), std::move(text)});
  }
  return docs;
}

std::unique_ptr<irs::IrsCollection> FreshCollection() {
  auto model = irs::MakeModel("inquery");
  if (!model.ok()) std::abort();
  return std::make_unique<irs::IrsCollection>("bench", irs::AnalyzerOptions{},
                                              std::move(*model));
}

struct IndexRun {
  std::string label;
  double ms = 0;
  std::string serialized;
};

IndexRun TimeSequential(const std::vector<irs::DocOp>& docs) {
  auto coll = FreshCollection();
  Timer t;
  for (const auto& d : docs) {
    if (!coll->AddDocument(d.key, *d.text).ok()) std::abort();
  }
  IndexRun run{"sequential AddDocument", t.ElapsedMillis(), {}};
  auto blob = coll->Serialize();
  if (!blob.ok()) std::abort();
  run.serialized = std::move(*blob);
  return run;
}

IndexRun TimeBatch(const std::vector<irs::DocOp>& docs,
                   size_t threads) {
  auto coll = FreshCollection();
  // A 1-worker pool runs ParallelFor inline, so the 1-thread row
  // measures the batch algorithm alone (passing nullptr would fall back
  // to the process default pool instead).
  ThreadPool pool(threads);
  Timer t;
  Status s = coll->Apply(docs, &pool);
  if (!s.ok()) std::abort();
  IndexRun run{"batch, " + std::to_string(threads) + " thread(s)",
               t.ElapsedMillis(),
               {}};
  auto blob = coll->Serialize();
  if (!blob.ok()) std::abort();
  run.serialized = std::move(*blob);
  return run;
}

/// Linear-merge intersection baseline for the kernel comparison.
std::vector<irs::DocId> IntersectLinear(
    const std::vector<const std::vector<irs::Posting>*>& lists) {
  if (lists.empty()) return {};
  std::vector<irs::DocId> acc;
  for (const irs::Posting& p : *lists[0]) acc.push_back(p.doc);
  for (size_t i = 1; i < lists.size(); ++i) {
    std::vector<irs::DocId> next;
    size_t a = 0, b = 0;
    const auto& l = *lists[i];
    while (a < acc.size() && b < l.size()) {
      if (acc[a] < l[b].doc) {
        ++a;
      } else if (l[b].doc < acc[a]) {
        ++b;
      } else {
        next.push_back(acc[a]);
        ++a;
        ++b;
      }
    }
    acc = std::move(next);
  }
  return acc;
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
  std::printf("E-pipeline: batch indexing + query kernels (%zu docs x %zu "
              "words, hw=%u)\n\n",
              num_docs, words, std::thread::hardware_concurrency());

  std::vector<irs::DocOp> docs = MakeCorpus(num_docs, words);

  // --- Part A: indexing throughput --------------------------------------
  IndexRun seq = TimeSequential(docs);
  std::vector<IndexRun> runs;
  runs.push_back(TimeBatch(docs, 1));
  runs.push_back(TimeBatch(docs, 2));
  runs.push_back(TimeBatch(docs, 4));
  for (const IndexRun& r : runs) {
    if (r.serialized != seq.serialized) {
      std::fprintf(stderr, "FATAL: %s produced a different index\n",
                   r.label.c_str());
      return 1;
    }
  }

  Table a({"path", "ms", "docs/s", "speedup"});
  auto add_row = [&](const IndexRun& r) {
    a.AddRow({r.label, Fmt("%.1f", r.ms),
              Fmt("%.0f", static_cast<double>(num_docs) / (r.ms / 1000.0)),
              Fmt("%.2fx", seq.ms / r.ms)});
  };
  add_row(seq);
  for (const IndexRun& r : runs) add_row(r);
  a.Print();
  std::printf("(all batch variants verified bit-identical to sequential)\n\n");

  // Context for readers of the committed json: thread speedups are only
  // meaningful relative to the cores the run actually had.
  obs::GetGauge("bench.pipeline.hardware_concurrency")
      .Set(static_cast<int64_t>(std::thread::hardware_concurrency()));
  obs::GetGauge("bench.pipeline.seq_index_micros")
      .Set(static_cast<int64_t>(seq.ms * 1000));
  obs::GetGauge("bench.pipeline.batch1_index_micros")
      .Set(static_cast<int64_t>(runs[0].ms * 1000));
  obs::GetGauge("bench.pipeline.batch2_index_micros")
      .Set(static_cast<int64_t>(runs[1].ms * 1000));
  obs::GetGauge("bench.pipeline.batch4_index_micros")
      .Set(static_cast<int64_t>(runs[2].ms * 1000));
  obs::GetGauge("bench.pipeline.batch4_speedup_x100")
      .Set(static_cast<int64_t>(100.0 * seq.ms / runs[2].ms));

  // --- Part B: query kernels --------------------------------------------
  auto coll = FreshCollection();
  if (!coll->Apply(docs).ok()) std::abort();
  const irs::InvertedIndex& index = coll->index();

  // Dictionary terms are post-analysis (stemmed), so run the probe
  // words through the collection's analyzer first. Both kernels pay
  // for decoding: the cursor kernel decodes only the blocks it lands
  // in, the linear-merge baseline decodes every list whole.
  std::vector<const irs::BlockPostingsList*> lists;
  std::vector<std::string> terms;
  for (const char* word : {"shared", "topic", "rare"}) {
    std::vector<std::string> analyzed = coll->analyzer().Analyze(word);
    const irs::BlockPostingsList* list =
        analyzed.empty() ? nullptr : index.GetPostingsList(analyzed[0]);
    if (list == nullptr || list->empty()) {
      std::fprintf(stderr, "FATAL: no postings for %s\n", word);
      return 1;
    }
    lists.push_back(list);
    terms.push_back(analyzed[0]);
  }
  constexpr int kKernelIters = 400;
  Timer tc;
  size_t cursor_hits = 0;
  for (int i = 0; i < kKernelIters; ++i) {
    std::vector<irs::PostingsCursor> cursors;
    for (const std::string& t : terms) cursors.push_back(index.OpenCursor(t));
    auto hits = irs::IntersectCursors(std::move(cursors));
    if (!hits.ok()) std::abort();
    cursor_hits = hits->size();
  }
  double cursor_us = static_cast<double>(tc.ElapsedMicros()) / kKernelIters;
  Timer tl;
  size_t linear_hits = 0;
  for (int i = 0; i < kKernelIters; ++i) {
    std::vector<std::vector<irs::Posting>> decoded;
    std::vector<const std::vector<irs::Posting>*> flat;
    decoded.reserve(lists.size());
    for (const irs::BlockPostingsList* list : lists) {
      auto l = list->DecodeAll();
      if (!l.ok()) std::abort();
      decoded.push_back(std::move(*l));
      flat.push_back(&decoded.back());
    }
    linear_hits = IntersectLinear(flat).size();
  }
  double linear_us = static_cast<double>(tl.ElapsedMicros()) / kKernelIters;
  if (cursor_hits != linear_hits) {
    std::fprintf(stderr, "FATAL: kernel results diverge (%zu vs %zu)\n",
                 cursor_hits, linear_hits);
    return 1;
  }

  constexpr int kQueryIters = 50;
  auto time_query = [&](const std::string& q) {
    Timer t;
    for (int i = 0; i < kQueryIters; ++i) {
      auto hits = coll->Search(q, 10);
      if (!hits.ok()) std::abort();
    }
    return static_cast<double>(t.ElapsedMicros()) / kQueryIters;
  };
  double and_us = time_query("#and(shared topic rare)");
  double od_us = time_query("#od3(shared topic)");

  Table b({"kernel", "us/op", "note"});
  b.AddRow({"intersect cursors", Fmt("%.1f", cursor_us),
            FmtInt(cursor_hits) + " docs"});
  b.AddRow({"intersect decode-all + linear-merge", Fmt("%.1f", linear_us),
            Fmt("%.2fx vs cursors", linear_us / cursor_us)});
  b.AddRow({"#and(shared topic rare) top-10", Fmt("%.1f", and_us), ""});
  b.AddRow({"#od3(shared topic) top-10", Fmt("%.1f", od_us), ""});
  b.Print();

  obs::GetGauge("bench.pipeline.intersect_cursor_ns")
      .Set(static_cast<int64_t>(cursor_us * 1000));
  obs::GetGauge("bench.pipeline.intersect_linear_ns")
      .Set(static_cast<int64_t>(linear_us * 1000));
  obs::GetGauge("bench.pipeline.and_query_micros")
      .Set(static_cast<int64_t>(and_us));
  obs::GetGauge("bench.pipeline.od_query_micros")
      .Set(static_cast<int64_t>(od_us));

  EmitMetricsJson("index_pipeline");
  return 0;
}

}  // namespace
}  // namespace sdms::bench

int main(int argc, char** argv) { return sdms::bench::Main(argc, argv); }
