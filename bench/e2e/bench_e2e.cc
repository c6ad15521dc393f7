// End-to-end VQL benchmark. One process runs one workload: VQL requests
// go SdmsClient -> in-process sdms Server -> coupling -> 4 in-process IRS
// shards over a generated MMF corpus of ~10^5 elements. See README.md
// for the workloads, the metrics and the correctness oracles.
//
// Phases of a run: set-up (repeated --setup-reps times; the median is
// setup_s), workload preparation (statement pool, oracles, threshold
// calibration), warm-up, measurement, post-run oracles. Without
// --trace the measurement is untraced and yields the end-to-end
// metrics. With --trace it is split in half: an untraced half (the
// baseline of trace.overhead_pct) and a traced half in which every
// request sets want_profile; the server's stage trees give the
// per-layer metrics and trace.json. --counters replaces the timed
// phases by a fixed request sequence whose work counters repeat exactly.
//
// Every workload runs one closed-loop connection. The server executes
// statements one at a time under its exec mutex, so further connections
// only queue behind it: with four, p99 measured the queue and the
// scheduler of a few shared cores, and spread by up to 30% between runs.
//
// Output: one `workload metric value unit` line per metric on stdout
// and the full record as JSON in --out. The exit code is non-zero when
// any answer was wrong, failed or degraded.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/obs/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "coupling/coupling.h"
#include "coupling/mixed_query.h"
#include "irs/engine.h"
#include "oodb/database.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sgml/corpus/generator.h"
#include "sgml/mmf_dtd.h"
#include "stage_tree.h"

extern char** environ;

#ifndef SDMS_BUILD_TYPE
#define SDMS_BUILD_TYPE "unknown"
#endif

namespace sdms::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;
using coupling::MixedQueryEvaluator;
using oodb::vql::QueryResult;

constexpr uint32_t kShards = 4;
constexpr char kCollection[] = "paras";
constexpr size_t kPoolSize = 256;
constexpr double kPoolZipf = 1.1;
/// Pool ranks are dealt from a shuffled deck of this many cards whose
/// counts follow the Zipf weights, so every run of a few thousand
/// statements sends the mix it claims. With independent draws, the count
/// of full scans (5% of the statements, about 60% of the time) alone
/// spread qps by 5% and p50 by 7% between runs (see README.md).
constexpr size_t kDeckSize = 512;
/// Pool ranks whose IRS-first statements are cross-checked against the
/// independent strategy (about 73% of the Zipf-weighted traffic). Each
/// check scans the whole PARA extent, so the count bounds set-up time.
constexpr size_t kCrossCheckRanks = 32;
constexpr size_t kColdBufferBytes = size_t{32} << 20;
constexpr size_t kOracleEvery = 50;
/// Vocabulary ranks (1-based) query terms are drawn from.
constexpr size_t kMinTermRank = 10;
constexpr size_t kMaxTermRank = 3000;
/// read_cold thresholds: per query shape, the median calibration query
/// returns this many rows.
constexpr size_t kColdTargetRows = 100;
constexpr size_t kCalibrationQueriesPerShape = 48;
/// Requests of the --counters pass, and traced requests kept for
/// trace.json.
constexpr size_t kCounterRequests = 2000;
constexpr size_t kTraceRequests = 200;
/// Chrome trace thread id of the client's spans.
constexpr int kTraceLane = 1;
const char* const kOps[] = {"#and", "#or", "#sum"};
/// Steps of the per-rank schedules (RankSchedule).
constexpr double kGolden = 0.6180339887498949;
constexpr double kPlastic = 0.7548776662466927;
/// Where rank 0, a fifth of read_hot's traffic, sits in the row
/// schedule (about 400 rows). Derivations and scans cost more than any
/// IRS-first statement, and with this start about three quarters of the
/// other IRS-first traffic returns fewer rows. So rank 0's statements
/// span the 40th to 60th latency percentile and p50 is their latency.
/// Rank 0 started at 0.62 before; its share then ended at the 50th
/// percentile, and p50 jumped between it and the sparse ranks above,
/// from 0.9 to 1.4 ms between seeds.
constexpr double kTopRankRows = 0.8;

enum class Workload { kReadHot, kReadCold, kIngest };

struct Args {
  Workload workload = Workload::kReadHot;
  std::string workload_name = "read_hot";
  uint64_t seed = 1;
  size_t docs = 5000;
  /// BENCHMARK.json's run_seconds.
  double seconds = 20;
  double warmup_seconds = 2;
  int setup_reps = 3;
  bool trace = false;
  bool counters = false;
  std::string out;
  std::string trace_out = "trace.json";
  std::string tmp_dir = "bench_e2e_tmp";
  std::string git_sha = "unknown";
};

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

MixedQueryEvaluator::Strategy StrategyOf(int wire_strategy) {
  return wire_strategy == 1 ? MixedQueryEvaluator::Strategy::kIrsFirst
                            : MixedQueryEvaluator::Strategy::kIndependent;
}

/// Bit-exact form of a result: the wire encoding of a response that
/// carries only the result (scores are raw 8-byte doubles).
std::string Canonical(const QueryResult& r) {
  server::QueryResponse resp;
  resp.result = r;
  return server::EncodeQueryResponse(resp);
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

/// Clears every SDMS_* knob the caller's environment may carry (faults,
/// buffering, slow-query log, admission, deadlines, buffer pool, shard
/// endpoints, threads, ...) and pins the ones the bench owns. Runs
/// before any library code reads its environment.
std::vector<std::string> PinEnvironment(Workload w) {
  std::vector<std::string> cleared;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string kv = *e;
    if (kv.rfind("SDMS_", 0) == 0) cleared.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& name : cleared) unsetenv(name.c_str());
  setenv("SDMS_SHARDS", std::to_string(kShards).c_str(), 1);
  // The stated flush policy of the write workload: WAL and journal are
  // written but never fsynced.
  if (w == Workload::kIngest) setenv("SDMS_NO_FSYNC", "1", 1);
  return cleared;
}

size_t OnlineCpus() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

// ---------------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0;
  double store_s = 0;
  double index_s = 0;
  double total_s = 0;
};

struct System {
  std::string data_dir;
  std::unique_ptr<oodb::Database> db;
  std::unique_ptr<irs::IrsEngine> irs;
  std::unique_ptr<coupling::Coupling> coupling;
  coupling::Collection* paras = nullptr;
  std::vector<Oid> roots;
  size_t elements = 0;
  /// Vocabulary ranks [kMinTermRank, kMaxTermRank] that survive
  /// analysis as one term (stopwords such as "same" are dropped), and
  /// their document frequencies in `paras`.
  std::vector<std::string> query_terms;
  std::vector<uint64_t> query_term_df;

  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Closes everything in dependency order, then removes the data
  /// directory the database and journal lived in.
  ~System() {
    coupling.reset();
    irs.reset();
    db.reset();
    if (!data_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);
    }
  }
};

size_t CountElements(const sgml::ElementNode& e) {
  size_t n = 1;
  for (const sgml::Node& c : e.children()) {
    if (c.kind == sgml::Node::Kind::kElement) n += CountElements(*c.element);
  }
  return n;
}

/// Generates the corpus, stores it and indexes `paras`. Each step is
/// timed from outside.
std::unique_ptr<System> BuildSystem(const Args& args, int rep,
                                    SetupTimes* times) {
  auto sys = std::make_unique<System>();
  const Clock::time_point start = Clock::now();

  Clock::time_point t = Clock::now();
  sgml::CorpusOptions corpus_options;
  corpus_options.num_docs = args.docs;
  corpus_options.seed = args.seed;
  sgml::CorpusGenerator generator(corpus_options);
  sgml::Corpus corpus = generator.Generate();
  times->generate_s = SecondsSince(t);

  t = Clock::now();
  oodb::Database::Options db_options;
  coupling::CouplingOptions options;
  if (args.workload == Workload::kIngest) {
    sys->data_dir = args.tmp_dir + "/" + std::to_string(getpid()) + "-" +
                    std::to_string(rep);
    std::filesystem::create_directories(sys->data_dir + "/db");
    db_options.data_dir = sys->data_dir + "/db";
    db_options.sync_commits = false;
    options.journal_path = sys->data_dir + "/propagation.journal";
  }
  if (args.workload == Workload::kReadCold) {
    options.buffer_max_bytes = kColdBufferBytes;
  }
  auto db = oodb::Database::Open(db_options);
  Check(db.status(), "database open");
  sys->db = std::move(*db);
  sys->irs = std::make_unique<irs::IrsEngine>();
  sys->coupling = std::make_unique<coupling::Coupling>(sys->db.get(),
                                                       sys->irs.get(), options);
  Check(sys->coupling->Initialize(), "coupling init");
  auto dtd = sgml::LoadMmfDtd();
  Check(dtd.status(), "dtd");
  Check(sys->coupling->RegisterDtdClasses(*dtd), "dtd classes");
  for (const sgml::Document& doc : corpus.documents) {
    auto root = sys->coupling->StoreDocument(doc);
    Check(root.status(), "store document");
    sys->roots.push_back(*root);
  }
  times->store_s = SecondsSince(t);
  for (const sgml::Document& doc : corpus.documents) {
    sys->elements += CountElements(*doc.root);
  }

  t = Clock::now();
  auto coll = sys->coupling->CreateCollection(kCollection, "inquery");
  Check(coll.status(), "create collection");
  sys->paras = *coll;
  Check(sys->paras->IndexObjects("ACCESS p FROM p IN PARA",
                                 coupling::kTextModeSubtree),
        "indexObjects");
  times->index_s = SecondsSince(t);

  auto irs_coll = sys->irs->GetCollection(kCollection);
  Check(irs_coll.status(), "IRS collection");
  const std::vector<std::string>& vocabulary = generator.vocabulary();
  const irs::Analyzer& analyzer = (*irs_coll)->analyzer();
  for (size_t rank = kMinTermRank;
       rank <= std::min(kMaxTermRank, vocabulary.size()); ++rank) {
    const std::string& word = vocabulary[rank - 1];
    if (analyzer.Analyze(word).size() != 1) continue;
    uint64_t df = 0;
    for (size_t s = 0; s < (*irs_coll)->num_shards(); ++s) {
      df += (*irs_coll)->shard(s).DocFreq(analyzer.AnalyzeTerm(word));
    }
    sys->query_terms.push_back(word);
    sys->query_term_df.push_back(df);
  }

  times->total_s = SecondsSince(start);
  return sys;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct Statement {
  std::string vql;
  uint8_t strategy = 0;  // 0 independent, 1 IRS-first
  bool ranges_para = true;
};

enum class PoolKind { kIrsFirst, kDerivation, kScan };

std::string FormatThreshold(double t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", t);
  return buf;
}

/// Draws IRS queries of 2-3 distinct query terms, picked uniformly,
/// under #and/#or/#sum.
class QueryDrawer {
 public:
  /// shape / 2 selects the operator, shape % 2 the arity (2 or 3).
  static constexpr int kShapes = 6;

  QueryDrawer(const System& sys, uint64_t seed)
      : terms_(sys.query_terms), df_(sys.query_term_df), rng_(seed) {}

  /// A query never returned before; `*df_sum` receives the summed
  /// document frequency of its terms.
  std::string Draw(int shape, uint64_t* df_sum = nullptr) {
    const size_t arity = 2 + static_cast<size_t>(shape % 2);
    for (;;) {
      std::set<size_t> picks;
      while (picks.size() < arity) picks.insert(rng_.Uniform(terms_.size()));
      std::string q = std::string(kOps[shape / 2]) + "(";
      uint64_t df = 0;
      for (size_t i : picks) {
        if (q.back() != '(') q += " ";
        q += terms_[i];
        df += df_[i];
      }
      q += ")";
      if (!used_.insert(q).second) continue;
      if (df_sum != nullptr) *df_sum = df;
      return q;
    }
  }

 private:
  const std::vector<std::string>& terms_;
  const std::vector<uint64_t>& df_;
  Rng rng_;
  std::set<std::string> used_;
};

std::string ParaStatement(const std::string& q, const std::string& t,
                          bool ordered) {
  std::string call = "p -> getIRSValue('" + std::string(kCollection) +
                     "', '" + q + "')";
  if (!ordered) return "ACCESS p FROM p IN PARA WHERE " + call + " > " + t;
  return "ACCESS p, " + call + " FROM p IN PARA WHERE " + call + " > " + t +
         " ORDER BY " + call + " DESC LIMIT 20";
}

/// Threshold between the k-th best score and the next lower distinct
/// score (or the null score), so that at least min(k, |scores|) rows
/// qualify. `desc` is sorted descending; every entry exceeds `null`.
double ThresholdForRows(const std::vector<double>& desc, size_t k,
                        double null) {
  size_t i = std::min(std::max<size_t>(k, 1), desc.size()) - 1;
  size_t j = i + 1;
  while (j < desc.size() && desc[j] == desc[i]) ++j;
  double lower = j < desc.size() ? desc[j] : null;
  return lower + (desc[i] - lower) / 2;
}

std::vector<double> ScoresAboveNull(const coupling::OidScoreMap& result,
                                    double null) {
  std::vector<double> scores;
  for (const auto& [oid, score] : result) {
    if (score > null) scores.push_back(score);
  }
  std::sort(scores.rbegin(), scores.rend());
  return scores;
}

/// Per-rank schedule value, log-uniform in [lo, hi]: the additive
/// sequence start + r * alpha (mod 1) spreads the ranks evenly and is the
/// same for every seed.
double RankSchedule(size_t r, double lo, double hi, double start,
                    double alpha) {
  double u = std::fmod(start + static_cast<double>(r) * alpha, 1.0);
  return lo * std::pow(hi / lo, u);
}

/// Statement types by pool rank, chosen so that the Zipf-weighted
/// shares are 75% IRS-first, 20% derivation, 5% scans for every seed.
std::vector<PoolKind> AssignPoolKinds(const std::vector<double>& weights) {
  const PoolKind kinds[] = {PoolKind::kIrsFirst, PoolKind::kDerivation,
                            PoolKind::kScan};
  const double target[] = {0.75, 0.20, 0.05};
  double assigned[] = {0, 0, 0};
  double seen = 0;
  std::vector<PoolKind> out;
  for (double w : weights) {
    seen += w;
    int best = 0;
    for (int k = 1; k < 3; ++k) {
      if (target[k] * seen - assigned[k] > target[best] * seen - assigned[best]) {
        best = k;
      }
    }
    assigned[best] += w;
    out.push_back(kinds[best]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

/// Per-layer accumulation over traced requests.
struct LayerStats {
  uint64_t queries = 0;
  double client_us = 0;
  double total_micros = 0;
  std::vector<double> outside_us;
  std::map<std::string, double> self_us;
  double unattributed_us = 0;
  uint64_t irs_calls = 0;
  uint64_t postings_scanned = 0;
  uint64_t blocks_skipped = 0;
  uint64_t derive_calls = 0;
  uint64_t bindings_scanned = 0;
  uint64_t rows_emitted = 0;
  uint64_t lookup_statements = 0;
  uint64_t hit_statements = 0;
  uint64_t fanout_queries = 0;
  double shard_max_us = 0;
  double shard_skew = 0;

  void Add(const StageNode& root, double client, double server_total) {
    ++queries;
    client_us += client;
    total_micros += server_total;
    outside_us.push_back(client - server_total);
    std::map<std::string, double> self;
    AddChildSelfTimes(root, &self);
    double attributed = 0;
    for (const auto& [k, v] : self) {
      self_us[k] += v;
      attributed += v;
    }
    unattributed_us += server_total - attributed;
    postings_scanned += SumCounter(root, "postings_scanned");
    blocks_skipped += SumCounter(root, "blocks_skipped");
    derive_calls += SumCounter(root, "derive_calls");
    bindings_scanned += SumCounter(root, "bindings_scanned");
    rows_emitted += SumCounter(root, "rows_emitted");
    uint64_t hits = SumCounter(root, "buffer_hits");
    uint64_t misses = SumCounter(root, "buffer_misses");
    if (hits + misses > 0) {
      ++lookup_statements;
      if (misses == 0) ++hit_statements;
    }
    std::map<std::string, std::pair<double, uint64_t>> shards;
    VisitStages(root, [&](const StageNode& s) {
      if (s.name == "irs_query") irs_calls += s.invocations;
      if (IsShardStage(s.name)) {
        shards[s.name].first += static_cast<double>(s.total_us);
        shards[s.name].second += s.invocations;
      }
    });
    if (!shards.empty()) {
      double max_us = 0;
      double sum_us = 0;
      for (const auto& [name, tv] : shards) {
        double per_call = tv.first / static_cast<double>(std::max<uint64_t>(tv.second, 1));
        max_us = std::max(max_us, per_call);
        sum_us += per_call;
      }
      double mean_us = sum_us / static_cast<double>(shards.size());
      ++fanout_queries;
      shard_max_us += max_us;
      shard_skew += mean_us > 0 ? max_us / mean_us : 1.0;
    }
  }
};

struct ColdCheck {
  Statement statement;
  std::string canonical;
};

/// What the client observed.
struct ClientStats {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t degraded = 0;
  uint64_t mismatched = 0;
  std::vector<double> latency_us;
  std::vector<double> rows;
  double request_bytes = 0;
  double response_bytes = 0;
  Clock::time_point last_done{};
  // Traced half.
  uint64_t traced_ok = 0;
  Clock::time_point traced_last_done{};
  LayerStats layers;
  std::string trace_events;
  // ingest
  std::vector<double> write_us;
  std::vector<double> propagate_us;
  std::vector<double> write_visible_us;
  uint64_t oracle_checks = 0;
  std::vector<ColdCheck> cold_checks;
  std::string first_error;

  void NoteError(const std::string& e) {
    if (first_error.empty()) first_error = e;
  }
};

enum Phase : int { kWarmup = 0, kMeasure = 1, kTraced = 2, kStop = 3 };

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

class Bench {
 public:
  Bench(Args args, std::vector<std::string> env_cleared)
      : args_(std::move(args)), env_cleared_(std::move(env_cleared)) {}

  int Run();

 private:
  void SetUp();
  void PrepareReadPool();
  void CalibrateCold();
  void PrepareIngest();
  Statement NextColdStatement(size_t* index);
  void StartServer();
  void RunLoad();
  /// Closed loop on the bench's one connection until the phase says
  /// stop or `max_requests` (0 = unbounded) requests were sent.
  void ClientLoop(size_t max_requests, ClientStats* cs);
  /// One ingest write plus PropagateUpdates(); `roll` in [0, 1) picks
  /// the kind of write.
  void IngestWrite(double roll, Rng& rng, ClientStats* cs, bool record);
  /// Sends one statement and books the outcome in `cs` when `record`.
  /// Returns true for an ok, non-degraded answer, whose canonical form
  /// goes to `*canonical`.
  bool Request(server::SdmsClient& client, const Statement& st, bool profile,
               bool record, ClientStats* cs, std::string* canonical);
  void PostChecks(ClientStats& cs);
  void Report(ClientStats& cs);
  void RunCounters();
  void AddMetric(const std::string& name, double value,
                 const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  std::string HostJson() const;
  /// Prints every metric and writes the run record to --out.
  void WriteRecord(bool correct, uint64_t attempted, uint64_t failed);

  Args args_;
  std::vector<std::string> env_cleared_;
  std::unique_ptr<System> sys_;
  std::vector<SetupTimes> setup_times_;
  std::unique_ptr<server::Server> server_;
  std::vector<Metric> metrics_;

  // Read pool (read_hot, ingest).
  std::vector<Statement> pool_;
  std::vector<std::string> pool_oracle_;
  std::vector<size_t> pool_deck_;
  size_t deck_next_ = 0;

  // Cold stream (read_cold).
  std::unique_ptr<QueryDrawer> cold_drawer_;
  double cold_thresholds_[QueryDrawer::kShapes] = {};
  size_t cold_next_ = 0;

  // Ingest state (client thread only).
  std::vector<Oid> live_paras_;
  std::vector<Oid> live_roots_;
  std::vector<std::string> para_texts_;
  sgml::Corpus insert_docs_;
  size_t next_insert_ = 0;
  uint64_t insert_chunks_ = 0;
  size_t next_text_ = 0;
  uint64_t ingest_iterations_ = 0;
  int exit_code_ = 0;
  double prepare_s_ = 0;

  std::atomic<int> phase_{kWarmup};
  size_t traced_recorded_ = 0;
  Clock::time_point measure_start_{};
  Clock::time_point traced_start_{};
  uint64_t compactions_before_ = 0;
};

void Bench::SetUp() {
  for (int rep = 0; rep < args_.setup_reps; ++rep) {
    // The previous system goes first: only one is ever alive, so peak
    // RSS is that of one system.
    sys_.reset();
    SetupTimes t;
    sys_ = BuildSystem(args_, rep, &t);
    setup_times_.push_back(t);
  }
}

void Bench::PrepareReadPool() {
  std::vector<double> weights;
  for (size_t r = 0; r < kPoolSize; ++r) {
    weights.push_back(1.0 / std::pow(static_cast<double>(r + 1), kPoolZipf));
  }
  std::vector<PoolKind> kinds = AssignPoolKinds(weights);
  // Rank r gets the cards between the rounded cumulative weights before
  // and after it.
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double cumulative = 0;
  for (size_t r = 0; r < kPoolSize; ++r) {
    const size_t from = std::lround(cumulative / total * kDeckSize);
    cumulative += weights[r];
    const size_t to = std::lround(cumulative / total * kDeckSize);
    pool_deck_.insert(pool_deck_.end(), to - from, r);
  }
  deck_next_ = pool_deck_.size();
  QueryDrawer drawer(*sys_, args_.seed * 7919 + 17);
  MixedQueryEvaluator eval(sys_->coupling.get());
  const double paras = static_cast<double>(sys_->paras->represented_count());
  size_t irs_first_seen = 0;
  for (size_t r = 0; r < kPoolSize; ++r) {
    // Type, shape, row target and the terms' summed document frequency
    // (the size of the IRS result the statement walks) are fixed per
    // rank, so a statement's cost does not depend on the seed.
    const int shape = static_cast<int>(r % QueryDrawer::kShapes);
    const double rows = RankSchedule(r, 10, 1000, kTopRankRows, kGolden);
    const double df_target =
        RankSchedule(r, paras / 125, paras / 8, kPlastic, kPlastic);
    const int year = 1990 + static_cast<int>(r % 7);
    Statement st;
    std::string oracle;
    for (int attempt = 0;; ++attempt) {
      if (attempt > 100000) {
        Die("cannot draw a pool statement at rank " + std::to_string(r));
      }
      uint64_t df = 0;
      std::string q = drawer.Draw(shape, &df);
      if (df < df_target / 1.1 || df > df_target * 1.1) continue;
      auto null = sys_->paras->NullScore(q);
      Check(null.status(), "null score");
      if (kinds[r] == PoolKind::kDerivation) {
        std::string call = "d -> getIRSValue('" + std::string(kCollection) +
                           "', '" + q + "')";
        std::string probe = "ACCESS " + call +
                            " FROM d IN MMFDOC WHERE d.YEAR == " +
                            std::to_string(year);
        auto values = eval.Run(probe, MixedQueryEvaluator::Strategy::kIndependent);
        Check(values.status(), "derivation probe");
        std::vector<double> desc;
        for (const auto& row : values->rows) {
          auto v = row[0].AsNumber();
          if (v.ok() && *v > *null) desc.push_back(*v);
        }
        if (desc.size() < 5) continue;
        std::sort(desc.rbegin(), desc.rend());
        double t = ThresholdForRows(desc, static_cast<size_t>(rows / 10), *null);
        st.vql = "ACCESS d FROM d IN MMFDOC WHERE d.YEAR == " +
                 std::to_string(year) + " AND " + call + " > " +
                 FormatThreshold(t);
        st.strategy = 0;
        st.ranges_para = false;
      } else {
        auto result = sys_->paras->GetIrsResult(q);
        Check(result.status(), "pool IRS result");
        std::vector<double> desc = ScoresAboveNull(**result, *null);
        if (desc.size() < 10) continue;
        double t = ThresholdForRows(desc, static_cast<size_t>(rows), *null);
        bool irs_first = kinds[r] == PoolKind::kIrsFirst;
        bool ordered = irs_first && (irs_first_seen++ % 2 == 1);
        st.vql = ParaStatement(q, FormatThreshold(t), ordered);
        st.strategy = irs_first ? 1 : 0;
        st.ranges_para = true;
      }
      break;
    }
    if (args_.workload == Workload::kReadHot) {
      // The oracle: the statement computed in-process. For PARA-ranging
      // statements IRS-first is sound, so both strategies must agree.
      // The independent strategy scans the whole PARA extent, so the
      // check runs on scans and on the top-ranked IRS-first statements,
      // which carry most of the traffic.
      auto answer = eval.Run(st.vql, StrategyOf(st.strategy));
      Check(answer.status(), "pool oracle");
      if (answer->degraded) Die("pool oracle degraded: " + st.vql);
      oracle = Canonical(*answer);
      if (st.ranges_para && (st.strategy == 0 || r < kCrossCheckRanks)) {
        auto other = eval.Run(st.vql, StrategyOf(1 - st.strategy));
        Check(other.status(), "pool oracle (other strategy)");
        if (Canonical(*other) != oracle) {
          Die("strategies disagree on pool statement: " + st.vql);
        }
      }
    }
    pool_.push_back(std::move(st));
    pool_oracle_.push_back(std::move(oracle));
  }
}

void Bench::CalibrateCold() {
  cold_drawer_ = std::make_unique<QueryDrawer>(*sys_, args_.seed * 104729 + 3);
  for (int shape = 0; shape < QueryDrawer::kShapes; ++shape) {
    std::vector<double> cut;
    double null_score = 0;
    for (size_t i = 0; i < kCalibrationQueriesPerShape; ++i) {
      // Drawn from the same stream, so calibration queries are never
      // sent over the wire.
      std::string q = cold_drawer_->Draw(shape);
      auto null = sys_->paras->NullScore(q);
      Check(null.status(), "null score");
      null_score = *null;
      auto result = sys_->paras->GetIrsResult(q);
      Check(result.status(), "calibration IRS result");
      std::vector<double> desc = ScoresAboveNull(**result, *null);
      cut.push_back(desc.size() >= kColdTargetRows ? desc[kColdTargetRows - 1]
                                                   : *null);
    }
    cold_thresholds_[shape] = std::nextafter(Median(cut), 2.0);
    if (cold_thresholds_[shape] <= null_score) {
      cold_thresholds_[shape] = std::nextafter(null_score, 2.0);
    }
  }
  sys_->paras->buffer().Clear();
}

Statement Bench::NextColdStatement(size_t* index) {
  const int shape = static_cast<int>(cold_next_ % QueryDrawer::kShapes);
  std::string q = cold_drawer_->Draw(shape);
  Statement st;
  st.vql = ParaStatement(q, FormatThreshold(cold_thresholds_[shape]), false);
  st.strategy = 1;
  *index = cold_next_++;
  return st;
}

void Bench::StartServer() {
  server::ServerOptions options;
  options.max_sessions = 16;
  server_ = std::make_unique<server::Server>(sys_->coupling.get(), options);
  Check(server_->Start(), "server start");
}

bool Bench::Request(server::SdmsClient& client, const Statement& st,
                    bool profile, bool record, ClientStats* cs,
                    std::string* canonical) {
  server::QueryRequest req;
  req.vql = st.vql;
  req.strategy = st.strategy;
  req.want_profile = profile;
  const Clock::time_point t0 = Clock::now();
  auto resp = client.Query(req);
  const Clock::time_point t1 = Clock::now();
  const double us = MicrosBetween(t0, t1);
  bool good = resp.ok() && !resp->result.degraded;
  if (record) {
    ++cs->attempted;
    // A failed request misses every latency limit.
    cs->latency_us.push_back(good ? us : HUGE_VAL);
    if (!resp.ok()) {
      ++cs->errors;
      cs->NoteError(resp.status().ToString() + " for " + st.vql);
    } else if (resp->result.degraded) {
      ++cs->degraded;
      cs->NoteError("degraded answer for " + st.vql);
    }
  }
  if (!resp.ok()) return false;
  *canonical = Canonical(resp->result);
  if (record) {
    cs->rows.push_back(static_cast<double>(resp->result.rows.size()));
    cs->request_bytes += static_cast<double>(server::EncodeQueryRequest(req).size());
    cs->response_bytes += static_cast<double>(canonical->size());
  }
  if (record && good && profile) {
    auto root = ParseProfileJson(resp->info.profile_json);
    if (!root.ok()) {
      cs->NoteError("profile: " + root.status().ToString());
      ++cs->errors;
      return false;
    }
    cs->layers.Add(*root, us, static_cast<double>(resp->info.total_micros));
    size_t n = traced_recorded_++;
    if (n < kTraceRequests) {
      // Client span with the server's stage tree grafted under it. The
      // tree is centred in the client span: the time outside the run is
      // split evenly between the request and the response path.
      const uint64_t id = n + 1;
      const double ts_us = MicrosBetween(traced_start_, t0);
      const double server_us = static_cast<double>(root->total_us);
      const double server_start = ts_us + std::max(0.0, (us - server_us) / 2);
      AppendChromeEvent("client.query", ts_us, us, id, kTraceLane, 1,
                        &cs->trace_events);
      AppendChromeEvent("server.run", server_start, server_us, id, kTraceLane,
                        1, &cs->trace_events);
      AppendChromeChildEvents(*root, server_start, id, kTraceLane,
                              &cs->trace_events);
    }
  }
  if (good && record) {
    ++cs->ok;
    if (profile) {
      ++cs->traced_ok;
      cs->traced_last_done = t1;
    } else {
      cs->last_done = t1;
    }
  }
  return good;
}

void Bench::PrepareIngest() {
  live_roots_ = sys_->roots;
  live_paras_ = sys_->coupling->db().Extent("PARA");
  // Replacement paragraph texts, drawn from the corpus distribution.
  sgml::CorpusOptions options;
  options.num_docs = 64;
  options.seed = args_.seed + 0x5eed;
  for (const sgml::Document& doc : sgml::CorpusGenerator(options).Generate().documents) {
    std::vector<const sgml::ElementNode*> stack = {doc.root.get()};
    while (!stack.empty()) {
      const sgml::ElementNode* e = stack.back();
      stack.pop_back();
      if (e->gi() == "PARA") para_texts_.push_back(e->DirectText());
      for (const sgml::Node& c : e->children()) {
        if (c.kind == sgml::Node::Kind::kElement) stack.push_back(c.element.get());
      }
    }
  }
}

void Bench::IngestWrite(double roll, Rng& rng, ClientStats* cs, bool record) {
  oodb::Database& db = sys_->coupling->db();
  if (next_insert_ == insert_docs_.documents.size()) {
    // Fresh documents to insert, generated in seeded chunks outside the
    // write timer.
    sgml::CorpusOptions options;
    options.num_docs = 128;
    options.seed = args_.seed * 31 + 1000 + insert_chunks_++;
    insert_docs_ = sgml::CorpusGenerator(options).Generate();
    next_insert_ = 0;
  }
  Oid para;
  if (roll < 0.70) {
    while (!para.valid() && !live_paras_.empty()) {
      size_t i = rng.Uniform(live_paras_.size());
      para = live_paras_[i];
      if (!db.store().Contains(para)) {
        // The paragraph went with a deleted document; drop it lazily.
        live_paras_[i] = live_paras_.back();
        live_paras_.pop_back();
        para = Oid();
      }
    }
  }
  const Clock::time_point t0 = Clock::now();
  if (para.valid()) {
    const std::string& text = para_texts_[next_text_++ % para_texts_.size()];
    Check(db.SetAttribute(para, "TEXT", oodb::Value(text)), "PARA edit");
  } else if (roll < 0.85 || live_roots_.size() < 2) {
    sgml::Document& doc = insert_docs_.documents[next_insert_++];
    doc.root->SetAttribute("DOCID", "ingest" + std::to_string(ingest_iterations_));
    auto root = sys_->coupling->StoreDocument(doc);
    Check(root.status(), "document insert");
    live_roots_.push_back(*root);
    std::vector<Oid> stack = {*root};
    while (!stack.empty()) {
      Oid cur = stack.back();
      stack.pop_back();
      auto cls = db.ClassOf(cur);
      if (cls.ok() && *cls == "PARA") live_paras_.push_back(cur);
      auto children = sys_->coupling->ChildrenOf(cur);
      if (children.ok()) stack.insert(stack.end(), children->begin(), children->end());
    }
  } else {
    size_t i = rng.Uniform(live_roots_.size());
    Check(sys_->coupling->DeleteSubtree(live_roots_[i]), "document delete");
    live_roots_[i] = live_roots_.back();
    live_roots_.pop_back();
  }
  const Clock::time_point t1 = Clock::now();
  Check(sys_->paras->PropagateUpdates(), "propagate");
  const Clock::time_point t2 = Clock::now();
  ++ingest_iterations_;
  if (record) {
    cs->write_us.push_back(MicrosBetween(t0, t1));
    cs->propagate_us.push_back(MicrosBetween(t1, t2));
    cs->write_visible_us.push_back(MicrosBetween(t0, t2));
  }
}

void Bench::ClientLoop(size_t max_requests, ClientStats* cs) {
  server::ClientOptions options;
  options.port = server_->port();
  options.peer_label = "bench_e2e";
  server::SdmsClient client(options);
  if (Status s = client.Connect(); !s.ok()) {
    cs->NoteError("connect: " + s.ToString());
    ++cs->errors;
    ++cs->attempted;
    return;
  }
  Rng rng(args_.seed * 1000003 + 1);
  const bool ingest = args_.workload == Workload::kIngest;
  const bool cold = args_.workload == Workload::kReadCold;
  for (size_t sent = 0; max_requests == 0 || sent < max_requests; ++sent) {
    int ph = phase_.load(std::memory_order_acquire);
    if (ph == kStop) break;
    bool record = ph != kWarmup;
    bool profile = ph == kTraced;
    if (ingest) IngestWrite(rng.NextDouble(), rng, cs, record);
    if (cold) {
      size_t index = 0;
      Statement st = NextColdStatement(&index);
      std::string canonical;
      bool ok = Request(client, st, profile, record, cs, &canonical);
      if (ok && index % kOracleEvery == 0) {
        cs->cold_checks.push_back({st, std::move(canonical)});
      }
      continue;
    }
    if (deck_next_ == pool_deck_.size()) {
      rng.Shuffle(pool_deck_);
      deck_next_ = 0;
    }
    const size_t i = pool_deck_[deck_next_++];
    std::string canonical;
    bool ok = Request(client, pool_[i], profile, record, cs, &canonical);
    if (!ok) continue;
    if (!ingest) {
      if (canonical != pool_oracle_[i]) {
        ++cs->mismatched;
        cs->NoteError("wire answer differs from oracle: " + pool_[i].vql);
      }
      continue;
    }
    if (ingest_iterations_ % kOracleEvery == 0) {
      // Nothing runs server-side between a response and the next
      // request, so the in-process re-run sees the state the wire
      // answer was computed on.
      MixedQueryEvaluator eval(sys_->coupling.get());
      auto answer = eval.Run(pool_[i].vql, StrategyOf(pool_[i].strategy));
      ++cs->oracle_checks;
      if (!answer.ok() || Canonical(*answer) != canonical) {
        ++cs->mismatched;
        cs->NoteError("wire answer differs from in-process re-run: " +
                      pool_[i].vql);
      }
    }
  }
}

void Bench::RunLoad() {
  ClientStats cs;
  std::thread client([this, &cs] { ClientLoop(0, &cs); });
  auto sleep_for = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep_for(args_.warmup_seconds);
  compactions_before_ = obs::GetCounter("irs.index.compactions").value();
  measure_start_ = Clock::now();
  phase_.store(kMeasure, std::memory_order_release);
  if (args_.trace) {
    sleep_for(args_.seconds / 2);
    traced_start_ = Clock::now();
    phase_.store(kTraced, std::memory_order_release);
    sleep_for(args_.seconds / 2);
  } else {
    sleep_for(args_.seconds);
  }
  phase_.store(kStop, std::memory_order_release);
  client.join();
  server_->Shutdown();
  PostChecks(cs);
  Report(cs);
}

void Bench::PostChecks(ClientStats& cs) {
  if (args_.workload == Workload::kIngest) {
    Check(sys_->paras->PropagateUpdates(), "final propagate");
    auto report = sys_->paras->VerifyConsistency();
    Check(report.status(), "verify consistency");
    if (!report->consistent()) {
      ++cs.mismatched;
      cs.NoteError("ingest left the IRS inconsistent: " +
                   std::to_string(report->missing_in_irs.size()) +
                   " missing, " +
                   std::to_string(report->orphaned_in_irs.size()) +
                   " orphaned");
    }
    return;
  }
  if (args_.workload == Workload::kReadHot) return;
  // read_cold: every 50th statement again, in-process and from a
  // cleared buffer.
  MixedQueryEvaluator eval(sys_->coupling.get());
  for (const ColdCheck& c : cs.cold_checks) {
    sys_->paras->buffer().Clear();
    auto answer = eval.Run(c.statement.vql,
                           MixedQueryEvaluator::Strategy::kIrsFirst);
    ++cs.oracle_checks;
    if (!answer.ok() || Canonical(*answer) != c.canonical) {
      ++cs.mismatched;
      cs.NoteError("wire answer differs from in-process re-run: " +
                   c.statement.vql);
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Bench::HostJson() const {
  std::string env = "[";
  for (size_t i = 0; i < env_cleared_.size(); ++i) {
    if (i > 0) env += ",";
    env += "\"" + JsonEscape(env_cleared_[i]) + "\"";
  }
  env += "]";
  return "{\"nproc\":" + std::to_string(OnlineCpus()) +
         ",\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":\"" SDMS_BUILD_TYPE "\",\"git_sha\":\"" +
         JsonEscape(args_.git_sha) + "\",\"env_cleared\":" + env + "}";
}

void Bench::WriteRecord(bool correct, uint64_t attempted, uint64_t failed) {
  for (const Metric& m : metrics_) {
    std::printf("%s %s %s %s\n", args_.workload_name.c_str(), m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str());
  }
  std::fflush(stdout);
  if (args_.out.empty()) return;
  std::string json = "{\"workload\":\"" + args_.workload_name +
                     "\",\"seed\":" + std::to_string(args_.seed) +
                     ",\"docs\":" + std::to_string(args_.docs) +
                     ",\"elements\":" + std::to_string(sys_->elements) +
                     ",\"seconds\":" + Num(args_.seconds) +
                     ",\"trace\":" + (args_.trace ? "true" : "false") +
                     ",\"counters\":" + (args_.counters ? "true" : "false") +
                     ",\"host\":" + HostJson() +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + metrics_[i].name + "\":{\"value\":" + Num(metrics_[i].value) +
            ",\"unit\":\"" + metrics_[i].unit + "\"}";
  }
  json += "}}\n";
  std::FILE* f = std::fopen(args_.out.c_str(), "wb");
  if (f == nullptr) Die("cannot write " + args_.out);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

void Bench::Report(ClientStats& all) {
  const Clock::time_point last_done = std::max(measure_start_, all.last_done);
  const Clock::time_point traced_last_done =
      std::max(traced_start_, all.traced_last_done);
  const uint64_t failed = all.errors + all.degraded + all.mismatched;
  const bool correct = failed == 0;
  if (!all.first_error.empty()) {
    std::fprintf(stderr, "bench_e2e: first failure: %s\n", all.first_error.c_str());
  }

  std::vector<double> setup;
  std::vector<double> gen, store, index;
  for (const SetupTimes& t : setup_times_) {
    setup.push_back(t.total_s);
    gen.push_back(t.generate_s);
    store.push_back(t.store_s);
    index.push_back(t.index_s);
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const double untraced_s =
      std::chrono::duration<double>(last_done - measure_start_).count();
  const uint64_t untraced_ok = all.ok - all.traced_ok;
  const double qps = untraced_s > 0 ? static_cast<double>(untraced_ok) / untraced_s : 0;

  if (!args_.trace) {
    AddMetric("qps", qps, "1/s");
    AddMetric("p50_ms", Quantile(all.latency_us, 0.50) / 1000, "ms");
    AddMetric("p99_ms", Quantile(all.latency_us, 0.99) / 1000, "ms");
    AddMetric("samples", static_cast<double>(all.latency_us.size()), "count");
    AddMetric("fail_rate",
              all.attempted > 0 ? static_cast<double>(failed) / static_cast<double>(all.attempted) : 0,
              "ratio");
    AddMetric("setup_s", Median(setup), "s");
    AddMetric("peak_rss_mb", peak_rss_mb, "MB");
    if (args_.workload == Workload::kIngest) {
      AddMetric("write_p50_ms", Quantile(all.write_visible_us, 0.50) / 1000, "ms");
      AddMetric("write_p99_ms", Quantile(all.write_visible_us, 0.99) / 1000, "ms");
      AddMetric("write_samples", static_cast<double>(all.write_visible_us.size()), "count");
    }
    AddMetric("rows.p50", Quantile(all.rows, 0.50), "count");
    AddMetric("rows.max", Quantile(all.rows, 1.0), "count");
  } else {
    const LayerStats& L = all.layers;
    const double n = static_cast<double>(std::max<uint64_t>(L.queries, 1));
    auto self_mean = [&](const std::string& key) {
      auto it = L.self_us.find(key);
      return it == L.self_us.end() ? 0.0 : it->second / n;
    };
    const double traced_s =
        std::chrono::duration<double>(traced_last_done - traced_start_).count();
    const double traced_qps =
        traced_s > 0 ? static_cast<double>(all.traced_ok) / traced_s : 0;
    AddMetric("server.outside_run_us.p50", Quantile(L.outside_us, 0.50), "us");
    AddMetric("server.outside_run_us.p99", Quantile(L.outside_us, 0.99), "us");
    AddMetric("server.bytes_per_query",
              all.attempted > 0 ? (all.request_bytes + all.response_bytes) /
                                      static_cast<double>(all.attempted)
                                : 0,
              "B");
    AddMetric("oodb.parse_us.mean", self_mean("parse"), "us");
    AddMetric("oodb.plan_us.mean", self_mean("plan"), "us");
    AddMetric("oodb.join_us.mean", self_mean("join"), "us");
    AddMetric("oodb.bindings_per_row",
              static_cast<double>(L.bindings_scanned) /
                  static_cast<double>(std::max<uint64_t>(L.rows_emitted, 1)),
              "count");
    AddMetric("oodb.write_us.p50", Quantile(all.write_us, 0.50), "us");
    AddMetric("oodb.write_us.p99", Quantile(all.write_us, 0.99), "us");
    AddMetric("coupling.prepare_us.mean", self_mean("prepare"), "us");
    AddMetric("coupling.irs_first_us.mean", self_mean("irs_first"), "us");
    AddMetric("coupling.buffer_lookup_us.mean", self_mean("buffer_lookup"), "us");
    AddMetric("coupling.buffer_hit_ratio",
              L.lookup_statements > 0 ? static_cast<double>(L.hit_statements) /
                                            static_cast<double>(L.lookup_statements)
                                      : 0,
              "ratio");
    AddMetric("coupling.derive_us.mean", self_mean("derive"), "us");
    AddMetric("coupling.derive_calls.per_query",
              static_cast<double>(L.derive_calls) / n, "count");
    AddMetric("coupling.propagate_us.p50", Quantile(all.propagate_us, 0.50), "us");
    AddMetric("coupling.propagate_us.p99", Quantile(all.propagate_us, 0.99), "us");
    AddMetric("sgml.generate_s", Median(gen), "s");
    AddMetric("coupling.store_s", Median(store), "s");
    AddMetric("coupling.index_s", Median(index), "s");
    AddMetric("irs.search_us.mean",
              self_mean("irs_search/shard") + self_mean("irs_search"), "us");
    AddMetric("irs.calls.per_query", static_cast<double>(L.irs_calls) / n, "count");
    AddMetric("irs.postings_scanned.per_query",
              static_cast<double>(L.postings_scanned) / n, "count");
    AddMetric("irs.blocks_skipped.per_query",
              static_cast<double>(L.blocks_skipped) / n, "count");
    const double fanouts = static_cast<double>(std::max<uint64_t>(L.fanout_queries, 1));
    AddMetric("irs.shard_max_us.mean", L.shard_max_us / fanouts, "us");
    AddMetric("irs.shard_skew", L.fanout_queries > 0 ? L.shard_skew / fanouts : 1.0,
              "ratio");
    AddMetric("irs.compactions",
              static_cast<double>(obs::GetCounter("irs.index.compactions").value() -
                                  compactions_before_) / kShards,
              "count");
    AddMetric("unattributed_us.mean", L.unattributed_us / n, "us");
    AddMetric("trace.overhead_pct", qps > 0 ? (qps - traced_qps) / qps * 100 : 0, "%");
    // The per-stage table: these rows plus outside_run and
    // unattributed sum to the mean client latency.
    AddMetric("client.latency_us.mean", L.client_us / n, "us");
    AddMetric("server.outside_run_us.mean", (L.client_us - L.total_micros) / n, "us");
    for (const auto& [key, total] : L.self_us) {
      AddMetric("stage." + key + ".self_us.mean", total / n, "us");
    }
    AddMetric("traced_queries", static_cast<double>(L.queries), "count");
    if (!args_.trace_out.empty()) {
      std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                         "\"args\":{\"name\":\"bench_e2e " +
                         args_.workload_name + "\"}}" + all.trace_events +
                         "\n]}\n";
      std::FILE* f = std::fopen(args_.trace_out.c_str(), "wb");
      if (f == nullptr) Die("cannot write " + args_.trace_out);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  AddMetric("oracle_checks", static_cast<double>(all.oracle_checks), "count");
  AddMetric("prepare_s", prepare_s_, "s");
  WriteRecord(correct, all.attempted, failed);
  if (!correct) {
    std::fprintf(stderr, "bench_e2e: %llu failed of %llu attempted\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(all.attempted));
  }
  exit_code_ = correct ? 0 : 1;
}

void Bench::RunCounters() {
  // Work counters that repeat exactly for a fixed request sequence (check_counters.py diffs them against a baseline).
  const char* const kCounters[] = {
      "irs.index.postings_scanned",       "irs.index.blocks_decoded",
      "irs.index.blocks_skipped",         "coupling.collection.irs_queries",
      "coupling.result_buffer.hits",      "coupling.result_buffer.misses",
      "coupling.collection.derive_calls", "irs.index.compactions",
      "oodb.query.bindings_scanned"};
  std::map<std::string, uint64_t> before;
  for (const char* c : kCounters) before[c] = obs::GetCounter(c).value();
  phase_.store(kMeasure, std::memory_order_release);
  ClientStats cs;
  ClientLoop(kCounterRequests, &cs);
  server_->Shutdown();
  for (const char* c : kCounters) {
    AddMetric(std::string("counter.") + c,
              static_cast<double>(obs::GetCounter(c).value() - before[c]),
              "count");
  }
  double rows = 0;
  for (double r : cs.rows) rows += r;
  AddMetric("counter.net_bytes", cs.request_bytes + cs.response_bytes, "B");
  AddMetric("counter.rows", rows, "count");
  AddMetric("counter.requests", static_cast<double>(cs.attempted), "count");
  PostChecks(cs);
  const uint64_t failed = cs.errors + cs.degraded + cs.mismatched;
  if (!cs.first_error.empty()) {
    std::fprintf(stderr, "bench_e2e: first failure: %s\n", cs.first_error.c_str());
  }
  AddMetric("oracle_checks", static_cast<double>(cs.oracle_checks), "count");
  WriteRecord(failed == 0, cs.attempted, failed);
  exit_code_ = failed == 0 ? 0 : 1;
}

int Bench::Run() {
  SetUp();
  const Clock::time_point prepare_start = Clock::now();
  if (args_.workload == Workload::kReadHot ||
      args_.workload == Workload::kIngest) {
    PrepareReadPool();
  } else {
    CalibrateCold();
  }
  if (args_.workload == Workload::kIngest) PrepareIngest();
  prepare_s_ = SecondsSince(prepare_start);
  StartServer();
  if (args_.counters) {
    RunCounters();
  } else {
    RunLoad();
  }
  return exit_code_;
}

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(
      stderr,
      "bench_e2e: %s\n"
      "usage: bench_e2e --workload read_hot|read_cold|ingest\n"
      "         [--seed N] [--docs N] [--seconds S] [--warmup-seconds S]\n"
      "         [--setup-reps N] [--trace 0|1] [--trace-out FILE]\n"
      "         [--counters] [--out FILE] [--tmp-dir DIR] [--git-sha SHA]\n",
      error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--counters") {
      a.counters = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + arg);
    std::string v = argv[++i];
    auto number = [&]() {
      char* end = nullptr;
      double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || d < 0) Usage("bad value for " + arg);
      return d;
    };
    if (arg == "--workload") {
      const std::pair<const char*, Workload> kNames[] = {
          {"read_hot", Workload::kReadHot},
          {"read_cold", Workload::kReadCold},
          {"ingest", Workload::kIngest}};
      for (const auto& [name, w] : kNames) {
        if (v == name) {
          a.workload = w;
          a.workload_name = name;
          have_workload = true;
        }
      }
      if (!have_workload) Usage("unknown workload " + v);
    } else if (arg == "--seed") {
      a.seed = static_cast<uint64_t>(number());
    } else if (arg == "--docs") {
      a.docs = static_cast<size_t>(number());
    } else if (arg == "--seconds") {
      a.seconds = number();
    } else if (arg == "--warmup-seconds") {
      a.warmup_seconds = number();
    } else if (arg == "--setup-reps") {
      a.setup_reps = std::max(1, static_cast<int>(number()));
    } else if (arg == "--trace") {
      a.trace = number() != 0;
    } else if (arg == "--trace-out") {
      a.trace_out = v;
    } else if (arg == "--out") {
      a.out = v;
    } else if (arg == "--tmp-dir") {
      a.tmp_dir = v;
    } else if (arg == "--git-sha") {
      a.git_sha = v;
    } else {
      Usage("unknown option " + arg);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (a.docs < 10) Usage("--docs must be at least 10");
  return a;
}

}  // namespace
}  // namespace sdms::bench_e2e

int main(int argc, char** argv) {
  using namespace sdms::bench_e2e;
  std::signal(SIGPIPE, SIG_IGN);
  Args args = ParseArgs(argc, argv);
  std::vector<std::string> cleared = PinEnvironment(args.workload);
  return Bench(std::move(args), std::move(cleared)).Run();
}
