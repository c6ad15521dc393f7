// End-to-end tests of the network front-end: server + session layer +
// client against a real coupled system on an ephemeral port. The
// hardening claims under test: malformed input never crashes a
// session (typed protocol error, then close — the server keeps
// serving), overload answers are typed sheds with a cause, deadlines
// degrade rather than hang, cancellation works over the wire, and
// graceful drain answers every accepted request before Shutdown
// returns.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault/fault.h"
#include "common/net/frame.h"
#include "common/net/socket.h"
#include "common/obs/metrics.h"
#include "common/query_context.h"
#include "coupling_test_util.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sgml/corpus/generator.h"

namespace sdms::server {
namespace {

using coupling::AdmissionOptions;
using coupling::CouplingOptions;
using coupling::ShedCause;
using coupling::testutil::CoupledSystem;
using coupling::testutil::MakeFigure4System;

constexpr char kParaQuery[] = "ACCESS p FROM p IN PARA";
/// Scan-heavy and result-light: three nested PARA scans whose filters
/// reject almost every combination, so the executor spends seconds in
/// the row loop (polling the QueryContext) without materializing a
/// large result — the shape cancellation and drain need.
constexpr char kSlowScan[] =
    "ACCESS p, q, r FROM p IN PARA, q IN PARA, r IN PARA "
    "WHERE p = r AND q = r";

ClientOptions MakeClientOptions(uint16_t port) {
  ClientOptions o;
  o.port = port;
  o.peer_label = "server_test";
  o.guard.retry.max_attempts = 2;  // fail fast in tests
  return o;
}

QueryRequest MakeRequest(const std::string& vql) {
  QueryRequest req;
  req.vql = vql;
  return req;
}

/// Server + Figure 4 corpus on an ephemeral port.
struct TestServer {
  explicit TestServer(ServerOptions opts = {},
                      CouplingOptions coupling_opts = {}) {
    sys = MakeFigure4System(coupling_opts);
    server = std::make_unique<Server>(sys->coupling.get(), opts);
    Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~TestServer() {
    if (server != nullptr) server->Shutdown();
  }
  uint16_t port() const { return server->port(); }

  std::unique_ptr<CoupledSystem> sys;
  std::unique_ptr<Server> server;
};

TEST(ServerTest, QueryOverTheWire) {
  TestServer ts;
  SdmsClient client(MakeClientOptions(ts.port()));
  ASSERT_TRUE(client.Connect().ok());
  auto resp = client.Query(MakeRequest(kParaQuery));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->result.rows.size(), 11u);  // Figure 4: 11 paragraphs
  EXPECT_GT(resp->info.query_id, 0u);
  EXPECT_GT(resp->info.total_micros, 0);
  EXPECT_FALSE(resp->result.degraded);
}

TEST(ServerTest, ConsecutiveQueriesReuseTheConnection) {
  TestServer ts;
  SdmsClient client(MakeClientOptions(ts.port()));
  ASSERT_TRUE(client.Connect().ok());
  uint64_t last_query_id = 0;
  for (int i = 0; i < 5; ++i) {
    auto resp = client.Query(MakeRequest(kParaQuery));
    ASSERT_TRUE(resp.ok()) << "query " << i << ": "
                           << resp.status().ToString();
    EXPECT_EQ(resp->result.rows.size(), 11u);
    EXPECT_GT(resp->info.query_id, last_query_id);
    last_query_id = resp->info.query_id;
  }
}

TEST(ServerTest, ProfileTravelsOnRequest) {
  TestServer ts;
  SdmsClient client(MakeClientOptions(ts.port()));
  ASSERT_TRUE(client.Connect().ok());
  QueryRequest req = MakeRequest(kParaQuery);
  req.want_profile = true;
  auto resp = client.Query(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_NE(resp->info.profile_json.find("\"profile\""), std::string::npos);
  EXPECT_NE(resp->info.profile_json.find("\"total_us\""), std::string::npos);
  // Not requested -> not shipped.
  auto lean = client.Query(MakeRequest(kParaQuery));
  ASSERT_TRUE(lean.ok());
  EXPECT_TRUE(lean->info.profile_json.empty());
}

TEST(ServerTest, PingAndParseErrorsAreTyped) {
  TestServer ts;
  SdmsClient client(MakeClientOptions(ts.port()));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());
  auto resp = client.Query(MakeRequest("ACCESS FROM nonsense ("));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kParseError);
  // The connection survives a query-level error.
  EXPECT_TRUE(client.Query(MakeRequest(kParaQuery)).ok());
}

TEST(ServerTest, OversizedIrsWindowIsATypedError) {
  TestServer ts;
  SdmsClient client(MakeClientOptions(ts.port()));
  ASSERT_TRUE(client.Connect().ok());
  auto resp = client.Query(MakeRequest(
      "ACCESS p FROM p IN PARA WHERE "
      "p -> getIRSValue('paras', '#od99999999999999999999(www web)') > 0"));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kParseError)
      << resp.status().ToString();
  // The same server and connection answer the next query.
  auto next = client.Query(MakeRequest(kParaQuery));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->result.rows.size(), 11u);
}

TEST(ServerTest, MaxRowsBudgetDegradesOverTheWire) {
  TestServer ts;
  SdmsClient client(MakeClientOptions(ts.port()));
  ASSERT_TRUE(client.Connect().ok());
  QueryRequest req = MakeRequest(kParaQuery);
  req.max_rows = 3;
  auto resp = client.Query(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  // The budget latches once *exceeded*, so the row that crossed the
  // line may still be included — but nowhere near the full 11.
  EXPECT_LE(resp->result.rows.size(), 4u);
  EXPECT_TRUE(resp->result.degraded);
  EXPECT_FALSE(resp->result.degraded_reason.empty());
}

TEST(ServerTest, MaxResultBytesBudgetIsATypedError) {
  TestServer ts;
  SdmsClient client(MakeClientOptions(ts.port()));
  ASSERT_TRUE(client.Connect().ok());
  // The unbudgeted answer's encoded size. Timings and ids in the run
  // info vary by a few bytes between runs, so the budgets below keep
  // a wide margin on either side of it.
  auto full = client.Query(MakeRequest(kParaQuery));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  QueryResponse wire;
  wire.result = full->result;
  wire.info = full->info;
  const uint64_t size = EncodeQueryResponse(wire).size();

  // Half the answer's size: refused with a typed error naming the
  // budget — the frame cap alone would have let it through.
  QueryRequest req = MakeRequest(kParaQuery);
  req.max_result_bytes = size / 2;
  auto resp = client.Query(req);
  ASSERT_FALSE(resp.ok()) << "a budget under the result must refuse it";
  EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(resp.status().message().find("max_result_bytes"),
            std::string::npos)
      << resp.status().ToString();

  // The refusal is per request: a budget the result fits in is served
  // in full on the same connection.
  req.max_result_bytes = size + 64;
  auto fits = client.Query(req);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->result.rows.size(), 11u);
  EXPECT_FALSE(fits->result.degraded);
}

// --- Malformed input never crashes a session ------------------------------

/// Sends raw bytes on a fresh socket, then proves the server still
/// serves well-formed clients.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    auto fd = net::ConnectTcp("127.0.0.1", port, 2'000);
    EXPECT_TRUE(fd.ok());
    fd_ = *fd;
  }
  ~RawConn() { net::CloseFd(fd_); }

  void Send(const std::string& bytes) {
    EXPECT_TRUE(net::SendAll(fd_, bytes.data(), bytes.size(), 2'000).ok());
  }
  StatusOr<net::Frame> Read() { return net::ReadFrame(fd_, 2'000, 2'000); }
  /// True when the server closed the connection (EOF after any
  /// remaining frames).
  bool ServerClosed() {
    for (;;) {
      auto frame = Read();
      if (!frame.ok()) return net::IsConnClosed(frame.status());
    }
  }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

void ExpectStillServing(uint16_t port) {
  SdmsClient client(MakeClientOptions(port));
  ASSERT_TRUE(client.Connect().ok());
  auto resp = client.Query(MakeRequest(kParaQuery));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->result.rows.size(), 11u);
}

TEST(ServerHardeningTest, QueryBeforeHelloIsRefused) {
  TestServer ts;
  RawConn conn(ts.port());
  QueryRequest req = MakeRequest(kParaQuery);
  req.request_id = 1;
  conn.Send(net::EncodeFrame(net::FrameType::kQuery, EncodeQueryRequest(req)));
  auto frame = conn.Read();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, net::FrameType::kError);
  auto err = DecodeErrorResponse(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, StatusCode::kFailedPrecondition);
  EXPECT_TRUE(conn.ServerClosed());
  ExpectStillServing(ts.port());
}

TEST(ServerHardeningTest, OversizedFrameAnsweredAndClosed) {
  TestServer ts;
  RawConn conn(ts.port());
  // A length word far beyond the 16 MiB cap; no body follows.
  conn.Send(std::string("\xff\xff\xff\xff", 4));
  auto frame = conn.Read();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, net::FrameType::kError);
  auto err = DecodeErrorResponse(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, StatusCode::kInvalidArgument);
  EXPECT_TRUE(conn.ServerClosed());
  ExpectStillServing(ts.port());
}

TEST(ServerHardeningTest, UnknownFrameTypeAnsweredAndClosed) {
  TestServer ts;
  RawConn conn(ts.port());
  std::string wire(4, '\0');
  wire[0] = 1;  // length 1: bare type byte
  wire.push_back(static_cast<char>(0x5a));
  conn.Send(wire);
  auto frame = conn.Read();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, net::FrameType::kError);
  EXPECT_TRUE(conn.ServerClosed());
  ExpectStillServing(ts.port());
}

TEST(ServerHardeningTest, GarbageHelloPayloadAnsweredAndClosed) {
  TestServer ts;
  RawConn conn(ts.port());
  conn.Send(net::EncodeFrame(net::FrameType::kHello,
                             std::string("\xff\xfe\xfd garbage")));
  auto frame = conn.Read();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, net::FrameType::kError);
  EXPECT_TRUE(conn.ServerClosed());
  ExpectStillServing(ts.port());
}

TEST(ServerHardeningTest, VersionMismatchIsRefused) {
  TestServer ts;
  RawConn conn(ts.port());
  Hello hello;
  hello.protocol_version = 999;
  conn.Send(net::EncodeFrame(net::FrameType::kHello, EncodeHello(hello)));
  auto frame = conn.Read();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, net::FrameType::kError);
  auto err = DecodeErrorResponse(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, StatusCode::kFailedPrecondition);
  EXPECT_NE(err->message.find("version"), std::string::npos);
}

TEST(ServerHardeningTest, MidFrameCloseDoesNotCrash) {
  TestServer ts;
  {
    RawConn conn(ts.port());
    // Two bytes of a length word, then the destructor closes the fd.
    conn.Send(std::string("\x10\x00", 2));
  }
  ExpectStillServing(ts.port());
}

TEST(ServerHardeningTest, GarbageFloodNeverCrashesTheServer) {
  TestServer ts;
  std::mt19937 rng(0xbadc0de);
  for (int round = 0; round < 8; ++round) {
    RawConn conn(ts.port());
    std::string garbage(64 + rng() % 256, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    conn.Send(garbage);
    // The server either answers a protocol error and closes, or (if
    // the random length word asks for more bytes than we sent) times
    // the read out and closes. Both end in EOF for us eventually; we
    // don't wait for it — just hammer and verify liveness after.
  }
  ExpectStillServing(ts.port());
  EXPECT_GE(obs::GetCounter("server.connections_accepted").value(), 9u);
}

// --- Overload: typed sheds with a cause -----------------------------------

TEST(ServerOverloadTest, QueueFullShedsWithCause) {
  CouplingOptions copts;
  copts.admission.max_concurrent = 1;
  copts.admission.max_queue = 0;
  TestServer ts(ServerOptions{}, copts);
  // One slot, held for 400 ms at the dispatch fault point (after
  // admission, before execution).
  fault::FaultRegistry::Instance().Clear();
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kLatency;
  rule.latency_micros = 400'000;
  rule.max_fires = 1;
  fault::FaultRegistry::Instance().Arm("server.dispatch", rule);

  uint64_t shed_before = obs::GetCounter("server.queries_shed").value();
  std::thread holder([&] {
    SdmsClient client(MakeClientOptions(ts.port()));
    ASSERT_TRUE(client.Connect().ok());
    auto resp = client.Query(MakeRequest(kParaQuery));
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  SdmsClient client(MakeClientOptions(ts.port()));
  ASSERT_TRUE(client.Connect().ok());
  auto resp = client.Query(MakeRequest(kParaQuery));
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(resp.status().message().find("queue_full"), std::string::npos)
      << resp.status().ToString();
  holder.join();
  fault::FaultRegistry::Instance().Clear();
  EXPECT_GT(obs::GetCounter("server.queries_shed").value(), shed_before);
  EXPECT_GT(obs::GetCounter("coupling.admission.shed_queue_full").value(), 0u);
}

TEST(ServerOverloadTest, DeadlineExpiredInQueueShedsWithCause) {
  CouplingOptions copts;
  copts.admission.max_concurrent = 1;
  copts.admission.max_queue = 4;  // this time the arrival queues...
  TestServer ts(ServerOptions{}, copts);
  fault::FaultRegistry::Instance().Clear();
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kLatency;
  rule.latency_micros = 600'000;
  rule.max_fires = 1;
  fault::FaultRegistry::Instance().Arm("server.dispatch", rule);

  std::thread holder([&] {
    SdmsClient client(MakeClientOptions(ts.port()));
    ASSERT_TRUE(client.Connect().ok());
    EXPECT_TRUE(client.Query(MakeRequest(kParaQuery)).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

  SdmsClient client(MakeClientOptions(ts.port()));
  ASSERT_TRUE(client.Connect().ok());
  QueryRequest req = MakeRequest(kParaQuery);
  req.deadline_ms = 100;  // ...and its deadline dies before the slot frees
  auto resp = client.Query(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(resp.status().message().find("deadline_expired"),
            std::string::npos)
      << resp.status().ToString();
  holder.join();
  fault::FaultRegistry::Instance().Clear();
}

// --- Slow queries: deadline degradation, cancellation, drain --------------

/// A corpus big enough that the cross join runs for hundreds of
/// milliseconds — shared across the slow-query tests (building it is
/// the expensive part).
class SlowQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sgml::CorpusOptions copts;
    copts.seed = 11;
    copts.num_docs = 60;
    sys_ = coupling::testutil::MakeCoupledSystem().release();
    sgml::CorpusGenerator gen(copts);
    coupling::testutil::StoreCorpus(*sys_, gen.Generate());
  }
  static void TearDownTestSuite() {
    delete sys_;
    sys_ = nullptr;
  }

  static CoupledSystem* sys_;
};

CoupledSystem* SlowQueryTest::sys_ = nullptr;

TEST_F(SlowQueryTest, DeadlineDegradesOverTheWire) {
  Server server(sys_->coupling.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  SdmsClient client(MakeClientOptions(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  QueryRequest req = MakeRequest(kSlowScan);
  req.deadline_ms = 100;
  auto resp = client.Query(req);
  // The scan runs for seconds, so it cannot finish in 100 ms (a
  // two-way cross join of this corpus can); the evaluator returns the
  // partial rows it had, flagged degraded, and the flag crosses the
  // wire. (A shed is also legal if admission itself saw the deadline
  // expire — but never a hang or a crash.)
  if (resp.ok()) {
    EXPECT_TRUE(resp->result.degraded);
    EXPECT_NE(resp->result.degraded_reason.find("Deadline"),
              std::string::npos)
        << resp->result.degraded_reason;
    EXPECT_TRUE(resp->info.degraded);
  } else {
    EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted)
        << resp.status().ToString();
  }
  server.Shutdown();
}

TEST_F(SlowQueryTest, CancelOverTheWire) {
  Server server(sys_->coupling.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  uint64_t cancelled_before =
      obs::GetCounter("server.queries_cancelled").value();

  CancelToken cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    cancel.Cancel();
  });

  SdmsClient client(MakeClientOptions(server.port()));
  ASSERT_TRUE(client.Connect().ok());
  QueryContext ctx;
  ctx.set_cancel_token(&cancel);
  QueryContext::Scope scope(&ctx);
  auto resp = client.Query(MakeRequest(kSlowScan));
  canceller.join();
  ASSERT_FALSE(resp.ok()) << "rows=" << resp->result.rows.size();
  EXPECT_EQ(resp.status().code(), StatusCode::kCancelled)
      << resp.status().ToString();
  EXPECT_GT(obs::GetCounter("server.queries_cancelled").value(),
            cancelled_before);
  server.Shutdown();
}

TEST_F(SlowQueryTest, GracefulDrainAnswersEverything) {
  ServerOptions opts;
  opts.drain_deadline_ms = 300;
  Server server(sys_->coupling.get(), opts);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  // A fast query completes normally before the drain begins.
  SdmsClient fast(MakeClientOptions(port));
  ASSERT_TRUE(fast.Connect().ok());
  ASSERT_TRUE(fast.Query(MakeRequest("ACCESS d FROM d IN MMFDOC")).ok());

  // A slow query is in flight when the drain starts.
  std::atomic<bool> slow_started{false};
  StatusOr<SdmsClient::Response> slow_resp =
      Status::Internal("never answered");
  std::thread slow([&] {
    SdmsClient client(MakeClientOptions(port));
    ASSERT_TRUE(client.Connect().ok());
    slow_started.store(true);
    slow_resp = client.Query(MakeRequest(kSlowScan));
  });
  while (!slow_started.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server.BeginDrain();

  // New work is refused with the draining cause; the connection that
  // asked is told, not dropped.
  auto refused = fast.Query(MakeRequest(kParaQuery));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("draining"), std::string::npos)
      << refused.status().ToString();

  // Shutdown must come back within the drain deadline plus bounded
  // grace — the slow query gets cancelled, not awaited forever.
  const auto t0 = std::chrono::steady_clock::now();
  size_t cancelled = server.Shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(cancelled, 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  // The straggler was *answered* with a typed cancellation — drain
  // loses no accepted request.
  slow.join();
  ASSERT_FALSE(slow_resp.ok());
  EXPECT_EQ(slow_resp.status().code(), StatusCode::kCancelled)
      << slow_resp.status().ToString();
  EXPECT_EQ(server.active_sessions(), 0u);
}

// --- Idle and session bookkeeping -----------------------------------------

TEST(ServerTest, IdleConnectionIsDropped) {
  ServerOptions opts;
  opts.idle_timeout_ms = 150;
  TestServer ts(opts);
  RawConn conn(ts.port());
  Hello hello;
  hello.peer = "idle_test";
  conn.Send(net::EncodeFrame(net::FrameType::kHello, EncodeHello(hello)));
  auto reply = conn.Read();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, net::FrameType::kHello);
  // Say nothing; the server notifies (typed idle-timeout error) and
  // closes within a few poll ticks of the bound.
  auto frame = conn.Read();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, net::FrameType::kError);
  auto err = DecodeErrorResponse(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(conn.ServerClosed());
}

TEST(ServerTest, SessionCapRejectsWithTypedError) {
  ServerOptions opts;
  opts.max_sessions = 1;
  TestServer ts(opts);
  SdmsClient first(MakeClientOptions(ts.port()));
  ASSERT_TRUE(first.Connect().ok());
  RawConn second(ts.port());
  auto frame = second.Read();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, net::FrameType::kError);
  auto err = DecodeErrorResponse(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, StatusCode::kResourceExhausted);
  EXPECT_TRUE(second.ServerClosed());
  // The admitted session is unaffected.
  EXPECT_TRUE(first.Query(MakeRequest(kParaQuery)).ok());
}

TEST(ServerTest, AcceptFaultDropsConnectionButClientRetries) {
  TestServer ts;
  fault::FaultRegistry::Instance().Clear();
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kIoError;
  rule.max_fires = 1;  // first accept dropped, retry lands
  fault::FaultRegistry::Instance().Arm("net.accept", rule);
  ClientOptions copts = MakeClientOptions(ts.port());
  copts.guard.retry.max_attempts = 4;
  copts.guard.retry.initial_backoff_micros = 10'000;
  SdmsClient client(copts);
  Status s = client.Connect();
  fault::FaultRegistry::Instance().Clear();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(client.Query(MakeRequest(kParaQuery)).ok());
  EXPECT_GE(client.guard_stats().retries, 1u);
}

}  // namespace
}  // namespace sdms::server
