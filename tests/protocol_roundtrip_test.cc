// Wire-protocol round-trip tests (docs/protocol.md): every message
// body must encode/decode losslessly — doubles bit-identically (the
// codec writes raw 8-byte IEEE-754, like the WAL) — and every Decode*
// must answer malformed payloads with a typed Status, never a crash.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "server/protocol.h"

namespace sdms::server {
namespace {

using coupling::ShedCause;

bool BitIdentical(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

TEST(ProtocolRoundTripTest, Hello) {
  Hello h;
  h.protocol_version = kProtocolVersion;
  h.peer = "sdms_shell";
  auto back = DecodeHello(EncodeHello(h));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->protocol_version, kProtocolVersion);
  EXPECT_EQ(back->peer, "sdms_shell");
}

TEST(ProtocolRoundTripTest, QueryRequestAllFields) {
  QueryRequest q;
  q.request_id = 0xdeadbeefcafe1234ull;
  q.vql = "ACCESS p FROM p IN PARA WHERE p SCORED \"retrieval\" > 0.3";
  q.strategy = 1;
  q.deadline_ms = 2'500;
  q.max_rows = 1'000;
  q.max_result_bytes = 1u << 20;
  q.want_profile = true;
  auto back = DecodeQueryRequest(EncodeQueryRequest(q));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, q.request_id);
  EXPECT_EQ(back->vql, q.vql);
  EXPECT_EQ(back->strategy, q.strategy);
  EXPECT_EQ(back->deadline_ms, q.deadline_ms);
  EXPECT_EQ(back->max_rows, q.max_rows);
  EXPECT_EQ(back->max_result_bytes, q.max_result_bytes);
  EXPECT_TRUE(back->want_profile);
}

TEST(ProtocolRoundTripTest, QueryRequestRejectsZeroIdAndBadStrategy) {
  QueryRequest q;
  q.request_id = 0;
  q.vql = "ACCESS p FROM p IN PARA";
  EXPECT_FALSE(DecodeQueryRequest(EncodeQueryRequest(q)).ok());
  q.request_id = 7;
  q.strategy = 9;
  EXPECT_FALSE(DecodeQueryRequest(EncodeQueryRequest(q)).ok());
}

TEST(ProtocolRoundTripTest, CancelRequest) {
  CancelRequest c;
  c.request_id = 42;
  auto back = DecodeCancelRequest(EncodeCancelRequest(c));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, 42u);
}

// The acceptance-criteria test: a full QueryResponse — rows of every
// value type, tricky doubles, degraded flags, the complete RunInfo
// with profile JSON — must round-trip bit-identically.
TEST(ProtocolRoundTripTest, QueryResponseBitIdentical) {
  QueryResponse r;
  r.request_id = 99;
  r.result.columns = {"p", "score", "title", "flags"};
  const double tricky[] = {
      0.1,                                        // not exactly representable
      1.0 / 3.0,                                  //
      std::numeric_limits<double>::denorm_min(),  // subnormal
      std::numeric_limits<double>::max(),         //
      -0.0,                                       // signed zero
      std::numeric_limits<double>::infinity(),    //
      5e-324,                                     //
      0.30000000000000004,                        // classic 0.1+0.2
  };
  for (size_t i = 0; i < std::size(tricky); ++i) {
    std::vector<oodb::Value> row;
    row.emplace_back(Oid(i + 1));
    row.emplace_back(tricky[i]);
    row.emplace_back("title-" + std::to_string(i));
    row.emplace_back(i % 2 == 0);
    r.result.rows.push_back(std::move(row));
  }
  r.result.rows.push_back({oodb::Value(), oodb::Value(int64_t{-123456789}),
                           oodb::Value(""), oodb::Value(false)});
  r.result.degraded = true;
  r.result.degraded_reason = "DeadlineExceeded: budget spent in join";
  r.info.strategy = 1;
  r.info.irs_restrictions = 3;
  r.info.irs_candidates = 11;
  r.info.degraded = true;
  r.info.query_id = 0x1122334455667788ull;
  r.info.queue_wait_micros = 1'234;
  r.info.total_micros = 56'789;
  r.info.profile_json =
      R"({"stage":"mixed_query","micros":56789,"children":[{"stage":"irs"}]})";
  r.info.shard_status = {
      {"paras", 0, ShardState::kOk, "", 120},
      {"paras", 1, ShardState::kFailed, "IoError: injected", 34'567},
      {"paras", 2, ShardState::kFailed, "DeadlineExceeded: 2000 ms", 9'001},
      {"figures", 0, ShardState::kSkipped, "circuit open", 0},
  };

  std::string wire = EncodeQueryResponse(r);
  auto back = DecodeQueryResponse(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_EQ(back->request_id, r.request_id);
  EXPECT_EQ(back->result.columns, r.result.columns);
  ASSERT_EQ(back->result.rows.size(), r.result.rows.size());
  for (size_t i = 0; i < std::size(tricky); ++i) {
    const auto& row = back->result.rows[i];
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0].as_oid(), Oid(i + 1));
    EXPECT_TRUE(BitIdentical(row[1].as_real(), tricky[i]))
        << "double " << i << " not bit-identical";
    EXPECT_EQ(row[2].as_string(), "title-" + std::to_string(i));
    EXPECT_EQ(row[3].as_bool(), i % 2 == 0);
  }
  const auto& last = back->result.rows.back();
  EXPECT_TRUE(last[0].is_null());
  EXPECT_EQ(last[1].as_int(), -123456789);
  EXPECT_TRUE(back->result.degraded);
  EXPECT_EQ(back->result.degraded_reason, r.result.degraded_reason);
  EXPECT_EQ(back->info.strategy, r.info.strategy);
  EXPECT_EQ(back->info.irs_restrictions, r.info.irs_restrictions);
  EXPECT_EQ(back->info.irs_candidates, r.info.irs_candidates);
  EXPECT_EQ(back->info.degraded, r.info.degraded);
  EXPECT_EQ(back->info.query_id, r.info.query_id);
  EXPECT_EQ(back->info.queue_wait_micros, r.info.queue_wait_micros);
  EXPECT_EQ(back->info.total_micros, r.info.total_micros);
  EXPECT_EQ(back->info.profile_json, r.info.profile_json);
  ASSERT_EQ(back->info.shard_status.size(), r.info.shard_status.size());
  for (size_t i = 0; i < r.info.shard_status.size(); ++i) {
    const ShardStatusEntry& want = r.info.shard_status[i];
    const ShardStatusEntry& got = back->info.shard_status[i];
    EXPECT_EQ(got.collection, want.collection) << "entry " << i;
    EXPECT_EQ(got.shard, want.shard) << "entry " << i;
    EXPECT_EQ(got.state, want.state) << "entry " << i;
    EXPECT_EQ(got.detail, want.detail) << "entry " << i;
    EXPECT_EQ(got.micros, want.micros) << "entry " << i;
  }

  // Re-encoding the decoded response reproduces the wire bytes: the
  // serialization is canonical, so equality above is bit equality.
  EXPECT_EQ(EncodeQueryResponse(*back), wire);
}

TEST(ProtocolRoundTripTest, UnknownShardStateDecodesAsFailed) {
  // A v2+ server may one day ship shard states this client does not
  // know, and an older one may still ship the retired state 1 ("answered
  // via a post-join re-issue"). The decoder must map both onto the
  // conservative kFailed, not reject the frame — the rest of the
  // response is still good.
  QueryResponse r;
  r.request_id = 7;
  r.info.query_id = 7;
  r.info.shard_status = {{"paras", 3, ShardState::kSkipped, "x", 5}};
  std::string wire = EncodeQueryResponse(r);
  // Locate the state byte without assuming the string encoding: the
  // same response with state kOk differs in exactly that one byte.
  QueryResponse probe = r;
  probe.info.shard_status[0].state = ShardState::kOk;
  std::string wire_ok = EncodeQueryResponse(probe);
  ASSERT_EQ(wire.size(), wire_ok.size());
  size_t state_pos = std::string::npos;
  for (size_t i = 0; i < wire.size(); ++i) {
    if (wire[i] != wire_ok[i]) {
      ASSERT_EQ(state_pos, std::string::npos) << "more than one byte differs";
      state_pos = i;
    }
  }
  ASSERT_NE(state_pos, std::string::npos);
  ASSERT_EQ(static_cast<uint8_t>(wire[state_pos]),
            static_cast<uint8_t>(ShardState::kSkipped));
  for (uint8_t raw : {uint8_t{1}, uint8_t{250}}) {
    wire[state_pos] = static_cast<char>(raw);
    auto back = DecodeQueryResponse(wire);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->info.shard_status.size(), 1u);
    EXPECT_EQ(back->info.shard_status[0].state, ShardState::kFailed)
        << "state byte " << static_cast<int>(raw);
    EXPECT_EQ(back->info.shard_status[0].detail, "x");
  }
}

TEST(ProtocolRoundTripTest, NanRoundTripsBitIdentically) {
  QueryResponse r;
  r.request_id = 1;
  r.result.columns = {"score"};
  double qnan = std::numeric_limits<double>::quiet_NaN();
  r.result.rows.push_back({oodb::Value(qnan)});
  auto back = DecodeQueryResponse(EncodeQueryResponse(r));
  ASSERT_TRUE(back.ok());
  double out = back->result.rows[0][0].as_real();
  EXPECT_TRUE(std::isnan(out));
  EXPECT_TRUE(BitIdentical(out, qnan));
}

TEST(ProtocolRoundTripTest, ErrorResponseWithShedCause) {
  ErrorResponse e;
  e.request_id = 17;
  e.code = StatusCode::kResourceExhausted;
  e.message = "admission queue full";
  e.shed_cause = ShedCause::kQueueFull;
  auto back = DecodeErrorResponse(EncodeErrorResponse(e));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, 17u);
  EXPECT_EQ(back->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(back->message, "admission queue full");
  EXPECT_EQ(back->shed_cause, ShedCause::kQueueFull);

  Status s = AsStatus(*back);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("admission queue full"), std::string::npos);
  EXPECT_NE(s.message().find("queue_full"), std::string::npos);
}

TEST(ProtocolRoundTripTest, AsStatusPreservesEveryCode) {
  const StatusCode codes[] = {
      StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kParseError,      StatusCode::kDeadlineExceeded,
      StatusCode::kCancelled,       StatusCode::kResourceExhausted,
      StatusCode::kInternal,        StatusCode::kFailedPrecondition,
  };
  for (StatusCode code : codes) {
    ErrorResponse e;
    e.code = code;
    e.message = "msg";
    auto back = DecodeErrorResponse(EncodeErrorResponse(e));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(AsStatus(*back).code(), code);
  }
}

// --- Malformed payloads ---------------------------------------------------

TEST(ProtocolMalformedTest, EveryDecoderRejectsGarbage) {
  std::mt19937 rng(0xdec0de);
  for (int round = 0; round < 200; ++round) {
    std::string garbage(rng() % 64, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    // Must not crash; ok() results are fine for trivially-satisfiable
    // layouts, but the big structured ones should virtually always
    // fail. The invariant under ASan/UBSan is simply "no crash".
    (void)DecodeHello(garbage);
    (void)DecodeQueryRequest(garbage);
    (void)DecodeCancelRequest(garbage);
    (void)DecodeQueryResponse(garbage);
    (void)DecodeErrorResponse(garbage);
  }
}

TEST(ProtocolMalformedTest, TruncationAtEveryByteFailsCleanly) {
  QueryResponse r;
  r.request_id = 5;
  r.result.columns = {"p", "score"};
  r.result.rows.push_back({oodb::Value(Oid(9)), oodb::Value(0.25)});
  r.info.profile_json = "{}";
  std::string wire = EncodeQueryResponse(r);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    auto got = DecodeQueryResponse(wire.substr(0, cut));
    EXPECT_FALSE(got.ok()) << "truncation at " << cut << " decoded";
  }
}

TEST(ProtocolMalformedTest, TrailingBytesRejected) {
  QueryResponse r;
  r.request_id = 5;
  r.result.columns = {"p"};
  std::string wire = EncodeQueryResponse(r) + "x";
  EXPECT_FALSE(DecodeQueryResponse(wire).ok());
}

TEST(ProtocolMalformedTest, AbsurdRowCountRejectedWithoutAllocating) {
  // Hand-build a payload whose row count claims ~2^41: the decoder
  // must refuse from the count alone rather than reserve terabytes.
  // The row-count varint is located by diffing the encodings of an
  // empty response and a one-row response, then spliced.
  QueryResponse r;
  r.request_id = 1;
  std::string wire = EncodeQueryResponse(r);
  QueryResponse one_row = r;
  one_row.result.rows.push_back({});
  std::string wire1 = EncodeQueryResponse(one_row);
  // The first byte where the two encodings differ is the row count.
  size_t pos = 0;
  while (pos < wire.size() && pos < wire1.size() && wire[pos] == wire1[pos]) {
    ++pos;
  }
  ASSERT_LT(pos, wire1.size());
  std::string evil = wire.substr(0, pos);
  for (int i = 0; i < 5; ++i) evil.push_back(static_cast<char>(0xff));
  evil.push_back(0x7f);  // ~2^40 rows
  evil += wire.substr(pos + 1);
  auto got = DecodeQueryResponse(evil);
  EXPECT_FALSE(got.ok());
}

}  // namespace
}  // namespace sdms::server
