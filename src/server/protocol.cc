#include "server/protocol.h"

#include <utility>

#include "oodb/storage/serializer.h"

namespace sdms::server {

using oodb::Decoder;
using oodb::Encoder;

namespace {

/// Hard sanity caps applied while decoding: a malformed length byte
/// must not turn into a multi-gigabyte allocation before the frame-
/// level size cap would have caught it.
constexpr uint64_t kMaxWireRows = 16u << 20;
constexpr uint64_t kMaxWireColumns = 4096;
constexpr uint64_t kMaxWireShardEntries = 65536;

StatusCode CodeFromWire(uint8_t raw) {
  if (raw > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return StatusCode::kInternal;  // future peer; keep the message
  }
  return static_cast<StatusCode>(raw);
}

coupling::ShedCause ShedCauseFromWire(uint8_t raw) {
  if (raw > static_cast<uint8_t>(coupling::ShedCause::kDraining)) {
    return coupling::ShedCause::kNone;
  }
  return static_cast<coupling::ShedCause>(raw);
}

}  // namespace

// --- Hello ----------------------------------------------------------------

std::string EncodeHello(const Hello& h) {
  Encoder enc;
  enc.PutU32(h.protocol_version);
  enc.PutString(h.peer);
  return enc.Release();
}

StatusOr<Hello> DecodeHello(const std::string& payload) {
  Decoder dec(payload);
  Hello h;
  SDMS_ASSIGN_OR_RETURN(h.protocol_version, dec.GetU32());
  SDMS_ASSIGN_OR_RETURN(h.peer, dec.GetString());
  return h;
}

// --- Query request --------------------------------------------------------

std::string EncodeQueryRequest(const QueryRequest& q) {
  Encoder enc;
  enc.PutU64(q.request_id);
  enc.PutString(q.vql);
  enc.PutU8(q.strategy);
  enc.PutI64(q.deadline_ms);
  enc.PutU64(q.max_rows);
  enc.PutU64(q.max_result_bytes);
  enc.PutU8(q.want_profile ? 1 : 0);
  return enc.Release();
}

StatusOr<QueryRequest> DecodeQueryRequest(const std::string& payload) {
  Decoder dec(payload);
  QueryRequest q;
  SDMS_ASSIGN_OR_RETURN(q.request_id, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(q.vql, dec.GetString());
  SDMS_ASSIGN_OR_RETURN(q.strategy, dec.GetU8());
  SDMS_ASSIGN_OR_RETURN(q.deadline_ms, dec.GetI64());
  SDMS_ASSIGN_OR_RETURN(q.max_rows, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(q.max_result_bytes, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(uint8_t want_profile, dec.GetU8());
  q.want_profile = want_profile != 0;
  if (q.request_id == 0) {
    return Status::InvalidArgument("query request_id must be nonzero");
  }
  if (q.strategy > 1) {
    return Status::InvalidArgument("unknown query strategy " +
                                   std::to_string(q.strategy));
  }
  return q;
}

// --- Cancel ---------------------------------------------------------------

std::string EncodeCancelRequest(const CancelRequest& c) {
  Encoder enc;
  enc.PutU64(c.request_id);
  return enc.Release();
}

StatusOr<CancelRequest> DecodeCancelRequest(const std::string& payload) {
  Decoder dec(payload);
  CancelRequest c;
  SDMS_ASSIGN_OR_RETURN(c.request_id, dec.GetU64());
  return c;
}

// --- Query response -------------------------------------------------------

WireRunInfo ToWire(const coupling::MixedQueryEvaluator::RunInfo& info,
                   bool include_profile) {
  WireRunInfo w;
  w.strategy =
      info.strategy == coupling::MixedQueryEvaluator::Strategy::kIrsFirst ? 1
                                                                          : 0;
  w.irs_restrictions = info.irs_restrictions;
  w.irs_candidates = info.irs_candidates;
  w.degraded = info.degraded;
  w.query_id = info.query_id;
  w.queue_wait_micros = info.queue_wait_micros;
  w.total_micros = info.total_micros;
  if (include_profile && info.profile != nullptr) {
    w.profile_json = info.profile->ToJson();
  }
  w.shard_status = info.shard_status;
  return w;
}

std::string EncodeQueryResponse(const QueryResponse& r) {
  Encoder enc;
  enc.PutU64(r.request_id);
  enc.PutU64(r.result.columns.size());
  for (const std::string& col : r.result.columns) enc.PutString(col);
  enc.PutU64(r.result.rows.size());
  for (const auto& row : r.result.rows) {
    enc.PutU64(row.size());
    for (const oodb::Value& v : row) enc.PutValue(v);
  }
  enc.PutU8(r.result.degraded ? 1 : 0);
  enc.PutString(r.result.degraded_reason);
  enc.PutU8(r.info.strategy);
  enc.PutU64(r.info.irs_restrictions);
  enc.PutU64(r.info.irs_candidates);
  enc.PutU8(r.info.degraded ? 1 : 0);
  enc.PutU64(r.info.query_id);
  enc.PutI64(r.info.queue_wait_micros);
  enc.PutI64(r.info.total_micros);
  enc.PutString(r.info.profile_json);
  enc.PutU32(static_cast<uint32_t>(r.info.shard_status.size()));
  for (const ShardStatusEntry& e : r.info.shard_status) {
    enc.PutString(e.collection);
    enc.PutU32(e.shard);
    enc.PutU8(static_cast<uint8_t>(e.state));
    enc.PutString(e.detail);
    enc.PutI64(e.micros);
  }
  return enc.Release();
}

StatusOr<QueryResponse> DecodeQueryResponse(const std::string& payload) {
  Decoder dec(payload);
  QueryResponse r;
  SDMS_ASSIGN_OR_RETURN(r.request_id, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(uint64_t n_cols, dec.GetU64());
  if (n_cols > kMaxWireColumns) {
    return Status::Corruption("response column count " +
                              std::to_string(n_cols) + " exceeds cap");
  }
  r.result.columns.reserve(n_cols);
  for (uint64_t i = 0; i < n_cols; ++i) {
    SDMS_ASSIGN_OR_RETURN(std::string col, dec.GetString());
    r.result.columns.push_back(std::move(col));
  }
  SDMS_ASSIGN_OR_RETURN(uint64_t n_rows, dec.GetU64());
  if (n_rows > kMaxWireRows) {
    return Status::Corruption("response row count " + std::to_string(n_rows) +
                              " exceeds cap");
  }
  r.result.rows.reserve(n_rows);
  for (uint64_t i = 0; i < n_rows; ++i) {
    SDMS_ASSIGN_OR_RETURN(uint64_t n_vals, dec.GetU64());
    if (n_vals > kMaxWireColumns) {
      return Status::Corruption("row width " + std::to_string(n_vals) +
                                " exceeds cap");
    }
    std::vector<oodb::Value> row;
    row.reserve(n_vals);
    for (uint64_t j = 0; j < n_vals; ++j) {
      SDMS_ASSIGN_OR_RETURN(oodb::Value v, dec.GetValue());
      row.push_back(std::move(v));
    }
    r.result.rows.push_back(std::move(row));
  }
  SDMS_ASSIGN_OR_RETURN(uint8_t degraded, dec.GetU8());
  r.result.degraded = degraded != 0;
  SDMS_ASSIGN_OR_RETURN(r.result.degraded_reason, dec.GetString());
  SDMS_ASSIGN_OR_RETURN(r.info.strategy, dec.GetU8());
  SDMS_ASSIGN_OR_RETURN(r.info.irs_restrictions, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(r.info.irs_candidates, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(uint8_t info_degraded, dec.GetU8());
  r.info.degraded = info_degraded != 0;
  SDMS_ASSIGN_OR_RETURN(r.info.query_id, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(r.info.queue_wait_micros, dec.GetI64());
  SDMS_ASSIGN_OR_RETURN(r.info.total_micros, dec.GetI64());
  SDMS_ASSIGN_OR_RETURN(r.info.profile_json, dec.GetString());
  SDMS_ASSIGN_OR_RETURN(uint32_t n_shards, dec.GetU32());
  if (n_shards > kMaxWireShardEntries) {
    return Status::Corruption("shard-status count " +
                              std::to_string(n_shards) + " exceeds cap");
  }
  r.info.shard_status.reserve(n_shards);
  for (uint32_t i = 0; i < n_shards; ++i) {
    ShardStatusEntry e;
    SDMS_ASSIGN_OR_RETURN(e.collection, dec.GetString());
    SDMS_ASSIGN_OR_RETURN(e.shard, dec.GetU32());
    SDMS_ASSIGN_OR_RETURN(uint8_t state, dec.GetU8());
    // Any state other than ok/skipped — the retired value 1 and unknown
    // future ones included — reads as kFailed (the conservative
    // reading: the shard did not answer normally) instead of failing
    // the whole frame.
    e.state = state == static_cast<uint8_t>(ShardState::kOk) ||
                      state == static_cast<uint8_t>(ShardState::kSkipped)
                  ? static_cast<ShardState>(state)
                  : ShardState::kFailed;
    SDMS_ASSIGN_OR_RETURN(e.detail, dec.GetString());
    SDMS_ASSIGN_OR_RETURN(e.micros, dec.GetI64());
    r.info.shard_status.push_back(std::move(e));
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after query response");
  }
  return r;
}

// --- Error response -------------------------------------------------------

std::string EncodeErrorResponse(const ErrorResponse& e) {
  Encoder enc;
  enc.PutU64(e.request_id);
  enc.PutU8(static_cast<uint8_t>(e.code));
  enc.PutString(e.message);
  enc.PutU8(static_cast<uint8_t>(e.shed_cause));
  return enc.Release();
}

StatusOr<ErrorResponse> DecodeErrorResponse(const std::string& payload) {
  Decoder dec(payload);
  ErrorResponse e;
  SDMS_ASSIGN_OR_RETURN(e.request_id, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(uint8_t code, dec.GetU8());
  e.code = CodeFromWire(code);
  SDMS_ASSIGN_OR_RETURN(e.message, dec.GetString());
  SDMS_ASSIGN_OR_RETURN(uint8_t cause, dec.GetU8());
  e.shed_cause = ShedCauseFromWire(cause);
  return e;
}

Status AsStatus(const ErrorResponse& e) {
  if (e.code == StatusCode::kOk) return Status::OK();
  std::string msg = e.message;
  if (e.shed_cause != coupling::ShedCause::kNone) {
    msg += " (shed_cause=";
    msg += coupling::ShedCauseName(e.shed_cause);
    msg += ")";
  }
  switch (e.code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kNotFound: return Status::NotFound(std::move(msg));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case StatusCode::kCorruption: return Status::Corruption(std::move(msg));
    case StatusCode::kIoError: return Status::IoError(std::move(msg));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(msg));
    case StatusCode::kParseError: return Status::ParseError(std::move(msg));
    case StatusCode::kTypeError: return Status::TypeError(std::move(msg));
    case StatusCode::kLockConflict:
      return Status::LockConflict(std::move(msg));
    case StatusCode::kAborted: return Status::Aborted(std::move(msg));
    case StatusCode::kInternal: return Status::Internal(std::move(msg));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case StatusCode::kCancelled: return Status::Cancelled(std::move(msg));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
  }
  return Status::Internal(std::move(msg));
}

}  // namespace sdms::server
