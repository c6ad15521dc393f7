#include "coupling/shard_protocol.h"

#include "oodb/storage/serializer.h"

namespace sdms::coupling {

using oodb::Decoder;
using oodb::Encoder;

namespace {

StatusCode CodeFromWire(uint8_t raw) {
  if (raw > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return StatusCode::kInternal;  // future peer; keep the message
  }
  return static_cast<StatusCode>(raw);
}

/// Wire size of one ShardSearchResponse hit: u64 OID + 8-byte double.
constexpr uint64_t kWireShardHitBytes = 16;

Status RejectTrailing(const Decoder& dec) {
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after shard message");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeShardHello(const ShardHello& h) {
  Encoder enc;
  enc.PutU32(h.protocol_version);
  enc.PutString(h.collection);
  enc.PutU32(h.shard);
  enc.PutU32(h.num_shards);
  enc.PutString(h.model_name);
  enc.PutU8(h.analyzer.remove_stopwords ? 1 : 0);
  enc.PutU8(h.analyzer.stem ? 1 : 0);
  enc.PutU64(h.analyzer.min_token_length);
  enc.PutString(h.peer);
  return enc.Release();
}

StatusOr<ShardHello> DecodeShardHello(const std::string& payload) {
  Decoder dec(payload);
  ShardHello h;
  SDMS_ASSIGN_OR_RETURN(h.protocol_version, dec.GetU32());
  SDMS_ASSIGN_OR_RETURN(h.collection, dec.GetString());
  SDMS_ASSIGN_OR_RETURN(h.shard, dec.GetU32());
  SDMS_ASSIGN_OR_RETURN(h.num_shards, dec.GetU32());
  SDMS_ASSIGN_OR_RETURN(h.model_name, dec.GetString());
  SDMS_ASSIGN_OR_RETURN(uint8_t stopwords, dec.GetU8());
  h.analyzer.remove_stopwords = stopwords != 0;
  SDMS_ASSIGN_OR_RETURN(uint8_t stem, dec.GetU8());
  h.analyzer.stem = stem != 0;
  SDMS_ASSIGN_OR_RETURN(uint64_t min_len, dec.GetU64());
  h.analyzer.min_token_length = static_cast<size_t>(min_len);
  SDMS_ASSIGN_OR_RETURN(h.peer, dec.GetString());
  SDMS_RETURN_IF_ERROR(RejectTrailing(dec));
  return h;
}

std::string EncodeShardStatusMsg(const ShardStatusMsg& s) {
  Encoder enc;
  enc.PutU64(s.applied_seq);
  enc.PutU64(s.doc_count);
  enc.PutU64(s.doc_table_size);
  return enc.Release();
}

StatusOr<ShardStatusMsg> DecodeShardStatusMsg(const std::string& payload) {
  Decoder dec(payload);
  ShardStatusMsg s;
  SDMS_ASSIGN_OR_RETURN(s.applied_seq, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(s.doc_count, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(s.doc_table_size, dec.GetU64());
  SDMS_RETURN_IF_ERROR(RejectTrailing(dec));
  return s;
}

std::string EncodeShardSearchRequest(const ShardSearchRequest& r) {
  Encoder enc;
  enc.PutU64(r.request_id);
  enc.PutString(r.query);
  enc.PutI64(r.deadline_ms);
  enc.PutString(r.stats);
  return enc.Release();
}

StatusOr<ShardSearchRequest> DecodeShardSearchRequest(
    const std::string& payload) {
  Decoder dec(payload);
  ShardSearchRequest r;
  SDMS_ASSIGN_OR_RETURN(r.request_id, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(r.query, dec.GetString());
  SDMS_ASSIGN_OR_RETURN(r.deadline_ms, dec.GetI64());
  SDMS_ASSIGN_OR_RETURN(r.stats, dec.GetString());
  SDMS_RETURN_IF_ERROR(RejectTrailing(dec));
  return r;
}

std::string EncodeShardSearchResponse(const ShardSearchResponse& r) {
  Encoder enc;
  enc.PutU64(r.request_id);
  enc.PutU64(r.hits.size());
  for (const auto& [oid, score] : r.hits) {
    enc.PutFixed64(oid.raw());
    enc.PutDouble(score);
  }
  return enc.Release();
}

StatusOr<ShardSearchResponse> DecodeShardSearchResponse(
    const std::string& payload) {
  Decoder dec(payload);
  ShardSearchResponse r;
  SDMS_ASSIGN_OR_RETURN(r.request_id, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(uint64_t n, dec.GetU64());
  if (n > kMaxWireShardHits) {
    return Status::Corruption("shard hit count " + std::to_string(n) +
                              " exceeds cap");
  }
  // Fixed-width hits: a count the payload cannot hold is refused before
  // anything is allocated.
  if (n * kWireShardHitBytes > dec.remaining()) {
    return Status::Corruption("shard hit count " + std::to_string(n) +
                              " exceeds the payload");
  }
  r.hits.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    SDMS_ASSIGN_OR_RETURN(uint64_t oid, dec.GetFixed64());
    SDMS_ASSIGN_OR_RETURN(double score, dec.GetDouble());
    r.hits.emplace_back(Oid(oid), score);
  }
  SDMS_RETURN_IF_ERROR(RejectTrailing(dec));
  return r;
}

std::string EncodeShardOpsBatch(const ShardOpsBatch& b) {
  Encoder enc;
  enc.PutU64(b.high);
  enc.PutU64(b.ops.size());
  for (const ShardOp& op : b.ops) {
    enc.PutU8(op.is_delete ? 1 : 0);
    enc.PutString(op.key);
    enc.PutString(op.text);
    enc.PutU64(op.seq);
  }
  return enc.Release();
}

StatusOr<ShardOpsBatch> DecodeShardOpsBatch(const std::string& payload) {
  Decoder dec(payload);
  ShardOpsBatch b;
  SDMS_ASSIGN_OR_RETURN(b.high, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(uint64_t n, dec.GetU64());
  if (n > kMaxWireShardOps) {
    return Status::Corruption("shard op count " + std::to_string(n) +
                              " exceeds cap");
  }
  b.ops.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    ShardOp op;
    SDMS_ASSIGN_OR_RETURN(uint8_t is_delete, dec.GetU8());
    if (is_delete > 1) {
      return Status::Corruption("shard op kind " + std::to_string(is_delete) +
                                " unknown");
    }
    op.is_delete = is_delete != 0;
    SDMS_ASSIGN_OR_RETURN(op.key, dec.GetString());
    SDMS_ASSIGN_OR_RETURN(op.text, dec.GetString());
    SDMS_ASSIGN_OR_RETURN(op.seq, dec.GetU64());
    b.ops.push_back(std::move(op));
  }
  SDMS_RETURN_IF_ERROR(RejectTrailing(dec));
  return b;
}

std::string EncodeShardInstall(const ShardInstall& i) {
  Encoder enc;
  enc.PutU64(i.applied_seq);
  enc.PutString(i.index_bytes);
  return enc.Release();
}

StatusOr<ShardInstall> DecodeShardInstall(const std::string& payload) {
  Decoder dec(payload);
  ShardInstall i;
  SDMS_ASSIGN_OR_RETURN(i.applied_seq, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(i.index_bytes, dec.GetString());
  SDMS_RETURN_IF_ERROR(RejectTrailing(dec));
  return i;
}

std::string EncodeShardError(uint64_t request_id, const Status& error) {
  Encoder enc;
  enc.PutU64(request_id);
  enc.PutU8(static_cast<uint8_t>(error.code()));
  enc.PutString(error.message());
  enc.PutU8(0);  // shed_cause slot of the main protocol's ErrorResponse
  return enc.Release();
}

Status DecodeShardError(const std::string& payload, uint64_t* request_id) {
  Decoder dec(payload);
  SDMS_ASSIGN_OR_RETURN(uint64_t id, dec.GetU64());
  if (request_id != nullptr) *request_id = id;
  SDMS_ASSIGN_OR_RETURN(uint8_t raw, dec.GetU8());
  SDMS_ASSIGN_OR_RETURN(std::string message, dec.GetString());
  // The shed-cause byte is tolerated but unused on the shard path.
  StatusCode code = CodeFromWire(raw);
  switch (code) {
    case StatusCode::kOk:
      return Status::Internal("shard error frame carried kOk");
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(message));
    case StatusCode::kIoError:
      return Status::IoError(std::move(message));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kParseError:
      return Status::ParseError(std::move(message));
    case StatusCode::kTypeError:
      return Status::TypeError(std::move(message));
    case StatusCode::kLockConflict:
      return Status::LockConflict(std::move(message));
    case StatusCode::kAborted:
      return Status::Aborted(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(std::move(message));
}

}  // namespace sdms::coupling
