#ifndef SDMS_COUPLING_SHARD_PROTOCOL_H_
#define SDMS_COUPLING_SHARD_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "irs/analysis/analyzer.h"
#include "irs/collection.h"

namespace sdms::coupling {

/// Message bodies of the protocol-v3 shard serving mode
/// (docs/protocol.md, "Shard messages"). A router (the coupling
/// process) drives one `sdms_server --shard <coll>/<i>` process per
/// remote shard with these; payloads ride the same length-prefixed
/// frames as the main protocol (net::FrameType::kShard*), encoded with
/// oodb::Encoder (LEB128 varints, length-prefixed strings, raw 8-byte
/// doubles so scores round-trip bit-identically).
///
/// Every Decode* rejects malformed payloads with a typed Status —
/// truncation, trailing bytes, or cap violations never crash either
/// side. Errors travel as kError frames whose payload layout matches
/// the main protocol's ErrorResponse byte for byte.

/// Mirror of server::kProtocolVersion, re-declared here so the channel
/// (coupling layer) does not depend on the server library. A static
/// assert in shard_service.cc keeps them in lock step.
inline constexpr uint32_t kShardProtocolVersion = 4;

/// Caps mirroring the main protocol's hardening: a decoder refuses
/// counts beyond these before allocating.
inline constexpr uint64_t kMaxWireShardHits = 1u << 24;
inline constexpr uint64_t kMaxWireShardOps = 1u << 20;
inline constexpr uint64_t kMaxWireStatsTerms = 1u << 20;

// --- ShardHello (router -> shard, once per connection) --------------------

/// Declares which (collection, shard) this connection serves and the
/// configuration the shard-side IrsCollection must be built with. The
/// server answers with ShardStatus (its applied_seq/doc_count — the
/// catch-up handshake) or a typed error on version/config mismatch.
struct ShardHello {
  uint32_t protocol_version = kShardProtocolVersion;
  std::string collection;
  uint32_t shard = 0;
  uint32_t num_shards = 1;
  /// Retrieval model ("boolean" | "vsm" | "bm25" | "inquery") and
  /// analyzer configuration — both sides must parse and score queries
  /// identically for rankings to stay bit-identical.
  std::string model_name;
  irs::AnalyzerOptions analyzer;
  /// Free-form peer label for logs.
  std::string peer;
};

std::string EncodeShardHello(const ShardHello& h);
StatusOr<ShardHello> DecodeShardHello(const std::string& payload);

// --- ShardStatus (shard -> router) ----------------------------------------

/// The shard server's applied state: answers ShardHello, ShardOps and
/// ShardInstall. The router compares all three fields against its
/// local copy of the shard to decide whether catch-up (a full install)
/// is needed.
struct ShardStatusMsg {
  uint64_t applied_seq = 0;
  uint64_t doc_count = 0;
  /// Doc-table size including tombstones; catches divergence that
  /// doc_count alone would miss (e.g. a lost delete + lost insert).
  uint64_t doc_table_size = 0;
};

std::string EncodeShardStatusMsg(const ShardStatusMsg& s);
StatusOr<ShardStatusMsg> DecodeShardStatusMsg(const std::string& payload);

// --- ShardSearch (router -> shard) ----------------------------------------

/// One shard search: the query string plus the router-computed global
/// corpus statistics (IrsCollection::EncodePlanStats). The shard
/// re-parses the query with its (identical) analyzer and scores its
/// local documents against the injected statistics, which is exactly
/// what keeps remote answers bit-identical to local SearchShard.
struct ShardSearchRequest {
  uint64_t request_id = 0;
  std::string query;
  /// Relative deadline for the shard-side execution; 0 = none.
  int64_t deadline_ms = 0;
  /// Opaque stats blob (decoded by IrsCollection::PrepareSearchWithStats).
  std::string stats;
};

std::string EncodeShardSearchRequest(const ShardSearchRequest& r);
StatusOr<ShardSearchRequest> DecodeShardSearchRequest(
    const std::string& payload);

/// The shard's hits in OID order (IrsCollection::SearchShard). Each
/// travels as a fixed-width u64 OID plus a raw 8-byte double, so the
/// merge on the router is bit-identical to an in-process merge.
struct ShardSearchResponse {
  uint64_t request_id = 0;
  irs::OidHits hits;
};

std::string EncodeShardSearchResponse(const ShardSearchResponse& r);
StatusOr<ShardSearchResponse> DecodeShardSearchResponse(
    const std::string& payload);

// --- ShardOps (router -> shard) -------------------------------------------

/// One object's target document: a delete (key) or an upsert (key +
/// text). Propagation plans every op into one, reading the text from the
/// database (the shard server has none to derive it from), applies a
/// shard's ops locally in one IrsCollection::Apply and ships the same
/// ops to the shard server, which applies them the same way.
struct ShardOp {
  bool is_delete = false;
  std::string key;
  std::string text;
  /// Database update-event seq folded into this op; 0 for unsequenced
  /// direct calls. The shard server skips ops at or below its floor
  /// (exactly-once) and applies the rest reconciling-idempotently.
  uint64_t seq = 0;
};

/// The IRS write `op` stands for.
inline irs::DocOp ToDocOp(const ShardOp& op) {
  if (op.is_delete) return irs::DocOp{op.key, std::nullopt};
  return irs::DocOp{op.key, op.text};
}

/// A batch of updates for the connection's shard. After applying, the
/// server advances its applied-seq floor to `high` and answers with
/// ShardStatus.
struct ShardOpsBatch {
  std::vector<ShardOp> ops;
  uint64_t high = 0;
};

std::string EncodeShardOpsBatch(const ShardOpsBatch& b);
StatusOr<ShardOpsBatch> DecodeShardOpsBatch(const std::string& payload);

// --- ShardInstall (router -> shard) ---------------------------------------

/// Full-state catch-up: a serialized shard index image
/// (IrsCollection::SerializeShard) plus the floor it reflects. Always
/// correct regardless of how far behind the server is; the answer is
/// ShardStatus.
struct ShardInstall {
  std::string index_bytes;
  uint64_t applied_seq = 0;
};

std::string EncodeShardInstall(const ShardInstall& i);
StatusOr<ShardInstall> DecodeShardInstall(const std::string& payload);

// --- Errors ---------------------------------------------------------------

/// Encodes a typed error answer (kError frame payload), byte-compatible
/// with the main protocol's ErrorResponse {request_id, code, message,
/// shed_cause=0}.
std::string EncodeShardError(uint64_t request_id, const Status& error);

/// Decodes an error frame back into the Status the channel surfaces.
/// Unknown future codes degrade to kInternal with the message kept; a
/// malformed payload decodes to the parser's own Corruption status
/// (either way the result is the error the caller propagates). An
/// error frame that claims kOk decodes to kInternal.
Status DecodeShardError(const std::string& payload,
                        uint64_t* request_id = nullptr);

}  // namespace sdms::coupling

#endif  // SDMS_COUPLING_SHARD_PROTOCOL_H_
