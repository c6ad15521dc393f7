#ifndef SDMS_SERVER_PROTOCOL_H_
#define SDMS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "coupling/admission.h"
#include "coupling/mixed_query.h"
#include "oodb/query/executor.h"

namespace sdms::server {

/// Message bodies of the sdms network protocol (docs/protocol.md).
/// Frames carry these as payloads, encoded with the same
/// oodb::Encoder/Decoder binary format the WAL and snapshots use
/// (LEB128 varints, length-prefixed strings, raw 8-byte doubles — so
/// scores round-trip bit-identically, like the %.17g exchange files).
/// Every Decode* rejects malformed payloads with a Status instead of
/// crashing; the session layer answers those with an error frame.

/// Bumped on every incompatible wire change; exchanged in Hello.
/// v2: QueryResponse carries the per-shard status list after the
/// profile JSON (fault-isolated fan-out searches name their failure
/// domain on the wire).
/// v3: shard serving mode — the kShardHello/kShardSearch/kShardOps/
/// kShardInstall/kShardStatus frames (coupling/shard_protocol.h) let a
/// router drive per-shard sdms_server processes; kShardSearch carries
/// router-computed global corpus statistics so remote rankings stay
/// bit-identical to local ones. A version mismatch in either direction
/// is answered with a typed kFailedPrecondition, never a parse crash.
/// v4: kShardSearch drops its top-k field (the fan-out never ranks) and
/// kShardHits carries each hit as a fixed-width u64 OID plus a raw
/// double, in OID order, instead of a key string.
inline constexpr uint32_t kProtocolVersion = 4;

// --- Hello ----------------------------------------------------------------

struct Hello {
  uint32_t protocol_version = kProtocolVersion;
  /// Free-form peer label ("sdms_shell", "bench_e2e", ...).
  std::string peer;
};

std::string EncodeHello(const Hello& h);
StatusOr<Hello> DecodeHello(const std::string& payload);

// --- Query request --------------------------------------------------------

struct QueryRequest {
  /// Client-chosen correlation id; echoed in the response and used by
  /// kCancel. Must be nonzero.
  uint64_t request_id = 0;
  std::string vql;
  /// 0 = independent, 1 = irs_first (MixedQueryEvaluator::Strategy).
  uint8_t strategy = 0;
  /// Relative per-request deadline; 0 = none (the server may still
  /// apply its default). Mapped onto the request's QueryContext.
  int64_t deadline_ms = 0;
  /// Row/byte budgets mapped onto the QueryContext (0 = unbounded; the
  /// server caps result bytes at its frame limit regardless).
  uint64_t max_rows = 0;
  uint64_t max_result_bytes = 0;
  /// Attach the profile (as JSON) to the response's RunInfo — the wire
  /// form of EXPLAIN ANALYZE.
  bool want_profile = false;
};

std::string EncodeQueryRequest(const QueryRequest& q);
StatusOr<QueryRequest> DecodeQueryRequest(const std::string& payload);

// --- Cancel ---------------------------------------------------------------

struct CancelRequest {
  uint64_t request_id = 0;
};

std::string EncodeCancelRequest(const CancelRequest& c);
StatusOr<CancelRequest> DecodeCancelRequest(const std::string& payload);

// --- Query response -------------------------------------------------------

/// The wire form of MixedQueryEvaluator::RunInfo: everything the
/// client-side degraded-display and EXPLAIN ANALYZE paths need,
/// including the profile stage tree serialized as its JSON line.
struct WireRunInfo {
  uint8_t strategy = 0;
  uint64_t irs_restrictions = 0;
  uint64_t irs_candidates = 0;
  bool degraded = false;
  uint64_t query_id = 0;
  int64_t queue_wait_micros = 0;
  int64_t total_micros = 0;
  /// QueryProfile::ToJson() of the run, empty when not requested or
  /// not profiled. Opaque to the protocol — compared bit-identically
  /// in round-trip tests.
  std::string profile_json;
  /// Per-shard outcomes of the run's fan-out IRS searches (one entry
  /// per shard per search); empty when no fan-out happened. Decoded
  /// states beyond the known range surface as kFailed rather than
  /// rejecting the frame, so a newer server can add states.
  std::vector<ShardStatusEntry> shard_status;
};

/// Flattens a RunInfo for the wire. Serializes the profile only when
/// `include_profile` (it can be large).
WireRunInfo ToWire(const coupling::MixedQueryEvaluator::RunInfo& info,
                   bool include_profile);

struct QueryResponse {
  uint64_t request_id = 0;
  oodb::vql::QueryResult result;  // columns, rows, degraded(+reason)
  WireRunInfo info;
};

std::string EncodeQueryResponse(const QueryResponse& r);
StatusOr<QueryResponse> DecodeQueryResponse(const std::string& payload);

// --- Error response -------------------------------------------------------

struct ErrorResponse {
  /// The request this error answers; 0 for session-level errors
  /// (malformed frame, unknown type, handshake violation).
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kInternal;
  std::string message;
  /// Populated when code == kResourceExhausted came from shedding.
  coupling::ShedCause shed_cause = coupling::ShedCause::kNone;
};

std::string EncodeErrorResponse(const ErrorResponse& e);
StatusOr<ErrorResponse> DecodeErrorResponse(const std::string& payload);

/// The Status a client surfaces for a received error frame (code and
/// message preserved; the shed cause is appended to the message).
Status AsStatus(const ErrorResponse& e);

}  // namespace sdms::server

#endif  // SDMS_SERVER_PROTOCOL_H_
