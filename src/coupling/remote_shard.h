#ifndef SDMS_COUPLING_REMOTE_SHARD_H_
#define SDMS_COUPLING_REMOTE_SHARD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/net/frame.h"
#include "common/status.h"
#include "coupling/shard_protocol.h"
#include "irs/collection.h"

namespace sdms::coupling {

/// Network fault injection points of the remote shard transport.
/// The unsuffixed points hit every channel; the per-shard variants
/// (ShardNet*FaultPoint) hit only the channel serving that shard, so
/// the sim harness and tests can partition exactly one failure domain.
///   net.shard.connect   — TCP connect / hello handshake fails
///   net.shard.read      — response read drops mid-stream (kIoError)
///   net.shard.stall     — latency before a request (arm kLatency
///                         above the deadline to simulate a stalled
///                         peer; the per-request deadline then fires)
///   net.shard.partition — both directions dead: every send *and*
///                         receive on the channel fails
inline constexpr char kShardConnectFaultPoint[] = "net.shard.connect";
inline constexpr char kShardReadFaultPoint[] = "net.shard.read";
inline constexpr char kShardStallFaultPoint[] = "net.shard.stall";
inline constexpr char kShardPartitionFaultPoint[] = "net.shard.partition";

/// Per-shard variants ("net.shard<i>.connect" etc.); pointers are
/// stable for the process lifetime.
const char* ShardNetConnectFaultPoint(size_t shard);
const char* ShardNetReadFaultPoint(size_t shard);
const char* ShardNetStallFaultPoint(size_t shard);
const char* ShardNetPartitionFaultPoint(size_t shard);

/// Configuration of one router -> shard-server channel.
struct RemoteShardOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Identity and configuration shipped in ShardHello — the shard
  /// server builds its IrsCollection from these, which is why they
  /// must match the router's collection exactly.
  std::string collection;
  uint32_t shard = 0;
  uint32_t num_shards = 1;
  std::string model_name = "inquery";
  irs::AnalyzerOptions analyzer;

  int connect_timeout_ms = 1000;
  /// Bounds every chunk of a frame read/write.
  int io_timeout_ms = 2000;
  /// Per-request deadline applied to a shard search when the calling
  /// QueryContext carries none.
  int64_t search_deadline_ms = 2000;
  /// Wait bound for catch-up answers (installs ship whole indexes).
  int io_catchup_timeout_ms = 10000;

  /// Reconnect backoff window: after a failed connect the channel
  /// refuses further attempts for an exponentially growing, jittered
  /// delay — a crashed shard server is not hammered in lockstep by
  /// every router thread.
  int backoff_min_ms = 20;
  int backoff_max_ms = 2000;
  /// 0 derives a seed from the shard/port (deterministic enough for
  /// tests that pin it explicitly).
  uint64_t jitter_seed = 0;

  uint32_t max_frame_bytes = net::kDefaultMaxFrameBytes;
};

/// Counters of one channel (tests read these; the process-wide
/// `coupling.remote_shard.*` metrics mirror them).
struct RemoteShardChannelStats {
  uint64_t connects = 0;
  uint64_t connect_failures = 0;
  uint64_t backoff_skips = 0;
  uint64_t searches = 0;
  uint64_t search_failures = 0;
  uint64_t catchup_installs = 0;
  uint64_t ops_pushed = 0;
  uint64_t push_failures = 0;
};

/// A scatter-gather client for one remote shard: the network twin of
/// an in-process SearchShard call, slotted behind the same per-shard
/// CallGuard so the fan-out/partial-merge machinery treats a remote
/// shard exactly like a local one.
///
/// The router keeps the full local collection (it is the indexing and
/// durability tier); the channel mirrors one shard of it to a
/// `sdms_server --shard` process and routes that shard's searches over
/// the wire. Search failures surface as kIoError (retriable — the
/// guard's retry reconnects and re-issues; searches are idempotent) or
/// kDeadlineExceeded; once the guard's retries are spent the shard is
/// reported failed. They are never silently served from the local
/// copy, so a dead remote shard degrades the query visibly instead of
/// masking the outage.
///
/// Catch-up: every connection starts with a ShardHello / ShardStatus
/// handshake comparing the server's applied_seq + doc_count against
/// the local shard. A behind server, whatever the size of its gap, is
/// caught up by a full index install (SerializeShard), which sets its
/// floor to the local applied_seq — exactly-once with respect to the
/// propagation journal's seq floors.
///
/// Thread safety: all methods are serialized on an internal mutex.
/// Calls that take the local collection must not race with writers to
/// it — the same external discipline IrsCollection itself requires.
class RemoteShardChannel {
 public:
  explicit RemoteShardChannel(RemoteShardOptions options);
  ~RemoteShardChannel();

  RemoteShardChannel(const RemoteShardChannel&) = delete;
  RemoteShardChannel& operator=(const RemoteShardChannel&) = delete;

  /// Ensures the server is connected and synced, then executes one
  /// shard search: ships the router-prepared plan's query + global
  /// statistics (EncodePlanStats), returns the shard's ranked hits —
  /// bit-identical to `local->SearchShard(plan, shard)` on a healthy
  /// channel.
  StatusOr<std::vector<irs::SearchHit>> Search(
      const std::string& query, const irs::IrsCollection::SearchPlan& plan,
      irs::IrsCollection* local);

  /// Forwards applied update ops (materialized text) to the server and
  /// advances its floor to `high`. A failed push (or one made while the
  /// channel is down) leaves the channel unsynced, to be caught up by a
  /// full install on the next Search/EnsureSynced. When `local` is
  /// given, the server's post-apply doc_count is verified against it.
  Status PushOps(const std::vector<ShardOp>& ops, uint64_t high,
                 const irs::IrsCollection* local);

  /// Connects and catches the server up to the local shard.
  Status EnsureSynced(irs::IrsCollection* local);

  /// Marks the mirrored state stale: the next Search/EnsureSynced
  /// redoes the status handshake and catch-up.
  void MarkUnsynced();

  /// Drops the connection (and the synced mark).
  void Close();

  bool connected() const;
  bool synced() const;
  RemoteShardChannelStats stats() const;
  /// Last ShardStatus answer received from the server.
  ShardStatusMsg last_peer_status() const;
  const RemoteShardOptions& options() const { return options_; }

 private:
  Status CheckNetFaultLocked(const char* global_point,
                             const char* shard_point);
  /// Partition rule check applied to every network operation.
  Status CheckPartitionLocked();
  /// Encoded ShardHello carrying this channel's identity and config.
  std::string HelloPayload() const;
  Status ConnectLocked();
  void CloseLocked();
  void ScheduleBackoffLocked();
  /// Writes one frame and reads the answer, bounded by `wait_ms`;
  /// kError answers are decoded into their typed Status. Closes the
  /// connection on transport failure.
  StatusOr<net::Frame> RoundTripLocked(net::FrameType type,
                                       const std::string& payload,
                                       int64_t wait_ms);
  Status EnsureSyncedLocked(irs::IrsCollection* local);
  /// Sends ops/install and folds the ShardStatus answer into
  /// peer_status_.
  Status SendCatchUpLocked(net::FrameType type, const std::string& payload);

  const RemoteShardOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;
  bool synced_ = false;
  ShardStatusMsg peer_status_;
  bool have_peer_status_ = false;
  uint64_t next_request_id_ = 0;

  /// Reconnect backoff state (steady-clock micros).
  int64_t next_connect_micros_ = 0;
  int consecutive_connect_failures_ = 0;
  uint64_t jitter_state_ = 0;

  RemoteShardChannelStats stats_;
};

}  // namespace sdms::coupling

#endif  // SDMS_COUPLING_REMOTE_SHARD_H_
