#include "coupling/remote_shard.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/fault/fault.h"
#include "common/net/socket.h"
#include "common/obs/log.h"
#include "common/obs/metrics.h"
#include "common/query_context.h"

namespace sdms::coupling {

namespace {

const char* StableShardPointName(
    size_t shard, const char* prefix, const char* suffix,
    std::vector<std::unique_ptr<std::string>>& names, std::mutex& mu) {
  std::lock_guard<std::mutex> lock(mu);
  while (names.size() <= shard) {
    names.push_back(std::make_unique<std::string>(
        prefix + std::to_string(names.size()) + suffix));
  }
  return names[shard]->c_str();
}

obs::Counter& Metric(const char* name) {
  return obs::GetCounter(std::string("coupling.remote_shard.") + name);
}

/// Shard `shard` of `local` in the fields a ShardStatusMsg reports.
ShardStatusMsg LocalShardStatus(const irs::IrsCollection& local,
                                size_t shard) {
  ShardStatusMsg s;
  s.applied_seq = local.shard_applied_seq(shard);
  s.doc_count = local.shard(shard).doc_count();
  s.doc_table_size = local.shard(shard).doc_table_size();
  return s;
}

/// True when a peer's reported state matches the local shard's. The
/// doc-table size catches what doc_count alone misses: a lost delete
/// plus a lost insert leave the live count equal.
bool SameShardState(const ShardStatusMsg& peer, const ShardStatusMsg& local) {
  return peer.applied_seq == local.applied_seq &&
         peer.doc_count == local.doc_count &&
         peer.doc_table_size == local.doc_table_size;
}

std::string DescribeShardState(const ShardStatusMsg& s) {
  return "seq=" + std::to_string(s.applied_seq) +
         " docs=" + std::to_string(s.doc_count) +
         " table=" + std::to_string(s.doc_table_size);
}

}  // namespace

const char* ShardNetConnectFaultPoint(size_t shard) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<std::string>> names;
  return StableShardPointName(shard, "net.shard", ".connect", names, mu);
}

const char* ShardNetReadFaultPoint(size_t shard) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<std::string>> names;
  return StableShardPointName(shard, "net.shard", ".read", names, mu);
}

const char* ShardNetStallFaultPoint(size_t shard) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<std::string>> names;
  return StableShardPointName(shard, "net.shard", ".stall", names, mu);
}

const char* ShardNetPartitionFaultPoint(size_t shard) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<std::string>> names;
  return StableShardPointName(shard, "net.shard", ".partition", names, mu);
}

RemoteShardChannel::RemoteShardChannel(RemoteShardOptions options)
    : options_(std::move(options)) {
  jitter_state_ = options_.jitter_seed != 0
                      ? options_.jitter_seed
                      : 0x9e3779b97f4a7c15ull ^
                            (static_cast<uint64_t>(options_.shard) << 32) ^
                            options_.port;
  if (jitter_state_ == 0) jitter_state_ = 1;
}

RemoteShardChannel::~RemoteShardChannel() { Close(); }

bool RemoteShardChannel::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0;
}

bool RemoteShardChannel::synced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0 && synced_;
}

RemoteShardChannelStats RemoteShardChannel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ShardStatusMsg RemoteShardChannel::last_peer_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peer_status_;
}

void RemoteShardChannel::MarkUnsynced() {
  std::lock_guard<std::mutex> lock(mu_);
  synced_ = false;
  // The cached peer status no longer proves anything — the next sync
  // re-asks over the live connection (or the reconnect handshake).
  have_peer_status_ = false;
}

void RemoteShardChannel::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  CloseLocked();
}

void RemoteShardChannel::CloseLocked() {
  if (fd_ >= 0) {
    net::CloseFd(fd_);
    fd_ = -1;
  }
  synced_ = false;
  have_peer_status_ = false;
}

Status RemoteShardChannel::CheckNetFaultLocked(const char* global_point,
                                               const char* shard_point) {
  SDMS_RETURN_IF_ERROR(fault::InjectFault(global_point));
  return fault::InjectFault(shard_point);
}

Status RemoteShardChannel::CheckPartitionLocked() {
  return CheckNetFaultLocked(kShardPartitionFaultPoint,
                             ShardNetPartitionFaultPoint(options_.shard));
}

void RemoteShardChannel::ScheduleBackoffLocked() {
  ++consecutive_connect_failures_;
  int shift = std::min(consecutive_connect_failures_ - 1, 10);
  int64_t delay_ms = static_cast<int64_t>(options_.backoff_min_ms) << shift;
  delay_ms = std::min<int64_t>(delay_ms, options_.backoff_max_ms);
  // xorshift64* jitter in [0.5, 1.5) of the delay — parallel routers
  // probing a recovering server spread out instead of stampeding.
  jitter_state_ ^= jitter_state_ >> 12;
  jitter_state_ ^= jitter_state_ << 25;
  jitter_state_ ^= jitter_state_ >> 27;
  uint64_t draw = jitter_state_ * 0x2545f4914f6cdd1dull;
  double factor = 0.5 + static_cast<double>(draw % 1000) / 1000.0;
  delay_ms = std::max<int64_t>(1, static_cast<int64_t>(delay_ms * factor));
  next_connect_micros_ = QueryContext::NowMicros() + delay_ms * 1000;
  Metric("reconnect_backoffs").Increment();
}

std::string RemoteShardChannel::HelloPayload() const {
  ShardHello hello;
  hello.collection = options_.collection;
  hello.shard = options_.shard;
  hello.num_shards = options_.num_shards;
  hello.model_name = options_.model_name;
  hello.analyzer = options_.analyzer;
  hello.peer = "remote_shard_channel";
  return EncodeShardHello(hello);
}

Status RemoteShardChannel::ConnectLocked() {
  if (fd_ >= 0) return Status::OK();
  int64_t now = QueryContext::NowMicros();
  if (now < next_connect_micros_) {
    ++stats_.backoff_skips;
    return Status::IoError(
        "shard " + std::to_string(options_.shard) +
        " reconnect backoff active (" +
        std::to_string((next_connect_micros_ - now) / 1000) + " ms left)");
  }
  Status injected = CheckPartitionLocked();
  if (injected.ok()) {
    injected = CheckNetFaultLocked(kShardConnectFaultPoint,
                                   ShardNetConnectFaultPoint(options_.shard));
  }
  if (!injected.ok()) {
    ++stats_.connect_failures;
    ScheduleBackoffLocked();
    return injected;
  }
  auto fd = net::ConnectTcp(options_.host, options_.port,
                            options_.connect_timeout_ms);
  if (!fd.ok()) {
    ++stats_.connect_failures;
    ScheduleBackoffLocked();
    return fd.status();
  }
  fd_ = fd.value();
  Status s = net::WriteFrame(fd_, net::FrameType::kShardHello, HelloPayload(),
                             options_.io_timeout_ms, options_.max_frame_bytes);
  if (s.ok()) {
    auto frame = net::ReadFrame(fd_, options_.io_timeout_ms,
                                options_.io_timeout_ms,
                                options_.max_frame_bytes);
    if (!frame.ok()) {
      s = frame.status();
    } else if (frame.value().type == net::FrameType::kError) {
      s = DecodeShardError(frame.value().payload);
    } else if (frame.value().type != net::FrameType::kShardStatus) {
      s = Status::Corruption(std::string("unexpected ") +
                             net::FrameTypeName(frame.value().type) +
                             " frame answering shard hello");
    } else {
      auto status_msg = DecodeShardStatusMsg(frame.value().payload);
      if (!status_msg.ok()) {
        s = status_msg.status();
      } else {
        peer_status_ = status_msg.value();
        have_peer_status_ = true;
      }
    }
  }
  if (!s.ok()) {
    CloseLocked();
    ++stats_.connect_failures;
    // Version/config rejections are not transient: surface them typed
    // (no retry loop will fix a v2 peer), but still rate-limit the
    // reconnect attempts.
    ScheduleBackoffLocked();
    return s;
  }
  consecutive_connect_failures_ = 0;
  next_connect_micros_ = 0;
  ++stats_.connects;
  Metric("connects").Increment();
  SDMS_LOG(INFO) << "remote shard " << options_.collection << "/"
                 << options_.shard << " connected to " << options_.host << ":"
                 << options_.port << " (peer applied_seq="
                 << peer_status_.applied_seq
                 << " docs=" << peer_status_.doc_count << ")";
  return Status::OK();
}

StatusOr<net::Frame> RemoteShardChannel::RoundTripLocked(
    net::FrameType type, const std::string& payload, int64_t wait_ms) {
  if (fd_ < 0) return Status::IoError("shard channel not connected");
  // The deadline covers the whole round trip — send included — so a
  // stalled send (or the injected stall below) consumes the budget
  // exactly like a peer that never answers.
  int64_t deadline = QueryContext::NowMicros() + wait_ms * 1000;
  SDMS_RETURN_IF_ERROR(CheckPartitionLocked());
  // A stall rule sleeps here; a long enough one pushes the request
  // past its deadline, exactly like a wedged peer or network.
  SDMS_RETURN_IF_ERROR(CheckNetFaultLocked(
      kShardStallFaultPoint, ShardNetStallFaultPoint(options_.shard)));
  Status s = net::WriteFrame(fd_, type, payload, options_.io_timeout_ms,
                             options_.max_frame_bytes);
  if (!s.ok()) {
    CloseLocked();
    return s;
  }
  QueryContext* ctx = QueryContext::Current();
  for (;;) {
    if (ctx != nullptr) {
      Status stop = ctx->CheckStatus();
      if (!stop.ok()) return stop;
    }
    int64_t remaining_ms = (deadline - QueryContext::NowMicros()) / 1000;
    if (remaining_ms <= 0) {
      CloseLocked();
      return Status::DeadlineExceeded(
          "shard " + std::to_string(options_.shard) + " response after " +
          std::to_string(wait_ms) + " ms");
    }
    Status readable = net::WaitReadable(
        fd_, static_cast<int>(std::min<int64_t>(remaining_ms, 20)));
    if (readable.code() == StatusCode::kDeadlineExceeded) continue;
    if (!readable.ok()) {
      CloseLocked();
      return readable;
    }
    break;
  }
  Status injected = CheckPartitionLocked();
  if (injected.ok()) {
    injected = CheckNetFaultLocked(kShardReadFaultPoint,
                                   ShardNetReadFaultPoint(options_.shard));
  }
  if (!injected.ok()) {
    CloseLocked();
    return injected;
  }
  auto frame = net::ReadFrame(fd_, options_.io_timeout_ms,
                              options_.io_timeout_ms, options_.max_frame_bytes);
  if (!frame.ok()) {
    CloseLocked();
    // A clean EOF mid-request is still a transport failure (the peer
    // died or dropped us); surface it in the guard's retriable class.
    if (net::IsConnClosed(frame.status())) {
      return Status::IoError("shard " + std::to_string(options_.shard) +
                             " connection closed mid-request");
    }
    return frame.status();
  }
  if (frame.value().type == net::FrameType::kError) {
    // Typed server-side error: the connection stays usable.
    return DecodeShardError(frame.value().payload);
  }
  return frame;
}

Status RemoteShardChannel::SendCatchUpLocked(net::FrameType type,
                                             const std::string& payload) {
  auto frame = RoundTripLocked(type, payload, options_.io_catchup_timeout_ms);
  if (!frame.ok()) return frame.status();
  if (frame.value().type != net::FrameType::kShardStatus) {
    CloseLocked();
    return Status::Corruption(std::string("unexpected ") +
                              net::FrameTypeName(frame.value().type) +
                              " frame answering shard catch-up");
  }
  SDMS_ASSIGN_OR_RETURN(peer_status_,
                        DecodeShardStatusMsg(frame.value().payload));
  have_peer_status_ = true;
  return Status::OK();
}

Status RemoteShardChannel::EnsureSyncedLocked(irs::IrsCollection* local) {
  if (fd_ >= 0 && synced_) return Status::OK();
  SDMS_RETURN_IF_ERROR(ConnectLocked());
  if (local == nullptr) {
    return Status::FailedPrecondition(
        "shard channel has no local collection to sync from");
  }
  if (!have_peer_status_) {
    // Connected but the cached status was invalidated (MarkUnsynced):
    // re-hello on the live stream to learn where the server stands.
    SDMS_RETURN_IF_ERROR(
        SendCatchUpLocked(net::FrameType::kShardHello, HelloPayload()));
  }
  const ShardStatusMsg want = LocalShardStatus(*local, options_.shard);
  if (SameShardState(peer_status_, want)) {
    synced_ = true;
    return Status::OK();
  }
  SDMS_ASSIGN_OR_RETURN(std::string image,
                        local->SerializeShard(options_.shard));
  ShardInstall install;
  install.index_bytes = std::move(image);
  install.applied_seq = want.applied_seq;
  SDMS_RETURN_IF_ERROR(SendCatchUpLocked(net::FrameType::kShardInstall,
                                         EncodeShardInstall(install)));
  if (!SameShardState(peer_status_, want)) {
    CloseLocked();
    return Status::Internal("remote shard " + std::to_string(options_.shard) +
                            " diverged after full install (peer " +
                            DescribeShardState(peer_status_) + ", local " +
                            DescribeShardState(want) + ")");
  }
  synced_ = true;
  ++stats_.catchup_installs;
  Metric("catchup_installs").Increment();
  SDMS_LOG(INFO) << "remote shard " << options_.collection << "/"
                 << options_.shard << " caught up by full install ("
                 << install.index_bytes.size() << " bytes, seq "
                 << want.applied_seq << ", " << want.doc_count << " docs)";
  return Status::OK();
}

Status RemoteShardChannel::EnsureSynced(irs::IrsCollection* local) {
  std::lock_guard<std::mutex> lock(mu_);
  return EnsureSyncedLocked(local);
}

StatusOr<std::vector<irs::SearchHit>> RemoteShardChannel::Search(
    const std::string& query, const irs::IrsCollection::SearchPlan& plan,
    irs::IrsCollection* local) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.searches;
  Metric("searches").Increment();
  Status synced = EnsureSyncedLocked(local);
  if (!synced.ok()) {
    ++stats_.search_failures;
    Metric("search_failures").Increment();
    return synced;
  }
  ShardSearchRequest req;
  req.request_id = ++next_request_id_;
  req.query = query;
  req.k = plan.k;
  req.stats = irs::IrsCollection::EncodePlanStats(plan);
  int64_t wait_ms = options_.search_deadline_ms;
  QueryContext* ctx = QueryContext::Current();
  if (ctx != nullptr && ctx->has_deadline()) {
    int64_t remaining_ms = ctx->RemainingMicros() / 1000;
    if (remaining_ms <= 0) {
      ++stats_.search_failures;
      return Status::DeadlineExceeded("query deadline before shard search");
    }
    wait_ms = std::min<int64_t>(wait_ms, remaining_ms);
  }
  req.deadline_ms = wait_ms;
  auto frame = RoundTripLocked(net::FrameType::kShardSearch,
                               EncodeShardSearchRequest(req), wait_ms);
  if (!frame.ok()) {
    ++stats_.search_failures;
    Metric("search_failures").Increment();
    return frame.status();
  }
  if (frame.value().type != net::FrameType::kShardHits) {
    ++stats_.search_failures;
    CloseLocked();
    return Status::Corruption(std::string("unexpected ") +
                              net::FrameTypeName(frame.value().type) +
                              " frame answering shard search");
  }
  auto resp = DecodeShardSearchResponse(frame.value().payload);
  if (!resp.ok()) {
    ++stats_.search_failures;
    CloseLocked();
    return resp.status();
  }
  if (resp.value().request_id != req.request_id) {
    ++stats_.search_failures;
    CloseLocked();
    return Status::Corruption("shard response id " +
                              std::to_string(resp.value().request_id) +
                              " does not match request " +
                              std::to_string(req.request_id));
  }
  std::vector<irs::SearchHit> hits;
  hits.reserve(resp.value().hits.size());
  for (ShardHit& h : resp.value().hits) {
    hits.push_back(irs::SearchHit{std::move(h.key), h.score});
  }
  return hits;
}

Status RemoteShardChannel::PushOps(const std::vector<ShardOp>& ops,
                                   uint64_t high,
                                   const irs::IrsCollection* local) {
  std::lock_guard<std::mutex> lock(mu_);
  auto fail = [this](Status s) {
    ++stats_.push_failures;
    Metric("push_failures").Increment();
    synced_ = false;
    have_peer_status_ = false;
    return s;
  };
  if (fd_ < 0 || !synced_) {
    return fail(Status::IoError("shard channel not connected"));
  }
  ShardOpsBatch batch;
  batch.ops = ops;
  batch.high = high;
  Status s =
      SendCatchUpLocked(net::FrameType::kShardOps, EncodeShardOpsBatch(batch));
  if (!s.ok()) return fail(std::move(s));
  if (local != nullptr) {
    const ShardStatusMsg want = LocalShardStatus(*local, options_.shard);
    if (!SameShardState(peer_status_, want)) {
      return fail(Status::Internal(
          "remote shard " + std::to_string(options_.shard) +
          " diverged after op push (peer " + DescribeShardState(peer_status_) +
          ", local " + DescribeShardState(want) + ")"));
    }
  }
  stats_.ops_pushed += ops.size();
  Metric("ops_pushed").Increment();
  return Status::OK();
}

}  // namespace sdms::coupling
