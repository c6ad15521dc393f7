#include "server/shard_service.h"

#include <utility>
#include <vector>

#include "common/net/socket.h"
#include "common/obs/log.h"
#include "common/obs/metrics.h"
#include "common/query_context.h"
#include "irs/model/retrieval_model.h"
#include "server/protocol.h"

namespace sdms::server {

// The shard protocol is part of protocol v3; the channel-side mirror
// must never drift from the negotiated version.
static_assert(coupling::kShardProtocolVersion == kProtocolVersion,
              "shard protocol version out of step with kProtocolVersion");

namespace {

struct ShardServerMetrics {
  obs::Counter& connections = obs::GetCounter("shard_server.connections");
  obs::Counter& searches = obs::GetCounter("shard_server.searches");
  obs::Counter& ops_applied = obs::GetCounter("shard_server.ops_applied");
  obs::Counter& ops_skipped = obs::GetCounter("shard_server.ops_skipped");
  obs::Counter& installs = obs::GetCounter("shard_server.installs");
  obs::Counter& protocol_errors =
      obs::GetCounter("shard_server.protocol_errors");
};

ShardServerMetrics& Metrics() {
  static ShardServerMetrics* m = new ShardServerMetrics();
  return *m;
}

}  // namespace

ShardServer::ShardServer(ShardServerOptions options)
    : options_(std::move(options)) {}

ShardServer::~ShardServer() { Shutdown(); }

Status ShardServer::Start() {
  SDMS_ASSIGN_OR_RETURN(
      listen_fd_, net::ListenTcp(options_.host, options_.port, /*backlog=*/16));
  SDMS_ASSIGN_OR_RETURN(port_, net::LocalPort(listen_fd_));
  acceptor_ = std::thread([this] { AcceptLoop(); });
  SDMS_LOG(INFO) << "shard server listening on " << options_.host << ":"
                 << port_
                 << (options_.collection.empty()
                         ? std::string()
                         : " for " + options_.collection + "/" +
                               std::to_string(options_.shard));
  return Status::OK();
}

void ShardServer::Shutdown() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    net::CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  std::list<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    net::ShutdownFd(conn->fd);
    if (conn->thread.joinable()) conn->thread.join();
    net::CloseFd(conn->fd);
  }
}

uint64_t ShardServer::applied_seq() {
  std::lock_guard<std::mutex> lock(state_mu_);
  return collection_ == nullptr ? 0 : collection_->shard_applied_seq(shard_);
}

uint64_t ShardServer::doc_count() {
  std::lock_guard<std::mutex> lock(state_mu_);
  return collection_ == nullptr ? 0 : collection_->shard(shard_).doc_count();
}

void ShardServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    StatusOr<int> conn = net::AcceptConn(listen_fd_, /*timeout_ms=*/100);
    if (!conn.ok()) {
      if (conn.status().IsDeadlineExceeded()) {
        // Poll tick; also reap finished connection threads.
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto it = conns_.begin(); it != conns_.end();) {
          if ((*it)->finished.load(std::memory_order_acquire)) {
            if ((*it)->thread.joinable()) (*it)->thread.join();
            net::CloseFd((*it)->fd);
            it = conns_.erase(it);
          } else {
            ++it;
          }
        }
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) break;
      SDMS_LOG(WARN) << "shard server accept failed: "
                     << conn.status().ToString();
      continue;
    }
    Metrics().connections.Increment();
    connections_.fetch_add(1, std::memory_order_relaxed);
    auto c = std::make_unique<Conn>();
    c->fd = *conn;
    Conn* raw = c.get();
    c->thread = std::thread([this, raw] {
      ServeConnection(raw->fd);
      raw->finished.store(true, std::memory_order_release);
    });
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(std::move(c));
  }
}

void ShardServer::ServeConnection(int fd) {
  bool handshaken = false;
  while (!stop_.load(std::memory_order_acquire)) {
    StatusOr<net::Frame> frame =
        net::ReadFrame(fd, options_.idle_timeout_ms, options_.io_timeout_ms,
                       options_.max_frame_bytes);
    if (!frame.ok()) {
      // Clean EOF / timeout / reset: nothing to answer. A frame-length
      // violation gets a typed protocol error before the close.
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        Metrics().protocol_errors.Increment();
        SendError(fd, 0, frame.status());
      }
      break;
    }
    if (!HandleFrame(fd, *frame, &handshaken)) break;
  }
  net::ShutdownFd(fd);
}

bool ShardServer::HandleFrame(int fd, const net::Frame& frame,
                              bool* handshaken) {
  if (!*handshaken) {
    if (frame.type != net::FrameType::kShardHello) {
      // Includes a main-protocol kHello from a mismatched client:
      // answered typed, never parsed as something else.
      Metrics().protocol_errors.Increment();
      SendError(fd, 0,
                Status::FailedPrecondition(
                    "shard server expects shard hello first, got " +
                    std::string(net::FrameTypeName(frame.type))));
      return false;
    }
    Status s = HandleHello(fd, frame.payload);
    if (!s.ok()) {
      Metrics().protocol_errors.Increment();
      SendError(fd, 0, s);
      return false;
    }
    *handshaken = true;
    return true;
  }
  switch (frame.type) {
    case net::FrameType::kShardSearch: {
      Status s = HandleSearch(fd, frame.payload);
      if (!s.ok()) {
        // Transport failure writing the answer: drop the connection.
        return false;
      }
      return true;
    }
    case net::FrameType::kShardOps: {
      Status s = HandleOps(fd, frame.payload);
      return s.ok();
    }
    case net::FrameType::kShardInstall: {
      Status s = HandleInstall(fd, frame.payload);
      return s.ok();
    }
    case net::FrameType::kShardHello:
      // Re-hello on a live connection: re-verify and re-answer status
      // (a reconnecting router may reuse the stream).
      return HandleHello(fd, frame.payload).ok();
    case net::FrameType::kPing:
      return net::WriteFrame(fd, net::FrameType::kPong, frame.payload,
                             options_.io_timeout_ms, options_.max_frame_bytes)
          .ok();
    case net::FrameType::kGoodbye:
      return false;
    default:
      Metrics().protocol_errors.Increment();
      SendError(fd, 0,
                Status::InvalidArgument(std::string("unexpected frame type ") +
                                        net::FrameTypeName(frame.type) +
                                        " on shard connection"));
      return false;
  }
}

Status ShardServer::SendError(int fd, uint64_t request_id,
                              const Status& error) {
  return net::WriteFrame(fd, net::FrameType::kError,
                         coupling::EncodeShardError(request_id, error),
                         options_.io_timeout_ms, options_.max_frame_bytes);
}

coupling::ShardStatusMsg ShardServer::StatusLocked() const {
  coupling::ShardStatusMsg msg;
  if (collection_ != nullptr) {
    msg.applied_seq = collection_->shard_applied_seq(shard_);
    msg.doc_count = collection_->shard(shard_).doc_count();
    msg.doc_table_size = collection_->shard(shard_).doc_table_size();
  }
  return msg;
}

Status ShardServer::SendStatus(int fd) {
  coupling::ShardStatusMsg msg;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    msg = StatusLocked();
  }
  return net::WriteFrame(fd, net::FrameType::kShardStatus,
                         coupling::EncodeShardStatusMsg(msg),
                         options_.io_timeout_ms, options_.max_frame_bytes);
}

Status ShardServer::HandleHello(int fd, const std::string& payload) {
  SDMS_ASSIGN_OR_RETURN(coupling::ShardHello hello,
                        coupling::DecodeShardHello(payload));
  if (hello.protocol_version != kProtocolVersion) {
    return Status::FailedPrecondition(
        "protocol version mismatch: shard server speaks " +
        std::to_string(kProtocolVersion) + ", router sent " +
        std::to_string(hello.protocol_version));
  }
  if (!options_.collection.empty() &&
      (hello.collection != options_.collection ||
       (options_.shard >= 0 &&
        hello.shard != static_cast<uint32_t>(options_.shard)))) {
    return Status::FailedPrecondition(
        "shard server serves " + options_.collection + "/" +
        std::to_string(options_.shard) + ", hello declared " +
        hello.collection + "/" + std::to_string(hello.shard));
  }
  if (hello.num_shards == 0 || hello.shard >= hello.num_shards) {
    return Status::InvalidArgument(
        "hello shard " + std::to_string(hello.shard) + " out of range for " +
        std::to_string(hello.num_shards) + " shards");
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (collection_ == nullptr) {
      SDMS_ASSIGN_OR_RETURN(auto model, irs::MakeModel(hello.model_name));
      collection_ = std::make_unique<irs::IrsCollection>(
          hello.collection, hello.analyzer, std::move(model),
          hello.num_shards);
      collection_name_ = hello.collection;
      shard_ = hello.shard;
      num_shards_ = hello.num_shards;
      model_name_ = hello.model_name;
      analyzer_options_ = hello.analyzer;
      SDMS_LOG(INFO) << "shard server configured as " << collection_name_
                     << "/" << shard_ << " of " << num_shards_ << " ("
                     << model_name_ << ")";
    } else if (hello.collection != collection_name_ || hello.shard != shard_ ||
               hello.num_shards != num_shards_ ||
               hello.model_name != model_name_ ||
               hello.analyzer.remove_stopwords !=
                   analyzer_options_.remove_stopwords ||
               hello.analyzer.stem != analyzer_options_.stem ||
               hello.analyzer.min_token_length !=
                   analyzer_options_.min_token_length) {
      // Identity and configuration are sticky for the process lifetime —
      // a hello that disagrees is a deployment error, not a reset.
      return Status::FailedPrecondition(
          "shard server already serves " + collection_name_ + "/" +
          std::to_string(shard_) + " of " + std::to_string(num_shards_) +
          " with model " + model_name_ + "; hello declared " +
          hello.collection + "/" + std::to_string(hello.shard) + " of " +
          std::to_string(hello.num_shards) + " with model " +
          hello.model_name);
    }
  }
  return SendStatus(fd);
}

Status ShardServer::HandleSearch(int fd, const std::string& payload) {
  StatusOr<coupling::ShardSearchRequest> req =
      coupling::DecodeShardSearchRequest(payload);
  if (!req.ok()) {
    Metrics().protocol_errors.Increment();
    SendError(fd, 0, req.status());
    return req.status();
  }
  Metrics().searches.Increment();
  coupling::ShardSearchResponse resp;
  resp.request_id = req->request_id;
  Status result = Status::OK();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    QueryContext ctx;
    if (req->deadline_ms > 0) ctx.SetDeadlineAfterMs(req->deadline_ms);
    QueryContext::Scope scope(&ctx);
    auto plan = collection_->PrepareSearchWithStats(req->query, req->stats);
    if (!plan.ok()) {
      result = plan.status();
    } else {
      auto hits = collection_->SearchShard(*plan, shard_);
      if (!hits.ok()) {
        result = hits.status();
      } else {
        resp.hits = std::move(*hits);
      }
    }
  }
  if (!result.ok()) {
    // Typed answer; the connection stays usable (the router decides
    // whether the error is retriable).
    return SendError(fd, req->request_id, result);
  }
  return net::WriteFrame(fd, net::FrameType::kShardHits,
                         coupling::EncodeShardSearchResponse(resp),
                         options_.io_timeout_ms, options_.max_frame_bytes);
}

Status ShardServer::HandleOps(int fd, const std::string& payload) {
  StatusOr<coupling::ShardOpsBatch> batch =
      coupling::DecodeShardOpsBatch(payload);
  if (!batch.ok()) {
    Metrics().protocol_errors.Increment();
    SendError(fd, 0, batch.status());
    return batch.status();
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const uint64_t floor = collection_->shard_applied_seq(shard_);
    std::vector<irs::DocOp> ops;
    ops.reserve(batch->ops.size());
    for (const coupling::ShardOp& op : batch->ops) {
      // Exactly-once: sequenced ops at or below the floor were already
      // applied (unsequenced ops can't be deduped; their reconciling
      // application converges because Apply keeps the router's order).
      if (op.seq != 0 && op.seq <= floor) {
        Metrics().ops_skipped.Increment();
        continue;
      }
      ops.push_back(coupling::ToDocOp(op));
    }
    // The router's own apply: same ops, same staging, same order, so
    // both doc tables evolve identically; a failure applies nothing.
    Status s = collection_->Apply(ops);
    if (!s.ok()) {
      SendError(fd, 0, s);
      return s;
    }
    Metrics().ops_applied.Add(ops.size());
    collection_->set_shard_applied_seq(shard_, batch->high);
  }
  return SendStatus(fd);
}

Status ShardServer::HandleInstall(int fd, const std::string& payload) {
  StatusOr<coupling::ShardInstall> install =
      coupling::DecodeShardInstall(payload);
  if (!install.ok()) {
    Metrics().protocol_errors.Increment();
    SendError(fd, 0, install.status());
    return install.status();
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    Status s = collection_->InstallShard(shard_, install->index_bytes,
                                         install->applied_seq);
    if (!s.ok()) {
      SendError(fd, 0, s);
      return s;
    }
    Metrics().installs.Increment();
    SDMS_LOG(INFO) << "shard server installed " << collection_name_ << "/"
                   << shard_ << ": " << install->index_bytes.size()
                   << " bytes at seq " << install->applied_seq;
  }
  return SendStatus(fd);
}

}  // namespace sdms::server
