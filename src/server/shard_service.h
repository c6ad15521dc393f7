#ifndef SDMS_SERVER_SHARD_SERVICE_H_
#define SDMS_SERVER_SHARD_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/net/frame.h"
#include "common/status.h"
#include "coupling/shard_protocol.h"
#include "irs/collection.h"

namespace sdms::server {

struct ShardServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral
  /// Wait for the next request on an established connection; a router
  /// holds connections open between queries, so this is generous.
  int idle_timeout_ms = 120000;
  int io_timeout_ms = 5000;
  uint32_t max_frame_bytes = net::kDefaultMaxFrameBytes;
  /// Pin the served identity ("--shard <coll>/<i>"). Empty collection
  /// accepts whatever the first hello declares; a nonempty pin rejects
  /// mismatched hellos with kFailedPrecondition.
  std::string collection;
  int64_t shard = -1;  // -1 = accept any
};

/// The serving tier of a multi-node collection: one process per
/// remote shard (`sdms_server --shard <coll>/<i>`). It holds exactly
/// one shard's InvertedIndex, built entirely from what the router
/// ships — a ShardHello declares the collection configuration, a
/// ShardInstall or replayed ShardOps populate the index, and every
/// ShardSearch carries the router-computed global corpus statistics —
/// so its rankings are bit-identical to the router's own SearchShard.
///
/// The server is deliberately stateless across restarts (no disk): the
/// router is the durability tier, and a restarted shard server simply
/// reports applied_seq 0 in the hello handshake and is caught up by
/// replay or install. Update application is exactly-once: sequenced
/// ops at or below the applied floor are skipped, and the rest go
/// through one IrsCollection::Apply, as the router's own propagation
/// does — whole or not at all, mirroring the propagation journal's
/// recovery semantics.
///
/// Protocol: hello-first. Any frame before ShardHello — including a
/// main-protocol kHello from a v2 client — is answered with a typed
/// kFailedPrecondition error frame, never a parse crash; a version or
/// identity mismatch in the hello likewise.
class ShardServer {
 public:
  explicit ShardServer(ShardServerOptions options);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Binds, listens, and spawns the accept loop.
  Status Start();

  /// The bound port (resolves port-0 binds). Valid after Start().
  uint16_t port() const { return port_; }

  /// Stops accepting, closes every connection, joins all threads.
  void Shutdown();

  // --- Introspection (tests) ---------------------------------------------
  uint64_t applied_seq();
  uint64_t doc_count();
  uint64_t connections_served() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Dispatches one frame; returns false to close the connection.
  bool HandleFrame(int fd, const net::Frame& frame, bool* handshaken);
  Status SendError(int fd, uint64_t request_id, const Status& error);
  Status SendStatus(int fd);
  /// Hello processing under state_mu_: creates or verifies the served
  /// collection, answers ShardStatus.
  Status HandleHello(int fd, const std::string& payload);
  Status HandleSearch(int fd, const std::string& payload);
  Status HandleOps(int fd, const std::string& payload);
  Status HandleInstall(int fd, const std::string& payload);
  coupling::ShardStatusMsg StatusLocked() const;

  const ShardServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> connections_{0};

  std::mutex conns_mu_;
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  std::list<std::unique_ptr<Conn>> conns_;

  /// Serializes all collection access across connections (IrsCollection
  /// is externally synchronized).
  std::mutex state_mu_;
  std::unique_ptr<irs::IrsCollection> collection_;
  std::string collection_name_;
  uint32_t shard_ = 0;
  uint32_t num_shards_ = 1;
  std::string model_name_;
  irs::AnalyzerOptions analyzer_options_;
};

}  // namespace sdms::server

#endif  // SDMS_SERVER_SHARD_SERVICE_H_
