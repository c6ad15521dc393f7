#include "server/session.h"

#include <utility>

#include "common/fault/fault.h"
#include "common/net/socket.h"
#include "common/obs/log.h"
#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "coupling/admission.h"
#include "coupling/coupling.h"

namespace sdms::server {

namespace {

struct SessionMetrics {
  obs::Counter& queries = obs::GetCounter("server.queries");
  obs::Counter& queries_ok = obs::GetCounter("server.queries_ok");
  obs::Counter& queries_error = obs::GetCounter("server.queries_error");
  obs::Counter& queries_shed = obs::GetCounter("server.queries_shed");
  obs::Counter& queries_cancelled =
      obs::GetCounter("server.queries_cancelled");
  obs::Counter& protocol_errors = obs::GetCounter("server.protocol_errors");
  obs::Counter& idle_drops = obs::GetCounter("server.idle_drops");
  obs::Counter& slow_client_drops =
      obs::GetCounter("server.slow_client_drops");
  obs::Histogram& latency =
      obs::GetHistogram("server.query_micros");
};

SessionMetrics& Metrics() {
  static SessionMetrics* m = new SessionMetrics();
  return *m;
}

/// Reader-loop poll tick: bounds how long stop/drain notices wait.
constexpr int kPollTickMs = 50;

}  // namespace

Session::Session(int fd, uint64_t id, Host host)
    : fd_(fd), id_(id), host_(host) {}

Session::~Session() {
  Join();
  net::CloseFd(fd_);
}

void Session::Start() {
  reader_ = std::thread([this] { ReaderLoop(); });
}

void Session::RequestStop() {
  stop_.store(true, std::memory_order_release);
  CancelInFlight();
  // Wakes a reader blocked in poll; the fd stays open (owned by the
  // destructor) so late writers fail with a Status, not EBADF reuse.
  net::ShutdownFd(fd_);
}

void Session::CancelInFlight() {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  if (inflight_ != nullptr && !inflight_->done.load()) {
    inflight_->ctx.RequestCancel();
  }
}

bool Session::busy() {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return inflight_ != nullptr && !inflight_->done.load();
}

void Session::Join() {
  if (reader_.joinable()) reader_.join();
  std::lock_guard<std::mutex> lock(inflight_mu_);
  if (inflight_ != nullptr && inflight_->worker.joinable()) {
    inflight_->worker.join();
  }
}

bool Session::ReapInFlight(bool force_join) {
  std::unique_ptr<InFlight> reaped;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (inflight_ == nullptr) return true;
    if (!inflight_->done.load(std::memory_order_acquire) && !force_join) {
      return false;
    }
    reaped = std::move(inflight_);
  }
  if (reaped->worker.joinable()) reaped->worker.join();
  return true;
}

Status Session::SendFrame(net::FrameType type, std::string_view payload) {
  std::lock_guard<std::mutex> lock(write_mu_);
  Status s = net::WriteFrame(fd_, type, payload, host_.options->io_timeout_ms,
                             host_.options->max_frame_bytes);
  if (s.IsDeadlineExceeded()) {
    // The slow-client bound fired: this peer cannot keep its write
    // buffer draining, so the session ends rather than queueing
    // unbounded output behind it.
    Metrics().slow_client_drops.Increment();
    stop_.store(true, std::memory_order_release);
  }
  return s;
}

void Session::SendError(uint64_t request_id, const Status& status,
                        coupling::ShedCause shed_cause) {
  ErrorResponse err;
  err.request_id = request_id;
  err.code = status.code();
  err.message = status.message();
  err.shed_cause = shed_cause;
  // Best effort: the peer may already be gone; RequestStop/close
  // handles the rest.
  SendFrame(net::FrameType::kError, EncodeErrorResponse(err)).ok();
}

void Session::ReaderLoop() {
  SDMS_LOG(DEBUG) << "[session " << id_ << "] start";
  int idle_ms = 0;
  bool close_now = false;
  while (!close_now && !stop_.load(std::memory_order_acquire)) {
    // Drain notice: tell the client once that no new requests will be
    // accepted, but keep serving the in-flight one and keep the
    // connection readable (the client may still cancel).
    if (!said_goodbye_ && host_.draining->load(std::memory_order_acquire)) {
      said_goodbye_ = true;
      SendFrame(net::FrameType::kGoodbye, "");
    }
    Status readable = net::WaitReadable(fd_, kPollTickMs);
    if (readable.IsDeadlineExceeded()) {
      idle_ms += kPollTickMs;
      if (idle_ms >= host_.options->idle_timeout_ms && !busy()) {
        Metrics().idle_drops.Increment();
        SendError(0, Status::DeadlineExceeded("idle timeout"));
        break;
      }
      continue;
    }
    if (!readable.ok()) break;
    idle_ms = 0;
    StatusOr<net::Frame> frame =
        net::ReadFrame(fd_, host_.options->io_timeout_ms,
                       host_.options->io_timeout_ms,
                       host_.options->max_frame_bytes);
    if (!frame.ok()) {
      if (net::IsConnClosed(frame.status())) break;  // clean EOF
      // Truncated, oversized, unknown-typed or otherwise garbage
      // input: answer a typed protocol error where possible, then
      // close. Never crash.
      Metrics().protocol_errors.Increment();
      SDMS_LOG(DEBUG) << "[session " << id_
                      << "] protocol error: " << frame.status().ToString();
      if (frame.status().IsInvalidArgument()) {
        SendError(0, frame.status());
      }
      break;
    }
    close_now = !HandleFrame(*frame);
  }
  // The peer is gone (or the session is closing): a still-running
  // query must not keep burning a slot for a client that cannot
  // receive the answer.
  CancelInFlight();
  ReapInFlight(/*force_join=*/true);
  net::ShutdownFd(fd_);
  finished_.store(true, std::memory_order_release);
  SDMS_LOG(DEBUG) << "[session " << id_ << "] end";
}

bool Session::HandleFrame(const net::Frame& frame) {
  if (!handshaken_) {
    if (frame.type != net::FrameType::kHello) {
      Metrics().protocol_errors.Increment();
      SendError(0, Status::FailedPrecondition(
                       "expected hello, got " +
                       std::string(net::FrameTypeName(frame.type))));
      return false;
    }
    StatusOr<Hello> hello = DecodeHello(frame.payload);
    if (!hello.ok()) {
      Metrics().protocol_errors.Increment();
      SendError(0, hello.status());
      return false;
    }
    if (hello->protocol_version != kProtocolVersion) {
      SendError(0, Status::FailedPrecondition(
                       "protocol version mismatch: server speaks " +
                       std::to_string(kProtocolVersion) + ", client sent " +
                       std::to_string(hello->protocol_version)));
      return false;
    }
    handshaken_ = true;
    Hello reply;
    reply.peer = "sdms_server";
    return SendFrame(net::FrameType::kHello, EncodeHello(reply)).ok();
  }
  switch (frame.type) {
    case net::FrameType::kQuery:
      return HandleQuery(frame.payload);
    case net::FrameType::kCancel:
      return HandleCancel(frame.payload);
    case net::FrameType::kPing:
      return SendFrame(net::FrameType::kPong, frame.payload).ok();
    case net::FrameType::kGoodbye:
      return false;  // client-initiated close
    case net::FrameType::kHello:
      Metrics().protocol_errors.Increment();
      SendError(0, Status::FailedPrecondition("duplicate hello"));
      return false;
    default:
      // kResult/kError/kPong are server->client only.
      Metrics().protocol_errors.Increment();
      SendError(0, Status::InvalidArgument(
                       std::string("unexpected frame type ") +
                       net::FrameTypeName(frame.type)));
      return false;
  }
}

bool Session::HandleQuery(const std::string& payload) {
  StatusOr<QueryRequest> req = DecodeQueryRequest(payload);
  if (!req.ok()) {
    Metrics().protocol_errors.Increment();
    SendError(0, req.status());
    return false;
  }
  if (host_.draining->load(std::memory_order_acquire)) {
    Metrics().queries_shed.Increment();
    SendError(req->request_id,
              Status::ResourceExhausted("server draining, no new queries"),
              coupling::ShedCause::kDraining);
    return true;  // the connection stays usable for the in-flight query
  }
  if (!ReapInFlight(/*force_join=*/false)) {
    SendError(req->request_id,
              Status::FailedPrecondition(
                  "a query is already in flight on this connection"));
    return true;
  }
  auto in_flight = std::make_unique<InFlight>();
  InFlight* raw = in_flight.get();
  raw->request_id = req->request_id;
  if (req->deadline_ms > 0) raw->ctx.SetDeadlineAfterMs(req->deadline_ms);
  if (req->max_rows > 0) raw->ctx.set_max_rows(req->max_rows);
  // The wire form of EXPLAIN ANALYZE: attach a profile up front (the
  // same pattern the shell uses) so the evaluator fills it even when
  // global profiling is off, and ToWire ships it as JSON.
  if (req->want_profile) {
    raw->ctx.set_profile(
        std::make_shared<obs::QueryProfile>(raw->ctx.query_id()));
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_ = std::move(in_flight);
  }
  raw->worker = std::thread(
      [this, raw, request = std::move(*req)]() mutable {
        RunQuery(std::move(request), raw);
      });
  return true;
}

bool Session::HandleCancel(const std::string& payload) {
  StatusOr<CancelRequest> cancel = DecodeCancelRequest(payload);
  if (!cancel.ok()) {
    Metrics().protocol_errors.Increment();
    SendError(0, cancel.status());
    return false;
  }
  std::lock_guard<std::mutex> lock(inflight_mu_);
  if (inflight_ != nullptr && !inflight_->done.load() &&
      inflight_->request_id == cancel->request_id) {
    SDMS_LOG(DEBUG) << "[session " << id_ << "] cancel request "
                    << cancel->request_id;
    inflight_->ctx.RequestCancel();
  }
  // Cancelling an unknown/finished request is a no-op, not an error:
  // the cancel raced the response.
  return true;
}

void Session::RunQuery(QueryRequest req, InFlight* in_flight) {
  Metrics().queries.Increment();
  const int64_t start = QueryContext::NowMicros();
  QueryContext::Scope scope(&in_flight->ctx);

  // `done` must be set BEFORE the final frame goes out: the client may
  // send its next query the instant it has the response, and the
  // reader must then see this request as reapable (ReapInFlight joins
  // the worker, so the send still completes before the slot is
  // reused). A sticky guard covers every exit path.
  struct DoneGuard {
    InFlight* in_flight;
    int64_t start;
    void Arm() {
      if (armed) return;
      armed = true;
      Metrics().latency.Record(
          static_cast<double>(QueryContext::NowMicros() - start));
      in_flight->done.store(true, std::memory_order_release);
    }
    ~DoneGuard() { Arm(); }
    bool armed = false;
  } done_guard{in_flight, start};
  auto finish = [&done_guard] { done_guard.Arm(); };

  // Admission runs *before* the exec mutex: under overload the typed
  // shed answer (RESOURCE_EXHAUSTED + cause) must not wait for the
  // queries ahead of it to finish.
  coupling::ShedCause shed_cause = coupling::ShedCause::kNone;
  StatusOr<coupling::AdmissionController::Ticket> ticket =
      host_.coupling->admission().Admit(&in_flight->ctx, &shed_cause);
  Status result_status;
  if (!ticket.ok()) {
    result_status = ticket.status();
    if (result_status.IsResourceExhausted()) {
      Metrics().queries_shed.Increment();
    }
    finish();
    SendError(req.request_id, result_status, shed_cause);
  } else {
    // Fault point for tests/CI: holds the admission slot (latency) or
    // fails the dispatch (io_error) after admission, before execution.
    Status fault = fault::InjectFault("server.dispatch");
    if (!fault.ok()) {
      finish();
      SendError(req.request_id, fault);
    } else {
      coupling::MixedQueryEvaluator eval(host_.coupling);
      StatusOr<oodb::vql::QueryResult> result = [&] {
        // The QueryEngine is externally synchronized; every session
        // funnels execution through the server's exec mutex. The
        // admission ticket (concurrency/queue accounting) is adopted
        // by Run and released when it finishes.
        std::lock_guard<std::mutex> exec_lock(*host_.exec_mu);
        return eval.Run(req.vql,
                        req.strategy == 1
                            ? coupling::MixedQueryEvaluator::Strategy::kIrsFirst
                            : coupling::MixedQueryEvaluator::Strategy::
                                  kIndependent,
                        &*ticket);
      }();
      if (!result.ok()) {
        result_status = result.status();
        if (result_status.IsCancelled()) {
          Metrics().queries_cancelled.Increment();
        } else {
          Metrics().queries_error.Increment();
        }
        finish();
        SendError(req.request_id, result_status);
      } else {
        QueryResponse resp;
        resp.request_id = req.request_id;
        resp.result = std::move(*result);
        resp.info = ToWire(eval.last_run(), req.want_profile);
        std::string payload = EncodeQueryResponse(resp);
        // The byte budget is the client's max_result_bytes, never more
        // than one result frame carries (the cap counts the type byte).
        const uint64_t frame_budget = host_.options->max_frame_bytes - 1;
        const bool client_budget = req.max_result_bytes > 0 &&
                                   req.max_result_bytes < frame_budget;
        const uint64_t budget =
            client_budget ? req.max_result_bytes : frame_budget;
        if (payload.size() > budget) {
          Metrics().queries_error.Increment();
          finish();
          SendError(req.request_id,
                    Status::ResourceExhausted(
                        "result (" + std::to_string(payload.size()) +
                        " bytes) exceeds " +
                        (client_budget ? "max_result_bytes" : "the frame cap") +
                        " (" + std::to_string(budget) +
                        " bytes); lower max_rows"));
        } else {
          Metrics().queries_ok.Increment();
          finish();
          SendFrame(net::FrameType::kResult, payload);
        }
      }
    }
  }
}

}  // namespace sdms::server
