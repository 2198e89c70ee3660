#include "daemon/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "daemon/frame_io.h"
#include "eval/evaluator.h"
#include "obs/json_writer.h"
#include "recovery/fault.h"
#include "service/answer_text.h"
#include "service/edb_recovery.h"
#include "util/string_util.h"

namespace exdl::daemon {

namespace {

/// How often a blocked AWAIT re-checks the client socket for a
/// disconnect. Small enough that abandoned work is reclaimed promptly,
/// large enough that a long evaluation costs a handful of wakeups.
constexpr std::chrono::milliseconds kAwaitPollInterval(25);

void SetRecvTimeout(int fd, uint32_t ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

bool FaultAt(std::string_view site) {
  return FaultPlan::Global().armed() && FaultPlan::Global().ShouldFail(site);
}

}  // namespace

DaemonServer::DaemonServer(DaemonOptions options)
    : options_(std::move(options)),
      service_(options_.service),
      admission_(options_.policy, options_.max_pending) {
  counters_.queue_capacity = options_.max_pending;
}

DaemonServer::~DaemonServer() { Stop(); }

Status DaemonServer::BindUnix() {
  if (options_.socket_path.empty()) {
    return Status::InvalidArgument("daemon socket path is empty");
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof addr.sun_path) {
    return Status::InvalidArgument("socket path too long: " +
                                   options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    if (errno != EADDRINUSE) {
      const int err = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::Internal("bind(" + options_.socket_path +
                              "): " + std::strerror(err));
    }
    // The path exists. A SIGKILLed daemon leaves its socket file behind;
    // probe it — refused means stale, so unlink and claim it. A live
    // daemon answers the connect and keeps the path.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool live =
        probe >= 0 &&
        ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    if (probe >= 0) ::close(probe);
    if (live) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::FailedPrecondition("a daemon is already listening on " +
                                        options_.socket_path);
    }
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      const int err = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::Internal("bind(" + options_.socket_path +
                              ") after unlinking stale socket: " +
                              std::strerror(err));
    }
  }
  return Status::Ok();
}

Status DaemonServer::BindTcp() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.tcp_port);
  if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad TCP listen address: " +
                                   options_.tcp_host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind(" + options_.tcp_host + ":" +
                            std::to_string(options_.tcp_port) +
                            "): " + std::strerror(err));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    bound_tcp_port_ = ntohs(addr.sin_port);
  }
  return Status::Ok();
}

Status DaemonServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("daemon already started");
  }
  if (!options_.durability.data_dir.empty()) {
    // Recover the durable EDB before any socket exists: no client can
    // observe a partially replayed database. Replay goes through the
    // service's normal LoadFacts path (minus re-logging), so the
    // recovered interning state matches the pre-crash daemon's exactly.
    durable_ = std::make_shared<durability::DurableEdb>(options_.durability);
    EXDL_RETURN_IF_ERROR(durable_->Open());
    EXDL_RETURN_IF_ERROR(RecoverDurableEdb(*durable_, service_));
    service_.AttachDurability(durable_);
  }
  EXDL_RETURN_IF_ERROR(options_.use_tcp ? BindTcp() : BindUnix());
  if (::listen(listen_fd_, 64) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("listen(): ") + std::strerror(err));
  }
  if (::pipe2(wake_pipe_, O_NONBLOCK) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("pipe(): ") + std::strerror(errno));
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void DaemonServer::RequestDrain() {
  if (draining_.exchange(true)) return;
  if (wake_pipe_[1] >= 0) {
    const char byte = 'd';
    [[maybe_unused]] ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  }
}

void DaemonServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  RequestDrain();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Grace period: let connections whose queries are finishing disconnect
  // on their own.
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    conn_cv_.wait_for(lock,
                      std::chrono::milliseconds(options_.drain_timeout_ms),
                      [&] { return conn_fds_.empty(); });
    // Force the stragglers: waking their reads sends each connection
    // through the normal reclamation path (cancel + drain + release).
    for (const auto& [id, fd] : conn_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  std::vector<std::pair<std::thread, bool>> threads;
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    conn_cv_.wait(lock, [&] { return conn_fds_.empty(); });
    for (auto& [id, thread] : conn_threads_) {
      const bool counted = std::any_of(
          finished_.begin(), finished_.end(),
          [&, conn = id](const auto& f) { return f.first == conn && f.second; });
      threads.emplace_back(std::move(thread), counted);
    }
    conn_threads_.clear();
    finished_.clear();
  }
  JoinConnections(threads);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  if (!options_.use_tcp && started_.load() && !options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
}

void DaemonServer::JoinFinishedThreads() {
  std::vector<std::pair<std::thread, bool>> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& [id, counted] : finished_) {
      auto it = conn_threads_.find(id);
      if (it != conn_threads_.end()) {
        done.emplace_back(std::move(it->second), counted);
        conn_threads_.erase(it);
      }
    }
    finished_.clear();
  }
  JoinConnections(done);
}

void DaemonServer::JoinConnections(
    std::vector<std::pair<std::thread, bool>>& threads) {
  uint32_t released = 0;
  for (auto& [thread, counted] : threads) {
    if (thread.joinable()) thread.join();
    released += counted ? 1 : 0;
  }
  // Only now has each thread released everything it held (its allocator
  // caches are returned at thread exit), so only now is it inactive.
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.connections_active -= released;
}

void DaemonServer::AcceptLoop() {
  while (!draining()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, 500);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (draining()) break;
    if (fds[1].revents & POLLIN) {
      // A connection ended (see HandleConnection): consume its wake-up.
      char bytes[64];
      [[maybe_unused]] ssize_t ignored =
          ::read(wake_pipe_[0], bytes, sizeof bytes);
    }
    JoinFinishedThreads();
    if (rc == 0 || (fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) continue;
      break;
    }
    if (FaultAt("daemon.accept")) {
      // Injected accept failure: the client sees its connection die at
      // birth (a clean torn-connection signal) and retries.
      ::close(fd);
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections_rejected;
      continue;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    const uint64_t id = next_conn_id_++;
    conn_fds_.emplace(id, fd);
    conn_threads_.emplace(id,
                          std::thread([this, id, fd] {
                            HandleConnection(id, fd);
                          }));
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

Status DaemonServer::ServerReadFrame(int fd, Frame* out, bool* clean_eof) {
  if (FaultAt("daemon.read")) {
    *clean_eof = false;
    return Status::Unavailable("injected fault at daemon.read");
  }
  return ReadFrame(fd, out, clean_eof);
}

Status DaemonServer::ServerWriteFrame(int fd, std::string_view payload) {
  if (FaultAt("daemon.write")) {
    // Simulate a half-written frame: emit a length prefix promising more
    // bytes than will ever come, then fail. The peer must treat the torn
    // frame as a connection loss, never as a short message.
    const char prefix[4] = {0x40, 0, 0, 0};
    [[maybe_unused]] ssize_t ignored =
        ::send(fd, prefix, sizeof prefix, MSG_NOSIGNAL);
    return Status::Unavailable("injected fault at daemon.write");
  }
  return WriteFrame(fd, payload);
}

void DaemonServer::HandleConnection(uint64_t conn_id, int fd) {
  Connection conn;
  conn.id = conn_id;
  conn.fd = fd;
  bool negotiated = false;
  // A peer must finish HELLO within the handshake deadline; afterwards the
  // connection may sit idle indefinitely (disconnects are what end it).
  SetRecvTimeout(fd, options_.hello_timeout_ms);
  Frame frame;
  bool clean_eof = false;
  Status status = ServerReadFrame(fd, &frame, &clean_eof);
  if (status.ok() && frame.type == MsgType::kHello) {
    HelloMsg hello;
    status = Decode(frame.body, &hello);
    if (status.ok() && hello.magic != kProtocolMagic) {
      status = Status::InvalidArgument("bad protocol magic");
    }
    if (status.ok()) {
      const uint32_t version =
          std::min(kProtocolVersionMax, hello.max_version);
      if (version < kProtocolVersionMin || version < hello.min_version) {
        status = Status::FailedPrecondition(
            "no common protocol version (server speaks " +
            std::to_string(kProtocolVersionMin) + ".." +
            std::to_string(kProtocolVersionMax) + ")");
        WriteError(fd, status);
      } else if (draining()) {
        status = Status::Unavailable("server is draining");
        WriteError(fd, status);
      } else {
        SetRecvTimeout(fd, 0);
        conn.tenant = hello.tenant;
        conn.version = version;
        HelloAckMsg ack;
        ack.version = version;
        ack.server = "exdld/1";
        status = ServerWriteFrame(fd, Encode(ack));
        negotiated = status.ok();
      }
    }
  } else if (status.ok()) {
    status = Status::InvalidArgument("expected HELLO");
  }
  if (negotiated) {
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections_accepted;
      ++counters_.connections_active;
    }
    ServeFrames(conn);
    // Whatever ended the loop — clean close, torn frame, injected fault —
    // the connection's undelivered work is cancelled and reclaimed so the
    // next client finds a healthy server.
    ReclaimConnection(conn);
  } else {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.connections_rejected;
  }
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(conn_id);
    finished_.emplace_back(conn_id, negotiated);
  }
  conn_cv_.notify_all();
  // Wake the accept loop to join this thread; connections_active drops
  // once it has.
  const char byte = 'c';
  [[maybe_unused]] ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
}

Status DaemonServer::ServeFrames(Connection& conn) {
  while (true) {
    Frame frame;
    bool clean_eof = false;
    Status status = ServerReadFrame(conn.fd, &frame, &clean_eof);
    if (!status.ok()) {
      return clean_eof ? Status::Ok() : status;
    }
    switch (frame.type) {
      case MsgType::kSubmit:
        status = HandleSubmit(conn, frame.body);
        break;
      case MsgType::kAwait:
        status = HandleAwait(conn, frame.body);
        break;
      case MsgType::kLoadFacts:
        status = HandleLoadFacts(conn, frame.body);
        break;
      case MsgType::kStats:
        status = HandleStats(conn);
        break;
      case MsgType::kCancel:
        status = HandleCancel(conn, frame.body);
        break;
      case MsgType::kShutdown:
        status = HandleShutdown(conn);
        break;
      case MsgType::kRegisterQuery:
      case MsgType::kUnregisterQuery:
      case MsgType::kPollResult: {
        if (conn.version < 2) {
          // Known-but-too-new type on a v1 connection: a protocol error
          // the client caused, not a reason to drop it.
          status = WriteError(
              conn.fd, Status::FailedPrecondition(
                           "standing queries need protocol version 2 "
                           "(connection negotiated 1)"));
          break;
        }
        if (frame.type == MsgType::kRegisterQuery) {
          status = HandleRegisterQuery(conn, frame.body);
        } else if (frame.type == MsgType::kUnregisterQuery) {
          status = HandleUnregisterQuery(conn, frame.body);
        } else {
          status = HandlePollResult(conn, frame.body);
        }
        break;
      }
      default:
        status = WriteError(
            conn.fd,
            Status::InvalidArgument("unexpected message type from client"));
        break;
    }
    if (!status.ok()) return status;
  }
}

Status DaemonServer::WriteError(int fd, const Status& status) {
  ErrorMsg err;
  err.code = static_cast<uint32_t>(status.code());
  err.message = status.message();
  return ServerWriteFrame(fd, Encode(err));
}

std::optional<QueryRequest> DaemonServer::AdmitRequest(
    Connection& conn, SubmitMsg submit, std::string_view fault_site,
    Status* written) {
  if (draining()) {
    *written = WriteError(conn.fd, Status::Unavailable("server is draining"));
    return std::nullopt;
  }
  if (!fault_site.empty() && FaultAt(fault_site)) {
    *written = WriteError(
        conn.fd,
        Status::Unavailable(StrCat("injected fault at ", fault_site)));
    return std::nullopt;
  }
  AdmissionController::Decision decision = admission_.TryAdmit(
      conn.tenant, submit.deadline_ms, submit.max_tuples, submit.max_bytes);
  if (!decision.admitted) {
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.backpressure_events;
    }
    RetryLaterMsg retry;
    retry.backoff_ms = decision.retry_after_ms;
    retry.reason = decision.reason;
    *written = ServerWriteFrame(conn.fd, Encode(retry));
    return std::nullopt;
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.submits_admitted;
    counters_.queue_depth = admission_.inflight();
  }
  EvalBudget budget;
  budget.deadline_ms = decision.effective.deadline_ms;
  budget.max_tuples = decision.effective.max_tuples;
  budget.max_arena_bytes = decision.effective.max_bytes;
  return QueryRequest{.source = std::move(submit.source),
                      .name = std::move(submit.name),
                      .budget = budget};
}

void DaemonServer::ReleaseSlot(const Connection& conn) {
  admission_.Release(conn.tenant);
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.queue_depth = admission_.inflight();
}

Status DaemonServer::HandleSubmit(Connection& conn, std::string_view body) {
  SubmitMsg submit;
  Status decoded = Decode(body, &submit);
  if (!decoded.ok()) return decoded;  // Protocol violation: drop the peer.
  Status written;
  std::optional<QueryRequest> request =
      AdmitRequest(conn, std::move(submit), "daemon.dispatch", &written);
  if (!request.has_value()) return written;
  // The connection owns the token: abandoning or cancelling the ticket
  // cancels the evaluation through its budget.
  auto token = std::make_shared<CancellationToken>();
  request->budget->cancellation = token.get();
  TicketMsg reply;
  reply.deadline_ms = request->budget->deadline_ms;
  reply.max_tuples = request->budget->max_tuples;
  reply.max_bytes = request->budget->max_arena_bytes;
  reply.ticket = service_.Submit(std::move(*request));
  conn.inflight.emplace(reply.ticket, std::move(token));
  return ServerWriteFrame(conn.fd, Encode(reply));
}

Status DaemonServer::HandleAwait(Connection& conn, std::string_view body) {
  AwaitMsg await;
  Status decoded = Decode(body, &await);
  if (!decoded.ok()) return decoded;
  if (conn.inflight.find(await.ticket) == conn.inflight.end()) {
    return WriteError(conn.fd, Status::NotFound(
                                   "ticket " + std::to_string(await.ticket) +
                                   " is not in flight on this connection"));
  }
  std::optional<QueryResponse> response;
  while (true) {
    response = service_.AwaitFor(await.ticket, kAwaitPollInterval);
    if (response.has_value()) break;
    if (PeerClosed(conn.fd)) {
      // The client vanished mid-await. Surface it as a connection loss;
      // HandleConnection's reclamation cancels the abandoned query.
      return Status::Unavailable("client disconnected mid-await");
    }
  }
  conn.inflight.erase(await.ticket);
  ReleaseSlot(conn);
  ResultMsg result;
  result.ticket = await.ticket;
  result.status_code = static_cast<uint32_t>(response->status.code());
  result.status_message = response->status.message();
  if (response->status.ok()) {
    result.termination_code =
        static_cast<uint32_t>(response->result.termination.code());
    result.termination_message = response->result.termination.message();
    result.budget_kind =
        std::string(BudgetKindName(response->result.stats.budget_tripped));
    result.stats_text = response->result.stats.ToString();
    result.answer_count = response->result.answers.size();
    result.answers = RenderAnswerRows(*service_.ctx(), response->result.answers);
    result.cache_hit = response->cache_hit ? 1 : 0;
  }
  return ServerWriteFrame(conn.fd, Encode(result));
}

Status DaemonServer::HandleLoadFacts(Connection& conn, std::string_view body) {
  LoadFactsMsg msg;
  Status decoded = Decode(body, &msg);
  if (!decoded.ok()) return decoded;
  if (draining()) {
    return WriteError(conn.fd, Status::Unavailable("server is draining"));
  }
  if (options_.max_facts_bytes != 0 &&
      msg.source.size() > options_.max_facts_bytes) {
    return WriteError(
        conn.fd,
        Status::ResourceExhausted(
            "LOAD_FACTS source of " + std::to_string(msg.source.size()) +
            " bytes exceeds the server's --max-facts-bytes quota (" +
            std::to_string(options_.max_facts_bytes) + ")"));
  }
  Status loaded = service_.LoadFacts(msg.source);
  if (loaded.ok()) {
    return ServerWriteFrame(conn.fd, EncodeEmpty(MsgType::kOk));
  }
  return WriteError(conn.fd, loaded);
}

Status DaemonServer::HandleCancel(Connection& conn, std::string_view body) {
  CancelMsg msg;
  Status decoded = Decode(body, &msg);
  if (!decoded.ok()) return decoded;
  const auto it = conn.inflight.find(msg.ticket);
  if (it == conn.inflight.end()) {
    return WriteError(conn.fd, Status::NotFound(
                                   "ticket " + std::to_string(msg.ticket) +
                                   " is not in flight on this connection"));
  }
  it->second->Cancel();
  // The ticket stays in flight: the client may still AWAIT it for the
  // consistent partial result (termination = Cancelled).
  return ServerWriteFrame(conn.fd, EncodeEmpty(MsgType::kOk));
}

Status DaemonServer::HandleRegisterQuery(Connection& conn,
                                         std::string_view body) {
  RegisterQueryMsg msg;
  Status decoded = Decode(body, &msg);
  if (!decoded.ok()) return decoded;  // Protocol violation: drop the peer.
  // The seeding evaluation is a full query: it takes an admission slot
  // under the tenant's quota like any SUBMIT, held for the (synchronous)
  // registration. Maintenance afterwards is server-internal and not
  // admission-controlled.
  Status written;
  std::optional<QueryRequest> request =
      AdmitRequest(conn, std::move(msg.submit), /*fault_site=*/"", &written);
  if (!request.has_value()) return written;
  Result<uint64_t> registered =
      service_.RegisterStandingQuery(std::move(*request));
  ReleaseSlot(conn);
  if (!registered.ok()) return WriteError(conn.fd, registered.status());
  Result<StandingQueryResult> seeded = service_.PollStandingQuery(*registered);
  RegisteredMsg reply;
  reply.standing_id = *registered;
  if (seeded.ok()) {
    reply.generation = seeded->generation;
    reply.answer_count = seeded->answer_count;
    reply.answers = std::move(seeded->answers);
  }
  return ServerWriteFrame(conn.fd, Encode(reply));
}

Status DaemonServer::HandleUnregisterQuery(Connection& conn,
                                           std::string_view body) {
  UnregisterQueryMsg msg;
  Status decoded = Decode(body, &msg);
  if (!decoded.ok()) return decoded;
  Status unregistered = service_.UnregisterStandingQuery(msg.standing_id);
  if (unregistered.ok()) {
    return ServerWriteFrame(conn.fd, EncodeEmpty(MsgType::kOk));
  }
  return WriteError(conn.fd, unregistered);
}

Status DaemonServer::HandlePollResult(Connection& conn,
                                      std::string_view body) {
  PollResultMsg msg;
  Status decoded = Decode(body, &msg);
  if (!decoded.ok()) return decoded;
  Result<StandingQueryResult> polled =
      service_.PollStandingQuery(msg.standing_id);
  if (!polled.ok()) return WriteError(conn.fd, polled.status());
  StandingResultMsg reply;
  reply.standing_id = polled->standing_id;
  reply.generation = polled->generation;
  reply.answer_count = polled->answer_count;
  reply.answers = std::move(polled->answers);
  reply.incremental = polled->last_was_incremental ? 1 : 0;
  reply.fallback = std::string(ivm::FallbackName(polled->fallback));
  reply.delta_rounds = polled->stats.delta_rounds;
  reply.full_recomputes = polled->stats.full_recomputes;
  reply.tuples_rederived = polled->stats.tuples_rederived;
  return ServerWriteFrame(conn.fd, Encode(reply));
}

Status DaemonServer::HandleStats(Connection& conn) {
  StatsReplyMsg reply;
  reply.json = MetricsJson();
  return ServerWriteFrame(conn.fd, Encode(reply));
}

Status DaemonServer::HandleShutdown(Connection& conn) {
  Status acked = ServerWriteFrame(conn.fd, EncodeEmpty(MsgType::kOk));
  RequestDrain();
  if (options_.shutdown_notify_fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t ignored =
        ::write(options_.shutdown_notify_fd, &byte, 1);
  }
  return acked;
}

void DaemonServer::ReclaimConnection(Connection& conn) {
  if (conn.inflight.empty()) return;
  for (auto& [ticket, token] : conn.inflight) {
    token->Cancel();
  }
  uint64_t cancelled = 0;
  for (auto& [ticket, token] : conn.inflight) {
    // The cancel lands at the evaluator's next cooperative check, so this
    // blocks only briefly; the response must be drained here or the
    // service's done-map would leak the session's result forever.
    QueryResponse response = service_.Await(ticket);
    if (response.status.ok() &&
        response.result.termination.code() == StatusCode::kCancelled) {
      ++cancelled;
    }
    ReleaseSlot(conn);
  }
  conn.inflight.clear();
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.cancelled_on_disconnect += cancelled;
}

DaemonCounters DaemonServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

std::string DaemonServer::MetricsJson() const {
  const DaemonCounters counters = this->counters();
  return service_.MetricsJson([&](obs::JsonWriter& w) {
    w.Key("daemon");
    w.BeginObject();
    w.Key("connections");
    w.BeginObject();
    w.Key("accepted");
    w.UInt(counters.connections_accepted);
    w.Key("active");
    w.UInt(counters.connections_active);
    w.Key("rejected");
    w.UInt(counters.connections_rejected);
    w.EndObject();
    w.Key("queue");
    w.BeginObject();
    w.Key("depth");
    w.UInt(counters.queue_depth);
    w.Key("capacity");
    w.UInt(counters.queue_capacity);
    w.EndObject();
    w.Key("submits_admitted");
    w.UInt(counters.submits_admitted);
    w.Key("backpressure_events");
    w.UInt(counters.backpressure_events);
    w.Key("cancelled_on_disconnect");
    w.UInt(counters.cancelled_on_disconnect);
    if (durable_ != nullptr) {
      const durability::DurabilityCounters d = durable_->counters();
      w.Key("durability");
      w.BeginObject();
      w.Key("records_appended");
      w.UInt(d.records_appended);
      w.Key("records_replayed");
      w.UInt(d.records_replayed);
      w.Key("truncated_tail_bytes");
      w.UInt(d.truncated_tail_bytes);
      w.Key("compactions");
      w.UInt(d.compactions);
      w.Key("snapshot_generation");
      w.UInt(d.snapshot_generation);
      w.Key("recovery_seconds");
      w.Double(d.recovery_seconds);
      w.EndObject();
    }
    w.EndObject();
  });
}

}  // namespace exdl::daemon
