#include "daemon/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "daemon/frame_io.h"
#include "util/rng.h"

namespace exdl::daemon {

namespace {

Status ConnectFd(const Endpoint& endpoint, int* out_fd) {
  int fd = -1;
  if (endpoint.use_tcp) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Internal(std::string("socket(): ") +
                              std::strerror(errno));
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint.tcp_port);
    if (::inet_pton(AF_INET, endpoint.tcp_host.c_str(), &addr.sin_addr) !=
        1) {
      ::close(fd);
      return Status::InvalidArgument("bad daemon address: " +
                                     endpoint.tcp_host);
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      const int err = errno;
      ::close(fd);
      return Status::Unavailable("cannot connect to exdld at " +
                                 endpoint.tcp_host + ":" +
                                 std::to_string(endpoint.tcp_port) + ": " +
                                 std::strerror(err));
    }
  } else {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Internal(std::string("socket(): ") +
                              std::strerror(errno));
    }
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (endpoint.socket_path.size() >= sizeof addr.sun_path) {
      ::close(fd);
      return Status::InvalidArgument("socket path too long: " +
                                     endpoint.socket_path);
    }
    std::strncpy(addr.sun_path, endpoint.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      const int err = errno;
      ::close(fd);
      return Status::Unavailable("cannot connect to exdld at " +
                                 endpoint.socket_path + ": " +
                                 std::strerror(err));
    }
  }
  *out_fd = fd;
  return Status::Ok();
}

/// Maps a server ERROR frame to a Status.
Status ErrorToStatus(const ErrorMsg& err) {
  return StatusFromWire(err.code, err.message);
}

}  // namespace

Status DaemonClient::Connect(const Endpoint& endpoint,
                             const std::string& tenant) {
  Close();
  EXDL_RETURN_IF_ERROR(ConnectFd(endpoint, &fd_));
  HelloMsg hello;
  hello.tenant = tenant;
  Frame reply;
  Status rt = RoundTrip(Encode(hello), &reply);
  if (!rt.ok()) {
    Close();
    return rt;
  }
  if (reply.type == MsgType::kError) {
    ErrorMsg err;
    Status decoded = Decode(reply.body, &err);
    Close();
    return decoded.ok() ? ErrorToStatus(err) : decoded;
  }
  if (reply.type != MsgType::kHelloAck) {
    Close();
    return Status::InvalidArgument("expected HELLO_ACK from server");
  }
  HelloAckMsg ack;
  Status decoded = Decode(reply.body, &ack);
  if (!decoded.ok()) {
    Close();
    return decoded;
  }
  version_ = ack.version;
  return Status::Ok();
}

void DaemonClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  version_ = 0;
}

Status DaemonClient::RoundTrip(const std::string& payload, Frame* reply) {
  if (fd_ < 0) return Status::Unavailable("not connected");
  EXDL_RETURN_IF_ERROR(WriteFrame(fd_, payload));
  bool clean_eof = false;
  Status status = ReadFrame(fd_, reply, &clean_eof);
  if (!status.ok() && clean_eof) {
    // The server closed instead of replying — torn from the client's
    // point of view (e.g. drain raced our request).
    return Status::Unavailable("connection closed by server");
  }
  return status;
}

Status DaemonClient::Submit(const SubmitMsg& submit, bool* admitted,
                            TicketMsg* ticket, RetryLaterMsg* retry,
                            ErrorMsg* error) {
  *admitted = false;
  Frame reply;
  EXDL_RETURN_IF_ERROR(RoundTrip(Encode(submit), &reply));
  switch (reply.type) {
    case MsgType::kTicket: {
      EXDL_RETURN_IF_ERROR(Decode(reply.body, ticket));
      *admitted = true;
      return Status::Ok();
    }
    case MsgType::kRetryLater:
      return Decode(reply.body, retry);
    case MsgType::kError:
      return Decode(reply.body, error);
    default:
      return Status::InvalidArgument("unexpected reply to SUBMIT");
  }
}

Status DaemonClient::Await(uint64_t ticket, ResultMsg* out) {
  AwaitMsg msg;
  msg.ticket = ticket;
  Frame reply;
  EXDL_RETURN_IF_ERROR(RoundTrip(Encode(msg), &reply));
  if (reply.type == MsgType::kError) {
    ErrorMsg err;
    EXDL_RETURN_IF_ERROR(Decode(reply.body, &err));
    return ErrorToStatus(err);
  }
  if (reply.type != MsgType::kResult) {
    return Status::InvalidArgument("unexpected reply to AWAIT");
  }
  return Decode(reply.body, out);
}

Status DaemonClient::RegisterQuery(const SubmitMsg& submit,
                                   RegisteredMsg* out) {
  if (version_ < 2) {
    return Status::FailedPrecondition(
        "server negotiated protocol version " + std::to_string(version_) +
        "; standing queries need version 2");
  }
  RegisterQueryMsg msg;
  msg.submit = submit;
  Frame reply;
  EXDL_RETURN_IF_ERROR(RoundTrip(Encode(msg), &reply));
  if (reply.type == MsgType::kRetryLater) {
    RetryLaterMsg retry;
    EXDL_RETURN_IF_ERROR(Decode(reply.body, &retry));
    return Status::Unavailable("server overloaded, retry in " +
                               std::to_string(retry.backoff_ms) + "ms: " +
                               retry.reason);
  }
  if (reply.type == MsgType::kError) {
    ErrorMsg err;
    EXDL_RETURN_IF_ERROR(Decode(reply.body, &err));
    return ErrorToStatus(err);
  }
  if (reply.type != MsgType::kRegistered) {
    return Status::InvalidArgument("unexpected reply to REGISTER_QUERY");
  }
  return Decode(reply.body, out);
}

Status DaemonClient::UnregisterQuery(uint64_t standing_id) {
  if (version_ < 2) {
    return Status::FailedPrecondition(
        "server negotiated protocol version " + std::to_string(version_) +
        "; standing queries need version 2");
  }
  UnregisterQueryMsg msg;
  msg.standing_id = standing_id;
  Frame reply;
  EXDL_RETURN_IF_ERROR(RoundTrip(Encode(msg), &reply));
  if (reply.type == MsgType::kOk) return Status::Ok();
  if (reply.type == MsgType::kError) {
    ErrorMsg err;
    EXDL_RETURN_IF_ERROR(Decode(reply.body, &err));
    return ErrorToStatus(err);
  }
  return Status::InvalidArgument("unexpected reply to UNREGISTER_QUERY");
}

Status DaemonClient::PollResult(uint64_t standing_id,
                                StandingResultMsg* out) {
  if (version_ < 2) {
    return Status::FailedPrecondition(
        "server negotiated protocol version " + std::to_string(version_) +
        "; standing queries need version 2");
  }
  PollResultMsg msg;
  msg.standing_id = standing_id;
  Frame reply;
  EXDL_RETURN_IF_ERROR(RoundTrip(Encode(msg), &reply));
  if (reply.type == MsgType::kError) {
    ErrorMsg err;
    EXDL_RETURN_IF_ERROR(Decode(reply.body, &err));
    return ErrorToStatus(err);
  }
  if (reply.type != MsgType::kStandingResult) {
    return Status::InvalidArgument("unexpected reply to POLL_RESULT");
  }
  return Decode(reply.body, out);
}

Status DaemonClient::LoadFacts(const std::string& source) {
  LoadFactsMsg msg;
  msg.source = source;
  Frame reply;
  EXDL_RETURN_IF_ERROR(RoundTrip(Encode(msg), &reply));
  if (reply.type == MsgType::kOk) return Status::Ok();
  if (reply.type == MsgType::kError) {
    ErrorMsg err;
    EXDL_RETURN_IF_ERROR(Decode(reply.body, &err));
    return ErrorToStatus(err);
  }
  return Status::InvalidArgument("unexpected reply to LOAD_FACTS");
}

Status DaemonClient::Stats(std::string* json) {
  Frame reply;
  EXDL_RETURN_IF_ERROR(RoundTrip(EncodeEmpty(MsgType::kStats), &reply));
  if (reply.type != MsgType::kStatsReply) {
    return Status::InvalidArgument("unexpected reply to STATS");
  }
  StatsReplyMsg msg;
  EXDL_RETURN_IF_ERROR(Decode(reply.body, &msg));
  *json = std::move(msg.json);
  return Status::Ok();
}

Status DaemonClient::Cancel(uint64_t ticket) {
  CancelMsg msg;
  msg.ticket = ticket;
  Frame reply;
  EXDL_RETURN_IF_ERROR(RoundTrip(Encode(msg), &reply));
  if (reply.type == MsgType::kOk) return Status::Ok();
  if (reply.type == MsgType::kError) {
    ErrorMsg err;
    EXDL_RETURN_IF_ERROR(Decode(reply.body, &err));
    return ErrorToStatus(err);
  }
  return Status::InvalidArgument("unexpected reply to CANCEL");
}

Status DaemonClient::Shutdown() {
  Frame reply;
  EXDL_RETURN_IF_ERROR(RoundTrip(EncodeEmpty(MsgType::kShutdown), &reply));
  if (reply.type == MsgType::kOk) return Status::Ok();
  return Status::InvalidArgument("unexpected reply to SHUTDOWN");
}

namespace {

void SleepMs(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Client backoff: the larger of the server suggestion and the client's
/// exponential base, plus up to 50% jitter so a herd of retrying clients
/// spreads out.
uint64_t BackoffMs(uint32_t suggested, uint32_t base_ms, uint32_t attempt,
                   Rng& rng) {
  const uint32_t shift = attempt < 6 ? attempt : 6;
  uint64_t wait = std::max<uint64_t>(suggested,
                                     static_cast<uint64_t>(base_ms) << shift);
  wait += rng.Below(wait / 2 + 1);
  return wait;
}

/// One full pass over the batch on a fresh connection. A non-OK status
/// with code kUnavailable means "torn — reconnect and rerun"; any other
/// failure is terminal.
Status RunBatchOnce(const Endpoint& endpoint,
                    const std::vector<BatchQuery>& queries,
                    const BatchOptions& options, Rng& rng,
                    BatchResult* result) {
  DaemonClient client;
  EXDL_RETURN_IF_ERROR(client.Connect(endpoint, options.tenant));
  if (!options.facts_source.empty()) {
    EXDL_RETURN_IF_ERROR(client.LoadFacts(options.facts_source));
  }
  result->queries.clear();
  for (const BatchQuery& query : queries) {
    SubmitMsg submit;
    submit.name = query.name;
    submit.source = query.source;
    submit.deadline_ms = options.deadline_ms;
    submit.max_tuples = options.max_tuples;
    submit.max_bytes = options.max_bytes;
    TicketMsg ticket;
    uint32_t attempt = 0;
    while (true) {
      bool admitted = false;
      RetryLaterMsg retry;
      ErrorMsg error;
      EXDL_RETURN_IF_ERROR(
          client.Submit(submit, &admitted, &ticket, &retry, &error));
      if (admitted) break;
      if (!error.message.empty() || error.code != 0) {
        return ErrorToStatus(error);
      }
      // Backpressure. The rejection happened before any server-side
      // interning, so resubmitting preserves determinism.
      if (attempt >= options.max_retries) {
        return Status::Unavailable(
            "server still overloaded after " +
            std::to_string(options.max_retries) + " retries: " +
            retry.reason);
      }
      ++result->backpressure_waits;
      SleepMs(BackoffMs(retry.backoff_ms, options.retry_base_ms, attempt,
                        rng));
      ++attempt;
    }
    BatchQueryResult query_result;
    query_result.name = query.name;
    EXDL_RETURN_IF_ERROR(client.Await(ticket.ticket, &query_result.result));
    result->queries.push_back(std::move(query_result));
  }
  return Status::Ok();
}

}  // namespace

Result<BatchResult> RunBatch(const Endpoint& endpoint,
                             const std::vector<BatchQuery>& queries,
                             const BatchOptions& options) {
  Rng rng(options.seed);
  BatchResult result;
  uint32_t reconnect = 0;
  while (true) {
    Status status = RunBatchOnce(endpoint, queries, options, rng, &result);
    if (status.ok()) {
      result.reconnects = reconnect;
      return result;
    }
    if (status.code() != StatusCode::kUnavailable) return status;
    // Torn connection or an exhausted-backpressure pass. The first
    // connect failing means no daemon is running: fail fast so the CLI
    // can say so (exit 8) instead of stalling through the retry ladder.
    if (reconnect == 0 && result.queries.empty() &&
        status.message().rfind("cannot connect", 0) == 0) {
      return status;
    }
    if (reconnect >= options.max_retries) {
      return Status::Unavailable("giving up after " +
                                 std::to_string(options.max_retries) +
                                 " reconnect attempts: " + status.message());
    }
    SleepMs(BackoffMs(0, options.retry_base_ms, reconnect, rng));
    ++reconnect;
  }
}

}  // namespace exdl::daemon
