// DaemonClient — the `exdlc connect` side of the exdld protocol
// (DESIGN.md §13).
//
// A thin, blocking request/reply client over one connection, plus a
// batch runner that layers the protocol's recovery semantics on top:
//
//   * RETRY_LATER is honored by sleeping the server-suggested backoff
//     plus jitter, then resubmitting (bounded exponential growth).
//   * A torn connection (daemon crashed mid-query, half-written frame,
//     injected fault) is recovered by reconnecting and re-running the
//     WHOLE batch from scratch. Re-running everything — not just the
//     tail — preserves byte-identical answers: the service interns
//     symbols in submission order, so the retried batch replays the
//     exact interning sequence (finished prefixes are program-cache
//     hits), while a tail-only resubmission could intern a different
//     order. kUnavailable is the only retried code.
//   * A first connect refused (no daemon running) fails fast with
//     kUnavailable so exdlc can map it to exit code 8 with an
//     actionable message.

#ifndef EXDL_DAEMON_CLIENT_H_
#define EXDL_DAEMON_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "daemon/protocol.h"
#include "util/status.h"

namespace exdl::daemon {

/// Where the daemon listens: a unix-socket path, or host:port with
/// use_tcp.
struct Endpoint {
  std::string socket_path;
  bool use_tcp = false;
  std::string tcp_host = "127.0.0.1";
  uint16_t tcp_port = 0;
};

class DaemonClient {
 public:
  DaemonClient() = default;
  ~DaemonClient() { Close(); }
  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  /// Connects and completes HELLO / HELLO_ACK. kUnavailable when the
  /// daemon is not reachable (connection refused / missing socket file).
  Status Connect(const Endpoint& endpoint, const std::string& tenant);
  void Close();
  bool connected() const { return fd_ >= 0; }
  uint32_t negotiated_version() const { return version_; }

  /// One SUBMIT exchange. Exactly one of the out-params is filled:
  /// `*admitted` tells which. Returns non-OK only for connection-level
  /// failures (torn/protocol); an ERROR reply is surfaced through
  /// `*error`.
  Status Submit(const SubmitMsg& submit, bool* admitted, TicketMsg* ticket,
                RetryLaterMsg* retry, ErrorMsg* error);

  /// One AWAIT exchange for `ticket`. Blocks until the result frame.
  Status Await(uint64_t ticket, ResultMsg* out);

  /// Registers `submit` as a standing query (protocol >= 2; DESIGN.md
  /// §16): the server evaluates it once, installs the maintained view,
  /// and replies with the standing id and seed answers. Blocks for the
  /// seeding evaluation. Backpressure surfaces as kUnavailable.
  Status RegisterQuery(const SubmitMsg& submit, RegisteredMsg* out);
  /// Drops a standing query (protocol >= 2).
  Status UnregisterQuery(uint64_t standing_id);
  /// Reads a standing query's maintained answers (protocol >= 2);
  /// non-blocking on the server — no re-evaluation happens.
  Status PollResult(uint64_t standing_id, StandingResultMsg* out);

  Status LoadFacts(const std::string& source);
  Status Stats(std::string* json);
  Status Cancel(uint64_t ticket);
  /// Asks the server to drain; OK once the server acknowledged.
  Status Shutdown();

 private:
  /// Writes `payload` and reads the reply frame.
  Status RoundTrip(const std::string& payload, Frame* reply);

  int fd_ = -1;
  uint32_t version_ = 0;
};

/// One query of a batch run.
struct BatchQuery {
  std::string name;
  std::string source;
};

struct BatchOptions {
  std::string tenant;
  /// Requested budget, clamped server-side (0 = policy default).
  uint64_t deadline_ms = 0;
  uint64_t max_tuples = 0;
  uint64_t max_bytes = 0;
  /// Facts loaded (LOAD_FACTS) before the queries, every attempt.
  std::string facts_source;
  /// Reconnect-and-rerun attempts after a torn connection, and
  /// resubmission attempts per query under backpressure.
  uint32_t max_retries = 5;
  /// Base for the client-side jittered exponential backoff (doubled per
  /// consecutive retry, capped at 64x) layered on the server's
  /// suggestion.
  uint32_t retry_base_ms = 25;
  /// Jitter seed (deterministic tests).
  uint64_t seed = 0x5eed;
};

struct BatchQueryResult {
  std::string name;
  ResultMsg result;
};

struct BatchResult {
  std::vector<BatchQueryResult> queries;
  uint32_t reconnects = 0;       ///< Torn-connection recoveries.
  uint32_t backpressure_waits = 0;
};

/// Runs `queries` against `endpoint` with full retry semantics (header
/// comment). On success every query has a ResultMsg whose rendered
/// answers are byte-identical to an in-process Session run of the same
/// sequence. Fails with kUnavailable once retries are exhausted (or
/// immediately when the very first connect is refused).
Result<BatchResult> RunBatch(const Endpoint& endpoint,
                             const std::vector<BatchQuery>& queries,
                             const BatchOptions& options);

}  // namespace exdl::daemon

#endif  // EXDL_DAEMON_CLIENT_H_
