// DaemonServer — the network-facing exdld query daemon (DESIGN.md §13).
//
// One long-lived server wraps a QueryService behind the protocol.h wire
// protocol on a unix-domain socket (TCP behind a flag): the nix-daemon
// shape of one server and many cheap clients. Robustness invariants:
//
//   * Admission control: every SUBMIT is clamped against the tenant's
//     quota (admission.h) and mapped onto an EvalBudget, so no client can
//     exceed the server-side policy.
//   * Backpressure: in-flight queries are bounded (server-wide and per
//     tenant). At the bound, SUBMIT gets RETRY_LATER with a suggested
//     backoff instead of growing an unbounded queue.
//   * Disconnect reclamation: each admitted query carries a private
//     CancellationToken. When the client's connection dies — mid-AWAIT or
//     with tickets it never awaited — the server cancels those queries,
//     drains their responses, and releases their admission slots, so
//     abandoned work never leaks a session.
//   * Graceful drain: RequestDrain (SIGTERM in exdld, or a SHUTDOWN frame)
//     stops accepting connections and submissions, lets in-flight work
//     finish for up to drain_timeout_ms, then cancels the remainder and
//     closes every connection.
//   * Torn-anything: a half-written frame, a mid-frame EOF, or an injected
//     fault (daemon.accept / daemon.read / daemon.write / daemon.dispatch)
//     closes that one connection through the same reclamation path; the
//     server itself never hangs and serves the next client normally.

#ifndef EXDL_DAEMON_SERVER_H_
#define EXDL_DAEMON_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "daemon/admission.h"
#include "daemon/protocol.h"
#include "durability/durable_edb.h"
#include "service/query_service.h"
#include "util/cancellation.h"

namespace exdl::daemon {

struct DaemonOptions {
  /// Unix-domain socket path (the default transport). A stale socket file
  /// left by a killed daemon is detected (connect() refused) and replaced.
  std::string socket_path;
  /// With use_tcp, listen on tcp_host:tcp_port instead (optional
  /// transport, off by default).
  bool use_tcp = false;
  std::string tcp_host = "127.0.0.1";
  uint16_t tcp_port = 0;
  /// The wrapped query service (workers, cache, compile pipeline).
  ServiceOptions service;
  /// Per-tenant quotas; empty policy = unlimited budgets, no per-tenant cap.
  AdmissionPolicy policy;
  /// Server-wide in-flight query bound (the bounded submission queue).
  /// 0 disables the global bound (per-tenant caps still apply).
  uint32_t max_pending = 64;
  /// How long a drain waits for in-flight connections before cancelling.
  uint32_t drain_timeout_ms = 5000;
  /// Deadline for a new connection to complete HELLO (slow-loris guard).
  uint32_t hello_timeout_ms = 5000;
  /// When >= 0, a byte is written here when a client requests SHUTDOWN —
  /// exdld's main loop selects on this alongside its signal pipe.
  int shutdown_notify_fd = -1;
  /// Durable EDB (DESIGN.md §15). With a non-empty data_dir, Start()
  /// recovers the directory (newest snapshot + fact-log replay) before
  /// accepting connections, and every LOAD_FACTS is write-ahead logged.
  durability::DurabilityOptions durability;
  /// Per-LOAD_FACTS source-size quota in bytes; an oversized load is
  /// rejected with kResourceExhausted. 0 = unlimited.
  uint64_t max_facts_bytes = 0;
};

/// Monotonic counters for the "daemon" telemetry object
/// (tools/metrics_schema.json) and test assertions.
struct DaemonCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  ///< bad hello / draining / fault
  uint32_t connections_active = 0;
  uint64_t submits_admitted = 0;
  uint64_t backpressure_events = 0;   ///< RETRY_LATER replies
  uint64_t cancelled_on_disconnect = 0;
  uint32_t queue_depth = 0;           ///< in-flight queries right now
  uint32_t queue_capacity = 0;
};

class DaemonServer {
 public:
  explicit DaemonServer(DaemonOptions options);
  ~DaemonServer();
  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  /// Binds, listens, and starts the accept loop. On a unix socket, a
  /// stale file from a SIGKILLed predecessor is unlinked and rebound; a
  /// *live* daemon on the same path is kFailedPrecondition.
  Status Start();

  /// Initiates a graceful drain (idempotent, non-blocking): stop
  /// accepting, reject new submissions, let in-flight work finish.
  void RequestDrain();

  /// Drains and joins everything: accept loop, connections, service.
  /// Called by the destructor; safe to call twice.
  void Stop();

  /// True once RequestDrain/Stop ran (a SHUTDOWN frame also sets it).
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  DaemonCounters counters() const;

  /// The service telemetry document plus the "daemon" object.
  std::string MetricsJson() const;

  /// Bound TCP port (after Start, TCP mode) — lets tests bind port 0.
  uint16_t bound_tcp_port() const { return bound_tcp_port_; }

  const DaemonOptions& options() const { return options_; }
  QueryService& service() { return service_; }

  /// The durable EDB behind --data-dir; null when durability is off.
  /// Valid after a successful Start().
  const std::shared_ptr<durability::DurableEdb>& durable() const {
    return durable_;
  }

 private:
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    /// Admission-control identity from HELLO; "" means the default quota.
    std::string tenant;
    /// Negotiated protocol version; gates the v2-only message types.
    /// Standing-query ids are deliberately NOT connection-scoped: a
    /// registered view outlives the registering connection (that is the
    /// point of a standing query — `exdlc connect --poll` reconnects),
    /// and lives until UNREGISTER_QUERY or daemon shutdown.
    uint32_t version = kProtocolVersionMin;
    /// Admitted tickets not yet delivered: their cancellation tokens (the
    /// tokens must outlive the evaluation, so they are owned here and
    /// freed only after the response is drained).
    std::unordered_map<QueryService::Ticket,
                       std::shared_ptr<CancellationToken>> inflight;
  };

  void AcceptLoop();
  void HandleConnection(uint64_t conn_id, int fd);
  /// Serves one negotiated connection until EOF/torn/error; returns the
  /// reason the loop ended (ok = clean client close).
  Status ServeFrames(Connection& conn);
  /// Writes `status` (code and message) as an ERROR frame.
  Status WriteError(int fd, const Status& status);
  /// The shared front half of SUBMIT and REGISTER_QUERY. Refuses while
  /// draining (ERROR), at an injected `fault_site` ("" = none; ERROR), or
  /// over the tenant's quota (RETRY_LATER, counted as backpressure).
  /// Otherwise takes an admission slot and returns the request with the
  /// clamped budget. On refusal returns nullopt and sets `*written` to
  /// the status of writing the refusal frame.
  std::optional<QueryRequest> AdmitRequest(Connection& conn, SubmitMsg submit,
                                           std::string_view fault_site,
                                           Status* written);
  /// Returns one admission slot of `conn`'s tenant.
  void ReleaseSlot(const Connection& conn);
  Status HandleSubmit(Connection& conn, std::string_view body);
  Status HandleAwait(Connection& conn, std::string_view body);
  Status HandleRegisterQuery(Connection& conn, std::string_view body);
  Status HandleUnregisterQuery(Connection& conn, std::string_view body);
  Status HandlePollResult(Connection& conn, std::string_view body);
  Status HandleLoadFacts(Connection& conn, std::string_view body);
  Status HandleCancel(Connection& conn, std::string_view body);
  Status HandleStats(Connection& conn);
  Status HandleShutdown(Connection& conn);
  /// Cancels every undelivered ticket of `conn`, drains their responses,
  /// and releases their admission slots.
  void ReclaimConnection(Connection& conn);

  /// Frame I/O wrappers consulting the daemon.read / daemon.write fault
  /// sites (server side only).
  Status ServerReadFrame(int fd, Frame* out, bool* clean_eof);
  Status ServerWriteFrame(int fd, std::string_view payload);

  Status BindUnix();
  Status BindTcp();
  void JoinFinishedThreads();

  DaemonOptions options_;
  QueryService service_;
  AdmissionController admission_;
  std::shared_ptr<durability::DurableEdb> durable_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< Wakes the accept loop's poll().
  uint16_t bound_tcp_port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  bool stopped_ = false;  ///< Guarded by conn_mu_; makes Stop idempotent.

  std::thread accept_thread_;
  mutable std::mutex conn_mu_;
  std::condition_variable conn_cv_;  ///< Signalled when a connection ends.
  uint64_t next_conn_id_ = 0;
  std::unordered_map<uint64_t, std::thread> conn_threads_;
  std::unordered_map<uint64_t, int> conn_fds_;
  std::vector<uint64_t> finished_;  ///< Connection ids ready to join.

  mutable std::mutex counters_mu_;
  DaemonCounters counters_;
};

}  // namespace exdl::daemon

#endif  // EXDL_DAEMON_SERVER_H_
