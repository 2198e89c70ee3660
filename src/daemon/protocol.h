// exdld wire protocol (DESIGN.md §13).
//
// A versioned, length-prefixed binary protocol between one long-lived
// `exdld` server and many cheap `exdlc connect` clients, modeled on the
// nix-daemon worker protocol: the client opens a connection, negotiates a
// protocol version with HELLO/HELLO_ACK, then issues strict request/reply
// exchanges (SUBMIT, AWAIT, LOAD_FACTS, STATS, CANCEL, SHUTDOWN).
//
// Frame layout (everything little-endian):
//
//   u32 length            payload byte count (1 .. kMaxFrameBytes)
//   u8  type              MsgType
//   ...                   message body, per type
//
// Strings are encoded as `u32 length + bytes` (no terminator). Decoding is
// fully bounds-checked: a truncated or oversized frame is rejected with
// kInvalidArgument and never read out of bounds — a torn TCP stream or a
// malicious client cannot crash the daemon.
//
// Error/backpressure semantics: the server answers a SUBMIT with TICKET
// (admitted; echoes the clamped effective budget), RETRY_LATER (the
// submission queue or the tenant's in-flight quota is full; carries a
// suggested backoff the client honors with jittered exponential retry), or
// ERROR. ERROR carries a StatusCode; kUnavailable means transient — retry
// after reconnecting if need be — every other code is a clean terminal
// failure for that request.

#ifndef EXDL_DAEMON_PROTOCOL_H_
#define EXDL_DAEMON_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace exdl::daemon {

/// First u32 of every HELLO: "EXDL" read little-endian. A connection that
/// opens with anything else is not a protocol peer and is dropped.
inline constexpr uint32_t kProtocolMagic = 0x4C445845u;

/// Protocol versions this build can speak. HELLO carries the client's
/// [min, max] range; the server replies with
/// min(kProtocolVersionMax, client max) provided that version also
/// satisfies both minima, and drops the connection otherwise.
///
/// Version history:
///   1  initial protocol (SUBMIT .. ERROR).
///   2  standing queries (REGISTER_QUERY, REGISTERED, UNREGISTER_QUERY,
///      POLL_RESULT, STANDING_RESULT). The server answers these on a v1
///      connection with ERROR (kFailedPrecondition), not a drop. Version 2
///      once also added a one-byte representation tail to SUBMIT and
///      REGISTER_QUERY; it is retired: nothing writes it, and the decoder
///      skips it when a client built before its retirement sends one.
inline constexpr uint32_t kProtocolVersionMin = 1;
inline constexpr uint32_t kProtocolVersionMax = 2;

/// Hard cap on one frame's payload. Bounds per-connection memory no matter
/// what the peer claims in the length prefix.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class MsgType : uint8_t {
  kHello = 1,       ///< client -> server: magic, version range, tenant
  kHelloAck = 2,    ///< server -> client: negotiated version, server id
  kSubmit = 3,      ///< client -> server: named query + requested budget
  kTicket = 4,      ///< server -> client: admitted; ticket + clamped budget
  kRetryLater = 5,  ///< server -> client: backpressure; suggested backoff
  kAwait = 6,       ///< client -> server: block for one ticket's result
  kResult = 7,      ///< server -> client: status + answers for a ticket
  kLoadFacts = 8,   ///< client -> server: facts-only source for the EDB
  kOk = 9,          ///< server -> client: generic success (empty body)
  kStats = 10,      ///< client -> server: request the telemetry document
  kStatsReply = 11, ///< server -> client: the telemetry JSON document
  kCancel = 12,     ///< client -> server: cancel an in-flight ticket
  kShutdown = 13,   ///< client -> server: request a graceful drain
  kError = 14,      ///< server -> client: StatusCode + message
  // Protocol version 2 (standing queries, DESIGN.md §16).
  kRegisterQuery = 15,    ///< client -> server: register a standing query
  kRegistered = 16,       ///< server -> client: standing id + seed answers
  kUnregisterQuery = 17,  ///< client -> server: drop a standing query
  kPollResult = 18,       ///< client -> server: read a maintained view
  kStandingResult = 19,   ///< server -> client: the view's current state
};

/// True for the u8 values that correspond to a MsgType enumerator.
bool IsKnownMsgType(uint8_t type);

/// One decoded frame: the type tag plus the raw body bytes (everything
/// after the tag).
struct Frame {
  MsgType type = MsgType::kError;
  std::string body;
};

// ---------------------------------------------------------------------------
// Message bodies.

struct HelloMsg {
  uint32_t magic = kProtocolMagic;
  uint32_t min_version = kProtocolVersionMin;
  uint32_t max_version = kProtocolVersionMax;
  /// Admission-control identity; "" maps to the policy's default quota.
  std::string tenant;
};

struct HelloAckMsg {
  uint32_t version = 0;  ///< Negotiated protocol version.
  std::string server;    ///< Server software id, e.g. "exdld/1".
};

struct SubmitMsg {
  std::string name;    ///< Provenance label echoed into the result.
  std::string source;  ///< Full query source (rules, query, facts).
  /// Requested budget; 0 = "whatever the policy allows". The server clamps
  /// each limit against the tenant quota and echoes the result in TICKET.
  uint64_t deadline_ms = 0;
  uint64_t max_tuples = 0;
  uint64_t max_bytes = 0;
};

/// REGISTER_QUERY carries exactly a SUBMIT body (same codec, different
/// type tag): a standing query is an ordinary submission whose result is
/// installed as a maintained view.
struct RegisterQueryMsg {
  SubmitMsg submit;
};

struct RegisteredMsg {
  uint64_t standing_id = 0;
  /// EDB generation the seed answers are current as of.
  uint64_t generation = 0;
  uint64_t answer_count = 0;
  /// RenderAnswerRows output of the seeding evaluation.
  std::string answers;
};

struct UnregisterQueryMsg {
  uint64_t standing_id = 0;
};

struct PollResultMsg {
  uint64_t standing_id = 0;
};

struct StandingResultMsg {
  uint64_t standing_id = 0;
  uint64_t generation = 0;
  uint64_t answer_count = 0;
  /// RenderAnswerRows output — byte-identical to a cold evaluation of the
  /// same source at `generation`.
  std::string answers;
  /// 1 when the last maintenance took the incremental path.
  uint8_t incremental = 1;
  /// ivm::FallbackName of the view's classification ("none" = fast path).
  std::string fallback;
  uint64_t delta_rounds = 0;
  uint64_t full_recomputes = 0;
  uint64_t tuples_rederived = 0;
};

struct TicketMsg {
  uint64_t ticket = 0;
  /// The effective (policy-clamped) budget the query runs under.
  uint64_t deadline_ms = 0;
  uint64_t max_tuples = 0;
  uint64_t max_bytes = 0;
};

struct RetryLaterMsg {
  uint32_t backoff_ms = 0;  ///< Suggested wait before resubmitting.
  std::string reason;
};

struct AwaitMsg {
  uint64_t ticket = 0;
};

struct ResultMsg {
  uint64_t ticket = 0;
  /// QueryResponse::status (compile / hard evaluation errors).
  uint32_t status_code = 0;
  std::string status_message;
  /// EvalResult::termination (budget trips; kOk for a full run).
  uint32_t termination_code = 0;
  std::string termination_message;
  std::string budget_kind;  ///< BudgetKindName of stats.budget_tripped.
  std::string stats_text;   ///< EvalStats::ToString (human stderr line).
  uint64_t answer_count = 0;
  /// RenderAnswerRows output — byte-identical to an in-process run.
  std::string answers;
  uint8_t cache_hit = 0;
};

struct LoadFactsMsg {
  std::string source;
};

struct StatsReplyMsg {
  std::string json;
};

struct CancelMsg {
  uint64_t ticket = 0;
};

struct ErrorMsg {
  uint32_t code = 0;  ///< StatusCode of the failure.
  std::string message;
};

// ---------------------------------------------------------------------------
// Encoding. Encode* returns the full frame payload (type tag + body),
// ready for WriteFrame's length prefix.

std::string Encode(const HelloMsg& m);
std::string Encode(const HelloAckMsg& m);
std::string Encode(const SubmitMsg& m);
std::string Encode(const RegisterQueryMsg& m);
std::string Encode(const RegisteredMsg& m);
std::string Encode(const UnregisterQueryMsg& m);
std::string Encode(const PollResultMsg& m);
std::string Encode(const StandingResultMsg& m);
std::string Encode(const TicketMsg& m);
std::string Encode(const RetryLaterMsg& m);
std::string Encode(const AwaitMsg& m);
std::string Encode(const ResultMsg& m);
std::string Encode(const LoadFactsMsg& m);
std::string Encode(const StatsReplyMsg& m);
std::string Encode(const CancelMsg& m);
std::string Encode(const ErrorMsg& m);
/// Frames with an empty body: kOk, kStats, kShutdown.
std::string EncodeEmpty(MsgType type);

// ---------------------------------------------------------------------------
// Decoding. `body` is Frame::body (the bytes after the type tag). Every
// decoder consumes the exact body and returns kInvalidArgument on a
// truncated, oversized, or trailing-garbage body. (The one exception is
// the retired representation byte, which SUBMIT and REGISTER_QUERY
// accept and ignore after their last field.)

Status Decode(std::string_view body, HelloMsg* out);
Status Decode(std::string_view body, HelloAckMsg* out);
Status Decode(std::string_view body, SubmitMsg* out);
Status Decode(std::string_view body, RegisterQueryMsg* out);
Status Decode(std::string_view body, RegisteredMsg* out);
Status Decode(std::string_view body, UnregisterQueryMsg* out);
Status Decode(std::string_view body, PollResultMsg* out);
Status Decode(std::string_view body, StandingResultMsg* out);
Status Decode(std::string_view body, TicketMsg* out);
Status Decode(std::string_view body, RetryLaterMsg* out);
Status Decode(std::string_view body, AwaitMsg* out);
Status Decode(std::string_view body, ResultMsg* out);
Status Decode(std::string_view body, LoadFactsMsg* out);
Status Decode(std::string_view body, StatsReplyMsg* out);
Status Decode(std::string_view body, CancelMsg* out);
Status Decode(std::string_view body, ErrorMsg* out);

/// Reconstructs a Status from an ErrorMsg, mapping unknown code values to
/// kInternal so a newer server cannot make an older client misbehave.
Status StatusFromWire(uint32_t code, std::string message);

// ---------------------------------------------------------------------------
// Bounds-checked little-endian readers/writers (exposed for tests and the
// frame layer).

class WireWriter {
 public:
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Str(std::string_view s);
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view buf) : buf_(buf) {}
  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status Str(std::string* s);
  /// True once every byte was consumed — the hook for optional message
  /// tails added by later protocol versions.
  bool AtEnd() const { return pos_ >= buf_.size(); }
  /// kInvalidArgument unless every byte was consumed.
  Status Finish() const;

 private:
  std::string_view buf_;
  size_t pos_ = 0;
};

}  // namespace exdl::daemon

#endif  // EXDL_DAEMON_PROTOCOL_H_
