// exdld daemon tests: wire protocol encode/decode, admission policy,
// version negotiation, byte-identity of socket-delivered answers, RETRY_LATER
// backpressure, mid-query disconnect reclamation (serial and 4-thread),
// torn-frame handling, and in-process fault injection at the daemon.* sites.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "daemon/admission.h"
#include "daemon/client.h"
#include "daemon/frame_io.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "recovery/fault.h"
#include "service/answer_text.h"
#include "service/query_service.h"

namespace exdl::daemon {
namespace {

using ::exdl::QueryService;

// ---------------------------------------------------------------------------
// Protocol layer.

TEST(ProtocolTest, SubmitRoundTrip) {
  SubmitMsg in;
  in.name = "q.dl";
  in.source = "p(a).\n?- p(X).\n";
  in.deadline_ms = 1234;
  in.max_tuples = 99;
  in.max_bytes = 1 << 20;
  const std::string payload = Encode(in);
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(static_cast<MsgType>(payload[0]), MsgType::kSubmit);
  SubmitMsg out;
  ASSERT_TRUE(Decode(std::string_view(payload).substr(1), &out).ok());
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.source, in.source);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.max_tuples, in.max_tuples);
  EXPECT_EQ(out.max_bytes, in.max_bytes);
}

TEST(ProtocolTest, ResultRoundTrip) {
  ResultMsg in;
  in.ticket = 7;
  in.status_code = 0;
  in.termination_code = static_cast<uint32_t>(StatusCode::kCancelled);
  in.termination_message = "cancelled";
  in.budget_kind = "cancelled";
  in.stats_text = "rounds=3";
  in.answer_count = 2;
  in.answers = "a\nb\n";
  in.cache_hit = 1;
  const std::string payload = Encode(in);
  ResultMsg out;
  ASSERT_TRUE(Decode(std::string_view(payload).substr(1), &out).ok());
  EXPECT_EQ(out.ticket, in.ticket);
  EXPECT_EQ(out.termination_code, in.termination_code);
  EXPECT_EQ(out.answers, in.answers);
  EXPECT_EQ(out.cache_hit, 1);
}

TEST(ProtocolTest, TruncatedBodyIsRejectedNotOverread) {
  HelloMsg hello;
  hello.tenant = "alice";
  const std::string payload = Encode(hello);
  // Every proper prefix of the body must decode to an error, never crash.
  for (size_t len = 0; len + 1 < payload.size(); ++len) {
    HelloMsg out;
    Status status = Decode(std::string_view(payload).substr(1, len), &out);
    EXPECT_FALSE(status.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
}

TEST(ProtocolTest, TrailingGarbageIsRejected) {
  AwaitMsg in;
  in.ticket = 3;
  std::string body = Encode(in).substr(1);
  body += "x";
  AwaitMsg out;
  EXPECT_EQ(Decode(body, &out).code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, StringLengthLyingPastBufferIsRejected) {
  // A string header claiming 2^31 bytes in a 16-byte body.
  WireWriter w;
  w.U32(0x7fffffffu);
  w.Str("short");
  std::string body = w.Take();
  LoadFactsMsg out;
  EXPECT_FALSE(Decode(body, &out).ok());
}

TEST(ProtocolTest, UnknownStatusCodeMapsToInternal) {
  Status status = StatusFromWire(10000, "from the future");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Frame transport over a socketpair.

/// Writes `bytes` raw into one end of a fresh socketpair, closes it, and
/// reads one frame from the other end.
Status ReadRawFrame(const std::string& bytes, Frame* frame, bool* clean_eof) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::Internal("socketpair failed");
  }
  if (!bytes.empty()) {
    ::send(fds[0], bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }
  ::close(fds[0]);
  Status status = ReadFrame(fds[1], frame, clean_eof);
  ::close(fds[1]);
  return status;
}

std::string LengthPrefix(uint32_t length) {
  std::string prefix;
  for (int i = 0; i < 4; ++i) {
    prefix.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  return prefix;
}

TEST(FrameIoTest, LargeFramesRoundTripThroughPartialWrites) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Far past the socket buffer: the writer resumes after partial sends
  // while the reader drains.
  ResultMsg big;
  big.answers.assign(3u << 20, 'x');
  for (size_t i = 0; i < big.answers.size(); i += 7) big.answers[i] = '\n';
  AwaitMsg small;
  small.ticket = 42;
  const std::string first = Encode(big);
  const std::string second = Encode(small);
  Status written;
  std::thread writer([&] {
    written = WriteFrame(fds[0], first);
    if (written.ok()) written = WriteFrame(fds[0], second);
  });
  Frame frame;
  bool clean_eof = false;
  const Status read_first = ReadFrame(fds[1], &frame, &clean_eof);
  const Frame first_frame = frame;
  // The same Frame again: the body is replaced, not appended to.
  const Status read_second = ReadFrame(fds[1], &frame, &clean_eof);
  // A failed read must not leave the writer blocked on a full socket.
  if (!read_first.ok() || !read_second.ok()) ::shutdown(fds[1], SHUT_RDWR);
  writer.join();
  EXPECT_TRUE(written.ok()) << written.ToString();
  ASSERT_TRUE(read_first.ok()) << read_first.ToString();
  EXPECT_EQ(first_frame.type, MsgType::kResult);
  EXPECT_EQ(first_frame.body, first.substr(1));
  ASSERT_TRUE(read_second.ok()) << read_second.ToString();
  EXPECT_EQ(frame.type, MsgType::kAwait);
  EXPECT_EQ(frame.body, second.substr(1));
  ::close(fds[0]);
  EXPECT_EQ(ReadFrame(fds[1], &frame, &clean_eof).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(clean_eof);
  ::close(fds[1]);
}

TEST(FrameIoTest, MalformedFramesKeepTheirStatuses) {
  Frame frame;
  bool clean_eof = true;
  struct Case {
    std::string bytes;
    StatusCode code;
    const char* message;
  };
  const Case cases[] = {
      {std::string("\x10\x00", 2), StatusCode::kUnavailable,
       "short length prefix"},
      {LengthPrefix(0), StatusCode::kInvalidArgument, "empty payload"},
      {LengthPrefix(kMaxFrameBytes + 1), StatusCode::kInvalidArgument,
       "exceeds the protocol cap"},
      {LengthPrefix(64) + "\x06" + "abc", StatusCode::kUnavailable,
       "short frame body"},
      // A short body is reported before an unknown type.
      {LengthPrefix(8) + "\xee" + "ab", StatusCode::kUnavailable,
       "short frame body"},
      {LengthPrefix(1) + "\xee", StatusCode::kInvalidArgument,
       "unknown message type 238"},
      {LengthPrefix(1) + std::string(1, '\0'),
       StatusCode::kInvalidArgument, "unknown message type 0"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.message);
    const Status status = ReadRawFrame(c.bytes, &frame, &clean_eof);
    EXPECT_EQ(status.code(), c.code) << status.ToString();
    EXPECT_NE(status.message().find(c.message), std::string::npos)
        << status.ToString();
    EXPECT_FALSE(clean_eof);
  }
  EXPECT_EQ(ReadRawFrame("", &frame, &clean_eof).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(clean_eof);
  // A one-byte payload is a known type with an empty body.
  ASSERT_TRUE(
      ReadRawFrame(LengthPrefix(1) + "\x06", &frame, &clean_eof).ok());
  EXPECT_EQ(frame.type, MsgType::kAwait);
  EXPECT_TRUE(frame.body.empty());
}

// ---------------------------------------------------------------------------
// Admission policy.

TEST(AdmissionTest, ParsePolicyWithDefaultAndTenant) {
  Result<AdmissionPolicy> policy = AdmissionPolicy::Parse(
      "# comment\n"
      "*      deadline_ms=10000 max_tuples=500 max_inflight=2\n"
      "alice  deadline_ms=60000 max_inflight=4\n");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_EQ(policy->QuotaFor("bob").deadline_ms, 10000u);
  EXPECT_EQ(policy->QuotaFor("bob").max_tuples, 500u);
  EXPECT_EQ(policy->QuotaFor("alice").deadline_ms, 60000u);
  EXPECT_EQ(policy->QuotaFor("alice").max_inflight, 4u);
  // A tenant line overrides wholesale: unset keys are unlimited.
  EXPECT_EQ(policy->QuotaFor("alice").max_tuples, 0u);
}

TEST(AdmissionTest, ParseRejectsMalformedPolicies) {
  EXPECT_FALSE(AdmissionPolicy::Parse("* max_wombats=3\n").ok());
  EXPECT_FALSE(AdmissionPolicy::Parse("* deadline_ms=abc\n").ok());
  EXPECT_FALSE(AdmissionPolicy::Parse("* deadline_ms=1\n* max_tuples=2\n").ok());
  EXPECT_FALSE(AdmissionPolicy::Parse("a max_tuples=1\na max_tuples=2\n").ok());
}

TEST(AdmissionTest, ClampTakesTheTighterLimit) {
  EXPECT_EQ(ClampLimit(0, 0), 0u);        // both unlimited
  EXPECT_EQ(ClampLimit(5, 0), 5u);        // no cap: client ask stands
  EXPECT_EQ(ClampLimit(0, 7), 7u);        // no ask: policy cap applies
  EXPECT_EQ(ClampLimit(5, 7), 5u);        // tighter ask wins
  EXPECT_EQ(ClampLimit(9, 7), 7u);        // cap clamps a looser ask
}

TEST(AdmissionTest, ControllerEnforcesTenantAndGlobalBounds) {
  AdmissionPolicy policy;
  policy.default_quota.max_inflight = 1;
  AdmissionController ctl(policy, 2);
  auto a1 = ctl.TryAdmit("a", 0, 0, 0);
  EXPECT_TRUE(a1.admitted);
  auto a2 = ctl.TryAdmit("a", 0, 0, 0);  // tenant cap
  EXPECT_FALSE(a2.admitted);
  EXPECT_GT(a2.retry_after_ms, 0u);
  auto b1 = ctl.TryAdmit("b", 0, 0, 0);
  EXPECT_TRUE(b1.admitted);
  auto c1 = ctl.TryAdmit("c", 0, 0, 0);  // global cap (2)
  EXPECT_FALSE(c1.admitted);
  ctl.Release("a");
  EXPECT_TRUE(ctl.TryAdmit("c", 0, 0, 0).admitted);
}

// ---------------------------------------------------------------------------
// Server fixture.

std::string ChainSource(int nodes) {
  std::ostringstream out;
  for (int i = 0; i + 1 < nodes; ++i) {
    out << "e(n" << i << ", n" << i + 1 << ").\n";
  }
  out << "tc(X, Y) :- e(X, Y).\n"
         "tc(X, Z) :- e(X, Y), tc(Y, Z).\n"
         "?- tc(X, Y).\n";
  return out.str();
}

constexpr char kTinyQuery[] =
    "e(a, b). e(b, c).\n"
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Z) :- e(X, Y), tc(Y, Z).\n"
    "?- tc(a, X).\n";

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultPlan::Global().Disarm();
    socket_path_ = ::testing::TempDir() + "/exdld_test_" +
                   std::to_string(::getpid()) + "_" +
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name() +
                   ".sock";
    ::unlink(socket_path_.c_str());
  }
  void TearDown() override {
    FaultPlan::Global().Disarm();
    ::unlink(socket_path_.c_str());
  }

  DaemonOptions Options(uint32_t workers = 1) {
    DaemonOptions options;
    options.socket_path = socket_path_;
    options.service.num_workers = workers;
    options.drain_timeout_ms = 200;
    return options;
  }

  Endpoint endpoint() const {
    Endpoint ep;
    ep.socket_path = socket_path_;
    return ep;
  }

  /// Polls until `pred` is true or ~5s elapsed.
  template <typename Pred>
  bool Eventually(Pred pred) {
    for (int i = 0; i < 500; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  std::string socket_path_;
};

TEST_F(DaemonTest, HelloRejectsBadMagicAndBadVersion) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());

  // Raw connection with a corrupt magic.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  HelloMsg bad;
  bad.magic = 0xdeadbeef;
  ASSERT_TRUE(WriteFrame(fd, Encode(bad)).ok());
  Frame reply;
  bool clean_eof = false;
  // The server drops the connection without a reply.
  Status status = ReadFrame(fd, &reply, &clean_eof);
  EXPECT_FALSE(status.ok());
  ::close(fd);

  // A client from the future: versions the server cannot speak.
  fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  HelloMsg future;
  future.min_version = kProtocolVersionMax + 1;
  future.max_version = kProtocolVersionMax + 5;
  ASSERT_TRUE(WriteFrame(fd, Encode(future)).ok());
  ASSERT_TRUE(ReadFrame(fd, &reply, &clean_eof).ok());
  ASSERT_EQ(reply.type, MsgType::kError);
  ErrorMsg err;
  ASSERT_TRUE(Decode(reply.body, &err).ok());
  EXPECT_EQ(err.code, static_cast<uint32_t>(StatusCode::kFailedPrecondition));
  ::close(fd);

  // A well-formed client still negotiates.
  DaemonClient client;
  EXPECT_TRUE(client.Connect(endpoint(), "t").ok());
  EXPECT_EQ(client.negotiated_version(), kProtocolVersionMax);
  EXPECT_TRUE(Eventually([&] {
    return server.counters().connections_rejected >= 2;
  }));
  server.Stop();
}

TEST_F(DaemonTest, AnswersAreByteIdenticalToInProcessService) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());

  std::vector<BatchQuery> queries = {{"a.dl", kTinyQuery},
                                     {"b.dl", ChainSource(20)}};
  BatchOptions options;
  Result<BatchResult> batch = RunBatch(endpoint(), queries, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->queries.size(), 2u);

  // The same submission sequence through an in-process QueryService.
  QueryService service;
  std::vector<QueryService::Ticket> tickets;
  for (const BatchQuery& q : queries) {
    QueryRequest request;
    request.source = q.source;
    request.name = q.name;
    tickets.push_back(service.Submit(std::move(request)));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    QueryResponse response = service.Await(tickets[i]);
    ASSERT_TRUE(response.status.ok());
    const std::string expected =
        RenderAnswerRows(*service.ctx(), response.result.answers);
    EXPECT_EQ(batch->queries[i].result.answers, expected)
        << "socket answers differ for " << queries[i].name;
    EXPECT_EQ(batch->queries[i].result.answer_count,
              response.result.answers.size());
  }
  server.Stop();
}

TEST_F(DaemonTest, LoadFactsFeedsLaterQueries) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());
  DaemonClient client;
  ASSERT_TRUE(client.Connect(endpoint(), "").ok());
  ASSERT_TRUE(client.LoadFacts("e(x, y). e(y, z).\n").ok());

  SubmitMsg submit;
  submit.name = "q";
  submit.source = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n"
                  "?- tc(x, X).\n";
  bool admitted = false;
  TicketMsg ticket;
  RetryLaterMsg retry;
  ErrorMsg error;
  ASSERT_TRUE(
      client.Submit(submit, &admitted, &ticket, &retry, &error).ok());
  ASSERT_TRUE(admitted);
  ResultMsg result;
  ASSERT_TRUE(client.Await(ticket.ticket, &result).ok());
  EXPECT_EQ(result.answer_count, 2u);
  EXPECT_EQ(result.answers, "y\nz\n");

  // Rules are rejected as facts.
  EXPECT_FALSE(client.LoadFacts("p(X) :- e(X, Y).\n").ok());
  server.Stop();
}

// Every SUBMIT carries the connection's cancellation token, so a served
// evaluation is always governed. The optimized Example 1 must still run
// as one projection over `e`: STATS counts each of its 8,192 rows.
TEST_F(DaemonTest, ServedExampleOneRunsTheProjectionKernel) {
  DaemonOptions options = Options();
  options.service.compile.optimize = true;
  DaemonServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  DaemonClient client;
  ASSERT_TRUE(client.Connect(endpoint(), "").ok());
  std::ostringstream chains;
  for (int c = 0; c < 512; ++c) {
    for (int j = 0; j < 16; ++j) {
      chains << "e(c" << c << "x" << j << ", c" << c << "x" << j + 1
             << ").\n";
    }
  }
  ASSERT_TRUE(client.LoadFacts(chains.str()).ok());

  SubmitMsg submit;
  submit.name = "example1";
  submit.source = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n"
                  "q(X) :- tc(X, _).\n?- q(X).\n";
  bool admitted = false;
  TicketMsg ticket;
  RetryLaterMsg retry;
  ErrorMsg error;
  ASSERT_TRUE(
      client.Submit(submit, &admitted, &ticket, &retry, &error).ok());
  ASSERT_TRUE(admitted);
  ResultMsg result;
  ASSERT_TRUE(client.Await(ticket.ticket, &result).ok());
  EXPECT_EQ(result.status_code, 0u);
  EXPECT_EQ(result.answer_count, 8192u);

  std::string json;
  ASSERT_TRUE(client.Stats(&json).ok());
  EXPECT_NE(json.find("\"projection_rows\":8192"), std::string::npos) << json;
  server.Stop();
}

// A v2 SUBMIT from a client built while the representation tail was live
// carries one more byte (2 = tuple, 3 = bitset). The tail is retired: the
// server skips it and answers exactly as it answers the frame without it.
TEST_F(DaemonTest, LegacyRepresentationByteIsIgnored) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_TRUE(WriteFrame(fd, Encode(HelloMsg())).ok());
  Frame reply;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(fd, &reply, &clean_eof).ok());
  ASSERT_EQ(reply.type, MsgType::kHelloAck);
  HelloAckMsg ack;
  ASSERT_TRUE(Decode(reply.body, &ack).ok());
  ASSERT_EQ(ack.version, 2u);

  SubmitMsg submit;
  submit.name = "q";
  submit.source = kTinyQuery;
  const std::string plain = Encode(submit);
  for (const std::string& frame :
       {plain + '\x02', plain, plain + '\x03'}) {
    ASSERT_TRUE(WriteFrame(fd, frame).ok());
    ASSERT_TRUE(ReadFrame(fd, &reply, &clean_eof).ok());
    ASSERT_EQ(reply.type, MsgType::kTicket) << frame.size();
    TicketMsg ticket;
    ASSERT_TRUE(Decode(reply.body, &ticket).ok());
    AwaitMsg await;
    await.ticket = ticket.ticket;
    ASSERT_TRUE(WriteFrame(fd, Encode(await)).ok());
    ASSERT_TRUE(ReadFrame(fd, &reply, &clean_eof).ok());
    ASSERT_EQ(reply.type, MsgType::kResult);
    ResultMsg result;
    ASSERT_TRUE(Decode(reply.body, &result).ok());
    EXPECT_EQ(result.status_code, 0u);
    EXPECT_EQ(result.answers, "b\nc\n") << frame.size();
  }
  // One skipped byte, not a tail of any length: two are trailing garbage.
  const std::string body = plain.substr(1);
  SubmitMsg decoded;
  EXPECT_TRUE(Decode(body + '\x02', &decoded).ok());
  EXPECT_FALSE(Decode(body + "\x02\x02", &decoded).ok());
  ::close(fd);
  server.Stop();
}

TEST_F(DaemonTest, AdmissionClampsBudgetAndReportsIt) {
  DaemonOptions options = Options();
  options.policy.default_quota.max_tuples = 50;
  options.policy.default_quota.deadline_ms = 60000;
  DaemonServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  DaemonClient client;
  ASSERT_TRUE(client.Connect(endpoint(), "").ok());

  SubmitMsg submit;
  submit.name = "big";
  submit.source = ChainSource(200);
  submit.max_tuples = 1000000;  // asks far beyond the policy
  submit.deadline_ms = 1000;    // tighter than the policy: honored
  bool admitted = false;
  TicketMsg ticket;
  RetryLaterMsg retry;
  ErrorMsg error;
  ASSERT_TRUE(
      client.Submit(submit, &admitted, &ticket, &retry, &error).ok());
  ASSERT_TRUE(admitted);
  EXPECT_EQ(ticket.max_tuples, 50u);      // clamped down
  EXPECT_EQ(ticket.deadline_ms, 1000u);   // client's tighter ask kept
  ResultMsg result;
  ASSERT_TRUE(client.Await(ticket.ticket, &result).ok());
  EXPECT_EQ(result.status_code, 0u);
  // The 200-node closure needs far more than 50 tuples: the budget trips.
  EXPECT_EQ(result.termination_code,
            static_cast<uint32_t>(StatusCode::kResourceExhausted));
  EXPECT_EQ(result.budget_kind, "tuples");
  server.Stop();
}

TEST_F(DaemonTest, BackpressureRetryLaterAndRecovery) {
  DaemonOptions options = Options(2);
  options.policy.default_quota.max_inflight = 1;
  DaemonServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  DaemonClient slow;
  ASSERT_TRUE(slow.Connect(endpoint(), "t").ok());
  SubmitMsg long_submit;
  long_submit.name = "slow";
  long_submit.source = ChainSource(1500);
  bool admitted = false;
  TicketMsg slow_ticket;
  RetryLaterMsg retry;
  ErrorMsg error;
  ASSERT_TRUE(slow.Submit(long_submit, &admitted, &slow_ticket, &retry,
                          &error).ok());
  ASSERT_TRUE(admitted);

  // Same tenant, second in-flight query: RETRY_LATER with a backoff hint.
  DaemonClient second;
  ASSERT_TRUE(second.Connect(endpoint(), "t").ok());
  SubmitMsg tiny;
  tiny.name = "tiny";
  tiny.source = kTinyQuery;
  admitted = false;
  TicketMsg tiny_ticket;
  ASSERT_TRUE(
      second.Submit(tiny, &admitted, &tiny_ticket, &retry, &error).ok());
  EXPECT_FALSE(admitted);
  EXPECT_GT(retry.backoff_ms, 0u);
  EXPECT_FALSE(retry.reason.empty());
  EXPECT_GE(server.counters().backpressure_events, 1u);

  // Cancel the hog; its slot frees and the second submission is admitted.
  ASSERT_TRUE(slow.Cancel(slow_ticket.ticket).ok());
  ResultMsg slow_result;
  ASSERT_TRUE(slow.Await(slow_ticket.ticket, &slow_result).ok());
  EXPECT_EQ(slow_result.termination_code,
            static_cast<uint32_t>(StatusCode::kCancelled));
  ASSERT_TRUE(Eventually([&] {
    bool ok = false;
    TicketMsg t;
    RetryLaterMsg r;
    ErrorMsg e;
    if (!second.Submit(tiny, &ok, &t, &r, &e).ok()) return false;
    if (ok) tiny_ticket = t;
    return ok;
  }));
  ResultMsg tiny_result;
  ASSERT_TRUE(second.Await(tiny_ticket.ticket, &tiny_result).ok());
  EXPECT_EQ(tiny_result.answers, "b\nc\n");
  server.Stop();
}

TEST_F(DaemonTest, MidQueryDisconnectCancelsAndReclaims) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());

  {
    DaemonClient doomed;
    ASSERT_TRUE(doomed.Connect(endpoint(), "t").ok());
    SubmitMsg submit;
    submit.name = "abandoned";
    submit.source = ChainSource(1500);
    bool admitted = false;
    TicketMsg ticket;
    RetryLaterMsg retry;
    ErrorMsg error;
    ASSERT_TRUE(
        doomed.Submit(submit, &admitted, &ticket, &retry, &error).ok());
    ASSERT_TRUE(admitted);
    // Drop the socket mid-query (destructor closes the fd).
  }

  // The server must cancel the abandoned query via its CancellationToken
  // and release the admission slot.
  EXPECT_TRUE(Eventually([&] {
    return server.counters().cancelled_on_disconnect >= 1;
  }));
  EXPECT_TRUE(Eventually([&] { return server.counters().queue_depth == 0; }));

  // And the next client gets normal service.
  std::vector<BatchQuery> queries = {{"next.dl", kTinyQuery}};
  Result<BatchResult> batch = RunBatch(endpoint(), queries, BatchOptions());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->queries[0].result.answers, "b\nc\n");
  server.Stop();
}

TEST_F(DaemonTest, DisconnectDuringAwaitCancelsToo) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());
  {
    // Raw connection so AWAIT can be sent without blocking on its reply.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    HelloMsg hello;
    ASSERT_TRUE(WriteFrame(fd, Encode(hello)).ok());
    Frame reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(fd, &reply, &clean_eof).ok());
    ASSERT_EQ(reply.type, MsgType::kHelloAck);
    SubmitMsg submit;
    submit.name = "awaited-then-dropped";
    submit.source = ChainSource(1500);
    ASSERT_TRUE(WriteFrame(fd, Encode(submit)).ok());
    ASSERT_TRUE(ReadFrame(fd, &reply, &clean_eof).ok());
    ASSERT_EQ(reply.type, MsgType::kTicket);
    TicketMsg ticket;
    ASSERT_TRUE(Decode(reply.body, &ticket).ok());
    // Send AWAIT — the server is now blocked producing the result — and
    // hang up without reading the reply.
    AwaitMsg await;
    await.ticket = ticket.ticket;
    ASSERT_TRUE(WriteFrame(fd, Encode(await)).ok());
    ::close(fd);
  }
  EXPECT_TRUE(Eventually([&] {
    return server.counters().cancelled_on_disconnect >= 1;
  }));
  server.Stop();
}

TEST_F(DaemonTest, FourThreadDisconnectStorm) {
  DaemonServer server(Options(4));
  ASSERT_TRUE(server.Start().ok());

  // Four clients submit long queries concurrently and vanish.
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([this, i] {
      DaemonClient doomed;
      if (!doomed.Connect(endpoint(), "t" + std::to_string(i)).ok()) return;
      SubmitMsg submit;
      submit.name = "storm" + std::to_string(i);
      submit.source = ChainSource(1200 + i);
      bool admitted = false;
      TicketMsg ticket;
      RetryLaterMsg retry;
      ErrorMsg error;
      (void)doomed.Submit(submit, &admitted, &ticket, &retry, &error);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_TRUE(Eventually([&] {
    return server.counters().cancelled_on_disconnect >= 4;
  })) << "cancelled_on_disconnect="
      << server.counters().cancelled_on_disconnect;
  EXPECT_TRUE(Eventually([&] { return server.counters().queue_depth == 0; }));

  // Server still healthy afterwards.
  std::vector<BatchQuery> queries = {{"next.dl", kTinyQuery}};
  Result<BatchResult> batch = RunBatch(endpoint(), queries, BatchOptions());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->queries[0].result.answers, "b\nc\n");
  server.Stop();
}

TEST_F(DaemonTest, TornFrameMidPrefixLeavesServerServing) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());

  // Handshake, then send half a length prefix and hang up.
  DaemonClient torn;
  ASSERT_TRUE(torn.Connect(endpoint(), "t").ok());
  {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    HelloMsg hello;
    ASSERT_TRUE(WriteFrame(fd, Encode(hello)).ok());
    Frame ack;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(fd, &ack, &clean_eof).ok());
    const char half[2] = {0x10, 0x00};  // 2 of 4 length-prefix bytes
    ASSERT_EQ(::send(fd, half, sizeof half, MSG_NOSIGNAL), 2);
    ::close(fd);
  }
  // Also: a full prefix promising a body that never arrives.
  {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    HelloMsg hello;
    ASSERT_TRUE(WriteFrame(fd, Encode(hello)).ok());
    Frame ack;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(fd, &ack, &clean_eof).ok());
    const char prefix[4] = {0x40, 0x00, 0x00, 0x00};  // promises 64 bytes
    ASSERT_EQ(::send(fd, prefix, sizeof prefix, MSG_NOSIGNAL), 4);
    ::close(fd);
  }

  // The negotiated-but-quiet client and a fresh batch both still work.
  std::string json;
  EXPECT_TRUE(torn.Stats(&json).ok());
  EXPECT_NE(json.find("\"daemon\""), std::string::npos);
  std::vector<BatchQuery> queries = {{"ok.dl", kTinyQuery}};
  Result<BatchResult> batch = RunBatch(endpoint(), queries, BatchOptions());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  server.Stop();
}

TEST_F(DaemonTest, OversizedFramePrefixIsRejectedWithoutAllocation) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  // Length prefix claiming 4 GiB - 1. The server must drop the connection,
  // not allocate.
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, prefix, sizeof prefix, MSG_NOSIGNAL), 4);
  char byte;
  // Server closes on us (read returns 0) rather than hanging.
  struct timeval tv = {5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.Stop();
}

TEST_F(DaemonTest, InjectedReadFaultTearsOneConnectionOnly) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());
  // Hit 1 is the victim's HELLO read.
  ASSERT_TRUE(FaultPlan::Global().Arm("daemon.read:1").ok());
  DaemonClient victim;
  Status status = victim.Connect(endpoint(), "t");
  EXPECT_FALSE(status.ok());
  FaultPlan::Global().Disarm();
  // The server took it as one torn connection; the next client is served.
  std::vector<BatchQuery> queries = {{"ok.dl", kTinyQuery}};
  Result<BatchResult> batch = RunBatch(endpoint(), queries, BatchOptions());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->queries[0].result.answers, "b\nc\n");
  server.Stop();
}

TEST_F(DaemonTest, InjectedWriteFaultLeavesHalfFrameClientRecovers) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());
  // Hit 2 = the HELLO_ACK of the second connection: the injected failure
  // emits a deliberately half-written frame. The batch client must treat
  // it as torn and recover by reconnecting.
  ASSERT_TRUE(FaultPlan::Global().Arm("daemon.write:2").ok());
  std::vector<BatchQuery> queries = {{"ok.dl", kTinyQuery}};
  BatchOptions options;
  options.retry_base_ms = 5;
  Result<BatchResult> batch = RunBatch(endpoint(), queries, options);
  FaultPlan::Global().Disarm();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->queries[0].result.answers, "b\nc\n");
  server.Stop();
}

TEST_F(DaemonTest, InjectedDispatchFaultIsRetriedByBatchClient) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(FaultPlan::Global().Arm("daemon.dispatch:1").ok());
  std::vector<BatchQuery> queries = {{"ok.dl", kTinyQuery}};
  BatchOptions options;
  options.retry_base_ms = 5;
  Result<BatchResult> batch = RunBatch(endpoint(), queries, options);
  FaultPlan::Global().Disarm();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->queries[0].result.answers, "b\nc\n");
  EXPECT_GE(batch->reconnects, 1u);
  server.Stop();
}

TEST_F(DaemonTest, InjectedAcceptFaultDropsConnectionAtBirth) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(FaultPlan::Global().Arm("daemon.accept:1").ok());
  std::vector<BatchQuery> queries = {{"ok.dl", kTinyQuery}};
  BatchOptions options;
  options.retry_base_ms = 5;
  Result<BatchResult> batch = RunBatch(endpoint(), queries, options);
  FaultPlan::Global().Disarm();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GE(server.counters().connections_rejected, 1u);
  server.Stop();
}

TEST_F(DaemonTest, StaleSocketIsRecoveredLiveDaemonIsNot) {
  // A dead daemon's leftover: bind the path and close the fd without
  // unlinking, exactly what SIGKILL leaves behind.
  int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ::close(stale);

  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok()) << "stale socket not recovered";
  // A second daemon on the same path must refuse: the first is live.
  DaemonServer second(Options());
  Status status = second.Start();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  server.Stop();
}

TEST_F(DaemonTest, DrainRejectsNewSubmissionsAndConnections) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());
  DaemonClient client;
  ASSERT_TRUE(client.Connect(endpoint(), "t").ok());
  server.RequestDrain();
  SubmitMsg submit;
  submit.name = "late";
  submit.source = kTinyQuery;
  bool admitted = false;
  TicketMsg ticket;
  RetryLaterMsg retry;
  ErrorMsg error;
  Status status = client.Submit(submit, &admitted, &ticket, &retry, &error);
  // Either an explicit draining ERROR (kUnavailable) or the connection was
  // already torn down by the drain.
  if (status.ok()) {
    EXPECT_FALSE(admitted);
    EXPECT_EQ(error.code, static_cast<uint32_t>(StatusCode::kUnavailable));
  } else {
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  }
  server.Stop();
}

TEST_F(DaemonTest, MetricsJsonCarriesDaemonObject) {
  DaemonServer server(Options());
  ASSERT_TRUE(server.Start().ok());
  std::vector<BatchQuery> queries = {{"ok.dl", kTinyQuery}};
  ASSERT_TRUE(RunBatch(endpoint(), queries, BatchOptions()).ok());
  const std::string json = server.MetricsJson();
  EXPECT_NE(json.find("\"daemon\""), std::string::npos);
  EXPECT_NE(json.find("\"connections\""), std::string::npos);
  EXPECT_NE(json.find("\"backpressure_events\""), std::string::npos);
  EXPECT_NE(json.find("\"cancelled_on_disconnect\""), std::string::npos);
  EXPECT_NE(json.find("\"queue\""), std::string::npos);
  // No --data-dir: no durability object.
  EXPECT_EQ(json.find("\"durability\""), std::string::npos);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Durable EDB (DESIGN.md §15).

TEST_F(DaemonTest, DurableDataDirSurvivesRestart) {
  std::string data_dir = ::testing::TempDir() + "/exdld_data_XXXXXX";
  ASSERT_NE(mkdtemp(data_dir.data()), nullptr);
  DaemonOptions options = Options();
  options.durability.data_dir = data_dir;
  options.durability.compact_every = 2;

  const std::vector<BatchQuery> queries = {
      {"q.dl", "q(X) :- p(X).\n?- q(X).\n"}};
  std::string live;
  {
    DaemonServer server(options);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_NE(server.durable(), nullptr);
    DaemonClient client;
    ASSERT_TRUE(client.Connect(endpoint(), "").ok());
    for (int k = 1; k <= 5; ++k) {
      ASSERT_TRUE(
          client.LoadFacts("p(d" + std::to_string(k) + ").\n").ok());
    }
    Result<BatchResult> batch = RunBatch(endpoint(), queries, BatchOptions());
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    live = batch->queries[0].result.answers;
    ASSERT_FALSE(live.empty());
    // The first server never shuts down gracefully from the durable EDB's
    // point of view: Stop() does no compaction or flush — everything
    // needed already hit disk before each LOAD_FACTS was acknowledged.
    server.Stop();
  }

  DaemonOptions restarted_options = Options();
  restarted_options.durability.data_dir = data_dir;
  restarted_options.durability.compact_every = 2;
  DaemonServer restarted(restarted_options);
  ASSERT_TRUE(restarted.Start().ok());
  ASSERT_NE(restarted.durable(), nullptr);
  EXPECT_EQ(restarted.durable()->counters().records_replayed, 1u);
  EXPECT_EQ(restarted.durable()->counters().snapshot_generation, 4u);
  Result<BatchResult> batch = RunBatch(endpoint(), queries, BatchOptions());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->queries[0].result.answers, live);
  const std::string json = restarted.MetricsJson();
  EXPECT_NE(json.find("\"durability\""), std::string::npos);
  EXPECT_NE(json.find("\"records_replayed\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery_seconds\""), std::string::npos);
  restarted.Stop();
}

TEST_F(DaemonTest, OversizedLoadFactsIsRejectedByQuota) {
  DaemonOptions options = Options();
  options.max_facts_bytes = 16;
  DaemonServer server(options);
  ASSERT_TRUE(server.Start().ok());
  DaemonClient client;
  ASSERT_TRUE(client.Connect(endpoint(), "").ok());
  ASSERT_TRUE(client.LoadFacts("p(a).\n").ok());
  Status rejected =
      client.LoadFacts("p(" + std::string(64, 'b') + ").\n");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  // The rejected load changed nothing: only p(a) is visible.
  std::vector<BatchQuery> queries = {{"q.dl", "q(X) :- p(X).\n?- q(X).\n"}};
  Result<BatchResult> batch = RunBatch(endpoint(), queries, BatchOptions());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->queries[0].result.answers, "a\n");
  server.Stop();
}

}  // namespace
}  // namespace exdl::daemon
