// libFuzzer harness for the exdld wire-protocol decoders.
//
// The first input byte picks a message type (MsgType); the remaining bytes
// are fed as that message's body to its Decode overload. The decoders are
// the daemon's trust boundary (DESIGN.md §13): any body must either decode
// or be rejected with kInvalidArgument — never crash, read out of bounds,
// or over-allocate. A successful decode must be canonical: re-encoding the
// message and decoding that body must succeed and re-encode to the same
// bytes. (The retired SUBMIT representation byte is accepted and dropped,
// so a legacy frame re-encodes one byte shorter, then stays fixed.)
//
// The default build links fuzz/replay_main.cc and replays the seed corpus
// as a ctest; -DEXDL_FUZZ=ON under Clang links libFuzzer instead.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "daemon/protocol.h"

namespace {

using namespace exdl::daemon;

template <typename Msg>
void RoundTrip(std::string_view body) {
  Msg msg;
  exdl::Status status = Decode(body, &msg);
  if (!status.ok()) {
    if (status.code() != exdl::StatusCode::kInvalidArgument) {
      __builtin_trap();  // rejections must be kInvalidArgument
    }
    return;
  }
  // Encode returns the type tag plus the body; Decode wants the body.
  const std::string first = Encode(msg);
  Msg again;
  if (!Decode(std::string_view(first).substr(1), &again).ok()) {
    __builtin_trap();  // an encoded message must decode
  }
  if (Encode(again) != first) {
    __builtin_trap();  // ... to the same message
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const std::string_view body(reinterpret_cast<const char*>(data) + 1,
                              size - 1);
  switch (static_cast<MsgType>(data[0])) {
    case MsgType::kHello: RoundTrip<HelloMsg>(body); break;
    case MsgType::kHelloAck: RoundTrip<HelloAckMsg>(body); break;
    case MsgType::kSubmit: RoundTrip<SubmitMsg>(body); break;
    case MsgType::kTicket: RoundTrip<TicketMsg>(body); break;
    case MsgType::kRetryLater: RoundTrip<RetryLaterMsg>(body); break;
    case MsgType::kAwait: RoundTrip<AwaitMsg>(body); break;
    case MsgType::kResult: RoundTrip<ResultMsg>(body); break;
    case MsgType::kLoadFacts: RoundTrip<LoadFactsMsg>(body); break;
    case MsgType::kStatsReply: RoundTrip<StatsReplyMsg>(body); break;
    case MsgType::kCancel: RoundTrip<CancelMsg>(body); break;
    case MsgType::kError: RoundTrip<ErrorMsg>(body); break;
    case MsgType::kRegisterQuery: RoundTrip<RegisterQueryMsg>(body); break;
    case MsgType::kRegistered: RoundTrip<RegisteredMsg>(body); break;
    case MsgType::kUnregisterQuery:
      RoundTrip<UnregisterQueryMsg>(body);
      break;
    case MsgType::kPollResult: RoundTrip<PollResultMsg>(body); break;
    case MsgType::kStandingResult:
      RoundTrip<StandingResultMsg>(body);
      break;
    default:
      break;  // kOk, kStats, kShutdown have no body; the rest are unknown
  }
  return 0;
}
