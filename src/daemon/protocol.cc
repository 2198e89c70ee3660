#include "daemon/protocol.h"

namespace exdl::daemon {

bool IsKnownMsgType(uint8_t type) {
  return type >= static_cast<uint8_t>(MsgType::kHello) &&
         type <= static_cast<uint8_t>(MsgType::kStandingResult);
}

// ---------------------------------------------------------------------------
// Writers.

void WireWriter::U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

// ---------------------------------------------------------------------------
// Readers.

Status WireReader::U8(uint8_t* v) {
  if (pos_ + 1 > buf_.size()) {
    return Status::InvalidArgument("truncated frame: expected u8");
  }
  *v = static_cast<uint8_t>(buf_[pos_++]);
  return Status::Ok();
}

Status WireReader::U32(uint32_t* v) {
  if (pos_ + 4 > buf_.size()) {
    return Status::InvalidArgument("truncated frame: expected u32");
  }
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::Ok();
}

Status WireReader::U64(uint64_t* v) {
  if (pos_ + 8 > buf_.size()) {
    return Status::InvalidArgument("truncated frame: expected u64");
  }
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(buf_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::Ok();
}

Status WireReader::Str(std::string* s) {
  uint32_t len = 0;
  EXDL_RETURN_IF_ERROR(U32(&len));
  // The frame layer already capped the payload at kMaxFrameBytes, so a
  // length that overruns the buffer can only be a truncation or a lie.
  if (len > buf_.size() - pos_) {
    return Status::InvalidArgument("truncated frame: string overruns body");
  }
  s->assign(buf_.data() + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status WireReader::Finish() const {
  if (pos_ != buf_.size()) {
    return Status::InvalidArgument("frame body has trailing bytes");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Per-message encode/decode.

namespace {

WireWriter Begin(MsgType type) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(type));
  return w;
}

}  // namespace

std::string Encode(const HelloMsg& m) {
  WireWriter w = Begin(MsgType::kHello);
  w.U32(m.magic);
  w.U32(m.min_version);
  w.U32(m.max_version);
  w.Str(m.tenant);
  return w.Take();
}

Status Decode(std::string_view body, HelloMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U32(&out->magic));
  EXDL_RETURN_IF_ERROR(r.U32(&out->min_version));
  EXDL_RETURN_IF_ERROR(r.U32(&out->max_version));
  EXDL_RETURN_IF_ERROR(r.Str(&out->tenant));
  return r.Finish();
}

std::string Encode(const HelloAckMsg& m) {
  WireWriter w = Begin(MsgType::kHelloAck);
  w.U32(m.version);
  w.Str(m.server);
  return w.Take();
}

Status Decode(std::string_view body, HelloAckMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U32(&out->version));
  EXDL_RETURN_IF_ERROR(r.Str(&out->server));
  return r.Finish();
}

namespace {

// SUBMIT and REGISTER_QUERY share one body layout; only the type tag
// differs. Clients built while the v2 representation tail was live send
// one more byte; the decoder skips it.
void EncodeSubmitBody(WireWriter& w, const SubmitMsg& m) {
  w.Str(m.name);
  w.Str(m.source);
  w.U64(m.deadline_ms);
  w.U64(m.max_tuples);
  w.U64(m.max_bytes);
}

Status DecodeSubmitBody(WireReader& r, SubmitMsg* out) {
  EXDL_RETURN_IF_ERROR(r.Str(&out->name));
  EXDL_RETURN_IF_ERROR(r.Str(&out->source));
  EXDL_RETURN_IF_ERROR(r.U64(&out->deadline_ms));
  EXDL_RETURN_IF_ERROR(r.U64(&out->max_tuples));
  EXDL_RETURN_IF_ERROR(r.U64(&out->max_bytes));
  if (!r.AtEnd()) {
    uint8_t retired_representation = 0;
    EXDL_RETURN_IF_ERROR(r.U8(&retired_representation));
  }
  return r.Finish();
}

}  // namespace

std::string Encode(const SubmitMsg& m) {
  WireWriter w = Begin(MsgType::kSubmit);
  EncodeSubmitBody(w, m);
  return w.Take();
}

Status Decode(std::string_view body, SubmitMsg* out) {
  WireReader r(body);
  return DecodeSubmitBody(r, out);
}

std::string Encode(const RegisterQueryMsg& m) {
  WireWriter w = Begin(MsgType::kRegisterQuery);
  EncodeSubmitBody(w, m.submit);
  return w.Take();
}

Status Decode(std::string_view body, RegisterQueryMsg* out) {
  WireReader r(body);
  return DecodeSubmitBody(r, &out->submit);
}

std::string Encode(const RegisteredMsg& m) {
  WireWriter w = Begin(MsgType::kRegistered);
  w.U64(m.standing_id);
  w.U64(m.generation);
  w.U64(m.answer_count);
  w.Str(m.answers);
  return w.Take();
}

Status Decode(std::string_view body, RegisteredMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U64(&out->standing_id));
  EXDL_RETURN_IF_ERROR(r.U64(&out->generation));
  EXDL_RETURN_IF_ERROR(r.U64(&out->answer_count));
  EXDL_RETURN_IF_ERROR(r.Str(&out->answers));
  return r.Finish();
}

std::string Encode(const UnregisterQueryMsg& m) {
  WireWriter w = Begin(MsgType::kUnregisterQuery);
  w.U64(m.standing_id);
  return w.Take();
}

Status Decode(std::string_view body, UnregisterQueryMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U64(&out->standing_id));
  return r.Finish();
}

std::string Encode(const PollResultMsg& m) {
  WireWriter w = Begin(MsgType::kPollResult);
  w.U64(m.standing_id);
  return w.Take();
}

Status Decode(std::string_view body, PollResultMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U64(&out->standing_id));
  return r.Finish();
}

std::string Encode(const StandingResultMsg& m) {
  WireWriter w = Begin(MsgType::kStandingResult);
  w.U64(m.standing_id);
  w.U64(m.generation);
  w.U64(m.answer_count);
  w.Str(m.answers);
  w.U8(m.incremental);
  w.Str(m.fallback);
  w.U64(m.delta_rounds);
  w.U64(m.full_recomputes);
  w.U64(m.tuples_rederived);
  return w.Take();
}

Status Decode(std::string_view body, StandingResultMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U64(&out->standing_id));
  EXDL_RETURN_IF_ERROR(r.U64(&out->generation));
  EXDL_RETURN_IF_ERROR(r.U64(&out->answer_count));
  EXDL_RETURN_IF_ERROR(r.Str(&out->answers));
  EXDL_RETURN_IF_ERROR(r.U8(&out->incremental));
  EXDL_RETURN_IF_ERROR(r.Str(&out->fallback));
  EXDL_RETURN_IF_ERROR(r.U64(&out->delta_rounds));
  EXDL_RETURN_IF_ERROR(r.U64(&out->full_recomputes));
  EXDL_RETURN_IF_ERROR(r.U64(&out->tuples_rederived));
  return r.Finish();
}

std::string Encode(const TicketMsg& m) {
  WireWriter w = Begin(MsgType::kTicket);
  w.U64(m.ticket);
  w.U64(m.deadline_ms);
  w.U64(m.max_tuples);
  w.U64(m.max_bytes);
  return w.Take();
}

Status Decode(std::string_view body, TicketMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U64(&out->ticket));
  EXDL_RETURN_IF_ERROR(r.U64(&out->deadline_ms));
  EXDL_RETURN_IF_ERROR(r.U64(&out->max_tuples));
  EXDL_RETURN_IF_ERROR(r.U64(&out->max_bytes));
  return r.Finish();
}

std::string Encode(const RetryLaterMsg& m) {
  WireWriter w = Begin(MsgType::kRetryLater);
  w.U32(m.backoff_ms);
  w.Str(m.reason);
  return w.Take();
}

Status Decode(std::string_view body, RetryLaterMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U32(&out->backoff_ms));
  EXDL_RETURN_IF_ERROR(r.Str(&out->reason));
  return r.Finish();
}

std::string Encode(const AwaitMsg& m) {
  WireWriter w = Begin(MsgType::kAwait);
  w.U64(m.ticket);
  return w.Take();
}

Status Decode(std::string_view body, AwaitMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U64(&out->ticket));
  return r.Finish();
}

std::string Encode(const ResultMsg& m) {
  WireWriter w = Begin(MsgType::kResult);
  w.U64(m.ticket);
  w.U32(m.status_code);
  w.Str(m.status_message);
  w.U32(m.termination_code);
  w.Str(m.termination_message);
  w.Str(m.budget_kind);
  w.Str(m.stats_text);
  w.U64(m.answer_count);
  w.Str(m.answers);
  w.U8(m.cache_hit);
  return w.Take();
}

Status Decode(std::string_view body, ResultMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U64(&out->ticket));
  EXDL_RETURN_IF_ERROR(r.U32(&out->status_code));
  EXDL_RETURN_IF_ERROR(r.Str(&out->status_message));
  EXDL_RETURN_IF_ERROR(r.U32(&out->termination_code));
  EXDL_RETURN_IF_ERROR(r.Str(&out->termination_message));
  EXDL_RETURN_IF_ERROR(r.Str(&out->budget_kind));
  EXDL_RETURN_IF_ERROR(r.Str(&out->stats_text));
  EXDL_RETURN_IF_ERROR(r.U64(&out->answer_count));
  EXDL_RETURN_IF_ERROR(r.Str(&out->answers));
  EXDL_RETURN_IF_ERROR(r.U8(&out->cache_hit));
  return r.Finish();
}

std::string Encode(const LoadFactsMsg& m) {
  WireWriter w = Begin(MsgType::kLoadFacts);
  w.Str(m.source);
  return w.Take();
}

Status Decode(std::string_view body, LoadFactsMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.Str(&out->source));
  return r.Finish();
}

std::string Encode(const StatsReplyMsg& m) {
  WireWriter w = Begin(MsgType::kStatsReply);
  w.Str(m.json);
  return w.Take();
}

Status Decode(std::string_view body, StatsReplyMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.Str(&out->json));
  return r.Finish();
}

std::string Encode(const CancelMsg& m) {
  WireWriter w = Begin(MsgType::kCancel);
  w.U64(m.ticket);
  return w.Take();
}

Status Decode(std::string_view body, CancelMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U64(&out->ticket));
  return r.Finish();
}

std::string Encode(const ErrorMsg& m) {
  WireWriter w = Begin(MsgType::kError);
  w.U32(m.code);
  w.Str(m.message);
  return w.Take();
}

Status Decode(std::string_view body, ErrorMsg* out) {
  WireReader r(body);
  EXDL_RETURN_IF_ERROR(r.U32(&out->code));
  EXDL_RETURN_IF_ERROR(r.Str(&out->message));
  return r.Finish();
}

std::string EncodeEmpty(MsgType type) { return Begin(type).Take(); }

Status StatusFromWire(uint32_t code, std::string message) {
  if (code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::Internal("unknown wire status code " +
                            std::to_string(code) + ": " + message);
  }
  if (code == 0) return Status::Ok();
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace exdl::daemon
