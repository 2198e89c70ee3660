// Hierarchical trace spans with monotonic-clock timings.
//
// Spans nest lexically: Begin() opens a child of the innermost open span
// (or a root when none is open) and End() closes it. Span paths follow the
// naming convention of DESIGN.md §10, e.g.
//
//   optimize > phase:projection
//   eval > round:17 > rule:3
//
// A Trace is single-threaded by contract: spans are only opened and
// closed by the owning thread, at variant/round boundaries in the
// evaluator. The span count is capped (kDefaultMaxSpans); spans beyond
// the cap are dropped and counted, never reallocated mid-run.

#ifndef EXDL_OBS_TRACE_H_
#define EXDL_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace exdl::obs {

using SpanId = uint32_t;

/// Returned by Begin() when the span cap is reached; End/SetAttr on it are
/// no-ops.
inline constexpr SpanId kDroppedSpan = static_cast<SpanId>(-1);

struct TraceSpan {
  SpanId id = 0;
  /// Parent span id, or -1 for a root span.
  int64_t parent = -1;
  std::string name;
  /// Seconds since the Trace was constructed (monotonic clock).
  double start_seconds = 0;
  /// Filled by End(); -1 while the span is open.
  double duration_seconds = -1;
  /// Small numeric annotations (rule deltas, tuple growth, ...).
  std::vector<std::pair<std::string, double>> attrs;
};

class Trace {
 public:
  static constexpr size_t kDefaultMaxSpans = 1 << 16;

  explicit Trace(size_t max_spans = kDefaultMaxSpans);

  /// Opens a span as a child of the innermost open span.
  SpanId Begin(std::string name);
  /// Closes `id` (must be the innermost open span; enforced by popping the
  /// open stack down to it, closing anything left open inside).
  void End(SpanId id);
  /// Records a zero-duration child span (point event, e.g. a budget trip).
  SpanId Event(std::string name);
  void SetAttr(SpanId id, std::string key, double value);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  /// "a > b > c" path of a span, per the §10 naming convention.
  std::string PathOf(SpanId id) const;
  size_t dropped() const { return dropped_; }
  /// Seconds since construction (the spans' common epoch).
  double NowSeconds() const;

  /// RAII span: Begin on construction, End on destruction.
  class Scope {
   public:
    Scope(Trace* trace, std::string name)
        : trace_(trace), id_(trace->Begin(std::move(name))) {}
    ~Scope() { trace_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    SpanId id() const { return id_; }

   private:
    Trace* trace_;
    SpanId id_;
  };

 private:
  using Clock = std::chrono::steady_clock;

  size_t max_spans_;
  Clock::time_point epoch_;
  std::vector<TraceSpan> spans_;
  /// Open spans, outermost first. Dropped opens push kDroppedSpan so the
  /// stack stays balanced.
  std::vector<SpanId> open_;
  size_t dropped_ = 0;
};

/// Renders the span forest as an indented tree with millisecond durations
/// and attrs (the CLI's --trace output).
std::string RenderTrace(const Trace& trace);

}  // namespace exdl::obs

#endif  // EXDL_OBS_TRACE_H_
