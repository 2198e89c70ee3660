#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "util/string_util.h"

namespace exdl::obs {

Trace::Trace(size_t max_spans)
    : max_spans_(max_spans), epoch_(Clock::now()) {}

double Trace::NowSeconds() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

SpanId Trace::Begin(std::string name) {
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    open_.push_back(kDroppedSpan);
    return kDroppedSpan;
  }
  TraceSpan span;
  span.id = static_cast<SpanId>(spans_.size());
  // The innermost open *recorded* span is the parent; dropped opens are
  // transparent so their children still attach to a real ancestor.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it != kDroppedSpan) {
      span.parent = static_cast<int64_t>(*it);
      break;
    }
  }
  span.name = std::move(name);
  span.start_seconds = NowSeconds();
  open_.push_back(span.id);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Trace::End(SpanId id) {
  if (id == kDroppedSpan) {
    // Pop the matching dropped marker (innermost first).
    auto it = std::find(open_.rbegin(), open_.rend(), kDroppedSpan);
    if (it != open_.rend()) open_.erase(std::next(it).base());
    return;
  }
  const double now = NowSeconds();
  // Pop down to `id`, closing anything left open inside it.
  while (!open_.empty()) {
    SpanId top = open_.back();
    open_.pop_back();
    if (top == kDroppedSpan) continue;
    if (spans_[top].duration_seconds < 0) {
      spans_[top].duration_seconds = now - spans_[top].start_seconds;
    }
    if (top == id) break;
  }
}

SpanId Trace::Event(std::string name) {
  SpanId id = Begin(std::move(name));
  End(id);
  return id;
}

void Trace::SetAttr(SpanId id, std::string key, double value) {
  if (id == kDroppedSpan || id >= spans_.size()) return;
  spans_[id].attrs.emplace_back(std::move(key), value);
}

std::string Trace::PathOf(SpanId id) const {
  if (id >= spans_.size()) return "";
  std::vector<const std::string*> parts;
  int64_t cur = static_cast<int64_t>(id);
  while (cur >= 0) {
    parts.push_back(&spans_[static_cast<size_t>(cur)].name);
    cur = spans_[static_cast<size_t>(cur)].parent;
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out += " > ";
    out += **it;
  }
  return out;
}

namespace {

void RenderSpan(const Trace& trace,
                const std::vector<std::vector<SpanId>>& children, SpanId id,
                int depth, std::string* out) {
  const TraceSpan& span = trace.spans()[id];
  for (int i = 0; i < depth; ++i) *out += "  ";
  *out += span.name;
  char buf[48];
  const double ms =
      (span.duration_seconds < 0 ? 0 : span.duration_seconds) * 1e3;
  std::snprintf(buf, sizeof(buf), "  %.3f ms", ms);
  *out += buf;
  for (const auto& [key, value] : span.attrs) {
    std::snprintf(buf, sizeof(buf), " %s=%.6g", key.c_str(), value);
    *out += buf;
  }
  *out += "\n";
  for (SpanId child : children[id]) {
    RenderSpan(trace, children, child, depth + 1, out);
  }
}

}  // namespace

std::string RenderTrace(const Trace& trace) {
  const std::vector<TraceSpan>& spans = trace.spans();
  std::vector<std::vector<SpanId>> children(spans.size());
  std::vector<SpanId> roots;
  for (const TraceSpan& span : spans) {
    if (span.parent < 0) {
      roots.push_back(span.id);
    } else {
      children[static_cast<size_t>(span.parent)].push_back(span.id);
    }
  }
  std::string out;
  for (SpanId root : roots) RenderSpan(trace, children, root, 0, &out);
  if (trace.dropped() > 0) {
    out += StrCat("(", std::to_string(trace.dropped()),
                  " span(s) dropped at the ", std::to_string(spans.size()),
                  "-span cap)\n");
  }
  return out;
}

}  // namespace exdl::obs
