#include "trace.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view LayerOf(std::string_view span_name) {
  return span_name.substr(0, span_name.find('.'));
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name,
                     uint64_t request_id)
    : tracer_(tracer), index_(tracer->spans_.size()) {
  Span span;
  span.name = std::string(name);
  span.request_id = request_id;
  span.parent = tracer->open_.empty()
                    ? -1
                    : static_cast<int64_t>(tracer->open_.back());
  span.start_ns = NowNs();
  tracer->spans_.push_back(std::move(span));
  tracer->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->open_.pop_back();
}

void Tracer::Add(std::string_view name, uint64_t request_id,
                 int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = std::string(name);
  span.request_id = request_id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(std::move(span));
}

void Tracer::Merge(const Tracer& other) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

std::string Tracer::ToJsonLines() const {
  const std::vector<int64_t> self = SelfTimesNs(spans_);
  std::string out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"name\":\"" + s.name + "\",\"rid\":" +
           std::to_string(s.request_id) +
           ",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"self_ns\":" + std::to_string(self[i]) + "}\n";
  }
  return out;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  // Children's intervals, clipped to their parent's.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t union_ns = 0;
    int64_t reach = std::numeric_limits<int64_t>::min();
    for (const auto& [lo, hi] : intervals) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, double> LayerSelfUs(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[std::string(LayerOf(spans[i].name))] += self[i] / 1e3;
  }
  return out;
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.duration_us());
  }
  return out;
}

}  // namespace perfbench
