// In-memory span recorder for the traced benchmark run.
//
// A span is one call into one layer: its name ("<layer>.<what>"), start
// and end on the steady clock, the span that was open around it on the
// same recorder (its parent), and the request id of the benchmark
// operation it belongs to. Every span of one operation carries the same
// request id, across the socket phase and the in-process replay alike.
// Spans stay in memory while the run measures and are written out once,
// when it ends.
//
// A recorder is single-threaded: each client thread owns one, and
// Merge() concatenates them afterwards.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  std::string name;
  uint64_t request_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< Index into the same span list; -1 = root.
  double duration_us() const { return (end_ns - start_ns) / 1e3; }
};

/// The layer a span belongs to: its name up to the first '.'.
std::string_view LayerOf(std::string_view span_name);

class Tracer {
 public:
  /// Closes the span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, uint64_t request_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_;
  };

  /// Records one already-timed span under the currently open one.
  void Add(std::string_view name, uint64_t request_id, int64_t start_ns,
           int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends `other`'s spans, re-basing their parent indices.
  void Merge(const Tracer& other);

  /// One JSON object per line: name, rid, start_ns, end_ns, parent, and
  /// the span's self time.
  std::string ToJsonLines() const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< Indices of the spans currently open.
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once). Nanoseconds, indexed like `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Total self time per layer, in microseconds.
std::map<std::string, double> LayerSelfUs(const std::vector<Span>& spans);

/// Durations (us) of every span called `name`.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
