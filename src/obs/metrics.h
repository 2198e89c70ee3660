// Lightweight metrics registry: counters, gauges, and histograms with
// fixed bucket boundaries.
//
// Threading model (see DESIGN.md §10): the hot path never takes a lock.
// Each concurrent writer (a QueryService query) increments its own
// MetricsShard — a plain array of cells — and the owner folds shards into
// the registry's totals at quiescent points (when the query finishes).
// A single-threaded writer such as the evaluator adds to the registry
// directly. Registration,
// merging, and snapshotting are single-threaded by contract; only
// *different shards on different threads* may be touched concurrently.
//
// Registration is idempotent: re-registering the same (kind, name, labels)
// returns the existing id, so instrumented components can re-register on
// every run against a long-lived registry.

#ifndef EXDL_OBS_METRICS_H_
#define EXDL_OBS_METRICS_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace exdl::obs {

using MetricId = uint32_t;

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// Short stable name ("counter", "gauge", "histogram").
std::string_view MetricKindName(MetricKind kind);

/// Label set: sorted key/value pairs (sorted so registration dedup and
/// JSON output are order-independent).
using LabelSet = std::vector<std::pair<std::string, std::string>>;

struct MetricDef {
  std::string name;
  MetricKind kind;
  LabelSet labels;
  /// Histogram upper bucket bounds (ascending); an implicit +inf bucket
  /// follows the last bound, so a histogram has bounds.size()+1 buckets.
  std::vector<double> bounds;
  /// Offset into the per-kind cell storage of a shard: counter index,
  /// gauge index, or (for histograms) the histogram's ordinal.
  size_t cell = 0;
};

class MetricsRegistry;

/// One participant's private cell array. No locks, no atomics: a shard
/// must only ever be written by one thread at a time, and merged by the
/// registry owner while its writer is quiescent.
class MetricsShard {
 public:
  MetricsShard() = default;

  void Add(MetricId id, uint64_t delta);
  void Set(MetricId id, double value);
  void Observe(MetricId id, double value);

  /// Zeroes every cell (Merge does this implicitly).
  void Reset();

  bool attached() const { return registry_ != nullptr; }

 private:
  friend class MetricsRegistry;

  const MetricsRegistry* registry_ = nullptr;
  std::vector<uint64_t> counters_;
  std::vector<double> gauges_;
  std::vector<char> gauge_set_;
  std::vector<uint64_t> hist_counts_;  ///< Flattened per-bucket counts.
  std::vector<size_t> hist_base_;      ///< Per-histogram offset into counts.
  std::vector<double> hist_sum_;
  std::vector<uint64_t> hist_count_;
};

/// A fixed snapshot row of one metric's merged value (see Snapshot()).
struct MetricRow {
  MetricId id = 0;
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  LabelSet labels;
  uint64_t counter = 0;                ///< kCounter
  double gauge = 0;                    ///< kGauge
  bool gauge_set = false;
  std::vector<double> bounds;          ///< kHistogram
  std::vector<uint64_t> bucket_counts; ///< bounds.size() + 1 entries.
  double sum = 0;
  uint64_t count = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  MetricId Counter(std::string name, LabelSet labels = {});
  MetricId Gauge(std::string name, LabelSet labels = {});
  MetricId Histogram(std::string name, std::vector<double> bounds,
                     LabelSet labels = {});

  /// A shard sized for every metric registered so far. Register everything
  /// before creating shards: merging a stale shard is an error (asserted).
  MetricsShard NewShard() const;

  /// Folds `shard` into the registry totals and resets it. Owner-thread
  /// only; the shard's writer must be quiescent.
  void Merge(MetricsShard& shard);

  /// Direct owner-thread mutation of the totals (round-boundary gauges
  /// and one-off counters that never contend).
  void Add(MetricId id, uint64_t delta) { total_.Add(id, delta); }
  void Set(MetricId id, double value) { total_.Set(id, value); }
  void Observe(MetricId id, double value) { total_.Observe(id, value); }

  uint64_t CounterValue(MetricId id) const;
  double GaugeValue(MetricId id) const;
  /// Per-bucket counts of a histogram (bounds.size()+1 entries).
  std::vector<uint64_t> HistogramCounts(MetricId id) const;

  const MetricDef& def(MetricId id) const { return defs_[id]; }
  size_t size() const { return defs_.size(); }

  /// Merged values of every metric, in registration order.
  std::vector<MetricRow> Snapshot() const;

 private:
  MetricId Register(MetricKind kind, std::string name, LabelSet labels,
                    std::vector<double> bounds);
  void InitShard(MetricsShard* shard) const;

  std::vector<MetricDef> defs_;
  /// (kind, name, labels) -> id, for idempotent registration.
  std::map<std::string, MetricId> by_key_;
  size_t num_counters_ = 0;
  size_t num_gauges_ = 0;
  size_t num_hists_ = 0;
  size_t hist_cells_ = 0;
  MetricsShard total_;
};

}  // namespace exdl::obs

#endif  // EXDL_OBS_METRICS_H_
