// Delta views over one generation boundary (DESIGN.md §16).
//
// Relation insertion order is stable, so after new facts are appended the
// suffix [watermark, size) of each relation IS that generation's delta —
// no tuples are copied, no per-tuple tags are kept. DeltaWatermarks
// snapshots the per-predicate sizes at a boundary. The IVM subsystem
// (src/ivm) captures watermarks before absorbing a fact load and feeds
// them to the evaluator's resume cursor (EvalCursor::delta_lo), so the
// semi-naive delta loop joins exactly these suffixes instead of
// re-running round 0.

#ifndef EXDL_STORAGE_DELTA_VIEW_H_
#define EXDL_STORAGE_DELTA_VIEW_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/database.h"

namespace exdl {

/// Per-predicate relation sizes captured at a generation boundary.
/// Predicates absent at capture time read as watermark 0, so relations
/// created by a later generation are entirely delta.
class DeltaWatermarks {
 public:
  DeltaWatermarks() = default;

  /// Snapshots every relation's current size.
  static DeltaWatermarks Capture(const Database& db) {
    DeltaWatermarks marks;
    marks.marks_.reserve(db.relations().size());
    for (const auto& [pred, rel] : db.relations()) {
      marks.marks_.emplace_back(pred, static_cast<uint32_t>(rel.size()));
    }
    std::sort(marks.marks_.begin(), marks.marks_.end());
    return marks;
  }

  /// The captured size of `pred` (0 if it did not exist yet).
  uint32_t WatermarkOf(PredId pred) const {
    auto it = std::lower_bound(
        marks_.begin(), marks_.end(), std::make_pair(pred, uint32_t{0}),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    return it != marks_.end() && it->first == pred ? it->second : 0;
  }

  /// Rows past the watermark, summed over every relation of `db`.
  uint64_t RowsSince(const Database& db) const {
    uint64_t rows = 0;
    for (const auto& [pred, rel] : db.relations()) {
      const uint32_t lo = WatermarkOf(pred);
      if (rel.size() > lo) rows += rel.size() - lo;
    }
    return rows;
  }

  /// Cursor entries for a semi-naive re-entry over `db`: one
  /// (pred, watermark) pair per relation currently in `db`, sorted by
  /// PredId — exactly the shape EvalCursor::delta_lo wants. Relations
  /// created since capture get watermark 0 (fully delta).
  std::vector<std::pair<PredId, uint32_t>> CursorEntries(
      const Database& db) const {
    std::vector<std::pair<PredId, uint32_t>> entries;
    entries.reserve(db.relations().size());
    for (const auto& [pred, rel] : db.relations()) {
      entries.emplace_back(pred, WatermarkOf(pred));
    }
    std::sort(entries.begin(), entries.end());
    return entries;
  }

 private:
  std::vector<std::pair<PredId, uint32_t>> marks_;  ///< Sorted by PredId.
};

}  // namespace exdl

#endif  // EXDL_STORAGE_DELTA_VIEW_H_
