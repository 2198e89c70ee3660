// Optimization report: what every phase of the pipeline did.
//
// The report is structured: `phases` holds one entry per pipeline phase
// that was reached (in execution order), with timing, the rule-count
// delta, a human-readable detail line, and an interrupted flag for the
// phase a cancellation stopped in front of. ToString() renders purely
// from that structure (plus the summary counters below); the JSON
// telemetry export (DESIGN.md §10) emits the same entries as "phases"
// rows.

#ifndef EXDL_CORE_REPORT_H_
#define EXDL_CORE_REPORT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace exdl {

/// One executed (or interrupted) pipeline phase.
struct OptimizationPhase {
  /// Machine name, stable across releases: "adorn", "projection",
  /// "components", "unit_rules", "deletion", "folding", "cleanup",
  /// "unfold", "factor", "magic". Trace spans are named "phase:<name>".
  /// Always a string literal: every cached compile artifact keeps its
  /// report, so an entry stays small.
  std::string_view name;
  /// Wall-clock seconds inside the phase (0 for interrupted entries).
  double seconds = 0;
  size_t rules_before = 0;
  size_t rules_after = 0;
  /// True when cancellation stopped the pipeline before this phase ran;
  /// such an entry is always the last one and carries no timing.
  bool interrupted = false;
  /// Human-readable summary ("projection pushing: 1 predicate(s), ...");
  /// empty when the phase ran but had nothing to report.
  std::string detail;

  /// rules_after - rules_before (negative = rules removed).
  long long RuleDelta() const {
    return static_cast<long long>(rules_after) -
           static_cast<long long>(rules_before);
  }
};

struct OptimizationReport {
  size_t original_rules = 0;
  size_t final_rules = 0;

  /// Per-phase entries in execution order; see OptimizationPhase.
  std::vector<OptimizationPhase> phases;

  // Summary counters, aggregated across phases (kept flat for callers
  // that test a single quantity; the per-phase story lives in `phases`).

  // Phase 0 — adornment (Section 2).
  bool adorned = false;
  size_t adorned_rules = 0;

  // Phase 2 — projection pushing (Section 3.2). (Numbered as in the
  // paper; this implementation runs it before component extraction, see
  // transform/components.h.)
  size_t predicates_projected = 0;
  size_t positions_dropped = 0;

  // Phase 1 — connected components (Section 3.1).
  size_t booleans_created = 0;
  size_t rules_split = 0;

  // Phase 3 — rule deletion (Sections 3.3 & 5).
  size_t unit_rules_added = 0;
  size_t unit_rules_retracted = 0;
  size_t deleted_by_subsumption = 0;
  size_t deleted_by_summary = 0;
  size_t deleted_by_sagiv = 0;
  size_t deleted_by_optimistic = 0;
  size_t removed_by_cleanup = 0;

  /// Predicates the unfold phase inlined away (transform/unfolding.h).
  size_t predicates_unfolded = 0;

  // Example 11 folding (optional phase).
  size_t rules_folded = 0;
  size_t bodies_folded = 0;
  size_t deleted_after_folding = 0;

  /// Bound-query factoring (transform/factoring.h) rewrote the query
  /// predicate; magic_applied and factored are never both set.
  bool factored = false;
  bool magic_applied = false;

  /// Wall-clock time spent inside OptimizeExistential.
  double optimize_seconds = 0;

  /// Non-empty when the pipeline was cancelled: names the first phase
  /// that did NOT run (everything before it completed normally). The
  /// same phase is the `interrupted` entry at the back of `phases`.
  std::string interrupted_before;

  /// Per-deletion justifications and other notes, in order.
  std::vector<std::string> log;

  std::string ToString() const;
};

}  // namespace exdl

#endif  // EXDL_CORE_REPORT_H_
