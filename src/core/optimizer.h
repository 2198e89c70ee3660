// The optimizer pipeline — the paper's end-to-end compilation:
//
//   adorn (Section 2)
//     -> push projections (Section 3.2, Lemma 3.2)
//     -> extract existential components (Section 3.1, Lemma 3.1)
//     -> add covering unit rules (Section 5)
//     -> delete redundant rules (Algorithm 5.2; summaries, optionally
//        Sagiv's UE test and the optimistic Theorem 5.2 test)
//     -> retract added unit rules that ended up load-free
//     -> cleanup
//     -> unfold predicates deletion left non-recursive and used once
//        (transform/unfolding.h)
//     -> factor a bound query on a linear recursive predicate
//        (transform/factoring.h; skipped when magic is requested)
//   [ -> magic-set rewriting (orthogonal selection pushing) ]
//
// Every phase preserves the query answers for all instances of the input
// (EDB) schema; the tests verify this property on random instances.

#ifndef EXDL_CORE_OPTIMIZER_H_
#define EXDL_CORE_OPTIMIZER_H_

#include <optional>
#include <vector>

#include "ast/program.h"
#include "core/report.h"
#include "transform/rule_deletion.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace exdl {

namespace obs {
class Telemetry;
}  // namespace obs

struct OptimizerOptions {
  bool adorn = true;
  bool push_projections = true;
  bool extract_components = true;
  bool add_unit_rules = true;
  bool delete_rules = true;
  /// Deletion backends; input_preds is filled by the optimizer.
  DeletionOptions deletion;
  /// Also apply magic sets at the end (selection pushing; Section 1/6's
  /// orthogonality). Requires constants in the query to be useful.
  bool apply_magic = false;
  /// Example 11's folding heuristic: fold almost-unit rule bodies into
  /// auxiliary predicates, retry deletion, then inline the auxiliaries
  /// away. Off by default (the paper calls the fold "essentially a
  /// guess").
  bool enable_folding = false;
  /// External cancellation, polled between phases. Every phase preserves
  /// query equivalence, so cancelling returns the program as optimized by
  /// the completed prefix of phases — still a correct program — with
  /// OptimizedProgram::termination set to kCancelled. Not owned.
  const CancellationToken* cancellation = nullptr;
  /// Observability sink: when non-null, each phase records a trace span
  /// ("optimize > phase:<name>") with rule-delta attrs plus registry
  /// counters (optimize.rules_deleted, ...). Null = no-op; results and
  /// report text are byte-identical either way. Not owned.
  obs::Telemetry* telemetry = nullptr;
};

struct OptimizedProgram {
  Program program;
  /// Set when magic or factoring was applied: insert into the EDB before
  /// evaluating (Session::Run does).
  std::optional<Atom> magic_seed;
  OptimizationReport report;
  /// OK when the full pipeline ran; kCancelled when it stopped early at a
  /// phase boundary (program holds the completed-prefix result and
  /// report.interrupted_before names the phase that did not run).
  Status termination;
};

/// Runs the pipeline. `program` must have a query; base predicates form
/// the input schema. `fact_preds` names the predicates of the program's
/// own source facts: when one is derived (some rule defines it) or
/// adorned, no phase runs — the rewrites would drop those facts — and
/// report.log says why.
Result<OptimizedProgram> OptimizeExistential(
    const Program& program, const OptimizerOptions& options = {},
    const std::vector<PredId>& fact_preds = {});

}  // namespace exdl

#endif  // EXDL_CORE_OPTIMIZER_H_
