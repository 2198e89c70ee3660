// Connected-component extraction (Section 3.1, Lemma 3.1).
//
// Each rule body is partitioned into variable-connectivity components; a
// component disconnected from the head becomes a fresh 0-ary boolean
// predicate B_i defined by its own rule `B_i :- C_i`, and the original
// body keeps only the head component plus the B_i literals (Example 2).
// At run time the evaluator retires a boolean rule once it has fired —
// the bottom-up analogue of Prolog's cut.
//
// A component that touches the head only through existential ('d') head
// positions is left in place: detaching it would unbind a head variable.
// Running PushProjections first removes those positions, after which this
// pass detaches the component — together the two passes produce exactly
// the paper's phase-1+2 rewriting.

#ifndef EXDL_TRANSFORM_COMPONENTS_H_
#define EXDL_TRANSFORM_COMPONENTS_H_

#include "ast/program.h"
#include "util/status.h"

namespace exdl {

struct ComponentResult {
  Program program;
  size_t booleans_created = 0;  ///< Fresh B_i predicates introduced.
  size_t rules_split = 0;       ///< Rules that lost at least one component.
};

/// The booleans are named bq_0, bq_1, ... per call, skipping every name
/// a predicate of `program` or of `reserved_preds` (the optimizer passes
/// the source program's and its facts' predicates) already has. Later
/// compiles over the same Context reuse those predicates instead of
/// interning new ones.
Result<ComponentResult> ExtractComponents(
    const Program& program, const std::vector<PredId>& reserved_preds = {});

}  // namespace exdl

#endif  // EXDL_TRANSFORM_COMPONENTS_H_
