// Unfolding: inline a predicate defined by one non-recursive rule into the
// rules that use it (DESIGN.md "Unfolding what deletion leaves
// non-recursive").
//
// Two clients share the one inliner, UnfoldPredicates:
//   * folding's residue (transform/folding.h): Example 11's auxiliaries
//     are inlined away after deletion has run, so folding never leaves a
//     predicate behind;
//   * the optimizer's `unfold` phase, UnfoldNonRecursive: after projection
//     and rule deletion, §3's existential queries often leave a
//     non-recursive adorned predicate (`tc@nd(X) :- e(X, Y).` for
//     `tc(Y, _)`) that the evaluator would otherwise materialize in full to
//     answer one join. Inlining it into its single use
//
//         hit :- e(c, Y), tc@nd(Y).    =>    hit :- e(c, Y), e(Y, I_0).
//         tc@nd(X) :- e(X, Y).
//
//     turns the boolean into one probe.

#ifndef EXDL_TRANSFORM_UNFOLDING_H_
#define EXDL_TRANSFORM_UNFOLDING_H_

#include <unordered_set>

#include "ast/program.h"
#include "util/status.h"

namespace exdl {

struct UnfoldResult {
  Program program;
  size_t unfolded = 0;  ///< Predicates inlined away.
};

/// Inlines away every predicate in `targets` that is not the query
/// predicate, is defined by exactly one rule, does not occur in that rule's
/// body, has distinct variables as head arguments and a non-empty body, and
/// is never used negated. Each body literal naming such a predicate is
/// replaced, in place, by the definition's body under the substitution
/// head variable -> call argument; the definition's other variables keep
/// their names unless the using rule already has them, in which case they
/// become the first free of I_0, I_1, ... Those names are reused by every
/// compile, so inlining interns at most as many symbols as the widest
/// rule needs. Predicates that do not meet the conditions stay as they
/// are. (A derived predicate without rules is not touched either: it has
/// no definition to inline.)
Result<UnfoldResult> UnfoldPredicates(
    const Program& program, const std::unordered_set<PredId>& targets);

/// The optimizer's `unfold` phase on a negation-free program. Inlines every
/// predicate p that
///   1. is derived and is not the query predicate;
///   2. has exactly one defining rule, whose head arguments are distinct
///      variables;
///   3. is not recursive (implied by 4: a cycle through p would run
///      through the rule that uses it);
///   4. occurs in exactly one body literal of the program, positively, in
///      a rule whose head predicate is not recursive (the inlined join
///      then runs once, not once per round);
///   5. cannot hold base facts: p is an adorned version or a `$` predicate,
///      which neither program text nor LOAD_FACTS can name. (Source facts
///      naming a derived or adorned predicate stop the whole optimizer
///      before this phase; see core/optimizer.h.)
Result<UnfoldResult> UnfoldNonRecursive(const Program& program);

}  // namespace exdl

#endif  // EXDL_TRANSFORM_UNFOLDING_H_
