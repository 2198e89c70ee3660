// Argument reduction by factoring for bound queries on linear recursive
// predicates (Naughton, Ramakrishnan, Sagiv, Ullman, "Argument Reduction
// by Factoring", VLDB 1989; DESIGN.md "Factoring bound queries").
//
// A query p(c̄, Ȳ) with constants c̄ at the bound positions and distinct
// variables Ȳ at the free ones asks for S(c̄) = {ȳ : p(c̄, ȳ)}. When every
// rule for p is an exit rule, a right-linear rule (the free arguments pass
// unchanged from the recursive literal to the head) or a left-linear rule
// (the bound arguments pass unchanged), S(c̄) factors into two unary-style
// closures:
//
//   reach(c̄).                               (the seed)
//   reach(Z̄) :- reach(X̄), rest.             (each right-linear rule)
//   ans(Ȳ)   :- reach(X̄), body.             (each exit rule)
//   ans(Ȳ)   :- ans(Z̄), rest.               (each left-linear rule)
//   ?- ans(Ȳ).
//
// reach holds the bound tuples the right-linear rules walk to from c̄, and
// ans their exit answers closed under the left-linear steps — the
// bound-argument twin of the paper's §3.2 projection pushing. On
// `tc(X, Y) :- e(X, Z), tc(Z, Y)` with `?- tc(c, Y)` the evaluator then
// derives the reachable set of c instead of the whole binary closure.
//
// reach and ans are named `reach$p_<pattern>` and `ans$p_<pattern>`
// (pattern over {b,f}). '$' is not an identifier character, so no program
// text or LOAD_FACTS can put facts in them. The seed is returned as an
// atom for the caller's session EDB, exactly like a magic-set seed; the
// optimizer stores it in OptimizedProgram::magic_seed.

#ifndef EXDL_TRANSFORM_FACTORING_H_
#define EXDL_TRANSFORM_FACTORING_H_

#include <cstddef>

#include "ast/program.h"
#include "util/status.h"

namespace exdl {

struct FactoringResult {
  Program program;  ///< Rewritten rules; query retargeted at `ans`.
  Atom seed_fact;   ///< reach(c̄) — insert before evaluating.
  PredId factored = kInvalidId;  ///< The query predicate p.
  size_t exit_rules = 0;
  size_t right_linear_rules = 0;
  size_t left_linear_rules = 0;
};

/// Factors `program` for its query. kFailedPrecondition, naming the first
/// condition that failed, when the program is outside the accepted shape:
///   * negation anywhere in the program;
///   * the query binds no position, or every position (an all-bound query
///     is a membership test, which the existential pipeline already
///     answers without recursion through the free side), or its free
///     positions are not distinct variables;
///   * p is a base predicate, shares its SCC with another predicate, or
///     has no recursive rule;
///   * some rule for p has a constant or a repeated variable at a bound
///     head position, more than one p-literal, or is neither an exit,
///     right-linear nor left-linear rule in the sense above.
/// Rules for predicates p depends on pass through unchanged; rules above
/// p are unreachable from the new query and are dropped.
Result<FactoringResult> FactorBoundQuery(const Program& program);

}  // namespace exdl

#endif  // EXDL_TRANSFORM_FACTORING_H_
