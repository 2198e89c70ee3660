// Folding — the rewriting "guess" of Example 11.
//
// Example 9's fourth rule is deletable under uniform query equivalence but
// the summary tests cannot see it because no unit rule matches. Example 11
// fixes this by *folding*: the body of an almost-unit rule (one derived
// literal plus extra literals) becomes a fresh auxiliary predicate
//
//     p^nd(X)        :- q^nn(X,Y,Z,U).
//     q^nn(X,Y,Z,U)  :- p^nn(X,Y), g3(Y,Z,U).
//
// and every other rule containing an instance of the same body pattern is
// folded onto the auxiliary too, after which the first rule IS a unit rule
// and Lemma 5.1/5.3 fire. The paper calls the choice of what to fold
// "essentially a guess"; the heuristic here folds a rule body exactly when
// some *other* rule contains a homomorphic instance of it (so the fold can
// actually enable a subsumption).
//
// UnfoldPredicates (transform/unfolding.h) inverts the move after deletion
// has run: every surviving auxiliary (single defining rule, non-recursive,
// used only positively) is inlined away, so folding never leaves residue.

#ifndef EXDL_TRANSFORM_FOLDING_H_
#define EXDL_TRANSFORM_FOLDING_H_

#include <unordered_set>
#include <vector>

#include "ast/program.h"
#include "util/status.h"

namespace exdl {

struct FoldingResult {
  Program program;
  size_t rules_folded = 0;     ///< Candidate rules turned into unit rules.
  size_t bodies_folded = 0;    ///< Pattern instances replaced elsewhere.
  std::unordered_set<PredId> aux_preds;  ///< The introduced predicates.
};

/// Applies the Example 11 fold to every profitable candidate (see file
/// comment). Positive programs only (folding through negation would hide
/// literals under the auxiliary). The auxiliaries are named fold_0,
/// fold_1, ... per call, skipping every name a predicate of `program` or
/// of `reserved_preds` already has (as ExtractComponents does), so
/// repeated compiles over one Context reuse them.
Result<FoldingResult> FoldAlmostUnitRules(
    const Program& program, const std::vector<PredId>& reserved_preds = {});

}  // namespace exdl

#endif  // EXDL_TRANSFORM_FOLDING_H_
