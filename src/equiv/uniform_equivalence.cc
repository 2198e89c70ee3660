#include "equiv/uniform_equivalence.h"

#include "equiv/freeze.h"
#include "eval/evaluator.h"

namespace exdl {
namespace {

/// Does `program` derive the (ground) `goal` when run on `input`?
Result<bool> Derives(const Program& program, const Database& input,
                     const Atom& goal) {
  EvalOptions options;
  Program goal_query = program.Clone();
  goal_query.SetQuery(goal);
  options.stop_on_ground_query = true;
  EXDL_ASSIGN_OR_RETURN(EvalResult result,
                        Evaluate(goal_query, input, options));
  return result.ground_query_true;
}

}  // namespace

Result<bool> UniformlyContains(const Program& p2, const Program& p1) {
  if (p1.HasNegation() || p2.HasNegation()) {
    return Status::FailedPrecondition(
        "uniform containment is only defined here for positive programs");
  }
  for (const Rule& rule : p1.rules()) {
    FrozenRule frozen = FreezeRule(rule, p2);
    EXDL_ASSIGN_OR_RETURN(bool derived,
                          Derives(p2, frozen.body_facts, frozen.head));
    if (!derived) return false;
  }
  return true;
}

Result<bool> UniformlyEquivalent(const Program& p1, const Program& p2) {
  EXDL_ASSIGN_OR_RETURN(bool a, UniformlyContains(p2, p1));
  if (!a) return false;
  return UniformlyContains(p1, p2);
}

Result<bool> DeletableUnderUniformEquivalence(const Program& program,
                                              size_t rule_index) {
  if (rule_index >= program.rules().size()) {
    return Status::InvalidArgument("rule index out of range");
  }
  if (program.HasNegation()) {
    return Status::FailedPrecondition(
        "the frozen-instance test requires a positive program");
  }
  Program without = Program(program.context());
  for (size_t i = 0; i < program.rules().size(); ++i) {
    if (i != rule_index) without.AddRule(program.rules()[i]);
  }
  if (program.query()) without.SetQuery(*program.query());
  FrozenRule frozen = FreezeRule(program.rules()[rule_index], program);
  return Derives(without, frozen.body_facts, frozen.head);
}

}  // namespace exdl
