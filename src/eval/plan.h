// Rule compilation: turn a rule into an executable join plan.
//
// Execution model: a register file holds one Value per rule variable; body
// literals are processed in a chosen order. For each literal, arguments
// that are constants or already-bound variables form an index key; the
// relation's hash index enumerates matching rows, the remaining arguments
// bind fresh registers (with equality checks for repeated variables), and
// control recurses to the next literal. When all literals match, the head
// tuple is emitted.

#ifndef EXDL_EVAL_PLAN_H_
#define EXDL_EVAL_PLAN_H_

#include <cstdint>
#include <vector>

#include "ast/rule.h"
#include "storage/relation.h"
#include "util/status.h"

namespace exdl {

/// One argument of a compiled literal or head: a constant or a register.
struct ArgSpec {
  enum class Kind : uint8_t { kConst, kReg };
  Kind kind;
  Value const_value = 0;  ///< Valid when kind == kConst.
  uint32_t reg = 0;       ///< Valid when kind == kReg.

  static ArgSpec Const(Value v) { return {Kind::kConst, v, 0}; }
  static ArgSpec Reg(uint32_t r) { return {Kind::kReg, 0, r}; }
};

/// One body literal, compiled.
struct LiteralStep {
  PredId pred = kInvalidId;
  std::vector<ArgSpec> args;
  /// Argument positions usable as an index key: constants plus variables
  /// bound by earlier steps. Sorted ascending. For negated steps this is
  /// every position (safety requires all variables bound first).
  std::vector<uint32_t> index_columns;
  /// Registers that become bound after this step (first occurrences).
  /// Always empty for negated steps.
  std::vector<uint32_t> binds;
  /// Index of this literal in the original rule body (delta designation in
  /// semi-naive evaluation is per original body position).
  size_t body_position = 0;
  /// Anti-join: succeed iff NO matching tuple exists. Scheduled after the
  /// positive literals that bind its variables (stratified semantics: the
  /// relation read is from a strictly lower stratum and no longer grows).
  bool negated = false;
  /// Bitset-eligible literal (DESIGN.md §14): a unary membership test —
  /// arity 1 with the single position fully bound (index_columns == {0}),
  /// positive or negated. The kernels and the generic descent alike
  /// answer these from the relation's word-packed bitset, not a hash index.
  bool bitset_eligible = false;
};

/// A fully compiled rule.
struct RulePlan {
  PredId head_pred = kInvalidId;
  std::vector<ArgSpec> head_args;
  std::vector<LiteralStep> steps;
  uint32_t num_regs = 0;
  /// steps index for each original body position (inverse of
  /// LiteralStep::body_position).
  std::vector<size_t> step_of_body_position;
  /// Whole-rule bitset-kernel eligibility (DESIGN.md §14): step 0 is a
  /// pure scan binding only fresh distinct registers over an arity-1 or
  /// arity-2 relation, every later step is a unary membership test
  /// (bitset_eligible above) except at most one binary index probe that
  /// binds exactly one fresh register. The evaluator runs such rules
  /// through the batched bitset kernels (unless it records provenance);
  /// anything else falls back to the generic descent (counted in
  /// storage.representation.fallbacks), with byte-identical answers and
  /// counters either way.
  bool bitset_eligible = false;
  /// Step index of the single binary index-probe step, or SIZE_MAX when
  /// the rule has none. Meaningful only when bitset_eligible.
  size_t binary_probe_step = static_cast<size_t>(-1);
  /// Single-scan projection (DESIGN.md §14): the body is one positive
  /// literal of any arity binding only fresh distinct registers, so the
  /// head is a gather of its columns and constants. Implies
  /// bitset_eligible; the kernels emit a whole partition as one column
  /// gather instead of one head per row.
  bool projection = false;
};

struct PlanOptions {
  /// Greedily reorder body literals so that literals sharing variables with
  /// already-planned ones come first (most bound arguments wins, ties by
  /// original position). Off = execute in written order.
  bool reorder = true;
  /// Governance backstop: refuse (kInvalidArgument) rules whose body
  /// exceeds this many literals. The parser caps its own input, but
  /// programs built through the API reach the evaluator directly — an
  /// adversarial rule would otherwise cost O(n^2) in reordering and an
  /// n-deep join descent. 0 = unlimited.
  uint32_t max_body_literals = 4096;
};

/// Compiles `rule`. Fails if the rule is unsafe (a head variable that no
/// body literal binds).
///
/// `first_body_position` forces the literal at that original body
/// position to be step 0, with the remaining literals ordered as usual
/// behind it. The evaluator compiles its delta-first variant plans this
/// way: the variant's delta literal becomes the outer scan, so the
/// variant costs O(delta x probes) instead of a full outer-relation scan
/// per round. It must name a positive literal; SIZE_MAX = no forcing.
Result<RulePlan> CompileRule(
    const Rule& rule, const PlanOptions& options,
    size_t first_body_position = static_cast<size_t>(-1));

/// Human-readable plan listing: one line per step with access path
/// ("index on (0,1)" vs "scan"), negation marking, and the head emission.
std::string PlanToString(const Context& ctx, const RulePlan& plan);


}  // namespace exdl
#endif  // EXDL_EVAL_PLAN_H_
