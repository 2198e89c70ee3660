#include "eval/plan.h"

#include <algorithm>

#include "util/string_util.h"

namespace exdl {
namespace {

// Rule bodies are tiny (max_body_literals caps them), so every symbol /
// register set below is a flat vector with linear membership — compiling a
// rule on the hot path (one-shot Evaluate compiles per call) allocates a
// handful of short vectors and no hash tables.

bool VecContains(const std::vector<SymbolId>& v, SymbolId x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Compile-time working sets, reused across CompileRule calls on the same
/// thread: one-shot Evaluate compiles every rule per call, so after the
/// first rule these vectors never reallocate (their capacity is bounded by
/// the largest rule seen).
struct CompileScratch {
  std::vector<SymbolId> reg_syms;  ///< register r holds reg_syms[r]
  std::vector<SymbolId> bound;     ///< variables bound so far (ordering)
  std::vector<size_t> order;       ///< chosen literal order
  std::vector<char> used;          ///< literal already placed in order
  std::vector<char> bound_regs;    ///< register bound by an earlier step
};

/// Number of argument positions of `atom` that are constants or variables
/// in `bound`.
size_t BoundArgCount(const Atom& atom, const std::vector<SymbolId>& bound) {
  size_t n = 0;
  for (const Term& t : atom.args) {
    if (t.IsConst() || VecContains(bound, t.id())) ++n;
  }
  return n;
}

}  // namespace

Result<RulePlan> CompileRule(const Rule& rule, const PlanOptions& options,
                             size_t first_body_position) {
  if (options.max_body_literals != 0 &&
      rule.body.size() > options.max_body_literals) {
    return Status::InvalidArgument(
        "rule body has " + std::to_string(rule.body.size()) +
        " literals, above the plan limit of " +
        std::to_string(options.max_body_literals));
  }
  RulePlan plan;
  plan.head_pred = rule.head.pred;
  plan.steps.reserve(rule.body.size());
  plan.head_args.reserve(rule.head.args.size());

  static thread_local CompileScratch scratch;
  std::vector<SymbolId>& reg_syms = scratch.reg_syms;
  reg_syms.clear();
  auto reg_for = [&](SymbolId v) {
    for (uint32_t r = 0; r < reg_syms.size(); ++r) {
      if (reg_syms[r] == v) return r;
    }
    reg_syms.push_back(v);
    return static_cast<uint32_t>(reg_syms.size() - 1);
  };

  // Choose a literal order. A negated literal is only eligible once every
  // one of its variables is bound by earlier positive literals (safe
  // negation); in no-reorder mode the written order must already satisfy
  // this.
  auto fully_bound = [](const Atom& atom,
                        const std::vector<SymbolId>& bound) {
    for (const Term& t : atom.args) {
      if (t.IsVar() && !VecContains(bound, t.id())) return false;
    }
    return true;
  };
  std::vector<size_t>& order = scratch.order;
  order.clear();
  {
    std::vector<char>& used = scratch.used;
    used.assign(rule.body.size(), 0);
    std::vector<SymbolId>& bound = scratch.bound;
    bound.clear();
    // Delta-first forcing: pin the designated literal as step 0, then let
    // the usual ordering place the rest behind it (their scores now see
    // the forced literal's variables as bound, so joins against it become
    // index probes).
    if (first_body_position != static_cast<size_t>(-1)) {
      const size_t first = first_body_position;
      if (first >= rule.body.size() || rule.body[first].negated) {
        return Status::InvalidArgument(
            "first_body_position must name a positive body literal");
      }
      used[first] = 1;
      order.push_back(first);
      for (const Term& t : rule.body[first].args) {
        if (t.IsVar() && !VecContains(bound, t.id())) bound.push_back(t.id());
      }
    }
    for (size_t k = order.size(); k < rule.body.size(); ++k) {
      size_t best = static_cast<size_t>(-1);
      size_t best_score = 0;
      bool have_best = false;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (used[i]) continue;
        const Atom& atom = rule.body[i];
        if (atom.negated && !fully_bound(atom, bound)) continue;
        size_t score = BoundArgCount(atom, bound);
        // Prefer eligible negated literals immediately (they only filter).
        if (atom.negated) score += atom.args.size() + 1;
        if (!have_best || (options.reorder && score > best_score)) {
          best = i;
          best_score = score;
          have_best = true;
          // No-reorder mode: first eligible literal in written order.
          if (!options.reorder) break;
        }
      }
      if (!have_best) {
        return Status::InvalidArgument(
            "unsafe negation: a negated literal's variable is never bound "
            "by a positive literal");
      }
      used[best] = true;
      order.push_back(best);
      if (!rule.body[best].negated) {
        for (const Term& t : rule.body[best].args) {
          if (t.IsVar() && !VecContains(bound, t.id())) {
            bound.push_back(t.id());
          }
        }
      }
    }
  }

  // Compile literals in the chosen order. Registers are dense ids, so the
  // bound set is a flag per register.
  std::vector<char>& bound_regs = scratch.bound_regs;
  bound_regs.clear();
  plan.step_of_body_position.assign(rule.body.size(), 0);
  for (size_t step_idx = 0; step_idx < order.size(); ++step_idx) {
    size_t body_pos = order[step_idx];
    const Atom& atom = rule.body[body_pos];
    LiteralStep step;
    step.pred = atom.pred;
    step.body_position = body_pos;
    step.negated = atom.negated;
    step.args.reserve(atom.args.size());
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      if (t.IsConst()) {
        step.args.push_back(ArgSpec::Const(t.id()));
        step.index_columns.push_back(static_cast<uint32_t>(i));
        continue;
      }
      uint32_t reg = reg_for(t.id());
      if (reg >= bound_regs.size()) bound_regs.resize(reg + 1, 0);
      step.args.push_back(ArgSpec::Reg(reg));
      if (bound_regs[reg]) {
        step.index_columns.push_back(static_cast<uint32_t>(i));
      } else if (atom.negated) {
        // The ordering above guarantees this cannot happen.
        return Status::Internal("negated literal scheduled before binding");
      } else if (std::find(step.binds.begin(), step.binds.end(), reg) ==
                 step.binds.end()) {
        step.binds.push_back(reg);  // first occurrence in this literal
      }
      // A repeated new variable within the literal is checked by the
      // executor (first occurrence binds, later ones compare).
    }
    for (uint32_t r : step.binds) bound_regs[r] = 1;
    plan.step_of_body_position[body_pos] = step_idx;
    plan.steps.push_back(std::move(step));
  }

  // Compile the head; every head variable must be bound by the body.
  for (const Term& t : rule.head.args) {
    if (t.IsConst()) {
      plan.head_args.push_back(ArgSpec::Const(t.id()));
      continue;
    }
    auto it = std::find(reg_syms.begin(), reg_syms.end(), t.id());
    const size_t reg = static_cast<size_t>(it - reg_syms.begin());
    if (it == reg_syms.end() || reg >= bound_regs.size() ||
        !bound_regs[reg]) {
      return Status::InvalidArgument(
          "unsafe rule: head variable not bound by any body literal");
    }
    plan.head_args.push_back(ArgSpec::Reg(static_cast<uint32_t>(reg)));
  }

  plan.num_regs = static_cast<uint32_t>(reg_syms.size());

  // Bitset eligibility (DESIGN.md §14). Per literal: a unary membership
  // test — one argument, fully bound (constant or earlier-bound register),
  // so index_columns == {0} and nothing binds. Per rule: step 0 must be a
  // pure scan over an arity-1/2 relation binding only fresh distinct
  // registers, and every later step must be a unary membership test except
  // at most one binary index probe binding exactly one fresh register.
  // Rules outside this shape run the generic descent (counted in
  // storage.representation.fallbacks); answers and counters are identical
  // either way. A lone scan (a projection) may have any arity.
  plan.bitset_eligible = !plan.steps.empty();
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    LiteralStep& step = plan.steps[s];
    step.bitset_eligible = step.args.size() == 1 &&
                           step.index_columns.size() == 1 &&
                           step.binds.empty();
    if (s == 0) {
      if (step.negated || !step.index_columns.empty() ||
          step.args.empty() ||
          (step.args.size() > 2 && plan.steps.size() > 1) ||
          step.binds.size() != step.args.size()) {
        plan.bitset_eligible = false;
      }
      continue;
    }
    if (step.bitset_eligible) continue;  // unary test, positive or negated
    if (!step.negated && step.args.size() == 2 &&
        step.index_columns.size() == 1 && step.binds.size() == 1 &&
        plan.binary_probe_step == static_cast<size_t>(-1)) {
      plan.binary_probe_step = s;
      continue;
    }
    plan.bitset_eligible = false;
  }
  if (!plan.bitset_eligible) {
    plan.binary_probe_step = static_cast<size_t>(-1);
  }
  plan.projection = plan.bitset_eligible && plan.steps.size() == 1;
  return plan;
}

}  // namespace exdl

namespace exdl {

std::string PlanToString(const Context& ctx, const RulePlan& plan) {
  auto render_args = [&](const std::vector<ArgSpec>& args) {
    std::string out = "(";
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) out += ", ";
      if (args[i].kind == ArgSpec::Kind::kConst) {
        out += ctx.SymbolName(args[i].const_value);
      } else {
        out += StrCat("r", std::to_string(args[i].reg));
      }
    }
    out += ")";
    return out;
  };
  std::string out;
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const LiteralStep& step = plan.steps[s];
    out += "  step " + std::to_string(s) + ": ";
    if (step.negated) out += "anti-join ";
    out += ctx.PredicateDisplayName(step.pred) + render_args(step.args);
    if (step.index_columns.empty()) {
      out += "  [scan]";
    } else if (step.bitset_eligible) {
      out += "  [bitset probe]";
    } else {
      out += "  [index on (";
      for (size_t i = 0; i < step.index_columns.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(step.index_columns[i]);
      }
      out += ")]";
    }
    if (!step.binds.empty()) {
      out += " binds";
      for (uint32_t r : step.binds) out += " r" + std::to_string(r);
    }
    out += "\n";
  }
  out += "  emit " + ctx.PredicateDisplayName(plan.head_pred) +
         render_args(plan.head_args);
  if (plan.bitset_eligible) out += "  [bitset-eligible]";
  out += "\n";
  return out;
}

}  // namespace exdl
