#include "transform/components.h"

#include <unordered_set>

#include "analysis/connectivity.h"

namespace exdl {

Result<ComponentResult> ExtractComponents(
    const Program& program, const std::vector<PredId>& reserved_preds) {
  Context& ctx = program.ctx();
  ComponentResult result{Program(program.context()), 0, 0};
  std::vector<Rule> boolean_rules;

  // Predicate names the booleans must avoid: the program's own and the
  // reserved ones (a fact on a reused name would make it true).
  std::unordered_set<SymbolId> used_names;
  for (PredId p : program.AllPredicates()) {
    used_names.insert(ctx.predicate(p).name);
  }
  for (PredId p : reserved_preds) used_names.insert(ctx.predicate(p).name);
  auto taken = [&](SymbolId name) { return used_names.count(name) > 0; };
  size_t next_name = 0;

  for (const Rule& rule : program.rules()) {
    BodyComponents parts = ComputeBodyComponents(ctx, rule);
    // A single component needs no splitting: either it contains the head,
    // or the head is boolean/ground and the rule already is a
    // single-subquery rule (Lemma 3.1's "unless the head is boolean").
    if (parts.components.size() <= 1) {
      result.program.AddRule(rule);
      continue;
    }

    std::vector<SymbolId> head_vars;
    rule.head.CollectVars(&head_vars);
    std::unordered_set<SymbolId> head_var_set(head_vars.begin(),
                                              head_vars.end());

    std::unordered_set<size_t> detached_atoms;
    std::vector<Atom> boolean_literals;
    for (size_t c = 0; c < parts.components.size(); ++c) {
      if (c == parts.head_component) continue;
      const std::vector<size_t>& member_atoms = parts.components[c];
      // Detaching is only safe when the component shares no variable with
      // the head (see header comment about 'd' head positions).
      bool touches_head = false;
      for (size_t a : member_atoms) {
        for (const Term& t : rule.body[a].args) {
          if (t.IsVar() && head_var_set.count(t.id()) > 0) {
            touches_head = true;
            break;
          }
        }
        if (touches_head) break;
      }
      if (touches_head) continue;
      // A lone 0-ary literal is already a boolean flag; wrapping it in a
      // fresh B_i would only add indirection.
      if (member_atoms.size() == 1 &&
          rule.body[member_atoms[0]].args.empty()) {
        continue;
      }
      PredId boolean_pred =
          ctx.InternPredicate(ctx.InternUnused("bq", &next_name, taken),
                              /*arity=*/0);
      Rule defining;
      defining.head = Atom(boolean_pred, {});
      for (size_t a : member_atoms) defining.body.push_back(rule.body[a]);
      boolean_rules.push_back(std::move(defining));
      boolean_literals.emplace_back(boolean_pred, std::vector<Term>{});
      for (size_t a : member_atoms) detached_atoms.insert(a);
      ++result.booleans_created;
    }

    if (detached_atoms.empty()) {
      result.program.AddRule(rule);
      continue;
    }
    ++result.rules_split;
    Rule new_rule;
    new_rule.head = rule.head;
    for (size_t a = 0; a < rule.body.size(); ++a) {
      if (detached_atoms.count(a) == 0) new_rule.body.push_back(rule.body[a]);
    }
    for (Atom& b : boolean_literals) new_rule.body.push_back(std::move(b));
    result.program.AddRule(std::move(new_rule));
  }

  for (Rule& r : boolean_rules) result.program.AddRule(std::move(r));
  if (program.query()) result.program.SetQuery(*program.query());
  return result;
}

}  // namespace exdl
