#include "transform/unfolding.h"

#include <algorithm>
#include <unordered_map>

#include "analysis/dependency_graph.h"

namespace exdl {
namespace {

/// True when `rule` is the single definition UnfoldPredicates may inline:
/// head arguments distinct variables, a non-empty body, and no occurrence
/// of its own head predicate in the body.
bool IsInlinableDefinition(const Rule& rule) {
  if (rule.body.empty() || rule.BodyContains(rule.head.pred)) return false;
  std::vector<SymbolId> seen;
  for (const Term& t : rule.head.args) {
    if (!t.IsVar()) return false;
    if (std::find(seen.begin(), seen.end(), t.id()) != seen.end()) {
      return false;
    }
    seen.push_back(t.id());
  }
  return true;
}

/// Replaces body literal `pos` of `rule` by `def`'s body (see
/// UnfoldPredicates for the renaming).
void InlineAt(const Rule& def, size_t pos, Rule* rule, Context& ctx) {
  std::vector<SymbolId> used = rule->Vars();
  const Atom call = rule->body[pos];
  std::unordered_map<SymbolId, Term> subst;
  for (size_t i = 0; i < def.head.args.size(); ++i) {
    subst.emplace(def.head.args[i].id(), call.args[i]);
  }
  size_t next_name = 0;
  auto taken = [&](SymbolId name) {
    return std::find(used.begin(), used.end(), name) != used.end();
  };
  auto rename = [&](SymbolId v) {
    const SymbolId name =
        taken(v) ? ctx.InternUnused("I", &next_name, taken) : v;
    used.push_back(name);
    return Term::Var(name);
  };
  std::vector<Atom> inlined;
  inlined.reserve(def.body.size());
  for (const Atom& lit : def.body) {
    Atom copy = lit;
    for (Term& t : copy.args) {
      if (!t.IsVar()) continue;
      auto it = subst.find(t.id());
      if (it == subst.end()) it = subst.emplace(t.id(), rename(t.id())).first;
      t = it->second;
    }
    inlined.push_back(std::move(copy));
  }
  auto at = rule->body.erase(rule->body.begin() +
                             static_cast<std::ptrdiff_t>(pos));
  rule->body.insert(at, inlined.begin(), inlined.end());
}

}  // namespace

Result<UnfoldResult> UnfoldPredicates(
    const Program& program, const std::unordered_set<PredId>& targets) {
  UnfoldResult out{program.Clone(), 0};
  Program& unfolded = out.program;
  Context& ctx = program.ctx();
  // Sorted, so renamed variables do not depend on hash-set order.
  std::vector<PredId> order(targets.begin(), targets.end());
  std::sort(order.begin(), order.end());
  for (PredId p : order) {
    if (unfolded.query() && unfolded.query()->pred == p) continue;
    std::vector<size_t> defs = unfolded.RulesDefining(p);
    if (defs.size() != 1) continue;
    const Rule def = unfolded.rules()[defs[0]];
    if (!IsInlinableDefinition(def)) continue;
    bool used_negated = false;
    for (const Rule& r : unfolded.rules()) {
      for (const Atom& lit : r.body) {
        used_negated = used_negated || (lit.pred == p && lit.negated);
      }
    }
    if (used_negated) continue;

    std::vector<Rule> rules;
    rules.reserve(unfolded.rules().size() - 1);
    for (size_t ri = 0; ri < unfolded.rules().size(); ++ri) {
      if (ri == defs[0]) continue;  // the definition goes away
      Rule rule = unfolded.rules()[ri];
      // Inlined literals never name p (the definition is not recursive),
      // so the scan moves forward past each inlined stretch.
      for (size_t pos = 0; pos < rule.body.size();) {
        if (rule.body[pos].pred != p) {
          ++pos;
          continue;
        }
        InlineAt(def, pos, &rule, ctx);
        pos += def.body.size();
      }
      rules.push_back(std::move(rule));
    }
    unfolded.mutable_rules() = std::move(rules);
    ++out.unfolded;
  }
  return out;
}

Result<UnfoldResult> UnfoldNonRecursive(const Program& program) {
  const Context& ctx = program.ctx();
  const DependencyGraph graph(program);
  // Body occurrences per predicate, and the rule of the last one seen.
  std::unordered_map<PredId, std::pair<size_t, size_t>> uses;
  for (size_t ri = 0; ri < program.rules().size(); ++ri) {
    for (const Atom& lit : program.rules()[ri].body) {
      auto& [count, rule] = uses[lit.pred];
      ++count;
      rule = ri;
    }
  }
  // Conditions 4 and 5 here; UnfoldPredicates checks 1, 2 and that the
  // use is positive. A cycle through p would pass through its one use,
  // so a non-recursive using head also makes p non-recursive (3).
  std::unordered_set<PredId> targets;
  for (const auto& [p, use] : uses) {
    const auto& [count, rule] = use;
    if (count != 1 || graph.IsRecursive(program.rules()[rule].head.pred)) {
      continue;
    }
    if (!ctx.MayHoldBaseFacts(p)) targets.insert(p);
  }
  return UnfoldPredicates(program, targets);
}

}  // namespace exdl
