#include "transform/folding.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

namespace exdl {
namespace {

/// A homomorphic match of pattern `B` into a rule body: which body
/// positions were matched, and the variable mapping.
struct Match {
  std::vector<size_t> positions;                  // one per pattern literal
  std::unordered_map<SymbolId, Term> mapping;     // pattern var -> term
};

/// Extends `match` by mapping pattern literal `b` onto `target`; returns
/// false (and leaves `match` untouched on failure paths via copy in the
/// caller) when predicates, constants or bindings conflict.
bool UnifyLiteral(const Atom& pattern, const Atom& target, Match* match) {
  if (pattern.pred != target.pred || pattern.negated || target.negated) {
    return false;
  }
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    const Term& p = pattern.args[i];
    const Term& t = target.args[i];
    if (p.IsConst()) {
      if (!(t.IsConst() && t.id() == p.id())) return false;
      continue;
    }
    auto [it, inserted] = match->mapping.emplace(p.id(), t);
    if (!inserted && !(it->second == t)) return false;
  }
  return true;
}

/// Finds a homomorphic embedding of `pattern` (all literals, distinct
/// positions) into `body`.
std::optional<Match> FindMatch(const std::vector<Atom>& pattern,
                               const std::vector<Atom>& body) {
  Match match;
  std::vector<bool> used(body.size(), false);
  // Small backtracking search; pattern sizes are 2-3 in practice.
  std::function<bool(size_t)> search = [&](size_t k) -> bool {
    if (k == pattern.size()) return true;
    for (size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      Match saved = match;
      if (UnifyLiteral(pattern[k], body[i], &match)) {
        used[i] = true;
        match.positions.push_back(i);
        if (search(k + 1)) return true;
        match.positions.pop_back();
        used[i] = false;
      }
      match = std::move(saved);
    }
    return false;
  };
  if (!search(0)) return std::nullopt;
  return match;
}

/// Distinct variables of `atoms` in first-occurrence order.
std::vector<SymbolId> PatternVars(const std::vector<Atom>& atoms) {
  std::vector<SymbolId> out;
  for (const Atom& a : atoms) a.CollectVars(&out);
  return out;
}

}  // namespace

Result<FoldingResult> FoldAlmostUnitRules(
    const Program& program, const std::vector<PredId>& reserved_preds) {
  FoldingResult result{program.Clone(), 0, 0, {}};
  if (program.HasNegation()) return result;  // positive programs only
  Context& ctx = program.ctx();
  std::unordered_set<PredId> idb = program.IdbPredicates();

  // Names the auxiliaries must avoid: those of the program's predicates
  // and of the reserved ones.
  std::unordered_set<SymbolId> used_names;
  for (PredId p : program.AllPredicates()) {
    used_names.insert(ctx.predicate(p).name);
  }
  for (PredId p : reserved_preds) used_names.insert(ctx.predicate(p).name);
  auto taken = [&](SymbolId name) { return used_names.count(name) > 0; };
  size_t next_name = 0;

  // Candidates are examined against the evolving program; each fold turns
  // its candidate into a unit rule, so the loop terminates.
  bool changed = true;
  while (changed) {
    changed = false;
    Program& p = result.program;
    for (size_t r1 = 0; r1 < p.rules().size() && !changed; ++r1) {
      const Rule& candidate = p.rules()[r1];
      if (candidate.body.size() < 2) continue;
      if (result.aux_preds.count(candidate.head.pred) > 0) continue;
      bool has_derived = false;
      for (const Atom& lit : candidate.body) {
        if (idb.count(lit.pred) > 0) has_derived = true;
      }
      if (!has_derived) continue;
      // Profitable only if some other (non-auxiliary) rule embeds the
      // pattern.
      std::vector<size_t> targets;
      for (size_t r2 = 0; r2 < p.rules().size(); ++r2) {
        if (r2 == r1) continue;
        if (result.aux_preds.count(p.rules()[r2].head.pred) > 0) continue;
        if (FindMatch(candidate.body, p.rules()[r2].body)) {
          targets.push_back(r2);
        }
      }
      if (targets.empty()) continue;

      // Fold: introduce the auxiliary over the pattern's variables.
      std::vector<SymbolId> vars = PatternVars(candidate.body);
      PredId aux =
          ctx.InternPredicate(ctx.InternUnused("fold", &next_name, taken),
                              static_cast<uint32_t>(vars.size()));
      result.aux_preds.insert(aux);
      std::vector<Atom> pattern = candidate.body;

      Rule defining;
      defining.head.pred = aux;
      for (SymbolId v : vars) defining.head.args.push_back(Term::Var(v));
      defining.body = pattern;

      Rule folded;
      folded.head = candidate.head;
      folded.body.push_back(defining.head);
      p.mutable_rules()[r1] = std::move(folded);
      ++result.rules_folded;

      for (size_t r2 : targets) {
        Rule& rule = p.mutable_rules()[r2];
        for (;;) {
          std::optional<Match> match = FindMatch(pattern, rule.body);
          if (!match) break;
          Atom replacement;
          replacement.pred = aux;
          for (SymbolId v : vars) {
            auto it = match->mapping.find(v);
            // Every pattern variable occurs in the pattern, so it is
            // mapped.
            replacement.args.push_back(it->second);
          }
          std::vector<Atom> new_body;
          std::unordered_set<size_t> drop(match->positions.begin(),
                                          match->positions.end());
          for (size_t i = 0; i < rule.body.size(); ++i) {
            if (drop.count(i) == 0) new_body.push_back(rule.body[i]);
          }
          new_body.push_back(std::move(replacement));
          rule.body = std::move(new_body);
          ++result.bodies_folded;
        }
      }
      p.AddRule(std::move(defining));
      changed = true;
    }
  }
  return result;
}

}  // namespace exdl
