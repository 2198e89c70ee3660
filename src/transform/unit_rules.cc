#include "transform/unit_rules.h"

#include <map>
#include <vector>

#include "util/string_util.h"

namespace exdl {

Result<UnitRuleResult> AddCoveringUnitRules(const Program& program) {
  Context& ctx = program.ctx();
  UnitRuleResult result{program.Clone(), 0, {}};

  // Group predicate versions by (base name, original arity). The original
  // arity of a projected version is its adornment length.
  std::map<std::pair<SymbolId, size_t>, std::vector<PredId>> groups;
  for (PredId p : program.AllPredicates()) {
    const PredicateInfo& info = ctx.predicate(p);
    if (info.adornment.empty()) continue;
    size_t original_arity = info.adornment.size();
    groups[{info.name, original_arity}].push_back(p);
  }

  for (const auto& [key, versions] : groups) {
    for (PredId covered : versions) {
      const Adornment& a = ctx.predicate(covered).adornment;
      for (PredId covering : versions) {
        if (covered == covering) continue;
        const Adornment& a1 = ctx.predicate(covering).adornment;
        if (!Covers(a1, a)) continue;
        // Build q^a(t) :- q^a1(t1) with one variable per original
        // position; each version keeps its needed positions.
        std::vector<Term> by_position;
        for (size_t i = 0; i < a.size(); ++i) {
          by_position.push_back(
              Term::Var(ctx.InternSymbol(StrCat("U", std::to_string(i)))));
        }
        auto args_for = [&](PredId version,
                            const Adornment& adorn) -> std::vector<Term> {
          std::vector<Term> out;
          const PredicateInfo& info = ctx.predicate(version);
          if (info.arity == adorn.size()) {
            // Unprojected: store every position.
            for (size_t i = 0; i < adorn.size(); ++i) {
              out.push_back(by_position[i]);
            }
          } else {
            for (size_t i : adorn.NeededPositions()) {
              out.push_back(by_position[i]);
            }
          }
          return out;
        };
        Rule unit;
        unit.head = Atom(covered, args_for(covered, a));
        unit.body.push_back(Atom(covering, args_for(covering, a1)));
        bool present = false;
        for (const Rule& r : result.program.rules()) {
          if (r == unit) {
            present = true;
            break;
          }
        }
        if (!present) {
          result.added.push_back(unit);
          result.program.AddRule(std::move(unit));
          ++result.rules_added;
        }
      }
    }
  }
  return result;
}

}  // namespace exdl
