#include "equiv/freeze.h"

namespace exdl {
namespace {

void CollectConstants(const Atom& atom, std::unordered_set<SymbolId>* out) {
  for (const Term& t : atom.args) {
    if (t.IsConst()) out->insert(t.id());
  }
}

void CollectConstants(const Rule& rule, std::unordered_set<SymbolId>* out) {
  CollectConstants(rule.head, out);
  for (const Atom& lit : rule.body) CollectConstants(lit, out);
}

}  // namespace

FrozenRule FreezeRule(const Rule& rule, const Program& program) {
  FrozenRule out;
  for (const Rule& r : program.rules()) CollectConstants(r, &out.avoided);
  if (program.query()) CollectConstants(*program.query(), &out.avoided);
  CollectConstants(rule, &out.avoided);
  auto taken = [&](SymbolId c) { return out.avoided.count(c) > 0; };
  size_t next = 0;
  auto freeze = [&](const Atom& atom) {
    Atom frozen(atom.pred, {});
    frozen.args.reserve(atom.args.size());
    for (const Term& t : atom.args) {
      if (t.IsConst()) {
        frozen.args.push_back(t);
        continue;
      }
      auto it = out.var_to_const.find(t.id());
      if (it == out.var_to_const.end()) {
        const SymbolId c = program.ctx().InternUnused("frz", &next, taken);
        it = out.var_to_const.emplace(t.id(), c).first;
      }
      frozen.args.push_back(Term::Const(it->second));
    }
    return frozen;
  };
  // Body atoms are ground after freezing by construction.
  for (const Atom& lit : rule.body) (void)out.body_facts.AddFact(freeze(lit));
  out.head = freeze(rule.head);
  return out;
}

}  // namespace exdl
