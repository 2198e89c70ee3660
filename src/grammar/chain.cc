#include "grammar/chain.h"

#include <unordered_set>

#include "util/string_util.h"

namespace exdl {
namespace {

/// Checks the chain shape of one rule: binary head p(X, Y); body literals
/// binary and chained q1(X,Z1), q2(Z1,Z2), ..., qn(Zn-1,Y); X, Y and the
/// Zi all distinct variables.
bool IsChainRule(const Rule& rule) {
  if (rule.head.args.size() != 2 || rule.body.empty()) return false;
  if (!rule.head.args[0].IsVar() || !rule.head.args[1].IsVar()) return false;
  SymbolId x = rule.head.args[0].id();
  SymbolId y = rule.head.args[1].id();
  if (x == y) return false;
  std::unordered_set<SymbolId> seen = {x, y};
  SymbolId current = x;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Atom& lit = rule.body[i];
    if (lit.args.size() != 2) return false;
    if (!lit.args[0].IsVar() || !lit.args[1].IsVar()) return false;
    if (lit.args[0].id() != current) return false;
    SymbolId next = lit.args[1].id();
    if (i + 1 == rule.body.size()) {
      if (next != y) return false;
    } else {
      if (!seen.insert(next).second) return false;  // must be fresh
    }
    current = next;
  }
  return true;
}

}  // namespace

bool IsBinaryChainProgram(const Program& program) {
  for (const Rule& r : program.rules()) {
    if (!IsChainRule(r)) return false;
  }
  return true;
}

Result<Cfg> ChainProgramToGrammar(const Program& program) {
  if (!program.query()) {
    return Status::FailedPrecondition("chain program needs a query");
  }
  const Context& ctx = program.ctx();
  std::unordered_set<PredId> idb = program.IdbPredicates();
  if (idb.count(program.query()->pred) == 0) {
    return Status::FailedPrecondition(
        "query predicate must be derived to act as the start symbol");
  }
  Cfg grammar;
  for (const Rule& r : program.rules()) {
    if (!IsChainRule(r)) {
      return Status::FailedPrecondition(
          "not a binary chain rule: head predicate '" +
          ctx.PredicateDisplayName(r.head.pred) + "'");
    }
    uint32_t lhs =
        grammar.AddNonterminal(ctx.PredicateDisplayName(r.head.pred));
    std::vector<GSym> rhs;
    for (const Atom& lit : r.body) {
      const std::string& name = ctx.PredicateDisplayName(lit.pred);
      if (idb.count(lit.pred) > 0) {
        rhs.push_back(GSym::N(grammar.AddNonterminal(name)));
      } else {
        rhs.push_back(GSym::T(grammar.AddTerminal(name)));
      }
    }
    grammar.AddProduction(lhs, std::move(rhs));
  }
  grammar.SetStart(grammar.AddNonterminal(
      ctx.PredicateDisplayName(program.query()->pred)));
  return grammar;
}

Result<Program> GrammarToChainProgram(const Cfg& grammar, ContextPtr ctx) {
  Program program(ctx);
  Context& c = *ctx;
  for (const Production& p : grammar.productions()) {
    if (p.rhs.empty()) {
      return Status::FailedPrecondition(
          "epsilon production cannot become a chain rule");
    }
    Rule rule;
    SymbolId x = c.InternSymbol("X");
    SymbolId y = c.InternSymbol("Y");
    PredId head =
        c.InternPredicate(grammar.NonterminalName(p.lhs), /*arity=*/2);
    rule.head = Atom(head, {Term::Var(x), Term::Var(y)});
    SymbolId current = x;
    for (size_t i = 0; i < p.rhs.size(); ++i) {
      SymbolId next = i + 1 == p.rhs.size()
                          ? y
                          : c.InternSymbol(StrCat("Z", std::to_string(i)));
      const GSym& s = p.rhs[i];
      const std::string& name = s.terminal ? grammar.TerminalName(s.id)
                                           : grammar.NonterminalName(s.id);
      PredId pred = c.InternPredicate(name, /*arity=*/2);
      rule.body.push_back(Atom(pred, {Term::Var(current), Term::Var(next)}));
      current = next;
    }
    program.AddRule(std::move(rule));
  }
  PredId query_pred =
      c.InternPredicate(grammar.NonterminalName(grammar.start()), 2);
  program.SetQuery(Atom(query_pred, {Term::Var(c.InternSymbol("X")),
                                     Term::Var(c.InternSymbol("Y"))}));
  return program;
}

}  // namespace exdl
