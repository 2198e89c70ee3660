#include "grammar/monadic.h"

#include <unordered_set>

#include "grammar/chain.h"
#include "grammar/regularity.h"

namespace exdl {

Result<Program> MonadicProgramFromDfa(const Dfa& dfa, const Cfg& grammar,
                                      ContextPtr ctx) {
  if (dfa.alphabet_size() != grammar.NumTerminals()) {
    return Status::InvalidArgument(
        "DFA alphabet does not match grammar terminals");
  }
  Context& c = *ctx;
  Program program(ctx);

  SymbolId x = c.InternSymbol("X");
  SymbolId y = c.InternSymbol("Y");
  // Generated names (st_N, ans_N, W_N) skip the terminals' names and the
  // rule variables X and Y.
  std::unordered_set<SymbolId> used_names = {x, y};
  std::vector<PredId> terminal_pred(grammar.NumTerminals());
  for (uint32_t t = 0; t < grammar.NumTerminals(); ++t) {
    terminal_pred[t] = c.InternPredicate(grammar.TerminalName(t), 2);
    used_names.insert(c.predicate(terminal_pred[t]).name);
  }
  auto taken = [&](SymbolId name) { return used_names.count(name) > 0; };
  size_t next_name = 0;
  std::vector<PredId> state_pred(dfa.NumStates());
  for (uint32_t s = 0; s < dfa.NumStates(); ++s) {
    state_pred[s] = c.InternPredicate(c.InternUnused("st", &next_name, taken),
                                      /*arity=*/1);
  }
  PredId ans = c.InternPredicate(c.InternUnused("ans", &next_name, taken),
                                 /*arity=*/1);
  // Every rule that needs a third variable needs just one.
  SymbolId w = c.InternUnused("W", &next_name, taken);

  // Path starts: any node with an outgoing edge is in the start state.
  for (uint32_t t = 0; t < grammar.NumTerminals(); ++t) {
    Rule r;
    r.head = Atom(state_pred[dfa.start()], {Term::Var(x)});
    r.body.push_back(
        Atom(terminal_pred[t], {Term::Var(x), Term::Var(w)}));
    program.AddRule(std::move(r));
  }
  // Transitions. Dead-state self-loops are emitted too; they derive
  // nothing that reaches `ans` and the optimizer's cleanup prunes them.
  for (uint32_t s = 0; s < dfa.NumStates(); ++s) {
    for (uint32_t t = 0; t < grammar.NumTerminals(); ++t) {
      uint32_t target = dfa.Next(s, t);
      Rule r;
      r.head = Atom(state_pred[target], {Term::Var(y)});
      r.body.push_back(Atom(state_pred[s], {Term::Var(x)}));
      r.body.push_back(Atom(terminal_pred[t], {Term::Var(x), Term::Var(y)}));
      program.AddRule(std::move(r));
    }
  }
  // Answers.
  for (uint32_t s = 0; s < dfa.NumStates(); ++s) {
    if (!dfa.IsAccepting(s)) continue;
    Rule r;
    r.head = Atom(ans, {Term::Var(y)});
    r.body.push_back(Atom(state_pred[s], {Term::Var(y)}));
    program.AddRule(std::move(r));
  }
  // Empty word: every node of the graph answers.
  if (dfa.IsAccepting(dfa.start())) {
    for (uint32_t t = 0; t < grammar.NumTerminals(); ++t) {
      Rule out;
      out.head = Atom(ans, {Term::Var(y)});
      out.body.push_back(
          Atom(terminal_pred[t], {Term::Var(y), Term::Var(w)}));
      program.AddRule(std::move(out));
      Rule in;
      in.head = Atom(ans, {Term::Var(y)});
      in.body.push_back(
          Atom(terminal_pred[t], {Term::Var(w), Term::Var(y)}));
      program.AddRule(std::move(in));
    }
  }
  program.SetQuery(Atom(ans, {Term::Var(y)}));
  return program;
}

Result<Program> MonadicEquivalent(const Program& chain_program) {
  EXDL_ASSIGN_OR_RETURN(Cfg grammar, ChainProgramToGrammar(chain_program));
  if (!IsStronglyRegular(grammar)) {
    return Status::FailedPrecondition(
        "chain grammar is not strongly regular; no exact automaton "
        "construction applies (Theorem 3.3: regularity itself is "
        "undecidable)");
  }
  EXDL_ASSIGN_OR_RETURN(Nfa nfa,
                        StronglyRegularToNfa(grammar, grammar.start()));
  Dfa dfa = Dfa::FromNfa(nfa, static_cast<uint32_t>(grammar.NumTerminals()))
                .Minimized();
  return MonadicProgramFromDfa(dfa, grammar, chain_program.context());
}

}  // namespace exdl
