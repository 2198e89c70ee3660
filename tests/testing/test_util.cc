#include "testing/test_util.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "util/rng.h"
#include "util/string_util.h"

namespace exdl::testing {

ParsedProgram MustParseWith(ContextPtr ctx, const std::string& source) {
  Result<ParsedUnit> parsed = ParseProgram(source, ctx);
  if (!parsed.ok()) {
    std::cerr << "MustParse failed: " << parsed.status().ToString()
              << "\nsource:\n"
              << source << "\n";
    std::abort();
  }
  ParsedProgram out{ctx, std::move(parsed->program), Database()};
  for (const Atom& fact : parsed->facts) {
    Status s = out.edb.AddFact(fact);
    if (!s.ok()) {
      std::cerr << "MustParse fact failed: " << s.ToString() << "\n";
      std::abort();
    }
  }
  return out;
}

ParsedProgram MustParse(const std::string& source) {
  return MustParseWith(std::make_shared<Context>(), source);
}

EvalResult MustEval(const Program& program, const Database& edb,
                    const EvalOptions& options) {
  Result<EvalResult> result = Evaluate(program, edb, options);
  if (!result.ok()) {
    std::cerr << "MustEval failed: " << result.status().ToString() << "\n";
    std::abort();
  }
  return std::move(result).value();
}

std::vector<std::string> EvalAnswers(const Program& program,
                                     const Database& edb,
                                     const EvalOptions& options) {
  EvalResult result = MustEval(program, edb, options);
  const Context& ctx = program.ctx();
  std::vector<std::string> out;
  for (std::span<const Value> answer : result.answers) {
    std::string s;
    for (size_t i = 0; i < answer.size(); ++i) {
      if (i > 0) s += ",";
      s += ctx.SymbolName(answer[i]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

Program RandomProgram(ContextPtr ctx, const RandomProgramOptions& options) {
  Rng rng(options.seed);
  Context& c = *ctx;

  std::vector<PredId> edb;
  for (int i = 0; i < options.num_edb; ++i) {
    uint32_t arity = 1 + static_cast<uint32_t>(rng.Below(2));
    edb.push_back(c.InternPredicate(StrCat("e", std::to_string(i)), arity));
  }
  std::vector<PredId> idb;
  for (int i = 0; i < options.num_idb; ++i) {
    uint32_t arity = 1 + static_cast<uint32_t>(rng.Below(3));
    idb.push_back(c.InternPredicate(StrCat("p", std::to_string(i)), arity));
  }
  std::vector<SymbolId> var_pool;
  for (int i = 0; i < 6; ++i) {
    var_pool.push_back(c.InternSymbol(StrCat("V", std::to_string(i))));
  }
  std::vector<SymbolId> const_pool;
  for (int i = 0; i < 3; ++i) {
    const_pool.push_back(c.InternSymbol(StrCat("c", std::to_string(i))));
  }

  Program program(ctx);
  auto random_term = [&]() {
    if (rng.Chance(0.08)) {
      return Term::Const(const_pool[rng.Below(const_pool.size())]);
    }
    return Term::Var(var_pool[rng.Below(var_pool.size())]);
  };
  for (PredId head_pred : idb) {
    for (int r = 0; r < options.rules_per_idb; ++r) {
      Rule rule;
      uint32_t head_arity = c.predicate(head_pred).arity;
      std::vector<SymbolId> head_vars;
      for (uint32_t i = 0; i < head_arity; ++i) {
        SymbolId v = var_pool[rng.Below(3)];  // small pool -> shared vars
        rule.head.args.push_back(Term::Var(v));
        head_vars.push_back(v);
      }
      rule.head.pred = head_pred;
      int body_size =
          1 + static_cast<int>(rng.Below(
                  static_cast<uint64_t>(options.max_body)));
      for (int b = 0; b < body_size; ++b) {
        // Mostly EDB literals; recursion with probability ~1/3.
        PredId pred = rng.Chance(0.33) ? idb[rng.Below(idb.size())]
                                       : edb[rng.Below(edb.size())];
        Atom lit;
        lit.pred = pred;
        uint32_t arity = c.predicate(pred).arity;
        for (uint32_t i = 0; i < arity; ++i) lit.args.push_back(random_term());
        rule.body.push_back(std::move(lit));
      }
      // Enforce safety: bind stray head variables with an EDB literal.
      std::vector<SymbolId> bound = rule.BodyVars();
      for (SymbolId v : head_vars) {
        if (std::find(bound.begin(), bound.end(), v) != bound.end()) {
          continue;
        }
        PredId pred = edb[rng.Below(edb.size())];
        Atom lit;
        lit.pred = pred;
        lit.args.push_back(Term::Var(v));
        for (uint32_t i = 1; i < c.predicate(pred).arity; ++i) {
          lit.args.push_back(
              Term::Var(var_pool[rng.Below(var_pool.size())]));
        }
        rule.body.push_back(std::move(lit));
        bound.push_back(v);
      }
      program.AddRule(std::move(rule));
    }
  }
  // Query wrapper: the first argument of p0 is needed, the rest are fresh
  // (existential), exercising the adornment machinery.
  PredId query_pred = c.InternPredicate("query", 1);
  Rule wrapper;
  SymbolId qv = c.InternSymbol("Q");
  wrapper.head = Atom(query_pred, {Term::Var(qv)});
  Atom body_lit;
  body_lit.pred = idb[0];
  body_lit.args.push_back(Term::Var(qv));
  size_t next_name = 0;
  auto taken = [&](SymbolId name) { return name == qv; };
  for (uint32_t i = 1; i < c.predicate(idb[0]).arity; ++i) {
    body_lit.args.push_back(
        Term::Var(c.InternUnused("F", &next_name, taken)));
  }
  wrapper.body.push_back(std::move(body_lit));
  program.AddRule(std::move(wrapper));
  program.SetQuery(Atom(query_pred, {Term::Var(qv)}));
  return program;
}

}  // namespace exdl::testing

namespace exdl::testing {

Program RandomChainProgram(ContextPtr ctx,
                           const RandomChainOptions& options) {
  Rng rng(options.seed);
  Context& c = *ctx;
  std::vector<PredId> nts;
  for (int i = 0; i < options.num_nonterminals; ++i) {
    nts.push_back(c.InternPredicate(StrCat("nt", std::to_string(i)), 2));
  }
  std::vector<PredId> ts;
  for (int i = 0; i < options.num_terminals; ++i) {
    ts.push_back(c.InternPredicate(StrCat("t", std::to_string(i)), 2));
  }
  Program program(ctx);
  for (int n = 0; n < options.num_nonterminals; ++n) {
    for (int r = 0; r < options.rules_per_nonterminal; ++r) {
      int body =
          1 + static_cast<int>(rng.Below(
                  static_cast<uint64_t>(options.max_body)));
      Rule rule;
      SymbolId x = c.InternSymbol("X");
      SymbolId y = c.InternSymbol("Y");
      rule.head = Atom(nts[static_cast<size_t>(n)],
                       {Term::Var(x), Term::Var(y)});
      SymbolId current = x;
      for (int i = 0; i < body; ++i) {
        SymbolId next =
            i + 1 == body ? y : c.InternSymbol(StrCat("Z", std::to_string(i)));
        // Mostly terminals so languages stay finite-ish at small depth;
        // ~30% nonterminals for recursion.
        PredId pred = rng.Chance(0.3)
                          ? nts[rng.Below(nts.size())]
                          : ts[rng.Below(ts.size())];
        rule.body.push_back(
            Atom(pred, {Term::Var(current), Term::Var(next)}));
        current = next;
      }
      program.AddRule(std::move(rule));
    }
  }
  program.SetQuery(Atom(nts[0], {Term::Var(c.InternSymbol("X")),
                                 Term::Var(c.InternSymbol("Y"))}));
  return program;
}

Program RandomStratifiedProgram(ContextPtr ctx,
                                const RandomStratifiedOptions& options) {
  Rng rng(options.seed);
  Context& c = *ctx;
  std::vector<PredId> edb = {c.InternPredicate("e0", 1),
                             c.InternPredicate("e1", 2),
                             c.InternPredicate("e2", 2)};
  // layer -> predicates (all unary or binary, random).
  std::vector<std::vector<PredId>> layers;
  for (int l = 0; l < options.layers; ++l) {
    layers.emplace_back();
    for (int p = 0; p < options.preds_per_layer; ++p) {
      uint32_t arity = 1 + static_cast<uint32_t>(rng.Below(2));
      layers.back().push_back(c.InternPredicate(
          StrCat("s", std::to_string(l), "_", std::to_string(p)), arity));
    }
  }
  std::vector<SymbolId> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(c.InternSymbol(StrCat("V", std::to_string(i))));
  }
  Program program(ctx);
  for (int l = 0; l < options.layers; ++l) {
    for (PredId head : layers[static_cast<size_t>(l)]) {
      for (int r = 0; r < options.rules_per_pred; ++r) {
        Rule rule;
        uint32_t arity = c.predicate(head).arity;
        for (uint32_t i = 0; i < arity; ++i) {
          rule.head.args.push_back(Term::Var(vars[i]));
        }
        rule.head.pred = head;
        // One positive generator literal binding everything, plus 0-2
        // extra literals; negated ones come from strictly lower layers.
        PredId gen = edb[1 + rng.Below(2)];  // binary EDB
        rule.body.push_back(
            Atom(gen, {Term::Var(vars[0]), Term::Var(vars[1])}));
        int extras = static_cast<int>(rng.Below(3));
        for (int x = 0; x < extras; ++x) {
          bool negate = l > 0 && rng.Chance(0.4);
          PredId pred;
          if (negate) {
            const std::vector<PredId>& lower =
                layers[rng.Below(static_cast<uint64_t>(l))];
            pred = lower[rng.Below(lower.size())];
          } else if (rng.Chance(0.5) && l > 0) {
            const std::vector<PredId>& lower =
                layers[rng.Below(static_cast<uint64_t>(l))];
            pred = lower[rng.Below(lower.size())];
          } else {
            pred = edb[rng.Below(edb.size())];
          }
          Atom lit;
          lit.pred = pred;
          lit.negated = negate;
          uint32_t a = c.predicate(pred).arity;
          for (uint32_t i = 0; i < a; ++i) {
            // Only already-bound vars (V0/V1), keeping negation safe.
            lit.args.push_back(Term::Var(vars[rng.Below(2)]));
          }
          rule.body.push_back(std::move(lit));
        }
        program.AddRule(std::move(rule));
      }
    }
  }
  PredId query = c.InternPredicate("query", 1);
  Rule wrapper;
  SymbolId q = c.InternSymbol("Q");
  wrapper.head = Atom(query, {Term::Var(q)});
  PredId top = layers.back()[0];
  Atom lit;
  lit.pred = top;
  lit.args.push_back(Term::Var(q));
  size_t next_name = 0;
  auto taken = [&](SymbolId name) { return name == q; };
  for (uint32_t i = 1; i < c.predicate(top).arity; ++i) {
    lit.args.push_back(Term::Var(c.InternUnused("F", &next_name, taken)));
  }
  wrapper.body.push_back(std::move(lit));
  program.AddRule(std::move(wrapper));
  program.SetQuery(Atom(query, {Term::Var(q)}));
  return program;
}

}  // namespace exdl::testing
