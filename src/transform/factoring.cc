#include "transform/factoring.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/dependency_graph.h"
#include "analysis/reachability.h"
#include "util/string_util.h"

namespace exdl {
namespace {

using VarSet = std::unordered_set<SymbolId>;

/// An atom's arguments split by the query's binding pattern.
struct ArgSplit {
  std::vector<Term> bound;
  std::vector<Term> free;
};

ArgSplit SplitArgs(const Atom& atom, const std::vector<bool>& bound) {
  ArgSplit out;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    (bound[i] ? out.bound : out.free).push_back(atom.args[i]);
  }
  return out;
}

void AddVars(const std::vector<Term>& terms, VarSet* out) {
  for (const Term& t : terms) {
    if (t.IsVar()) out->insert(t.id());
  }
}

VarSet VarsOf(const std::vector<Term>& terms) {
  VarSet out;
  AddVars(terms, &out);
  return out;
}

VarSet VarsOf(const std::vector<Atom>& atoms) {
  VarSet out;
  for (const Atom& atom : atoms) AddVars(atom.args, &out);
  return out;
}

bool AllVars(const std::vector<Term>& terms) {
  return std::all_of(terms.begin(), terms.end(),
                     [](const Term& t) { return t.IsVar(); });
}

bool DistinctVars(const std::vector<Term>& terms) {
  return AllVars(terms) && VarsOf(terms).size() == terms.size();
}

bool Disjoint(const VarSet& a, const VarSet& b) {
  return std::none_of(a.begin(), a.end(),
                      [&](SymbolId v) { return b.count(v) > 0; });
}

bool Subset(const VarSet& a, const VarSet& b) {
  return std::all_of(a.begin(), a.end(),
                     [&](SymbolId v) { return b.count(v) > 0; });
}

Status Reject(const std::string& why) {
  return Status::FailedPrecondition("not factorable: " + why);
}

}  // namespace

Result<FactoringResult> FactorBoundQuery(const Program& program) {
  if (!program.query()) return Reject("no query");
  if (program.HasNegation()) return Reject("the program has negation");
  const Atom& query = *program.query();
  const PredId p = query.pred;
  if (!program.IsIdb(p)) {
    return Reject("the query predicate is a base relation");
  }

  std::vector<bool> bound(query.args.size());
  size_t num_bound = 0;
  for (size_t i = 0; i < query.args.size(); ++i) {
    bound[i] = query.args[i].IsConst();
    num_bound += bound[i] ? 1 : 0;
  }
  if (num_bound == 0) return Reject("the query binds no argument");
  if (num_bound == query.args.size()) {
    return Reject("the query binds every argument");
  }
  const ArgSplit q = SplitArgs(query, bound);
  if (!DistinctVars(q.free)) {
    return Reject("the query's free arguments are not distinct variables");
  }
  const DependencyGraph graph(program);
  if (graph.Component(graph.ComponentOf(p)).size() != 1) {
    return Reject("the query predicate is mutually recursive");
  }

  // Classify every rule for p before interning anything, so a rejected
  // program leaves the shared context untouched. `planned` holds one
  // rewritten rule per rule of p, in program order; its reach/ans
  // predicates are filled in once both exist.
  enum class Kind { kExit, kRightLinear, kLeftLinear };
  struct Planned {
    Kind kind;
    std::vector<Term> head_args;  ///< reach or ans arguments.
    std::vector<Term> guard_args;  ///< reach or ans arguments of the guard.
    std::vector<Atom> body;        ///< The rest of the body.
  };
  std::vector<Planned> planned;
  FactoringResult result{Program(program.context()), Atom(), p};
  for (const Rule& rule : program.rules()) {
    if (rule.head.pred != p) continue;
    const ArgSplit head = SplitArgs(rule.head, bound);
    if (!AllVars(head.bound)) {
      return Reject("a rule for the query predicate has a constant at a "
                    "bound head position");
    }
    if (!DistinctVars(head.bound)) {
      return Reject("a rule for the query predicate repeats a variable at "
                    "bound head positions");
    }
    if (!Subset(VarsOf(rule.head.args), VarsOf(rule.body))) {
      return Reject("a rule for the query predicate is not range-restricted");
    }
    const auto is_p = [p](const Atom& a) { return a.pred == p; };
    const auto recursive = std::count_if(rule.body.begin(), rule.body.end(),
                                         is_p);
    if (recursive > 1) {
      return Reject("a rule for the query predicate is nonlinear");
    }
    if (recursive == 0) {
      ++result.exit_rules;
      planned.push_back({Kind::kExit, head.free, head.bound, rule.body});
      continue;
    }
    const auto lit_it = std::find_if(rule.body.begin(), rule.body.end(), is_p);
    const ArgSplit lit = SplitArgs(*lit_it, bound);
    std::vector<Atom> rest;
    for (auto it = rule.body.begin(); it != rule.body.end(); ++it) {
      if (it != lit_it) rest.push_back(*it);
    }
    const VarSet rest_vars = VarsOf(rest);
    const VarSet head_bound = VarsOf(head.bound);
    const VarSet head_free = VarsOf(head.free);
    const VarSet lit_bound = VarsOf(lit.bound);
    const VarSet lit_free = VarsOf(lit.free);

    // Right-linear: the free arguments pass through unchanged, so p(x̄, ȳ)
    // follows from p(z̄, ȳ) for every step x̄ -> z̄ of `rest`. The step's
    // output z̄ must be bound by x̄ or `rest` (which also keeps ȳ out of
    // the literal's bound positions).
    VarSet step_inputs = head_bound;
    step_inputs.insert(rest_vars.begin(), rest_vars.end());
    const bool right = lit.free == head.free && DistinctVars(head.free) &&
                       Disjoint(head_free, rest_vars) &&
                       Disjoint(head_free, head_bound) &&
                       Subset(lit_bound, step_inputs);
    if (right) {
      ++result.right_linear_rules;
      planned.push_back(
          {Kind::kRightLinear, lit.bound, head.bound, std::move(rest)});
      continue;
    }
    // Left-linear: the bound arguments pass through unchanged, so the
    // step z̄ -> ȳ of `rest` applies to every answer of every bound tuple.
    // Range restriction then binds ȳ by z̄ or `rest`.
    const bool left = lit.bound == head.bound &&
                      Disjoint(head_bound, rest_vars) &&
                      Disjoint(head_bound, lit_free) &&
                      Disjoint(head_bound, head_free);
    if (left) {
      ++result.left_linear_rules;
      planned.push_back(
          {Kind::kLeftLinear, head.free, lit.free, std::move(rest)});
      continue;
    }
    return Reject("a recursive rule for the query predicate is neither "
                  "right- nor left-linear in the query's binding pattern");
  }
  if (result.right_linear_rules + result.left_linear_rules == 0) {
    return Reject("the query predicate is not recursive");
  }

  // Deterministic names ("reach$tc_bf", "ans$tc_bf"), so every compile of
  // the same rules over a shared context reuses the same two predicates.
  // '$' is no identifier character, so neither program text nor LOAD_FACTS
  // can name them: no fact, rule or snapshot row ever lands in them.
  Context& ctx = program.ctx();
  std::string pattern;
  for (bool b : bound) pattern += b ? Adornment::kBound : Adornment::kFree;
  const std::string suffix =
      StrCat("$", ctx.SymbolName(ctx.predicate(p).name), "_", pattern);
  const PredId reach = ctx.InternPredicate(
      StrCat("reach", suffix), static_cast<uint32_t>(q.bound.size()));
  const PredId ans = ctx.InternPredicate(
      StrCat("ans", suffix), static_cast<uint32_t>(q.free.size()));

  size_t next = 0;
  std::vector<Rule> rules;
  for (const Rule& rule : program.rules()) {
    if (rule.head.pred != p) {
      rules.push_back(rule);
      continue;
    }
    Planned& plan = planned[next++];
    const PredId head_pred = plan.kind == Kind::kRightLinear ? reach : ans;
    const PredId guard_pred = plan.kind == Kind::kLeftLinear ? ans : reach;
    Rule out(Atom(head_pred, std::move(plan.head_args)),
             {Atom(guard_pred, std::move(plan.guard_args))});
    for (Atom& lit : plan.body) out.body.push_back(std::move(lit));
    rules.push_back(std::move(out));
  }
  result.program.SetQuery(Atom(ans, q.free));
  result.program.mutable_rules() = std::move(rules);
  // Rules above p (and any other rule the new query cannot reach) never
  // contribute an answer.
  const std::unordered_set<PredId> live = ReachableFromQuery(result.program);
  std::erase_if(result.program.mutable_rules(), [&](const Rule& rule) {
    return live.count(rule.head.pred) == 0;
  });
  result.seed_fact = Atom(reach, q.bound);
  return result;
}

}  // namespace exdl
