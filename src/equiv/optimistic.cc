#include "equiv/optimistic.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "equiv/freeze.h"
#include "eval/evaluator.h"

namespace exdl {
namespace {

/// Collects the active domain: constants of `input` and of the rules.
std::vector<Value> ActiveDomain(const Program& program,
                                const Database& input) {
  std::unordered_set<Value> domain;
  for (const auto& [pred, rel] : input.relations()) {
    for (size_t r = 0; r < rel.size(); ++r) {
      for (Value v : rel.view().Scan(r)) domain.insert(v);
    }
  }
  for (const Rule& rule : program.rules()) {
    for (const Term& t : rule.head.args) {
      if (t.IsConst()) domain.insert(t.id());
    }
    for (const Atom& lit : rule.body) {
      for (const Term& t : lit.args) {
        if (t.IsConst()) domain.insert(t.id());
      }
    }
  }
  std::vector<Value> out(domain.begin(), domain.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

namespace internal {

std::vector<Value> OptimisticActiveDomain(const Program& program,
                                          const Database& input,
                                          const OptimisticOptions& options) {
  std::vector<Value> domain = ActiveDomain(program, input);
  for (Value v : options.extra_domain) {
    if (std::find(domain.begin(), domain.end(), v) == domain.end()) {
      domain.push_back(v);
    }
  }
  std::sort(domain.begin(), domain.end());
  return domain;
}

}  // namespace internal

Result<Database> OptimisticFixpoint(const Program& program,
                                    const Database& input,
                                    const OptimisticOptions& options) {
  Database db = input.Clone();
  std::vector<Value> domain =
      internal::OptimisticActiveDomain(program, input, options);

  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Atom> pending;
    // Flexible constants may equal anything (see OptimisticOptions).
    auto may_equal = [&options](Value a, Value b) {
      return a == b || options.flexible.count(a) > 0 ||
             options.flexible.count(b) > 0;
    };
    for (const Rule& rule : program.rules()) {
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Atom& lit = rule.body[i];
        const Relation* rel = db.Find(lit.pred);
        if (rel == nullptr) continue;
        for (size_t row_id = 0; row_id < rel->size(); ++row_id) {
          std::span<const Value> row = rel->view().Scan(row_id);
          // Unify the literal with the known fact.
          std::unordered_map<SymbolId, Value> binding;
          bool ok = true;
          for (size_t j = 0; j < lit.args.size() && ok; ++j) {
            const Term& t = lit.args[j];
            if (t.IsConst()) {
              ok = may_equal(row[j], t.id());
            } else {
              auto [it, inserted] = binding.emplace(t.id(), row[j]);
              if (!inserted) ok = may_equal(it->second, row[j]);
            }
          }
          if (!ok) continue;
          // Ground the head; unbound head variables range over the domain.
          std::vector<size_t> free_positions;
          std::vector<Value> head_row(rule.head.args.size(), 0);
          for (size_t j = 0; j < rule.head.args.size(); ++j) {
            const Term& t = rule.head.args[j];
            if (t.IsConst()) {
              head_row[j] = t.id();
            } else {
              auto it = binding.find(t.id());
              if (it != binding.end()) {
                head_row[j] = it->second;
              } else {
                free_positions.push_back(j);
              }
            }
          }
          // Repeated unbound head variables must stay equal across their
          // positions: enumerate per distinct variable, not per position.
          std::vector<SymbolId> free_vars;
          for (size_t j : free_positions) {
            SymbolId v = rule.head.args[j].id();
            if (std::find(free_vars.begin(), free_vars.end(), v) ==
                free_vars.end()) {
              free_vars.push_back(v);
            }
          }
          if (!free_vars.empty() && domain.empty()) continue;
          std::vector<size_t> counter(free_vars.size(), 0);
          for (;;) {
            for (size_t j : free_positions) {
              SymbolId v = rule.head.args[j].id();
              size_t vi = static_cast<size_t>(
                  std::find(free_vars.begin(), free_vars.end(), v) -
                  free_vars.begin());
              head_row[j] = domain[counter[vi]];
            }
            std::vector<Term> args;
            args.reserve(head_row.size());
            for (Value v : head_row) args.push_back(Term::Const(v));
            pending.emplace_back(rule.head.pred, std::move(args));
            // Advance the odometer.
            size_t k = 0;
            while (k < counter.size()) {
              if (++counter[k] < domain.size()) break;
              counter[k] = 0;
              ++k;
            }
            if (k == counter.size()) break;
            if (counter.empty()) break;  // single iteration when no frees
          }
        }
      }
    }
    for (const Atom& fact : pending) {
      std::vector<Value> row;
      row.reserve(fact.args.size());
      for (const Term& t : fact.args) row.push_back(t.id());
      if (db.AddTuple(fact.pred, row)) changed = true;
      if (db.TotalTuples() > options.max_facts) {
        return Status::FailedPrecondition(
            "optimistic fixpoint exceeded max_facts");
      }
    }
  }
  return db;
}

Result<bool> DeletableUnderOptimisticUqe(const Program& program,
                                         size_t rule_index,
                                         const OptimisticOptions& options) {
  if (rule_index >= program.rules().size()) {
    return Status::InvalidArgument("rule index out of range");
  }
  if (!program.query()) {
    return Status::FailedPrecondition(
        "optimistic deletion test requires a query");
  }
  if (program.HasNegation()) {
    return Status::FailedPrecondition(
        "the optimistic test requires a positive program");
  }
  FrozenRule frozen = FreezeRule(program.rules()[rule_index], program);

  Program without(program.context());
  for (size_t i = 0; i < program.rules().size(); ++i) {
    if (i != rule_index) without.AddRule(program.rules()[i]);
  }
  without.SetQuery(*program.query());

  // Optimistic side: chains from the frozen head over the remaining rules
  // (a topmost application of the deleted rule has no other application
  // above it). The domain gets the frozen body's constants plus one
  // generic constant standing for arbitrary context values.
  Database head_only;
  EXDL_RETURN_IF_ERROR(head_only.AddFact(frozen.head));
  OptimisticOptions opt = options;
  for (const auto& [pred, rel] : frozen.body_facts.relations()) {
    for (size_t r = 0; r < rel.size(); ++r) {
      for (Value v : rel.view().Scan(r)) opt.extra_domain.push_back(v);
    }
  }
  size_t next_name = 0;
  Value anyctx = program.ctx().InternUnused(
      "anyctx", &next_name,
      [&](SymbolId c) { return frozen.avoided.count(c) > 0; });
  opt.extra_domain.push_back(anyctx);
  opt.flexible.insert(anyctx);
  // Every frozen constant is flexible: a context may instantiate the rule
  // so that its variables coincide with each other or with program
  // constants; the over-approximation keeps such spines visible.
  for (const auto& [var, frozen_const] : frozen.var_to_const) {
    opt.flexible.insert(frozen_const);
  }

  EXDL_ASSIGN_OR_RETURN(Database optimistic,
                        OptimisticFixpoint(without, head_only, opt));
  AnswerRows optimistic_answers = ExtractAnswers(*program.query(), optimistic);
  if (optimistic_answers.empty()) return true;

  EXDL_ASSIGN_OR_RETURN(EvalResult standard,
                        Evaluate(without, frozen.body_facts));
  // Subset check: the optimistic rows add nothing to the standard ones.
  return AnswerRows::Union(standard.answers, optimistic_answers) ==
         standard.answers;
}

}  // namespace exdl
