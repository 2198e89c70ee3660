#include "equiv/random_check.h"

#include <algorithm>

#include "eval/evaluator.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace exdl {
namespace {

std::string AnswersToString(const Context& ctx, const AnswerRows& answers) {
  std::string out = "{";
  for (size_t i = 0; i < answers.size(); ++i) {
    if (i > 0) out += ", ";
    out += "(";
    for (size_t j = 0; j < answers.arity(); ++j) {
      if (j > 0) out += ",";
      out += ctx.SymbolName(answers[i][j]);
    }
    out += ")";
  }
  out += "}";
  return out;
}

std::string DatabaseToString(const Context& ctx, const Database& db) {
  std::string out;
  for (const auto& [pred, rel] : db.relations()) {
    for (size_t r = 0; r < rel.size(); ++r) {
      out += ctx.PredicateDisplayName(pred);
      out += "(";
      std::span<const Value> row = rel.view().Scan(r);
      for (size_t j = 0; j < row.size(); ++j) {
        if (j > 0) out += ",";
        out += ctx.SymbolName(row[j]);
      }
      out += "). ";
    }
  }
  return out;
}

}  // namespace

Database RandomInstance(Context* ctx, const std::vector<PredId>& input_preds,
                        int domain_size, int max_tuples_per_pred,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> domain;
  domain.reserve(static_cast<size_t>(domain_size));
  for (int i = 0; i < domain_size; ++i) {
    domain.push_back(ctx->InternSymbol(StrCat("c", std::to_string(i))));
  }
  Database db;
  for (PredId pred : input_preds) {
    uint32_t arity = ctx->predicate(pred).arity;
    int count = static_cast<int>(
        rng.Below(static_cast<uint64_t>(max_tuples_per_pred) + 1));
    for (int t = 0; t < count; ++t) {
      std::vector<Value> row(arity);
      for (uint32_t j = 0; j < arity; ++j) {
        row[j] = domain[rng.Below(domain.size())];
      }
      db.AddTuple(pred, row);
    }
  }
  return db;
}

Result<RandomCheckReport> CheckQueryEquivalent(
    const Program& p1, const Program& p2,
    const std::vector<PredId>& input_preds,
    const RandomCheckOptions& options) {
  if (p1.context() != p2.context()) {
    return Status::InvalidArgument(
        "programs must share a Context to be compared");
  }
  if (!p1.query() || !p2.query()) {
    return Status::FailedPrecondition("both programs need queries");
  }
  Context* ctx = p1.context().get();
  RandomCheckReport report;
  for (int trial = 0; trial < options.trials; ++trial) {
    uint64_t seed = options.seed + static_cast<uint64_t>(trial) * 7919;
    Database db = RandomInstance(ctx, input_preds, options.domain_size,
                                 options.max_tuples_per_pred, seed);
    ++report.trials_run;
    EXDL_ASSIGN_OR_RETURN(EvalResult r1, Evaluate(p1, db));
    EXDL_ASSIGN_OR_RETURN(EvalResult r2, Evaluate(p2, db));
    if (r1.answers != r2.answers) {
      report.equivalent = false;
      report.counterexample =
          "trial " + std::to_string(trial) + ": input = " +
          DatabaseToString(*ctx, db) +
          "\n p1 answers = " + AnswersToString(*ctx, r1.answers) +
          "\n p2 answers = " + AnswersToString(*ctx, r2.answers);
      return report;
    }
  }
  return report;
}

Result<RandomCheckReport> CheckQueryEquivalentOnEdb(
    const Program& p1, const Program& p2,
    const RandomCheckOptions& options) {
  std::unordered_set<PredId> edb = p1.EdbPredicates();
  // Exclude the query predicate itself when it is underived in p1.
  std::vector<PredId> inputs;
  for (PredId p : edb) {
    if (p1.query() && p == p1.query()->pred && !p1.IsIdb(p)) {
      // Still include: a base-predicate query is legitimate input.
    }
    inputs.push_back(p);
  }
  std::sort(inputs.begin(), inputs.end());
  RandomCheckOptions opts = options;
  if (opts.populate_derived) {
    std::unordered_set<PredId> idb = p1.IdbPredicates();
    inputs.insert(inputs.end(), idb.begin(), idb.end());
    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
  }
  return CheckQueryEquivalent(p1, p2, inputs, opts);
}

}  // namespace exdl
