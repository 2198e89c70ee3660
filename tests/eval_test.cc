#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "eval/evaluator.h"
#include "eval/plan.h"
#include "service/answer_text.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "testing/test_util.h"

namespace exdl {
namespace {

using ::exdl::testing::EvalAnswers;
using ::exdl::testing::MustEval;
using ::exdl::testing::MustParse;

const char kTransitiveClosure[] =
    "e(n1, n2). e(n2, n3). e(n3, n4).\n"
    "tc(X,Y) :- e(X,Y).\n"
    "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
    "?- tc(X,Y).\n";

TEST(PlanTest, CompilesAndOrdersByBoundness) {
  auto parsed = MustParse("p(X) :- big(Y,Z), e(X,Y).\n");
  PlanOptions reorder;
  Result<RulePlan> plan = CompileRule(parsed.program.rules()[0], reorder);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps.size(), 2u);
  EXPECT_EQ(plan->num_regs, 3u);
}

TEST(PlanTest, RejectsUnsafeRule) {
  auto parsed = MustParse("p(X, W) :- e(X).\n");
  EXPECT_FALSE(CompileRule(parsed.program.rules()[0], PlanOptions()).ok());
}

TEST(PlanTest, HeadConstantsAllowed) {
  auto parsed = MustParse("p(X, ok) :- e(X).\n");
  Result<RulePlan> plan =
      CompileRule(parsed.program.rules()[0], PlanOptions());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->head_args[1].kind, ArgSpec::Kind::kConst);
}

TEST(PlanTest, IndexColumnsFromConstantsAndBoundVars) {
  auto parsed = MustParse("p(X) :- e(X, c), f(X, Y).\n");
  PlanOptions no_reorder;
  no_reorder.reorder = false;
  Result<RulePlan> plan =
      CompileRule(parsed.program.rules()[0], no_reorder);
  ASSERT_TRUE(plan.ok());
  // e(X, c): constant at position 1 is an index column.
  EXPECT_EQ(plan->steps[0].index_columns, std::vector<uint32_t>{1});
  // f(X, Y): X bound by step 0.
  EXPECT_EQ(plan->steps[1].index_columns, std::vector<uint32_t>{0});
}

TEST(PlanTest, FirstBodyPositionForcesOuterLiteral) {
  auto parsed = MustParse("p(X, Y) :- e(X, Z), tc(Z, Y).\n");
  // tc(Z, Y) becomes the outer scan.
  Result<RulePlan> plan = CompileRule(parsed.program.rules()[0],
                                      PlanOptions(), /*first_body_position=*/1);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_EQ(plan->steps[0].body_position, 1u);
  EXPECT_TRUE(plan->steps[0].index_columns.empty());  // pure scan
  // e(X, Z) now probes on Z, bound by the forced step.
  EXPECT_EQ(plan->steps[1].body_position, 0u);
  EXPECT_EQ(plan->steps[1].index_columns, std::vector<uint32_t>{1});
}

TEST(PlanTest, FirstBodyPositionRejectsNegatedLiteral) {
  auto parsed = MustParse("p(X) :- e(X), not bad(X).\n");
  EXPECT_FALSE(CompileRule(parsed.program.rules()[0], PlanOptions(),
                           /*first_body_position=*/1)
                   .ok());
}

TEST(EvalTest, TransitiveClosureChain) {
  auto parsed = MustParse(kTransitiveClosure);
  std::vector<std::string> answers = EvalAnswers(parsed.program, parsed.edb);
  EXPECT_EQ(answers.size(), 6u);  // all ordered pairs i<j on a 4-chain
}

TEST(EvalTest, SemiNaiveEqualsNaive) {
  auto parsed = MustParse(kTransitiveClosure);
  EvalOptions naive;
  naive.seminaive = false;
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(parsed.program, parsed.edb, naive));
}

TEST(EvalTest, SemiNaiveDoesLessDuplicateWork) {
  auto parsed = MustParse(
      "e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4). e(n4, n5).\n"
      "e(n5, n6). e(n6, n7). e(n7, n8). e(n8, n9).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  EvalOptions naive;
  naive.seminaive = false;
  EvalResult semi = MustEval(parsed.program, parsed.edb);
  EvalResult full = MustEval(parsed.program, parsed.edb, naive);
  EXPECT_EQ(semi.answers, full.answers);
  EXPECT_LT(semi.stats.duplicate_inserts, full.stats.duplicate_inserts);
}

TEST(EvalTest, QueryWithConstantFilters) {
  auto parsed = MustParse(
      "e(n1, n2). e(n2, n3).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(n1, Y).\n");
  std::vector<std::string> answers = EvalAnswers(parsed.program, parsed.edb);
  EXPECT_EQ(answers, (std::vector<std::string>{"n2", "n3"}));
}

TEST(EvalTest, RepeatedQueryVariableRequiresEquality) {
  auto parsed = MustParse(
      "e(n1, n1). e(n1, n2).\n"
      "p(X,Y) :- e(X,Y).\n"
      "?- p(X, X).\n");
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            (std::vector<std::string>{"n1"}));
}

TEST(EvalTest, RepeatedBodyVariableWithinLiteral) {
  auto parsed = MustParse(
      "e(n1, n1). e(n1, n2).\n"
      "loop(X) :- e(X, X).\n"
      "?- loop(X).\n");
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            (std::vector<std::string>{"n1"}));
}

TEST(EvalTest, ConstantInBodyLiteral) {
  auto parsed = MustParse(
      "e(n1, stop). e(n2, go).\n"
      "halted(X) :- e(X, stop).\n"
      "?- halted(X).\n");
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            (std::vector<std::string>{"n1"}));
}

TEST(EvalTest, ZeroAryBooleanAndCut) {
  auto parsed = MustParse(
      "big(n1, n2). big(n2, n3).\n"
      "flag :- big(X, Y).\n"
      "ans(X) :- src(X), flag.\n"
      "src(n9).\n"
      "?- ans(X).\n");
  EvalResult result = MustEval(parsed.program, parsed.edb);
  EXPECT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.stats.rules_retired, 1u);  // 'flag' rule cut after true
}

TEST(EvalTest, BooleanCutCanBeDisabled) {
  auto parsed = MustParse(
      "big(n1, n2).\n"
      "flag :- big(X, Y).\n"
      "ans(X) :- src(X), flag.\n"
      "src(n9).\n"
      "?- ans(X).\n");
  EvalOptions options;
  options.boolean_cut = false;
  EvalResult result = MustEval(parsed.program, parsed.edb, options);
  EXPECT_EQ(result.stats.rules_retired, 0u);
  EXPECT_EQ(result.answers.size(), 1u);
}

TEST(EvalTest, GroundQueryStopsEarly) {
  auto parsed = MustParse(
      "e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4). e(n4, n5).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(n0, n1).\n");
  EvalOptions stop;
  stop.stop_on_ground_query = true;
  EvalResult early = MustEval(parsed.program, parsed.edb, stop);
  EvalResult full = MustEval(parsed.program, parsed.edb);
  EXPECT_TRUE(early.ground_query_true);
  EXPECT_LE(early.stats.rounds, full.stats.rounds);
  EXPECT_LT(early.stats.tuples_inserted, full.stats.tuples_inserted);
}

TEST(EvalTest, UniformInputWithIdbFacts) {
  // Uniform semantics: the input may contain derived facts (Section 4).
  auto parsed = MustParse(
      "tc(n7, n8).\n"  // an IDB fact as input
      "e(n8, n9).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  std::vector<std::string> answers = EvalAnswers(parsed.program, parsed.edb);
  // tc(7,8) given; tc(8,9) from e; nothing composes 7->9 because the
  // recursive rule needs an e-edge first: e(7,?) absent... e(8,9)+tc? no:
  // tc(X,Y) :- e(X,Z), tc(Z,Y) cannot use tc(7,8) as the e literal.
  EXPECT_EQ(answers, (std::vector<std::string>{"n7,n8", "n8,n9"}));
}

TEST(EvalTest, EmptyEdbYieldsNoAnswers) {
  auto parsed = MustParse(
      "tc(X,Y) :- e(X,Y).\n"
      "?- tc(X,Y).\n");
  EXPECT_TRUE(EvalAnswers(parsed.program, parsed.edb).empty());
}

TEST(EvalTest, NonLinearRecursion) {
  auto parsed = MustParse(
      "e(n1, n2). e(n2, n3). e(n3, n4). e(n4, n5).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- tc(X,Z), tc(Z,Y).\n"  // both literals recursive
      "?- tc(X,Y).\n");
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb).size(), 10u);
}

TEST(EvalTest, MutualRecursion) {
  auto parsed = MustParse(
      "zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4).\n"
      "even(X) :- zero(X).\n"
      "even(X) :- succ(Y, X), odd(Y).\n"
      "odd(X) :- succ(Y, X), even(Y).\n"
      "?- even(X).\n");
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            (std::vector<std::string>{"n0", "n2", "n4"}));
}

TEST(EvalTest, SameGeneration) {
  auto parsed = MustParse(
      "up(a1, b1). up(a2, b1). up(b1, c1). up(b2, c1).\n"
      "sg(X, X) :- up(X, Y).\n"
      "sg(X, Y) :- up(X, U), sg(U, V), up(Y, V).\n"
      "?- sg(a1, Y).\n");
  std::vector<std::string> answers = EvalAnswers(parsed.program, parsed.edb);
  EXPECT_NE(std::find(answers.begin(), answers.end(), "a2"), answers.end());
}

TEST(EvalTest, StatsAreConsistent) {
  auto parsed = MustParse(kTransitiveClosure);
  EvalResult result = MustEval(parsed.program, parsed.edb);
  EXPECT_EQ(result.stats.rule_firings,
            result.stats.tuples_inserted + result.stats.duplicate_inserts);
  EXPECT_GT(result.stats.rounds, 1u);
  std::string s = result.stats.ToString();
  EXPECT_NE(s.find("rounds="), std::string::npos);
}

TEST(ExtractAnswersTest, ProjectsAndDeduplicates) {
  auto parsed = MustParse(
      "p(n1, n2). p(n1, n3). p(n2, n3).\n"
      "q(X, Y) :- p(X, Y).\n"
      "?- q(X, Y).\n");
  EvalResult r = MustEval(parsed.program, parsed.edb);
  // Re-extract with a different query shape over the computed db.
  Context& ctx = *parsed.ctx;
  PredId q = parsed.program.query()->pred;
  Atom first_only(q, {Term::Var(ctx.InternSymbol("A")),
                      Term::Var(ctx.InternSymbol("B"))});
  // project to the first variable only by querying (A, A)? No — use a
  // fresh single-variable pattern with a repeated variable:
  Atom diag(q, {Term::Var(ctx.InternSymbol("D")),
                Term::Var(ctx.InternSymbol("D"))});
  EXPECT_TRUE(ExtractAnswers(diag, r.db).empty());
  EXPECT_EQ(ExtractAnswers(first_only, r.db).size(), 3u);
}

/// The row-vector extraction AnswerRows replaced: one heap row per answer,
/// deduplicated through a hash set, then sorted. Kept as the reference the
/// flat extraction must match row for row.
std::vector<std::vector<Value>> ReferenceAnswers(const Atom& query,
                                                 const Database& db,
                                                 size_t first_row) {
  struct RowHash {
    size_t operator()(const std::vector<Value>& v) const {
      return HashValueSpan(v.data(), v.size());
    }
  };
  std::vector<std::vector<Value>> out;
  const Relation* rel = db.Find(query.pred);
  if (rel == nullptr || first_row >= rel->size()) return out;
  std::vector<SymbolId> vars;
  query.CollectVars(&vars);
  std::unordered_map<SymbolId, size_t> var_col;
  for (size_t i = 0; i < vars.size(); ++i) var_col[vars[i]] = i;
  std::unordered_set<std::vector<Value>, RowHash> seen;
  std::vector<Value> answer(vars.size(), 0);
  std::vector<char> set(vars.size(), 0);
  for (size_t r = first_row; r < rel->size(); ++r) {
    std::span<const Value> row = rel->view().Scan(r);
    std::fill(answer.begin(), answer.end(), 0);
    std::fill(set.begin(), set.end(), 0);
    bool ok = true;
    for (size_t i = 0; i < query.args.size() && ok; ++i) {
      const Term& t = query.args[i];
      if (t.IsConst()) {
        ok = row[i] == t.id();
      } else {
        size_t col = var_col[t.id()];
        if (set[col]) {
          ok = row[i] == answer[col];
        } else {
          answer[col] = row[i];
          set[col] = 1;
        }
      }
    }
    if (ok && seen.insert(answer).second) out.push_back(answer);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The per-symbol rendering RenderAnswerRows replaced.
std::string ReferenceText(const Context& ctx,
                          const std::vector<std::vector<Value>>& answers) {
  std::string out;
  for (const auto& row : answers) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += '\t';
      out += ctx.SymbolName(row[i]);
    }
    out += '\n';
  }
  return out;
}

void ExpectSameRows(const AnswerRows& flat,
                    const std::vector<std::vector<Value>>& reference,
                    const Context& ctx, const std::string& where) {
  ASSERT_EQ(flat.size(), reference.size()) << where;
  for (size_t r = 0; r < flat.size(); ++r) {
    EXPECT_TRUE(std::ranges::equal(flat[r], reference[r]))
        << where << " row " << r;
  }
  EXPECT_EQ(RenderAnswerRows(ctx, flat), ReferenceText(ctx, reference))
      << where;
}

TEST(ExtractAnswersTest, FlatRowsMatchTheRowVectorReference) {
  Rng rng(20221);
  auto ctx = std::make_shared<Context>();
  std::vector<Value> domain;
  for (int i = 0; i < 6; ++i) {
    domain.push_back(ctx->InternSymbol(StrCat("d", std::to_string(i))));
  }
  std::vector<SymbolId> var_pool;
  for (const char* v : {"X", "Y", "Z"}) {
    var_pool.push_back(ctx->InternSymbol(v));
  }
  bool saw_true_boolean = false;
  bool saw_false_boolean = false;
  for (int trial = 0; trial < 400; ++trial) {
    const uint32_t arity = static_cast<uint32_t>(trial % 4);
    const PredId pred = ctx->InternPredicate("r", arity);
    // Random rows over a small domain, so constants and repeated variables
    // often match; `prior` holds the first `split` insertions, as a
    // standing view's database did before a load.
    const size_t rows = arity == 0 ? rng.Below(2) : rng.Below(60);
    const size_t split = rng.Below(rows + 1);
    Database db;
    Database prior;
    db.GetOrCreate(pred, arity);
    prior.GetOrCreate(pred, arity);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row(arity);
      for (Value& v : row) v = domain[rng.Below(domain.size())];
      if (db.AddTuple(pred, row) && db.Find(pred)->size() <= split) {
        prior.AddTuple(pred, row);
      }
    }
    const size_t stored = db.Find(pred)->size();
    // Each argument a constant or a variable drawn from a pool narrower
    // than the arity, so repeated variables are common.
    std::vector<Term> args;
    for (uint32_t i = 0; i < arity; ++i) {
      if (rng.Chance(0.2)) {
        args.push_back(Term::Const(domain[rng.Below(domain.size())]));
      } else {
        args.push_back(Term::Var(var_pool[rng.Below(var_pool.size())]));
      }
    }
    const Atom query(pred, args);
    const std::string where = "trial " + std::to_string(trial);

    AnswerRows all = ExtractAnswers(query, db);
    ExpectSameRows(all, ReferenceAnswers(query, db, 0), *ctx, where);
    std::vector<SymbolId> vars;
    query.CollectVars(&vars);
    EXPECT_EQ(all.arity(), vars.size()) << where;
    if (vars.empty()) {
      saw_true_boolean |= !all.empty();
      saw_false_boolean |= all.empty();
    }

    const size_t first_row = rng.Below(stored + 1);
    const AnswerRows suffix = ExtractAnswers(query, db, first_row);
    ExpectSameRows(suffix, ReferenceAnswers(query, db, first_row), *ctx,
                   where + " first_row " + std::to_string(first_row));

    // Standing-view maintenance: prior answers ∪ the suffix's answers.
    const size_t prior_rows = prior.Find(pred)->size();
    AnswerRows merged =
        AnswerRows::Union(ExtractAnswers(query, prior),
                          ExtractAnswers(query, db, prior_rows));
    EXPECT_EQ(merged, all) << where << " split " << prior_rows;

    // A union with a subset adds nothing, whichever side it is on.
    EXPECT_EQ(AnswerRows::Union(all, suffix), all) << where;
    EXPECT_EQ(AnswerRows::Union(suffix, all), all) << where;

    // Maintenance moves the prior set out: what is left must be empty.
    AnswerRows taken = std::move(all);
    EXPECT_TRUE(all.empty()) << where;
    EXPECT_EQ(taken, merged) << where;
  }
  EXPECT_TRUE(saw_true_boolean);
  EXPECT_TRUE(saw_false_boolean);

  // Both branches of a whole unary relation's extraction: a dense set is
  // read off its membership bitset, a sparse one (more bitset words than
  // rows) is sorted, and a suffix is always sorted. Rows go in by
  // descending id, so an extraction that skipped the sort would fail.
  std::vector<Value> wide;
  for (int i = 0; i < 640; ++i) {
    wide.push_back(ctx->InternSymbol(StrCat("w", std::to_string(i))));
  }
  const PredId unary = ctx->InternPredicate("u", 1);
  const Atom unary_query(unary, {Term::Var(var_pool[0])});
  for (const size_t stride : {1u, 3u, 200u}) {
    Database db;
    for (size_t i = wide.size(); i >= stride; i -= stride) {
      db.AddTuple(unary, std::vector<Value>{wide[i - stride]});
    }
    const Relation& rel = *db.Find(unary);
    const bool dense = rel.view().bits()->num_words() <= rel.size();
    EXPECT_EQ(dense, stride != 200u) << "stride " << stride;
    const std::string where = "stride " + std::to_string(stride);
    ExpectSameRows(ExtractAnswers(unary_query, db),
                   ReferenceAnswers(unary_query, db, 0), *ctx, where);
    const size_t half = rel.size() / 2;
    ExpectSameRows(ExtractAnswers(unary_query, db, half),
                   ReferenceAnswers(unary_query, db, half), *ctx,
                   where + " first_row " + std::to_string(half));
  }
}

}  // namespace
}  // namespace exdl
