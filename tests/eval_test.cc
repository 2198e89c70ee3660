#include <algorithm>

#include <gtest/gtest.h>

#include "eval/evaluator.h"
#include "eval/plan.h"
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

}  // namespace
}  // namespace exdl
