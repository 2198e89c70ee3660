#include <algorithm>

#include <gtest/gtest.h>

#include "adorn/adorn.h"
#include "ast/printer.h"
#include "core/compiled_program.h"
#include "testing/test_util.h"
#include "transform/cleanup.h"
#include "transform/components.h"
#include "transform/projection.h"
#include "transform/unit_rules.h"
#include "util/string_util.h"

namespace exdl {
namespace {

using ::exdl::testing::EvalAnswers;
using ::exdl::testing::MustParse;

// ---------------------------------------------------------------- projection

TEST(ProjectionTest, PaperExample3UnaryTransitiveClosure) {
  // Example 1's adorned program becomes Example 3: a^nd loses its second
  // argument and stays recursive with arity 1.
  auto parsed = MustParse(
      "query(X) :- a(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "a(X, Y) :- p(X, Y).\n"
      "?- query(X).\n");
  Result<Program> adorned = AdornExistential(parsed.program);
  ASSERT_TRUE(adorned.ok());
  Result<ProjectionResult> projected = PushProjections(*adorned);
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->predicates_projected, 1u);
  EXPECT_EQ(projected->positions_dropped, 1u);
  const Context& ctx = *parsed.ctx;
  bool found_unary_a = false;
  for (const Rule& r : projected->program.rules()) {
    const PredicateInfo& info = ctx.predicate(r.head.pred);
    if (ctx.SymbolName(info.name) == "a") {
      EXPECT_EQ(info.arity, 1u);
      EXPECT_EQ(info.adornment.str(), "nd");
      found_unary_a = true;
    }
  }
  EXPECT_TRUE(found_unary_a);
}

TEST(ProjectionTest, PreservesAnswers) {
  auto parsed = MustParse(
      "p(n1, n2). p(n2, n3). p(n3, n1). p(n4, n4).\n"
      "query(X) :- a(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "a(X, Y) :- p(X, Y).\n"
      "?- query(X).\n");
  Result<Program> adorned = AdornExistential(parsed.program);
  ASSERT_TRUE(adorned.ok());
  Result<ProjectionResult> projected = PushProjections(*adorned);
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(projected->program, parsed.edb));
}

TEST(ProjectionTest, ReducesWorkOnChain) {
  auto parsed = MustParse(
      "p(n0,n1). p(n1,n2). p(n2,n3). p(n3,n4). p(n4,n5). p(n5,n6).\n"
      "p(n6,n7). p(n7,n8). p(n8,n9).\n"
      "query(X) :- a(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "a(X, Y) :- p(X, Y).\n"
      "?- query(X).\n");
  Result<Program> adorned = AdornExistential(parsed.program);
  ASSERT_TRUE(adorned.ok());
  Result<ProjectionResult> projected = PushProjections(*adorned);
  ASSERT_TRUE(projected.ok());
  EvalResult before = testing::MustEval(parsed.program, parsed.edb);
  EvalResult after = testing::MustEval(projected->program, parsed.edb);
  // Binary tc on a 9-chain derives O(n^2) tuples; the unary version O(n).
  EXPECT_LT(after.stats.tuples_inserted, before.stats.tuples_inserted);
  EXPECT_EQ(before.answers, after.answers);
}

TEST(ProjectionTest, IdempotentAndNoopWithoutExistentials) {
  auto parsed = MustParse(
      "query(X, Y) :- a(X, Y).\n"
      "a(X, Y) :- p(X, Y).\n"
      "?- query(X, Y).\n");
  Result<Program> adorned = AdornExistential(parsed.program);
  ASSERT_TRUE(adorned.ok());
  Result<ProjectionResult> projected = PushProjections(*adorned);
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->predicates_projected, 0u);
  Result<ProjectionResult> again = PushProjections(projected->program);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->predicates_projected, 0u);
}

TEST(ProjectionTest, QueryAtomRewritten) {
  auto parsed = MustParse(
      "query(X) :- a(X, Y).\n"
      "a(X, Y) :- p(X, Y).\n"
      "?- query(X).\n");
  Result<Program> adorned = AdornExistential(parsed.program);
  ASSERT_TRUE(adorned.ok());
  Result<ProjectionResult> projected = PushProjections(*adorned);
  ASSERT_TRUE(projected.ok());
  // query@n is all-needed, so it stays; a@nd inside is projected.
  const Rule& wrapper = projected->program.rules()[0];
  EXPECT_EQ(wrapper.body[0].args.size(), 1u);
}

// ---------------------------------------------------------------- components

TEST(ComponentsTest, PaperExample2Shape) {
  // After adornment+projection of Example 2's rule, the q3/q4 part and the
  // q5 literal are disconnected from the head and become booleans.
  // The head's existential second position has already been projected
  // away (the pipeline runs projection first), so U is body-only here.
  auto parsed2 = MustParse(
      "p(X) :- q1(X, Y), q2(Y, Z), q3(U, V), q4(V), q5(W).\n"
      "q4(V) :- q6(V).\n"
      "?- p(X).\n");
  Result<ComponentResult> result = ExtractComponents(parsed2.program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->booleans_created, 2u);
  EXPECT_EQ(result->rules_split, 1u);
  // The rewritten rule: q1, q2 + two boolean literals.
  const Rule& rewritten = result->program.rules()[0];
  EXPECT_EQ(rewritten.body.size(), 4u);
  EXPECT_EQ(rewritten.body[2].args.size(), 0u);
  EXPECT_EQ(rewritten.body[3].args.size(), 0u);
}

TEST(ComponentsTest, PreservesAnswersWhenSubqueryTrue) {
  auto parsed = MustParse(
      "q1(n1, n2). q2(n2, n3). q3(n7, n8). q4(n8). q5(n9).\n"
      "p(X) :- q1(X, Y), q2(Y, Z), q3(U, V), q4(V), q5(W).\n"
      "?- p(X).\n");
  Result<ComponentResult> result = ExtractComponents(parsed.program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(result->program, parsed.edb));
}

TEST(ComponentsTest, PreservesAnswersWhenSubqueryFalse) {
  auto parsed = MustParse(
      "q1(n1, n2). q2(n2, n3). q3(n7, n8). q5(n9).\n"  // q4 empty!
      "p(X) :- q1(X, Y), q2(Y, Z), q3(U, V), q4(V), q5(W).\n"
      "?- p(X).\n");
  Result<ComponentResult> result = ExtractComponents(parsed.program);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(EvalAnswers(parsed.program, parsed.edb).empty());
  EXPECT_TRUE(EvalAnswers(result->program, parsed.edb).empty());
}

TEST(ComponentsTest, BooleanRuleGetsCutAtRuntime) {
  auto parsed = MustParse(
      "q1(n1, n2). q3(n7, n8). q3(n8, n9). q3(n9, n10).\n"
      "p(X) :- q1(X, Y), q3(U, V).\n"
      "?- p(X).\n");
  Result<ComponentResult> result = ExtractComponents(parsed.program);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->booleans_created, 1u);
  EvalResult eval = testing::MustEval(result->program, parsed.edb);
  EXPECT_EQ(eval.stats.rules_retired, 1u);
  EXPECT_EQ(eval.answers.size(), 1u);
}

TEST(ComponentsTest, ComponentTouchingExistentialHeadVarStaysInline) {
  // U appears in the head; detaching q3 would unbind it, so the rule must
  // stay intact (this is the case the pipeline handles by projecting
  // first).
  auto parsed = MustParse(
      "p@nd(X, U) :- q1(X, Y), q3(U, V).\n"
      "?- p@nd(X, U).\n");
  Result<ComponentResult> result = ExtractComponents(parsed.program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->booleans_created, 0u);
  EXPECT_EQ(result->program.rules()[0].body.size(), 2u);
}

TEST(ComponentsTest, ZeroAryLiteralNotRewrapped) {
  auto parsed = MustParse(
      "p(X) :- q(X), flag.\n"
      "flag :- r(Y).\n"
      "?- p(X).\n");
  Result<ComponentResult> result = ExtractComponents(parsed.program);
  ASSERT_TRUE(result.ok());
  // Neither rule is split: `flag` in p's body is a lone 0-ary literal in
  // its own component (already a boolean), and flag's defining rule has a
  // single component under a boolean head (Lemma 3.1's exception).
  EXPECT_EQ(result->booleans_created, 0u);
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(result->program, parsed.edb));
}

TEST(ComponentsTest, NoChangeForConnectedRule) {
  auto parsed = MustParse("p(X, Y) :- q(X, Z), r(Z, Y).\n?- p(X, Y).\n");
  Result<ComponentResult> result = ExtractComponents(parsed.program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->booleans_created, 0u);
  EXPECT_EQ(ToString(result->program), ToString(parsed.program));
}

TEST(ComponentsTest, BooleanNamesSkipTheProgramsAndItsFacts) {
  // The program defines bq_0 and a source fact populates bq_1, so the two
  // booleans split off p's rule are bq_2 and bq_3.
  auto parsed = MustParse(
      "bq_1.\n"
      "p(X) :- q1(X), q3(U), q5(W).\n"
      "bq_0 :- q2(Z).\n"
      "?- p(X).\n");
  const PredId fact_pred = parsed.ctx->InternPredicate("bq_1", 0);
  Result<ComponentResult> result =
      ExtractComponents(parsed.program, {fact_pred});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->booleans_created, 2u);
  const std::vector<Rule>& rules = result->program.rules();
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(parsed.ctx->PredicateDisplayName(rules[2].head.pred), "bq_2");
  EXPECT_EQ(parsed.ctx->PredicateDisplayName(rules[3].head.pred), "bq_3");
}

// A long-lived context (the daemon's) gains nothing per compile: every
// compile names its booleans bq_0, bq_1, ... again.
TEST(ComponentsTest, RepeatedCompilesReuseBooleanNames) {
  ContextPtr ctx = std::make_shared<Context>();
  CompileOptions options;
  options.optimize = true;
  auto source = [](int k) {
    return StrCat("q(X) :- a(X), b(c", std::to_string(k), ", Y).\n?- q(X).\n");
  };
  for (int k = 0; k < 16; ++k) {
    Result<CompiledProgram::Ptr> compiled =
        CompiledProgram::Compile(source(k), options, nullptr, ctx);
    ASSERT_TRUE(compiled.ok());
    EXPECT_EQ((*compiled)->report().booleans_created, 1u);
  }
  const size_t preds = ctx->NumPredicates();
  const size_t symbols = ctx->NumSymbols();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        CompiledProgram::Compile(source(i % 16), options, nullptr, ctx).ok());
  }
  EXPECT_EQ(ctx->NumPredicates(), preds);
  EXPECT_EQ(ctx->NumSymbols(), symbols);
}

// ---------------------------------------------------------------- unit rules

TEST(UnitRulesTest, AddsCoveringRule) {
  auto parsed = MustParse(
      "a@nd(X) :- p(X, Y).\n"
      "a@nn(X, Y) :- p(X, Y).\n"
      "?- a@nd(X).\n");
  Result<UnitRuleResult> result = AddCoveringUnitRules(parsed.program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules_added, 1u);
  const Rule& unit = result->added[0];
  EXPECT_TRUE(unit.IsUnitRule());
  // Head a@nd/1 gets U0; body a@nn gets (U0, U1).
  EXPECT_EQ(unit.head.args.size(), 1u);
  EXPECT_EQ(unit.body[0].args.size(), 2u);
  EXPECT_EQ(unit.head.args[0], unit.body[0].args[0]);
}

TEST(UnitRulesTest, NoDuplicateAddition) {
  auto parsed = MustParse(
      "a@nd(X) :- p(X, Y).\n"
      "a@nn(X, Y) :- p(X, Y).\n"
      "a@nd(U0) :- a@nn(U0, U1).\n"
      "?- a@nd(X).\n");
  Result<UnitRuleResult> result = AddCoveringUnitRules(parsed.program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules_added, 0u);
}

TEST(UnitRulesTest, PreservesAnswers) {
  auto parsed = MustParse(
      "p(n1, n2). p(n2, n3).\n"
      "a@nd(X) :- p(X, Y).\n"
      "a@nn(X, Y) :- p(X, Y).\n"
      "query(X) :- a@nd(X).\n"
      "?- query(X).\n");
  Result<UnitRuleResult> result = AddCoveringUnitRules(parsed.program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(result->program, parsed.edb));
}

TEST(UnitRulesTest, UnadornedPredicatesIgnored) {
  auto parsed = MustParse("a(X) :- p(X, Y).\n?- a(X).\n");
  Result<UnitRuleResult> result = AddCoveringUnitRules(parsed.program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules_added, 0u);
}

// ------------------------------------------------------------------ cleanup

TEST(CleanupTest, RemovesUnreachableRules) {
  auto parsed = MustParse(
      "q(X) :- e(X).\n"
      "orphan(X) :- e(X).\n"
      "?- q(X).\n");
  std::unordered_set<PredId> inputs = parsed.program.EdbPredicates();
  Result<CleanupResult> result = CleanupProgram(parsed.program, inputs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules_removed, 1u);
  EXPECT_EQ(result->program.NumRules(), 1u);
}

TEST(CleanupTest, RemovesRulesUsingEmptyInternalPredicates) {
  // 'ghost' is not an input predicate and has no rules: q's second rule
  // can never fire; after its removal nothing defines helper either.
  auto parsed = MustParse(
      "q(X) :- e(X).\n"
      "q(X) :- ghost(X), helper(X).\n"
      "helper(X) :- q(X).\n"
      "?- q(X).\n");
  std::unordered_set<PredId> inputs = {
      *parsed.ctx->FindPredicate(*parsed.ctx->FindSymbol("e"), 1,
                                 Adornment())};
  Result<CleanupResult> result = CleanupProgram(parsed.program, inputs);
  ASSERT_TRUE(result.ok());
  // The ghost rule goes first; helper then becomes unreachable and its
  // rule cascades away, leaving only `q(X) :- e(X).`
  bool helper_defined = false;
  for (const Rule& r : result->program.rules()) {
    if (parsed.ctx->SymbolName(
            parsed.ctx->predicate(r.head.pred).name) == "helper") {
      helper_defined = true;
    }
  }
  EXPECT_FALSE(helper_defined);
  EXPECT_EQ(result->program.NumRules(), 1u);
}

TEST(CleanupTest, InputPredicatesNotTreatedAsEmpty) {
  auto parsed = MustParse(
      "q(X) :- e(X).\n"
      "?- q(X).\n");
  std::unordered_set<PredId> inputs = parsed.program.EdbPredicates();
  Result<CleanupResult> result = CleanupProgram(parsed.program, inputs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules_removed, 0u);
}

TEST(CleanupTest, CascadeToEmptyProgram) {
  // Example 8's endgame: everything reachable depends on an undefined
  // internal predicate; the whole program collapses.
  auto parsed = MustParse(
      "q(X) :- mid(X).\n"
      "mid(X) :- ghost(X).\n"
      "?- q(X).\n");
  std::unordered_set<PredId> inputs = {};  // nothing is input
  Result<CleanupResult> result = CleanupProgram(parsed.program, inputs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->program.NumRules(), 0u);
}

}  // namespace
}  // namespace exdl
