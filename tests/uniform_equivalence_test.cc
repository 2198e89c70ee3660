#include <gtest/gtest.h>

#include "core/compiled_program.h"
#include "equiv/freeze.h"
#include "equiv/random_check.h"
#include "equiv/uniform_equivalence.h"
#include "testing/test_util.h"

namespace exdl {
namespace {

using ::exdl::testing::MustParse;
using ::exdl::testing::MustParseWith;

TEST(FreezeTest, VariablesBecomeFreshConstants) {
  auto parsed = MustParse("p(X, Y) :- q(X, Z), r(Z, Y).\n");
  FrozenRule frozen =
      FreezeRule(parsed.program.rules()[0], parsed.program);
  EXPECT_TRUE(frozen.head.IsGround());
  EXPECT_EQ(frozen.var_to_const.size(), 3u);
  EXPECT_EQ(frozen.body_facts.TotalTuples(), 2u);
  // Shared variable Z freezes to the same constant in both body facts.
  PredId q = parsed.program.rules()[0].body[0].pred;
  PredId r = parsed.program.rules()[0].body[1].pred;
  EXPECT_EQ(frozen.body_facts.FactsOf(q)[0].args[1],
            frozen.body_facts.FactsOf(r)[0].args[0]);
}

TEST(FreezeTest, ConstantsSurviveFreezing) {
  auto parsed = MustParse("p(X) :- q(X, c7).\n");
  FrozenRule frozen =
      FreezeRule(parsed.program.rules()[0], parsed.program);
  PredId q = parsed.program.rules()[0].body[0].pred;
  Atom fact = frozen.body_facts.FactsOf(q)[0];
  EXPECT_EQ(parsed.ctx->SymbolName(fact.args[1].id()), "c7");
}

TEST(FreezeTest, FrozenNamesAvoidTheProgramsConstants) {
  // frz_0 is a constant of the program, so the rule freezes to frz_1 and
  // frz_2; a second freeze reuses the same two names.
  auto parsed = MustParse("p(X, Y) :- q(X, frz_0), r(Y).\n");
  const Rule& rule = parsed.program.rules()[0];
  FrozenRule frozen = FreezeRule(rule, parsed.program);
  ASSERT_EQ(frozen.head.args.size(), 2u);
  EXPECT_EQ(parsed.ctx->SymbolName(frozen.head.args[0].id()), "frz_1");
  EXPECT_EQ(parsed.ctx->SymbolName(frozen.head.args[1].id()), "frz_2");
  EXPECT_EQ(FreezeRule(rule, parsed.program).head, frozen.head);
}

// A --sagiv compile into a long-lived context (the daemon's) interns
// nothing new after the first: its frozen constants are reused.
TEST(SagivTest, RepeatedCompilesInternNoNewConstants) {
  ContextPtr ctx = std::make_shared<Context>();
  CompileOptions options;
  options.optimize = true;
  options.optimizer.deletion.use_sagiv = true;
  const std::string source =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "q(X) :- tc(X, _).\n"
      "?- q(X).\n";
  ASSERT_TRUE(CompiledProgram::Compile(source, options, nullptr, ctx).ok());
  const size_t symbols = ctx->NumSymbols();
  for (int i = 0; i < 99; ++i) {
    ASSERT_TRUE(CompiledProgram::Compile(source, options, nullptr, ctx).ok());
  }
  EXPECT_EQ(ctx->NumSymbols(), symbols);
  EXPECT_NE(ctx->FindSymbol("frz_0"), std::nullopt);
}

TEST(SagivTest, PaperExample4RecursiveRuleDeletable) {
  // a^nd(X) :- p(X,Z), a^nd(Z).  is redundant given  a^nd(X) :- p(X,Z).
  auto parsed = MustParse(
      "a(X) :- p(X, Z), a(Z).\n"
      "a(X) :- p(X, Z).\n"
      "?- a(X).\n");
  Result<bool> deletable =
      DeletableUnderUniformEquivalence(parsed.program, 0);
  ASSERT_TRUE(deletable.ok());
  EXPECT_TRUE(*deletable);
  // The exit rule is not deletable.
  Result<bool> exit_deletable =
      DeletableUnderUniformEquivalence(parsed.program, 1);
  ASSERT_TRUE(exit_deletable.ok());
  EXPECT_FALSE(*exit_deletable);
}

TEST(SagivTest, Example3aVariantNotDeletable) {
  // With the exit rule over a *different* base predicate p1, the
  // recursive rule is no longer redundant (paper's Example 3a remark).
  auto parsed = MustParse(
      "a(X) :- p(X, Z), a(Z).\n"
      "a(X) :- p1(X, Z).\n"
      "?- a(X).\n");
  Result<bool> deletable =
      DeletableUnderUniformEquivalence(parsed.program, 0);
  ASSERT_TRUE(deletable.ok());
  EXPECT_FALSE(*deletable);
}

TEST(SagivTest, PaperExample5NothingDeletable) {
  // Example 5: no rule of the adorned program can be deleted under
  // uniform equivalence.
  auto parsed = MustParse(
      "and(X) :- ann(X, Z), p(Z, Y).\n"
      "and(X) :- p(X, Y).\n"
      "ann(X, Y) :- ann(X, Z), p(Z, Y).\n"
      "ann(X, Y) :- p(X, Y).\n"
      "?- and(X).\n");
  for (size_t r = 0; r < parsed.program.rules().size(); ++r) {
    Result<bool> deletable =
        DeletableUnderUniformEquivalence(parsed.program, r);
    ASSERT_TRUE(deletable.ok());
    EXPECT_FALSE(*deletable) << "rule " << r;
  }
}

TEST(UniformContainmentTest, SubsetOfRulesIsContained) {
  auto parsed = MustParse(
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  Program exit_only(parsed.program.context());
  exit_only.AddRule(parsed.program.rules()[0]);
  exit_only.SetQuery(*parsed.program.query());
  Result<bool> contained = UniformlyContains(parsed.program, exit_only);
  ASSERT_TRUE(contained.ok());
  EXPECT_TRUE(*contained);  // full program derives everything exit_only does
  Result<bool> reverse = UniformlyContains(exit_only, parsed.program);
  ASSERT_TRUE(reverse.ok());
  EXPECT_FALSE(*reverse);
}

TEST(UniformEquivalenceTest, SyntacticVariantsAreEquivalent) {
  auto parsed = MustParse(
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  // Same program with renamed variables and reordered body.
  auto variant = MustParseWith(parsed.ctx,
      "tc(A,B) :- e(A,B).\n"
      "tc(A,B) :- tc(C,B), e(A,C).\n"
      "?- tc(A,B).\n");
  Result<bool> eq = UniformlyEquivalent(parsed.program, variant.program);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(UniformEquivalenceTest, LeftVsRightRecursionNotUniformlyEquivalent) {
  // The classic separation (Sagiv 87): left- and right-linear transitive
  // closure are query equivalent but NOT uniformly equivalent — with
  // tc-facts allowed in the input, {e(x,z), tc(z,y)} lets the right-linear
  // program derive tc(x,y) while the left-linear one cannot.
  auto parsed = MustParse(
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  auto left = MustParseWith(parsed.ctx,
      "tc2(X,Y) :- e(X,Y).\n"
      "tc2(X,Y) :- tc2(X,Z), e(Z,Y).\n"
      "?- tc2(X,Y).\n");
  // Different predicate names make them trivially inequivalent uniformly;
  // compare structurally by reusing the same name is impossible in one
  // context, so check the one-rule containment directly instead:
  // right-linear recursive rule's frozen instance is not re-derived by the
  // left-linear program.
  Program left_named(parsed.ctx);
  // Build left-linear rules over the *same* predicate tc.
  {
    auto same = MustParseWith(parsed.ctx,
        "tc(X,Y) :- e(X,Y).\n"
        "tc(X,Y) :- tc(X,Z), e(Z,Y).\n"
        "?- tc(X,Y).\n");
    left_named = same.program.Clone();
  }
  Result<bool> eq = UniformlyEquivalent(parsed.program, left_named);
  ASSERT_TRUE(eq.ok());
  EXPECT_FALSE(*eq);
  // Yet they are query equivalent over EDB-only instances.
  Result<RandomCheckReport> report = CheckQueryEquivalent(
      parsed.program, left_named,
      {parsed.program.rules()[0].body[0].pred});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent) << report->counterexample;
}

TEST(UniformEquivalenceTest, DifferentProgramsNotEquivalent) {
  auto parsed = MustParse(
      "p(X) :- e(X).\n"
      "?- p(X).\n");
  auto other = MustParseWith(parsed.ctx,
      "p(X) :- f(X).\n"
      "?- p(X).\n");
  Result<bool> eq = UniformlyEquivalent(parsed.program, other.program);
  ASSERT_TRUE(eq.ok());
  EXPECT_FALSE(*eq);
}

TEST(SagivTest, RuleIndexOutOfRange) {
  auto parsed = MustParse("p(X) :- e(X).\n?- p(X).\n");
  EXPECT_FALSE(DeletableUnderUniformEquivalence(parsed.program, 5).ok());
}

TEST(RandomCheckTest, EquivalentProgramsPass) {
  auto parsed = MustParse(
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  auto left = MustParseWith(parsed.ctx,
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- tc(X,Z), e(Z,Y).\n"
      "?- tc(X,Y).\n");
  Result<RandomCheckReport> report =
      CheckQueryEquivalentOnEdb(parsed.program, left.program);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent) << report->counterexample;
  EXPECT_GT(report->trials_run, 0);
}

TEST(RandomCheckTest, InequivalentProgramsCaught) {
  auto parsed = MustParse(
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  auto exit_only = MustParseWith(parsed.ctx,
      "tc2(X,Y) :- e(X,Y).\n"
      "?- tc2(X,Y).\n");
  Result<RandomCheckReport> report =
      CheckQueryEquivalentOnEdb(parsed.program, exit_only.program);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->equivalent);
  EXPECT_FALSE(report->counterexample.empty());
}

TEST(RandomCheckTest, RequiresSharedContext) {
  auto a = MustParse("p(X) :- e(X).\n?- p(X).\n");
  auto b = MustParse("p(X) :- e(X).\n?- p(X).\n");
  EXPECT_FALSE(CheckQueryEquivalentOnEdb(a.program, b.program).ok());
}

TEST(RandomCheckTest, PopulateDerivedExercisesUniformInputs) {
  auto parsed = MustParse(
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  // Deleting the recursive rule is UE-sound, so even with tc facts in the
  // input the programs agree... no: deleting changes derivations from
  // input tc facts. Keep both rules; compare the program to itself.
  RandomCheckOptions options;
  options.populate_derived = true;
  Result<RandomCheckReport> report = CheckQueryEquivalentOnEdb(
      parsed.program, parsed.program, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent);
}

}  // namespace
}  // namespace exdl
