// The optimizer's unfold phase (transform/unfolding.h): one rejection case
// per condition, the printed programs of the three serve_mix templates,
// the source-fact guard in front of the whole pipeline, and the bounded
// symbol growth of repeated compiles.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ast/printer.h"
#include "core/compiled_program.h"
#include "core/optimizer.h"
#include "core/session.h"
#include "equiv/random_check.h"
#include "testing/test_util.h"
#include "transform/unfolding.h"

namespace exdl {
namespace {

using ::exdl::testing::MustParse;

constexpr char kTcRules[] =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Y) :- e(X, Z), tc(Z, Y).\n";

/// Runs the phase alone and returns the printed program (and the count).
std::string Unfold(const std::string& source, size_t* unfolded = nullptr) {
  auto parsed = MustParse(source);
  Result<UnfoldResult> result = UnfoldNonRecursive(parsed.program);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "";
  if (unfolded != nullptr) *unfolded = result->unfolded;
  return ToString(result->program);
}

/// The phase leaves `source` exactly as it is.
void ExpectUnchanged(const std::string& source) {
  size_t unfolded = 99;
  EXPECT_EQ(Unfold(source, &unfolded), ToString(MustParse(source).program));
  EXPECT_EQ(unfolded, 0u);
}

/// The optimized program text of `source`, or "" on failure.
std::string Optimized(const std::string& source) {
  CompileOptions options;
  options.optimize = true;
  Result<CompiledProgram::Ptr> compiled =
      CompiledProgram::Compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return compiled.ok() ? ToString((*compiled)->program()) : "";
}

TEST(UnfoldPhaseTest, InlinesTheOneUseInPlace) {
  size_t unfolded = 0;
  EXPECT_EQ(Unfold("q@n(X) :- r(X), p@n(X), s(X).\n"
                   "p@n(X) :- e(X, Y), f(Y, X).\n"
                   "?- q@n(X).\n",
                   &unfolded),
            "q@n(X) :- r(X), e(X, Y), f(Y, X), s(X).\n"
            "?- q@n(X).\n");
  EXPECT_EQ(unfolded, 1u);
}

TEST(UnfoldPhaseTest, RenamesOnlyVariablesTheUseSiteHas) {
  // The definition's Y clashes with the use site's Y, and I_0 is taken
  // too, so Y becomes I_1; Z is free and keeps its name.
  EXPECT_EQ(Unfold("q@n(X) :- p@n(X), g(Y, I_0).\n"
                   "p@n(X) :- e(X, Y), f(Y, Z).\n"
                   "?- q@n(X).\n"),
            "q@n(X) :- e(X, I_1), f(I_1, Z), g(Y, I_0).\n"
            "?- q@n(X).\n");
}

TEST(UnfoldPhaseTest, CallArgumentsSubstituteForHeadVariables) {
  EXPECT_EQ(Unfold("hit :- p@nn(c, c).\n"
                   "p@nn(X, Y) :- e(X, Z), e(Z, Y).\n"
                   "?- hit.\n"),
            "hit :- e(c, Z), e(Z, c).\n"
            "?- hit.\n");
}

TEST(UnfoldPhaseTest, ChainsOfSingleUsePredicatesCollapse) {
  size_t unfolded = 0;
  EXPECT_EQ(Unfold("q@n(X) :- p@n(X).\n"
                   "p@n(X) :- s@n(X), r(X).\n"
                   "s@n(X) :- e(X, Y).\n"
                   "?- q@n(X).\n",
                   &unfolded),
            "q@n(X) :- e(X, Y), r(X).\n"
            "?- q@n(X).\n");
  EXPECT_EQ(unfolded, 2u);
}

TEST(UnfoldPhaseTest, DollarPredicatesQualify) {
  auto parsed = MustParse("q@n(X) :- e(X, Y).\n?- q@n(X).\n");
  Context& ctx = *parsed.ctx;
  const PredId reach = ctx.InternPredicate("reach$x", 1);
  const PredId e = *ctx.FindPredicate(*ctx.FindSymbol("e"), 2, Adornment());
  const SymbolId x = *ctx.FindSymbol("X");
  const SymbolId y = *ctx.FindSymbol("Y");
  Program program = parsed.program.Clone();
  program.mutable_rules()[0].body = {Atom(reach, {Term::Var(x)})};
  program.AddRule(Rule(Atom(reach, {Term::Var(x)}),
                       {Atom(e, {Term::Var(x), Term::Var(y)})}));
  Result<UnfoldResult> result = UnfoldNonRecursive(program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->unfolded, 1u);
  EXPECT_EQ(ToString(result->program), "q@n(X) :- e(X, Y).\n?- q@n(X).\n");
}

// Condition 1: the query predicate is the answer, never inlined.
TEST(UnfoldRejectTest, QueryPredicate) {
  ExpectUnchanged("q@n(X) :- p@n(X).\n"
                  "p@n(X) :- e(X, Y).\n"
                  "?- p@n(X).\n");
}

// Condition 2: exactly one defining rule.
TEST(UnfoldRejectTest, TwoDefiningRules) {
  ExpectUnchanged("q@n(X) :- p@n(X).\n"
                  "p@n(X) :- e(X, Y).\n"
                  "p@n(X) :- f(X).\n"
                  "?- q@n(X).\n");
}

// Condition 2: head arguments must be distinct variables.
TEST(UnfoldRejectTest, RepeatedHeadVariable) {
  ExpectUnchanged("q@n(X) :- p@nn(X, Y), r(Y).\n"
                  "p@nn(X, X) :- e(X, X).\n"
                  "?- q@n(X).\n");
}

TEST(UnfoldRejectTest, ConstantInHead) {
  ExpectUnchanged("q@n(X) :- p@nn(X, Y), r(Y).\n"
                  "p@nn(X, c) :- e(X, Y).\n"
                  "?- q@n(X).\n");
}

// A body-less definition would leave a body-less rule, which prints as a
// fact; only programs built through the API can have one.
TEST(UnfoldRejectTest, EmptyBodyDefinition) {
  auto parsed = MustParse("hit :- e(c, Y), p@n.\n?- hit.\n");
  Program program = parsed.program.Clone();
  const PredId p = program.rules()[0].body[1].pred;
  program.AddRule(Rule(Atom(p, {}), {}));
  Result<UnfoldResult> result = UnfoldNonRecursive(program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->unfolded, 0u);
  EXPECT_EQ(ToString(result->program), ToString(program));
}

// Condition 3: a recursive predicate stays (here p@n and s@n are mutually
// recursive; s@n's one use sits in p@n's rule). The shared inliner
// refuses a directly recursive definition even when asked for it, as
// folding's residue may.
TEST(UnfoldRejectTest, RecursivePredicate) {
  ExpectUnchanged("q@n(X) :- p@n(X), r(X).\n"
                  "p@n(X) :- e(X, Y), s@n(Y).\n"
                  "p@n(X) :- f(X).\n"
                  "s@n(X) :- p@n(X), g(X).\n"
                  "?- q@n(X).\n");
  auto parsed = MustParse("q@n(X) :- p@n(X).\n"
                          "p@n(X) :- e(X, Y), p@n(Y).\n"
                          "?- q@n(X).\n");
  const PredId p = parsed.program.rules()[1].head.pred;
  Result<UnfoldResult> result = UnfoldPredicates(parsed.program, {p});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->unfolded, 0u);
  EXPECT_EQ(ToString(result->program), ToString(parsed.program));
}

// Condition 4: exactly one body occurrence...
TEST(UnfoldRejectTest, TwoUses) {
  ExpectUnchanged("q@n(X) :- p@n(X), r(X).\n"
                  "q@n(X) :- p@n(X), s(X).\n"
                  "p@n(X) :- e(X, Y).\n"
                  "?- q@n(X).\n");
  ExpectUnchanged("q@n(X) :- p@n(X), e(X, Y), p@n(Y).\n"
                  "p@n(X) :- e(X, Y).\n"
                  "?- q@n(X).\n");
}

// ...that is positive...
TEST(UnfoldRejectTest, NegatedUse) {
  ExpectUnchanged("q@n(X) :- r(X), not p@n(X).\n"
                  "p@n(X) :- e(X, Y).\n"
                  "?- q@n(X).\n");
}

// ...in a rule whose head is not recursive: inlined into tc@nd's
// recursive rule, g's join would run again in every round. Factored
// programs (reach$/ans$ closures) keep their shape for the same reason.
TEST(UnfoldRejectTest, RecursiveUseSite) {
  ExpectUnchanged("tc@nd(X) :- e(X, Y), tc@nd(Y), p@n(X).\n"
                  "tc@nd(X) :- f(X, Y).\n"
                  "p@n(X) :- g(X, Y).\n"
                  "?- tc@nd(X).\n");
}

// Condition 5: an unadorned predicate can receive LOAD_FACTS, and a
// boolean component (bq_N) is meant to be evaluated once, on its own.
TEST(UnfoldRejectTest, UnadornedPredicate) {
  ExpectUnchanged("q(X) :- p(X), r(X).\n"
                  "p(X) :- e(X, Y).\n"
                  "?- q(X).\n");
}

// Condition 5: source facts naming a derived or adorned predicate stop the
// whole pipeline (this program once lost p(z) under --optimize).
TEST(UnfoldRejectTest, SourceFactsStopThePipeline) {
  const std::string derived =
      "e(a, b). p(z). r(a). r(z).\n"
      "p(X) :- e(X, Y).\n"
      "q(X) :- p(X), r(X).\n"
      "?- q(X).\n";
  CompileOptions options;
  options.optimize = true;
  Result<CompiledProgram::Ptr> compiled =
      CompiledProgram::Compile(derived, options);
  ASSERT_TRUE(compiled.ok());
  const CompiledProgram& program = **compiled;
  EXPECT_TRUE(program.report().phases.empty());
  EXPECT_EQ(program.report().log,
            std::vector<std::string>{
                "optimizer skipped: source facts name derived predicate p"});
  EXPECT_NE(program.report().ToString().find("optimizer skipped"),
            std::string::npos);
  EXPECT_EQ(ToString(program.program()),
            ToString(MustParse(derived).program));
  Session session;
  session.Bind(*compiled);
  Result<EvalResult> run = session.Run(program.facts());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->answers.size(), 2u);

  const std::string adorned =
      "e(a, b). p@n(z).\n"
      "q(X) :- p@n(X), e(X, Y).\n"
      "?- q(X).\n";
  compiled = CompiledProgram::Compile(adorned, options);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ((*compiled)->report().log,
            std::vector<std::string>{
                "optimizer skipped: source facts name adorned predicate p@n"});

  // Facts for base predicates only: the pipeline runs.
  compiled = CompiledProgram::Compile(
      std::string("e(a, b).\n") + kTcRules + "q(X) :- tc(X, _).\n?- q(X).\n",
      options);
  ASSERT_TRUE(compiled.ok());
  EXPECT_FALSE((*compiled)->report().phases.empty());
  EXPECT_EQ((*compiled)->report().predicates_unfolded, 1u);
}

// The three serve_mix request templates, as the optimizer prints them.
TEST(UnfoldServeMixTest, TemplatesPrintAsExpected) {
  EXPECT_EQ(Optimized(std::string(kTcRules) + "q(X) :- tc(X, _).\n?- q(X).\n"),
            "q@n(X) :- e(X, Y).\n"
            "?- q@n(X).\n");
  EXPECT_EQ(Optimized("q(Z) :- e(c0x3, Y), e(Y, Z).\n?- q(Z).\n"),
            "q@n(Z) :- e(c0x3, Y), e(Y, Z).\n"
            "?- q@n(Z).\n");
  EXPECT_EQ(Optimized(std::string(kTcRules) +
                      "hit :- e(c0x3, Y), tc(Y, _).\n?- hit.\n"),
            "hit :- e(c0x3, Y), e(Y, I_0).\n"
            "?- hit.\n");
}

TEST(UnfoldServeMixTest, PrintedProgramsReparseToThemselves) {
  for (const std::string& source :
       {std::string(kTcRules) + "q(X) :- tc(X, _).\n?- q(X).\n",
        std::string(kTcRules) + "hit :- e(c, Y), tc(Y, _), e(Y, _).\n"
                                "?- hit.\n"}) {
    const std::string printed = Optimized(source);
    EXPECT_EQ(ToString(MustParse(printed).program), printed);
  }
}

TEST(UnfoldServeMixTest, ReportAndPhaseOrder) {
  auto parsed = MustParse(std::string(kTcRules) +
                          "hit :- e(c, Y), tc(Y, _).\n?- hit.\n");
  Result<OptimizedProgram> optimized = OptimizeExistential(parsed.program);
  ASSERT_TRUE(optimized.ok());
  std::vector<std::string_view> names;
  for (const OptimizationPhase& phase : optimized->report.phases) {
    names.push_back(phase.name);
  }
  EXPECT_EQ(names, (std::vector<std::string_view>{
                       "adorn", "projection", "components", "unit_rules",
                       "deletion", "cleanup", "unfold", "factor"}));
  EXPECT_EQ(optimized->report.phases[6].detail, "unfolded 1 predicate(s)");
  EXPECT_EQ(optimized->report.predicates_unfolded, 1u);
  Result<RandomCheckReport> check =
      CheckQueryEquivalentOnEdb(parsed.program, optimized->program);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->equivalent) << check->counterexample;
}

// Repeated compiles into one long-lived context (the daemon's) intern
// nothing new after the first: anonymous variables are __0, __1, ... per
// clause and inlined variables I_0, I_1, ... per rule.
TEST(UnfoldServeMixTest, RepeatedCompilesInternNoNewSymbols) {
  ContextPtr ctx = std::make_shared<Context>();
  CompileOptions options;
  options.optimize = true;
  const std::string source = std::string(kTcRules) +
                             "hit :- e(c, Y), tc(Y, _), e(Y, _).\n"
                             "q(X) :- tc(X, _).\n?- hit.\n";
  ASSERT_TRUE(CompiledProgram::Compile(source, options, nullptr, ctx).ok());
  const size_t symbols = ctx->NumSymbols();
  const size_t preds = ctx->NumPredicates();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CompiledProgram::Compile(source, options, nullptr, ctx).ok());
  }
  EXPECT_EQ(ctx->NumSymbols(), symbols);
  EXPECT_EQ(ctx->NumPredicates(), preds);
}

}  // namespace
}  // namespace exdl
