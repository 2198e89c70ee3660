// The folding rewriting of Example 11 and its inverse.

#include <string>

#include <gtest/gtest.h>

#include "analysis/dependency_graph.h"
#include "ast/printer.h"
#include "core/compiled_program.h"
#include "core/optimizer.h"
#include "equiv/random_check.h"
#include "equiv/summary_closure.h"
#include "testing/test_util.h"
#include "transform/folding.h"
#include "transform/unfolding.h"

namespace exdl {
namespace {

using ::exdl::testing::MustParse;

// The paper's Example 9/11 program (cleaned from the OCR-damaged TR):
//   pnd(X) :- pnn(X,Y), g3(Y,Z,U).           <- fold me
//   pnd(X) :- pnn(X,Z,U)... (arities in the TR are inconsistent; we use
//   the shape that matters: the 4th rule embeds rule 1's body pattern.)
const char kExample11[] =
    "pnd(X) :- pnn(X, Y), g3(Y, Z, U).\n"
    "pnd(X) :- pnn(X, Z), g1(Z, Y).\n"
    "pnn(X, Z) :- pnn(X, W), g2(W, Z).\n"
    "pnn(X, Z) :- pnn(X, V), g3(V, Z, U), g4(U, W).\n"  // embeds rule 1
    "pnn(X, Y) :- g0(X, Y).\n"
    "?- pnd(X).\n";

TEST(FoldingTest, FoldsEmbeddedPattern) {
  auto parsed = MustParse(kExample11);
  Result<FoldingResult> folded = FoldAlmostUnitRules(parsed.program);
  ASSERT_TRUE(folded.ok());
  EXPECT_GE(folded->rules_folded, 1u);
  EXPECT_GE(folded->bodies_folded, 1u);
  // Rule 1 became a unit rule over the auxiliary.
  const Rule& r1 = folded->program.rules()[0];
  EXPECT_EQ(r1.body.size(), 1u);
  EXPECT_TRUE(folded->aux_preds.count(r1.body[0].pred) > 0);
}

TEST(FoldingTest, FoldPreservesAnswers) {
  auto parsed = MustParse(kExample11);
  Result<FoldingResult> folded = FoldAlmostUnitRules(parsed.program);
  ASSERT_TRUE(folded.ok());
  Result<RandomCheckReport> check =
      CheckQueryEquivalentOnEdb(parsed.program, folded->program);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->equivalent) << check->counterexample;
}

TEST(FoldingTest, UnfoldRestoresShape) {
  auto parsed = MustParse(kExample11);
  Result<FoldingResult> folded = FoldAlmostUnitRules(parsed.program);
  ASSERT_TRUE(folded.ok());
  Result<UnfoldResult> unfolded =
      UnfoldPredicates(folded->program, folded->aux_preds);
  ASSERT_TRUE(unfolded.ok());
  // No auxiliary remains.
  for (const Rule& r : unfolded->program.rules()) {
    EXPECT_EQ(folded->aux_preds.count(r.head.pred), 0u);
    for (const Atom& lit : r.body) {
      EXPECT_EQ(folded->aux_preds.count(lit.pred), 0u);
    }
  }
  Result<RandomCheckReport> check =
      CheckQueryEquivalentOnEdb(parsed.program, unfolded->program);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->equivalent) << check->counterexample;
}

TEST(FoldingTest, NoProfitableFoldIsNoop) {
  auto parsed = MustParse(
      "q(X) :- a(X, Y), b(Y).\n"
      "q(X) :- c(X).\n"
      "?- q(X).\n");
  Result<FoldingResult> folded = FoldAlmostUnitRules(parsed.program);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->rules_folded, 0u);
  EXPECT_EQ(ToString(folded->program), ToString(parsed.program));
}

TEST(FoldingTest, NegationDisablesFolding) {
  auto parsed = MustParse(
      "q(X) :- a(X, Y), not b(Y).\n"
      "p(X, Z) :- a(X, Y), not b(Y), c(Z).\n"
      "?- q(X).\n");
  Result<FoldingResult> folded = FoldAlmostUnitRules(parsed.program);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->rules_folded, 0u);
}

TEST(FoldingTest, OptimizerPipelineWithFolding) {
  // End to end: folding + deletion + unfolding, answers preserved; the
  // Example 11 deletion actually happens (the 4th rule's pattern-folded
  // form is subsumed via the auxiliary unit rule).
  auto parsed = MustParse(kExample11);
  OptimizerOptions options;
  options.adorn = false;
  options.enable_folding = true;
  Result<OptimizedProgram> optimized =
      OptimizeExistential(parsed.program, options);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  Result<RandomCheckReport> check =
      CheckQueryEquivalentOnEdb(parsed.program, optimized->program);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->equivalent)
      << check->counterexample << "\n"
      << ToString(optimized->program);
  EXPECT_GE(optimized->report.rules_folded, 1u);
}

// Folding names its auxiliaries fold_0, fold_1, ... per compile, so
// repeated compiles into one Context intern nothing after the first.
TEST(FoldingTest, RepeatedCompilesInternNothingNew) {
  CompileOptions options;
  options.optimize = true;
  options.optimizer.adorn = false;
  options.optimizer.enable_folding = true;
  ContextPtr ctx = std::make_shared<Context>();
  size_t symbols = 0;
  size_t preds = 0;
  for (int i = 0; i < 10; ++i) {
    Result<CompiledProgram::Ptr> compiled =
        CompiledProgram::Compile(kExample11, options, nullptr, ctx);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_GE((*compiled)->report().rules_folded, 1u);
    if (i == 0) {
      symbols = ctx->NumSymbols();
      preds = ctx->NumPredicates();
      continue;
    }
    EXPECT_EQ(ctx->NumSymbols(), symbols) << "compile " << i;
    EXPECT_EQ(ctx->NumPredicates(), preds) << "compile " << i;
  }
}

// The auxiliaries skip every predicate name of the source, also one an
// earlier phase dropped from the program: cleanup removes the unreachable
// rule over the input predicate fold_0/4 before folding introduces a
// 4-ary auxiliary, which must not become that input predicate. The
// deletion the fold enables logs the auxiliary's name.
TEST(FoldingTest, AuxiliaryAvoidsNamesTheSourceDropped) {
  auto parsed = MustParse(std::string(kExample11) +
                          "unused(X) :- fold_0(X, Y, Z, U).\n");
  OptimizerOptions options;
  options.adorn = false;
  options.enable_folding = true;
  Result<OptimizedProgram> optimized =
      OptimizeExistential(parsed.program, options);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  ASSERT_GE(optimized->report.rules_folded, 1u);
  bool logged_aux = false;
  for (const std::string& line : optimized->report.log) {
    EXPECT_EQ(line.find("fold_0("), std::string::npos) << line;
    logged_aux |= line.find("fold_1(") != std::string::npos;
  }
  EXPECT_TRUE(logged_aux);
}

TEST(FoldingTest, MappingMayIdentifyVariables) {
  // The embedded instance maps the pattern's two variables to one.
  auto parsed = MustParse(
      "a(X, Y) :- e(X, Y).\n"
      "q(X) :- a(X, Y), b(Y, Z).\n"
      "p(X) :- a(X, X), b(X, X), c(X).\n"
      "?- q(X).\n");
  Result<FoldingResult> folded = FoldAlmostUnitRules(parsed.program);
  ASSERT_TRUE(folded.ok());
  ASSERT_EQ(folded->rules_folded, 1u);
  EXPECT_EQ(folded->bodies_folded, 1u);
  Result<RandomCheckReport> check =
      CheckQueryEquivalentOnEdb(parsed.program, folded->program);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->equivalent) << check->counterexample;
}

}  // namespace
}  // namespace exdl
