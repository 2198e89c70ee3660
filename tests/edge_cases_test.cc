// Edge cases and failure injection across the stack: caps, degenerate
// programs, wide arities, adversarial inputs.

#include <string>

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "equiv/optimistic.h"
#include "equiv/summary_closure.h"
#include "eval/evaluator.h"
#include "parser/parser.h"
#include "testing/test_util.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace exdl {
namespace {

using ::exdl::testing::EvalAnswers;
using ::exdl::testing::MustParse;

TEST(EdgeCaseTest, EmptyProgramWithQuery) {
  auto parsed = MustParse("?- ghost(X).\n");
  EvalResult result = testing::MustEval(parsed.program, parsed.edb);
  EXPECT_TRUE(result.answers.empty());
  // The optimizer handles a query over an undefined predicate.
  Result<OptimizedProgram> optimized = OptimizeExistential(parsed.program);
  ASSERT_TRUE(optimized.ok());
}

TEST(EdgeCaseTest, SelfLoopSingleNode) {
  auto parsed = MustParse(
      "e(n0, n0).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            (std::vector<std::string>{"n0,n0"}));
}

TEST(EdgeCaseTest, WideArityRelation) {
  // 8-ary predicate with an 8-variable join.
  std::string rule = "w(A,B,C,D,E,F,G,H) :- "
                     "p(A,B,C,D,E,F,G,H), q(H,G,F,E,D,C,B,A).\n?- "
                     "w(A,B,C,D,E,F,G,H).\n";
  std::string facts =
      "p(a,b,c,d,e,f,g,h). q(h,g,f,e,d,c,b,a). q(a,b,c,d,e,f,g,h).\n";
  auto parsed = MustParse(facts + rule);
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb).size(), 1u);
}

TEST(EdgeCaseTest, LongBodyRule) {
  std::string body;
  std::string facts;
  for (int i = 0; i < 10; ++i) {
    if (i > 0) body += ", ";
    body += StrCat("e", std::to_string(i), "(X", std::to_string(i), ", X",
                   std::to_string(i + 1), ")");
    facts += StrCat("e", std::to_string(i), "(n", std::to_string(i), ", n",
                    std::to_string(i + 1), ").\n");
  }
  auto parsed =
      MustParse(facts + "path(X0, X10) :- " + body + ".\n?- path(A, B).\n");
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            (std::vector<std::string>{"n0,n10"}));
}

TEST(EdgeCaseTest, DuplicateLiteralsInBody) {
  auto parsed = MustParse(
      "e(n0, n1).\n"
      "p(X) :- e(X, Y), e(X, Y), e(X, Y).\n"
      "?- p(X).\n");
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb).size(), 1u);
}

TEST(EdgeCaseTest, HeadConstantOnly) {
  auto parsed = MustParse(
      "e(n0).\n"
      "status(ok) :- e(X).\n"
      "?- status(S).\n");
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            (std::vector<std::string>{"ok"}));
  // Single-tuple head: the cut retires the rule after the first witness.
  EvalResult result = testing::MustEval(parsed.program, parsed.edb);
  EXPECT_EQ(result.stats.rules_retired, 1u);
}

TEST(EdgeCaseTest, QueryIsGroundFact) {
  auto parsed = MustParse(
      "e(n0, n1).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "?- tc(n0, n1).\n");
  EvalResult result = testing::MustEval(parsed.program, parsed.edb);
  EXPECT_TRUE(result.ground_query_true);
  EXPECT_EQ(result.answers.size(), 1u);  // the empty binding
}

TEST(EdgeCaseTest, SummaryClosureCapIsHonored) {
  // Wide mutually recursive program; a tiny cap flags incompleteness
  // instead of blowing up.
  std::string source;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      source += StrCat("m", std::to_string(i), "(A,B,C,D) :- m",
                       std::to_string(j), "(B,A,D,C), e(A,B).\n");
    }
    source += StrCat("m", std::to_string(i), "(A,B,C,D) :- g(A,B,C,D).\n");
  }
  source += "?- m0(A,B,C,D).\n";
  auto parsed = MustParse(source);
  SummaryClosureOptions tiny;
  tiny.max_summaries_per_occurrence = 2;
  Result<SummaryAnalysis> analysis =
      SummaryAnalysis::Build(parsed.program, tiny);
  ASSERT_TRUE(analysis.ok());
  EXPECT_FALSE(analysis->complete());
  EXPECT_TRUE(analysis->DeletableRules().empty());
}

TEST(EdgeCaseTest, OptimisticCapSurfacesAsError) {
  // Deleting the p-rule seeds the optimistic chase from p(x); the big
  // rule's unbound head variables then range over the (constant-rich)
  // domain, blowing past a tiny fact cap.
  auto parsed = MustParse(
      "big(X, Y, Z) :- p(X), d(Y), d(Z).\n"
      "q(X) :- big(X, Y, Z).\n"
      "p(X) :- e(X, c1, c2, c3, c4).\n"
      "?- q(X).\n");
  OptimisticOptions tiny;
  tiny.max_facts = 3;
  Result<bool> result =
      DeletableUnderOptimisticUqe(parsed.program, 2, tiny);
  EXPECT_FALSE(result.ok());
}

TEST(EdgeCaseTest, ParserSurvivesGarbageInputs) {
  // None of these should crash; all should produce a clean error.
  const char* bad[] = {
      "p(", ")", "p(X) :-", ":- q(X).", "p(X) q(X).", "p((X)).",
      "p(X,).", "@nd(X).", "p@(X).", "?-", "p(X) :- .", "....",
      "p(X) :- q(X),.",
  };
  for (const char* source : bad) {
    ContextPtr ctx = std::make_shared<Context>();
    Result<ParsedUnit> parsed = ParseProgram(source, ctx);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << source;
  }
}

TEST(EdgeCaseTest, ParserFuzzDoesNotCrash) {
  // Random token soup: parse must always return (ok or error), never hang
  // or crash.
  const char* tokens[] = {"p",  "(",  ")", ",",  ".",  ":-", "?-",
                          "X",  "42", "_", "@",  "nd", "not", "q"};
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    std::string source;
    int len = 1 + static_cast<int>(rng.Below(20));
    for (int i = 0; i < len; ++i) {
      source += tokens[rng.Below(std::size(tokens))];
      source += " ";
    }
    ContextPtr ctx = std::make_shared<Context>();
    (void)ParseProgram(source, ctx);  // outcome irrelevant; must terminate
  }
}

TEST(EdgeCaseTest, ManyConstantsInterning) {
  Context ctx;
  for (int i = 0; i < 50000; ++i) {
    ctx.InternSymbol("sym" + std::to_string(i));
  }
  EXPECT_EQ(ctx.NumSymbols(), 50000u);
  EXPECT_EQ(*ctx.FindSymbol("sym49999"), 49999u);
}

TEST(EdgeCaseTest, DeepRecursionChain) {
  // 3000-edge chain: recursion depth equals chain length; the engine is
  // iterative, so no stack issues.
  std::string facts;
  for (int i = 0; i < 3000; ++i) {
    facts += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
             ").\n";
  }
  auto parsed = MustParse(
      facts +
      "r(X) :- first(X).\n"
      "r(Y) :- r(X), e(X, Y).\n"
      "first(n0).\n"
      "?- r(X).\n");
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb).size(), 3001u);
}

TEST(EdgeCaseTest, OptimizerOnRulelessQueryOverFacts) {
  auto parsed = MustParse("e(n1, n2).\n?- e(X, Y).\n");
  Result<OptimizedProgram> optimized = OptimizeExistential(parsed.program);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(EvalAnswers(optimized->program, parsed.edb).size(), 1u);
}

TEST(EdgeCaseTest, MaxDeletionsRespected) {
  auto parsed = MustParse(
      "q(X) :- a(X, Y).\n"
      "q(X) :- a(X, Z), b(Z).\n"
      "q(X) :- a(X, Z), c(Z).\n"
      "q(X) :- a(X, Z), d(Z).\n"
      "?- q(X).\n");
  DeletionOptions options;
  options.max_deletions = 1;
  options.cleanup = false;
  Result<DeletionResult> result =
      DeleteRedundantRules(parsed.program, options);
  ASSERT_TRUE(result.ok());
  // Subsumption removes all three in one pass (it is one "deletion step"),
  // or the summary path stops after one; either way the cap bounds the
  // loop, not the batch.
  EXPECT_LE(result->deleted_by_summary, 1u);
}

TEST(EdgeCaseTest, ZeroAryQueriesWork) {
  auto parsed = MustParse(
      "e(n1).\n"
      "yes :- e(X).\n"
      "?- yes.\n");
  EvalResult result = testing::MustEval(parsed.program, parsed.edb);
  EXPECT_TRUE(result.ground_query_true);
}

}  // namespace
}  // namespace exdl
