// Property-based tests: every transformation preserves query answers on
// random instances; engines agree with each other. The random-program
// generator covers recursion, shared variables, constants and existential
// wrapper queries (see tests/testing/test_util.h).

#include <gtest/gtest.h>

#include "adorn/adorn.h"
#include "ast/printer.h"
#include "core/optimizer.h"
#include "equiv/random_check.h"
#include "parser/parser.h"
#include "testing/test_util.h"
#include "core/workload.h"
#include "grammar/chain.h"
#include "grammar/language.h"
#include "transform/components.h"
#include "transform/folding.h"
#include "transform/unfolding.h"
#include "transform/projection.h"

namespace exdl {
namespace {

using ::exdl::testing::MustEval;
using ::exdl::testing::RandomProgram;
using ::exdl::testing::RandomProgramOptions;

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range<uint64_t>(1, 33));

TEST_P(SeededProperty, FullPipelinePreservesQueryAnswers) {
  ContextPtr ctx = std::make_shared<Context>();
  RandomProgramOptions options;
  options.seed = GetParam();
  Program original = RandomProgram(ctx, options);
  Result<OptimizedProgram> optimized = OptimizeExistential(original);
  ASSERT_TRUE(optimized.ok())
      << optimized.status().ToString() << "\n" << ToString(original);
  RandomCheckOptions check_options;
  check_options.seed = GetParam() * 31 + 7;
  Result<RandomCheckReport> report = CheckQueryEquivalentOnEdb(
      original, optimized->program, check_options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent)
      << "seed " << GetParam() << "\noriginal:\n"
      << ToString(original) << "\noptimized:\n"
      << ToString(optimized->program) << "\n"
      << report->counterexample;
}

TEST_P(SeededProperty, PipelineWithAllDeletionBackends) {
  ContextPtr ctx = std::make_shared<Context>();
  RandomProgramOptions options;
  options.seed = GetParam() ^ 0xABCD;
  Program original = RandomProgram(ctx, options);
  OptimizerOptions opt;
  opt.deletion.use_sagiv = true;
  opt.deletion.use_optimistic = true;
  opt.deletion.optimistic.max_facts = 20000;
  Result<OptimizedProgram> optimized = OptimizeExistential(original, opt);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  RandomCheckOptions check_options;
  check_options.seed = GetParam() * 17 + 3;
  check_options.trials = 8;
  Result<RandomCheckReport> report = CheckQueryEquivalentOnEdb(
      original, optimized->program, check_options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent)
      << "seed " << GetParam() << "\noriginal:\n"
      << ToString(original) << "\noptimized:\n"
      << ToString(optimized->program) << "\n"
      << report->counterexample;
}

TEST_P(SeededProperty, SemiNaiveAgreesWithNaive) {
  ContextPtr ctx = std::make_shared<Context>();
  RandomProgramOptions options;
  options.seed = GetParam() * 977;
  Program program = RandomProgram(ctx, options);
  std::vector<PredId> inputs(program.EdbPredicates().begin(),
                             program.EdbPredicates().end());
  std::sort(inputs.begin(), inputs.end());
  for (int trial = 0; trial < 4; ++trial) {
    Database db = RandomInstance(ctx.get(), inputs, 5, 10,
                                 GetParam() * 101 + trial);
    EvalOptions naive;
    naive.seminaive = false;
    EvalResult semi = MustEval(program, db);
    EvalResult full = MustEval(program, db, naive);
    EXPECT_EQ(semi.answers, full.answers) << ToString(program);
  }
}

TEST_P(SeededProperty, AdornmentAlonePreservesAnswers) {
  ContextPtr ctx = std::make_shared<Context>();
  RandomProgramOptions options;
  options.seed = GetParam() + 5000;
  Program program = RandomProgram(ctx, options);
  Result<Program> adorned = AdornExistential(program);
  ASSERT_TRUE(adorned.ok());
  RandomCheckOptions check_options;
  check_options.seed = GetParam();
  Result<RandomCheckReport> report =
      CheckQueryEquivalentOnEdb(program, *adorned, check_options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent) << report->counterexample;
}

TEST_P(SeededProperty, ProjectionAfterAdornmentPreservesAnswers) {
  ContextPtr ctx = std::make_shared<Context>();
  RandomProgramOptions options;
  options.seed = GetParam() + 9000;
  Program program = RandomProgram(ctx, options);
  Result<Program> adorned = AdornExistential(program);
  ASSERT_TRUE(adorned.ok());
  Result<ProjectionResult> projected = PushProjections(*adorned);
  ASSERT_TRUE(projected.ok());
  RandomCheckOptions check_options;
  check_options.seed = GetParam() * 3;
  Result<RandomCheckReport> report = CheckQueryEquivalentOnEdb(
      program, projected->program, check_options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent)
      << ToString(program) << "\n-- projected:\n"
      << ToString(projected->program) << "\n"
      << report->counterexample;
}

TEST_P(SeededProperty, ComponentExtractionPreservesAnswersUniformly) {
  // Component extraction even preserves answers when derived predicates
  // are populated in the input (it is a per-rule equivalence, Lemma 3.1).
  ContextPtr ctx = std::make_shared<Context>();
  RandomProgramOptions options;
  options.seed = GetParam() + 13000;
  Program program = RandomProgram(ctx, options);
  Result<ComponentResult> components = ExtractComponents(program);
  ASSERT_TRUE(components.ok());
  RandomCheckOptions check_options;
  check_options.seed = GetParam() * 5;
  check_options.populate_derived = true;
  Result<RandomCheckReport> report = CheckQueryEquivalentOnEdb(
      program, components->program, check_options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent)
      << ToString(program) << "\n-- components:\n"
      << ToString(components->program) << "\n"
      << report->counterexample;
}

TEST_P(SeededProperty, PrinterParserRoundTrip) {
  ContextPtr ctx = std::make_shared<Context>();
  RandomProgramOptions options;
  options.seed = GetParam() + 17000;
  Program program = RandomProgram(ctx, options);
  std::string printed = ToString(program);
  Result<ParsedUnit> reparsed = ParseProgram(printed, ctx);
  ASSERT_TRUE(reparsed.ok()) << printed;
  EXPECT_EQ(ToString(reparsed->program), printed);
}

// The unfold phase must actually be exercised, or the equivalence checks
// say nothing about it. With the default generator (two rules per derived
// predicate) it fires on 3 of the 32 seeds FullPipelinePreservesQueryAnswers
// uses; with one rule per derived predicate on 20 of 32, and those
// programs are checked for equivalence here.
TEST(PropertyRegressionTest, UnfoldFiresOnAStatedShareOfSeeds) {
  auto fired_on = [](int rules_per_idb) {
    size_t fired = 0;
    for (uint64_t seed = 1; seed < 33; ++seed) {
      ContextPtr ctx = std::make_shared<Context>();
      RandomProgramOptions options;
      options.seed = seed;
      options.rules_per_idb = rules_per_idb;
      Program original = RandomProgram(ctx, options);
      Result<OptimizedProgram> optimized = OptimizeExistential(original);
      EXPECT_TRUE(optimized.ok());
      if (!optimized.ok() || optimized->report.predicates_unfolded == 0) {
        continue;
      }
      ++fired;
      RandomCheckOptions check_options;
      check_options.seed = seed * 41 + 1;
      Result<RandomCheckReport> report = CheckQueryEquivalentOnEdb(
          original, optimized->program, check_options);
      EXPECT_TRUE(report.ok() && report->equivalent)
          << "seed " << seed << "\noriginal:\n" << ToString(original)
          << "\nunfolded:\n" << ToString(optimized->program);
    }
    return fired;
  };
  EXPECT_EQ(fired_on(2), 3u);
  EXPECT_EQ(fired_on(1), 20u);
}

TEST(PropertyRegressionTest, GeneratorIsDeterministic) {
  ContextPtr c1 = std::make_shared<Context>();
  ContextPtr c2 = std::make_shared<Context>();
  RandomProgramOptions options;
  options.seed = 424242;
  EXPECT_EQ(ToString(RandomProgram(c1, options)),
            ToString(RandomProgram(c2, options)));
}

}  // namespace
}  // namespace exdl

// ---------------------------------------------------------------------------
// Chain-program properties (Lemma 4.1 cross-validation).

namespace exdl {
namespace {

using ::exdl::testing::RandomChainOptions;
using ::exdl::testing::RandomChainProgram;

class ChainProperty : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ChainProperty,
                         ::testing::Range<uint64_t>(1, 17));

// Language membership (grammar side) must coincide with evaluation over
// straight-line "word graphs" (program side): the operational content of
// Lemma 4.1(2).
TEST_P(ChainProperty, LanguageMatchesWordGraphEvaluation) {
  ContextPtr ctx = std::make_shared<Context>();
  RandomChainOptions options;
  options.seed = GetParam();
  Program program = RandomChainProgram(ctx, options);
  Result<Cfg> grammar = ChainProgramToGrammar(program);
  ASSERT_TRUE(grammar.ok());
  LanguageOptions lang_options;
  lang_options.max_length = 4;
  lang_options.max_forms = 200000;
  Result<std::set<std::vector<uint32_t>>> language =
      EnumerateLanguage(*grammar, grammar->start(), lang_options);
  if (!language.ok()) GTEST_SKIP() << "enumeration cap hit";

  // Check every word of length <= 3 over the terminal alphabet.
  size_t nt = grammar->NumTerminals();
  std::vector<std::vector<uint32_t>> words = {{}};
  for (int len = 0; len < 3; ++len) {
    size_t start = 0;
    size_t end = words.size();
    for (size_t w = start; w < end; ++w) {
      for (uint32_t a = 0; a < nt; ++a) {
        std::vector<uint32_t> next = words[w];
        next.push_back(a);
        words.push_back(std::move(next));
      }
    }
    words.erase(words.begin(),
                words.begin() + static_cast<std::ptrdiff_t>(end));
    // words now holds all words of length len+1... rebuild cumulative:
    if (len == 0) continue;
  }
  // Simpler: regenerate all words up to length 3 directly.
  words.clear();
  std::vector<std::vector<uint32_t>> frontier = {{}};
  for (int len = 0; len < 3; ++len) {
    std::vector<std::vector<uint32_t>> next_frontier;
    for (const auto& w : frontier) {
      for (uint32_t a = 0; a < nt; ++a) {
        std::vector<uint32_t> next = w;
        next.push_back(a);
        words.push_back(next);
        next_frontier.push_back(std::move(next));
      }
    }
    frontier = std::move(next_frontier);
  }

  Context& c = *ctx;
  for (const std::vector<uint32_t>& word : words) {
    // Build the word graph n0 -a-> n1 -b-> ... and ask whether the query
    // relates its endpoints.
    Database db;
    std::vector<Value> nodes =
        MakeNodes(&c, static_cast<int>(word.size()) + 1);
    for (size_t i = 0; i < word.size(); ++i) {
      const Value row[2] = {nodes[i], nodes[i + 1]};
      db.AddTuple(c.InternPredicate(grammar->TerminalName(word[i]), 2), row);
    }
    EvalResult result = testing::MustEval(program, db);
    bool derived = false;
    for (const auto& answer : result.answers) {
      if (answer[0] == nodes.front() && answer[1] == nodes.back()) {
        derived = true;
        break;
      }
    }
    bool in_language = language->count(word) > 0;
    EXPECT_EQ(derived, in_language)
        << "word length " << word.size() << ", seed " << GetParam();
  }
}

// Round-tripping program -> grammar -> program preserves the language.
TEST_P(ChainProperty, GrammarRoundTripPreservesAnswers) {
  ContextPtr ctx = std::make_shared<Context>();
  RandomChainOptions options;
  options.seed = GetParam() + 999;
  Program program = RandomChainProgram(ctx, options);
  Result<Cfg> grammar = ChainProgramToGrammar(program);
  ASSERT_TRUE(grammar.ok());
  Result<Program> back = GrammarToChainProgram(*grammar, ctx);
  ASSERT_TRUE(back.ok());
  // The round-tripped program uses the same predicate names (display
  // names), so direct random checking applies.
  RandomCheckOptions check_options;
  check_options.seed = GetParam();
  check_options.trials = 6;
  Result<RandomCheckReport> report =
      CheckQueryEquivalentOnEdb(program, *back, check_options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent) << report->counterexample;
}

// ---------------------------------------------------------------------------
// Stratified-negation properties.

using ::exdl::testing::RandomStratifiedOptions;
using ::exdl::testing::RandomStratifiedProgram;

class StratifiedProperty : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, StratifiedProperty,
                         ::testing::Range<uint64_t>(1, 17));

TEST_P(StratifiedProperty, SemiNaiveAgreesWithNaive) {
  ContextPtr ctx = std::make_shared<Context>();
  RandomStratifiedOptions options;
  options.seed = GetParam();
  Program program = RandomStratifiedProgram(ctx, options);
  std::vector<PredId> inputs(program.EdbPredicates().begin(),
                             program.EdbPredicates().end());
  std::sort(inputs.begin(), inputs.end());
  for (int trial = 0; trial < 4; ++trial) {
    Database db = RandomInstance(ctx.get(), inputs, 4, 8,
                                 GetParam() * 131 + trial);
    EvalOptions naive;
    naive.seminaive = false;
    EvalResult semi = testing::MustEval(program, db);
    EvalResult full = testing::MustEval(program, db, naive);
    EXPECT_EQ(semi.answers, full.answers) << ToString(program);
  }
}

TEST_P(StratifiedProperty, OptimizerPreservesAnswers) {
  ContextPtr ctx = std::make_shared<Context>();
  RandomStratifiedOptions options;
  options.seed = GetParam() + 777;
  Program program = RandomStratifiedProgram(ctx, options);
  Result<OptimizedProgram> optimized = OptimizeExistential(program);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  RandomCheckOptions check_options;
  check_options.seed = GetParam() * 13;
  Result<RandomCheckReport> report = CheckQueryEquivalentOnEdb(
      program, optimized->program, check_options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent)
      << ToString(program) << "\n-- optimized:\n"
      << ToString(optimized->program) << "\n"
      << report->counterexample;
}

// ---------------------------------------------------------------------------
// Folding properties.

class FoldingProperty : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FoldingProperty,
                         ::testing::Range<uint64_t>(1, 17));

TEST_P(FoldingProperty, FoldThenUnfoldPreservesAnswers) {
  ContextPtr ctx = std::make_shared<Context>();
  testing::RandomProgramOptions options;
  options.seed = GetParam() * 37;
  Program program = testing::RandomProgram(ctx, options);
  Result<FoldingResult> folded = FoldAlmostUnitRules(program);
  ASSERT_TRUE(folded.ok());
  Result<UnfoldResult> unfolded =
      UnfoldPredicates(folded->program, folded->aux_preds);
  ASSERT_TRUE(unfolded.ok());
  RandomCheckOptions check_options;
  check_options.seed = GetParam();
  check_options.trials = 8;
  Result<RandomCheckReport> report =
      CheckQueryEquivalentOnEdb(program, unfolded->program, check_options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent)
      << ToString(program) << "\n-- folded:\n"
      << ToString(folded->program) << "\n-- unfolded:\n"
      << ToString(unfolded->program) << "\n"
      << report->counterexample;
}

TEST_P(FoldingProperty, PipelineWithFoldingPreservesAnswers) {
  ContextPtr ctx = std::make_shared<Context>();
  testing::RandomProgramOptions options;
  options.seed = GetParam() * 53 + 11;
  Program program = testing::RandomProgram(ctx, options);
  OptimizerOptions opt;
  opt.enable_folding = true;
  Result<OptimizedProgram> optimized = OptimizeExistential(program, opt);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  RandomCheckOptions check_options;
  check_options.seed = GetParam() * 7;
  check_options.trials = 8;
  Result<RandomCheckReport> report = CheckQueryEquivalentOnEdb(
      program, optimized->program, check_options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->equivalent)
      << ToString(program) << "\n-- optimized:\n"
      << ToString(optimized->program) << "\n"
      << report->counterexample;
}

}  // namespace
}  // namespace exdl
