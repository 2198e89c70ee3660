// Lemma 4.1 as executable checks: language equalities vs program
// equivalences for binary chain programs.

#include <gtest/gtest.h>

#include "core/workload.h"
#include "equiv/random_check.h"
#include "grammar/equivalence.h"
#include "testing/test_util.h"
#include "util/string_util.h"

namespace exdl {
namespace {

using ::exdl::testing::MustParse;
using ::exdl::testing::MustParseWith;

const char kRight[] =
    "tc(X,Y) :- e(X,Y).\n"
    "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
    "?- tc(X,Y).\n";
const char kLeft[] =
    "tc2(X,Y) :- e(X,Y).\n"
    "tc2(X,Y) :- tc2(X,Z), e(Z,Y).\n"
    "?- tc2(X,Y).\n";
const char kTwoStep[] =
    "tc3(X,Y) :- e(X,Z), e(Z,Y).\n"
    "tc3(X,Y) :- e(X,Z), tc3(Z,Y).\n"
    "?- tc3(X,Y).\n";

TEST(ChainEquivalenceTest, ExactDecisionLeftEqualsRight) {
  auto right = MustParse(kRight);
  auto left = MustParseWith(right.ctx, kLeft);
  Result<bool> eq = ChainQueryEquivalent(right.program, left.program);
  ASSERT_TRUE(eq.ok()) << eq.status().ToString();
  EXPECT_TRUE(*eq);  // both are e+
}

TEST(ChainEquivalenceTest, ExactDecisionDetectsDifference) {
  auto right = MustParse(kRight);
  auto two = MustParseWith(right.ctx, kTwoStep);
  Result<bool> eq = ChainQueryEquivalent(right.program, two.program);
  ASSERT_TRUE(eq.ok());
  EXPECT_FALSE(*eq);  // e+ vs ee+
}

TEST(ChainEquivalenceTest, ExactDecisionNeedsStrongRegularity) {
  auto right = MustParse(kRight);
  auto anbn = MustParseWith(right.ctx,
      "s(X,Y) :- up(X,U), s(U,V), dn(V,Y).\n"
      "s(X,Y) :- up(X,U), dn(U,Y).\n"
      "?- s(X,Y).\n");
  EXPECT_FALSE(ChainQueryEquivalent(right.program, anbn.program).ok());
}

TEST(ChainEquivalenceTest, DifferentAlphabetsSeparate) {
  auto right = MustParse(kRight);
  auto other = MustParseWith(right.ctx,
      "tf(X,Y) :- f(X,Y).\n"
      "tf(X,Y) :- f(X,Z), tf(Z,Y).\n"
      "?- tf(X,Y).\n");
  Result<bool> eq = ChainQueryEquivalent(right.program, other.program);
  ASSERT_TRUE(eq.ok());
  EXPECT_FALSE(*eq);  // e+ vs f+
}

TEST(ChainEquivalenceTest, BoundedRefutationFindsWitness) {
  auto right = MustParse(kRight);
  auto two = MustParseWith(right.ctx, kTwoStep);
  Result<BoundedComparison> cmp =
      BoundedChainQueryEquivalence(right.program, two.program);
  ASSERT_TRUE(cmp.ok());
  EXPECT_TRUE(cmp->separated);
  EXPECT_EQ(cmp->witness, "e");  // the single-edge word separates them
}

TEST(ChainEquivalenceTest, BoundedRefutationAgreesOnEquality) {
  auto right = MustParse(kRight);
  auto left = MustParseWith(right.ctx, kLeft);
  Result<BoundedComparison> cmp =
      BoundedChainQueryEquivalence(right.program, left.program);
  ASSERT_TRUE(cmp.ok());
  EXPECT_FALSE(cmp->separated);
}

TEST(ChainEquivalenceTest, Lemma41UniformQuerySeparatesLeftRight) {
  // Query-equivalent but not uniformly query equivalent (Lemma 4.1(4)):
  // the extended languages differ — e.g. "e tc" is a sentential form of
  // the right-linear program only.
  auto right = MustParse(kRight);
  auto left = MustParseWith(right.ctx, kLeft);
  Result<BoundedComparison> cmp =
      BoundedChainUniformQueryEquivalence(right.program, left.program);
  ASSERT_TRUE(cmp.ok());
  EXPECT_TRUE(cmp->separated);
  EXPECT_NE(cmp->witness.find("e"), std::string::npos);
}

TEST(ChainEquivalenceTest, UniformQueryEquivalenceOfRenamedCopy) {
  auto right = MustParse(kRight);
  auto copy = MustParseWith(right.ctx,
      "tcopy(X,Y) :- e(X,Y).\n"
      "tcopy(X,Y) :- e(X,Z), tcopy(Z,Y).\n"
      "?- tcopy(X,Y).\n");
  // Renaming only the query predicate: extended forms match once the
  // start symbols are canonicalized.
  Result<BoundedComparison> cmp =
      BoundedChainUniformQueryEquivalence(right.program, copy.program);
  ASSERT_TRUE(cmp.ok());
  EXPECT_FALSE(cmp->separated);
}

TEST(ChainEquivalenceTest, CrossValidatesWithEvaluation) {
  // Lemma 4.1(2) ground truth: language equality must coincide with query
  // answers over random labeled graphs.
  auto right = MustParse(kRight);
  auto left = MustParseWith(right.ctx, kLeft);
  Result<RandomCheckReport> check =
      CheckQueryEquivalentOnEdb(right.program, left.program);
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->equivalent) << check->counterexample;
  auto two = MustParseWith(right.ctx, kTwoStep);
  Result<RandomCheckReport> diff =
      CheckQueryEquivalentOnEdb(right.program, two.program);
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->equivalent);
}

TEST(ChainEquivalenceTest, WordGraphMembershipMatchesLanguage) {
  // Evaluate the chain program over a straight-line "word graph"; the
  // query holds for the full path exactly when the word is in L(G,Q).
  auto parsed = MustParse(
      "s(X,Y) :- a(X,U), m(U,Y).\n"
      "m(X,Y) :- b(X,U), m(U,Y).\n"
      "m(X,Y) :- b(X,Y).\n"
      "?- s(X,Y).\n");  // L = a b+
  Context& ctx = *parsed.ctx;
  auto word_db = [&](const std::vector<std::string>& word) {
    Database db;
    std::vector<Value> nodes = MakeNodes(&ctx, static_cast<int>(word.size()) + 1);
    for (size_t i = 0; i < word.size(); ++i) {
      const Value row[2] = {nodes[i], nodes[i + 1]};
      db.AddTuple(ctx.InternPredicate(word[i], 2), row);
    }
    return db;
  };
  auto accepts = [&](const std::vector<std::string>& word) {
    Database db = word_db(word);
    EvalResult r = testing::MustEval(parsed.program, db);
    Value first = ctx.InternSymbol("n0");
    Value last = ctx.InternSymbol(StrCat("n", std::to_string(word.size())));
    for (const auto& row : r.answers) {
      if (row[0] == first && row[1] == last) return true;
    }
    return false;
  };
  EXPECT_TRUE(accepts({"a", "b"}));
  EXPECT_TRUE(accepts({"a", "b", "b", "b"}));
  EXPECT_FALSE(accepts({"a"}));
  EXPECT_FALSE(accepts({"b", "b"}));
  EXPECT_FALSE(accepts({"a", "b", "a"}));
}

}  // namespace
}  // namespace exdl

namespace exdl {
namespace {

// Lemma 4.1 rows (1) and (3): per-nonterminal comparisons.
TEST(ChainEquivalenceTest, DbEquivalenceComparesEveryNonterminal) {
  auto p1 = MustParse(
      "s(X,Y) :- h(X,Y).\n"
      "h(X,Y) :- e(X,Y).\n"
      "?- s(X,Y).\n");
  // Same query language, but h differs (extra production).
  auto p2 = MustParseWith(p1.ctx,
      "s(X,Y) :- h2(X,Y).\n"   // placeholder to build in same ctx
      "h2(X,Y) :- e(X,Y).\n"
      "?- s(X,Y).\n");
  // Build the real comparand with matching names via fresh contexts.
  auto q1 = MustParse(
      "s(X,Y) :- h(X,Y).\n"
      "h(X,Y) :- e(X,Y).\n"
      "?- s(X,Y).\n");
  auto q2 = MustParse(
      "s(X,Y) :- h(X,Y).\n"
      "h(X,Y) :- e(X,Y).\n"
      "h(X,Y) :- f(X,Y).\n"  // h differs; s differs too here
      "?- s(X,Y).\n");
  Result<BoundedComparison> db =
      BoundedChainDbEquivalence(q1.program, q2.program);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->separated);
  EXPECT_NE(db->witness.find("f"), std::string::npos);
  (void)p2;
}

TEST(ChainEquivalenceTest, UniformEquivalenceSeparatesRecursionStyle) {
  // Same predicate name `tc`, left- vs right-linear: query equivalent,
  // uniformly different (Lemma 4.1(3) mirrors the Sagiv separation).
  auto right = MustParse(kRight);
  auto left = MustParse(
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- tc(X,Z), e(Z,Y).\n"
      "?- tc(X,Y).\n");
  Result<BoundedComparison> uniform =
      BoundedChainUniformEquivalence(right.program, left.program);
  ASSERT_TRUE(uniform.ok());
  EXPECT_TRUE(uniform->separated);
  Result<BoundedComparison> db =
      BoundedChainDbEquivalence(right.program, left.program);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(db->separated);  // same L for every nonterminal
}

TEST(ChainEquivalenceTest, IdenticalProgramsPassAllFourNotions) {
  auto p1 = MustParse(kRight);
  auto p2 = MustParse(kRight);
  EXPECT_FALSE(BoundedChainDbEquivalence(p1.program, p2.program)
                   ->separated);
  EXPECT_FALSE(BoundedChainUniformEquivalence(p1.program, p2.program)
                   ->separated);
  EXPECT_FALSE(BoundedChainQueryEquivalence(p1.program, p2.program)
                   ->separated);
  EXPECT_FALSE(
      BoundedChainUniformQueryEquivalence(p1.program, p2.program)
          ->separated);
}

TEST(ChainEquivalenceTest, MissingNonterminalSeparatesDbNotions) {
  auto p1 = MustParse(kRight);
  auto p2 = MustParse(
      "tc(X,Y) :- helper(X,Y).\n"
      "helper(X,Y) :- e(X,Y).\n"
      "helper(X,Y) :- e(X,Z), helper(Z,Y).\n"
      "?- tc(X,Y).\n");
  Result<BoundedComparison> db =
      BoundedChainDbEquivalence(p1.program, p2.program);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->separated);
  // Query equivalence still holds (both are e+).
  Result<BoundedComparison> query =
      BoundedChainQueryEquivalence(p1.program, p2.program);
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(query->separated);
}

}  // namespace
}  // namespace exdl
