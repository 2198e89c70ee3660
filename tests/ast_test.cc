#include <gtest/gtest.h>

#include "ast/adornment.h"
#include "ast/context.h"
#include "ast/printer.h"
#include "ast/program.h"
#include "parser/parser.h"
#include "testing/test_util.h"

namespace exdl {
namespace {

TEST(AdornmentTest, ParseValid) {
  Result<Adornment> a = Adornment::Parse("nd");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->size(), 2u);
  EXPECT_TRUE(a->needed(0));
  EXPECT_TRUE(a->existential(1));
}

TEST(AdornmentTest, ParseRejectsBadChars) {
  EXPECT_FALSE(Adornment::Parse("nx").ok());
}

TEST(AdornmentTest, ParseRejectsMixedAlphabets) {
  EXPECT_FALSE(Adornment::Parse("nb").ok());
  EXPECT_TRUE(Adornment::Parse("bf").ok());
  EXPECT_TRUE(Adornment::Parse("").ok());
}

TEST(AdornmentTest, CountsAndPositions) {
  Adornment a = *Adornment::Parse("ndn");
  EXPECT_EQ(a.CountNeeded(), 2u);
  EXPECT_TRUE(a.HasExistential());
  EXPECT_FALSE(a.AllPositionsNeeded());
  std::vector<size_t> pos = a.NeededPositions();
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], 0u);
  EXPECT_EQ(pos[1], 2u);
}

TEST(AdornmentTest, AllNeeded) {
  Adornment a = Adornment::AllNeeded(3);
  EXPECT_EQ(a.str(), "nnn");
  EXPECT_TRUE(a.AllPositionsNeeded());
  EXPECT_FALSE(a.HasExistential());
}

TEST(AdornmentTest, CoversRelation) {
  // a1 covers a: every n of a is n in a1 (Section 5).
  EXPECT_TRUE(Covers(*Adornment::Parse("nn"), *Adornment::Parse("nd")));
  EXPECT_FALSE(Covers(*Adornment::Parse("nd"), *Adornment::Parse("nn")));
  EXPECT_TRUE(Covers(*Adornment::Parse("nd"), *Adornment::Parse("nd")));
  EXPECT_FALSE(Covers(*Adornment::Parse("n"), *Adornment::Parse("nd")));
  EXPECT_TRUE(Covers(*Adornment::Parse("nn"), *Adornment::Parse("dd")));
}

TEST(ContextTest, SymbolInterningIsIdempotent) {
  Context ctx;
  SymbolId a = ctx.InternSymbol("alice");
  SymbolId b = ctx.InternSymbol("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(ctx.InternSymbol("alice"), a);
  EXPECT_EQ(ctx.SymbolName(a), "alice");
  EXPECT_EQ(ctx.FindSymbol("bob"), b);
  EXPECT_EQ(ctx.FindSymbol("carol"), std::nullopt);
}

TEST(ContextTest, InternUnusedNamesAreDistinct) {
  Context ctx;
  size_t next = 0;
  auto none = [](SymbolId) { return false; };
  SymbolId a = ctx.InternUnused("x", &next, none);
  SymbolId b = ctx.InternUnused("x", &next, none);
  EXPECT_NE(a, b);
  EXPECT_EQ(ctx.SymbolName(a), "x_0");
  EXPECT_EQ(ctx.SymbolName(b), "x_1");
}

TEST(ContextTest, InternUnusedSkipsTakenNames) {
  Context ctx;
  const SymbolId used = ctx.InternSymbol("x_0");
  size_t next = 0;
  SymbolId a =
      ctx.InternUnused("x", &next, [&](SymbolId s) { return s == used; });
  EXPECT_EQ(ctx.SymbolName(a), "x_1");
  EXPECT_EQ(next, 2u);
}

TEST(ContextTest, PredicateVersionsAreDistinct) {
  Context ctx;
  PredId plain = ctx.InternPredicate("a", 2);
  PredId adorned = ctx.InternPredicate("a", 2, *Adornment::Parse("nd"));
  PredId projected = ctx.InternPredicate("a", 1, *Adornment::Parse("nd"));
  EXPECT_NE(plain, adorned);
  EXPECT_NE(adorned, projected);
  EXPECT_EQ(ctx.InternPredicate("a", 2, *Adornment::Parse("nd")), adorned);
  EXPECT_FALSE(ctx.predicate(plain).IsProjected());
  EXPECT_FALSE(ctx.predicate(adorned).IsProjected());
  EXPECT_TRUE(ctx.predicate(projected).IsProjected());
}

TEST(ContextTest, DisplayNames) {
  Context ctx;
  PredId plain = ctx.InternPredicate("a", 2);
  PredId adorned = ctx.InternPredicate("a", 2, *Adornment::Parse("nd"));
  PredId projected = ctx.InternPredicate("a", 1, *Adornment::Parse("nd"));
  EXPECT_EQ(ctx.PredicateDisplayName(plain), "a");
  EXPECT_EQ(ctx.PredicateDisplayName(adorned), "a@nd");
  EXPECT_EQ(ctx.PredicateDisplayName(projected), "a@nd/1");
}

TEST(TermTest, Identity) {
  Term v = Term::Var(3);
  Term c = Term::Const(3);
  EXPECT_TRUE(v.IsVar());
  EXPECT_TRUE(c.IsConst());
  EXPECT_NE(v, c);  // same id, different kind
  EXPECT_EQ(v, Term::Var(3));
}

TEST(AtomTest, GroundAndVars) {
  Context ctx;
  SymbolId x = ctx.InternSymbol("X");
  SymbolId c = ctx.InternSymbol("c");
  PredId p = ctx.InternPredicate("p", 2);
  Atom ground(p, {Term::Const(c), Term::Const(c)});
  Atom open(p, {Term::Var(x), Term::Const(c)});
  EXPECT_TRUE(ground.IsGround());
  EXPECT_FALSE(open.IsGround());
  EXPECT_TRUE(open.HasVar(x));
  EXPECT_FALSE(ground.HasVar(x));
  std::vector<SymbolId> vars;
  open.CollectVars(&vars);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], x);
}

TEST(RuleTest, VarsOrderedHeadFirst) {
  auto parsed = testing::MustParse("p(X,Y) :- q(Y,Z), r(Z,X).");
  const Rule& rule = parsed.program.rules()[0];
  std::vector<SymbolId> vars = rule.Vars();
  ASSERT_EQ(vars.size(), 3u);
  EXPECT_EQ(parsed.ctx->SymbolName(vars[0]), "X");
  EXPECT_EQ(parsed.ctx->SymbolName(vars[1]), "Y");
  EXPECT_EQ(parsed.ctx->SymbolName(vars[2]), "Z");
}

TEST(RuleTest, UnitRuleRecognition) {
  auto parsed = testing::MustParse(
      "u1(X) :- p(X,Y).\n"          // unit
      "u2(X,Y) :- p(Y,X).\n"        // unit (permutation)
      "n1(X) :- p(X,X).\n"          // repeated body var
      "n2(X) :- p(X,c).\n"          // constant in body
      "n3(X,X) :- p(X,Y).\n"        // repeated head var
      "n4(X) :- p(X,Y), q(Y).\n");  // two literals
  const std::vector<Rule>& rules = parsed.program.rules();
  EXPECT_TRUE(rules[0].IsUnitRule());
  EXPECT_TRUE(rules[1].IsUnitRule());
  EXPECT_FALSE(rules[2].IsUnitRule());
  EXPECT_FALSE(rules[3].IsUnitRule());
  EXPECT_FALSE(rules[4].IsUnitRule());
  EXPECT_FALSE(rules[5].IsUnitRule());
}

TEST(ProgramTest, EdbIdbClassification) {
  auto parsed = testing::MustParse(
      "p(X,Y) :- e(X,Z), p(Z,Y).\n"
      "p(X,Y) :- e(X,Y).\n"
      "?- p(X,Y).");
  const Program& prog = parsed.program;
  PredId p = prog.query()->pred;
  EXPECT_TRUE(prog.IsIdb(p));
  EXPECT_EQ(prog.IdbPredicates().size(), 1u);
  EXPECT_EQ(prog.EdbPredicates().size(), 1u);
  EXPECT_EQ(prog.AllPredicates().size(), 2u);
  EXPECT_EQ(prog.RulesDefining(p).size(), 2u);
}

TEST(ProgramTest, CloneSharesContext) {
  auto parsed = testing::MustParse("p(X) :- e(X).\n?- p(X).");
  Program copy = parsed.program.Clone();
  EXPECT_EQ(copy.context().get(), parsed.program.context().get());
  EXPECT_EQ(copy.NumRules(), parsed.program.NumRules());
  EXPECT_TRUE(copy.query().has_value());
}

TEST(PrinterTest, RoundTripsThroughParser) {
  const std::string source =
      "p(X, Y) :- e(X, Z), p(Z, Y), b.\n"
      "p(X, Y) :- e(X, Y).\n"
      "b :- f(W, 3).\n"
      "?- p(X, Y).\n";
  auto parsed = testing::MustParse(source);
  std::string printed = ToString(parsed.program);
  auto reparsed = testing::MustParseWith(parsed.ctx, printed);
  EXPECT_EQ(ToString(reparsed.program), printed);
  EXPECT_EQ(reparsed.program.rules().size(), parsed.program.rules().size());
}

TEST(PrinterTest, AdornedPredicates) {
  auto parsed = testing::MustParse("a@nd(X,Y) :- p(X,Y).\n");
  std::string printed = ToString(parsed.program);
  EXPECT_NE(printed.find("a@nd(X, Y)"), std::string::npos);
}

}  // namespace
}  // namespace exdl
