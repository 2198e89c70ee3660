#include <gtest/gtest.h>

#include "ast/printer.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "testing/test_util.h"

namespace exdl {
namespace {

TEST(LexerTest, BasicTokens) {
  Result<std::vector<Token>> tokens = Tokenize("p(X, c) :- q. ?- r.");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  std::vector<TokenKind> expected = {
      TokenKind::kIdent,   TokenKind::kLParen, TokenKind::kVariable,
      TokenKind::kComma,   TokenKind::kIdent,  TokenKind::kRParen,
      TokenKind::kImplies, TokenKind::kIdent,  TokenKind::kDot,
      TokenKind::kQuery,   TokenKind::kIdent,  TokenKind::kDot,
      TokenKind::kEof};
  EXPECT_EQ(kinds, expected);
}

TEST(LexerTest, CommentsAndWhitespace) {
  Result<std::vector<Token>> tokens =
      Tokenize("% a comment\np(X).  # another\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), 6u);  // p ( X ) . eof
}

TEST(LexerTest, IntegerLiteralsAreConstants) {
  Result<std::vector<Token>> tokens = Tokenize("42");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[0].text, "42");
}

TEST(LexerTest, RejectsLoneColon) {
  EXPECT_FALSE(Tokenize("p : q").ok());
}

TEST(LexerTest, RejectsLoneQuestionMark) {
  EXPECT_FALSE(Tokenize("? p").ok());
}

TEST(LexerTest, RejectsUnknownCharacter) {
  EXPECT_FALSE(Tokenize("p(X) & q(X)").ok());
}

TEST(LexerTest, TracksLineNumbers) {
  Result<std::vector<Token>> tokens = Tokenize("p.\nq.\nr.");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].line, 2);  // 'q'
}

TEST(ParserTest, RulesFactsAndQuery) {
  auto parsed = testing::MustParse(
      "edge(n1, n2).\n"
      "edge(n2, n3).\n"
      "tc(X,Y) :- edge(X,Y).\n"
      "tc(X,Y) :- edge(X,Z), tc(Z,Y).\n"
      "?- tc(X,Y).\n");
  EXPECT_EQ(parsed.program.NumRules(), 2u);
  EXPECT_TRUE(parsed.program.query().has_value());
  EXPECT_EQ(parsed.edb.TotalTuples(), 2u);
}

TEST(ParserTest, ZeroAryPredicates) {
  auto parsed = testing::MustParse("b :- p(X), q(X).\nr(Y) :- s(Y), b.\n");
  EXPECT_EQ(parsed.program.rules()[0].head.args.size(), 0u);
  EXPECT_EQ(parsed.program.rules()[1].body[1].args.size(), 0u);
}

TEST(ParserTest, AdornedPredicateSyntax) {
  auto parsed = testing::MustParse("a@nd(X,Y) :- p(X,Y).\n");
  const PredicateInfo& info =
      parsed.ctx->predicate(parsed.program.rules()[0].head.pred);
  EXPECT_EQ(info.adornment.str(), "nd");
  EXPECT_EQ(info.arity, 2u);
}

TEST(ParserTest, AnonymousVariablesAreFreshPerOccurrence) {
  auto parsed = testing::MustParse("p(X) :- q(X, _), r(_, X).\n");
  const Rule& rule = parsed.program.rules()[0];
  SymbolId a = rule.body[0].args[1].id();
  SymbolId b = rule.body[1].args[0].id();
  EXPECT_NE(a, b);
}

// Anonymous variables are named __0, __1, ... afresh in every clause,
// skipping `__` names the clause itself uses, so reparsing (or parsing
// another program into the same context) interns no new symbol.
TEST(ParserTest, AnonymousVariableNamesAreReusedPerClause) {
  ContextPtr ctx = std::make_shared<Context>();
  const std::string source =
      "p(X) :- q(X, _), r(_, __0).\n"
      "s(X) :- q(X, _).\n"
      "?- p(_).\n";
  Result<ParsedUnit> first = ParseProgram(source, ctx);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(ToString(first->program),
            "p(X) :- q(X, __1), r(__2, __0).\n"
            "s(X) :- q(X, __0).\n"
            "?- p(__0).\n");
  const size_t symbols = ctx->NumSymbols();
  Result<ParsedUnit> again = ParseProgram(ToString(first->program), ctx);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ToString(again->program), ToString(first->program));
  ASSERT_TRUE(ParseProgram(source, ctx).ok());
  EXPECT_EQ(ctx->NumSymbols(), symbols);
}

TEST(ParserTest, FlagsFactsOfAdornedPredicates) {
  ContextPtr ctx = std::make_shared<Context>();
  Result<ParsedUnit> plain = ParseProgram("p(a). q@n(X) :- p(X).", ctx);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->adorned_facts);
  Result<ParsedUnit> adorned = ParseProgram("p(a). p@nd(b, c).", ctx);
  ASSERT_TRUE(adorned.ok());
  EXPECT_TRUE(adorned->adorned_facts);
}

TEST(ParserTest, RejectsNonGroundFact) {
  ContextPtr ctx = std::make_shared<Context>();
  Result<ParsedUnit> r = ParseProgram("p(X).\n", ctx);
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, RejectsMultipleQueries) {
  ContextPtr ctx = std::make_shared<Context>();
  Result<ParsedUnit> r = ParseProgram("?- p(X).\n?- q(X).\n", ctx);
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, RejectsAdornmentShorterThanArgs) {
  ContextPtr ctx = std::make_shared<Context>();
  Result<ParsedUnit> r = ParseProgram("a@n(X,Y) :- p(X,Y).\n", ctx);
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, AdornmentLongerThanArgsIsProjectedVersion) {
  // a@nd with a single stored argument = the projected version (Lemma 3.2).
  auto parsed = testing::MustParse("a@nd(X) :- p(X, Y).\n");
  const PredicateInfo& info =
      parsed.ctx->predicate(parsed.program.rules()[0].head.pred);
  EXPECT_TRUE(info.IsProjected());
  EXPECT_EQ(info.arity, 1u);
  EXPECT_EQ(info.adornment.size(), 2u);
}

TEST(ParserTest, MissingDotFails) {
  ContextPtr ctx = std::make_shared<Context>();
  EXPECT_FALSE(ParseProgram("p(X) :- q(X)", ctx).ok());
}

TEST(ParserTest, EmptyInputIsEmptyProgram) {
  auto parsed = testing::MustParse("");
  EXPECT_EQ(parsed.program.NumRules(), 0u);
  EXPECT_FALSE(parsed.program.query().has_value());
}

TEST(ParserTest, ParseAtomHelper) {
  Context ctx;
  Result<Atom> atom = ParseAtom("p(X, 7)", &ctx);
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(atom->args.size(), 2u);
  EXPECT_TRUE(atom->args[0].IsVar());
  EXPECT_TRUE(atom->args[1].IsConst());
  EXPECT_FALSE(ParseAtom("p(X) q", &ctx).ok());
}

TEST(ParserTest, ParseRuleHelper) {
  Context ctx;
  Result<Rule> rule = ParseRule("p(X) :- q(X, Y)", &ctx);
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->body.size(), 1u);
  Result<Rule> fact_like = ParseRule("p(X)", &ctx);
  ASSERT_TRUE(fact_like.ok());
  EXPECT_TRUE(fact_like->body.empty());
}

TEST(ParserTest, ConstantsShareInterning) {
  auto parsed = testing::MustParse(
      "p(c1, c2).\n"
      "q(X) :- r(X, c1).\n");
  SymbolId c1 = *parsed.ctx->FindSymbol("c1");
  EXPECT_EQ(parsed.program.rules()[0].body[0].args[1].id(), c1);
}

TEST(ParserTest, RejectsOverlongIdentifier) {
  ContextPtr ctx = std::make_shared<Context>();
  std::string name(kMaxIdentifierLength + 1, 'a');
  Result<ParsedUnit> parsed = ParseProgram(name + ".", ctx);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  // Exactly at the limit is still fine.
  EXPECT_TRUE(ParseProgram(std::string(kMaxIdentifierLength, 'a') + ".", ctx)
                  .ok());
}

TEST(ParserTest, RejectsOverlongIntegerLiteral) {
  ContextPtr ctx = std::make_shared<Context>();
  std::string digits(kMaxIdentifierLength + 1, '7');
  Result<ParsedUnit> parsed = ParseProgram("p(" + digits + ").", ctx);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, RejectsTooManyAtomArguments) {
  ContextPtr ctx = std::make_shared<Context>();
  std::string atom = "p(c0";
  for (size_t i = 1; i <= kMaxAtomArgs; ++i) {
    atom += ", c" + std::to_string(i);
  }
  atom += ").";
  Result<ParsedUnit> parsed = ParseProgram(atom, ctx);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("arguments"), std::string::npos);
}

TEST(ParserTest, RejectsTooManyBodyLiterals) {
  ContextPtr ctx = std::make_shared<Context>();
  std::string rule = "p(X) :- q(X)";
  for (size_t i = 0; i < kMaxBodyLiterals; ++i) rule += ", q(X)";
  rule += ".";
  Result<ParsedUnit> parsed = ParseProgram(rule, ctx);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("literals"), std::string::npos);
  // ParseRule enforces the same cap.
  Context bare;
  EXPECT_FALSE(ParseRule(rule, &bare).ok());
}

}  // namespace
}  // namespace exdl
