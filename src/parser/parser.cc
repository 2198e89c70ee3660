#include "parser/parser.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "parser/lexer.h"

namespace exdl {
namespace {

/// Token-stream cursor with one-token lookahead.
class ParserImpl {
 public:
  ParserImpl(std::vector<Token> tokens, Context* ctx)
      : tokens_(std::move(tokens)), ctx_(ctx) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool At(TokenKind kind) const { return Peek().kind == kind; }

  Status Expect(TokenKind kind) {
    if (!At(kind)) {
      return Status::InvalidArgument(
          "line " + std::to_string(Peek().line) + ": expected " +
          std::string(TokenKindName(kind)) + " but found " +
          std::string(TokenKindName(Peek().kind)) +
          (Peek().text.empty() ? "" : " '" + Peek().text + "'"));
    }
    Advance();
    return Status::Ok();
  }

  /// body_literal := "not" atom | atom
  ///
  /// "not" is a soft keyword: it negates only when another identifier
  /// follows, so a predicate named `not` still parses (e.g. `not.` or
  /// `not(X)`).
  Result<Atom> ParseBodyLiteral() {
    if (At(TokenKind::kIdent) && Peek().text == "not" &&
        tokens_[pos_ + 1].kind == TokenKind::kIdent) {
      Advance();
      EXDL_ASSIGN_OR_RETURN(Atom atom, ParseAtomNode());
      atom.negated = true;
      return atom;
    }
    return ParseAtomNode();
  }

  /// atom := pred ("@" adorn)? ("(" term ("," term)* ")")?
  ///
  /// `adorned`, when given, is set to whether the atom names an adorned
  /// predicate version.
  Result<Atom> ParseAtomNode(bool* adorned = nullptr) {
    if (!At(TokenKind::kIdent)) {
      return Status::InvalidArgument(
          "line " + std::to_string(Peek().line) +
          ": expected predicate name, found " +
          std::string(TokenKindName(Peek().kind)));
    }
    std::string name = Advance().text;
    Adornment adornment;
    if (At(TokenKind::kAt)) {
      Advance();
      if (!At(TokenKind::kIdent)) {
        return Status::InvalidArgument("line " + std::to_string(Peek().line) +
                                       ": expected adornment after '@'");
      }
      EXDL_ASSIGN_OR_RETURN(adornment, Adornment::Parse(Advance().text));
    }
    std::vector<Term> args;
    if (At(TokenKind::kLParen)) {
      Advance();
      for (;;) {
        if (args.size() >= kMaxAtomArgs) {
          return Status::InvalidArgument(
              "line " + std::to_string(Peek().line) + ": atom '" + name +
              "' has more than " + std::to_string(kMaxAtomArgs) +
              " arguments");
        }
        EXDL_ASSIGN_OR_RETURN(Term t, ParseTermNode());
        args.push_back(t);
        if (At(TokenKind::kComma)) {
          Advance();
          continue;
        }
        break;
      }
      EXDL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    }
    if (!adornment.empty() && adornment.size() < args.size()) {
      return Status::InvalidArgument(
          "predicate '" + name + "': adornment '" + adornment.str() +
          "' shorter than argument list (" + std::to_string(args.size()) +
          ")");
    }
    if (adorned != nullptr) *adorned = !adornment.empty();
    PredId pred = ctx_->InternPredicate(
        name, static_cast<uint32_t>(args.size()), adornment);
    return Atom(pred, std::move(args));
  }

  Result<Term> ParseTermNode() {
    const Token& tok = Peek();
    if (tok.kind == TokenKind::kVariable) {
      Advance();
      if (tok.text == "_") {
        // Anonymous variable: fresh on every occurrence, as in the paper's
        // rewritten rules ("we have replaced existential variables by _").
        // Named __0, __1, ... per clause, skipping the clause's own
        // variables: every parse reuses the same symbols, so a long-lived
        // Context grows with the widest clause, not with the parse count.
        std::string name;
        do {
          name = "__" + std::to_string(next_anonymous_++);
        } while (std::find(clause_underscored_.begin(),
                           clause_underscored_.end(),
                           name) != clause_underscored_.end());
        return Term::Var(ctx_->InternSymbol(name));
      }
      return Term::Var(ctx_->InternSymbol(tok.text));
    }
    if (tok.kind == TokenKind::kIdent) {
      Advance();
      return Term::Const(ctx_->InternSymbol(tok.text));
    }
    return Status::InvalidArgument("line " + std::to_string(tok.line) +
                                   ": expected term, found " +
                                   std::string(TokenKindName(tok.kind)));
  }

  /// Starts a clause (or a lone atom or rule): anonymous variables are
  /// numbered from __0 again, skipping the `__`-prefixed variables the
  /// clause's tokens up to the next '.' name.
  void BeginClause() {
    next_anonymous_ = 0;
    clause_underscored_.clear();
    for (size_t i = pos_; i < tokens_.size(); ++i) {
      const Token& tok = tokens_[i];
      if (tok.kind == TokenKind::kDot || tok.kind == TokenKind::kEof) break;
      if (tok.kind == TokenKind::kVariable && tok.text.size() > 2 &&
          tok.text.compare(0, 2, "__") == 0) {
        clause_underscored_.push_back(tok.text);
      }
    }
  }

  /// clause := atom (":-" atoms)? "." | "?-" atom "."
  Status ParseClause(ParsedUnit* unit) {
    BeginClause();
    if (At(TokenKind::kQuery)) {
      Advance();
      EXDL_ASSIGN_OR_RETURN(Atom q, ParseAtomNode());
      EXDL_RETURN_IF_ERROR(Expect(TokenKind::kDot));
      if (unit->program.query()) {
        return Status::InvalidArgument("multiple '?-' queries in program");
      }
      unit->program.SetQuery(std::move(q));
      return Status::Ok();
    }
    bool adorned = false;
    EXDL_ASSIGN_OR_RETURN(Atom head, ParseAtomNode(&adorned));
    if (At(TokenKind::kImplies)) {
      Advance();
      std::vector<Atom> body;
      for (;;) {
        if (body.size() >= kMaxBodyLiterals) {
          return Status::InvalidArgument(
              "line " + std::to_string(Peek().line) +
              ": rule body has more than " +
              std::to_string(kMaxBodyLiterals) + " literals");
        }
        EXDL_ASSIGN_OR_RETURN(Atom a, ParseBodyLiteral());
        body.push_back(std::move(a));
        if (At(TokenKind::kComma)) {
          Advance();
          continue;
        }
        break;
      }
      EXDL_RETURN_IF_ERROR(Expect(TokenKind::kDot));
      unit->program.AddRule(Rule(std::move(head), std::move(body)));
      return Status::Ok();
    }
    EXDL_RETURN_IF_ERROR(Expect(TokenKind::kDot));
    if (!head.IsGround()) {
      return Status::InvalidArgument(
          "fact with variables is not allowed (the IDB holds no facts): " +
          std::to_string(head.args.size()) + "-ary clause");
    }
    unit->adorned_facts = unit->adorned_facts || adorned;
    unit->facts.push_back(std::move(head));
    return Status::Ok();
  }

  bool AtEof() const { return At(TokenKind::kEof); }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Context* ctx_;
  size_t next_anonymous_ = 0;
  std::vector<std::string> clause_underscored_;
};

}  // namespace

Result<ParsedUnit> ParseProgram(std::string_view source, ContextPtr ctx) {
  assert(ctx != nullptr);
  EXDL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  ParsedUnit unit(ctx);
  ParserImpl impl(std::move(tokens), ctx.get());
  size_t clauses = 0;
  while (!impl.AtEof()) {
    if (++clauses > kMaxClauses) {
      return Status::InvalidArgument("program has more than " +
                                     std::to_string(kMaxClauses) +
                                     " clauses");
    }
    EXDL_RETURN_IF_ERROR(impl.ParseClause(&unit));
  }
  return unit;
}

Result<Atom> ParseAtom(std::string_view source, Context* ctx) {
  EXDL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  ParserImpl impl(std::move(tokens), ctx);
  impl.BeginClause();
  EXDL_ASSIGN_OR_RETURN(Atom atom, impl.ParseAtomNode());
  if (impl.At(TokenKind::kDot)) impl.Advance();
  if (!impl.AtEof()) {
    return Status::InvalidArgument("trailing input after atom");
  }
  return atom;
}

Result<Rule> ParseRule(std::string_view source, Context* ctx) {
  EXDL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  ParserImpl impl(std::move(tokens), ctx);
  impl.BeginClause();
  EXDL_ASSIGN_OR_RETURN(Atom head, impl.ParseAtomNode());
  std::vector<Atom> body;
  if (impl.At(TokenKind::kImplies)) {
    impl.Advance();
    for (;;) {
      if (body.size() >= kMaxBodyLiterals) {
        return Status::InvalidArgument("rule body has more than " +
                                       std::to_string(kMaxBodyLiterals) +
                                       " literals");
      }
      EXDL_ASSIGN_OR_RETURN(Atom a, impl.ParseBodyLiteral());
      body.push_back(std::move(a));
      if (impl.At(TokenKind::kComma)) {
        impl.Advance();
        continue;
      }
      break;
    }
  }
  if (impl.At(TokenKind::kDot)) impl.Advance();
  if (!impl.AtEof()) {
    return Status::InvalidArgument("trailing input after rule");
  }
  return Rule(std::move(head), std::move(body));
}

}  // namespace exdl
