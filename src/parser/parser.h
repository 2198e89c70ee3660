// Recursive-descent parser producing a Program (rules + query) and the
// ground facts found in the input.
//
// Following the paper (Section 1.1), facts are not part of the IDB: every
// ground, body-less clause is returned separately in `facts` so callers can
// load them into a Database. A non-ground body-less clause is an error.

#ifndef EXDL_PARSER_PARSER_H_
#define EXDL_PARSER_PARSER_H_

#include <string_view>
#include <vector>

#include "ast/program.h"
#include "util/status.h"

namespace exdl {

/// Structural governance limits, enforced with kInvalidArgument. Together
/// with the lexer's kMaxSourceBytes / kMaxIdentifierLength they bound every
/// dimension an adversarial input could grow (the grammar is flat, so there
/// is no recursion depth to bound). PlanOptions::max_body_literals is the
/// matching backstop for programs built through the API.
inline constexpr size_t kMaxAtomArgs = 1024;      ///< Arguments per atom.
inline constexpr size_t kMaxBodyLiterals = 4096;  ///< Literals per rule body.
inline constexpr size_t kMaxClauses = 1u << 20;   ///< Clauses per program.

/// Result of parsing one source text.
struct ParsedUnit {
  Program program;          ///< Rules and (optional) query.
  std::vector<Atom> facts;  ///< Ground facts destined for the EDB.
  /// Some fact names an adorned predicate version (`p@nd(z).`). Only the
  /// optimizer's rewrites define those, so LOAD_FACTS refuses them.
  bool adorned_facts = false;

  explicit ParsedUnit(ContextPtr ctx) : program(std::move(ctx)) {}
};

/// Parses a whole program. Interns into `ctx` (shared with the result).
Result<ParsedUnit> ParseProgram(std::string_view source, ContextPtr ctx);

/// Parses a single atom, e.g. "a@nd(X, 7)". Convenience for tests/tools.
Result<Atom> ParseAtom(std::string_view source, Context* ctx);

/// Parses a single rule (with trailing '.' optional).
Result<Rule> ParseRule(std::string_view source, Context* ctx);

}  // namespace exdl

#endif  // EXDL_PARSER_PARSER_H_
