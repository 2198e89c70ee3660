// Quickstart: compile a Datalog program with an existential query, run the
// paper's optimization pipeline, and evaluate both the original and the
// optimized version through a Session.
//
//   $ ./quickstart
//
// The program is Example 1 from the paper: "which X can reach *some* Y?"
// The pipeline adorns it (Section 2), pushes the projection through the
// recursion (Section 3.2) so the recursive predicate becomes unary, and
// reports what it did.

#include <iostream>

#include "ast/printer.h"
#include "core/compiled_program.h"
#include "core/session.h"
#include "core/workload.h"

int main() {
  using namespace exdl;

  const char* source = R"(
    % Example 1 of Ramakrishnan, Beeri & Krishnamurthy (PODS 1988).
    query(X) :- a(X, Y).
    a(X, Y) :- p(X, Z), a(Z, Y).
    a(X, Y) :- p(X, Y).
    ?- query(X).
  )";

  // A CompiledProgram is the immutable parse (-> optimize) artifact.
  Result<CompiledProgram::Ptr> original =
      CompiledProgram::Compile(source, CompileOptions());
  if (!original.ok()) {
    std::cerr << "parse error: " << original.status().ToString() << "\n";
    return 1;
  }
  const ContextPtr& ctx = (*original)->context();
  std::cout << "== original program ==\n" << ToString((*original)->program());

  // A little graph to run on: a ten-node chain.
  Database edb = (*original)->facts().Clone();
  PredId p = ctx->InternPredicate("p", 2);
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kChain;
  spec.nodes = 10;
  MakeGraph(ctx.get(), &edb, p, spec);

  Result<CompiledProgram::Ptr> optimized =
      CompiledProgram::Optimize(**original, OptimizerOptions());
  if (!optimized.ok()) {
    std::cerr << "optimize error: " << optimized.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\n== optimized program ==\n"
            << ToString((*optimized)->program())
            << "\n== optimization report ==\n"
            << (*optimized)->report().ToString();

  // One Session per evaluation; both artifacts share the Context.
  for (const CompiledProgram::Ptr& compiled : {*original, *optimized}) {
    Session session;
    session.Bind(compiled);
    Result<EvalResult> result = session.Run(edb);
    if (!result.ok()) {
      std::cerr << "eval error: " << result.status().ToString() << "\n";
      return 1;
    }
    std::cout << "\nanswers ("
              << (compiled->optimized() ? "optimized" : "original")
              << "): " << result->answers.size() << "   ["
              << result->stats.ToString() << "]\n";
    for (const auto& row : result->answers) {
      std::cout << "  query(";
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) std::cout << ", ";
        std::cout << ctx->SymbolName(row[i]);
      }
      std::cout << ")\n";
    }
  }
  return 0;
}
