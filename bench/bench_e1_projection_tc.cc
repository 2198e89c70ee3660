// E1 — Projection pushing on transitive closure (Examples 1 & 3, §3.2).
//
// Paper claim: "Reducing the arity of recursive predicates was identified
// as an important performance factor ... the elimination not only reduces
// the facts produced but also reduces the duplicate elimination cost
// significantly."
//
// Rows: binary (original) vs unary (optimized) closure over chains and
// random sparse digraphs of growing size. Expect the unary program to win
// by a factor that grows with graph size (O(n^2) vs O(n) derived facts on
// a chain).

#include "bench_util.h"

namespace exdl::bench {
namespace {

const char kProgram[] =
    "query(X) :- a(X, Y).\n"
    "a(X, Y) :- p(X, Z), a(Z, Y).\n"
    "a(X, Y) :- p(X, Y).\n"
    "?- query(X).\n";

Database MakeEdb(Context* ctx, GraphSpec::Kind kind, int nodes) {
  Database edb;
  PredId p = ctx->InternPredicate("p", 2);
  GraphSpec spec;
  spec.kind = kind;
  spec.nodes = nodes;
  spec.avg_degree = 1.5;
  spec.seed = 1234;
  MakeGraph(ctx, &edb, p, spec);
  return edb;
}

std::string CaseName(bool optimized, GraphSpec::Kind kind, int64_t nodes) {
  std::string name = optimized ? "Unary_" : "Binary_";
  name += kind == GraphSpec::Kind::kChain ? "Chain" : "Random";
  return name + "/" + std::to_string(nodes);
}

void RunCase(benchmark::State& state, bool optimized, GraphSpec::Kind kind) {
  Setup setup = ParseOrDie(kProgram);
  // E1 isolates Phase 2 (projection pushing): rule deletion is disabled
  // here, otherwise subsumption also removes the unary recursive rule
  // (the paper's Example 3a/4 deletion, measured separately in E3).
  OptimizerOptions options;
  options.delete_rules = false;
  Program program = optimized ? OptimizeOrDie(setup.program, options)
                              : setup.program.Clone();
  Database edb =
      MakeEdb(setup.ctx.get(), kind, static_cast<int>(state.range(0)));
  EvalResult best;
  for (auto _ : state) KeepFastest(EvalOrDie(program, edb), &best);
  ReportResult(state, CaseName(optimized, kind, state.range(0)), best);
}

void BM_Binary_Chain(benchmark::State& state) {
  RunCase(state, false, GraphSpec::Kind::kChain);
}
void BM_Unary_Chain(benchmark::State& state) {
  RunCase(state, true, GraphSpec::Kind::kChain);
}
void BM_Binary_Random(benchmark::State& state) {
  RunCase(state, false, GraphSpec::Kind::kRandomSparse);
}
void BM_Unary_Random(benchmark::State& state) {
  RunCase(state, true, GraphSpec::Kind::kRandomSparse);
}

BENCHMARK(BM_Binary_Chain)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Unary_Chain)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Binary_Random)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Arg(2048)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Unary_Random)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace exdl::bench
