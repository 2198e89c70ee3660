// E9 — Theorem 3.3, constructive side: for a strongly regular chain
// grammar, the synthesized monadic program answers the existential-source
// query with unary recursive predicates.
//
// Language: a b* c over a random labeled graph. Rows: the original binary
// chain program (computing all (X, Y) pairs, then projecting) vs the
// DFA-derived monadic program (computing target nodes only), which is
// exactly the shape the bitset kernels target (DESIGN.md §14). The
// Monadic_bitset row name predates the removal of the tuple executor and
// is kept so its history stays comparable.
//
// Every case records a JSON row (BENCH_bench_e9_monadic.json); with
// EXDL_BENCH_METRICS=1 the rows carry the full telemetry document, and
// tools/check_bench_fallback.py asserts the monadic bitset cases ran
// kernel-only (storage.representation.fallbacks == 0).

#include "bench_util.h"

#include "grammar/monadic.h"

namespace exdl::bench {
namespace {

const char kChain[] =
    "s(X, Y) :- a(X, U), m(U, Y).\n"
    "m(X, Y) :- b(X, U), m(U, Y).\n"
    "m(X, Y) :- c(X, Y).\n"
    "?- s(X, Y).\n";

Database MakeEdb(Context* ctx, int n) {
  Database edb;
  std::vector<PredId> labels = {ctx->InternPredicate("a", 2),
                                ctx->InternPredicate("b", 2),
                                ctx->InternPredicate("c", 2)};
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kRandomSparse;
  spec.nodes = n;
  spec.avg_degree = 2.5;
  spec.seed = 91;
  MakeLabeledGraph(ctx, &edb, labels, spec);
  return edb;
}

void BM_BinaryChain(benchmark::State& state) {
  Setup setup = ParseOrDie(kChain);
  Database edb = MakeEdb(setup.ctx.get(), static_cast<int>(state.range(0)));
  EvalResult best;
  for (auto _ : state) {
    KeepFastest(EvalOrDie(setup.program, edb), &best);
  }
  ReportResult(state, "BinaryChain/" + std::to_string(state.range(0)), best);
}

void BM_Monadic(benchmark::State& state) {
  Setup setup = ParseOrDie(kChain);
  Result<Program> monadic = MonadicEquivalent(setup.program);
  if (!monadic.ok()) std::abort();
  state.counters["rules"] = static_cast<double>(monadic->NumRules());
  Database edb = MakeEdb(setup.ctx.get(), static_cast<int>(state.range(0)));
  EvalResult best;
  for (auto _ : state) {
    KeepFastest(EvalOrDie(*monadic, edb), &best);
  }
  ReportResult(state, "Monadic_bitset/" + std::to_string(state.range(0)),
               best);
}

BENCHMARK(BM_BinaryChain)->Arg(200)->Arg(800)->Arg(3200)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Monadic)->Arg(200)->Arg(800)->Arg(3200)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace exdl::bench
