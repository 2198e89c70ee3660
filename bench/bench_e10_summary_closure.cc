// E10 — Compile-time cost of Algorithm 5.1's summary closure as the
// program grows (rules per predicate, predicate arity, chain depth).
//
// The closure is finite but can touch many partition summaries; this
// bench shows the optimizer's compile cost stays in the milliseconds for
// realistic program sizes, and how it scales.

#include "bench_util.h"

#include "equiv/summary_closure.h"
#include "util/string_util.h"

namespace exdl::bench {
namespace {

/// Builds a layered program: query -> l0 -> l1 -> ... -> l{depth-1} -> base,
/// `width` rules per layer, each layer also has a unit promotion rule.
std::string LayeredProgram(int depth, int width) {
  std::string out = "query(X) :- l0(X, Y).\n?- query(X).\n";
  for (int d = 0; d < depth; ++d) {
    std::string self = StrCat("l", std::to_string(d));
    std::string next =
        d + 1 == depth ? "base" : StrCat("l", std::to_string(d + 1));
    out += self + "(X, Y) :- " + next + "(X, Y).\n";  // unit rule
    for (int w = 0; w < width; ++w) {
      out += self + "(X, Y) :- " + next + "(X, Z), e" + std::to_string(w) +
             "(Z, Y).\n";
    }
    out += self + "(X, Y) :- " + self + "(X, Z), " + self + "(Z, Y).\n";
  }
  return out;
}

void BM_SummaryClosure(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  int width = static_cast<int>(state.range(1));
  Setup setup = ParseOrDie(LayeredProgram(depth, width));
  size_t total = 0;
  size_t chains = 0;
  for (auto _ : state) {
    Result<SummaryAnalysis> analysis =
        SummaryAnalysis::Build(setup.program);
    if (!analysis.ok()) std::abort();
    total = analysis->total_summaries();
    chains = analysis->unit_chains().size();
    benchmark::DoNotOptimize(analysis->DeletableRules());
  }
  state.counters["summaries"] = static_cast<double>(total);
  state.counters["unit_chains"] = static_cast<double>(chains);
  state.counters["rules"] = static_cast<double>(setup.program.NumRules());
}

void BM_FullOptimizer(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  int width = static_cast<int>(state.range(1));
  Setup setup = ParseOrDie(LayeredProgram(depth, width));
  for (auto _ : state) {
    Program p = OptimizeOrDie(setup.program);
    benchmark::DoNotOptimize(p.NumRules());
  }
}

BENCHMARK(BM_SummaryClosure)
    ->Args({2, 2})->Args({4, 2})->Args({6, 2})->Args({4, 4})->Args({4, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullOptimizer)
    ->Args({2, 2})->Args({4, 2})->Args({6, 2})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace exdl::bench
