// E8 — Orthogonality of selection pushing (magic sets) and projection
// pushing (§1, §6: "these rewritings are orthogonal to the optimizations
// discussed in this paper").
//
// Bound reachability query on the Example 1 program. Rows: plain
// evaluation, magic only, existential pipeline only, both. Expect the
// combination to do the least work: magic restricts the *nodes* explored,
// the existential pipeline removes the *target column*.
//
// BoundTc_*: the served shape `?- tc(n0, Y)`, which binds the source and
// keeps the target. Plain evaluation closes every pair; magic restricts
// the closure to pairs whose source n0 reaches, which right-linear tc
// still makes reach x reach; factoring (the optimizer's default for this
// shape, transform/factoring.h) derives the unary reachable set of n0.

#include "bench_util.h"

#include <optional>

#include "transform/magic.h"
#include "util/string_util.h"

namespace exdl::bench {
namespace {

const char kProgram[] =
    "query(X) :- a(X, Y).\n"
    "a(X, Y) :- p(X, Z), a(Z, Y).\n"
    "a(X, Y) :- p(X, Y).\n"
    "?- query(n0).\n";

Database MakeEdb(Context* ctx, int n) {
  Database edb;
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kRandomSparse;
  spec.nodes = n;
  spec.avg_degree = 2.0;
  spec.seed = 55;
  MakeGraph(ctx, &edb, ctx->InternPredicate("p", 2), spec);
  return edb;
}

void RunCase(benchmark::State& state, bool existential, bool magic,
             bool supplementary = false) {
  Setup setup = ParseOrDie(kProgram);
  OptimizerOptions options;
  options.adorn = existential;
  options.push_projections = existential;
  options.extract_components = existential;
  options.add_unit_rules = existential;
  options.delete_rules = existential;
  options.apply_magic = false;  // applied manually to pick the variant
  Result<OptimizedProgram> optimized =
      OptimizeExistential(setup.program, options);
  if (!optimized.ok()) std::abort();
  if (magic) {
    MagicOptions magic_options;
    magic_options.supplementary = supplementary;
    Result<MagicResult> rewritten =
        MagicRewrite(optimized->program, magic_options);
    if (!rewritten.ok()) std::abort();
    optimized->program = std::move(rewritten->program);
    optimized->magic_seed = std::move(rewritten->seed_fact);
  }
  Database edb = MakeEdb(setup.ctx.get(), static_cast<int>(state.range(0)));
  if (optimized->magic_seed) {
    edb = WithSeed(edb, *optimized->magic_seed);
  }
  EvalStats last;
  size_t answers = 0;
  for (auto _ : state) {
    EvalResult r = EvalOrDie(optimized->program, edb);
    last = r.stats;
    answers = r.answers.size();
  }
  ReportStats(state, last);
  state.counters["answers"] = static_cast<double>(answers);
}

const char kBoundTc[] =
    "tc(X, Y) :- p(X, Y).\n"
    "tc(X, Y) :- p(X, Z), tc(Z, Y).\n"
    "?- tc(n0, Y).\n";

enum class BoundTcArm { kPlain, kMagic, kFactored };

void RunBoundTc(benchmark::State& state, BoundTcArm arm) {
  Setup setup = ParseOrDie(kBoundTc);
  Program program = setup.program.Clone();
  std::optional<Atom> seed;
  if (arm != BoundTcArm::kPlain) {
    OptimizerOptions options;
    options.apply_magic = arm == BoundTcArm::kMagic;
    Result<OptimizedProgram> optimized =
        OptimizeExistential(setup.program, options);
    if (!optimized.ok()) std::abort();
    // Each arm must measure the rewrite it names.
    if (optimized->report.factored != (arm == BoundTcArm::kFactored) ||
        optimized->report.magic_applied != (arm == BoundTcArm::kMagic)) {
      std::abort();
    }
    program = std::move(optimized->program);
    seed = std::move(optimized->magic_seed);
  }
  Database edb = MakeEdb(setup.ctx.get(), static_cast<int>(state.range(0)));
  if (seed) edb = WithSeed(edb, *seed);
  EvalResult best;
  for (auto _ : state) KeepFastest(EvalOrDie(program, edb), &best);
  static const char* const kArm[] = {"Plain", "Magic", "Factored"};
  ReportResult(state,
               StrCat("BoundTc_", kArm[static_cast<int>(arm)], "/",
                      std::to_string(state.range(0))),
               best);
}

void BM_Plain(benchmark::State& state) { RunCase(state, false, false); }
void BM_MagicOnly(benchmark::State& state) { RunCase(state, false, true); }
void BM_ExistentialOnly(benchmark::State& state) {
  RunCase(state, true, false);
}
void BM_Both(benchmark::State& state) { RunCase(state, true, true); }
void BM_BothSupplementary(benchmark::State& state) {
  RunCase(state, true, true, /*supplementary=*/true);
}

BENCHMARK(BM_Plain)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MagicOnly)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExistentialOnly)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Both)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BothSupplementary)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_BoundTc_Plain(benchmark::State& state) {
  RunBoundTc(state, BoundTcArm::kPlain);
}
void BM_BoundTc_Magic(benchmark::State& state) {
  RunBoundTc(state, BoundTcArm::kMagic);
}
void BM_BoundTc_Factored(benchmark::State& state) {
  RunBoundTc(state, BoundTcArm::kFactored);
}

BENCHMARK(BM_BoundTc_Plain)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BoundTc_Magic)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BoundTc_Factored)->Arg(128)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace exdl::bench
