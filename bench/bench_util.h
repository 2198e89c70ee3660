// Shared helpers for the experiment benches (see DESIGN.md section 4 for
// the experiment index E1..E11 and EXPERIMENTS.md for results).
//
// Every ReportStats/ReportResult call also records a machine-readable row;
// at process exit the accumulated rows are written to
// `BENCH_<executable>.json` in the working directory (tuples/sec, work
// counters, and — via ReportResult — peak relation sizes and answer
// counts), so successive PRs have a perf trajectory to diff against.
//
// The helpers call the layer functions directly: ParseOrDie compiles
// through CompiledProgram, OptimizeOrDie calls OptimizeExistential, and
// EvalOrDie calls the free Evaluate on the caller's program and EDB, so a
// timed loop pays for no program clone or fingerprint. EvalOrDie fills
// unset budget limits from the environment (EXDL_BUDGET_* — see
// EvalBudget::FromEnv), and with EXDL_BENCH_METRICS=1 it turns on a
// telemetry sink and folds the full telemetry document (per-rule rows,
// metrics, spans) into the bench's JSON row under "telemetry". Telemetry
// is off by default so benches measure the untraced path.

#ifndef EXDL_BENCH_BENCH_UTIL_H_
#define EXDL_BENCH_BENCH_UTIL_H_

#include <string>

#include <benchmark/benchmark.h>

#include "core/optimizer.h"
#include "core/workload.h"
#include "eval/evaluator.h"
#include "parser/parser.h"

namespace exdl::bench {

/// Parses `source`, aborting on error (bench setup must not fail quietly).
struct Setup {
  ContextPtr ctx;
  Program program;
  Database edb;
};
Setup ParseOrDie(const std::string& source);

/// Runs the optimizer, aborting on error.
Program OptimizeOrDie(const Program& program,
                      const OptimizerOptions& options = {});

/// Evaluates, aborting on error.
EvalResult EvalOrDie(const Program& program, const Database& edb,
                     const EvalOptions& options = {});

/// Keeps the fastest of the loop's evaluations for reporting: replaces
/// *best when it is still empty or `candidate` evaluated faster. Bench
/// iterations repeat identical work (every stat but the timing is
/// deterministic), so the minimum eval time is the run least disturbed by
/// scheduler/interrupt noise — the standard microbenchmark estimator, and
/// much steadier than whichever iteration happened to run last for the
/// microsecond-scale cases.
inline void KeepFastest(EvalResult&& candidate, EvalResult* best) {
  if (best->stats.eval_seconds <= 0 ||
      candidate.stats.eval_seconds < best->stats.eval_seconds) {
    *best = std::move(candidate);
  }
}

/// Publishes the standard counters on `state`.
void ReportStats(benchmark::State& state, const EvalStats& stats);

/// Like ReportStats, but also publishes the answer count and records a
/// JSON row under `name` (the installed benchmark library predates
/// State::name(), so cases label themselves) with eval timing, tuples/sec,
/// and peak / total relation sizes from the full evaluation result.
void ReportResult(benchmark::State& state, const std::string& name,
                  const EvalResult& result);

/// ReportResult for service-style cases that process many queries per
/// iteration: also publishes `qps` on `state` and records
/// `queries_per_sec` in the JSON row. `result` carries the aggregate
/// stats of one batch (A2 sums the per-query stats).
void ReportThroughput(benchmark::State& state, const std::string& name,
                      const EvalResult& result, double queries_per_sec);

/// Attaches a telemetry JSON document to `name`'s row directly, for
/// service-level benches where the document comes from
/// QueryService::MetricsJson (with its "service"/"ivm" objects) rather
/// than EvalOrDie's sink. Overwrites whatever EvalOrDie captured.
void AttachTelemetry(const std::string& name, std::string json);

}  // namespace exdl::bench

#endif  // EXDL_BENCH_BENCH_UTIL_H_
