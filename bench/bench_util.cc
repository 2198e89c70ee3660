#include "bench_util.h"

#include <errno.h>  // program_invocation_short_name (GNU)

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "ast/printer.h"
#include "core/compiled_program.h"
#include "core/session.h"
#include "obs/telemetry.h"
#include "recovery/atomic_file.h"

namespace exdl::bench {

namespace {

/// One JSON row per benchmark case. Benches report one representative
/// evaluation — typically their fastest iteration (KeepFastest); all
/// iterations repeat identical work, so only the timing varies.
struct BenchRecord {
  EvalStats stats;
  bool has_result = false;
  size_t answers = 0;
  size_t peak_relation_rows = 0;
  size_t total_rows = 0;
  /// Service throughput (ReportThroughput); 0 = not a throughput case.
  double queries_per_sec = 0;
  /// Full telemetry document (per-rule rows, metrics, spans) captured by
  /// EvalOrDie when EXDL_BENCH_METRICS is set; empty otherwise.
  std::string telemetry_json;
};

std::map<std::string, BenchRecord>& Records() {
  static auto* records = new std::map<std::string, BenchRecord>();
  return *records;
}

std::mutex g_records_mutex;

/// Telemetry document of the most recent EvalOrDie (benches evaluate and
/// then ReportResult on the same thread, so last-wins pairing is exact).
std::string g_last_telemetry;

/// EXDL_BENCH_METRICS=1 turns on a telemetry sink inside
/// EvalOrDie and folds the per-rule/per-phase telemetry document into each
/// bench's JSON row. Off by default: benches measure the untraced path.
bool MetricsEnabled() {
  const char* value = std::getenv("EXDL_BENCH_METRICS");
  return value != nullptr && *value != '\0' &&
         std::string_view(value) != "0";
}

/// printf-append onto a std::string (the document is built in memory so
/// the final write can be atomic — a killed bench never leaves a torn
/// BENCH_*.json behind for the sweep harness to parse).
void Appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
}

void WriteBenchJson() {
  const std::map<std::string, BenchRecord>& records = Records();
  if (records.empty()) return;
#ifdef __GLIBC__
  const char* exe = program_invocation_short_name;
#else
  const char* exe = "bench";
#endif
  std::string path = std::string("BENCH_") + exe + ".json";
  std::string doc;
  Appendf(doc, "{\n  \"bench\": \"%s\",\n", exe);
  Appendf(doc, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  Appendf(doc, "  \"compiler\": \"%s\",\n", EXDL_BENCH_COMPILER);
  Appendf(doc, "  \"build_type\": \"%s\",\n", EXDL_BENCH_BUILD_TYPE);
  doc += "  \"results\": [";
  bool first = true;
  for (const auto& [name, rec] : records) {
    const double secs = rec.stats.eval_seconds;
    const double tps =
        secs > 0 ? static_cast<double>(rec.stats.tuples_inserted) / secs : 0;
    Appendf(doc, "%s\n    {\"name\": \"%s\"", first ? "" : ",", name.c_str());
    Appendf(doc, ", \"eval_seconds\": %.6f", secs);
    Appendf(doc, ", \"max_round_seconds\": %.6f",
            rec.stats.max_round_seconds);
    Appendf(doc, ", \"tuples_per_sec\": %.1f", tps);
    Appendf(doc, ", \"tuples_inserted\": %llu",
            static_cast<unsigned long long>(rec.stats.tuples_inserted));
    Appendf(doc, ", \"duplicate_inserts\": %llu",
            static_cast<unsigned long long>(rec.stats.duplicate_inserts));
    Appendf(doc, ", \"rule_firings\": %llu",
            static_cast<unsigned long long>(rec.stats.rule_firings));
    Appendf(doc, ", \"rounds\": %llu",
            static_cast<unsigned long long>(rec.stats.rounds));
    Appendf(doc, ", \"index_probes\": %llu",
            static_cast<unsigned long long>(rec.stats.index_probes));
    Appendf(doc, ", \"budget_tripped\": \"%s\"",
            std::string(BudgetKindName(rec.stats.budget_tripped)).c_str());
    if (rec.has_result) {
      Appendf(doc, ", \"answers\": %zu", rec.answers);
      Appendf(doc, ", \"peak_relation_rows\": %zu", rec.peak_relation_rows);
      Appendf(doc, ", \"total_rows\": %zu", rec.total_rows);
    }
    if (rec.queries_per_sec > 0) {
      Appendf(doc, ", \"queries_per_sec\": %.1f", rec.queries_per_sec);
    }
    if (!rec.telemetry_json.empty()) {
      // Telemetry documents exceed the Appendf buffer; splice directly.
      doc += ", \"telemetry\": ";
      doc += rec.telemetry_json;
    }
    doc += "}";
    first = false;
  }
  doc += "\n  ]\n}\n";
  Status written = recovery::AtomicWriteFile(path, doc);
  if (!written.ok()) {
    std::cerr << "bench json write failed: " << written.ToString() << "\n";
  }
}

BenchRecord& RecordFor(const std::string& name) {
  static bool registered = [] {
    std::atexit(WriteBenchJson);
    return true;
  }();
  (void)registered;
  return Records()[name];
}

}  // namespace

Setup ParseOrDie(const std::string& source) {
  Result<CompiledProgram::Ptr> compiled =
      CompiledProgram::Compile(source, CompileOptions());
  if (!compiled.ok()) {
    std::cerr << "bench parse error: " << compiled.status().ToString()
              << "\n";
    std::abort();
  }
  const CompiledProgram& unit = **compiled;
  return Setup{unit.context(), unit.program().Clone(), unit.facts().Clone()};
}

Program OptimizeOrDie(const Program& program,
                      const OptimizerOptions& options) {
  Result<OptimizedProgram> optimized = OptimizeExistential(program, options);
  if (!optimized.ok()) {
    std::cerr << "bench optimize error: " << optimized.status().ToString()
              << "\n";
    std::abort();
  }
  return std::move(optimized->program);
}

EvalResult EvalOrDie(const Program& program, const Database& edb,
                     const EvalOptions& options) {
  EvalOptions eval = options;
  // Budget overrides from the environment, so long-running experiment
  // sweeps can be bounded without recompiling (EXDL_BUDGET_*; explicit
  // options win — see EvalBudget::FromEnv). A tripped budget is recorded
  // in the JSON row (`budget_tripped`), not fatal — the partial-result
  // stats are still a valid data point.
  eval.budget = EvalBudget::FromEnv(options.budget);
  std::unique_ptr<obs::Telemetry> telemetry;
  if (MetricsEnabled()) {
    telemetry = std::make_unique<obs::Telemetry>();
    eval.telemetry = telemetry.get();
  }
  Result<EvalResult> result = Evaluate(program, edb, eval);
  if (!result.ok()) {
    std::cerr << "bench eval error: " << result.status().ToString() << "\n";
    std::abort();
  }
  if (!result->termination.ok()) {
    std::cerr << "bench budget tripped: " << result->termination.ToString()
              << "\n";
  }
  if (telemetry != nullptr) {
    RunSummary run;
    run.Record(*result);
    std::vector<std::string> rule_texts;
    for (const Rule& rule : program.rules()) {
      rule_texts.push_back(ToString(*program.context(), rule));
    }
    std::string doc =
        RenderTelemetryDoc("bench", "", run, rule_texts, false,
                           OptimizationReport(), Status::Ok(), telemetry.get());
    while (!doc.empty() && doc.back() == '\n') doc.pop_back();
    std::lock_guard<std::mutex> lock(g_records_mutex);
    g_last_telemetry = std::move(doc);
  }
  return std::move(result).value();
}

void ReportStats(benchmark::State& state, const EvalStats& stats) {
  state.counters["tuples"] = static_cast<double>(stats.tuples_inserted);
  state.counters["dups"] = static_cast<double>(stats.duplicate_inserts);
  state.counters["firings"] = static_cast<double>(stats.rule_firings);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["probes"] = static_cast<double>(stats.index_probes);
}

void ReportResult(benchmark::State& state, const std::string& name,
                  const EvalResult& result) {
  ReportStats(state, result.stats);
  size_t peak = 0;
  size_t total = 0;
  for (const auto& [pred, rel] : result.db.relations()) {
    peak = std::max(peak, rel.size());
    total += rel.size();
  }
  state.counters["answers"] = static_cast<double>(result.answers.size());
  std::lock_guard<std::mutex> lock(g_records_mutex);
  BenchRecord& rec = RecordFor(name);
  rec.stats = result.stats;
  rec.has_result = true;
  rec.answers = result.answers.size();
  rec.peak_relation_rows = peak;
  rec.total_rows = total;
  rec.telemetry_json = std::move(g_last_telemetry);
  g_last_telemetry.clear();
}

void ReportThroughput(benchmark::State& state, const std::string& name,
                      const EvalResult& result, double queries_per_sec) {
  ReportResult(state, name, result);
  state.counters["qps"] = queries_per_sec;
  std::lock_guard<std::mutex> lock(g_records_mutex);
  RecordFor(name).queries_per_sec = queries_per_sec;
}

void AttachTelemetry(const std::string& name, std::string json) {
  while (!json.empty() && json.back() == '\n') json.pop_back();
  std::lock_guard<std::mutex> lock(g_records_mutex);
  RecordFor(name).telemetry_json = std::move(json);
}

}  // namespace exdl::bench
