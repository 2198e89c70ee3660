#include "core/session.h"

#include <unordered_map>

#include "ast/printer.h"
#include "obs/telemetry.h"

namespace exdl {

namespace {

/// Stable lowercase termination label for the JSON export.
std::string_view TerminationLabel(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    default: return "error";
  }
}

/// Snapshot lookup key: metric name + the value of its "rule" label (the
/// only label the per-rule metrics carry).
std::string RuleMetricKey(std::string_view name, size_t rule_index) {
  std::string key(name);
  key.push_back('\0');
  key += std::to_string(rule_index);
  return key;
}

}  // namespace

void RunSummary::Record(const EvalResult& result) {
  has_run = true;
  stats = result.stats;
  answers = result.answers.size();
  termination = result.termination;
  representation = result.representation;
}

Status Session::ArmResume(recovery::Snapshot snap, std::string_view origin) {
  if (compiled_ == nullptr) {
    return Status::FailedPrecondition("session has no bound program");
  }
  if (options_.eval.record_provenance) {
    return Status::FailedPrecondition(
        "cannot resume with record_provenance: derivations of completed "
        "rounds are not checkpointed");
  }
  const Program& program = compiled_->program();
  if (snap.program_fingerprint !=
      CompiledProgram::Fingerprint(program, options_.eval,
                                   compiled_->magic_seed())) {
    return Status::FailedPrecondition(
        "checkpoint was written by a different program or evaluation "
        "options: " + std::string(origin));
  }
  // The snapshot's ids are only meaningful if this session's interning
  // tables — rebuilt by re-parsing and re-optimizing — are identical to
  // the writer's. The fingerprint already pinned the program text, so a
  // mismatch here means the snapshot was tampered with.
  const Context& ctx = *program.context();
  if (snap.symbols.size() != ctx.NumSymbols() ||
      snap.preds.size() != ctx.NumPredicates()) {
    return Status::CorruptCheckpoint(
        "snapshot interning tables disagree with the session context");
  }
  for (SymbolId s = 0; s < snap.symbols.size(); ++s) {
    if (snap.symbols[s] != ctx.SymbolName(s)) {
      return Status::CorruptCheckpoint(
          "snapshot symbol table disagrees with the session context");
    }
  }
  for (PredId p = 0; p < snap.preds.size(); ++p) {
    const PredicateInfo& info = ctx.predicate(p);
    const recovery::SnapshotPred& stored = snap.preds[p];
    if (stored.name != info.name || stored.arity != info.arity ||
        stored.adornment != info.adornment.str()) {
      return Status::CorruptCheckpoint(
          "snapshot predicate table disagrees with the session context");
    }
  }
  if (!snap.cursor.retired_rules.empty() &&
      snap.cursor.retired_rules.back() >= program.rules().size()) {
    return Status::CorruptCheckpoint(
        "snapshot retires a rule the program does not have");
  }
  resume_ = std::move(snap);
  return Status::Ok();
}

Result<EvalResult> Session::Run(const Database& edb) {
  if (compiled_ == nullptr) {
    return Status::FailedPrecondition("session has no bound program");
  }
  const Program& program = compiled_->program();
  EvalOptions eval = options_.eval;
  if (!options_.checkpoint_directory.empty()) {
    checkpointer_ = std::make_unique<recovery::Checkpointer>(
        options_.checkpoint_directory,
        CompiledProgram::Fingerprint(program, eval, compiled_->magic_seed()));
    eval.checkpoint_sink = checkpointer_.get();
  }
  std::optional<recovery::Snapshot> resume = std::move(resume_);
  resume_.reset();
  if (resume.has_value()) eval.resume = &resume->cursor;
  // The one place a rewrite's seed fact enters an EDB (a resumed database
  // holds it already). Ground by construction, so AddFact cannot fail.
  Result<EvalResult> result = [&] {
    if (resume.has_value()) return ::exdl::Evaluate(program, resume->db, eval);
    if (!compiled_->magic_seed()) return ::exdl::Evaluate(program, edb, eval);
    Database seeded = edb.Clone();
    (void)seeded.AddFact(*compiled_->magic_seed());
    return ::exdl::Evaluate(program, std::move(seeded), eval);
  }();
  if (result.ok()) summary_.Record(*result);
  return result;
}

std::string Session::TelemetryJson(std::string_view command,
                                   std::string_view source) const {
  if (compiled_ == nullptr) {
    return RenderTelemetryDoc(command, source, summary_, {}, false,
                              OptimizationReport(), Status::Ok(),
                              options_.eval.telemetry);
  }
  std::vector<std::string> rule_texts;
  for (const Rule& rule : compiled_->program().rules()) {
    rule_texts.push_back(ToString(*compiled_->context(), rule));
  }
  return RenderTelemetryDoc(command, source, summary_, rule_texts,
                            compiled_->optimized(), compiled_->report(),
                            compiled_->optimize_termination(),
                            options_.eval.telemetry);
}

std::string RenderTelemetryDoc(
    std::string_view command, std::string_view source, const RunSummary& run,
    const std::vector<std::string>& rule_texts, bool optimized,
    const OptimizationReport& report, const Status& optimize_termination,
    const obs::Telemetry* telemetry,
    const std::function<void(obs::JsonWriter&)>& extra) {
  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.Key("schema_version");
  w.Int(1);
  w.Key("generator");
  w.String("exdatalog");
  w.Key("command");
  w.String(command);
  w.Key("source");
  w.String(source);

  w.Key("answers");
  w.UInt(run.answers);
  w.Key("termination");
  w.String(TerminationLabel(!run.termination.ok() ? run.termination
                                                  : optimize_termination));
  w.Key("stats");
  w.BeginObject();
  w.Key("rounds");
  w.UInt(run.stats.rounds);
  w.Key("rule_firings");
  w.UInt(run.stats.rule_firings);
  w.Key("tuples_inserted");
  w.UInt(run.stats.tuples_inserted);
  w.Key("duplicate_inserts");
  w.UInt(run.stats.duplicate_inserts);
  w.Key("index_probes");
  w.UInt(run.stats.index_probes);
  w.Key("rows_matched");
  w.UInt(run.stats.rows_matched);
  w.Key("rules_retired");
  w.UInt(run.stats.rules_retired);
  w.Key("eval_seconds");
  w.Double(run.stats.eval_seconds);
  w.Key("max_round_seconds");
  w.Double(run.stats.max_round_seconds);
  w.Key("budget_tripped");
  w.String(BudgetKindName(run.stats.budget_tripped));
  w.EndObject();

  w.Key("optimize");
  w.BeginObject();
  w.Key("ran");
  w.Bool(optimized);
  w.Key("original_rules");
  w.UInt(report.original_rules);
  w.Key("final_rules");
  w.UInt(report.final_rules);
  w.Key("optimize_seconds");
  w.Double(report.optimize_seconds);
  w.Key("interrupted_before");
  w.String(report.interrupted_before);
  w.EndObject();

  w.Key("phases");
  w.BeginArray();
  for (const OptimizationPhase& phase : report.phases) {
    w.BeginObject();
    w.Key("name");
    w.String(phase.name);
    w.Key("seconds");
    w.Double(phase.seconds);
    w.Key("rules_before");
    w.UInt(phase.rules_before);
    w.Key("rules_after");
    w.UInt(phase.rules_after);
    w.Key("rule_delta");
    w.Int(phase.RuleDelta());
    w.Key("interrupted");
    w.Bool(phase.interrupted);
    w.Key("detail");
    w.String(phase.detail);
    w.EndObject();
  }
  w.EndArray();

  // Per-rule rows: rule text from the caller, counters from the metrics
  // snapshot (zero when telemetry is off or the rule never fired).
  std::unordered_map<std::string, const obs::MetricRow*> by_rule;
  std::vector<obs::MetricRow> snapshot;
  if (telemetry != nullptr) {
    snapshot = telemetry->metrics().Snapshot();
    for (const obs::MetricRow& row : snapshot) {
      for (const auto& [k, v] : row.labels) {
        if (k == "rule") {
          std::string key = row.name;
          key.push_back('\0');
          key += v;
          by_rule.emplace(std::move(key), &row);
        }
      }
    }
  }
  auto rule_counter = [&](std::string_view name, size_t i) -> uint64_t {
    auto it = by_rule.find(RuleMetricKey(name, i));
    return it == by_rule.end() ? 0 : it->second->counter;
  };
  w.Key("rules");
  w.BeginArray();
  for (size_t i = 0; i < rule_texts.size(); ++i) {
    w.BeginObject();
    w.Key("index");
    w.UInt(i);
    w.Key("text");
    w.String(rule_texts[i]);
    w.Key("derived");
    w.UInt(rule_counter("eval.rule.derived", i));
    w.Key("duplicates");
    w.UInt(rule_counter("eval.rule.duplicates", i));
    w.Key("firings");
    w.UInt(rule_counter("eval.rule.firings", i));
    w.Key("probes");
    w.UInt(rule_counter("eval.rule.probes", i));
    w.EndObject();
  }
  w.EndArray();

  w.Key("metrics");
  if (telemetry != nullptr) {
    telemetry->WriteMetricsJson(w);
  } else {
    w.BeginArray();
    w.EndArray();
  }
  w.Key("spans");
  if (telemetry != nullptr) {
    telemetry->WriteSpansJson(w);
  } else {
    w.BeginArray();
    w.EndArray();
  }
  w.Key("dropped_spans");
  w.UInt(telemetry != nullptr ? telemetry->trace().dropped() : 0);

  // Bitset-kernel counters (DESIGN.md §14). This is the only section
  // allowed to differ between a kernel run and a generic (provenance) run
  // of the same program; equivalence checks strip it before comparing.
  w.Key("storage");
  w.BeginObject();
  w.Key("representation");
  w.BeginObject();
  w.Key("bitset_relations");
  w.UInt(run.representation.bitset_relations);
  w.Key("words_scanned");
  w.UInt(run.representation.words_scanned);
  w.Key("fallbacks");
  w.UInt(run.representation.fallbacks);
  w.EndObject();
  w.EndObject();
  if (extra) extra(w);
  w.EndObject();
  out.push_back('\n');
  return out;
}

}  // namespace exdl
