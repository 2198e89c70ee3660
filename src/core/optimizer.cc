#include "core/optimizer.h"

#include <algorithm>
#include <chrono>

#include "adorn/adorn.h"
#include "obs/telemetry.h"
#include "transform/cleanup.h"
#include "transform/folding.h"
#include "transform/components.h"
#include "transform/factoring.h"
#include "transform/magic.h"
#include "transform/projection.h"
#include "transform/unfolding.h"
#include "transform/unit_rules.h"
#include "util/string_util.h"

namespace exdl {

namespace {

using Clock = std::chrono::steady_clock;

/// Bookkeeping shared by every phase: structured report entry, trace span,
/// and timing. Created by Optimizer::BeginPhase, closed by EndPhase.
struct PhaseScope {
  size_t entry = 0;  ///< Index into report.phases.
  Clock::time_point begin;
  obs::SpanId span = obs::kDroppedSpan;
  bool open = false;
};

}  // namespace

Result<OptimizedProgram> OptimizeExistential(
    const Program& program, const OptimizerOptions& options,
    const std::vector<PredId>& fact_preds) {
  if (!program.query()) {
    return Status::FailedPrecondition("optimizer requires a query");
  }
  const auto optimize_begin = Clock::now();
  OptimizedProgram out{program.Clone(), std::nullopt, {}, Status::Ok()};
  out.report.original_rules = program.NumRules();
  std::unordered_set<PredId> input_preds = program.EdbPredicates();

  obs::Telemetry* telemetry = options.telemetry;
  obs::SpanId optimize_span = obs::kDroppedSpan;
  if (telemetry != nullptr) {
    optimize_span = telemetry->trace().Begin("optimize");
  }

  auto begin_phase = [&](const char* name) {
    PhaseScope scope;
    scope.entry = out.report.phases.size();
    OptimizationPhase entry;
    entry.name = name;
    entry.rules_before = out.program.NumRules();
    out.report.phases.push_back(std::move(entry));
    scope.begin = Clock::now();
    if (telemetry != nullptr) {
      scope.span = telemetry->trace().Begin(std::string("phase:") + name);
    }
    scope.open = true;
    return scope;
  };
  auto end_phase = [&](PhaseScope& scope, std::string detail = "") {
    OptimizationPhase& entry = out.report.phases[scope.entry];
    entry.rules_after = out.program.NumRules();
    entry.seconds =
        std::chrono::duration<double>(Clock::now() - scope.begin).count();
    entry.detail = std::move(detail);
    if (telemetry != nullptr) {
      obs::Trace& trace = telemetry->trace();
      trace.SetAttr(scope.span, "rules_before",
                    static_cast<double>(entry.rules_before));
      trace.SetAttr(scope.span, "rules_after",
                    static_cast<double>(entry.rules_after));
      trace.End(scope.span);
    }
    scope.open = false;
  };

  // Phase-boundary cancellation. Every phase preserves equivalence, so the
  // prefix completed so far is a valid optimization result; finalize the
  // report and hand it back with termination = kCancelled.
  auto finalize = [&out, optimize_begin, telemetry, optimize_span] {
    out.report.final_rules = out.program.NumRules();
    // The report lives as long as its cached compile artifact.
    out.report.phases.shrink_to_fit();
    out.report.optimize_seconds =
        std::chrono::duration<double>(Clock::now() - optimize_begin).count();
    // Detail lines whose numbers only settle at the end of the pipeline
    // (retraction count, cleanup totals) are patched into their entries
    // here so the printed per-phase lines always show final values.
    const OptimizationReport& r = out.report;
    for (OptimizationPhase& phase : out.report.phases) {
      if (phase.name == "unit_rules" && r.unit_rules_added > 0) {
        phase.detail = "covering unit rules added: " +
                       std::to_string(r.unit_rules_added) +
                       " (retracted afterwards: " +
                       std::to_string(r.unit_rules_retracted) + ")";
      }
      if (phase.name == "deletion") {
        size_t deleted = r.deleted_by_subsumption + r.deleted_by_summary +
                         r.deleted_by_sagiv + r.deleted_by_optimistic;
        if (deleted > 0 || r.removed_by_cleanup > 0) {
          phase.detail =
              "rule deletion: " + std::to_string(r.deleted_by_subsumption) +
              " by subsumption, " + std::to_string(r.deleted_by_summary) +
              " by summaries, " + std::to_string(r.deleted_by_sagiv) +
              " by Sagiv UE, " + std::to_string(r.deleted_by_optimistic) +
              " by optimistic UQE, " + std::to_string(r.removed_by_cleanup) +
              " dead rules cleaned up";
        }
      }
    }
    if (telemetry != nullptr) {
      obs::MetricsRegistry& m = telemetry->metrics();
      m.Add(m.Counter("optimize.rules_deleted"),
            r.deleted_by_subsumption + r.deleted_by_summary +
                r.deleted_by_sagiv + r.deleted_by_optimistic +
                r.removed_by_cleanup);
      m.Add(m.Counter("optimize.positions_dropped"), r.positions_dropped);
      m.Add(m.Counter("optimize.booleans_created"), r.booleans_created);
      m.Add(m.Counter("optimize.unit_rules_added"), r.unit_rules_added);
      m.Add(m.Counter("optimize.unfolded"), r.predicates_unfolded);
      m.Add(m.Counter("optimize.factored"), r.factored ? 1 : 0);
      m.Set(m.Gauge("optimize.final_rules"),
            static_cast<double>(r.final_rules));
      telemetry->trace().End(optimize_span);
    }
  };
  auto cancelled_before = [&](const char* phase) {
    if (options.cancellation == nullptr || !options.cancellation->cancelled()) {
      return false;
    }
    out.report.interrupted_before = phase;
    OptimizationPhase entry;
    entry.name = phase;
    entry.rules_before = entry.rules_after = out.program.NumRules();
    entry.interrupted = true;
    out.report.phases.push_back(std::move(entry));
    if (telemetry != nullptr) {
      telemetry->trace().Event(std::string("event:cancelled_before:") +
                               phase);
    }
    out.termination = Status::Cancelled(
        std::string("optimizer cancelled before phase: ") + phase);
    finalize();
    return true;
  };

  // Every rewrite below treats derived and adorned predicates as starting
  // empty, so source facts for one would be dropped: run no phase.
  const Context& ctx = program.ctx();
  for (PredId p : fact_preds) {
    const bool derived = program.IsIdb(p);
    if (!derived && ctx.predicate(p).adornment.empty()) continue;
    out.report.log.push_back(
        StrCat("optimizer skipped: source facts name ",
               derived ? "derived" : "adorned", " predicate ",
               ctx.PredicateDisplayName(p)));
    finalize();
    return out;
  }

  // Names the generated bq_N and fold_N predicates must avoid: those of
  // the source (an earlier phase may drop some from the program while a
  // load can still fill them) and of its facts.
  std::vector<PredId> reserved_preds = fact_preds;
  for (PredId p : program.AllPredicates()) reserved_preds.push_back(p);

  if (cancelled_before("adorn")) return out;
  if (options.adorn && program.IsIdb(program.query()->pred)) {
    PhaseScope phase = begin_phase("adorn");
    EXDL_ASSIGN_OR_RETURN(out.program, AdornExistential(out.program));
    out.report.adorned = true;
    out.report.adorned_rules = out.program.NumRules();
    end_phase(phase, "adorned program: " +
                         std::to_string(out.report.adorned_rules) + " rules");
  }

  if (cancelled_before("projection")) return out;
  if (options.push_projections) {
    PhaseScope phase = begin_phase("projection");
    EXDL_ASSIGN_OR_RETURN(ProjectionResult projected,
                          PushProjections(out.program));
    out.report.predicates_projected = projected.predicates_projected;
    out.report.positions_dropped = projected.positions_dropped;
    out.program = std::move(projected.program);
    std::string detail;
    if (out.report.predicates_projected > 0) {
      detail = "projection pushing: " +
               std::to_string(out.report.predicates_projected) +
               " predicate(s), " +
               std::to_string(out.report.positions_dropped) +
               " argument position(s) dropped";
    }
    end_phase(phase, std::move(detail));
  }

  if (cancelled_before("components")) return out;
  if (options.extract_components) {
    PhaseScope phase = begin_phase("components");
    EXDL_ASSIGN_OR_RETURN(ComponentResult components,
                          ExtractComponents(out.program, reserved_preds));
    out.report.booleans_created = components.booleans_created;
    out.report.rules_split = components.rules_split;
    out.program = std::move(components.program);
    std::string detail;
    if (out.report.booleans_created > 0) {
      detail = "existential components: " +
               std::to_string(out.report.booleans_created) +
               " boolean subquery(ies) extracted from " +
               std::to_string(out.report.rules_split) + " rule(s)";
    }
    end_phase(phase, std::move(detail));
  }

  if (cancelled_before("unit_rules")) return out;
  const bool has_negation = out.program.HasNegation();
  std::vector<Rule> added_unit_rules;
  if (options.add_unit_rules && options.delete_rules && !has_negation) {
    PhaseScope phase = begin_phase("unit_rules");
    EXDL_ASSIGN_OR_RETURN(UnitRuleResult units,
                          AddCoveringUnitRules(out.program));
    out.report.unit_rules_added = units.rules_added;
    added_unit_rules = std::move(units.added);
    out.program = std::move(units.program);
    end_phase(phase);  // detail patched in finalize (needs retraction count)
  }

  if (cancelled_before("deletion")) return out;
  std::vector<Rule> justification_rules;
  bool retraction_safe = true;
  if (options.delete_rules) {
    PhaseScope phase = begin_phase("deletion");
    DeletionOptions deletion = options.deletion;
    deletion.input_preds = input_preds;
    EXDL_ASSIGN_OR_RETURN(DeletionResult deleted,
                          DeleteRedundantRules(out.program, deletion));
    out.report.deleted_by_subsumption = deleted.deleted_by_subsumption;
    out.report.deleted_by_summary = deleted.deleted_by_summary;
    out.report.deleted_by_sagiv = deleted.deleted_by_sagiv;
    out.report.deleted_by_optimistic = deleted.deleted_by_optimistic;
    out.report.removed_by_cleanup = deleted.removed_by_cleanup;
    out.report.log = std::move(deleted.log);
    justification_rules = std::move(deleted.justification_rules);
    // Sagiv/optimistic deletions do not report which rules their
    // re-derivations use, so retraction is only safe without them.
    retraction_safe = deleted.deleted_by_sagiv == 0 &&
                      deleted.deleted_by_optimistic == 0;
    out.program = std::move(deleted.program);
    end_phase(phase);  // detail patched in finalize (cleanup totals settle)
  }

  // Retract surviving added unit rules that no deletion leaned on: they
  // only copy tuples between predicate versions, so a load-free one would
  // cost evaluation work the original program never paid. Replaying the
  // deletion sequence without an unused unit rule reaches the same (or a
  // smaller dead-rule) result, so removal preserves equivalence.
  for (const Rule& unit : added_unit_rules) {
    if (!retraction_safe) break;
    if (std::find(justification_rules.begin(), justification_rules.end(),
                  unit) != justification_rules.end()) {
      continue;
    }
    auto& rules = out.program.mutable_rules();
    auto it = std::find(rules.begin(), rules.end(), unit);
    if (it == rules.end()) continue;
    rules.erase(it);
    ++out.report.unit_rules_retracted;
  }
  if (cancelled_before("folding")) return out;
  if (options.enable_folding && options.delete_rules && !has_negation) {
    PhaseScope phase = begin_phase("folding");
    EXDL_ASSIGN_OR_RETURN(FoldingResult folded,
                          FoldAlmostUnitRules(out.program, reserved_preds));
    out.report.rules_folded = folded.rules_folded;
    out.report.bodies_folded = folded.bodies_folded;
    if (folded.rules_folded > 0) {
      DeletionOptions deletion = options.deletion;
      deletion.input_preds = input_preds;
      EXDL_ASSIGN_OR_RETURN(DeletionResult deleted,
                            DeleteRedundantRules(folded.program, deletion));
      out.report.deleted_after_folding = deleted.deleted_by_summary +
                                         deleted.deleted_by_sagiv +
                                         deleted.deleted_by_optimistic;
      out.report.removed_by_cleanup += deleted.removed_by_cleanup;
      for (std::string& line : deleted.log) {
        out.report.log.push_back(std::move(line));
      }
      EXDL_ASSIGN_OR_RETURN(
          UnfoldResult unfolded,
          UnfoldPredicates(deleted.program, folded.aux_preds));
      out.program = std::move(unfolded.program);
    }
    std::string detail;
    if (out.report.rules_folded > 0) {
      detail = "folding (Example 11): " +
               std::to_string(out.report.rules_folded) + " rule(s) folded, " +
               std::to_string(out.report.bodies_folded) +
               " embedded body(ies) rewritten, " +
               std::to_string(out.report.deleted_after_folding) +
               " additional deletion(s)";
    }
    end_phase(phase, std::move(detail));
  }
  if (cancelled_before("cleanup")) return out;
  if (options.delete_rules && options.deletion.cleanup && !has_negation) {
    PhaseScope phase = begin_phase("cleanup");
    EXDL_ASSIGN_OR_RETURN(CleanupResult cleaned,
                          CleanupProgram(out.program, input_preds));
    out.report.removed_by_cleanup += cleaned.rules_removed;
    out.program = std::move(cleaned.program);
    end_phase(phase);  // its count folds into the deletion summary line
  }

  // Deletion often leaves a §3 existential query's projected predicate
  // non-recursive (tc@nd(X) :- e(X, Y).); inlining it into its one use
  // saves materializing it. Recursive use sites are left alone, so
  // factoring below sees the same programs as without this phase.
  if (cancelled_before("unfold")) return out;
  if (options.delete_rules && !has_negation) {
    PhaseScope phase = begin_phase("unfold");
    EXDL_ASSIGN_OR_RETURN(UnfoldResult unfolded,
                          UnfoldNonRecursive(out.program));
    out.report.predicates_unfolded = unfolded.unfolded;
    out.program = std::move(unfolded.program);
    end_phase(phase, unfolded.unfolded == 0
                         ? std::string()
                         : StrCat("unfolded ",
                                  std::to_string(unfolded.unfolded),
                                  " predicate(s)"));
  }

  // Factoring pushes the query's constants into a linear recursive query
  // predicate. An explicit magic request wins: magic output stays what it
  // was, and the two rewrites never stack.
  if (!options.apply_magic) {
    if (cancelled_before("factor")) return out;
    PhaseScope phase = begin_phase("factor");
    std::string detail;
    Result<FactoringResult> factored = FactorBoundQuery(out.program);
    if (factored.ok()) {
      detail = StrCat(
          "factored ",
          out.program.ctx().PredicateDisplayName(factored->factored), ": ",
          std::to_string(factored->exit_rules), " exit, ",
          std::to_string(factored->right_linear_rules), " right-linear, ",
          std::to_string(factored->left_linear_rules), " left-linear rule(s)");
      if (telemetry != nullptr) {
        obs::Trace& trace = telemetry->trace();
        trace.SetAttr(phase.span, "exit_rules",
                      static_cast<double>(factored->exit_rules));
        trace.SetAttr(phase.span, "right_linear_rules",
                      static_cast<double>(factored->right_linear_rules));
        trace.SetAttr(phase.span, "left_linear_rules",
                      static_cast<double>(factored->left_linear_rules));
      }
      out.program = std::move(factored->program);
      out.magic_seed = std::move(factored->seed_fact);
      out.report.factored = true;
    }
    end_phase(phase, std::move(detail));
  }

  if (cancelled_before("magic")) return out;
  if (options.apply_magic) {
    PhaseScope phase = begin_phase("magic");
    EXDL_ASSIGN_OR_RETURN(MagicResult magic, MagicRewrite(out.program));
    out.program = std::move(magic.program);
    out.magic_seed = std::move(magic.seed_fact);
    out.report.magic_applied = true;
    end_phase(phase, "magic-set rewriting applied");
  }

  finalize();
  return out;
}

}  // namespace exdl
