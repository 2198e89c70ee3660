// Session — one evaluation's worth of mutable state (API v2, DESIGN.md
// §12). Where CompiledProgram is the immutable, shareable artifact of
// parse -> optimize, a Session owns everything a single evaluation
// mutates: the run summary, the armed resume snapshot, the checkpoint
// writer, and a private copy of the evaluation options. Many sessions
// evaluate the same CompiledProgram concurrently without sharing any of
// this — the query service creates one Session per in-flight query.
//
// Bind(compiled) then Run(edb): the session holds a shared_ptr that keeps
// the artifact (and its Context) alive. Run is the evaluation entry point
// that adds checkpoint, resume and the run summary on top of the free
// Evaluate (eval/evaluator.h).

#ifndef EXDL_CORE_SESSION_H_
#define EXDL_CORE_SESSION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiled_program.h"
#include "eval/evaluator.h"
#include "obs/json_writer.h"
#include "recovery/checkpoint.h"
#include "util/status.h"

namespace exdl {

namespace obs {
class Telemetry;
}  // namespace obs

/// Durable checkpointing of Run() (DESIGN.md §11). With a non-empty
/// directory the session writes `<directory>/checkpoint.exdl` atomically
/// every `every_rounds` completed fixpoint rounds; an armed resume picks
/// the latest one back up. With the directory empty (the default) no
/// checkpoint code runs anywhere.
struct CheckpointOptions {
  std::string directory;
  uint32_t every_rounds = 1;
};

/// Summary of a session's last successful evaluation — the inputs of the
/// telemetry document's top-level rows. The query service aggregates one
/// of these across all queries of a batch.
struct RunSummary {
  bool has_run = false;
  EvalStats stats;
  size_t answers = 0;
  Status termination;
  /// Bitset-kernel counters of the run (DESIGN.md §14); the one summary
  /// row that is allowed to differ between a kernel run and a generic
  /// (provenance) run of the same program. Rendered as the telemetry
  /// document's top-level "storage" object.
  RepresentationStats representation;

  /// Records `result` as the last successful evaluation.
  void Record(const EvalResult& result);
};

struct SessionOptions {
  /// Evaluation configuration, including the EvalBudget. Owned by value —
  /// sessions never contend through shared options.
  EvalOptions eval;
  /// Round-boundary checkpointing; disabled when the directory is empty.
  CheckpointOptions checkpoint;
  /// Observability sink for this session; borrowed, may be null.
  obs::Telemetry* telemetry = nullptr;
};

class Session {
 public:
  Session() = default;
  explicit Session(SessionOptions options) : options_(std::move(options)) {}

  /// Binds the session to a shared compiled artifact; the Ptr keeps it
  /// (and its Context) alive for the session's lifetime.
  void Bind(CompiledProgram::Ptr compiled) { compiled_ = std::move(compiled); }

  const SessionOptions& options() const { return options_; }

  /// Validates `snap` against the bound program and this session's eval
  /// semantics — the same CompiledProgram::Fingerprint the checkpoint
  /// writer stamps — and arms the next Run() to continue from it.
  /// kFailedPrecondition when no program is bound or on a fingerprint
  /// mismatch, kCorruptCheckpoint when the snapshot's interning tables
  /// disagree with the program's context. `origin` names the snapshot in
  /// error messages.
  Status ArmResume(recovery::Snapshot snap, std::string_view origin);

  /// Evaluates the bound program over `edb`, or — when a resume is armed —
  /// over the snapshot's database from its cursor. The resume is consumed
  /// either way: a failed resumed run must not silently turn a later
  /// Run() into another resume attempt. A fresh run evaluates over `edb`
  /// plus the program's seed fact (CompiledProgram::magic_seed), if any.
  Result<EvalResult> Run(const Database& edb);

  /// Summary of the last successful Run().
  const RunSummary& summary() const { return summary_; }

  /// Renders the telemetry document of DESIGN.md §10 for this session: the
  /// run summary, the bound program's optimizer report and per-rule rows,
  /// and the session's sink. Valid before any Run() (a compile-only
  /// document) and with telemetry off (empty metrics and spans).
  std::string TelemetryJson(std::string_view command,
                            std::string_view source) const;

 private:
  SessionOptions options_;
  CompiledProgram::Ptr compiled_;
  std::unique_ptr<recovery::Checkpointer> checkpointer_;
  /// Snapshot armed by ArmResume(), consumed by the next Run().
  std::optional<recovery::Snapshot> resume_;
  RunSummary summary_;
};

/// Renders the stable machine-readable telemetry document of DESIGN.md
/// §10 from its parts: the run summary, per-rule texts, the optimizer
/// report, and the (nullable) telemetry sink. Session::TelemetryJson and
/// QueryService::MetricsJson are both thin wrappers over this — one
/// renderer, one schema. When `extra` is set it is invoked right before
/// the document closes to append producer-specific keys (the service's
/// "service" object); the schema validator accepts unknown keys.
std::string RenderTelemetryDoc(
    std::string_view command, std::string_view source, const RunSummary& run,
    const std::vector<std::string>& rule_texts, bool optimized,
    const OptimizationReport& report, const Status& optimize_termination,
    const obs::Telemetry* telemetry,
    const std::function<void(obs::JsonWriter&)>& extra = {});

}  // namespace exdl

#endif  // EXDL_CORE_SESSION_H_
