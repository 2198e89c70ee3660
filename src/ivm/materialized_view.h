// MaterializedView — one standing query's maintained fixpoint (DESIGN.md
// §16).
//
// The view holds the EDB ∪ IDB database of its last evaluation, but owns
// only the relations its evaluation writes (CompiledProgram::RoleOf): for
// every other predicate it holds the published snapshot's relation, and a
// generation swaps in the next snapshot's in O(1) instead of copying the
// EDB. Each generation's new facts — appended private rows and adopted
// published suffixes alike — are re-derived from through the evaluator's
// semi-naive watermark machinery (the Watermarks captured before the
// append, passed as the EvalOptions::resume cursor), so a generation costs
// O(changed facts and their consequences), not O(database).
// Insertions over a negation-free semi-naive program are monotone, and
// ExtractAnswers sorts + dedups, so answers are byte-identical to a cold
// run. Programs outside that fragment (see Fallback) recompute every
// generation, counted in ivm.full_recomputes.

#ifndef EXDL_IVM_MATERIALIZED_VIEW_H_
#define EXDL_IVM_MATERIALIZED_VIEW_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "ast/atom.h"
#include "core/compiled_program.h"
#include "eval/evaluator.h"
#include "ivm/support_ledger.h"
#include "util/status.h"

namespace exdl::ivm {

/// Cumulative maintenance counters of one view; QueryService aggregates
/// them into the telemetry document's "ivm" object.
struct IvmStats {
  uint64_t generations_applied = 0;  ///< Apply()/Reseed() calls absorbed.
  uint64_t delta_rounds = 0;      ///< Semi-naive rounds run incrementally.
  uint64_t full_recomputes = 0;   ///< Generations that re-ran the fixpoint.
  uint64_t tuples_rederived = 0;  ///< Tuples inserted by maintenance runs.
  uint64_t facts_absorbed = 0;    ///< New EDB rows appended by Apply().

  IvmStats& operator+=(const IvmStats& o) {
    generations_applied += o.generations_applied;
    delta_rounds += o.delta_rounds;
    full_recomputes += o.full_recomputes;
    tuples_rederived += o.tuples_rederived;
    facts_absorbed += o.facts_absorbed;
    return *this;
  }
};

/// Why a program cannot take the incremental path (kNone = it can).
/// Classified once from the compiled program and evaluation options.
enum class Fallback {
  kNone,
  kNegation,         ///< Stratified negation: inserts are not monotone.
  kNaive,            ///< Naive mode has no delta watermarks to re-enter.
  kGroundQueryStop,  ///< Early-stopped fixpoint is not a materialization.
  kProvenance,       ///< Provenance rows would go stale across resumes.
};

std::string_view FallbackName(Fallback f);

class MaterializedView {
 public:
  /// Seeds a view from a finished full evaluation: `result` must be the
  /// EvalResult of evaluating `program` over generation `generation`'s
  /// EDB (plus the program's own ground facts), with ok termination; its
  /// published relations are then that snapshot's own (CoW copies).
  /// `support` is the ledger that observed that evaluation. Fallback
  /// views keep none (they recompute every generation, so nothing could
  /// read their counts); one passed for them is dropped.
  MaterializedView(CompiledProgram::Ptr program, EvalOptions eval,
                   EvalResult result, uint64_t generation,
                   std::unique_ptr<SupportLedger> support);

  /// Absorbs one generation of new facts. `edb_snapshot` is the
  /// just-published generation's database, which already contains them
  /// and extends, relation by relation in row order, the snapshot the
  /// view last absorbed. Published predicates' relations are taken from it;
  /// facts of private predicates are appended to the view's own relations
  /// (duplicates dedup to no-ops); facts of the compile's own predicates
  /// are ignored. Then the view re-derives incrementally from the delta
  /// suffixes when the program allows it; fallback programs Reseed from
  /// `edb_snapshot` instead. `generation` must be > generation(); loads
  /// the view already absorbed are skipped by the caller.
  Status Apply(std::span<const Atom> facts, uint64_t generation,
               const Database& edb_snapshot);

  /// Rebuilds the view from scratch over `edb` (the current snapshot's
  /// database) as a cold session would, switching to `program` when set.
  /// Used when the view missed a generation or changes artifact, and by
  /// every generation of a fallback program — a full recompute.
  Status Reseed(const Database& edb, uint64_t generation,
                CompiledProgram::Ptr program = nullptr);

  /// The maintained result: db is EDB ∪ IDB, answers are the query's
  /// sorted, deduplicated rows — byte-identical (via RenderAnswerRows) to
  /// a cold evaluation of the same generation.
  const EvalResult& result() const { return result_; }
  const CompiledProgram::Ptr& program() const { return program_; }
  uint64_t generation() const { return generation_; }
  const IvmStats& stats() const { return stats_; }
  Fallback fallback() const { return fallback_; }
  /// True when the most recent Apply() took the incremental path
  /// (trivially true before the first Apply — the seed is not a
  /// recompute).
  bool last_was_incremental() const { return last_incremental_; }
  /// The view's support counts; null for fallback views.
  const SupportLedger* support() const { return support_.get(); }
  /// Relation::storage_bytes summed over the relations the view owns (the
  /// non-published roles); published relations are the snapshot's.
  size_t private_bytes() const;

  /// Classifies whether (program, eval) can be maintained incrementally.
  static Fallback Classify(const Program& program, const EvalOptions& eval);

 private:
  CompiledProgram::Ptr program_;
  EvalOptions eval_;  ///< Budget-free maintenance options (no resume set).
  Fallback fallback_ = Fallback::kNone;
  EvalResult result_;  ///< result_.db is the maintained EDB ∪ IDB.
  uint64_t generation_ = 0;
  IvmStats stats_;
  bool last_incremental_ = true;
  std::unique_ptr<SupportLedger> support_;
};

}  // namespace exdl::ivm

#endif  // EXDL_IVM_MATERIALIZED_VIEW_H_
