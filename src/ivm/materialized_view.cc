#include "ivm/materialized_view.h"

#include <cassert>
#include <optional>
#include <utility>

#include "core/session.h"

namespace exdl::ivm {

std::string_view FallbackName(Fallback f) {
  switch (f) {
    case Fallback::kNone:
      return "none";
    case Fallback::kNegation:
      return "negation";
    case Fallback::kNaive:
      return "naive";
    case Fallback::kGroundQueryStop:
      return "ground_query_stop";
    case Fallback::kProvenance:
      return "provenance";
  }
  return "unknown";
}

Fallback MaterializedView::Classify(const Program& program,
                                    const EvalOptions& eval) {
  if (program.HasNegation()) return Fallback::kNegation;
  if (!eval.seminaive) return Fallback::kNaive;
  if (eval.stop_on_ground_query) return Fallback::kGroundQueryStop;
  if (eval.record_provenance) return Fallback::kProvenance;
  return Fallback::kNone;
}

MaterializedView::MaterializedView(CompiledProgram::Ptr program,
                                   EvalOptions eval, EvalResult result,
                                   uint64_t generation,
                                   std::unique_ptr<SupportLedger> support)
    : program_(std::move(program)),
      eval_(std::move(eval)),
      result_(std::move(result)),
      generation_(generation),
      support_(std::move(support)) {
  fallback_ = Classify(program_->program(), eval_);
  if (fallback_ != Fallback::kNone) support_.reset();
  // Maintenance runs are ungoverned and unobserved: a budget trip or a
  // checkpoint mid-maintenance would leave a partial view behind the
  // published generation, which is strictly worse than slow maintenance.
  // The seeding evaluation already paid the governed cost.
  eval_.budget = EvalBudget();
  eval_.telemetry = nullptr;
  eval_.checkpoint_sink = nullptr;
  eval_.resume = nullptr;
  eval_.support_sink = nullptr;
  eval_.skip_answers = false;  // Reseed needs the full extraction.
}

Status MaterializedView::Apply(std::span<const Atom> facts,
                               uint64_t generation,
                               const Database& edb_snapshot) {
  if (fallback_ != Fallback::kNone) {
    // The snapshot already contains this generation's facts; re-running
    // the fixpoint over it is the only sound maintenance for these
    // programs (e.g. inserts are not monotone under negation).
    return Reseed(edb_snapshot, generation);
  }

  // One watermark capture before anything is appended or adopted: the
  // suffix past each mark is this generation's delta. It counts the
  // absorbed facts (re-sent facts dedup to no-ops and leave no suffix
  // behind; a predicate first loaded now is unlisted, so all of its rows
  // are new), it is the re-entry cursor, and the query relation's suffix
  // past its mark holds the only possible new answers — the query
  // predicate may itself be an EDB relation, so new facts can already be
  // new answers.
  EvalCursor cursor;  // Stratum 0: the program is negation-free.
  cursor.delta = Watermarks::Capture(result_.db);
  for (const Atom& fact : facts) {
    switch (program_->RoleOf(fact.pred)) {
      case EdbRole::kPublished: {
        // The published relation extends the one the view holds in row
        // order (each generation clones the last and appends), so taking
        // it leaves exactly this generation's rows past the mark, in O(1).
        const Relation* published = edb_snapshot.Find(fact.pred);
        if (published == nullptr) {
          return Status::InvalidArgument(
              "Apply: the snapshot lacks a loaded predicate");
        }
        Relation& mine = result_.db.GetOrCreate(fact.pred, published->arity());
        if (!mine.SharesStorageWith(*published)) {
          assert(published->size() >= mine.size());
          mine = *published;
        }
        break;
      }
      case EdbRole::kPrivate:
        EXDL_RETURN_IF_ERROR(result_.db.AddFact(fact));
        break;
      case EdbRole::kDropped:  // The compile's own names start empty.
        break;
    }
  }
  const uint64_t absorbed = cursor.delta.RowsSince(result_.db);
  stats_.facts_absorbed += absorbed;
  ++stats_.generations_applied;
  generation_ = generation;
  if (absorbed == 0) {
    // Every fact was already present: the maintained fixpoint is already
    // the fixpoint of this generation.
    last_incremental_ = true;
    return Status::Ok();
  }

  // Re-enter the semi-naive delta loop on the maintained database: the
  // grown EDB predicates are behind their marks, so they read deltas
  // (round 0 never re-fires — see DESIGN.md §16).
  EvalOptions options = eval_;
  options.resume = &cursor;
  options.support_sink = support_.get();
  options.skip_answers = true;
  AnswerRows prior_answers = std::move(result_.answers);
  const bool prior_ground = result_.ground_query_true;
  // Move the maintained database into the evaluation: it is uniquely
  // owned, so the delta run appends in place with no copy-on-write
  // detach — O(delta), not O(database). On failure the database (and the
  // moved-out answers) are gone; the service records the view unhealthy
  // and the next generation Reseeds from the published snapshot, which
  // does not need the old state.
  Result<EvalResult> rederived =
      Evaluate(program_->program(), std::move(result_.db), options);
  if (!rederived.ok()) return rederived.status();
  if (!rederived->termination.ok()) return rederived->termination;
  stats_.delta_rounds += rederived->stats.rounds;
  stats_.tuples_rederived += rederived->stats.tuples_inserted;
  const std::optional<Atom>& query = program_->program().query();
  if (query) {
    // Merge the delta suffix's sorted answers into the previous sorted
    // set, so answer maintenance is O(delta + answers), never an
    // O(relation) re-extraction. Insertions are monotone, so prior
    // answers never disappear.
    rederived->answers = AnswerRows::Union(
        std::move(prior_answers),
        ExtractAnswers(*query, rederived->db, cursor.delta.Of(query->pred)));
    if (query->IsGround()) {
      rederived->ground_query_true =
          prior_ground || !rederived->answers.empty();
    }
  }
  last_incremental_ = true;
  result_ = std::move(*rederived);
  return Status::Ok();
}

size_t MaterializedView::private_bytes() const {
  size_t bytes = 0;
  for (const auto& [pred, rel] : result_.db.relations()) {
    if (program_->RoleOf(pred) != EdbRole::kPublished) {
      bytes += rel.storage_bytes();
    }
  }
  return bytes;
}

Status MaterializedView::Reseed(const Database& edb, uint64_t generation,
                               CompiledProgram::Ptr program) {
  if (program == nullptr) program = program_;
  const Fallback fallback = Classify(program->program(), eval_);
  // Through a Session, like the seeding run: Session::Run adds the seed.
  SessionOptions session_options;
  session_options.eval = eval_;
  std::unique_ptr<SupportLedger> ledger;
  if (fallback == Fallback::kNone) ledger = std::make_unique<SupportLedger>();
  session_options.eval.support_sink = ledger.get();
  Session session(std::move(session_options));
  session.Bind(program);
  Result<EvalResult> recomputed = session.Run(program->SessionEdb(edb));
  if (!recomputed.ok()) return recomputed.status();
  if (!recomputed->termination.ok()) return recomputed->termination;
  ++stats_.generations_applied;
  ++stats_.full_recomputes;
  stats_.tuples_rederived += recomputed->stats.tuples_inserted;
  program_ = std::move(program);
  fallback_ = fallback;
  support_ = std::move(ledger);
  last_incremental_ = false;
  generation_ = generation;
  result_ = std::move(*recomputed);
  return Status::Ok();
}

}  // namespace exdl::ivm
