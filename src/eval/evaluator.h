// Bottom-up fixpoint evaluation (Section 1.1's model of execution).
//
// Evaluation is serial: every rule variant runs on the calling thread, in
// a fixed order, so relations, row order, answers and counters are a
// function of the program, the input and the options. Queries run in
// parallel with each other (QueryService's workers), never within one.
//
// Two engines share one executor:
//   * semi-naive (default): per-round deltas; a rule variant reads the
//     delta at one body literal and the pre-round contents elsewhere;
//   * naive: every rule re-fires over full relations each round (the
//     baseline the paper's duplicate-cost remarks are measured against).
//
// Runtime existential optimizations from Section 3.1:
//   * boolean cut — once a 0-ary derived predicate holds, the rules
//     defining it are retired from the fixpoint ("a rule defining a boolean
//     variable can be removed from the computation once the variable
//     becomes true");
//   * ground-query stop — if the query atom is ground, evaluation may stop
//     as soon as it is derived (opt-in; changes stats, not answers).

#ifndef EXDL_EVAL_EVALUATOR_H_
#define EXDL_EVAL_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/program.h"
#include "eval/answer_rows.h"
#include "eval/plan.h"
#include "storage/database.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace exdl {

namespace obs {
class Telemetry;
}  // namespace obs

/// Which EvalBudget limit stopped an evaluation early.
enum class BudgetKind : uint8_t {
  kNone = 0,
  kDeadline,          ///< deadline_ms expired.
  kTuples,            ///< max_tuples exceeded.
  kArenaBytes,        ///< max_arena_bytes exceeded.
  kRoundDerivations,  ///< max_derivations_per_round exceeded.
  kCancelled,         ///< the CancellationToken was raised.
};

/// Short stable name ("deadline", "tuples", ...); "none" for kNone.
std::string_view BudgetKindName(BudgetKind kind);

/// Run-time resource budget, enforced cooperatively: at round boundaries
/// and, within a round, every 1024 rows. All limits are 0 (= unlimited)
/// by default.
///
/// Exceeding a budget does not tear down state: evaluation stops at a
/// round boundary (a partially derived round is discarded), Evaluate
/// returns OK, and EvalResult::termination carries the structured error
/// (kDeadlineExceeded / kResourceExhausted / kCancelled) while db/answers/
/// stats describe the consistent prefix computed so far — every returned
/// tuple is derivable. When no limit trips, results are byte-identical to
/// an ungoverned run (the checks are read-only).
struct EvalBudget {
  /// Wall-clock deadline measured from entry to Evaluate(), milliseconds.
  uint64_t deadline_ms = 0;
  /// Cap on total stored tuples (input + derived) across all relations.
  uint64_t max_tuples = 0;
  /// Cap on total tuple-arena payload bytes (Database::TotalArenaBytes).
  uint64_t max_arena_bytes = 0;
  /// Cap on head tuples buffered within one fixpoint round (pre-dedup);
  /// guards a single exploding cross product between round boundaries.
  uint64_t max_derivations_per_round = 0;
  /// External cancellation (e.g. the CLI's SIGINT token). Not owned; must
  /// outlive the evaluation.
  const CancellationToken* cancellation = nullptr;

  /// True if any limit or token is set (evaluation runs governed).
  bool any() const {
    return deadline_ms != 0 || max_tuples != 0 || max_arena_bytes != 0 ||
           max_derivations_per_round != 0 || cancellation != nullptr;
  }

  // The two canonical constructors, and the ONLY supported budget-source
  // paths — exdlc, bench_util, and the query service all resolve budgets
  // through this single FromEnv call site. Precedence, highest first:
  //
  //   | source                                 | via                      |
  //   |----------------------------------------|--------------------------|
  //   | 1. explicit flags (--deadline-ms, ...) | FromFlags                |
  //   | 2. programmatic fields already set     | the budget FromEnv gets  |
  //   | 3. EXDL_BUDGET_* environment           | FromEnv (zero fields)    |
  //
  // So `EvalBudget::FromEnv(EvalBudget::FromFlags(...))` composes all
  // sources. Callers should not read EXDL_* variables themselves.

  /// Budget from explicit limits (0 = unlimited, as with the raw fields).
  static EvalBudget FromFlags(uint64_t deadline_ms, uint64_t max_tuples,
                              uint64_t max_arena_bytes,
                              const CancellationToken* cancellation = nullptr);

  /// Fills every still-zero limit of `base` from the environment:
  /// EXDL_BUDGET_DEADLINE_MS, EXDL_BUDGET_MAX_TUPLES,
  /// EXDL_BUDGET_MAX_ARENA_BYTES. Unparsable values read as 0 (unlimited).
  static EvalBudget FromEnv(EvalBudget base);
};

/// Work counters. The paper's "duplicate elimination cost" is
/// `duplicate_inserts`; total facts produced is `rule_firings`.
struct EvalStats {
  uint64_t rounds = 0;
  uint64_t rule_firings = 0;       ///< Head tuples emitted (pre-dedup).
  uint64_t tuples_inserted = 0;    ///< New tuples admitted.
  uint64_t duplicate_inserts = 0;  ///< Emitted tuples that already existed.
  uint64_t index_probes = 0;       ///< Hash-index lookups.
  uint64_t rows_matched = 0;       ///< Rows enumerated from indexes/scans.
  uint64_t rules_retired = 0;      ///< Boolean-cut retirements.
  double eval_seconds = 0;         ///< Wall-clock time inside Evaluate().
  double max_round_seconds = 0;    ///< Longest single fixpoint round.
  /// Which budget stopped evaluation early (kNone after convergence).
  /// `rounds` and `tuples_inserted` then say how far evaluation got.
  BudgetKind budget_tripped = BudgetKind::kNone;

  EvalStats& operator+=(const EvalStats& o);
  std::string ToString() const;
};

/// Exact resume point of a fixpoint, captured at a round boundary (the
/// database has just been flushed; no partial round is in flight). A
/// checkpoint persists this next to the database; Evaluate with
/// EvalOptions::resume set re-enters the delta loop of `stratum` as if the
/// preceding rounds had run in this process.
struct EvalCursor {
  /// Index of the stratum the fixpoint was in (strata before it are
  /// complete; strata after it have not started).
  uint32_t stratum = 0;
  /// Cumulative counters as of the boundary; a resumed run's final stats
  /// continue from them. stats.eval_seconds is the wall-clock already
  /// spent, which a resumed run's deadline budget is charged for.
  /// budget_tripped is not persisted.
  EvalStats stats;
  /// The stratum's semi-naive watermark: rows of a predicate past its
  /// mark are the delta the next round reads (see EvalOptions::resume).
  Watermarks delta;
  /// Rule indices retired by the boolean cut, sorted ascending.
  std::vector<uint32_t> retired_rules;
};

/// Destination for round-boundary checkpoints. The evaluator calls Write
/// with a consistent state (flushed database, matching cursor); the sink
/// must persist it atomically — a failed Write aborts the evaluation with
/// the sink's error, leaving whatever the sink last wrote intact.
/// recovery::Checkpointer is the file-backed implementation.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  /// Persists one snapshot; returns the number of bytes written.
  virtual Result<uint64_t> Write(const Context& ctx, const Database& db,
                                 const EvalCursor& cursor) = 0;
};

/// Receives every head tuple the fixpoint flushes — new tuples and
/// duplicate re-derivations alike — at round boundaries, on the
/// evaluating thread. This is the substrate for counting-based
/// incremental view maintenance (DESIGN.md §16): a ledger that tallies
/// derivations per tuple can later support retraction by decrementing
/// instead of recomputing. The call sequence is deterministic and the
/// same on the kernels and the generic descent (derivations are flushed
/// in variant order). Null sink = a never-taken branch on the flush path.
class SupportSink {
 public:
  virtual ~SupportSink() = default;
  /// One derivation, new or duplicate, of the `pred` tuple at row id
  /// `row` (0 for a 0-ary tuple).
  virtual void Derived(PredId pred, uint32_t row) = 0;
  /// One re-derivation of the arity-1 tuple (value), already in `pred`.
  /// Arity-1 relations dedup through their bitset, which knows no row
  /// ids; the sink resolves them itself, at the latest in Finished.
  virtual void Rederived(PredId pred, Value value) = 0;
  /// The evaluation is over (complete or stopped by its budget); `db` is
  /// the database holding every tuple reported since the last call.
  virtual void Finished(const Database& db) = 0;
};

/// Per-evaluation (per-session) options. EvalOptions owns no shared state:
/// every pointer member (telemetry, checkpoint_sink, resume, the budget's
/// cancellation token) is borrowed from the caller, so one options value
/// can be copied per session and sessions never contend through it — the
/// query service hands each session its own copy with its own sinks.
struct EvalOptions {
  bool seminaive = true;
  bool boolean_cut = true;
  bool stop_on_ground_query = false;
  PlanOptions plan;
  /// Record one derivation (rule + child tuples) per derived tuple —
  /// the derivation trees of Section 1.1. Costs memory; see
  /// EvalResult::provenance and ExplainTuple.
  bool record_provenance = false;
  /// No effect: evaluation is serial. The field stays only because the
  /// benchmark harness (perfbench/src/harness.cc:22) still assigns it; it
  /// goes once that assignment does. Nothing else reads or writes it.
  uint32_t num_threads = 1;
  /// Resource governance (deadline, memory, cancellation); see EvalBudget.
  EvalBudget budget;
  /// Observability sink. When non-null the evaluator records trace spans
  /// ("eval > round:<n> > rule:<i>"), per-rule counters (derived,
  /// duplicates, firings, probes — labeled rule=<i>), per-round tuple
  /// growth histograms, budget-trip events, and end-of-run storage gauges.
  /// Null = every site is a never-taken branch; answers, db, and stats are
  /// byte-identical either way. Not owned.
  obs::Telemetry* telemetry = nullptr;
  /// Durable checkpointing. When non-null the evaluator hands the sink a
  /// consistent (database, cursor) pair every `checkpoint_every_rounds`
  /// completed rounds; a sink failure is a hard evaluation error (fail
  /// closed — the last successfully written checkpoint stays the durable
  /// state). Null = checkpointing is a never-taken branch. Not owned.
  CheckpointSink* checkpoint_sink = nullptr;
  uint32_t checkpoint_every_rounds = 1;
  /// Resume from a checkpoint: the input database must be the snapshot's
  /// database and `resume` its cursor. Evaluation skips the completed
  /// strata and rounds and continues the fixpoint exactly where the
  /// checkpoint was cut, producing relations and answers byte-identical to
  /// an uninterrupted run. Not owned; must outlive the evaluation.
  ///
  /// Every semi-naive round follows one rule: a positive body literal
  /// reads a delta iff its predicate is behind the stratum's watermark.
  /// The resume stratum starts from the cursor's watermark instead of
  /// firing round 0. Incremental view maintenance (DESIGN.md §16)
  /// re-enters the same way: it captures the watermark, appends new EDB
  /// facts, and passes the capture as the cursor, so the grown EDB
  /// predicates are behind and the delta loop joins the fact delta
  /// against the maintained fixpoint. (A checkpoint cursor leaves only the
  /// stratum's own heads behind: EDB and lower-stratum marks equal their
  /// sizes at the boundary.)
  const EvalCursor* resume = nullptr;
  /// Counting-support hook (see SupportSink). Not owned.
  SupportSink* support_sink = nullptr;
  /// Leave EvalResult::answers (and ground_query_true) unset instead of
  /// re-extracting them from the full query relation at the end of the
  /// run. Standing-query maintenance sets this and merges the delta
  /// suffix's answers into the previous sorted answer set itself —
  /// extraction over the whole relation would make an otherwise O(delta)
  /// maintenance run O(database).
  bool skip_answers = false;
};

/// Bitset-kernel telemetry for one evaluation (DESIGN.md §14). Kept out
/// of EvalStats on purpose: EvalStats::ToString feeds daemon stats lines
/// and checkpoints, which must stay byte-identical between the kernels
/// and the generic descent. Rendered as the optional top-level "storage"
/// object of the telemetry document.
struct RepresentationStats {
  /// Arity-1 relations (all carry a word-packed bitset) in the final
  /// database.
  uint64_t bitset_relations = 0;
  /// 64-bit words read by the batched bitset kernels.
  uint64_t words_scanned = 0;
  /// Rules that ran the generic descent because their plan is not
  /// bitset-eligible (or provenance recording forced the generic path).
  uint64_t fallbacks = 0;
  /// Outer rows emitted by projection runs: single-scan rule variants
  /// that are one column gather, not one head emission per row.
  uint64_t projection_rows = 0;

  RepresentationStats& operator+=(const RepresentationStats& o) {
    bitset_relations += o.bitset_relations;
    words_scanned += o.words_scanned;
    fallbacks += o.fallbacks;
    projection_rows += o.projection_rows;
    return *this;
  }
};

/// Reference to one stored tuple.
struct TupleRef {
  PredId pred = kInvalidId;
  uint32_t row = 0;
  bool operator==(const TupleRef&) const = default;
};
struct TupleRefHash {
  size_t operator()(const TupleRef& t) const {
    return (static_cast<size_t>(t.pred) << 32) ^ t.row;
  }
};

/// How one tuple was first derived: the rule instance and its body tuples
/// (a node of the Section 1.1 derivation tree). Input facts have
/// rule_index -1 and no children.
struct Provenance {
  int rule_index = -1;
  std::vector<TupleRef> children;
};

struct EvalResult {
  Database db;        ///< Input plus all derived tuples.
  EvalStats stats;
  /// Bitset-kernel counters (never part of the byte-identity contract;
  /// see RepresentationStats).
  RepresentationStats representation;
  /// OK after full convergence. After a budget trip: kDeadlineExceeded /
  /// kResourceExhausted / kCancelled, and db/answers/stats hold the
  /// consistent prefix as of the last completed round (see EvalBudget).
  Status termination;
  /// Bindings of the query atom's distinct variables (first-occurrence
  /// order), deduplicated and sorted. Empty when the program has no query.
  AnswerRows answers;
  /// For a ground query: whether it was derived.
  bool ground_query_true = false;
  /// One derivation per derived tuple (only with record_provenance).
  std::unordered_map<TupleRef, Provenance, TupleRefHash> provenance;
};

/// Evaluates `program` bottom-up over `input`. `input` may contain facts
/// for derived predicates (uniform semantics, Section 4); they are treated
/// as already-derived tuples.
Result<EvalResult> Evaluate(const Program& program, const Database& input,
                            const EvalOptions& options = EvalOptions());

/// Ownership-taking variant: evaluates directly on `input` (moved into
/// the result) instead of a copy-on-write clone. With a uniquely-owned
/// database this keeps inserts truly incremental — no lazy payload
/// detach copies — which is what makes standing-query maintenance
/// (DESIGN.md §16) O(delta) instead of O(database). On failure the
/// database is consumed; callers that need it back must clone first.
Result<EvalResult> Evaluate(const Program& program, Database&& input,
                            const EvalOptions& options = EvalOptions());

/// Extracts query answers from an already-computed database (exposed for
/// the equivalence testers). With `first_row`, only rows of the query
/// relation at index >= first_row are considered — the suffix extraction
/// standing-query maintenance merges into its previous answers. The
/// returned rows are sorted and deduplicated either way.
AnswerRows ExtractAnswers(const Atom& query, const Database& db,
                          size_t first_row = 0);

/// Renders the recorded derivation tree of one tuple as an indented
/// listing ("fact <- rule: child, child ..."). Requires the evaluation to
/// have run with record_provenance; tuples without provenance render as
/// input facts.
Result<std::string> ExplainTuple(const Program& program,
                                 const EvalResult& result,
                                 const TupleRef& tuple);

/// Convenience: explains the first stored tuple of `pred` matching `row`
/// values exactly; NotFound when absent.
Result<std::string> ExplainFact(const Program& program,
                                const EvalResult& result, PredId pred,
                                std::span<const Value> row);

}  // namespace exdl

#endif  // EXDL_EVAL_EVALUATOR_H_
