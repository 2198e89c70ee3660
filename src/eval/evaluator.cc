#include "eval/evaluator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/stratification.h"
#include "obs/telemetry.h"
#include "recovery/fault.h"

namespace exdl {

namespace {

std::string FormatMillis(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}

}  // namespace

std::string_view BudgetKindName(BudgetKind kind) {
  switch (kind) {
    case BudgetKind::kNone: return "none";
    case BudgetKind::kDeadline: return "deadline";
    case BudgetKind::kTuples: return "tuples";
    case BudgetKind::kArenaBytes: return "arena_bytes";
    case BudgetKind::kRoundDerivations: return "round_derivations";
    case BudgetKind::kCancelled: return "cancelled";
  }
  return "?";
}

EvalBudget EvalBudget::FromFlags(uint64_t deadline_ms, uint64_t max_tuples,
                                 uint64_t max_arena_bytes,
                                 const CancellationToken* cancellation) {
  EvalBudget b;
  b.deadline_ms = deadline_ms;
  b.max_tuples = max_tuples;
  b.max_arena_bytes = max_arena_bytes;
  b.cancellation = cancellation;
  return b;
}

EvalBudget EvalBudget::FromEnv(EvalBudget base) {
  auto env_u64 = [](const char* name) -> uint64_t {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return 0;
    return std::strtoull(v, nullptr, 10);
  };
  if (base.deadline_ms == 0) {
    base.deadline_ms = env_u64("EXDL_BUDGET_DEADLINE_MS");
  }
  if (base.max_tuples == 0) {
    base.max_tuples = env_u64("EXDL_BUDGET_MAX_TUPLES");
  }
  if (base.max_arena_bytes == 0) {
    base.max_arena_bytes = env_u64("EXDL_BUDGET_MAX_ARENA_BYTES");
  }
  return base;
}

EvalStats& EvalStats::operator+=(const EvalStats& o) {
  rounds += o.rounds;
  rule_firings += o.rule_firings;
  tuples_inserted += o.tuples_inserted;
  duplicate_inserts += o.duplicate_inserts;
  index_probes += o.index_probes;
  rows_matched += o.rows_matched;
  rules_retired += o.rules_retired;
  eval_seconds += o.eval_seconds;
  max_round_seconds = std::max(max_round_seconds, o.max_round_seconds);
  if (o.budget_tripped != BudgetKind::kNone) budget_tripped = o.budget_tripped;
  return *this;
}

std::string EvalStats::ToString() const {
  std::string out;
  out += "rounds=" + std::to_string(rounds);
  out += " firings=" + std::to_string(rule_firings);
  out += " inserted=" + std::to_string(tuples_inserted);
  out += " duplicates=" + std::to_string(duplicate_inserts);
  out += " probes=" + std::to_string(index_probes);
  out += " rows=" + std::to_string(rows_matched);
  out += " retired=" + std::to_string(rules_retired);
  out += " eval_ms=" + FormatMillis(eval_seconds);
  out += " max_round_ms=" + FormatMillis(max_round_seconds);
  if (budget_tripped != BudgetKind::kNone) {
    out += " budget_tripped=";
    out += BudgetKindName(budget_tripped);
  }
  return out;
}

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RowRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool empty() const { return lo >= hi; }
};

/// A buffered derivation: head tuple awaiting end-of-round flush (so that
/// index row-id lists are never mutated while being iterated). The tuple's
/// values live in the owning buffer's flat value arena — emitting a fact
/// allocates nothing beyond amortized vector growth.
struct PendingFact {
  PredId pred;
  size_t begin;     ///< Offset of the first tuple in the owner's value arena.
  uint32_t len;     ///< Tuple arity.
  uint32_t rule;    ///< Firing rule index (telemetry attribution at flush).
  /// Number of consecutive tuples (stride `len`) this entry covers. The
  /// bitset kernels emit all of a variant's derivations with one pred /
  /// len / rule and no provenance, so they extend one run instead of
  /// buffering a fact per derivation; the generic descent always uses 1.
  uint32_t count = 1;
  Provenance prov;  ///< Only filled when recording provenance.
};

/// Key view over a literal's index columns resolved against a register
/// file (see HashKeyView): constants come from the plan, the rest from
/// `regs`. Lets index probes and anti-join membership tests hash directly
/// from the evaluator's registers with no key materialization.
struct RegKey {
  const LiteralStep* step;
  const Value* regs;
  size_t size() const { return step->index_columns.size(); }
  Value operator[](size_t i) const {
    const ArgSpec& a = step->args[step->index_columns[i]];
    return a.kind == ArgSpec::Kind::kConst ? a.const_value : regs[a.reg];
  }
};

/// Key view over an all-constant argument list (single-tuple heads).
struct ConstArgsKey {
  const std::vector<ArgSpec>* args;
  size_t size() const { return args->size(); }
  Value operator[](size_t i) const { return (*args)[i].const_value; }
};

/// The state one rule variant's execution writes: registers, the
/// provenance spine, counters, and the derivations buffered for the
/// round's flush. One per evaluation, reused by every variant.
struct DescentState {
  std::vector<Value> regs;
  std::vector<char> reg_set;
  std::vector<TupleRef> path;  ///< Provenance spine.
  EvalStats stats;
  std::vector<PendingFact> buffer;
  std::vector<Value> values;  ///< Flat arena backing buffer's tuples.
  /// Rows processed since the last cooperative budget check (governed
  /// evaluation only; see Engine::kBudgetCheckStride).
  uint32_t rows_since_check = 0;
  /// Index into `buffer` of the kernel emission run currently being
  /// extended, or SIZE_MAX when none is open (see PendingFact::count).
  size_t open_run = static_cast<size_t>(-1);
  /// 64-bit words read by the bitset kernels in the current variant
  /// (storage.representation.words_scanned once drained).
  uint64_t words_scanned = 0;
  /// Outer rows the current variant emitted through a projection run
  /// (storage.representation.projection_rows once drained).
  uint64_t projection_rows = 0;
  /// Bitset-kernel scratch: the surviving-values mask of the current
  /// all-unary variant (reused across variants; sized to the outer
  /// relation's bitset).
  std::vector<uint64_t> mask;
};

/// One pre-resolved unary membership test of a bitset-kernel variant:
/// which bitset to test, with what key, positive or anti-join. `active`
/// is false for negated steps over absent/empty relations (the test
/// passes for every row and counts no probe, matching the generic path).
struct BitProbe {
  const UnaryBitset* bits = nullptr;
  bool negated = false;
  bool active = true;
  bool const_key = false;
  Value key_const = 0;
  uint32_t key_reg = 0;
};

/// Begin-on-construct / end-on-destruct trace span that collapses to two
/// null checks when telemetry is off.
struct SpanGuard {
  SpanGuard(obs::Telemetry* t, std::string name) {
    if (t != nullptr) {
      trace = &t->trace();
      id = trace->Begin(std::move(name));
    }
  }
  ~SpanGuard() {
    if (trace != nullptr) trace->End(id);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  obs::Trace* trace = nullptr;
  obs::SpanId id = obs::kDroppedSpan;
};

class Engine {
 public:
  Engine(const Program& program, const EvalOptions& options)
      : program_(program), options_(options) {}

  Result<EvalResult> Run(const Database& input) { return RunOwned(input.Clone()); }

  /// Evaluates on `input` itself (by value: the caller either moved it in
  /// or paid for the Clone in Run above). Keeping the worked-on database
  /// uniquely owned means inserts never trigger a copy-on-write payload
  /// detach — the property standing-query maintenance depends on.
  Result<EvalResult> RunOwned(Database input) {
    eval_begin_ = Clock::now();
    EXDL_RETURN_IF_ERROR(Compile());
    SetupObs();
    SpanGuard eval_span(obs_.t, "eval");
    EvalResult result;
    result.db = std::move(input);
    db_ = &result.db;

    governed_ = options_.budget.any();
    if (options_.budget.deadline_ms != 0) {
      deadline_ = eval_begin_ +
                  std::chrono::milliseconds(options_.budget.deadline_ms);
    }

    // Stratify when negation is present; otherwise one stratum.
    std::vector<std::vector<size_t>> strata;
    if (program_.HasNegation()) {
      EXDL_ASSIGN_OR_RETURN(Stratification st, Stratify(program_));
      strata.resize(static_cast<size_t>(st.num_strata));
      for (size_t i = 0; i < rules_.size(); ++i) {
        strata[static_cast<size_t>(
                   st.StratumOf(rules_[i].plan.head_pred))]
            .push_back(i);
      }
    } else {
      strata.emplace_back();
      for (size_t i = 0; i < rules_.size(); ++i) strata[0].push_back(i);
    }

    // Make sure head relations exist so sizes/deltas are well defined.
    for (const CompiledRule& cr : rules_) {
      db_->GetOrCreate(cr.plan.head_pred,
                       static_cast<uint32_t>(cr.plan.head_args.size()));
    }
    // Size snapshot, maintained incrementally by Flush from here on.
    sizes_ = Watermarks::Capture(*db_);
    total_tuples_ = 0;
    arena_bytes_ = 0;
    for (const auto& [pred, rel] : db_->relations()) {
      total_tuples_ += rel.size();
      arena_bytes_ += rel.arena_bytes();
    }
    // A resume picks the fixpoint up at the checkpointed stratum's round
    // boundary: completed strata are skipped entirely, counters/retired
    // rules/deadline credit are restored, and the resume stratum re-enters
    // its delta loop with the snapshot's watermarks.
    size_t first_stratum = 0;
    if (options_.resume != nullptr) {
      EXDL_RETURN_IF_ERROR(RestoreCursor(strata.size()));
      first_stratum = options_.resume->stratum;
    }

    // The input alone may already bust a budget (or the token may be
    // pre-cancelled): stop before deriving anything.
    if (governed_) CheckRoundBudgets();

    bool stop = false;
    for (size_t si = first_stratum; si < strata.size(); ++si) {
      if (stop || Tripped()) break;
      EXDL_RETURN_IF_ERROR(RunFixpoint(si, strata[si], &stop));
    }

    if (options_.support_sink != nullptr) options_.support_sink->Finished(*db_);

    stats_.eval_seconds = resumed_seconds_ + SecondsSince(eval_begin_);
    if (Tripped()) {
      stats_.budget_tripped = trip_;
      result.termination = TripStatus(trip_);
      if (obs_.t != nullptr) {
        obs_.t->trace().Event(std::string("event:budget_trip:") +
                              std::string(BudgetKindName(trip_)));
        obs_.m->Add(obs_.trip_counters[static_cast<size_t>(trip_)], 1);
      }
    }
    for (const auto& [pred, rel] : db_->relations()) {
      if (rel.arity() == 1) ++rep_stats_.bitset_relations;
    }
    if (obs_.t != nullptr) {
      obs_.m->Set(obs_.tuples_gauge, static_cast<double>(db_->TotalTuples()));
      obs_.m->Set(obs_.arena_bytes_gauge,
                  static_cast<double>(db_->TotalArenaBytes()));
      obs_.m->Set(obs_.rehashes_gauge,
                  static_cast<double>(db_->TotalRehashes()));
      obs_.m->Set(obs_.rep_bitset_relations_gauge,
                  static_cast<double>(rep_stats_.bitset_relations));
      obs_.m->Add(obs_.rep_words_scanned,
                  static_cast<double>(rep_stats_.words_scanned));
      obs_.m->Add(obs_.rep_fallbacks,
                  static_cast<double>(rep_stats_.fallbacks));
      obs_.m->Add(obs_.rep_projection_rows,
                  static_cast<double>(rep_stats_.projection_rows));
    }
    result.stats = stats_;
    result.representation = rep_stats_;
    result.provenance = std::move(provenance_);
    if (program_.query() && !options_.skip_answers) {
      result.answers = ExtractAnswers(*program_.query(), result.db);
      if (program_.query()->IsGround()) {
        result.ground_query_true = !result.answers.empty() || GroundQueryIn();
      }
    }
    return result;
  }

 private:
  /// Semi-naive (or naive) fixpoint over one stratum's rules. Relations of
  /// lower strata are fixed; only this stratum's head predicates grow.
  ///
  /// `delta` is the stratum's watermark: the rows of a predicate between
  /// delta.Of(pred) and sizes_.Of(pred) are new since the last round
  /// boundary. One rule decides every delta read (DESIGN.md §16): a
  /// positive body literal reads a delta iff its predicate is behind its
  /// watermark. A cold stratum fires round 0 and starts the watermark at
  /// the pre-round sizes, so only this stratum's heads can fall behind; a
  /// resumed stratum starts from the cursor's watermark, under which IVM
  /// re-entry leaves the appended EDB suffixes behind as well.
  Status RunFixpoint(size_t stratum_index,
                     const std::vector<size_t>& rule_indices, bool* stop) {
    Watermarks delta;
    auto behind = [&](PredId p) { return delta.Of(p) < sizes_.Of(p); };
    // Naive mode's own refire test: after round 0 a rule fires again over
    // full relations iff it reads one of this stratum's heads (the others
    // can derive nothing new).
    std::vector<char> refire;
    if (!options_.seminaive) {
      std::vector<PredId> heads;
      for (size_t i : rule_indices) heads.push_back(rules_[i].plan.head_pred);
      refire.assign(rule_indices.size(), 0);
      for (size_t k = 0; k < rule_indices.size(); ++k) {
        for (const LiteralStep& step : rules_[rule_indices[k]].plan.steps) {
          if (std::find(heads.begin(), heads.end(), step.pred) !=
              heads.end()) {
            refire[k] = 1;
          }
        }
      }
    }

    Clock::time_point round_begin;
    if (options_.resume != nullptr &&
        stratum_index == options_.resume->stratum) {
      // The checkpoint was cut at a completed round boundary of this
      // stratum (round 0 included): skip straight to the delta loop.
      delta = options_.resume->delta;
    } else {
      // Round 0: fire every rule of the stratum over the full database.
      // sizes_ only changes at FinishRound's flush, so within a round it
      // IS the pre-round snapshot — variants read it directly, no copy.
      round_begin = Clock::now();
      round_derivations_ = 0;
      delta = sizes_;
      {
        SpanGuard round_span(
            obs_.t, obs_.t != nullptr
                        ? "round:" + std::to_string(stats_.rounds)
                        : std::string());
        for (size_t i : rule_indices) FireVariant(rules_[i]);
        if (Tripped()) {
          DiscardRound();
          return Status::Ok();
        }
        FinishRound(round_begin, round_span.id);
      }
      if (!injected_.ok()) return injected_;
      EXDL_RETURN_IF_ERROR(MaybeCheckpoint(stratum_index, delta));
      if (governed_ && CheckRoundBudgets()) return Status::Ok();
    }

    *stop = ShouldStopOnGroundQuery();
    while (!*stop) {
      // Converged when no live rule has a non-empty delta to consume. A
      // predicate can grow without any rule reading it (e.g. the query
      // head); firing a round for it would flush nothing — semi-naive
      // skips that empty trailing round, naive must keep refiring until
      // nothing grows at all.
      bool any_delta = false;
      if (options_.seminaive) {
        for (size_t k = 0; k < rule_indices.size() && !any_delta; ++k) {
          const CompiledRule& cr = rules_[rule_indices[k]];
          if (retired_.count(cr.rule_index) > 0) continue;
          for (const LiteralStep& step : cr.plan.steps) {
            if (!step.negated && behind(step.pred)) {
              any_delta = true;
              break;
            }
          }
        }
      } else {
        for (const auto& [pred, size] : sizes_.entries()) {
          if (delta.Of(pred) < size) {
            any_delta = true;
            break;
          }
        }
      }
      if (!any_delta) break;
      round_begin = Clock::now();
      round_derivations_ = 0;
      {
        SpanGuard round_span(
            obs_.t, obs_.t != nullptr
                        ? "round:" + std::to_string(stats_.rounds)
                        : std::string());
        for (size_t k = 0; k < rule_indices.size(); ++k) {
          CompiledRule& cr = rules_[rule_indices[k]];
          if (retired_.count(cr.rule_index) > 0) continue;
          if (options_.seminaive) {
            // One variant per positive body literal behind its watermark,
            // in step order: that literal reads its delta, the others the
            // pre-round database.
            for (size_t s = 0; s < cr.plan.steps.size(); ++s) {
              const LiteralStep& step = cr.plan.steps[s];
              if (step.negated || !behind(step.pred)) continue;
              FireVariant(cr, s, delta.Of(step.pred));
            }
          } else if (refire[k]) {
            FireVariant(cr);
          }
        }
        if (Tripped()) {
          // Mid-round trip: drop the partial round so the database stays at
          // the last round boundary (a consistent prefix of the fixpoint).
          DiscardRound();
          return Status::Ok();
        }
        // Advance the watermark to the pre-flush sizes before FinishRound
        // mutates sizes_.
        delta = sizes_;
        FinishRound(round_begin, round_span.id);
      }
      if (!injected_.ok()) return injected_;
      EXDL_RETURN_IF_ERROR(MaybeCheckpoint(stratum_index, delta));
      if (governed_ && CheckRoundBudgets()) return Status::Ok();
      *stop = ShouldStopOnGroundQuery();
    }
    return Status::Ok();
  }

  /// Validates and installs the resume cursor: restores counters, retired
  /// rules, and charges already-spent wall-clock against the deadline
  /// budget. Called after Compile, before any stratum runs.
  Status RestoreCursor(size_t num_strata) {
    const EvalCursor& c = *options_.resume;
    if (c.stratum >= num_strata) {
      return Status::InvalidArgument(
          "resume cursor stratum out of range for this program");
    }
    for (uint32_t r : c.retired_rules) {
      if (r >= rules_.size()) {
        return Status::InvalidArgument("resume cursor retires unknown rule");
      }
      retired_.insert(r);
    }
    stats_ = c.stats;
    resumed_seconds_ = c.stats.eval_seconds;
    if (options_.budget.deadline_ms != 0) {
      // The deadline budget is for the whole logical evaluation, not this
      // process: shift it back by the time the checkpointed run spent.
      deadline_ -= std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(resumed_seconds_));
    }
    return Status::Ok();
  }

  /// Hands the sink a consistent (database, cursor) snapshot every
  /// `checkpoint_every_rounds` completed rounds. Called right after a
  /// round-boundary flush (and after the round span closed, so the
  /// "checkpoint:<round>" span nests directly under "eval"). A sink
  /// failure is a hard error: evaluation fails closed and the sink's last
  /// successful write remains the durable state.
  Status MaybeCheckpoint(size_t stratum_index, const Watermarks& delta) {
    if (options_.checkpoint_sink == nullptr) return Status::Ok();
    const uint32_t every = std::max(1u, options_.checkpoint_every_rounds);
    if (stats_.rounds % every != 0) return Status::Ok();
    SpanGuard span(obs_.t, obs_.t != nullptr
                               ? "checkpoint:" + std::to_string(stats_.rounds)
                               : std::string());
    const Clock::time_point begin = Clock::now();
    EvalCursor cursor;
    cursor.stratum = static_cast<uint32_t>(stratum_index);
    cursor.stats = stats_;
    cursor.stats.eval_seconds = resumed_seconds_ + SecondsSince(eval_begin_);
    cursor.delta = delta;
    cursor.retired_rules.assign(retired_.begin(), retired_.end());
    std::sort(cursor.retired_rules.begin(), cursor.retired_rules.end());
    Result<uint64_t> bytes =
        options_.checkpoint_sink->Write(program_.ctx(), *db_, cursor);
    if (!bytes.ok()) return bytes.status();
    if (obs_.t != nullptr) {
      obs_.m->Add(obs_.checkpoint_writes, 1);
      obs_.m->Add(obs_.checkpoint_bytes, static_cast<double>(*bytes));
      obs_.m->Observe(obs_.checkpoint_seconds_hist, SecondsSince(begin));
    }
    return Status::Ok();
  }

 private:
  static constexpr size_t kNoDelta = static_cast<size_t>(-1);
  /// Rows between cooperative deadline/cancellation checks inside a round.
  static constexpr uint32_t kBudgetCheckStride = 1024;

  bool Tripped() const { return trip_ != BudgetKind::kNone; }

  /// Records the first budget trip; a later trip keeps the original
  /// reason.
  void Trip(BudgetKind kind) {
    if (trip_ == BudgetKind::kNone) trip_ = kind;
  }

  /// Round-boundary check of every budget. The database was just flushed,
  /// so tripping here leaves a consistent state. Returns true if tripped.
  bool CheckRoundBudgets() {
    const EvalBudget& b = options_.budget;
    if (b.cancellation != nullptr && b.cancellation->cancelled()) {
      Trip(BudgetKind::kCancelled);
    } else if (b.deadline_ms != 0 && Clock::now() >= deadline_) {
      Trip(BudgetKind::kDeadline);
    } else if (b.max_tuples != 0 && total_tuples_ > b.max_tuples) {
      Trip(BudgetKind::kTuples);
    } else if (b.max_arena_bytes != 0 && arena_bytes_ > b.max_arena_bytes) {
      Trip(BudgetKind::kArenaBytes);
    }
    return Tripped();
  }

  /// Mid-round check (every kBudgetCheckStride rows): only the budgets
  /// that can trip between round boundaries — cancellation and the
  /// deadline; tuple/byte totals move at flush time only. Returns true if
  /// this descent should stop enumerating.
  bool CheckMidRound() {
    if (Tripped()) return true;
    const EvalBudget& b = options_.budget;
    if (b.cancellation != nullptr && b.cancellation->cancelled()) {
      Trip(BudgetKind::kCancelled);
    } else if (b.deadline_ms != 0 && Clock::now() >= deadline_) {
      Trip(BudgetKind::kDeadline);
    }
    return Tripped();
  }

  /// Drops the buffered (partial) round after a mid-round trip.
  void DiscardRound() {
    round_buffer_.clear();
    round_values_.clear();
  }

  /// Round tail shared by round 0 and the delta rounds: flush the buffered
  /// derivations, bump round stats, and record round telemetry.
  void FinishRound(Clock::time_point round_begin, obs::SpanId round_span) {
    // Fault site: arena growth at the flush. An injected failure discards
    // the buffered round and surfaces as a hard kInternal error, leaving
    // the database (and any on-disk checkpoint) at the previous boundary.
    if (FaultPlan::Global().armed() &&
        FaultPlan::Global().ShouldFail("storage.arena_grow")) {
      injected_ = Status::Internal("injected fault at storage.arena_grow");
      DiscardRound();
      return;
    }
    const uint64_t inserted_before = stats_.tuples_inserted;
    Flush();
    ++stats_.rounds;
    const double secs = SecondsSince(round_begin);
    stats_.max_round_seconds = std::max(stats_.max_round_seconds, secs);
    ApplyBooleanCut();
    if (obs_.t != nullptr) {
      const uint64_t grew = stats_.tuples_inserted - inserted_before;
      obs_.m->Add(obs_.rounds_counter, 1);
      obs_.m->Observe(obs_.round_growth_hist, static_cast<double>(grew));
      obs_.m->Observe(obs_.round_seconds_hist, secs);
      obs_.t->trace().SetAttr(round_span, "inserted",
                              static_cast<double>(grew));
    }
  }

  /// Registers the evaluator's metrics.
  void SetupObs() {
    obs_.t = options_.telemetry;
    if (obs_.t == nullptr) return;
    obs::MetricsRegistry& m = obs_.t->metrics();
    obs_.m = &m;
    obs_.firings = m.Counter("eval.rule_firings");
    obs_.probes = m.Counter("eval.index_probes");
    obs_.rows = m.Counter("eval.rows_matched");
    obs_.rounds_counter = m.Counter("eval.rounds");
    obs_.round_growth_hist = m.Histogram(
        "eval.round.tuples_inserted",
        {0, 1, 10, 100, 1000, 10000, 100000, 1000000});
    obs_.round_seconds_hist = m.Histogram(
        "eval.round.seconds", {0.0001, 0.001, 0.01, 0.1, 1, 10});
    obs_.tuples_gauge = m.Gauge("storage.tuples");
    obs_.arena_bytes_gauge = m.Gauge("storage.arena_bytes");
    obs_.rehashes_gauge = m.Gauge("storage.rehashes");
    obs_.checkpoint_writes = m.Counter("eval.checkpoint.writes");
    obs_.checkpoint_bytes = m.Counter("eval.checkpoint.bytes");
    obs_.checkpoint_seconds_hist = m.Histogram(
        "eval.checkpoint.seconds", {0.0001, 0.001, 0.01, 0.1, 1, 10});
    obs_.rep_bitset_relations_gauge =
        m.Gauge("storage.representation.bitset_relations");
    obs_.rep_words_scanned = m.Counter("storage.representation.words_scanned");
    obs_.rep_fallbacks = m.Counter("storage.representation.fallbacks");
    obs_.rep_projection_rows =
        m.Counter("storage.representation.projection_rows");
    for (size_t k = 1; k <= static_cast<size_t>(BudgetKind::kCancelled);
         ++k) {
      obs_.trip_counters[k] = m.Counter(
          "eval.budget_trips",
          {{"kind",
            std::string(BudgetKindName(static_cast<BudgetKind>(k)))}});
    }
    const size_t n = rules_.size();
    obs_.rule_derived.resize(n);
    obs_.rule_duplicates.resize(n);
    obs_.rule_firings.resize(n);
    obs_.rule_probes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      obs_.rule_derived[i] = m.Counter("eval.rule.derived", LabelSetOf(i));
      obs_.rule_duplicates[i] =
          m.Counter("eval.rule.duplicates", LabelSetOf(i));
      obs_.rule_firings[i] = m.Counter("eval.rule.firings", LabelSetOf(i));
      obs_.rule_probes[i] = m.Counter("eval.rule.probes", LabelSetOf(i));
    }
  }

  static obs::LabelSet LabelSetOf(size_t rule_index) {
    return {{"rule", std::to_string(rule_index)}};
  }

  /// The structured error describing a trip, with progress attached.
  Status TripStatus(BudgetKind kind) const {
    std::string progress = " after " + std::to_string(stats_.rounds) +
                           " round(s), " +
                           std::to_string(stats_.tuples_inserted) +
                           " tuple(s) inserted";
    switch (kind) {
      case BudgetKind::kCancelled:
        return Status::Cancelled("evaluation cancelled" + progress);
      case BudgetKind::kDeadline:
        return Status::DeadlineExceeded(
            "deadline of " + std::to_string(options_.budget.deadline_ms) +
            " ms exceeded" + progress);
      case BudgetKind::kTuples:
        return Status::ResourceExhausted(
            "tuple budget of " + std::to_string(options_.budget.max_tuples) +
            " exceeded" + progress);
      case BudgetKind::kArenaBytes:
        return Status::ResourceExhausted(
            "arena byte budget of " +
            std::to_string(options_.budget.max_arena_bytes) + " exceeded" +
            progress);
      case BudgetKind::kRoundDerivations:
        return Status::ResourceExhausted(
            "per-round derivation budget of " +
            std::to_string(options_.budget.max_derivations_per_round) +
            " exceeded" + progress);
      case BudgetKind::kNone:
        break;
    }
    return Status::Ok();
  }

  struct CompiledRule {
    RulePlan plan;
    size_t rule_index = 0;
    /// Head has no registers (0-ary or all-constant): at most one tuple
    /// can ever be derived, so the first witness suffices (Section 3.1's
    /// cut) and the rule can retire once the tuple exists.
    bool single_tuple_head = false;
    /// Delta-first variant plans, indexed by the MAIN plan's step index
    /// that the variant designates as delta. Each is the same rule
    /// recompiled with that literal forced to step 0, so the semi-naive
    /// delta variant scans only the delta suffix and probes the other
    /// literals through indexes — O(delta) per round, not a full
    /// outer-relation scan. Filled by DeltaPlan on first use.
    std::vector<std::optional<Result<RulePlan>>> delta_plans;
  };

  /// The delta-first plan for `step` of `cr`, compiled the first time a
  /// round reads that step's delta; nullptr when the main plan already
  /// scans the step first. A failed compile also means no variant (the
  /// main plan is always a sound fallback), though forcing a positive
  /// literal first cannot make an orderable rule unorderable.
  const RulePlan* DeltaPlan(CompiledRule& cr, size_t step) {
    if (step == 0) return nullptr;
    cr.delta_plans.resize(cr.plan.steps.size());
    std::optional<Result<RulePlan>>& plan = cr.delta_plans[step];
    if (!plan) {
      plan.emplace(CompileRule(program_.rules()[cr.rule_index], options_.plan,
                               cr.plan.steps[step].body_position));
    }
    return plan->ok() ? &**plan : nullptr;
  }

  Status Compile() {
    rules_.reserve(program_.rules().size());
    for (size_t i = 0; i < program_.rules().size(); ++i) {
      EXDL_ASSIGN_OR_RETURN(RulePlan plan,
                            CompileRule(program_.rules()[i], options_.plan));
      CompiledRule cr;
      cr.plan = std::move(plan);
      cr.rule_index = i;
      cr.single_tuple_head = true;
      for (const ArgSpec& a : cr.plan.head_args) {
        if (a.kind == ArgSpec::Kind::kReg) cr.single_tuple_head = false;
      }
      // A rule the bitset path cannot take (ineligible plan shape, or
      // provenance forcing the generic descent) is a fallback.
      if (!cr.plan.bitset_eligible || options_.record_provenance) {
        ++rep_stats_.fallbacks;
      }
      rules_.push_back(std::move(cr));
    }
    return Status::Ok();
  }

  /// Fires one rule variant over the pre-round sizes_. `delta_step`
  /// designates the step reading only rows [delta_lo, size) of its
  /// relation (kNoDelta = none; every step reads [0, size)). Derivations
  /// are appended to round_buffer_ in the order the variant makes them.
  void FireVariant(CompiledRule& cr, size_t delta_step = kNoDelta,
                   uint32_t delta_lo = 0) {
    if (Tripped()) return;  // budget already blown; finish the round fast
    // Delta variants run the delta-first plan when one was compiled: the
    // delta literal is its step 0, so the outer scan covers only the
    // suffix [delta_lo, size) and every other literal is an index probe.
    // The match set is identical either way (loop order does not change
    // the join), so answers are unchanged; per-variant derivation order
    // and scan counters follow the plan actually run.
    const RulePlan* chosen = &cr.plan;
    if (delta_step != kNoDelta) {
      if (const RulePlan* dp = DeltaPlan(cr, delta_step)) {
        chosen = dp;
        delta_step = 0;
      }
    }
    const RulePlan& plan = *chosen;
    // Existence short-circuit (Section 3.1): a single-tuple head needs one
    // witness ever; skip entirely once the tuple exists.
    stop_after_first_ = options_.boolean_cut && cr.single_tuple_head;
    if (stop_after_first_) {
      const Relation* rel = db_->Find(plan.head_pred);
      if (rel != nullptr &&
          rel->ContainsKey(ConstArgsKey{&plan.head_args})) {
        return;
      }
    }
    std::vector<RowRange>& ranges = ranges_scratch_;  // reused per variant
    ranges.assign(plan.steps.size(), RowRange{0, 0});
    for (size_t s = 0; s < plan.steps.size(); ++s) {
      ranges[s] = RowRange{s == delta_step ? delta_lo : 0,
                           sizes_.Of(plan.steps[s].pred)};
      // An empty range over a positive literal means the variant cannot
      // match; an empty (or absent) relation under a negated literal is
      // simply a succeeding anti-join.
      if (ranges[s].empty() && !plan.steps[s].negated) return;
    }
    current_rule_index_ = cr.rule_index;
    SpanGuard rule_span(obs_.t,
                        obs_.t != nullptr
                            ? "rule:" + std::to_string(cr.rule_index)
                            : std::string());

    // Resolve each step's relation and (lazily built) index once per
    // variant: the inner descent loop then probes through cached pointers
    // with no map lookup or lock. Relations cloned copy-on-write from a
    // shared snapshot stay payload-shared — the const GetIndex builds (or
    // reuses) the shared index in place, so concurrent sessions over the
    // same EDB pay for an index build once.
    //
    // Unary membership steps (step.bitset_eligible) never resolve a hash
    // index: on the kernels and the generic descent alike they probe the
    // relation's word-packed bitset instead — full bits when the step
    // reads the whole relation, a scratch bitset built from the arena rows
    // [lo, hi) when it reads a semi-naive delta. This keeps index builds
    // (and the storage.rehashes gauge) identical on both paths.
    step_rels_.assign(plan.steps.size(), nullptr);
    step_indexes_.assign(plan.steps.size(), nullptr);
    step_bits_.assign(plan.steps.size(), nullptr);
    for (size_t s = 0; s < plan.steps.size(); ++s) {
      const LiteralStep& step = plan.steps[s];
      const Relation* rel = db_->Find(step.pred);
      step_rels_[s] = rel;
      if (rel == nullptr || step.negated || step.index_columns.empty()) {
        continue;
      }
      // Provenance needs row ids, which a membership bit cannot supply;
      // explain runs resolve the hash index like any other step.
      if (step.bitset_eligible && !options_.record_provenance &&
          rel->arity() == 1) {
        const Relation::View v = rel->view();
        if (ranges[s].lo == 0 && ranges[s].hi == v.size()) {
          step_bits_[s] = v.bits();
        } else {
          // Delta reads cover the arena suffix [lo, hi); at most one step
          // per variant is the delta step, so one scratch bitset suffices.
          delta_bits_scratch_.Clear();
          std::span<const Value> arena = v.Raw();
          for (uint32_t r = ranges[s].lo; r < ranges[s].hi; ++r) {
            delta_bits_scratch_.Set(arena[r]);
          }
          step_bits_[s] = &delta_bits_scratch_;
        }
      } else {
        step_indexes_[s] = &rel->GetIndex(step.index_columns);
      }
    }

    // The bitset kernels never record provenance (they have no per-row
    // descent spine): provenance runs take the generic descent everywhere.
    bool kernel = !options_.record_provenance && plan.bitset_eligible &&
                  !stop_after_first_;
    if (kernel && !PrepareBitsetVariant(plan, ranges)) kernel = false;
    descent_.regs.assign(plan.num_regs, 0);
    if (kernel) {
      RunBitsetVariant(plan, ranges, descent_);
    } else {
      descent_.reg_set.assign(plan.num_regs, false);
      descent_.path.clear();
      Descend(plan, ranges, 0, descent_);
    }
    Drain(descent_);
  }

  /// Builds the pre-/post- unary-probe descriptors of a bitset-eligible
  /// variant, split around the binary probe step when there is one (no
  /// binary probe: everything lands in pre_probes_). Returns false when a
  /// probe's backing bitset is unavailable — provenance resolved indexes
  /// instead, or a defensive arity mismatch — and the variant must take
  /// the generic descent.
  bool PrepareBitsetVariant(const RulePlan& plan,
                            const std::vector<RowRange>& ranges) {
    pre_probes_.clear();
    post_probes_.clear();
    for (size_t s = 1; s < plan.steps.size(); ++s) {
      if (s == plan.binary_probe_step) continue;
      const LiteralStep& step = plan.steps[s];
      BitProbe p;
      p.negated = step.negated;
      const ArgSpec& a = step.args[0];
      if (a.kind == ArgSpec::Kind::kConst) {
        p.const_key = true;
        p.key_const = a.const_value;
      } else {
        p.key_reg = a.reg;
      }
      if (step.negated) {
        // Anti-joins test the full relation (lower stratum: no longer
        // growing); absent/empty relations pass vacuously with no probe,
        // exactly like the generic anti-join branch.
        const Relation* rel = step_rels_[s];
        p.active = rel != nullptr && ranges[s].hi > 0;
        if (p.active) {
          p.bits = rel->view().bits();
          if (p.bits == nullptr) return false;
        }
      } else {
        p.bits = step_bits_[s];
        if (p.bits == nullptr) return false;
      }
      (s < plan.binary_probe_step ? pre_probes_ : post_probes_).push_back(p);
    }
    return true;
  }

  /// Buffers one head derivation from the current register file — the
  /// kernels' equivalent of Descend's emission base case (no provenance:
  /// kernels never run on explain evaluations). Returns false when the
  /// per-round derivation budget tripped and the variant must stop.
  bool EmitHead(const RulePlan& plan, DescentState& ws) {
    if (options_.budget.max_derivations_per_round != 0 &&
        round_derivations_++ >= options_.budget.max_derivations_per_round) {
      Trip(BudgetKind::kRoundDerivations);
      return false;
    }
    for (const ArgSpec& a : plan.head_args) {
      ws.values.push_back(a.kind == ArgSpec::Kind::kConst ? a.const_value
                                                          : ws.regs[a.reg]);
    }
    if (ws.open_run != static_cast<size_t>(-1)) {
      // Every kernel emission in this variant shares pred/len/rule and
      // the tuples are contiguous in ws.values: extend the open run.
      ++ws.buffer[ws.open_run].count;
    } else {
      PendingFact fact;
      fact.pred = plan.head_pred;
      fact.begin = ws.values.size() - plan.head_args.size();
      fact.len = static_cast<uint32_t>(plan.head_args.size());
      fact.rule = static_cast<uint32_t>(current_rule_index_);
      ws.open_run = ws.buffer.size();
      ws.buffer.push_back(std::move(fact));
    }
    ++ws.stats.rule_firings;
    return true;
  }

  /// Executes a bitset-eligible variant over its outer range ranges[0].
  /// A projection (one scan, no
  /// probes) is a single column gather; Shape A — unary outer scan, no
  /// binary probe — runs word-wise mask kernels and replays the arena for
  /// emission; Shape B — binary outer scan and/or one binary index probe —
  /// runs a tight per-row loop over the pre-resolved bit probes. All three
  /// reproduce the generic descent's derivation sequence and counters
  /// exactly, governed or not (DESIGN.md §14).
  void RunBitsetVariant(const RulePlan& plan,
                        const std::vector<RowRange>& ranges,
                        DescentState& ws) {
    ws.open_run = static_cast<size_t>(-1);
    const Relation::View outer = step_rels_[0]->view();
    if (plan.projection) {
      RunProjection(plan, ranges[0], outer, ws);
    } else if (outer.arity() == 1 &&
               plan.binary_probe_step == static_cast<size_t>(-1)) {
      RunShapeA(plan, ranges[0], outer, ws);
    } else {
      RunShapeB(plan, ranges, outer, ws);
    }
  }

  /// Projection run: every outer row derives exactly one head tuple, a
  /// gather of its columns and the head's constants. The variant is one
  /// PendingFact run filled column by column, and the generic descent's
  /// counters — one matched row and one firing per outer row — are folded
  /// in once. A governed run first settles how many rows the budget lets
  /// it take (GovernedRows).
  void RunProjection(const RulePlan& plan, RowRange outer,
                     const Relation::View& view, DescentState& ws) {
    uint32_t n = outer.hi - outer.lo;
    if (governed_) n = GovernedRows(n, ws);
    ws.stats.rows_matched += n;
    ws.stats.rule_firings += n;
    ws.projection_rows += n;
    const size_t len = plan.head_args.size();
    const size_t arity = view.arity();
    const Value* in =
        view.Raw().data() + static_cast<size_t>(outer.lo) * arity;
    const size_t begin = ws.values.size();
    ws.values.resize(begin + n * len);
    Value* out = ws.values.data() + begin;
    const std::vector<ArgSpec>& scan_args = plan.steps[0].args;
    for (size_t j = 0; j < len; ++j) {
      const ArgSpec& a = plan.head_args[j];
      if (a.kind == ArgSpec::Kind::kConst) {
        for (size_t i = 0; i < n; ++i) out[i * len + j] = a.const_value;
        continue;
      }
      // The one scan binds every head register (the plan is safe).
      size_t col = 0;
      while (scan_args[col].reg != a.reg) ++col;
      for (size_t i = 0; i < n; ++i) out[i * len + j] = in[i * arity + col];
    }
    PendingFact fact;
    fact.pred = plan.head_pred;
    fact.begin = begin;
    fact.len = static_cast<uint32_t>(len);
    fact.rule = static_cast<uint32_t>(current_rule_index_);
    fact.count = n;
    ws.buffer.push_back(std::move(fact));
  }

  /// How many of a projection's `n` rows a governed run takes. The rows
  /// go in chunks that end exactly where the per-row loop would check the
  /// deadline and the token (every kBudgetCheckStride rows, counted by
  /// ws.rows_since_check), and each chunk's derivations are reserved at once against max_derivations_per_round. On a partial grant the
  /// row whose derivation was refused still counts as matched, as in the
  /// generic descent, and the run trips after the granted prefix.
  uint32_t GovernedRows(uint32_t n, DescentState& ws) {
    const uint64_t cap = options_.budget.max_derivations_per_round;
    uint32_t taken = 0;
    while (taken < n) {
      uint32_t chunk;
      if (ws.rows_since_check + 1 >= kBudgetCheckStride) {
        // The next row is the one the per-row loop checks before.
        ws.rows_since_check = 0;
        if (CheckMidRound()) break;
        chunk = std::min(n - taken, kBudgetCheckStride);
        ws.rows_since_check = chunk - 1;
      } else {
        chunk = std::min(n - taken,
                         kBudgetCheckStride - 1 - ws.rows_since_check);
        ws.rows_since_check += chunk;
      }
      if (cap != 0) {
        const uint64_t before = round_derivations_;
        round_derivations_ += chunk;
        if (before + chunk > cap) {
          ++ws.stats.rows_matched;
          Trip(BudgetKind::kRoundDerivations);
          return taken + static_cast<uint32_t>(before < cap ? cap - before : 0);
        }
      }
      taken += chunk;
    }
    return taken;
  }

  /// Shape A: every surviving binding is a distinct symbol id (the outer
  /// relation deduplicates), so the whole outer range is one bit mask.
  /// Each unary probe is a word-wise AND / ANDNOT over the mask; counters
  /// are reconstructed from popcounts (a probe per surviving row, a match
  /// per survivor after a positive probe — exactly the generic per-row
  /// counts). Emission replays the arena slice in row order against the
  /// final mask, so the derivation sequence is the generic one.
  void RunShapeA(const RulePlan& plan, RowRange outer,
                 const Relation::View& view, DescentState& ws) {
    std::span<const Value> arena = view.Raw();
    std::vector<uint64_t>& mask = ws.mask;
    size_t words = 0;
    if (outer.lo == 0 && outer.hi == view.size()) {
      const UnaryBitset* bits = view.bits();
      words = bits->num_words();
      mask.assign(bits->words(), bits->words() + words);
    } else {
      mask.clear();
      for (uint32_t r = outer.lo; r < outer.hi; ++r) {
        const Value v = arena[r];
        const size_t w = v / UnaryBitset::kWordBits;
        if (w >= words) {
          words = w + 1;
          mask.resize(words, 0);
        }
        mask[w] |= uint64_t{1} << (v % UnaryBitset::kWordBits);
      }
    }
    ws.words_scanned += words;
    uint64_t survivors = outer.hi - outer.lo;
    ws.stats.rows_matched += survivors;

    for (const BitProbe& p : pre_probes_) {
      if (survivors == 0) break;
      if (p.negated && !p.active) continue;  // vacuous pass, no probe
      ws.stats.index_probes += survivors;
      if (p.const_key) {
        ++ws.words_scanned;
        const bool hit = p.bits->Test(p.key_const);
        if (p.negated == hit) {  // positive miss / negated hit: all fail
          survivors = 0;
          break;
        }
        if (!p.negated) ws.stats.rows_matched += survivors;
        continue;  // mask unchanged
      }
      const uint64_t* pb = p.bits->words();
      const size_t pw = p.bits->num_words();
      uint64_t count = 0;
      for (size_t w = 0; w < words; ++w) {
        const uint64_t probe_word = w < pw ? pb[w] : 0;
        mask[w] &= p.negated ? ~probe_word : probe_word;
        count += std::popcount(mask[w]);
      }
      ws.words_scanned += words;
      if (!p.negated) ws.stats.rows_matched += count;
      survivors = count;
    }
    if (survivors == 0) return;

    const uint32_t reg0 = plan.steps[0].args[0].reg;
    for (uint32_t r = outer.lo; r < outer.hi; ++r) {
      const Value v = arena[r];
      const size_t w = v / UnaryBitset::kWordBits;
      if (w >= words ||
          ((mask[w] >> (v % UnaryBitset::kWordBits)) & 1) == 0) {
        continue;
      }
      if (governed_ && ++ws.rows_since_check >= kBudgetCheckStride) {
        ws.rows_since_check = 0;
        if (CheckMidRound()) return;
      }
      ws.regs[reg0] = v;
      if (!EmitHead(plan, ws)) return;
    }
  }

  /// Shape B: per outer row, bind the scan registers straight off the
  /// arena, run the pre-probes as single-bit tests, enumerate the one
  /// binary index probe (if any) in row-id order binding its fresh
  /// register, run the post-probes, emit. One probe / one match count per
  /// generic-descent event, in the generic order.
  void RunShapeB(const RulePlan& plan, const std::vector<RowRange>& ranges,
                 const Relation::View& view, DescentState& ws) {
    const RowRange outer = ranges[0];
    std::span<const Value> arena = view.Raw();
    const uint32_t arity = view.arity();
    const LiteralStep& outer_step = plan.steps[0];
    const size_t bp = plan.binary_probe_step;
    const LiteralStep* bstep =
        bp == static_cast<size_t>(-1) ? nullptr : &plan.steps[bp];
    const Relation::Index* bindex = nullptr;
    std::span<const Value> barena;
    RowRange brange{0, 0};
    uint32_t bfree_pos = 0;
    uint32_t bfree_reg = 0;
    if (bstep != nullptr) {
      bindex = step_indexes_[bp];
      barena = step_rels_[bp]->view().Raw();
      brange = ranges[bp];
      bfree_pos = bstep->index_columns[0] == 0 ? 1 : 0;
      bfree_reg = bstep->args[bfree_pos].reg;
    }
    auto run_probes = [&](const std::vector<BitProbe>& probes) -> bool {
      for (const BitProbe& p : probes) {
        if (p.negated && !p.active) continue;
        ++ws.stats.index_probes;
        ++ws.words_scanned;
        const Value key = p.const_key ? p.key_const : ws.regs[p.key_reg];
        const bool hit = p.bits->Test(key);
        if (p.negated == hit) return false;
        if (!p.negated) ++ws.stats.rows_matched;
      }
      return true;
    };
    for (uint32_t r = outer.lo; r < outer.hi; ++r) {
      if (governed_ && ++ws.rows_since_check >= kBudgetCheckStride) {
        ws.rows_since_check = 0;
        if (CheckMidRound()) return;
      }
      ++ws.stats.rows_matched;
      const Value* row = arena.data() + static_cast<size_t>(r) * arity;
      for (size_t i = 0; i < outer_step.args.size(); ++i) {
        ws.regs[outer_step.args[i].reg] = row[i];
      }
      if (!run_probes(pre_probes_)) continue;
      if (bstep == nullptr) {
        if (!EmitHead(plan, ws)) return;
        continue;
      }
      ++ws.stats.index_probes;
      const std::span<const uint32_t> ids =
          bindex->LookupKey(RegKey{bstep, ws.regs.data()});
      auto lo_it = std::lower_bound(ids.begin(), ids.end(), brange.lo);
      for (auto it = lo_it; it != ids.end() && *it < brange.hi; ++it) {
        ++ws.stats.rows_matched;
        ws.regs[bfree_reg] =
            barena[static_cast<size_t>(*it) * 2 + bfree_pos];
        if (!run_probes(post_probes_)) continue;
        if (!EmitHead(plan, ws)) return;
      }
    }
  }

  /// Folds one variant's stats into the engine's and appends its
  /// buffered derivations to the round buffer, in variant order.
  void Drain(DescentState& ws) {
    if (obs_.t != nullptr) {
      // Attribution happens here — once per variant, before the stats
      // fold/reset — so the descent inner loop carries no instrumentation.
      obs_.m->Add(obs_.firings, ws.stats.rule_firings);
      obs_.m->Add(obs_.probes, ws.stats.index_probes);
      obs_.m->Add(obs_.rows, ws.stats.rows_matched);
      obs_.m->Add(obs_.rule_firings[current_rule_index_],
                  ws.stats.rule_firings);
      obs_.m->Add(obs_.rule_probes[current_rule_index_],
                  ws.stats.index_probes);
    }
    stats_ += ws.stats;
    ws.stats = EvalStats();
    rep_stats_.words_scanned += ws.words_scanned;
    ws.words_scanned = 0;
    rep_stats_.projection_rows += ws.projection_rows;
    ws.projection_rows = 0;
    const size_t base = round_values_.size();
    // Power-of-two growth: a range insert would size the arena to
    // max(2 * capacity, size + n), a new odd size on most rounds.
    const size_t need = base + ws.values.size();
    if (need > round_values_.capacity()) {
      round_values_.reserve(std::bit_ceil(need));
    }
    round_values_.insert(round_values_.end(), ws.values.begin(),
                         ws.values.end());
    for (PendingFact& f : ws.buffer) {
      f.begin += base;
      round_buffer_.push_back(std::move(f));
    }
    ws.values.clear();
    ws.buffer.clear();
    ws.open_run = static_cast<size_t>(-1);
  }

  /// Returns false when evaluation of this variant should stop (the
  /// single-tuple head was emitted and one witness suffices). `ws`'s stats
  /// and buffer are folded into the engine-wide ones by Drain.
  bool Descend(const RulePlan& plan, const std::vector<RowRange>& ranges,
               size_t step_idx, DescentState& ws) {
    if (step_idx == plan.steps.size()) {
      if (options_.budget.max_derivations_per_round != 0 &&
          round_derivations_++ >= options_.budget.max_derivations_per_round) {
        Trip(BudgetKind::kRoundDerivations);
        return false;
      }
      PendingFact fact;
      fact.pred = plan.head_pred;
      fact.begin = ws.values.size();
      fact.len = static_cast<uint32_t>(plan.head_args.size());
      fact.rule = static_cast<uint32_t>(current_rule_index_);
      for (const ArgSpec& a : plan.head_args) {
        ws.values.push_back(a.kind == ArgSpec::Kind::kConst ? a.const_value
                                                            : ws.regs[a.reg]);
      }
      if (options_.record_provenance) {
        fact.prov.rule_index = static_cast<int>(current_rule_index_);
        fact.prov.children = ws.path;
      }
      ws.buffer.push_back(std::move(fact));
      ++ws.stats.rule_firings;
      return !stop_after_first_;
    }
    const LiteralStep& step = plan.steps[step_idx];
    const Relation* rel = step_rels_[step_idx];
    const RowRange& range = ranges[step_idx];

    if (step.negated) {
      // Anti-join: succeed iff no tuple matches the (fully bound) key.
      // index_columns covers every position for negated steps, so RegKey
      // is the whole tuple — membership is tested straight off the
      // registers, no key vector.
      bool exists = false;
      if (rel != nullptr && range.hi > 0) {
        if (step.args.empty()) {
          exists = true;  // 0-ary relation holds the empty tuple
        } else {
          ++ws.stats.index_probes;
          exists = rel->ContainsKey(RegKey{&step, ws.regs.data()});
        }
      }
      if (exists) return true;  // this binding fails; keep enumerating
      return Descend(plan, ranges, step_idx + 1, ws);
    }
    if (rel == nullptr) return true;

    // Unary membership probe: a bound single argument against an arity-1
    // relation tests one bit (of the full bitset, or the delta bitset
    // FireVariant built for the delta step) instead of a hash-index
    // lookup. The counter shape matches the index path exactly: one probe
    // per binding reaching the step, one matched row per hit (arity-1
    // dedup means an index group holds at most one row).
    if (step_bits_[step_idx] != nullptr) {
      ++ws.stats.index_probes;
      const ArgSpec& a = step.args[0];
      const Value key =
          a.kind == ArgSpec::Kind::kConst ? a.const_value : ws.regs[a.reg];
      if (!step_bits_[step_idx]->Test(key)) return true;
      if (governed_ && ++ws.rows_since_check >= kBudgetCheckStride) {
        ws.rows_since_check = 0;
        if (CheckMidRound()) return false;
      }
      ++ws.stats.rows_matched;
      return Descend(plan, ranges, step_idx + 1, ws);
    }

    const Relation::View rv = rel->view();
    auto process_row = [&](uint32_t row_id) -> bool {
      if (governed_ && ++ws.rows_since_check >= kBudgetCheckStride) {
        ws.rows_since_check = 0;
        if (CheckMidRound()) return false;
      }
      std::span<const Value> row = rv.Scan(row_id);
      ++ws.stats.rows_matched;
      // Bind/check arguments; remember which registers this row bound so we
      // can release them before the next row.
      size_t bound_here = 0;
      bool ok = true;
      for (size_t i = 0; i < step.args.size() && ok; ++i) {
        const ArgSpec& a = step.args[i];
        if (a.kind == ArgSpec::Kind::kConst) {
          ok = row[i] == a.const_value;
        } else if (ws.reg_set[a.reg]) {
          ok = row[i] == ws.regs[a.reg];
        } else {
          ws.regs[a.reg] = row[i];
          ws.reg_set[a.reg] = true;
          ++bound_here;
        }
      }
      bool keep_going = true;
      if (ok) {
        if (options_.record_provenance) {
          ws.path.push_back(TupleRef{step.pred, row_id});
        }
        keep_going = Descend(plan, ranges, step_idx + 1, ws);
        if (options_.record_provenance) ws.path.pop_back();
      }
      // Unbind: the registers bound by this row are among step.binds
      // (first occurrences); when !ok we may have bound a prefix only, so
      // clear precisely what we set.
      if (bound_here > 0) {
        for (size_t i = 0; i < step.args.size() && bound_here > 0; ++i) {
          const ArgSpec& a = step.args[i];
          if (a.kind == ArgSpec::Kind::kReg && ws.reg_set[a.reg]) {
            for (uint32_t b : step.binds) {
              if (b == a.reg) {
                ws.reg_set[a.reg] = false;
                --bound_here;
                break;
              }
            }
          }
        }
      }
      return keep_going;
    };

    if (step.index_columns.empty()) {
      for (uint32_t row_id = range.lo; row_id < range.hi; ++row_id) {
        if (!process_row(row_id)) return false;
      }
      return true;
    }
    const Relation::Index& index = *step_indexes_[step_idx];
    ++ws.stats.index_probes;
    const std::span<const uint32_t> ids =
        index.LookupKey(RegKey{&step, ws.regs.data()});
    // Row ids are appended in increasing order; binary-search the range.
    auto lo_it = std::lower_bound(ids.begin(), ids.end(), range.lo);
    for (auto it = lo_it; it != ids.end() && *it < range.hi; ++it) {
      if (!process_row(*it)) return false;
    }
    return true;
  }

  void Flush() {
    for (PendingFact& f : round_buffer_) {
      // Each entry is a run of f.count tuples (stride f.len) from one
      // rule into one relation; the generic descent buffers runs of 1,
      // kernels one run per variant. Resolve the relation and fold the
      // per-rule telemetry once per run. A unary run goes in with one
      // Relation call unless provenance or the support sink needs each
      // tuple's outcome; everything else is inserted per tuple.
      Relation& rel = db_->GetOrCreate(f.pred, f.len);
      const Value* base = round_values_.data() + f.begin;
      const bool unary = f.len == 1;
      // Pre-size the arena for kernel runs. Unary only: Reserve on wider
      // relations also pre-sizes the dedup table, which would make the
      // storage.rehashes gauge depend on the executor. Power-of-two
      // sizes, like push_back growth: an exact reserve would reallocate
      // the arena every round, each time at a new odd size.
      if (unary && f.count > 1) {
        rel.Reserve(std::bit_ceil(rel.size() + f.count));
      }
      uint64_t inserted = 0;
      if (unary && !options_.record_provenance &&
          options_.support_sink == nullptr) {
        inserted = rel.InsertUnaryRun(std::span<const Value>(base, f.count));
      } else {
        for (uint32_t i = 0; i < f.count; ++i) {
          const Value* row = base + static_cast<size_t>(i) * f.len;
          const Relation::InsertResult ins =
              unary ? Relation::InsertResult{*row, rel.InsertUnary(*row)}
                    : rel.InsertRow(std::span<const Value>(row, f.len));
          if (ins.inserted) {
            ++inserted;
            if (options_.record_provenance) {
              uint32_t row_id = static_cast<uint32_t>(rel.size() - 1);
              provenance_.emplace(TupleRef{f.pred, row_id},
                                  std::move(f.prov));
            }
          }
          if (options_.support_sink != nullptr) {
            // An arity-1 key is the symbol: only a new row's id is known.
            if (!unary) {
              options_.support_sink->Derived(f.pred, ins.key);
            } else if (ins.inserted) {
              options_.support_sink->Derived(
                  f.pred, static_cast<uint32_t>(rel.size() - 1));
            } else {
              options_.support_sink->Rederived(f.pred, *row);
            }
          }
        }
      }
      if (inserted > 0) {
        stats_.tuples_inserted += inserted;
        sizes_.Set(f.pred, static_cast<uint32_t>(rel.size()));
        total_tuples_ += inserted;
        arena_bytes_ += inserted * f.len * sizeof(Value);
      }
      stats_.duplicate_inserts += f.count - inserted;
      if (obs_.t != nullptr) {
        if (inserted > 0) obs_.m->Add(obs_.rule_derived[f.rule], inserted);
        if (f.count > inserted) {
          obs_.m->Add(obs_.rule_duplicates[f.rule], f.count - inserted);
        }
      }
    }
    round_buffer_.clear();
    round_values_.clear();
  }

  /// Retires rules whose single possible head tuple (0-ary or
  /// all-constant heads) has been derived (Section 3.1's runtime cut).
  void ApplyBooleanCut() {
    if (!options_.boolean_cut) return;
    for (const CompiledRule& cr : rules_) {
      if (retired_.count(cr.rule_index) > 0) continue;
      if (!cr.single_tuple_head) continue;
      const Relation* rel = db_->Find(cr.plan.head_pred);
      if (rel != nullptr &&
          rel->ContainsKey(ConstArgsKey{&cr.plan.head_args})) {
        retired_.insert(cr.rule_index);
        ++stats_.rules_retired;
      }
    }
  }

  bool GroundQueryIn() const {
    const Atom& q = *program_.query();
    const Relation* rel = db_->Find(q.pred);
    if (rel == nullptr) return false;
    std::vector<Value> row;
    row.reserve(q.args.size());
    for (const Term& t : q.args) row.push_back(t.id());
    return rel->Contains(row);
  }

  bool ShouldStopOnGroundQuery() const {
    if (!options_.stop_on_ground_query) return false;
    if (!program_.query() || !program_.query()->IsGround()) return false;
    return GroundQueryIn();
  }

  const Program& program_;
  const EvalOptions& options_;
  Database* db_ = nullptr;
  std::vector<CompiledRule> rules_;
  std::unordered_set<size_t> retired_;
  EvalStats stats_;
  Watermarks sizes_;  ///< Relation sizes, kept current by Flush.
  /// Budget state. total_tuples_/arena_bytes_ mirror the database and are
  /// maintained by Flush; trip_ holds the first BudgetKind that fired;
  /// round_derivations_ counts head tuples buffered in the current round
  /// (used only when max_derivations_per_round is set).
  bool governed_ = false;
  Clock::time_point eval_begin_;
  Clock::time_point deadline_;
  /// Wall-clock already spent by the checkpointed run being resumed
  /// (0 for a fresh evaluation); folded into eval_seconds and the
  /// deadline budget.
  double resumed_seconds_ = 0;
  /// First injected-fault error of this evaluation; non-OK aborts the run
  /// as a hard error right after the current round is discarded.
  Status injected_;
  uint64_t total_tuples_ = 0;
  uint64_t arena_bytes_ = 0;
  BudgetKind trip_ = BudgetKind::kNone;
  uint64_t round_derivations_ = 0;
  DescentState descent_;
  std::vector<PendingFact> round_buffer_;
  std::vector<Value> round_values_;  ///< Arena backing round_buffer_.
  /// Per-variant caches: each body step's relation and resolved index,
  /// filled by FireVariant before descending.
  std::vector<const Relation*> step_rels_;
  std::vector<const Relation::Index*> step_indexes_;
  std::vector<RowRange> ranges_scratch_;  ///< FireVariant's step ranges.
  /// Per-variant: the bitset each unary membership step probes (nullptr
  /// for every other step). Full relation bits, or delta_bits_scratch_
  /// when the step reads a semi-naive delta suffix.
  std::vector<const UnaryBitset*> step_bits_;
  UnaryBitset delta_bits_scratch_;
  /// Per-variant bitset-kernel probe descriptors, split around the binary
  /// probe step.
  std::vector<BitProbe> pre_probes_;
  std::vector<BitProbe> post_probes_;
  RepresentationStats rep_stats_;
  bool stop_after_first_ = false;
  size_t current_rule_index_ = 0;
  std::unordered_map<TupleRef, Provenance, TupleRefHash> provenance_;

  /// Telemetry sink pointers and pre-registered metric ids (t == null
  /// means telemetry is off and every site is a never-taken branch).
  struct ObsState {
    obs::Telemetry* t = nullptr;
    obs::MetricsRegistry* m = nullptr;
    obs::MetricId firings = 0;
    obs::MetricId probes = 0;
    obs::MetricId rows = 0;
    obs::MetricId rounds_counter = 0;
    obs::MetricId round_growth_hist = 0;
    obs::MetricId round_seconds_hist = 0;
    obs::MetricId tuples_gauge = 0;
    obs::MetricId arena_bytes_gauge = 0;
    obs::MetricId rehashes_gauge = 0;
    obs::MetricId checkpoint_writes = 0;
    obs::MetricId checkpoint_bytes = 0;
    obs::MetricId checkpoint_seconds_hist = 0;
    obs::MetricId rep_bitset_relations_gauge = 0;
    obs::MetricId rep_words_scanned = 0;
    obs::MetricId rep_fallbacks = 0;
    obs::MetricId rep_projection_rows = 0;
    /// Indexed by rule index (== CompiledRule::rule_index).
    std::vector<obs::MetricId> rule_derived;
    std::vector<obs::MetricId> rule_duplicates;
    std::vector<obs::MetricId> rule_firings;
    std::vector<obs::MetricId> rule_probes;
    /// Indexed by BudgetKind value; [0] (kNone) unused.
    obs::MetricId trip_counters[6] = {};
  };
  ObsState obs_;
};

}  // namespace

Result<EvalResult> Evaluate(const Program& program, const Database& input,
                            const EvalOptions& options) {
  Engine engine(program, options);
  return engine.Run(input);
}

Result<EvalResult> Evaluate(const Program& program, Database&& input,
                            const EvalOptions& options) {
  Engine engine(program, options);
  return engine.RunOwned(std::move(input));
}

AnswerRows ExtractAnswers(const Atom& query, const Database& db,
                          size_t first_row) {
  // Distinct variables in first-occurrence order are the answer columns.
  std::vector<SymbolId> vars;
  query.CollectVars(&vars);
  const uint32_t arity = static_cast<uint32_t>(vars.size());
  const Relation* rel = db.Find(query.pred);
  if (rel == nullptr || first_row >= rel->size()) {
    return AnswerRows(arity, 0, {});
  }
  const Relation::View view = rel->view();
  const size_t scanned = rel->size() - first_row;

  // Identity projection: every argument a distinct variable means each
  // stored row IS an answer, so the suffix of the arena is the table.
  if (arity == query.args.size() && arity == rel->arity()) {
    // A whole unary relation is its membership bitset, whose set bits in
    // ascending order are the sorted, distinct answers. Walk it when it
    // has no more words than the relation has rows; a sparse set over a
    // wide id range is cheaper to sort.
    const UnaryBitset* bits = view.bits();
    if (bits != nullptr && first_row == 0 && bits->num_words() <= scanned) {
      std::vector<Value> sorted;
      sorted.reserve(scanned);
      bits->ForEach([&](Value v) { sorted.push_back(v); });
      return AnswerRows::Presorted(arity, scanned, std::move(sorted));
    }
    std::span<const Value> raw = view.Raw().subspan(first_row * arity);
    return AnswerRows(arity, scanned, {raw.begin(), raw.end()});
  }

  // A matching row is fixed by its answer (constants are fixed, repeated
  // variables equal their first occurrence), so distinct stored rows give
  // distinct answers and sorting is all that is left to do.
  //
  // Per argument: its answer column, and whether it binds the column (the
  // variable's first occurrence) or checks it (a repeat). Constants check.
  std::vector<uint32_t> col(query.args.size(), 0);
  std::vector<char> binds(query.args.size(), 0);
  for (size_t i = 0, next = 0; i < query.args.size(); ++i) {
    const Term& t = query.args[i];
    if (t.IsConst()) continue;
    col[i] = static_cast<uint32_t>(
        std::find(vars.begin(), vars.end(), t.id()) - vars.begin());
    binds[i] = col[i] == next;
    if (binds[i]) ++next;
  }
  std::vector<Value> flat;
  flat.reserve(scanned * arity);
  size_t rows = 0;
  for (size_t r = first_row; r < rel->size(); ++r) {
    std::span<const Value> row = view.Scan(r);
    const size_t base = flat.size();
    flat.resize(base + arity);
    Value* answer = flat.data() + base;
    bool ok = true;
    for (size_t i = 0; i < query.args.size() && ok; ++i) {
      const Term& t = query.args[i];
      if (t.IsConst()) {
        ok = row[i] == t.id();
      } else if (binds[i]) {
        answer[col[i]] = row[i];
      } else {
        ok = row[i] == answer[col[i]];
      }
    }
    if (ok) {
      ++rows;
    } else {
      flat.resize(base);
    }
  }
  return AnswerRows(arity, rows, std::move(flat));
}


namespace {

/// Renders one stored tuple as "pred(a, b)".
std::string RenderTuple(const Program& program, const Database& db,
                        const TupleRef& ref) {
  const Context& ctx = program.ctx();
  std::string out = ctx.PredicateDisplayName(ref.pred);
  const Relation* rel = db.Find(ref.pred);
  if (rel == nullptr || ref.row >= rel->size()) return out + "(?)";
  std::span<const Value> row = rel->view().Scan(ref.row);
  if (row.empty()) return out;
  out += "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += ctx.SymbolName(row[i]);
  }
  out += ")";
  return out;
}

void ExplainRecursive(const Program& program, const EvalResult& result,
                      const TupleRef& ref, int depth, std::string* out) {
  for (int i = 0; i < depth; ++i) *out += "  ";
  *out += RenderTuple(program, result.db, ref);
  auto it = result.provenance.find(ref);
  if (it == result.provenance.end() || it->second.rule_index < 0) {
    *out += "   [input fact]\n";
    return;
  }
  *out += "   [rule " + std::to_string(it->second.rule_index) + "]\n";
  for (const TupleRef& child : it->second.children) {
    ExplainRecursive(program, result, child, depth + 1, out);
  }
}

}  // namespace

Result<std::string> ExplainTuple(const Program& program,
                                 const EvalResult& result,
                                 const TupleRef& tuple) {
  const Relation* rel = result.db.Find(tuple.pred);
  if (rel == nullptr || tuple.row >= rel->size()) {
    return Status::NotFound("tuple reference out of range");
  }
  std::string out;
  ExplainRecursive(program, result, tuple, 0, &out);
  return out;
}

Result<std::string> ExplainFact(const Program& program,
                                const EvalResult& result, PredId pred,
                                std::span<const Value> row) {
  const Relation* rel = result.db.Find(pred);
  if (rel == nullptr) return Status::NotFound("no tuples for predicate");
  const Relation::View view = rel->view();
  for (uint32_t r = 0; r < rel->size(); ++r) {
    std::span<const Value> stored = view.Scan(r);
    if (std::equal(stored.begin(), stored.end(), row.begin(), row.end())) {
      return ExplainTuple(program, result, TupleRef{pred, r});
    }
  }
  return Status::NotFound("fact not present");
}

}  // namespace exdl
