// Resource governance: budget trips, cooperative cancellation, and the
// partial-result guarantees of EvalBudget (see DESIGN.md §9).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "core/optimizer.h"
#include "eval/evaluator.h"
#include "testing/test_util.h"
#include "util/cancellation.h"

namespace exdl {
namespace {

using testing::MustEval;
using testing::MustParse;
using testing::ParsedProgram;

/// Transitive closure over an n-edge chain: n rounds, O(n^2) tuples.
std::string ChainSource(int n) {
  std::string src =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Z) :- e(X, Y), tc(Y, Z).\n"
      "?- tc(n0, X).\n";
  for (int i = 0; i < n; ++i) {
    src += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  return src;
}

/// True if every relation of `prefix` is an exact row-for-row prefix of the
/// same relation in `full` (same insertion order, same payload).
bool IsRowPrefixOf(const Database& prefix, const Database& full) {
  for (const auto& [pred, rel] : prefix.relations()) {
    const Relation* full_rel = full.Find(pred);
    if (rel.size() > 0 && full_rel == nullptr) return false;
    if (full_rel != nullptr && rel.size() > full_rel->size()) return false;
    for (size_t r = 0; r < rel.size(); ++r) {
      std::span<const Value> a = rel.view().Scan(r);
      std::span<const Value> b = full_rel->view().Scan(r);
      if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
    }
  }
  return true;
}

/// True if the two databases hold exactly the same rows in the same order.
bool SameDatabase(const Database& a, const Database& b) {
  return IsRowPrefixOf(a, b) && IsRowPrefixOf(b, a);
}

TEST(GovernanceTest, TupleBudgetTripsWithConsistentPrefix) {
  ParsedProgram p = MustParse(ChainSource(120));
  EvalResult full = MustEval(p.program, p.edb);
  ASSERT_TRUE(full.termination.ok());

  EvalOptions governed;
  governed.budget.max_tuples = 2000;  // 120 edges + full TC is 7260 tuples.
  EvalResult partial = MustEval(p.program, p.edb, governed);

  EXPECT_EQ(partial.termination.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(partial.stats.budget_tripped, BudgetKind::kTuples);
  EXPECT_GT(partial.stats.rounds, 0u);
  EXPECT_LT(partial.stats.rounds, full.stats.rounds);
  // The partial database is the exact evaluation prefix: governed rounds
  // are byte-identical to ungoverned ones, so every relation is a
  // row-for-row prefix of the converged database.
  EXPECT_TRUE(IsRowPrefixOf(partial.db, full.db));
  EXPECT_LT(partial.answers.size(), full.answers.size());
}

TEST(GovernanceTest, TupleBudgetTripIsDeterministic) {
  ParsedProgram p = MustParse(ChainSource(100));
  EvalOptions governed;
  governed.budget.max_tuples = 1500;
  EvalResult a = MustEval(p.program, p.edb, governed);
  EvalResult b = MustEval(p.program, p.edb, governed);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.tuples_inserted, b.stats.tuples_inserted);
  EXPECT_TRUE(SameDatabase(a.db, b.db));
}

TEST(GovernanceTest, ArenaBytesBudgetTrips) {
  ParsedProgram p = MustParse(ChainSource(120));
  EvalOptions governed;
  governed.budget.max_arena_bytes = 32 * 1024;
  EvalResult partial = MustEval(p.program, p.edb, governed);

  EXPECT_EQ(partial.termination.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(partial.stats.budget_tripped, BudgetKind::kArenaBytes);
  EvalResult full = MustEval(p.program, p.edb);
  EXPECT_TRUE(IsRowPrefixOf(partial.db, full.db));
}

TEST(GovernanceTest, OversizedInputTripsBeforeRoundOne) {
  ParsedProgram p = MustParse(ChainSource(50));
  EvalOptions governed;
  governed.budget.max_tuples = 10;  // Below the 50 input facts.
  EvalResult partial = MustEval(p.program, p.edb, governed);
  EXPECT_EQ(partial.termination.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(partial.stats.rounds, 0u);
  EXPECT_EQ(partial.stats.tuples_inserted, 0u);
  // Nothing was derived: the database is exactly the input.
  EXPECT_EQ(partial.db.TotalTuples(), p.edb.TotalTuples());
}

TEST(GovernanceTest, RoundDerivationsTripDiscardsThePartialRound) {
  // One cross-product rule: round 0 alone would emit |a| * |b| = 900
  // tuples. A smaller per-round cap must trip mid-round and discard the
  // half-built round, leaving the database at the previous boundary (the
  // input).
  std::string src =
      "p(X, Y) :- a(X), b(Y).\n"
      "?- p(X, Y).\n";
  for (int i = 0; i < 30; ++i) {
    src += "a(u" + std::to_string(i) + ").\n";
    src += "b(v" + std::to_string(i) + ").\n";
  }
  ParsedProgram p = MustParse(src);
  EvalOptions governed;
  governed.budget.max_derivations_per_round = 100;
  EvalResult partial = MustEval(p.program, p.edb, governed);

  EXPECT_EQ(partial.termination.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(partial.stats.budget_tripped, BudgetKind::kRoundDerivations);
  EXPECT_EQ(partial.db.TotalTuples(), p.edb.TotalTuples());
  EXPECT_TRUE(partial.answers.empty());
}

TEST(GovernanceTest, DeadlineTripsOnLongEvaluation) {
  ParsedProgram p = MustParse(ChainSource(700));
  EvalOptions governed;
  governed.budget.deadline_ms = 1;
  EvalResult partial = MustEval(p.program, p.edb, governed);

  EXPECT_EQ(partial.termination.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(partial.stats.budget_tripped, BudgetKind::kDeadline);
  // Wherever the deadline landed, the returned state is a true evaluation
  // prefix — every tuple is derivable.
  EvalResult full = MustEval(p.program, p.edb);
  EXPECT_TRUE(IsRowPrefixOf(partial.db, full.db));
}

TEST(GovernanceTest, PreCancelledTokenStopsBeforeRoundOne) {
  ParsedProgram p = MustParse(ChainSource(20));
  CancellationToken token;
  token.Cancel();
  EvalOptions governed;
  governed.budget.cancellation = &token;
  EvalResult partial = MustEval(p.program, p.edb, governed);

  EXPECT_EQ(partial.termination.code(), StatusCode::kCancelled);
  EXPECT_EQ(partial.stats.budget_tripped, BudgetKind::kCancelled);
  EXPECT_EQ(partial.stats.rounds, 0u);
  EXPECT_EQ(partial.db.TotalTuples(), p.edb.TotalTuples());
}

TEST(GovernanceTest, CrossThreadCancellationStopsTheFixpoint) {
  // Large enough that evaluation runs for hundreds of milliseconds; the
  // token is raised from another thread a few milliseconds in. The
  // fixpoint stops at a round boundary and hands back a row-for-row
  // prefix of the converged database: no torn round.
  ParsedProgram p = MustParse(ChainSource(1200));
  EvalResult full = MustEval(p.program, p.edb);

  CancellationToken token;
  EvalOptions governed;
  governed.budget.cancellation = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.Cancel();
  });
  EvalResult partial = MustEval(p.program, p.edb, governed);
  canceller.join();

  EXPECT_EQ(partial.termination.code(), StatusCode::kCancelled);
  EXPECT_EQ(partial.stats.budget_tripped, BudgetKind::kCancelled);
  EXPECT_TRUE(IsRowPrefixOf(partial.db, full.db));
}

TEST(GovernanceTest, GovernedRunWithoutTripIsByteIdentical) {
  ParsedProgram p = MustParse(ChainSource(60));
  EvalResult plain = MustEval(p.program, p.edb);

  CancellationToken token;  // Never raised.
  EvalOptions governed;
  governed.budget.deadline_ms = 60'000;
  governed.budget.max_tuples = 1'000'000;
  governed.budget.max_arena_bytes = 1u << 30;
  governed.budget.max_derivations_per_round = 1'000'000;
  governed.budget.cancellation = &token;
  EvalResult g = MustEval(p.program, p.edb, governed);

  EXPECT_TRUE(g.termination.ok());
  EXPECT_EQ(g.stats.budget_tripped, BudgetKind::kNone);
  EXPECT_EQ(g.stats.rounds, plain.stats.rounds);
  EXPECT_EQ(g.stats.tuples_inserted, plain.stats.tuples_inserted);
  EXPECT_TRUE(SameDatabase(g.db, plain.db));
  EXPECT_EQ(g.answers, plain.answers);
}

TEST(GovernanceTest, OptimizerHonorsCancellationAtPhaseBoundaries) {
  ParsedProgram p = MustParse(
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Z) :- e(X, Y), p(Y, Z).\n"
      "?- p(a, X).\n");
  CancellationToken token;
  token.Cancel();
  OptimizerOptions options;
  options.cancellation = &token;
  Result<OptimizedProgram> optimized =
      OptimizeExistential(p.program, options);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(optimized->termination.code(), StatusCode::kCancelled);
  EXPECT_EQ(optimized->report.interrupted_before, "adorn");
  // No phase ran: the returned program is the input (still equivalent).
  EXPECT_EQ(optimized->program.NumRules(), p.program.NumRules());
  // The rendered report mentions the interruption.
  EXPECT_NE(optimized->report.ToString().find("cancelled before phase"),
            std::string::npos);

  // An unraised token changes nothing.
  token.Reset();
  Result<OptimizedProgram> ungoverned = OptimizeExistential(p.program);
  Result<OptimizedProgram> governed =
      OptimizeExistential(p.program, options);
  ASSERT_TRUE(ungoverned.ok());
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed->termination.ok());
  EXPECT_EQ(governed->program.NumRules(), ungoverned->program.NumRules());
}

TEST(GovernanceTest, BudgetKindNamesAreStable) {
  EXPECT_EQ(BudgetKindName(BudgetKind::kNone), "none");
  EXPECT_EQ(BudgetKindName(BudgetKind::kDeadline), "deadline");
  EXPECT_EQ(BudgetKindName(BudgetKind::kTuples), "tuples");
  EXPECT_EQ(BudgetKindName(BudgetKind::kArenaBytes), "arena_bytes");
  EXPECT_EQ(BudgetKindName(BudgetKind::kRoundDerivations),
            "round_derivations");
  EXPECT_EQ(BudgetKindName(BudgetKind::kCancelled), "cancelled");
}

}  // namespace
}  // namespace exdl
