// Coverage for the smaller public API surfaces not exercised elsewhere:
// stats arithmetic, b/f adornment helpers, plan rendering, freeze mapping,
// random-instance determinism.

#include <gtest/gtest.h>

#include "ast/adornment.h"
#include "core/compiled_program.h"
#include "core/session.h"
#include "equiv/freeze.h"
#include "equiv/random_check.h"
#include "eval/evaluator.h"
#include "eval/plan.h"
#include "obs/telemetry.h"
#include "testing/test_util.h"

namespace exdl {
namespace {

using ::exdl::testing::MustParse;

TEST(EvalStatsTest, AccumulationAddsFieldwise) {
  EvalStats a;
  a.rounds = 2;
  a.rule_firings = 10;
  a.tuples_inserted = 7;
  a.duplicate_inserts = 3;
  a.index_probes = 5;
  a.rows_matched = 20;
  a.rules_retired = 1;
  EvalStats b = a;
  b += a;
  EXPECT_EQ(b.rounds, 4u);
  EXPECT_EQ(b.rule_firings, 20u);
  EXPECT_EQ(b.tuples_inserted, 14u);
  EXPECT_EQ(b.duplicate_inserts, 6u);
  EXPECT_EQ(b.index_probes, 10u);
  EXPECT_EQ(b.rows_matched, 40u);
  EXPECT_EQ(b.rules_retired, 2u);
}

TEST(AdornmentTest, BoundFreeHelpers) {
  Adornment bf = *Adornment::Parse("bfb");
  EXPECT_TRUE(bf.bound(0));
  EXPECT_TRUE(bf.free(1));
  EXPECT_TRUE(bf.bound(2));
  EXPECT_EQ(bf.CountBound(), 2u);
  Adornment all_free = Adornment::AllFree(3);
  EXPECT_EQ(all_free.str(), "fff");
  EXPECT_EQ(all_free.CountBound(), 0u);
}

TEST(AdornmentTest, MutationHelpers) {
  Adornment a = Adornment::AllNeeded(2);
  a.set(1, Adornment::kExistential);
  EXPECT_EQ(a.str(), "nd");
  a.push_back(Adornment::kNeeded);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.needed(2));
}

TEST(PlanToStringTest, ShowsAccessPathsAndNegation) {
  auto parsed = MustParse("p(X) :- e(X, c7), big(Y, Z), not bad(X).\n");
  PlanOptions options;
  Result<RulePlan> plan = CompileRule(parsed.program.rules()[0], options);
  ASSERT_TRUE(plan.ok());
  std::string rendered = PlanToString(*parsed.ctx, *plan);
  EXPECT_NE(rendered.find("anti-join bad"), std::string::npos);
  EXPECT_NE(rendered.find("[index on ("), std::string::npos);
  EXPECT_NE(rendered.find("[scan]"), std::string::npos);
  EXPECT_NE(rendered.find("emit p(r"), std::string::npos);
}

TEST(FreezeTest, VarToConstCoversEveryVariable) {
  auto parsed = MustParse("p(X, Y) :- q(X, Z), r(Z, Y, W).\n");
  FrozenRule frozen =
      FreezeRule(parsed.program.rules()[0], parsed.program);
  EXPECT_EQ(frozen.var_to_const.size(), 4u);  // X Y Z W
  // All frozen constants are distinct.
  std::set<SymbolId> values;
  for (const auto& [var, c] : frozen.var_to_const) values.insert(c);
  EXPECT_EQ(values.size(), 4u);
}

TEST(RandomInstanceTest, DeterministicAndBounded) {
  Context ctx;
  PredId p = ctx.InternPredicate("p", 2);
  Database d1 = RandomInstance(&ctx, {p}, 5, 10, 99);
  Database d2 = RandomInstance(&ctx, {p}, 5, 10, 99);
  EXPECT_EQ(d1.Count(p), d2.Count(p));
  EXPECT_LE(d1.Count(p), 10u);
  const Relation* rel = d1.Find(p);
  if (rel != nullptr) {
    for (size_t r = 0; r < rel->size(); ++r) {
      for (Value v : rel->view().Scan(r)) {
        EXPECT_TRUE(ctx.SymbolName(v).rfind("c", 0) == 0);
      }
    }
  }
}

TEST(ProgramTest, RulesDefiningAndClearQuery) {
  auto parsed = MustParse(
      "p(X) :- e(X).\n"
      "p(X) :- f(X).\n"
      "q(X) :- p(X).\n"
      "?- q(X).\n");
  Program copy = parsed.program.Clone();
  copy.ClearQuery();
  EXPECT_FALSE(copy.query().has_value());
  PredId p = parsed.program.rules()[0].head.pred;
  EXPECT_EQ(parsed.program.RulesDefining(p).size(), 2u);
}

TEST(StatusTest, ResultMoveSemantics) {
  Result<std::string> r = std::string("payload");
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

// A generated name restarts at `<hint>_0` on every call sequence, so a
// second compile reuses the first one's predicate instead of interning a
// new one.
TEST(ContextTest, InternUnusedReusesNamesAcrossCompiles) {
  Context ctx;
  auto none = [](SymbolId) { return false; };
  size_t first = 0;
  PredId a = ctx.InternPredicate(ctx.InternUnused("aux", &first, none), 2);
  PredId b = ctx.InternPredicate(ctx.InternUnused("aux", &first, none), 2);
  EXPECT_NE(a, b);
  const size_t preds = ctx.NumPredicates();
  size_t second = 0;
  EXPECT_EQ(ctx.InternPredicate(ctx.InternUnused("aux", &second, none), 2), a);
  EXPECT_EQ(ctx.NumPredicates(), preds);
}

// The front door: compile (parse -> optimize) once, evaluate in a Session.
TEST(FrontDoorTest, CompileOptimizeRunSession) {
  CompileOptions options;
  options.optimize = true;
  Result<CompiledProgram::Ptr> compiled = CompiledProgram::Compile(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "?- tc(n0, Y).\n"
      "e(n0, n1). e(n1, n2).\n",
      options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE((*compiled)->optimized());
  EXPECT_TRUE((*compiled)->optimize_termination().ok());
  EXPECT_EQ((*compiled)->report().original_rules, 2u);
  Session session;
  session.Bind(*compiled);
  Result<EvalResult> result = session.Run((*compiled)->facts());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.ok());
  EXPECT_EQ(result->answers.size(), 2u);  // n1, n2
  EXPECT_TRUE(session.summary().has_run);
}

TEST(FrontDoorTest, UnboundSessionAndBadSourceFailCleanly) {
  Session session;
  EXPECT_EQ(session.Run(Database()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.ArmResume(recovery::Snapshot(), "none").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(
      CompiledProgram::Compile("p(X) :- ???", CompileOptions()).ok());
}

TEST(FrontDoorTest, TelemetryJsonHasStableSchema) {
  obs::Telemetry telemetry;
  CompileOptions options;
  options.optimize = true;
  Result<CompiledProgram::Ptr> compiled = CompiledProgram::Compile(
      "tc(X, Y) :- e(X, Y).\n"
      "?- tc(X, Y).\n"
      "e(n0, n1).\n",
      options, &telemetry);
  ASSERT_TRUE(compiled.ok());
  SessionOptions session_options;
  session_options.eval.telemetry = &telemetry;
  Session session(std::move(session_options));
  session.Bind(*compiled);
  // Before any run the document already lists the compiled rules.
  EXPECT_NE(session.TelemetryJson("optimize", "").find("\"text\":\"tc"),
            std::string::npos);
  ASSERT_TRUE(session.Run((*compiled)->facts()).ok());
  std::string json = session.TelemetryJson("run", "inline");
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"command\":\"run\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"rules\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"termination\":\"ok\""), std::string::npos);
}

TEST(FrontDoorTest, TelemetryOffByDefault) {
  Result<CompiledProgram::Ptr> compiled = CompiledProgram::Compile(
      "p(X) :- e(X).\n?- p(X).\ne(n0).\n", CompileOptions());
  ASSERT_TRUE(compiled.ok());
  Session session;
  EXPECT_EQ(session.options().eval.telemetry, nullptr);
  session.Bind(*compiled);
  ASSERT_TRUE(session.Run((*compiled)->facts()).ok());
  // The document stays valid with empty metrics/spans arrays.
  std::string json = session.TelemetryJson("run", "");
  EXPECT_NE(json.find("\"metrics\":[]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"spans\":[]"), std::string::npos) << json;
}

TEST(EvaluatorTest, GroundQueryFalseWhenAbsent) {
  auto parsed = MustParse(
      "e(n0, n1).\n"
      "tc(X,Y) :- e(X,Y).\n"
      "?- tc(n1, n0).\n");
  EvalResult result = testing::MustEval(parsed.program, parsed.edb);
  EXPECT_FALSE(result.ground_query_true);
  EXPECT_TRUE(result.answers.empty());
}

}  // namespace
}  // namespace exdl
