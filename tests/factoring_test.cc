// Argument reduction by factoring (transform/factoring.h, DESIGN.md
// "Factoring bound queries").
//
// The shape tests pin which programs the rewrite accepts and that each
// rejection names its reason. The equivalence tests hold the rewrite to
// the byte-identity contract: a factored compile answers exactly like the
// unoptimized program on seeded random graphs, as a standing view
// maintained over several fact loads, and across a checkpoint/resume.

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/printer.h"
#include "core/compiled_program.h"
#include "core/optimizer.h"
#include "core/session.h"
#include "recovery/checkpoint.h"
#include "service/answer_text.h"
#include "service/query_service.h"
#include "testing/test_util.h"
#include "transform/factoring.h"
#include "transform/magic.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace exdl {
namespace {

using ::exdl::testing::EvalAnswers;
using ::exdl::testing::MustParse;

constexpr const char* kRightLinear =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Y) :- e(X, Z), tc(Z, Y).\n";
constexpr const char* kLeftLinear =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), e(Z, Y).\n";
// Right-linear on e, left-linear on f, and two exit rules.
constexpr const char* kMixed =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Y) :- f(X, Y).\n"
    "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
    "tc(X, Y) :- tc(X, Z), f(Z, Y).\n";
// Ternary, queried bbf: reachability along edges of one colour.
constexpr const char* kLabelled =
    "path(X, C, Y) :- g(X, C, Y).\n"
    "path(X, C, Y) :- g(X, C, Z), path(Z, C, Y).\n";

constexpr const char* kSmallGraph =
    "e(a, b). e(b, c). e(c, a). e(c, d). e(x, y).\n"
    "f(d, z). f(b, w).\n"
    "g(a, red, b). g(b, red, c). g(b, blue, d). g(c, red, e).\n";

/// Factors `source` and checks that the factored program, seeded, answers
/// like the original.
FactoringResult FactorAndCompare(const std::string& source) {
  auto parsed = MustParse(source);
  Result<FactoringResult> factored = FactorBoundQuery(parsed.program);
  EXPECT_TRUE(factored.ok()) << factored.status().ToString();
  if (!factored.ok()) return FactoringResult{Program(parsed.ctx), Atom()};
  EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
            EvalAnswers(factored->program,
                        WithSeed(parsed.edb, factored->seed_fact)));
  return std::move(factored).value();
}

std::string RejectionOf(const std::string& source) {
  auto parsed = MustParse(source);
  Result<FactoringResult> factored = FactorBoundQuery(parsed.program);
  EXPECT_FALSE(factored.ok()) << "unexpectedly factored:\n" << source;
  if (factored.ok()) return "";
  EXPECT_EQ(factored.status().code(), StatusCode::kFailedPrecondition);
  return factored.status().ToString();
}

// --- Accepted shapes --------------------------------------------------------

TEST(FactoringShapeTest, RightLinear) {
  FactoringResult r = FactorAndCompare(std::string(kRightLinear) +
                                       kSmallGraph + "?- tc(a, Y).\n");
  EXPECT_EQ(r.exit_rules, 1u);
  EXPECT_EQ(r.right_linear_rules, 1u);
  EXPECT_EQ(r.left_linear_rules, 0u);
  EXPECT_EQ(ToString(r.program),
            "ans$tc_bf(Y) :- reach$tc_bf(X), e(X, Y).\n"
            "reach$tc_bf(Z) :- reach$tc_bf(X), e(X, Z).\n"
            "?- ans$tc_bf(Y).\n");
  EXPECT_EQ(ToString(r.program.ctx(), r.seed_fact), "reach$tc_bf(a)");
}

TEST(FactoringShapeTest, LeftLinear) {
  FactoringResult r = FactorAndCompare(std::string(kLeftLinear) +
                                       kSmallGraph + "?- tc(a, Y).\n");
  EXPECT_EQ(r.exit_rules, 1u);
  EXPECT_EQ(r.right_linear_rules, 0u);
  EXPECT_EQ(r.left_linear_rules, 1u);
  EXPECT_EQ(ToString(r.program),
            "ans$tc_bf(Y) :- reach$tc_bf(X), e(X, Y).\n"
            "ans$tc_bf(Y) :- ans$tc_bf(Z), e(Z, Y).\n"
            "?- ans$tc_bf(Y).\n");
}

TEST(FactoringShapeTest, RightAndLeftLinearMixed) {
  FactoringResult r = FactorAndCompare(std::string(kMixed) + kSmallGraph +
                                       "?- tc(a, Y).\n");
  EXPECT_EQ(r.exit_rules, 2u);
  EXPECT_EQ(r.right_linear_rules, 1u);
  EXPECT_EQ(r.left_linear_rules, 1u);
}

TEST(FactoringShapeTest, LowerStratumIdbPassesThroughAndUpperRulesDrop) {
  FactoringResult r = FactorAndCompare(
      "hop(X, Y) :- e(X, Z), e(Z, Y).\n"
      "tc(X, Y) :- hop(X, Y).\n"
      "tc(X, Y) :- hop(X, Z), tc(Z, Y).\n"
      "top(Y) :- tc(b, Y).\n" +
      std::string(kSmallGraph) + "?- tc(a, Y).\n");
  EXPECT_EQ(ToString(r.program),
            "hop(X, Y) :- e(X, Z), e(Z, Y).\n"
            "ans$tc_bf(Y) :- reach$tc_bf(X), hop(X, Y).\n"
            "reach$tc_bf(Z) :- reach$tc_bf(X), hop(X, Z).\n"
            "?- ans$tc_bf(Y).\n");
}

TEST(FactoringShapeTest, TernaryBoundBoundFree) {
  FactoringResult r = FactorAndCompare(std::string(kLabelled) + kSmallGraph +
                                       "?- path(a, red, Y).\n");
  EXPECT_EQ(r.right_linear_rules, 1u);
  EXPECT_EQ(ToString(r.program),
            "ans$path_bbf(Y) :- reach$path_bbf(X, C), g(X, C, Y).\n"
            "reach$path_bbf(Z, C) :- reach$path_bbf(X, C), g(X, C, Z).\n"
            "?- ans$path_bbf(Y).\n");
  EXPECT_EQ(ToString(r.program.ctx(), r.seed_fact),
            "reach$path_bbf(a, red)");
}

TEST(FactoringShapeTest, LookalikeUserPredicatesStaySeparate) {
  // The rewrite's predicates are named with a '$', which program text
  // cannot spell: rules and facts over the lookalike user predicates
  // reach_tc_bf / ans_tc_bf are ordinary EDB/IDB relations.
  FactoringResult r = FactorAndCompare(
      std::string(kRightLinear) + "tc(X, Y) :- reach_tc_bf(X), e(X, Y).\n" +
      kSmallGraph + "reach_tc_bf(x).\nans_tc_bf(zz).\n?- tc(a, Y).\n");
  EXPECT_EQ(ToString(r.program.ctx(), r.seed_fact), "reach$tc_bf(a)");
  EXPECT_NE(r.seed_fact.pred,
            r.program.ctx().InternPredicate("reach_tc_bf", 1));
}

// --- Rejected shapes --------------------------------------------------------

TEST(FactoringRejectTest, NonlinearRecursion) {
  EXPECT_NE(RejectionOf("tc(X, Y) :- e(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), tc(Z, Y).\n"
                        "?- tc(a, Y).\n")
                .find("nonlinear"),
            std::string::npos);
}

TEST(FactoringRejectTest, SameGeneration) {
  // examples/same_generation.dl: the recursive literal carries neither the
  // head's free variable (right-linear) nor its bound one (left-linear).
  EXPECT_NE(RejectionOf("sg(X, Y) :- sibling(X, Y).\n"
                        "sg(X, Y) :- parent(X, XP), sg(XP, YP), "
                        "parent(Y, YP).\n"
                        "?- sg(a, Y).\n")
                .find("neither right- nor left-linear"),
            std::string::npos);
}

TEST(FactoringRejectTest, RepeatedBoundHeadVariable) {
  EXPECT_NE(RejectionOf("p(X, X, Y) :- e(X, Y).\n"
                        "p(X, W, Y) :- e(X, Z), p(Z, W, Y).\n"
                        "?- p(a, b, Y).\n")
                .find("repeats a variable"),
            std::string::npos);
}

TEST(FactoringRejectTest, ConstantInHead) {
  EXPECT_NE(RejectionOf("tc(a, Y) :- e(a, Y).\n"
                        "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                        "?- tc(a, Y).\n")
                .find("constant at a bound head position"),
            std::string::npos);
}

TEST(FactoringRejectTest, AllBoundQuery) {
  EXPECT_NE(RejectionOf(std::string(kRightLinear) + "?- tc(a, b).\n")
                .find("binds every argument"),
            std::string::npos);
}

TEST(FactoringRejectTest, Negation) {
  EXPECT_NE(RejectionOf("tc(X, Y) :- e(X, Y), not blocked(Y).\n"
                        "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                        "?- tc(a, Y).\n")
                .find("negation"),
            std::string::npos);
}

TEST(FactoringRejectTest, FreeQueryAndMutualRecursion) {
  EXPECT_NE(RejectionOf(std::string(kRightLinear) + "?- tc(X, Y).\n")
                .find("binds no argument"),
            std::string::npos);
  EXPECT_NE(RejectionOf("p(X, Y) :- e(X, Y).\n"
                        "p(X, Y) :- e(X, Z), q(Z, Y).\n"
                        "q(X, Y) :- p(X, Y).\n"
                        "?- p(a, Y).\n")
                .find("mutually recursive"),
            std::string::npos);
}

// --- The optimizer phase ----------------------------------------------------

TEST(FactoringPhaseTest, RunsAfterCleanupAndYieldsToMagic) {
  auto parsed = MustParse(std::string(kRightLinear) + "?- tc(a, Y).\n");
  Result<OptimizedProgram> factored = OptimizeExistential(parsed.program);
  ASSERT_TRUE(factored.ok());
  EXPECT_TRUE(factored->report.factored);
  EXPECT_FALSE(factored->report.magic_applied);
  ASSERT_TRUE(factored->magic_seed.has_value());
  // cleanup, then unfold (nothing to inline: the use site of tc@nn is
  // recursive), then factor.
  const std::vector<OptimizationPhase>& phases = factored->report.phases;
  ASSERT_GE(phases.size(), 3u);
  const OptimizationPhase& last = phases.back();
  EXPECT_EQ(last.name, "factor");
  EXPECT_EQ(phases[phases.size() - 2].name, "unfold");
  EXPECT_EQ(phases[phases.size() - 2].detail, "");
  EXPECT_EQ(phases[phases.size() - 3].name, "cleanup");
  EXPECT_EQ(last.detail,
            "factored tc@nn: 1 exit, 1 right-linear, 0 left-linear rule(s)");

  OptimizerOptions magic;
  magic.apply_magic = true;
  Result<OptimizedProgram> magicked =
      OptimizeExistential(parsed.program, magic);
  ASSERT_TRUE(magicked.ok());
  EXPECT_FALSE(magicked->report.factored);
  EXPECT_TRUE(magicked->report.magic_applied);
  for (const OptimizationPhase& phase : magicked->report.phases) {
    EXPECT_NE(phase.name, "factor");
  }
}

TEST(FactoringPhaseTest, UnfactorableProgramsAreLeftAlone) {
  auto parsed = MustParse(std::string(kRightLinear) + "?- tc(a, b).\n");
  Result<OptimizedProgram> optimized = OptimizeExistential(parsed.program);
  ASSERT_TRUE(optimized.ok());
  EXPECT_FALSE(optimized->report.factored);
  EXPECT_FALSE(optimized->magic_seed.has_value());
  EXPECT_EQ(optimized->report.phases.back().name, "factor");
  EXPECT_EQ(optimized->report.phases.back().detail, "");
}

// --- Byte-identity on seeded random graphs ----------------------------------

std::string RandomGraph(uint64_t seed, int nodes, int edges) {
  std::mt19937_64 rng(seed);
  std::string facts;
  for (int i = 0; i < edges; ++i) {
    const int a = static_cast<int>(rng() % nodes);
    const int b = static_cast<int>(rng() % nodes);
    const std::string na = StrCat("n", std::to_string(a));
    const std::string nb = StrCat("n", std::to_string(b));
    facts += StrCat("e(", na, ", ", nb, ").\n");
    if (i % 3 == 0) facts += StrCat("f(", nb, ", ", na, ").\n");
    facts += StrCat("g(", na, ", c", std::to_string(rng() % 3), ", ", nb,
                    ").\n");
  }
  return facts;
}

/// Compiles and runs `source`, returning the rendered answer rows.
std::string Answers(const std::string& source, bool optimize,
                    bool* factored = nullptr) {
  CompileOptions compile;
  compile.optimize = optimize;
  Result<CompiledProgram::Ptr> compiled = CompiledProgram::Compile(source,
                                                                   compile);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return "";
  if (factored != nullptr) *factored = (*compiled)->report().factored;
  Session session{SessionOptions()};
  session.Bind(*compiled);
  Result<EvalResult> result =
      session.Run((*compiled)->SessionEdb(Database()));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "";
  return RenderAnswerRows(*(*compiled)->context(), result->answers);
}

TEST(FactoringEquivalenceTest, RandomGraphs) {
  struct Shape {
    const char* rules;
    const char* query;
  };
  const Shape shapes[] = {{kRightLinear, "?- tc(n1, Y).\n"},
                          {kLeftLinear, "?- tc(n2, Y).\n"},
                          {kMixed, "?- tc(n3, Y).\n"},
                          {kLabelled, "?- path(n4, c1, Y).\n"}};
  for (uint64_t seed : {3u, 17u, 2024u}) {
    const std::string facts = RandomGraph(seed, 160, 320);
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(std::string(shape.query) + " seed " +
                   std::to_string(seed));
      const std::string source = std::string(shape.rules) + facts +
                                 shape.query;
      bool factored = false;
      EXPECT_EQ(Answers(source, /*optimize=*/true, &factored),
                Answers(source, /*optimize=*/false));
      EXPECT_TRUE(factored);
    }
  }
}

// --- Random near-linear programs ---------------------------------------------

/// A random program around the accepted shapes: linear rule templates for
/// a query predicate p, each mutated half the time (a variable swapped,
/// a head argument replaced, an extra literal, arguments permuted), so
/// both sides of every shape condition are generated. Whatever the
/// rewrite accepts must answer exactly like the original.
std::string RandomNearLinearProgram(Rng& rng) {
  const int arity = 2 + static_cast<int>(rng.Below(2));
  std::vector<bool> bound(arity);
  int num_bound = 0;
  while (num_bound == 0 || num_bound == arity) {
    num_bound = 0;
    for (int i = 0; i < arity; ++i) {
      bound[i] = rng.Chance(0.5);
      num_bound += bound[i] ? 1 : 0;
    }
  }
  const char* const kConsts[] = {"a", "b", "c"};
  const char* const kEdb[] = {"e", "g"};
  auto var = [](int i) { return StrCat("V", std::to_string(i)); };
  auto atom = [](const std::string& pred, const std::vector<std::string>& a) {
    return StrCat(pred, "(", Join(a, ", "), ")");
  };
  std::string out;
  auto emit = [&](std::vector<std::string> head,
                  std::vector<std::string> body) {
    // Range-restrict: guard any head variable the body does not bind.
    for (const std::string& h : head) {
      if (h[0] != 'V') continue;
      bool seen = false;
      for (const std::string& b : body) {
        seen = seen || b.find(h + ",") != std::string::npos ||
               b.find(h + ")") != std::string::npos;
      }
      if (!seen) body.push_back(atom("g", {h, h}));
    }
    out += StrCat(atom("p", head), " :- ", Join(body, ", "), ".\n");
  };
  // Exit rule: an EDB literal over the head's variables.
  {
    std::vector<std::string> head;
    for (int i = 0; i < arity; ++i) head.push_back(var(i));
    std::vector<std::string> body = {atom(kEdb[rng.Below(2)],
                                          {var(0), var(arity - 1)})};
    emit(head, body);
  }
  const int recursive = 1 + static_cast<int>(rng.Below(2));
  for (int r = 0; r < recursive; ++r) {
    // Head p(V0..V{n-1}); the recursive literal renames either the bound
    // side (right-linear) or the free side (left-linear) to W variables
    // that one EDB step links to the head.
    const bool right = rng.Chance(0.5);
    std::vector<std::string> head, lit;
    std::vector<std::string> body;
    for (int i = 0; i < arity; ++i) {
      head.push_back(var(i));
      const bool renamed = bound[i] == right;
      lit.push_back(renamed ? StrCat("W", std::to_string(i)) : var(i));
      if (renamed) {
        body.push_back(right ? atom(kEdb[rng.Below(2)], {var(i), lit[i]})
                             : atom(kEdb[rng.Below(2)], {lit[i], var(i)}));
      }
    }
    if (rng.Chance(0.5)) {
      switch (rng.Below(6)) {
        case 0:  // A recursive-literal argument becomes another variable.
          lit[rng.Below(arity)] = var(static_cast<int>(rng.Below(arity)));
          break;
        case 4:  // A recursive-literal argument only that literal binds.
          lit[rng.Below(arity)] = "U";
          break;
        case 5: {  // One position of head and literal: a constant or a
                   // repeat of another position's variable.
          const size_t i = rng.Below(arity);
          head[i] = lit[i] =
              rng.Chance(0.5) ? std::string(kConsts[rng.Below(3)])
                              : var(static_cast<int>((i + 1) % arity));
          break;
        }
        case 1:  // A head argument becomes another variable or a constant.
          head[rng.Below(arity)] =
              rng.Chance(0.3) ? kConsts[rng.Below(3)]
                              : var(static_cast<int>(rng.Below(arity)));
          break;
        case 2:  // An extra literal over any of the rule's variables.
          body.push_back(atom(kEdb[rng.Below(2)],
                              {var(static_cast<int>(rng.Below(arity))),
                               rng.Chance(0.5) ? lit[rng.Below(arity)]
                                               : head[rng.Below(arity)]}));
          break;
        default:  // Two recursive-literal arguments trade places.
          std::swap(lit[0], lit[arity - 1]);
          break;
      }
    }
    body.insert(body.begin() + static_cast<long>(rng.Below(body.size() + 1)),
                atom("p", lit));
    emit(head, body);
  }
  std::vector<std::string> query;
  for (int i = 0; i < arity; ++i) {
    query.push_back(bound[i] ? kConsts[rng.Below(3)]
                             : StrCat("Q", std::to_string(i)));
  }
  out += StrCat("?- ", atom("p", query), ".\n");
  const char* const kNodes[] = {"a", "b", "c", "d", "f"};
  for (const char* pred : kEdb) {
    for (int i = 0; i < 9; ++i) {
      out += StrCat(pred, "(", kNodes[rng.Below(5)], ", ", kNodes[rng.Below(5)],
                    ").\n");
    }
  }
  return out;
}

TEST(FactoringEquivalenceTest, AcceptedNearLinearProgramsAnswerAlike) {
  int accepted = 0;
  int rejected = 0;
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed);
    const std::string source = RandomNearLinearProgram(rng);
    auto parsed = MustParse(source);
    Result<FactoringResult> factored = FactorBoundQuery(parsed.program);
    if (!factored.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    EXPECT_EQ(EvalAnswers(parsed.program, parsed.edb),
              EvalAnswers(factored->program,
                          WithSeed(parsed.edb, factored->seed_fact)))
        << "seed " << seed << ":\n"
        << source << "factored as:\n"
        << ToString(factored->program);
  }
  std::printf("near-linear programs: %d factored, %d rejected\n", accepted,
              rejected);
  // Both sides of the shape conditions are exercised.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

// --- Standing views ---------------------------------------------------------

TEST(FactoringServiceTest, StandingViewMatchesColdSubmitAcrossLoads) {
  ServiceOptions options;
  options.compile.optimize = true;
  QueryService service(options);
  ASSERT_TRUE(service.LoadFacts(RandomGraph(5, 60, 40)).ok());
  QueryRequest request{.source = std::string(kMixed) + "?- tc(n0, Y).\n",
                       .name = "factored"};
  Result<uint64_t> id = service.RegisterStandingQuery(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  for (uint64_t g = 0; g < 6; ++g) {
    ASSERT_TRUE(service.LoadFacts(RandomGraph(100 + g, 60, 12)).ok());
    Result<StandingQueryResult> polled = service.PollStandingQuery(*id);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    QueryResponse cold = service.Await(service.Submit(request));
    ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
    ASSERT_TRUE(cold.program->report().factored);
    EXPECT_EQ(polled->generation, cold.snapshot_generation);
    EXPECT_EQ(polled->answers,
              RenderAnswerRows(*service.ctx(), cold.result.answers))
        << "generation " << g;
    EXPECT_EQ(polled->stats.full_recomputes, 0u);
    EXPECT_TRUE(polled->last_was_incremental);
  }
  // One cold compile for the view, then cache hits: counted once.
  EXPECT_NE(service.MetricsJson().find("\"compile\":{\"factored\":1}"),
            std::string::npos);
}

TEST(FactoringServiceTest, LookalikeFactsAndLoadsAnswerLikeTheOriginal) {
  // Facts for the user predicates ans_tc_bf / reach_tc_bf, in the source
  // and in LOAD_FACTS, must not reach the factored program's predicates.
  const std::string lookalikes = "ans_tc_bf(zz). reach_tc_bf(x).\n";
  const std::string source =
      std::string(kRightLinear) + kSmallGraph + lookalikes + "?- tc(a, Y).\n";
  bool factored = false;
  const std::string reference = Answers(source, /*optimize=*/false);
  EXPECT_EQ(Answers(source, /*optimize=*/true, &factored), reference);
  EXPECT_TRUE(factored);
  EXPECT_EQ(reference.find("zz"), std::string::npos);

  std::string answers[2];
  for (bool optimize : {false, true}) {
    ServiceOptions options;
    options.compile.optimize = optimize;
    QueryService service(options);
    ASSERT_TRUE(service.LoadFacts(kSmallGraph + lookalikes).ok());
    QueryRequest request{.source = std::string(kRightLinear) + "?- tc(a, Y).\n",
                         .name = "lookalike"};
    Result<uint64_t> view = service.RegisterStandingQuery(request);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ASSERT_TRUE(service.LoadFacts("ans_tc_bf(yy). reach_tc_bf(d). e(d, q).")
                    .ok());
    QueryResponse cold = service.Await(service.Submit(request));
    ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
    EXPECT_EQ(cold.program->report().factored, optimize);
    Result<StandingQueryResult> polled = service.PollStandingQuery(*view);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    answers[optimize] = RenderAnswerRows(*service.ctx(), cold.result.answers);
    EXPECT_EQ(polled->answers, answers[optimize]);
  }
  EXPECT_EQ(answers[true], answers[false]);
  EXPECT_NE(answers[false].find("q"), std::string::npos);
  EXPECT_EQ(answers[false].find("zz"), std::string::npos);
  EXPECT_EQ(answers[false].find("yy"), std::string::npos);
}

// --- Checkpoint / resume ----------------------------------------------------

std::string ChainSource(int n, const char* source_node) {
  std::string src = StrCat(kRightLinear, "?- tc(", source_node, ", Y).\n");
  for (int i = 0; i < n; ++i) {
    src += StrCat("e(n", std::to_string(i), ", n", std::to_string(i + 1),
                  ").\n");
  }
  return src;
}

std::string MakeCheckpointDir() {
  std::string templ = ::testing::TempDir() + "/factoring_test_XXXXXX";
  EXPECT_NE(mkdtemp(templ.data()), nullptr);
  return templ;
}

TEST(FactoringRecoveryTest, BudgetTripResumesByteIdentically) {
  CompileOptions compile;
  compile.optimize = true;
  auto compile_chain = [&](const char* source_node) {
    Result<CompiledProgram::Ptr> compiled =
        CompiledProgram::Compile(ChainSource(120, source_node), compile);
    EXPECT_TRUE(compiled.ok());
    EXPECT_TRUE((*compiled)->report().factored);
    return *compiled;
  };
  const CompiledProgram::Ptr program = compile_chain("n0");
  Session reference;
  reference.Bind(program);
  Result<EvalResult> full = reference.Run(program->facts());
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->answers.size(), 120u);

  const std::string dir = MakeCheckpointDir();
  SessionOptions tripping;
  tripping.checkpoint_directory = dir;
  tripping.eval.budget.max_tuples = 200;  // 120 EDB rows + ~40 rounds
  Session tripped(tripping);
  tripped.Bind(program);
  Result<EvalResult> partial = tripped.Run(program->facts());
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->termination.code(), StatusCode::kResourceExhausted);

  Result<recovery::Snapshot> snap =
      recovery::ReadSnapshotFile(recovery::Checkpointer::PathIn(dir));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  Session resumed;
  resumed.Bind(program);
  ASSERT_TRUE(resumed.ArmResume(*snap, "checkpoint").ok());
  Result<EvalResult> finished = resumed.Run(program->facts());
  ASSERT_TRUE(finished.ok());
  EXPECT_TRUE(finished->termination.ok());
  EXPECT_EQ(finished->answers, full->answers);
  EXPECT_EQ(finished->stats.tuples_inserted, full->stats.tuples_inserted);

  // The factored rules are the same for every source node; only the seed
  // differs, and the fingerprint covers it.
  const CompiledProgram::Ptr other = compile_chain("n1");
  EXPECT_EQ(ToString(other->program()), ToString(program->program()));
  EXPECT_NE(CompiledProgram::Fingerprint(other->program(), EvalOptions(),
                                         other->magic_seed()),
            CompiledProgram::Fingerprint(program->program(), EvalOptions(),
                                         program->magic_seed()));
  Session wrong;
  wrong.Bind(other);
  EXPECT_EQ(wrong.ArmResume(std::move(*snap), "checkpoint").code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace exdl
