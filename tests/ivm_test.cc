// Standing-query / IVM tests (DESIGN.md §16).
//
// The contract under test: a registered standing query's polled answers
// are byte-identical to a cold re-evaluation of the same source at the
// same generation — after every fact load, at every pool size — and the
// maintenance that keeps them so is incremental (ivm.full_recomputes
// stays 0) whenever the program is in the incremental fragment. The
// randomized section drives seeded fact-delta schedules (duplicates, new
// nodes, chain extensions) through programs with different plan shapes,
// so the delta-first variant plans and the answer-suffix merge are
// exercised well past the hand-written cases. The concurrency section is
// TSan fodder: register / load / poll / unregister racing on one service.

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_program.h"
#include "ivm/materialized_view.h"
#include "parser/parser.h"
#include "service/answer_text.h"
#include "service/query_service.h"
#include "testing/test_util.h"
#include "util/string_util.h"

namespace exdl {
namespace {

struct IvmCase {
  const char* label;
  /// Rules + query only; facts arrive through LoadFacts.
  const char* source;
};

// Plan-shape variety: the delta literal lands at different positions in
// the main plan, so maintenance exercises both the "already outermost"
// and the delta-first-variant paths.
const IvmCase kCases[] = {
    {"tc",
     "tc(X, Y) :- e(X, Y).\n"
     "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
     "?- tc(n0, Y).\n"},
    {"same_generation",
     "sg(X, Y) :- f(X, Y).\n"
     "sg(X, Y) :- up(X, XP), sg(XP, YP), up(Y, YP).\n"
     "?- sg(n0, Y).\n"},
    {"edb_query",  // The query predicate is itself an EDB relation.
     "reach(X) :- e(n0, X).\n"
     "reach(X) :- e(Y, X), reach(Y).\n"
     "?- e(n0, Y).\n"},
    {"projection",  // Existential head projection + union of two rules.
     "out(X) :- e(X, Y).\n"
     "out(X) :- e(Y, X), e(X, Z).\n"
     "?- out(X).\n"},
    {"late_predicate",  // g/1 first appears after registration.
     "late(X) :- e(X, Y), g(Y).\n"
     "late(X) :- e(X, Y), late(Y).\n"
     "?- late(X).\n"},
    // The cases below read the relations whose ownership the view's
    // maintenance decides per predicate (DESIGN.md §16, "Who owns a
    // relation"); RandomDelta loads facts for each of them.
    {"derived_load",  // seen/1 is derived and loaded (and a source fact
                      // for it keeps the optimizer from renaming it).
     "seen(n0).\n"
     "seen(Y) :- seen(X), up(X, Y).\n"
     "?- seen(Y).\n"},
    {"own_facts",  // mark/1 is populated by a source fact and by loads.
     "mark(n0).\n"
     "tagged(X) :- mark(X).\n"
     "tagged(Y) :- mark(X), up(X, Y).\n"
     "?- tagged(X).\n"},
    {"new_edb",  // k/1 is first loaded two generations after registration.
     "kr(X) :- k(X).\n"
     "kr(X) :- up(X, Y), kr(Y).\n"
     "?- kr(X).\n"},
    {"introduced_load",  // The compile introduces bq_0 :- e(zz, _).
     "tc(X, Y) :- e(X, Y).\n"
     "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
     "q(X) :- up(X, Y), tc(zz, Z).\n"
     "?- q(X).\n"},
};

std::string Node(int i) { return StrCat("n", std::to_string(i)); }

/// Generation `gen`'s seeded facts: a mix of brand-new edges, re-sent
/// duplicates, and edges introducing fresh nodes. `up`/`f` facts ride
/// along so the same_generation case grows too, and `g` facts — which
/// BaseFacts never loads — so late_predicate's body reads a relation the
/// view's watermark does not list. The tail loads a derived predicate
/// (`seen`), one the program's own facts populate (`mark`), one derived
/// only in the source (`tc`, which factoring replaces), a predicate new
/// from generation 2 (`k`) and a name the compile introduces (`bq_0`);
/// generation 3 makes introduced_load's boolean true.
std::string RandomDelta(std::mt19937& rng, int* next_node, int gen) {
  std::uniform_int_distribution<int> coin(0, 99);
  std::string facts;
  const int edges = 3 + static_cast<int>(rng() % 5);
  for (int i = 0; i < edges; ++i) {
    int a, b;
    const int kind = coin(rng);
    if (kind < 20) {
      // Fresh node: extends the reachable frontier.
      a = static_cast<int>(rng() % *next_node);
      b = (*next_node)++;
    } else {
      a = static_cast<int>(rng() % *next_node);
      b = static_cast<int>(rng() % *next_node);
    }
    facts += "e(" + Node(a) + ", " + Node(b) + ").\n";
    if (kind < 10) facts += "e(" + Node(a) + ", " + Node(b) + ").\n";  // dup
    if (coin(rng) < 30) {
      facts += "up(" + Node(b) + ", " + Node(a) + ").\n";
    }
    if (coin(rng) < 10) {
      facts += "f(" + Node(a) + ", " + Node(a) + ").\n";
    }
    if (coin(rng) < 40) {
      // Any known node: most have an old incoming edge, so only the g
      // delta can derive their predecessors.
      facts += "g(" + Node(static_cast<int>(rng() % *next_node)) + ").\n";
    }
  }
  auto any_node = [&] { return Node(static_cast<int>(rng() % *next_node)); };
  facts += "seen(" + any_node() + ").\n";
  facts += "mark(" + any_node() + ").\n";
  const std::string tc_from = any_node();
  facts += "tc(" + tc_from + ", " + any_node() + ").\n";
  if (gen >= 2) facts += "k(" + any_node() + ").\n";
  if (coin(rng) < 50) facts += "bq_0.\n";
  if (gen == 3) facts += "e(zz, n1).\n";
  return facts;
}

std::string BaseFacts(std::mt19937& rng, int* next_node) {
  *next_node = 12;
  std::string facts = "f(n0, n0).\n";
  for (int i = 0; i + 1 < 12; ++i) {
    facts += "e(" + Node(i) + ", " + Node(i + 1) + ").\n";
    facts += "up(" + Node(i + 1) + ", " + Node(i) + ").\n";
  }
  for (int i = 0; i < 6; ++i) {
    facts += "e(" + Node(rng() % 12) + ", " + Node(rng() % 12) + ").\n";
  }
  return facts;
}

ServiceOptions MakeOptions(uint32_t workers, bool optimize = true) {
  ServiceOptions options;
  options.num_workers = workers;
  options.compile.optimize = optimize;
  return options;
}

/// Polls `id` and asserts byte-identity against a cold submission of the
/// same request, plus the incremental-path invariants. A view on an
/// optimized artifact switches to the program as written when the cold run
/// does (a load put rows under a predicate its source derives): one full
/// recompute in that generation, incremental ones after it. `switched`
/// carries whether the previous poll already saw the switch; callers that
/// poll every generation pass it.
void ExpectPollMatchesCold(QueryService& service, uint64_t id,
                           const QueryRequest& request,
                           bool expect_incremental,
                           bool* switched = nullptr) {
  Result<StandingQueryResult> polled = service.PollStandingQuery(id);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  QueryResponse cold = service.Await(service.Submit(request));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(polled->generation, cold.snapshot_generation);
  EXPECT_EQ(polled->answers,
            RenderAnswerRows(*service.ctx(), cold.result.answers));
  EXPECT_EQ(polled->answer_count, cold.result.answers.size());
  if (expect_incremental) {
    const bool now =
        service.options().compile.optimize && !cold.program->optimized();
    const bool before = switched != nullptr && *switched;
    if (switched != nullptr) *switched = now;
    EXPECT_EQ(polled->stats.full_recomputes, now ? 1u : 0u);
    EXPECT_EQ(polled->fallback, ivm::Fallback::kNone);
    EXPECT_EQ(polled->last_was_incremental, !now || before);
  }
}

// Unoptimized programs keep their source names: there the loads of `tc`
// land in a relation the tc view derives.
TEST(IvmRandomizedTest, IncrementalMatchesColdEverywhere) {
  for (uint32_t workers : {1u, 4u}) {
    for (uint32_t seed : {7u, 1234u}) {
      for (bool optimize : {true, false}) {
        std::mt19937 rng(seed);
        int next_node = 0;
        const std::string base = BaseFacts(rng, &next_node);
        QueryService service(MakeOptions(workers, optimize));
        ASSERT_TRUE(service.LoadFacts(base).ok());
        std::vector<QueryRequest> requests;
        std::vector<uint64_t> ids;
        bool switched[std::size(kCases)] = {};
        for (const IvmCase& c : kCases) {
          QueryRequest request{.source = c.source, .name = c.label};
          Result<uint64_t> id = service.RegisterStandingQuery(request);
          ASSERT_TRUE(id.ok()) << c.label << ": " << id.status().ToString();
          requests.push_back(std::move(request));
          ids.push_back(*id);
        }
        for (int g = 0; g < 5; ++g) {
          ASSERT_TRUE(
              service.LoadFacts(RandomDelta(rng, &next_node, g)).ok());
          for (size_t q = 0; q < ids.size(); ++q) {
            SCOPED_TRACE(std::string(kCases[q].label) + " workers=" +
                         std::to_string(workers) + " seed=" +
                         std::to_string(seed) + " optimize=" +
                         std::to_string(optimize) + " gen=" +
                         std::to_string(g));
            ExpectPollMatchesCold(service, ids[q], requests[q],
                                  /*expect_incremental=*/true, &switched[q]);
          }
        }
      }
    }
  }
}

TEST(IvmTest, PollReflectsRegistrationSnapshot) {
  QueryService service(MakeOptions(1));
  ASSERT_TRUE(service.LoadFacts("e(a, b). e(b, c).").ok());
  QueryRequest request{
      .source = "tc(X, Y) :- e(X, Y).\n"
                "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                "?- tc(a, Y).\n",
      .name = "tc"};
  Result<uint64_t> id = service.RegisterStandingQuery(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  Result<StandingQueryResult> polled = service.PollStandingQuery(*id);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->answer_count, 2u);  // b, c
  EXPECT_EQ(polled->name, "tc");
  EXPECT_TRUE(polled->last_was_incremental);
  EXPECT_EQ(polled->stats.generations_applied, 0u);
}

TEST(IvmTest, DuplicateLoadIsANoOpGeneration) {
  QueryService service(MakeOptions(1));
  ASSERT_TRUE(service.LoadFacts("e(a, b). e(b, c).").ok());
  QueryRequest request{
      .source = "tc(X, Y) :- e(X, Y).\n"
                "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                "?- tc(a, Y).\n",
      .name = "tc"};
  Result<uint64_t> id = service.RegisterStandingQuery(request);
  ASSERT_TRUE(id.ok());
  // Every fact already present: the maintained fixpoint is unchanged but
  // the view still advances to the new generation.
  ASSERT_TRUE(service.LoadFacts("e(a, b). e(b, c).").ok());
  ExpectPollMatchesCold(service, *id, request, /*expect_incremental=*/true);
  Result<StandingQueryResult> polled = service.PollStandingQuery(*id);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->stats.generations_applied, 1u);
  EXPECT_EQ(polled->stats.tuples_rederived, 0u);
}

TEST(IvmTest, GroundQueryFlipsAndStays) {
  QueryService service(MakeOptions(1));
  ASSERT_TRUE(service.LoadFacts("e(a, b).").ok());
  QueryRequest request{
      .source = "tc(X, Y) :- e(X, Y).\n"
                "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                "?- tc(a, z).\n",
      .name = "ground"};
  Result<uint64_t> id = service.RegisterStandingQuery(request);
  ASSERT_TRUE(id.ok());
  Result<StandingQueryResult> before = service.PollStandingQuery(*id);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->answer_count, 0u);
  ASSERT_TRUE(service.LoadFacts("e(b, z).").ok());
  ExpectPollMatchesCold(service, *id, request, /*expect_incremental=*/true);
  Result<StandingQueryResult> after = service.PollStandingQuery(*id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->answer_count, 1u);
}

TEST(IvmTest, NegationFallsBackToReseedAndStaysCorrect) {
  QueryService service(MakeOptions(1));
  ASSERT_TRUE(service.LoadFacts("e(a, b). e(b, c). blocked(c).").ok());
  QueryRequest request{
      .source = "ok(X, Y) :- e(X, Y), not blocked(Y).\n"
                "?- ok(X, Y).\n",
      .name = "negation"};
  Result<uint64_t> id = service.RegisterStandingQuery(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Inserts are not monotone under negation: every generation must full
  // recompute, and the poll says so.
  ASSERT_TRUE(service.LoadFacts("e(c, d). blocked(b).").ok());
  Result<StandingQueryResult> polled = service.PollStandingQuery(*id);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->fallback, ivm::Fallback::kNegation);
  EXPECT_FALSE(polled->last_was_incremental);
  EXPECT_EQ(polled->stats.full_recomputes, 1u);
  QueryResponse cold = service.Await(service.Submit(request));
  ASSERT_TRUE(cold.status.ok());
  EXPECT_EQ(polled->answers,
            RenderAnswerRows(*service.ctx(), cold.result.answers));
}

TEST(IvmTest, UnregisterRetiresTheView) {
  QueryService service(MakeOptions(1));
  ASSERT_TRUE(service.LoadFacts("e(a, b).").ok());
  QueryRequest request{.source = "p(X, Y) :- e(X, Y).\n?- p(X, Y).\n",
                       .name = "p"};
  Result<uint64_t> id = service.RegisterStandingQuery(request);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(service.UnregisterStandingQuery(*id).ok());
  EXPECT_FALSE(service.PollStandingQuery(*id).ok());
  EXPECT_FALSE(service.UnregisterStandingQuery(*id).ok());
  // Retained counters keep the metrics object monotone.
  const std::string metrics = service.MetricsJson();
  EXPECT_NE(metrics.find("\"ivm\""), std::string::npos);
}

TEST(IvmTest, MetricsJsonCarriesIvmObject) {
  QueryService service(MakeOptions(1));
  ASSERT_TRUE(service.LoadFacts("e(a, b).").ok());
  QueryRequest request{
      .source = "tc(X, Y) :- e(X, Y).\n"
                "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                "?- tc(a, Y).\n",
      .name = "tc"};
  ASSERT_TRUE(service.RegisterStandingQuery(request).ok());
  ASSERT_TRUE(service.LoadFacts("e(b, c).").ok());
  const std::string metrics = service.MetricsJson();
  EXPECT_NE(metrics.find("\"ivm\""), std::string::npos);
  EXPECT_NE(metrics.find("\"maintained_queries\""), std::string::npos);
  EXPECT_NE(metrics.find("\"full_recomputes\""), std::string::npos);
  // The support gauges: the live view's ledger counts something, in
  // dense columns of at most 8 bytes per counted tuple here.
  auto gauge = [&](const std::string& key) -> uint64_t {
    const size_t at = metrics.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos) return 0;
    return std::stoull(metrics.substr(at + key.size() + 3));
  };
  const uint64_t support_tuples = gauge("support_tuples");
  const uint64_t support_bytes = gauge("support_bytes");
  EXPECT_GT(support_tuples, 0u);
  EXPECT_GT(support_bytes, 0u);
  // The view owns the relations it derives, not the loaded `e`.
  EXPECT_GT(gauge("private_bytes"), 0u);
}

// --- Support ledger (DESIGN.md §16, "Counting support") ---

/// Parses `source`'s facts into `ctx` (the atoms, in source order).
std::vector<Atom> ParseAtoms(const std::string& source,
                             const ContextPtr& ctx) {
  Result<ParsedUnit> parsed = ParseProgram(source, ctx);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? parsed->facts : std::vector<Atom>{};
}

CompiledProgram::Ptr CompileSource(const std::string& source, bool optimize,
                                   const ContextPtr& ctx) {
  CompileOptions options;
  options.optimize = optimize;
  Result<CompiledProgram::Ptr> compiled =
      CompiledProgram::Compile(source, options, nullptr, ctx);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return compiled.ok() ? *compiled : nullptr;
}

/// A view of `compiled` seeded over `edb` at generation 1 by Reseed, the
/// path a view that missed a generation takes.
std::unique_ptr<ivm::MaterializedView> ReseededView(
    const CompiledProgram::Ptr& compiled, const EvalOptions& eval,
    const Database& edb) {
  auto view = std::make_unique<ivm::MaterializedView>(
      compiled, eval, EvalResult{}, 0, nullptr);
  EXPECT_TRUE(view->Reseed(edb, 1).ok());
  return view;
}

uint64_t SumOfCounts(const ivm::SupportLedger& ledger) {
  uint64_t sum = 0;
  for (const std::vector<uint32_t>& column : ledger.columns()) {
    sum = std::accumulate(column.begin(), column.end(), sum);
  }
  return sum;
}

TEST(SupportLedgerTest, DiamondCountsByHand) {
  auto ctx = std::make_shared<Context>();
  // a -> b -> d and a -> c -> d: tc(a, d) and reach(d) have exactly two
  // derivations (via b and via c), every other derived tuple one. reach
  // is unary: its re-derivations are matched to row ids when the
  // evaluation finishes.
  const Database edges =
      testing::MustParseWith(ctx, "e(a, b). e(a, c). e(b, d). e(c, d).").edb;
  CompiledProgram::Ptr compiled = CompileSource(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "reach(Y) :- e(a, Y).\n"
      "reach(Y) :- reach(X), e(X, Y).\n"
      "?- tc(a, Y).\n",
      /*optimize=*/false, ctx);
  ASSERT_NE(compiled, nullptr);
  auto view = ReseededView(compiled, EvalOptions{}, edges);
  const ivm::SupportLedger* support = view->support();
  ASSERT_NE(support, nullptr);
  const PredId tc = ctx->InternPredicate("tc", 2);
  const PredId e = ctx->InternPredicate("e", 2);
  const PredId reach = ctx->InternPredicate("reach", 1);
  auto sym = [&](const char* name) { return ctx->InternSymbol(name); };
  auto tc_support = [&](PredId pred, const char* x, const char* y) {
    const Value row[] = {sym(x), sym(y)};
    return support->SupportOf(view->result().db, pred, row);
  };
  auto reach_support = [&](const char* y) {
    const Value row[] = {sym(y)};
    return support->SupportOf(view->result().db, reach, row);
  };
  EXPECT_EQ(tc_support(tc, "a", "d"), 2u);
  EXPECT_EQ(tc_support(tc, "a", "b"), 1u);
  EXPECT_EQ(tc_support(tc, "b", "d"), 1u);
  EXPECT_EQ(tc_support(tc, "c", "d"), 1u);
  EXPECT_EQ(tc_support(tc, "d", "a"), 0u);  // Not a tuple at all.
  EXPECT_EQ(tc_support(e, "a", "b"), 0u);   // EDB: extrinsic, no support.
  EXPECT_EQ(tc_support(e, "c", "d"), 0u);
  EXPECT_EQ(reach_support("d"), 2u);
  EXPECT_EQ(reach_support("b"), 1u);
  EXPECT_EQ(reach_support("a"), 0u);
  EXPECT_EQ(support->tracked_tuples(), 8u);
  EXPECT_EQ(support->total_derivations(), 10u);
  EXPECT_EQ(SumOfCounts(*support), support->total_derivations());

  // A third branch a -> y -> d, loaded as one generation: the delta run
  // inserts tc(a, y), tc(y, d), reach(y), and only then re-derives the
  // older tc(a, d) and reach(d) — duplicates of rows other than the last.
  Database snapshot = edges.Clone();
  const std::vector<Atom> delta = ParseAtoms("e(a, y). e(y, d).", ctx);
  for (const Atom& fact : delta) ASSERT_TRUE(snapshot.AddFact(fact).ok());
  ASSERT_TRUE(view->Apply(delta, 2, snapshot).ok());
  EXPECT_TRUE(view->last_was_incremental());
  ASSERT_EQ(view->support(), support);
  EXPECT_EQ(tc_support(tc, "a", "d"), 3u);
  EXPECT_EQ(tc_support(tc, "a", "y"), 1u);
  EXPECT_EQ(tc_support(tc, "y", "d"), 1u);
  EXPECT_EQ(reach_support("d"), 3u);
  EXPECT_EQ(reach_support("y"), 1u);
  EXPECT_EQ(support->tracked_tuples(), 11u);
  EXPECT_EQ(SumOfCounts(*support), support->total_derivations());
}

TEST(SupportLedgerTest, CountsSumToDerivationsOnRandomDeltas) {
  for (uint32_t seed : {7u, 1234u}) {
    for (const IvmCase& c : kCases) {
      SCOPED_TRACE(std::string(c.label) + " seed=" + std::to_string(seed));
      auto ctx = std::make_shared<Context>();
      CompiledProgram::Ptr compiled =
          CompileSource(c.source, /*optimize=*/true, ctx);
      ASSERT_NE(compiled, nullptr);
      std::mt19937 rng(seed);
      int next_node = 0;
      const Database base =
          testing::MustParseWith(ctx, BaseFacts(rng, &next_node)).edb;
      std::vector<std::vector<Atom>> deltas;
      for (int g = 0; g < 5; ++g) {
        deltas.push_back(ParseAtoms(RandomDelta(rng, &next_node, g), ctx));
      }
      Database snapshot = base.Clone();
      auto view = ReseededView(compiled, EvalOptions{}, snapshot);
      for (size_t g = 0; g < deltas.size(); ++g) {
        for (const Atom& fact : deltas[g]) {
          ASSERT_TRUE(snapshot.AddFact(fact).ok());
        }
        ASSERT_TRUE(view->Apply(deltas[g], g + 2, snapshot).ok());
        ASSERT_TRUE(view->last_was_incremental());
      }
      const ivm::SupportLedger* support = view->support();
      ASSERT_NE(support, nullptr);
      // The optimizer deletes edb_query's rules (the query reads e
      // itself), so that view derives nothing; the rest must count.
      if (std::string_view(c.label) != "edb_query") {
        EXPECT_GT(support->tracked_tuples(), 0u);
      }
      EXPECT_EQ(SumOfCounts(*support), support->total_derivations());
    }
  }
}

TEST(SupportLedgerTest, OnlyIncrementalViewsKeepALedger) {
  auto ctx = std::make_shared<Context>();
  const Database facts =
      testing::MustParseWith(ctx, "e(a, b). e(b, c). blocked(c).").edb;
  const std::vector<Atom> delta = ParseAtoms("e(c, d). blocked(b).", ctx);
  Database snapshot = facts.Clone();
  for (const Atom& fact : delta) ASSERT_TRUE(snapshot.AddFact(fact).ok());

  // A fallback view recomputes every generation: a ledger handed in is
  // dropped, and the recomputes build none.
  CompiledProgram::Ptr negation = CompileSource(
      "ok(X, Y) :- e(X, Y), not blocked(Y).\n?- ok(X, Y).\n",
      /*optimize=*/false, ctx);
  ASSERT_NE(negation, nullptr);
  ivm::MaterializedView fallback(negation, EvalOptions{}, EvalResult{}, 1,
                                 std::make_unique<ivm::SupportLedger>());
  ASSERT_EQ(fallback.fallback(), ivm::Fallback::kNegation);
  EXPECT_EQ(fallback.support(), nullptr);
  ASSERT_TRUE(fallback.Apply(delta, 2, snapshot).ok());
  EXPECT_FALSE(fallback.last_was_incremental());
  EXPECT_EQ(fallback.support(), nullptr);

  // An incremental view reseeded after a missed generation gets a fresh
  // ledger that observed the recompute.
  CompiledProgram::Ptr tc = CompileSource(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "?- tc(a, Y).\n",
      /*optimize=*/false, ctx);
  ASSERT_NE(tc, nullptr);
  auto view = ReseededView(tc, EvalOptions{}, facts);
  ASSERT_TRUE(view->Reseed(snapshot, 3).ok());
  ASSERT_NE(view->support(), nullptr);
  EXPECT_EQ(view->stats().full_recomputes, 2u);
  EXPECT_EQ(view->support()->tracked_tuples(), 6u);  // tc over a-b-c-d
}

// Ownership (DESIGN.md §16, "Who owns a relation"): after five loads
// every view, optimized or not, holds the published snapshot's own `e`,
// so the EDB is stored once however many views there are, while a
// relation a view derives and loads also write stays the view's own copy:
// derived_load's `seen`, and `tc` where the unoptimized tc view keeps it.
TEST(IvmTest, ViewsShareThePublishedEdb) {
  auto ctx = std::make_shared<Context>();
  std::mt19937 rng(7);
  int next_node = 0;
  auto published = std::make_shared<const Database>(
      testing::MustParseWith(ctx, BaseFacts(rng, &next_node)).edb);
  struct Maintained {
    std::string_view label;
    bool optimize;
    std::unique_ptr<ivm::MaterializedView> view;
  };
  std::vector<Maintained> views;
  for (bool optimize : {true, false}) {
    for (const IvmCase& c : kCases) {
      CompiledProgram::Ptr compiled =
          CompileSource(c.source, optimize, ctx);
      ASSERT_NE(compiled, nullptr);
      views.push_back(
          {c.label, optimize, ReseededView(compiled, EvalOptions{}, *published)});
    }
  }
  for (int g = 0; g < 5; ++g) {
    const std::vector<Atom> delta =
        ParseAtoms(RandomDelta(rng, &next_node, g), ctx);
    // Published as QueryService publishes: a clone of the last
    // generation plus the load's rows.
    Database next = published->Clone();
    for (const Atom& fact : delta) ASSERT_TRUE(next.AddFact(fact).ok());
    published = std::make_shared<const Database>(std::move(next));
    for (const Maintained& m : views) {
      ASSERT_TRUE(m.view->Apply(delta, g + 2, *published).ok());
      ASSERT_TRUE(m.view->last_was_incremental());
    }
  }
  const PredId e = ctx->InternPredicate("e", 2);
  auto expect_owned = [&](const Maintained& m, PredId pred) {
    const Relation* derived = m.view->result().db.Find(pred);
    ASSERT_NE(derived, nullptr);
    EXPECT_FALSE(derived->SharesStorageWith(*published->Find(pred)));
    EXPECT_GE(m.view->private_bytes(), derived->storage_bytes());
  };
  for (const Maintained& m : views) {
    SCOPED_TRACE(std::string(m.label) +
                 " optimize=" + std::to_string(m.optimize));
    const Relation* held = m.view->result().db.Find(e);
    ASSERT_NE(held, nullptr);
    EXPECT_TRUE(held->SharesStorageWith(*published->Find(e)));
    if (m.label == "derived_load") {
      expect_owned(m, ctx->InternPredicate("seen", 1));
    }
    if (m.label == "tc" && !m.optimize) {
      expect_owned(m, ctx->InternPredicate("tc", 2));
    }
    if (m.label == "edb_query" && m.optimize) {
      // Its rules are deleted: the view writes nothing and owns nothing.
      EXPECT_EQ(m.view->private_bytes(), 0u);
    }
  }
}

// Concurrency smoke (run under TSan in CI): registrations, fact loads,
// polls, and unregistrations race on one service; every poll that
// succeeds must be internally consistent.
TEST(IvmConcurrencyTest, RegisterLoadPollRace) {
  QueryService service(MakeOptions(4));
  ASSERT_TRUE(service.LoadFacts("e(n0, n1). e(n1, n2).").ok());
  QueryRequest request{
      .source = "tc(X, Y) :- e(X, Y).\n"
                "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                "?- tc(n0, Y).\n",
      .name = "tc"};
  Result<uint64_t> root = service.RegisterStandingQuery(request);
  ASSERT_TRUE(root.ok());
  std::atomic<bool> stop{false};
  std::atomic<int> loads{0};
  std::thread loader([&] {
    for (int g = 0; g < 20; ++g) {
      std::string facts = "e(" + Node(2 + g) + ", " + Node(3 + g) + ").\n";
      ASSERT_TRUE(service.LoadFacts(facts).ok());
      loads.fetch_add(1);
    }
    stop.store(true);
  });
  std::thread poller([&] {
    while (!stop.load()) {
      Result<StandingQueryResult> polled = service.PollStandingQuery(*root);
      ASSERT_TRUE(polled.ok());
      ASSERT_EQ(polled->stats.full_recomputes, 0u);
    }
  });
  std::thread churn([&] {
    while (!stop.load()) {
      QueryRequest r{.source = request.source, .name = "churn"};
      Result<uint64_t> id = service.RegisterStandingQuery(r);
      if (id.ok()) {
        (void)service.PollStandingQuery(*id);
        (void)service.UnregisterStandingQuery(*id);
      }
    }
  });
  loader.join();
  poller.join();
  churn.join();
  // Quiescent again: the root view must match a cold run exactly.
  ExpectPollMatchesCold(service, *root, request,
                        /*expect_incremental=*/true);
}

}  // namespace
}  // namespace exdl
