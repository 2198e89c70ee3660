// Standing-query / IVM tests (DESIGN.md §16).
//
// The contract under test: a registered standing query's polled answers
// are byte-identical to a cold re-evaluation of the same source at the
// same generation — after every fact load, for every physical
// representation, at every pool size — and the maintenance that keeps
// them so is incremental (ivm.full_recomputes stays 0) whenever the
// program is in the incremental fragment. The randomized section drives
// seeded fact-delta schedules (duplicates, new nodes, chain extensions)
// through programs with different plan shapes, so the delta-first
// variant plans and the answer-suffix merge are exercised well past the
// hand-written cases. The concurrency section is TSan fodder:
// register / load / poll / unregister racing on one service.

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ivm/materialized_view.h"
#include "service/answer_text.h"
#include "service/query_service.h"
#include "storage/representation.h"

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
};

std::string Node(int i) { return "n" + std::to_string(i); }

/// One seeded generation of facts: a mix of brand-new edges, re-sent
/// duplicates, and edges introducing fresh nodes. `up`/`f` facts ride
/// along so the same_generation case grows too.
std::string RandomDelta(std::mt19937& rng, int* next_node) {
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
  }
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

ServiceOptions MakeOptions(uint32_t workers, Representation rep) {
  ServiceOptions options;
  options.num_workers = workers;
  options.eval.num_threads = workers;
  options.eval.representation = rep;
  options.compile.optimize = true;
  return options;
}

/// Polls `id` and asserts byte-identity against a cold submission of the
/// same request, plus the incremental-path invariants.
void ExpectPollMatchesCold(QueryService& service, uint64_t id,
                           const QueryRequest& request,
                           bool expect_incremental) {
  Result<StandingQueryResult> polled = service.PollStandingQuery(id);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  QueryResponse cold = service.Await(service.Submit(request));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(polled->generation, cold.snapshot_generation);
  EXPECT_EQ(polled->answers,
            RenderAnswerRows(*service.ctx(), cold.result.answers));
  EXPECT_EQ(polled->answer_count, cold.result.answers.size());
  if (expect_incremental) {
    EXPECT_EQ(polled->stats.full_recomputes, 0u);
    EXPECT_EQ(polled->fallback, ivm::Fallback::kNone);
    EXPECT_TRUE(polled->last_was_incremental);
  }
}

TEST(IvmRandomizedTest, IncrementalMatchesColdEverywhere) {
  const Representation reps[] = {Representation::kTuple,
                                 Representation::kBitset};
  for (uint32_t workers : {1u, 4u}) {
    for (Representation rep : reps) {
      for (uint32_t seed : {7u, 1234u}) {
        std::mt19937 rng(seed);
        int next_node = 0;
        const std::string base = BaseFacts(rng, &next_node);
        QueryService service(MakeOptions(workers, rep));
        ASSERT_TRUE(service.LoadFacts(base).ok());
        std::vector<QueryRequest> requests;
        std::vector<uint64_t> ids;
        for (const IvmCase& c : kCases) {
          QueryRequest request{.source = c.source, .name = c.label};
          Result<uint64_t> id = service.RegisterStandingQuery(request);
          ASSERT_TRUE(id.ok()) << c.label << ": " << id.status().ToString();
          requests.push_back(std::move(request));
          ids.push_back(*id);
        }
        for (int g = 0; g < 5; ++g) {
          ASSERT_TRUE(
              service.LoadFacts(RandomDelta(rng, &next_node)).ok());
          for (size_t q = 0; q < ids.size(); ++q) {
            SCOPED_TRACE(std::string(kCases[q].label) + " workers=" +
                         std::to_string(workers) + " rep=" +
                         RepresentationName(rep) + " seed=" +
                         std::to_string(seed) + " gen=" +
                         std::to_string(g));
            ExpectPollMatchesCold(service, ids[q], requests[q],
                                  /*expect_incremental=*/true);
          }
        }
      }
    }
  }
}

TEST(IvmTest, PollReflectsRegistrationSnapshot) {
  QueryService service(MakeOptions(1, Representation::kBitset));
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
  QueryService service(MakeOptions(1, Representation::kBitset));
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
  QueryService service(MakeOptions(1, Representation::kBitset));
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
  QueryService service(MakeOptions(1, Representation::kBitset));
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
  QueryService service(MakeOptions(1, Representation::kBitset));
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
  QueryService service(MakeOptions(1, Representation::kBitset));
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
}

// Concurrency smoke (run under TSan in CI): registrations, fact loads,
// polls, and unregistrations race on one service; every poll that
// succeeds must be internally consistent.
TEST(IvmConcurrencyTest, RegisterLoadPollRace) {
  QueryService service(MakeOptions(4, Representation::kBitset));
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
