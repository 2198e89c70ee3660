// QueryService / ProgramCache / DatabaseSnapshot tests (DESIGN.md §12):
// concurrent sessions over one shared EDB snapshot produce answers
// byte-identical to a serial per-file Session loop for every pool size,
// warm cache hits skip re-parse/re-optimize, snapshot generations
// isolate in-flight readers from fact loads, and the copy-on-write
// storage layer underneath shares payloads until first write.

#include <atomic>
#include <chrono>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ast/printer.h"
#include "core/compiled_program.h"
#include "core/session.h"
#include "service/answer_text.h"
#include "service/program_cache.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "testing/test_util.h"
#include "util/cancellation.h"
#include "util/string_util.h"

namespace exdl {
namespace {

// The three example programs, inlined so the test does not depend on the
// source tree layout at run time.
constexpr char kTcChain[] = R"(
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
?- tc(n0, Y).
e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4). e(n4, n5). e(n5, n6).
e(n6, n7). e(n7, n8). e(n8, n9). e(n9, n10). e(n10, n11).
e(n2, n7). e(n5, n1).
)";

constexpr char kReachBoolean[] = R"(
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
?- reach(s, t).
edge(s, m0). edge(m0, m1). edge(m1, m2). edge(m2, t).
edge(s, k0). edge(k0, k1). edge(k1, s).
)";

constexpr char kSameGeneration[] = R"(
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).
?- sg(a, Y).
sibling(p, q). sibling(q, p).
parent(a, p). parent(b, q). parent(c, q).
parent(d, a). parent(e, b). parent(f, c).
)";

std::vector<std::string> AnswerStrings(const Context& ctx,
                                       const AnswerRows& answers) {
  std::vector<std::string> out;
  out.reserve(answers.size());
  for (std::span<const Value> row : answers) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ",";
      s += ctx.SymbolName(row[i]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Serial reference: one fresh compile and Session per source, never
/// through QueryService.
std::vector<std::string> SerialAnswers(const std::string& source,
                                       bool optimize = false) {
  CompileOptions options;
  options.optimize = optimize;
  Result<CompiledProgram::Ptr> compiled =
      CompiledProgram::Compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  Session session;
  session.Bind(*compiled);
  Result<EvalResult> result = session.Run((*compiled)->facts());
  EXPECT_TRUE(result.ok());
  return AnswerStrings(*(*compiled)->context(), result->answers);
}

// ---------------------------------------------------------------------------
// ProgramCache

CompiledProgram::Ptr MustCompile(const std::string& source,
                                 const CompileOptions& options = {}) {
  Result<CompiledProgram::Ptr> compiled =
      CompiledProgram::Compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return *compiled;
}

TEST(ProgramCacheTest, HitOnSameFingerprint) {
  ProgramCache cache(4);
  const std::string key =
      CompiledProgram::CacheKeyMaterial(kTcChain, CompileOptions());
  EXPECT_EQ(cache.Lookup(key), nullptr);
  CompiledProgram::Ptr compiled = MustCompile(kTcChain);
  cache.Insert(key, compiled);
  EXPECT_EQ(cache.Lookup(key), compiled);
  ProgramCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

// The cache indexes entries by the full key bytes, not a 64-bit hash of
// them, so two distinct (source, options) pairs can never alias an entry
// even if their CacheKey fingerprints were to collide.
TEST(ProgramCacheTest, DistinctSourcesNeverAlias) {
  ProgramCache cache(4);
  CompiledProgram::Ptr tc = MustCompile(kTcChain);
  CompiledProgram::Ptr reach = MustCompile(kReachBoolean);
  cache.Insert(CompiledProgram::CacheKeyMaterial(kTcChain, CompileOptions()),
               tc);
  cache.Insert(
      CompiledProgram::CacheKeyMaterial(kReachBoolean, CompileOptions()),
      reach);
  EXPECT_EQ(
      cache.Lookup(CompiledProgram::CacheKeyMaterial(kTcChain,
                                                     CompileOptions())),
      tc);
  EXPECT_EQ(
      cache.Lookup(CompiledProgram::CacheKeyMaterial(kReachBoolean,
                                                     CompileOptions())),
      reach);
  // Same source, different pipeline: distinct entries too.
  CompileOptions optimized;
  optimized.optimize = true;
  EXPECT_EQ(
      cache.Lookup(CompiledProgram::CacheKeyMaterial(kTcChain, optimized)),
      nullptr);
}

// Evaluation semantics are not part of the key (they do not change the
// artifact); QueryServiceTest.NaiveSemanticsComeFromEvalOptionsAlone
// covers a naive service sharing the compile options of a semi-naive one.
TEST(ProgramCacheTest, KeyChangesWithPipeline) {
  CompileOptions base;
  const uint64_t k0 = CompiledProgram::CacheKey(kTcChain, base);
  EXPECT_EQ(k0, CompiledProgram::CacheKey(kTcChain, base));

  CompileOptions optimized = base;
  optimized.optimize = true;
  EXPECT_NE(k0, CompiledProgram::CacheKey(kTcChain, optimized));

  CompileOptions magic = optimized;
  magic.optimizer.apply_magic = true;
  EXPECT_NE(CompiledProgram::CacheKey(kTcChain, optimized),
            CompiledProgram::CacheKey(kTcChain, magic));

  EXPECT_NE(k0, CompiledProgram::CacheKey(kReachBoolean, base));
}

TEST(ProgramCacheTest, BoundedEviction) {
  ProgramCache cache(2);
  CompiledProgram::Ptr compiled = MustCompile(kTcChain);
  cache.Insert("k1", compiled);
  cache.Insert("k2", compiled);
  EXPECT_NE(cache.Lookup("k1"), nullptr);  // k1 is now most recently used.
  cache.Insert("k3", compiled);            // Evicts k2 (LRU).
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup("k2"), nullptr);
  EXPECT_NE(cache.Lookup("k1"), nullptr);
  EXPECT_NE(cache.Lookup("k3"), nullptr);
}

TEST(ProgramCacheTest, ZeroCapacityDisables) {
  ProgramCache cache(0);
  cache.Insert("k1", MustCompile(kTcChain));
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
}

// ---------------------------------------------------------------------------
// Copy-on-write storage underneath the snapshots

TEST(StorageCoWTest, CloneSharesUntilFirstWrite) {
  testing::ParsedProgram parsed = testing::MustParse(kTcChain);
  Database clone = parsed.edb.Clone();
  for (const auto& [pred, rel] : parsed.edb.relations()) {
    ASSERT_NE(clone.Find(pred), nullptr);
    EXPECT_TRUE(rel.SharesStorageWith(*clone.Find(pred)));
  }
  // First write detaches only the written relation; the original keeps
  // its tuples and the other relations stay shared.
  auto it = clone.relations().begin();
  const PredId pred = it->first;
  Relation* rel = clone.FindMutable(pred);
  const size_t before = parsed.edb.Find(pred)->size();
  std::vector<Value> row(rel->arity(), 0);
  rel->Insert(row);
  EXPECT_FALSE(parsed.edb.Find(pred)->SharesStorageWith(*rel));
  EXPECT_EQ(parsed.edb.Find(pred)->size(), before);
}

// Regression (TSan): a copy-on-write detach deep-copies the shared
// payload — indexes map included — while another sharer may be lazily
// building an index into that same map via const GetIndex. The payload
// copy takes index_mu so the two serialize. This is the QueryService
// shape: one worker Inserts a compiled program's facts into its EDB
// clone (detach) while another evaluates over the shared snapshot
// (lazy index build).
TEST(StorageCoWTest, DetachRacesLazyIndexBuild) {
  for (int iter = 0; iter < 100; ++iter) {
    Relation base(2);
    std::vector<Value> row(2);
    for (Value v = 1; v <= 64; ++v) {
      row[0] = v;
      row[1] = v + 1;
      base.Insert(row);
    }
    Relation reader = base;  // Shares the payload.
    Relation writer = base;  // Shares the payload too.
    std::thread builder([&] {
      for (uint32_t c = 0; c < 2; ++c) {
        std::vector<Value> key = {c == 0 ? Value(1) : Value(2)};
        EXPECT_FALSE(reader.GetIndex({c}).Lookup(key).empty());
      }
    });
    // Concurrently detach `writer` from the shared payload (first Insert
    // deep-copies it, racing the lazy builds above without the fix).
    row[0] = 999;
    row[1] = 1000;
    writer.Insert(row);
    builder.join();
    EXPECT_FALSE(writer.SharesStorageWith(base));
    EXPECT_TRUE(reader.SharesStorageWith(base));
    EXPECT_EQ(base.size(), 64u);
    EXPECT_EQ(writer.size(), 65u);
  }
}

// ---------------------------------------------------------------------------
// QueryService

TEST(QueryServiceTest, MatchesSerialEngineAcrossPoolSizes) {
  const std::vector<std::string> sources = {kTcChain, kReachBoolean,
                                            kSameGeneration};
  std::vector<std::vector<std::string>> expected;
  for (const std::string& source : sources) {
    expected.push_back(SerialAnswers(source));
  }
  for (uint32_t workers : {1u, 2u, 4u}) {
    ServiceOptions options;
    options.num_workers = workers;
    QueryService service(options);
    std::vector<QueryRequest> requests;
    // Several rounds of every source: later rounds hit the cache.
    for (int round = 0; round < 4; ++round) {
      for (size_t i = 0; i < sources.size(); ++i) {
        requests.push_back(
            QueryRequest{.source = sources[i],
                         .name = StrCat("q", std::to_string(i))});
      }
    }
    std::vector<QueryService::Ticket> tickets =
        service.SubmitBatch(std::move(requests));
    for (size_t t = 0; t < tickets.size(); ++t) {
      QueryResponse response = service.Await(tickets[t]);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_TRUE(response.result.termination.ok());
      EXPECT_EQ(AnswerStrings(*service.ctx(), response.result.answers),
                expected[t % sources.size()])
          << "workers=" << workers << " ticket=" << t;
    }
    ProgramCache::Stats stats = service.cache_stats();
    EXPECT_EQ(stats.misses, sources.size());
    EXPECT_EQ(stats.hits, tickets.size() - sources.size());
  }
}

TEST(QueryServiceTest, RawAnswersIdenticalAcrossPoolSizes) {
  // Compiles intern on the submitting thread in call order, so interning
  // order — and therefore the raw Value ids in every answer — is
  // independent of the worker count.
  auto run = [](uint32_t workers) {
    ServiceOptions options;
    options.num_workers = workers;
    QueryService service(options);
    std::vector<QueryRequest> requests;
    for (int round = 0; round < 3; ++round) {
      requests.push_back(QueryRequest{.source = kSameGeneration, .name = "sg"});
      requests.push_back(QueryRequest{.source = kTcChain, .name = "tc"});
      requests.push_back(
          QueryRequest{.source = kReachBoolean, .name = "reach"});
    }
    std::vector<AnswerRows> answers;
    for (QueryService::Ticket ticket :
         service.SubmitBatch(std::move(requests))) {
      QueryResponse response = service.Await(ticket);
      EXPECT_TRUE(response.status.ok());
      answers.push_back(response.result.answers);
    }
    return answers;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(4), serial);
}

TEST(QueryServiceTest, WarmCacheSkipsParseAndOptimize) {
  ServiceOptions options;
  options.num_workers = 2;
  options.compile.optimize = true;
  options.collect_telemetry = true;
  QueryService service(options);

  QueryResponse cold = service.Await(
      service.Submit({.source = kReachBoolean, .name = "cold"}));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_NE(cold.program, nullptr);
  EXPECT_TRUE(cold.program->optimized());
  // The cold compile ran the optimizer: its spans are in the document.
  EXPECT_NE(cold.telemetry_json.find("optimize >"), std::string::npos);

  QueryResponse warm = service.Await(
      service.Submit({.source = kReachBoolean, .name = "warm"}));
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  // Same shared artifact, not a recompiled one.
  EXPECT_EQ(warm.program.get(), cold.program.get());
  // No re-parse / re-optimize on the warm path: no optimizer spans.
  EXPECT_EQ(warm.telemetry_json.find("optimize >"), std::string::npos);
  EXPECT_EQ(AnswerStrings(*service.ctx(), warm.result.answers),
            AnswerStrings(*service.ctx(), cold.result.answers));
  EXPECT_GE(service.cache_stats().hits, 1u);

  // The merged service document reports the hit.
  const std::string metrics = service.MetricsJson();
  EXPECT_NE(metrics.find("service.cache.hit"), std::string::npos);
  EXPECT_NE(metrics.find("\"service\""), std::string::npos);
}

TEST(QueryServiceTest, CachedBoundQueryIsFactoredUnlessMagicIsAsked) {
  ServiceOptions options;
  options.compile.optimize = true;
  options.collect_telemetry = true;
  QueryService service(options);
  const std::vector<std::string> expected = SerialAnswers(kTcChain);

  QueryResponse cold =
      service.Await(service.Submit({.source = kTcChain, .name = "cold"}));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_NE(cold.program, nullptr);
  EXPECT_TRUE(cold.program->report().factored);
  ASSERT_TRUE(cold.program->magic_seed().has_value());
  // The seed is an atom of the artifact, not a row of its facts.
  EXPECT_EQ(cold.program->facts().Find(cold.program->magic_seed()->pred),
            nullptr);
  EXPECT_EQ(AnswerStrings(*service.ctx(), cold.result.answers), expected);
  // The per-query document shows the rewrite: the phase detail names the
  // predicate, the phase span counts the rules by kind.
  EXPECT_NE(cold.telemetry_json.find("factored tc@nn"), std::string::npos);
  EXPECT_NE(cold.telemetry_json.find("\"right_linear_rules\":1"),
            std::string::npos);
  EXPECT_NE(cold.telemetry_json.find("\"name\":\"optimize.factored\""),
            std::string::npos);

  QueryResponse warm =
      service.Await(service.Submit({.source = kTcChain, .name = "warm"}));
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.program.get(), cold.program.get());
  EXPECT_EQ(AnswerStrings(*service.ctx(), warm.result.answers), expected);
  const std::string metrics = service.MetricsJson();
  EXPECT_NE(metrics.find("\"compile\":{\"factored\":1}"), std::string::npos);
  EXPECT_NE(metrics.find("service.compile.factored"), std::string::npos);

  // An explicit magic request wins: the artifact is the magic rewrite.
  ServiceOptions magic_options = options;
  magic_options.compile.optimizer.apply_magic = true;
  QueryService magic_service(magic_options);
  QueryResponse magic = magic_service.Await(
      magic_service.Submit({.source = kTcChain, .name = "magic"}));
  ASSERT_TRUE(magic.status.ok()) << magic.status.ToString();
  EXPECT_TRUE(magic.program->report().magic_applied);
  EXPECT_FALSE(magic.program->report().factored);
  ASSERT_TRUE(magic.program->magic_seed().has_value());
  EXPECT_EQ(magic_service.ctx()->PredicateDisplayName(
                magic.program->magic_seed()->pred),
            "magic_tc@nn_bf");
  EXPECT_EQ(AnswerStrings(*magic_service.ctx(), magic.result.answers),
            expected);
  EXPECT_NE(magic_service.MetricsJson().find("\"compile\":{\"factored\":0}"),
            std::string::npos);
}

TEST(QueryServiceTest, SnapshotGenerationsIsolateFactLoads) {
  const std::string rules = "tc(X, Y) :- e(X, Y).\n"
                            "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                            "?- tc(a, Y).\n";
  QueryService service;
  EXPECT_FALSE(service.snapshot().valid());

  ASSERT_TRUE(service.LoadFacts("e(a, b). e(b, c).").ok());
  EXPECT_EQ(service.snapshot().generation(), 1u);
  QueryResponse gen1 =
      service.Await(service.Submit({.source = rules, .name = "gen1"}));
  ASSERT_TRUE(gen1.status.ok()) << gen1.status.ToString();
  EXPECT_EQ(gen1.snapshot_generation, 1u);
  EXPECT_EQ(AnswerStrings(*service.ctx(), gen1.result.answers),
            (std::vector<std::string>{"b", "c"}));

  ASSERT_TRUE(service.LoadFacts("e(c, d).").ok());
  EXPECT_EQ(service.snapshot().generation(), 2u);
  QueryResponse gen2 =
      service.Await(service.Submit({.source = rules, .name = "gen2"}));
  ASSERT_TRUE(gen2.status.ok());
  EXPECT_EQ(gen2.snapshot_generation, 2u);
  EXPECT_EQ(AnswerStrings(*service.ctx(), gen2.result.answers),
            (std::vector<std::string>{"b", "c", "d"}));

  // Rules are not facts, and adorned versions belong to the optimizer.
  EXPECT_FALSE(service.LoadFacts("p(X) :- e(X, Y).").ok());
  const Status adorned = service.LoadFacts("e(x, y). tc@nd(z).");
  EXPECT_EQ(adorned.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(adorned.ToString().find("adorned predicate"), std::string::npos);
  EXPECT_EQ(service.snapshot().generation(), 2u);
}

// The §3.1 boolean of serve_mix, true and false: the optimized service
// (which unfolds tc@nd into the boolean's rule) renders byte-identically
// to the unoptimized one, across fact loads.
TEST(QueryServiceTest, OptimizedBooleansRenderLikeUnoptimized) {
  const std::string rules = "tc(X, Y) :- e(X, Y).\n"
                            "tc(X, Y) :- e(X, Z), tc(Z, Y).\n";
  const std::vector<std::string> queries = {
      rules + "hit :- e(a, Y), tc(Y, _).\n?- hit.\n",  // true
      rules + "hit :- e(c, Y), tc(Y, _).\n?- hit.\n",  // false at gen 1
      rules + "hit :- e(z, Y), tc(Y, _).\n?- hit.\n",  // no such node
      rules + "q(X) :- tc(X, _).\n?- q(X).\n"};
  auto render = [&](bool optimize) {
    ServiceOptions options;
    options.compile.optimize = optimize;
    QueryService service(options);
    std::vector<std::string> out;
    for (const char* load : {"e(a, b). e(b, c).", "e(c, d). e(d, a)."}) {
      EXPECT_TRUE(service.LoadFacts(load).ok());
      for (const std::string& source : queries) {
        QueryResponse response =
            service.Await(service.Submit({.source = source}));
        EXPECT_TRUE(response.status.ok()) << response.status.ToString();
        if (optimize && source.find("hit") != std::string::npos) {
          EXPECT_EQ(response.program->report().predicates_unfolded, 1u);
        }
        out.push_back(std::to_string(response.result.answers.size()) + ":" +
                      RenderAnswerRows(*service.ctx(),
                                       response.result.answers));
      }
    }
    return out;
  };
  const std::vector<std::string> plain = render(false);
  EXPECT_EQ(render(true), plain);
  // True renders as one empty row, false as no row.
  EXPECT_EQ(plain[0], "1:\n");
  EXPECT_EQ(plain[1], "0:");
  EXPECT_EQ(plain[5], "1:\n");
}

// The optimizer's own predicates start empty whatever a load put under
// their names: facts for `bq_0` loaded before the compile, or `bq_1`
// loaded after it, leave the boolean component `bq_0 :- b(c1, Y)` false.
TEST(QueryServiceTest, LoadedFactsCannotSatisfyAGeneratedBoolean) {
  const std::string source = "q(X) :- a(X), b(c1, Y).\n?- q(X).\n";
  auto render = [&](bool optimize) {
    ServiceOptions options;
    options.compile.optimize = optimize;
    QueryService service(options);
    std::vector<std::string> out;
    for (const char* load : {"a(x). a(y). bq_0.", "bq_1.", "b(c1, z)."}) {
      EXPECT_TRUE(service.LoadFacts(load).ok());
      QueryResponse response =
          service.Await(service.Submit({.source = source}));
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      if (optimize) {
        EXPECT_EQ(response.program->report().booleans_created, 1u);
        EXPECT_NE(ToString(response.program->program()).find("bq_0"),
                  std::string::npos);
      }
      out.push_back(std::to_string(response.result.answers.size()) + ":" +
                    RenderAnswerRows(*service.ctx(), response.result.answers));
    }
    return out;
  };
  const std::vector<std::string> plain = render(false);
  EXPECT_EQ(render(true), plain);
  EXPECT_EQ(plain[0], "0:");
  EXPECT_EQ(plain[1], "0:");
  EXPECT_EQ(plain[2], "2:x\ny\n");
}

// Loaded facts for a predicate the source derives are read as the source
// reads them: the optimized Example 1 is `q@n(X) :- e(X, Y)`, which never
// reads `tc` or `q`, so an optimized service falls back to the program as
// written once the snapshot holds such rows.
TEST(QueryServiceTest, LoadedFactsForADerivedPredicateAreKept) {
  const std::string source =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "q(X) :- tc(X, _).\n?- q(X).\n";
  auto render = [&](bool optimize) {
    ServiceOptions options;
    options.compile.optimize = optimize;
    QueryService service(options);
    std::vector<std::string> out;
    for (const char* load : {"e(a, b).", "tc(z, w).", "q(k)."}) {
      EXPECT_TRUE(service.LoadFacts(load).ok());
      QueryResponse response =
          service.Await(service.Submit({.source = source}));
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      // Only the first generation holds no derived rows.
      EXPECT_EQ(response.program->optimized(),
                optimize && response.snapshot_generation == 1);
      out.push_back(RenderAnswerRows(*service.ctx(), response.result.answers));
    }
    // The fallback artifact has its own cache entry: a second submit at
    // the same generation hits it.
    EXPECT_TRUE(service.Await(service.Submit({.source = source})).cache_hit);
    return out;
  };
  const std::vector<std::string> plain = render(false);
  EXPECT_EQ(render(true), plain);
  EXPECT_EQ(plain, (std::vector<std::string>{"a\n", "a\nz\n", "a\nz\nk\n"}));
}

// A standing view ignores loads under the compile's own names as a cold
// run does: `bq_0.` loaded after registration leaves the boolean component
// `bq_0 :- e(a, Y)` false, so the view keeps answering nothing.
TEST(QueryServiceTest, StandingViewIgnoresLoadsOfAGeneratedBoolean) {
  ServiceOptions options;
  options.compile.optimize = true;
  QueryService service(options);
  ASSERT_TRUE(service.LoadFacts("e(b, c).").ok());
  const QueryRequest request{
      .source = "tc(X, Y) :- e(X, Y).\n"
                "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                "q(X) :- e(X, Y), tc(a, Z).\n"
                "?- q(X).\n",
      .name = "q"};
  Result<uint64_t> id = service.RegisterStandingQuery(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(service.LoadFacts("bq_0.").ok());
  QueryResponse cold = service.Await(service.Submit(request));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_NE(ToString(cold.program->program()).find("bq_0 :- e(a, "),
            std::string::npos);
  EXPECT_TRUE(cold.result.answers.empty());
  Result<StandingQueryResult> polled = service.PollStandingQuery(*id);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_EQ(polled->generation, cold.snapshot_generation);
  EXPECT_EQ(polled->answer_count, 0u);
  EXPECT_EQ(polled->answers,
            RenderAnswerRows(*service.ctx(), cold.result.answers));
}

// A standing view obeys SUBMIT's artifact rule: once a load puts rows
// under a predicate the source derives, the optimized view (`q@n(X) :-
// e(X, Y)`, which never reads `tc` or `q`) reseeds on the program as
// written and then polls like a cold SUBMIT. The switch reuses names the
// registration already interned.
TEST(QueryServiceTest, StandingViewKeepsLoadedFactsForADerivedPredicate) {
  ServiceOptions options;
  options.compile.optimize = true;
  QueryService service(options);
  ASSERT_TRUE(service.LoadFacts("e(a, b).").ok());
  const QueryRequest request{.source = "tc(X, Y) :- e(X, Y).\n"
                                       "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                                       "q(X) :- tc(X, _).\n?- q(X).\n",
                             .name = "q"};
  Result<uint64_t> id = service.RegisterStandingQuery(request);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const size_t predicates = service.ctx()->NumPredicates();
  ASSERT_TRUE(service.LoadFacts("tc(z, w).").ok());
  EXPECT_EQ(service.ctx()->NumPredicates(), predicates);
  Result<StandingQueryResult> switched = service.PollStandingQuery(*id);
  ASSERT_TRUE(switched.ok()) << switched.status().ToString();
  EXPECT_FALSE(switched->last_was_incremental);
  EXPECT_EQ(switched->stats.full_recomputes, 1u);
  ASSERT_TRUE(service.LoadFacts("q(k).").ok());
  Result<StandingQueryResult> applied = service.PollStandingQuery(*id);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(applied->last_was_incremental);

  const std::vector<std::string> expected = {"a\nz\n", "a\nz\nk\n"};
  const StandingQueryResult* polls[] = {&*switched, &*applied};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(polls[i]->answers, expected[i]) << "poll " << i;
  }
  // A cold SUBMIT of the last generation renders what the view holds.
  QueryResponse cold = service.Await(service.Submit(request));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.snapshot_generation, applied->generation);
  EXPECT_EQ(RenderAnswerRows(*service.ctx(), cold.result.answers),
            applied->answers);
}

// LoadFacts counts the relations it detaches from the published snapshot
// and the bytes each detach copied (service.load.cow_*).
TEST(QueryServiceTest, LoadFactsCountsCopyOnWriteDetaches) {
  QueryService service;
  auto counter = [&](const std::string& key) -> uint64_t {
    const std::string metrics = service.MetricsJson();
    const size_t at = metrics.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos) return 0;
    return std::stoull(metrics.substr(at + key.size() + 3));
  };
  std::string facts;
  for (int i = 0; i < 200; ++i) {
    facts += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  ASSERT_TRUE(service.LoadFacts(facts).ok());
  EXPECT_EQ(counter("cow_detaches"), 0u);  // Nothing was published before.
  const PredId e_pred = service.ctx()->InternPredicate("e", 2);
  const size_t unindexed_bytes =
      service.snapshot().db().Find(e_pred)->storage_bytes();

  // A one-shot query builds its index on e inside the published snapshot.
  QueryResponse response = service.Await(
      service.Submit({.source = "tc(X, Y) :- e(X, Y).\n"
                                "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                                "?- tc(n0, Y).\n",
                      .name = "tc"}));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const DatabaseSnapshot parent = service.snapshot();
  const size_t e_bytes = parent.db().Find(e_pred)->storage_bytes();
  EXPECT_GT(e_bytes, unindexed_bytes);

  ASSERT_TRUE(
      service.LoadFacts("e(m0, m1). e(m1, m2). e(m2, m3). e(m3, m4).").ok());
  EXPECT_EQ(counter("cow_detaches"), 1u);
  const uint64_t copied = counter("cow_bytes_copied");
  EXPECT_GE(copied, e_bytes);

  // A predicate new to the EDB has nothing to detach.
  ASSERT_TRUE(service.LoadFacts("f(a). f(b). f(c). f(d).").ok());
  EXPECT_EQ(counter("cow_detaches"), 1u);
  EXPECT_EQ(counter("cow_bytes_copied"), copied);
  EXPECT_NE(service.MetricsJson().find("service.load.cow_detaches"),
            std::string::npos);
}

TEST(QueryServiceTest, SharedSnapshotStress) {
  // Many sessions over one shared snapshot, program facts on top.
  std::string facts;
  for (int i = 0; i < 40; ++i) {
    facts += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  const std::string rules = "tc(X, Y) :- e(X, Y).\n"
                            "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                            "?- tc(n0, Y).\n";
  const std::vector<std::string> expected =
      SerialAnswers(rules + facts);

  ServiceOptions options;
  options.num_workers = 4;
  QueryService service(options);
  ASSERT_TRUE(service.LoadFacts(facts).ok());
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 24; ++i) {
    requests.push_back(QueryRequest{.source = rules,
                                    .name = "stress" + std::to_string(i)});
  }
  for (QueryService::Ticket ticket :
       service.SubmitBatch(std::move(requests))) {
    QueryResponse response = service.Await(ticket);
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(AnswerStrings(*service.ctx(), response.result.answers),
              expected);
  }
  // The published snapshot itself was never written through.
  EXPECT_EQ(service.snapshot().generation(), 1u);
  EXPECT_EQ(service.snapshot().db().TotalTuples(), 40u);
}

TEST(QueryServiceTest, RenderWhileLoadsInternFreshSymbols) {
  // Each render resolves its symbols under one Context::ReadTables lock
  // and copies the names after releasing it, while LoadFacts interns new
  // symbols on another thread; every render must equal the serial one.
  std::string facts;
  for (int i = 0; i < 8192; ++i) {
    facts += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  QueryService service;
  ASSERT_TRUE(service.LoadFacts(facts).ok());
  QueryResponse response = service.Await(service.Submit(
      {.source = "p(X, Y) :- e(X, Y).\n?- p(X, Y).\n", .name = "p"}));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const AnswerRows& answers = response.result.answers;
  ASSERT_EQ(answers.size(), 8192u);
  const std::string serial = RenderAnswerRows(*service.ctx(), answers);

  std::atomic<bool> loading{true};
  std::atomic<int> renders{0};
  std::atomic<int> mismatches{0};
  auto render = [&] {
    do {
      if (RenderAnswerRows(*service.ctx(), answers) != serial) ++mismatches;
      ++renders;
    } while (loading.load());
  };
  std::thread loader([&] {
    for (int load = 0; load < 32; ++load) {
      std::string fresh;
      for (int i = 0; i < 64; ++i) {
        fresh += "f(fresh" + std::to_string(load * 64 + i) + ").\n";
      }
      EXPECT_TRUE(service.LoadFacts(fresh).ok());
    }
    loading = false;
  });
  std::thread first(render);
  std::thread second(render);
  loader.join();
  first.join();
  second.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(renders.load(), 2);
  EXPECT_TRUE(service.ctx()->FindSymbol("fresh2047").has_value());
}

TEST(QueryServiceTest, PerSessionBudget) {
  ServiceOptions options;
  options.num_workers = 2;
  options.eval.budget.max_tuples = 5;  // Trips on the 40-edge closure.
  QueryService service(options);
  QueryResponse response =
      service.Await(service.Submit({.source = kTcChain, .name = "budgeted"}));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.result.termination.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(response.result.stats.budget_tripped, BudgetKind::kTuples);
}

// Each worker publishes its query's response as soon as that query
// finishes, so a tiny query submitted after a long one returns while the
// long one still runs. The long query is a naive closure that joins r
// with itself (cubic in the chain length: minutes, yet a few thousand
// tuples); its Cancelled termination proves it was still running.
TEST(QueryServiceTest, ShortQueryIsNotHeldBehindALongOne) {
  std::string facts;
  for (int i = 0; i < 3000; ++i) {
    facts += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  ServiceOptions options;
  options.num_workers = 2;
  options.eval.seminaive = false;
  QueryService service(options);
  ASSERT_TRUE(service.LoadFacts(facts).ok());
  CancellationToken cancel;
  EvalBudget budget;
  budget.cancellation = &cancel;
  const QueryService::Ticket long_ticket = service.Submit(
      {.source = "r(Y) :- e(n0, Y).\n"
                 "r(Y) :- r(X), r(Z), e(X, Y).\n"
                 "?- r(Y).\n",
       .name = "long",
       .budget = budget});
  const QueryService::Ticket tiny_ticket = service.Submit(
      {.source = "q(Y) :- e(n0, Y).\n?- q(Y).\n", .name = "tiny"});
  std::optional<QueryResponse> tiny =
      service.AwaitFor(tiny_ticket, std::chrono::seconds(10));
  cancel.Cancel();
  QueryResponse long_response = service.Await(long_ticket);
  ASSERT_TRUE(tiny.has_value()) << "the tiny query waited for the long one";
  ASSERT_TRUE(tiny->status.ok()) << tiny->status.ToString();
  EXPECT_EQ(AnswerStrings(*service.ctx(), tiny->result.answers),
            std::vector<std::string>{"n1"});
  ASSERT_TRUE(long_response.status.ok()) << long_response.status.ToString();
  EXPECT_EQ(long_response.result.termination.code(), StatusCode::kCancelled);
}

// A load never waits for queries: with the one worker busy on a long
// query and a tiny one queued behind it, LoadFacts from another thread
// returns while the long query still runs (its Cancelled termination,
// after the load returned, proves it was running).
TEST(QueryServiceTest, LoadIsNotHeldBehindARunningQuery) {
  std::string facts;
  for (int i = 0; i < 3000; ++i) {
    facts += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  ServiceOptions options;
  options.num_workers = 1;
  options.eval.seminaive = false;
  QueryService service(options);
  ASSERT_TRUE(service.LoadFacts(facts).ok());
  CancellationToken cancel;
  EvalBudget budget;
  budget.cancellation = &cancel;
  const QueryService::Ticket long_ticket = service.Submit(
      {.source = "r(Y) :- e(n0, Y).\n"
                 "r(Y) :- r(X), r(Z), e(X, Y).\n"
                 "?- r(Y).\n",
       .name = "long",
       .budget = budget});
  const QueryService::Ticket tiny_ticket = service.Submit(
      {.source = "q(Y) :- e(n0, Y).\n?- q(Y).\n", .name = "tiny"});
  std::promise<Status> loaded;
  std::future<Status> load = loaded.get_future();
  std::thread loader([&] { loaded.set_value(service.LoadFacts("f(a).")); });
  const bool in_time =
      load.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  cancel.Cancel();
  loader.join();
  QueryResponse long_response = service.Await(long_ticket);
  QueryResponse tiny = service.Await(tiny_ticket);
  ASSERT_TRUE(in_time) << "the load waited for the running query";
  EXPECT_TRUE(load.get().ok());
  ASSERT_TRUE(long_response.status.ok()) << long_response.status.ToString();
  EXPECT_EQ(long_response.result.termination.code(), StatusCode::kCancelled);
  ASSERT_TRUE(tiny.status.ok()) << tiny.status.ToString();
  // Submitted before the load, so it reads the generation before it.
  EXPECT_EQ(tiny.snapshot_generation, 1u);
  EXPECT_EQ(AnswerStrings(*service.ctx(), tiny.result.answers),
            std::vector<std::string>{"n1"});
}

TEST(QueryServiceTest, CompileErrorsAreIsolated) {
  QueryService service;
  std::vector<QueryService::Ticket> tickets = service.SubmitBatch(
      {QueryRequest{.source = "p(X :- q(X).", .name = "bad"},
       QueryRequest{.source = kTcChain, .name = "good"}});
  QueryResponse bad = service.Await(tickets[0]);
  EXPECT_FALSE(bad.status.ok());
  QueryResponse good = service.Await(tickets[1]);
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_EQ(AnswerStrings(*service.ctx(), good.result.answers),
            SerialAnswers(kTcChain));
}

TEST(QueryServiceTest, UnknownTicketRejected) {
  QueryService service;
  QueryResponse response = service.Await(12345);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  // Double-await of a consumed ticket is rejected too.
  QueryService::Ticket ticket =
      service.Submit({.source = kTcChain, .name = "once"});
  EXPECT_TRUE(service.Await(ticket).status.ok());
  EXPECT_EQ(service.Await(ticket).status.code(),
            StatusCode::kInvalidArgument);
}

// Evaluation semantics have one home, ServiceOptions::eval: a naive
// service with untouched compile options answers byte-identically to a
// semi-naive one, really evaluates naively, and its standing views take
// the naive IVM fallback — a full recompute on every load.
TEST(QueryServiceTest, NaiveSemanticsComeFromEvalOptionsAlone) {
  ServiceOptions naive_options;
  naive_options.eval.seminaive = false;
  QueryService naive(naive_options);
  QueryService seminaive;
  for (const char* source : {kTcChain, kReachBoolean, kSameGeneration}) {
    QueryResponse n = naive.Await(naive.Submit({.source = source}));
    QueryResponse s = seminaive.Await(seminaive.Submit({.source = source}));
    ASSERT_TRUE(n.status.ok()) << n.status.ToString();
    ASSERT_TRUE(s.status.ok()) << s.status.ToString();
    EXPECT_EQ(RenderAnswerRows(*naive.ctx(), n.result.answers),
              RenderAnswerRows(*seminaive.ctx(), s.result.answers));
    if (source == kTcChain) {
      // Naive rounds re-fire every rule over the whole database.
      EXPECT_GT(n.result.stats.rule_firings, s.result.stats.rule_firings);
    }
  }

  constexpr char kView[] =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
      "?- tc(a, Y).\n";
  ASSERT_TRUE(naive.LoadFacts("e(a, b).\n").ok());
  Result<uint64_t> id = naive.RegisterStandingQuery({.source = kView});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const char* loads[] = {"e(b, c).\n", "e(c, d).\n", "e(d, a).\n"};
  for (const char* facts : loads) {
    ASSERT_TRUE(naive.LoadFacts(facts).ok());
  }
  Result<StandingQueryResult> polled = naive.PollStandingQuery(*id);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_EQ(polled->fallback, ivm::Fallback::kNaive);
  EXPECT_FALSE(polled->last_was_incremental);
  EXPECT_EQ(polled->stats.full_recomputes, std::size(loads));
  EXPECT_EQ(polled->stats.delta_rounds, 0u);
  QueryResponse cold = naive.Await(naive.Submit({.source = kView}));
  ASSERT_TRUE(cold.status.ok());
  EXPECT_EQ(polled->answers,
            RenderAnswerRows(*naive.ctx(), cold.result.answers));
  EXPECT_EQ(polled->answer_count, 4u);
}

// ---------------------------------------------------------------------------
// API v2 pieces on their own

TEST(CompiledProgramTest, FingerprintBindsSemantics) {
  testing::ParsedProgram parsed = testing::MustParse(kTcChain);
  EvalOptions seminaive;
  EvalOptions naive;
  naive.seminaive = false;
  EXPECT_NE(CompiledProgram::Fingerprint(parsed.program, seminaive,
                                         std::nullopt),
            CompiledProgram::Fingerprint(parsed.program, naive, std::nullopt));
}

TEST(SessionTest, ManySessionsShareOneCompiledProgram) {
  CompileOptions options;
  options.optimize = true;
  CompiledProgram::Ptr compiled = MustCompile(kSameGeneration, options);
  const std::vector<std::string> expected =
      SerialAnswers(kSameGeneration, /*optimize=*/true);
  for (int i = 0; i < 3; ++i) {
    Session session;
    session.Bind(compiled);
    Result<EvalResult> result = session.Run(compiled->facts().Clone());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(AnswerStrings(*compiled->context(), result->answers), expected);
    EXPECT_TRUE(session.summary().has_run);
  }
}

}  // namespace
}  // namespace exdl
