// Kernel equivalence (DESIGN.md §14): the bitset kernels are invisible.
// The reference is a provenance-recording run, which takes the generic
// hash-index descent on every rule and runs serially. For every program
// shape the suite covers — monadic kernels, binary closure, negation,
// boolean cuts, cascades, and seeded random programs — the default
// evaluator (kernels on eligible rules) must produce byte-identical
// databases (contents AND row order), answers, and work counters to that
// reference, serially and on 4 threads; and the rendered telemetry
// documents must be byte-identical once the kernel-specific sections
// (storage.representation counters, timing fields) are normalized away.

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "core/compiled_program.h"
#include "core/session.h"
#include "core/workload.h"
#include "equiv/random_check.h"
#include "eval/evaluator.h"
#include "obs/telemetry.h"
#include "testing/test_util.h"

namespace exdl {
namespace {

/// Same contract as parallel_eval_test: predicates, sizes, and row order
/// all match.
void ExpectIdenticalDatabases(const Database& a, const Database& b) {
  ASSERT_EQ(a.relations().size(), b.relations().size());
  for (const auto& [pred, rel] : a.relations()) {
    const Relation* other = b.Find(pred);
    ASSERT_NE(other, nullptr) << "missing predicate " << pred;
    ASSERT_EQ(rel.size(), other->size()) << "size mismatch for " << pred;
    for (size_t r = 0; r < rel.size(); ++r) {
      std::span<const Value> ra = rel.view().Scan(r);
      std::span<const Value> rb = other->view().Scan(r);
      ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
          << "pred " << pred << " row " << r;
    }
  }
}

void ExpectSameOutcome(const EvalResult& generic, const EvalResult& run) {
  ExpectIdenticalDatabases(generic.db, run.db);
  EXPECT_EQ(generic.answers, run.answers);
  EXPECT_EQ(generic.ground_query_true, run.ground_query_true);
  EXPECT_EQ(generic.stats.rounds, run.stats.rounds);
  EXPECT_EQ(generic.stats.rule_firings, run.stats.rule_firings);
  EXPECT_EQ(generic.stats.tuples_inserted, run.stats.tuples_inserted);
  EXPECT_EQ(generic.stats.duplicate_inserts, run.stats.duplicate_inserts);
  EXPECT_EQ(generic.stats.index_probes, run.stats.index_probes);
  EXPECT_EQ(generic.stats.rows_matched, run.stats.rows_matched);
  EXPECT_EQ(generic.stats.rules_retired, run.stats.rules_retired);
  EXPECT_EQ(generic.stats.budget_tripped, run.stats.budget_tripped);
}

/// Evaluates at {1, 4} threads and asserts both runs agree with the
/// generic-descent reference (a provenance run: no kernels, serial).
void ExpectKernelsEquivalent(const Program& program, const Database& edb) {
  EvalOptions reference_options;
  reference_options.record_provenance = true;
  EvalResult reference = testing::MustEval(program, edb, reference_options);
  for (uint32_t threads : {1u, 4u}) {
    EvalOptions options;
    options.num_threads = threads;
    EvalResult run = testing::MustEval(program, edb, options);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectSameOutcome(reference, run);
  }
}

// ---------------------------------------------------------------------------
// Fixed program shapes

TEST(RepresentationTest, MonadicReachability) {
  auto parsed = testing::MustParse(
      "reach(Y) :- reach(X), e(X, Y).\n"
      "reach(X) :- zero(X).\n"
      "marked(X) :- reach(X), mark(X).\n"
      "?- marked(X).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kRandomSparse;
  spec.nodes = 300;
  spec.avg_degree = 2.0;
  spec.seed = 5;
  PredId e = parsed.ctx->InternPredicate("e", 2);
  Database edb;
  std::vector<Value> nodes = MakeGraph(parsed.ctx.get(), &edb, e, spec);
  edb.AddTuple(parsed.ctx->InternPredicate("zero", 1),
               std::vector<Value>{nodes[0]});
  PredId mark = parsed.ctx->InternPredicate("mark", 1);
  for (size_t i = 0; i < nodes.size(); i += 2) {
    edb.AddTuple(mark, std::vector<Value>{nodes[i]});
  }
  ExpectKernelsEquivalent(parsed.program, edb);
}

TEST(RepresentationTest, BinaryTransitiveClosure) {
  auto parsed = testing::MustParse(
      "query(X) :- a(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "a(X, Y) :- p(X, Y).\n"
      "?- query(X).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kRandomSparse;
  spec.nodes = 250;
  spec.avg_degree = 1.5;
  spec.seed = 23;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  MakeGraph(parsed.ctx.get(), &edb, p, spec);
  ExpectKernelsEquivalent(parsed.program, edb);
}

TEST(RepresentationTest, NegationAntiJoin) {
  auto parsed = testing::MustParse(
      "reach(X) :- src(X).\n"
      "reach(Y) :- reach(X), p(X, Y).\n"
      "unreached(X) :- node(X), not reach(X).\n"
      "?- unreached(X).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kTree;
  spec.nodes = 300;
  spec.seed = 7;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  std::vector<Value> nodes = MakeGraph(parsed.ctx.get(), &edb, p, spec);
  PredId node = parsed.ctx->InternPredicate("node", 1);
  for (Value v : nodes) edb.AddTuple(node, std::vector<Value>{v});
  edb.AddTuple(parsed.ctx->InternPredicate("src", 1),
               std::vector<Value>{nodes[0]});
  ExpectKernelsEquivalent(parsed.program, edb);
}

TEST(RepresentationTest, BooleanCutGroundQuery) {
  auto parsed = testing::MustParse(
      "hit :- p(X, Y), p(Y, X).\n"
      "a(X, Y) :- p(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "?- a(X, Y).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kCycle;
  spec.nodes = 120;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  MakeGraph(parsed.ctx.get(), &edb, p, spec);
  ExpectKernelsEquivalent(parsed.program, edb);
}

TEST(RepresentationTest, CascadeShape) {
  auto parsed = testing::MustParse(
      "q(X) :- a1(X, Y).\n"
      "q(X) :- a1(X, Z), b2(Z, W, V).\n"
      "q(X) :- a2(X, Z), b3(Z, W).\n"
      "a2(X, Z) :- a1(X, U), b4(U, Z).\n"
      "a1(X, Y) :- b1(X, Y).\n"
      "a1(X, Y) :- a1(X, Z), b5(Z, Y).\n"
      "?- q(X).\n");
  Database edb;
  uint64_t seed = 11;
  const int n = 300;
  for (const char* name : {"b1", "b2", "b3", "b4", "b5"}) {
    uint32_t arity = std::string(name) == "b2" ? 3 : 2;
    MakeRandomTuples(parsed.ctx.get(), &edb,
                     parsed.ctx->InternPredicate(name, arity), n, n / 2,
                     seed++);
  }
  ExpectKernelsEquivalent(parsed.program, edb);
}

// ---------------------------------------------------------------------------
// Projection runs: a single-scan rule emits each partition as one column
// gather, with its counters folded in once per partition.

constexpr char kProjectionRules[] =
    "p1(X) :- e(X, Y).\n"
    "p2(Y, X) :- e(X, Y).\n"
    "p3(X, X) :- e(X, Y).\n"
    "p4(c, Y, c) :- e(X, Y).\n"
    "t1(Z) :- t(X, Y, Z).\n"
    "t2(Z, X) :- t(X, Y, Z).\n"
    "t3(Y, d, Y) :- t(X, Y, Z).\n"
    "dup(X) :- d(X, Y).\n"
    "none(X) :- empty(X, Y).\n"
    "s(Y) :- s(X), e(X, Y).\n"
    "s(X) :- zero(X).\n"
    "copy(X) :- s(X).\n";

/// The EDB for kProjectionRules: `e` and `t` large enough that 4 threads
/// split their scans, `d` with ~500 rows over 40 first-column values (so
/// nearly every head is a duplicate), and `empty` present with no rows.
Database ProjectionEdb(Context* ctx) {
  Database edb;
  MakeRandomTuples(ctx, &edb, ctx->InternPredicate("e", 2), 600, 400, 31);
  MakeRandomTuples(ctx, &edb, ctx->InternPredicate("t", 3), 500, 60, 32);
  MakeRandomTuples(ctx, &edb, ctx->InternPredicate("d", 2), 600, 40, 33);
  edb.GetOrCreate(ctx->InternPredicate("empty", 2), 2);
  edb.AddTuple(ctx->InternPredicate("zero", 1),
               std::vector<Value>{*ctx->FindSymbol("n0")});
  return edb;
}

TEST(RepresentationTest, ProjectionRunsMatchTheGenericDescent) {
  // One query per head shape, so answer extraction is covered for each
  // (the unary ones through the relation's bitset).
  for (const char* query :
       {"p1(X)", "p2(X, Y)", "p3(X, Y)", "p4(X, Y, Z)", "t1(X)", "t2(X, Y)",
        "t3(X, Y, Z)", "dup(X)", "none(X)", "copy(X)"}) {
    SCOPED_TRACE(query);
    auto parsed = testing::MustParse(std::string(kProjectionRules) + "?- " +
                                     query + ".\n");
    const Database edb = ProjectionEdb(parsed.ctx.get());
    ExpectKernelsEquivalent(parsed.program, edb);
    const EvalResult run = testing::MustEval(parsed.program, edb);
    EXPECT_GT(run.stats.duplicate_inserts, 0u);
    EXPECT_GT(run.representation.projection_rows, 0u);
    // A budget that never trips runs the same projection kernel, ternary
    // scans included, with the same outcome.
    EvalOptions reference_options;
    reference_options.record_provenance = true;
    EvalOptions governed;
    governed.budget.deadline_ms = 3'600'000;
    const EvalResult governed_run =
        testing::MustEval(parsed.program, edb, governed);
    ExpectSameOutcome(
        testing::MustEval(parsed.program, edb, reference_options),
        governed_run);
    EXPECT_GT(governed_run.representation.projection_rows, 0u);
  }
}

TEST(RepresentationTest, GovernedProjectionTripsLikeTheGenericDescent) {
  // A per-round derivation budget the first round exceeds: the governed
  // projection run returns the same status and (empty) committed prefix
  // as the reference. Serially it also trips at the same row; pool
  // workers each count the derivations they made before seeing the trip,
  // so at 4 threads only the prefix is compared.
  auto parsed =
      testing::MustParse(std::string(kProjectionRules) + "?- p1(X).\n");
  const Database edb = ProjectionEdb(parsed.ctx.get());
  EvalOptions reference_options;
  reference_options.record_provenance = true;
  reference_options.budget.max_derivations_per_round = 700;
  const EvalResult reference =
      testing::MustEval(parsed.program, edb, reference_options);
  ASSERT_EQ(reference.stats.budget_tripped, BudgetKind::kRoundDerivations);
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EvalOptions options;
    options.num_threads = threads;
    options.budget.max_derivations_per_round = 700;
    const EvalResult run = testing::MustEval(parsed.program, edb, options);
    if (threads == 1) ExpectSameOutcome(reference, run);
    ExpectIdenticalDatabases(reference.db, run.db);
    EXPECT_EQ(reference.answers, run.answers);
    EXPECT_EQ(reference.stats.rounds, run.stats.rounds);
    EXPECT_EQ(reference.stats.tuples_inserted, run.stats.tuples_inserted);
    EXPECT_EQ(reference.termination.ToString(), run.termination.ToString());
    EXPECT_GT(run.representation.projection_rows, 0u);
  }
}

TEST(RepresentationTest, GovernedProjectionChunksTripAtTheGenericRow) {
  // A governed projection takes its rows in chunks between the per-row
  // loop's budget checks (every 1024 rows) and reserves each chunk's
  // derivations at once. Caps on either side of a chunk boundary, and
  // caps the second rule of the round reaches with the check counter
  // mid-chunk, trip serially with the reference's counters and status.
  auto parsed = testing::MustParse(
      "p1(X) :- big(X, Y).\n"
      "p2(Y) :- big(X, Y).\n"
      "?- p1(X).\n");
  const PredId big = parsed.ctx->InternPredicate("big", 2);
  Database edb;
  MakeRandomTuples(parsed.ctx.get(), &edb, big, 3000, 2000, 41);
  const uint64_t rows = edb.Find(big)->size();
  ASSERT_GT(rows, 2048u);
  for (uint64_t cap : {uint64_t{1}, uint64_t{1023}, uint64_t{1024},
                       uint64_t{1025}, rows - 1, rows + 1, rows + 1024,
                       2 * rows - 1}) {
    SCOPED_TRACE("max_derivations_per_round " + std::to_string(cap));
    EvalOptions reference_options;
    reference_options.record_provenance = true;
    reference_options.budget.max_derivations_per_round = cap;
    const EvalResult reference =
        testing::MustEval(parsed.program, edb, reference_options);
    ASSERT_EQ(reference.stats.budget_tripped, BudgetKind::kRoundDerivations);
    EvalOptions options;
    options.budget.max_derivations_per_round = cap;
    const EvalResult run = testing::MustEval(parsed.program, edb, options);
    ExpectSameOutcome(reference, run);
    EXPECT_EQ(reference.termination.ToString(), run.termination.ToString());
    EXPECT_EQ(run.representation.projection_rows, std::min(cap, 2 * rows));
  }
}

// ---------------------------------------------------------------------------
// Seeded random programs (same generator as property_test)

class RepresentationSeededTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RepresentationSeededTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST_P(RepresentationSeededTest, RandomProgramAgrees) {
  ContextPtr ctx = std::make_shared<Context>();
  testing::RandomProgramOptions options;
  options.seed = GetParam();
  Program program = testing::RandomProgram(ctx, options);
  std::vector<PredId> inputs;
  for (PredId p : program.EdbPredicates()) inputs.push_back(p);
  std::sort(inputs.begin(), inputs.end());
  Database edb = RandomInstance(ctx.get(), inputs, /*domain_size=*/24,
                                /*max_tuples_per_pred=*/60,
                                /*seed=*/GetParam() * 131 + 17);
  ExpectKernelsEquivalent(program, edb);
}

TEST_P(RepresentationSeededTest, RandomStratifiedProgramAgrees) {
  ContextPtr ctx = std::make_shared<Context>();
  testing::RandomStratifiedOptions options;
  options.seed = GetParam() ^ 0x5EED;
  Program program = testing::RandomStratifiedProgram(ctx, options);
  std::vector<PredId> inputs;
  for (PredId p : program.EdbPredicates()) inputs.push_back(p);
  std::sort(inputs.begin(), inputs.end());
  Database edb = RandomInstance(ctx.get(), inputs, /*domain_size=*/20,
                                /*max_tuples_per_pred=*/50,
                                /*seed=*/GetParam() * 97 + 3);
  ExpectKernelsEquivalent(program, edb);
}

// ---------------------------------------------------------------------------
// Telemetry document byte-identity (minus the new counters)

/// Normalizes a telemetry document for kernel-vs-generic comparison:
/// zeroes every timing field (those legitimately differ run to run, on
/// either path), drops the storage.representation metric rows and the
/// top-level "storage" object (the documented kernel-specific section),
/// and drops the eval.round.seconds histogram (its bucket
/// counts are timing-derived). Everything else — counters, per-rule rows,
/// span structure — must match byte for byte.
std::string NormalizeTelemetry(std::string doc) {
  static const std::regex timing(
      "\"(eval_seconds|max_round_seconds|optimize_seconds|seconds|start_ms|"
      "duration_ms|sum)\":-?[0-9][0-9eE.+-]*");
  doc = std::regex_replace(doc, timing, "\"$1\":0");
  static const std::regex storage_obj(
      ",?\"storage\":\\{\"representation\":\\{[^}]*\\}\\}");
  doc = std::regex_replace(doc, storage_obj, "");
  static const std::regex rep_metric(
      "\\{\"name\":\"storage\\.representation\\.[^\"]*\"[^{}]*\\},?");
  doc = std::regex_replace(doc, rep_metric, "");
  static const std::regex round_hist(
      "\\{\"name\":\"eval\\.round\\.seconds\"[^{}]*\\},?");
  doc = std::regex_replace(doc, round_hist, "");
  // Removing array elements can leave a trailing comma before ']'.
  static const std::regex dangling(",\\]");
  doc = std::regex_replace(doc, dangling, "]");
  return doc;
}

std::string TelemetryDocFor(const std::string& source,
                            bool record_provenance, uint32_t threads) {
  obs::Telemetry telemetry;
  Result<CompiledProgram::Ptr> compiled =
      CompiledProgram::Compile(source, CompileOptions());
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  SessionOptions options;
  options.eval.record_provenance = record_provenance;
  options.eval.num_threads = threads;
  options.eval.telemetry = &telemetry;
  Session session(std::move(options));
  session.Bind(*compiled);
  EXPECT_TRUE(session.Run((*compiled)->facts()).ok());
  return session.TelemetryJson("run", "test.dl");
}

TEST(RepresentationTest, TelemetryDocsMatchModuloKernelSection) {
  std::string source =
      "reach(Y) :- reach(X), e(X, Y).\n"
      "reach(X) :- zero(X).\n"
      "?- reach(X).\n"
      "zero(n0).\n";
  for (int i = 0; i < 40; ++i) {
    source +=
        "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  const std::string generic =
      TelemetryDocFor(source, /*record_provenance=*/true, 1);
  for (uint32_t threads : {1u, 4u}) {
    const std::string kernels =
        TelemetryDocFor(source, /*record_provenance=*/false, threads);
    // The raw documents DO differ (kernel counters)...
    EXPECT_NE(generic, kernels) << threads << " threads";
    // ...and normalizing exactly the documented section reconciles them.
    EXPECT_EQ(NormalizeTelemetry(generic), NormalizeTelemetry(kernels))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace exdl
