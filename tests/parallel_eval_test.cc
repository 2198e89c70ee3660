// Parallel fixpoint rounds must be a pure performance knob: with
// num_threads > 1 the engine partitions each rule variant's outer row
// range but merges the per-worker derivation buffers in partition order,
// so every relation (contents AND row order), every answer, and the
// ground-query verdict are byte-identical to serial evaluation. These
// tests pin that down on the E1 (projection / transitive closure) and E4
// (cascade) workload shapes plus negation and boolean-cut programs.

#include <string>

#include <gtest/gtest.h>

#include "core/workload.h"
#include "eval/evaluator.h"
#include "testing/test_util.h"

namespace exdl {
namespace {

/// Asserts the two result databases are byte-identical: same predicates,
/// same sizes, same tuples in the same row-id order.
void ExpectIdenticalDatabases(const Database& serial,
                              const Database& parallel) {
  ASSERT_EQ(serial.relations().size(), parallel.relations().size());
  for (const auto& [pred, rel] : serial.relations()) {
    const Relation* other = parallel.Find(pred);
    ASSERT_NE(other, nullptr) << "missing predicate " << pred;
    ASSERT_EQ(rel.size(), other->size()) << "size mismatch for " << pred;
    for (size_t r = 0; r < rel.size(); ++r) {
      std::span<const Value> a = rel.view().Scan(r);
      std::span<const Value> b = other->view().Scan(r);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i])
            << "pred " << pred << " row " << r << " col " << i;
      }
    }
  }
}

void ExpectParallelMatchesSerial(const Program& program, const Database& edb,
                                 EvalOptions base = {}) {
  EvalOptions serial_options = base;
  serial_options.num_threads = 1;
  EvalResult serial = testing::MustEval(program, edb, serial_options);

  for (uint32_t threads : {2u, 4u}) {
    EvalOptions parallel_options = base;
    parallel_options.num_threads = threads;
    EvalResult parallel = testing::MustEval(program, edb, parallel_options);
    ExpectIdenticalDatabases(serial.db, parallel.db);
    EXPECT_EQ(serial.answers, parallel.answers) << threads << " threads";
    EXPECT_EQ(serial.ground_query_true, parallel.ground_query_true);
    // Work counters that are independent of the partitioning must agree
    // too (firings may differ only under first-witness cuts, none here).
    EXPECT_EQ(serial.stats.tuples_inserted, parallel.stats.tuples_inserted);
    EXPECT_EQ(serial.stats.rounds, parallel.stats.rounds);
  }
}

TEST(ParallelEvalTest, E1TransitiveClosureChain) {
  auto parsed = testing::MustParse(
      "query(X) :- a(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "a(X, Y) :- p(X, Y).\n"
      "?- query(X).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kChain;
  spec.nodes = 300;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  MakeGraph(parsed.ctx.get(), &edb, p, spec);
  ExpectParallelMatchesSerial(parsed.program, edb);
}

TEST(ParallelEvalTest, E1TransitiveClosureRandomSparse) {
  auto parsed = testing::MustParse(
      "query(X) :- a(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "a(X, Y) :- p(X, Y).\n"
      "?- query(X).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kRandomSparse;
  spec.nodes = 400;
  spec.avg_degree = 1.5;
  spec.seed = 99;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  MakeGraph(parsed.ctx.get(), &edb, p, spec);
  ExpectParallelMatchesSerial(parsed.program, edb);
}

TEST(ParallelEvalTest, E4CascadeShape) {
  auto parsed = testing::MustParse(
      "q(X) :- a1(X, Y).\n"
      "q(X) :- a1(X, Z), b2(Z, W, V).\n"
      "q(X) :- a2(X, Z), b3(Z, W).\n"
      "a2(X, Z) :- a1(X, U), b4(U, Z).\n"
      "a1(X, Y) :- b1(X, Y).\n"
      "a1(X, Y) :- a1(X, Z), b5(Z, Y).\n"
      "?- q(X).\n");
  Database edb;
  uint64_t seed = 4;
  const int n = 600;
  for (const char* name : {"b1", "b2", "b3", "b4", "b5"}) {
    uint32_t arity = std::string(name) == "b2" ? 3 : 2;
    MakeRandomTuples(parsed.ctx.get(), &edb,
                     parsed.ctx->InternPredicate(name, arity), n, n / 2,
                     seed++);
  }
  ExpectParallelMatchesSerial(parsed.program, edb);
}

TEST(ParallelEvalTest, NegationAntiJoin) {
  auto parsed = testing::MustParse(
      "reach(X) :- src(X).\n"
      "reach(Y) :- reach(X), p(X, Y).\n"
      "unreached(X) :- node(X), not reach(X).\n"
      "?- unreached(X).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kTree;
  spec.nodes = 500;
  spec.seed = 7;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  std::vector<Value> nodes = MakeGraph(parsed.ctx.get(), &edb, p, spec);
  PredId node = parsed.ctx->InternPredicate("node", 1);
  PredId src = parsed.ctx->InternPredicate("src", 1);
  for (Value v : nodes) edb.AddTuple(node, std::vector<Value>{v});
  edb.AddTuple(src, std::vector<Value>{nodes[0]});
  ExpectParallelMatchesSerial(parsed.program, edb);
}

TEST(ParallelEvalTest, NaiveModeAndBooleanCut) {
  auto parsed = testing::MustParse(
      "hit :- p(X, Y), p(Y, X).\n"
      "a(X, Y) :- p(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "?- a(X, Y).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kCycle;
  spec.nodes = 260;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  MakeGraph(parsed.ctx.get(), &edb, p, spec);
  ExpectParallelMatchesSerial(parsed.program, edb);
  // Naive mode re-derives everything per round: keep the graph small.
  spec.nodes = 90;
  Database small_edb;
  MakeGraph(parsed.ctx.get(), &small_edb, p, spec);
  EvalOptions naive;
  naive.seminaive = false;
  ExpectParallelMatchesSerial(parsed.program, small_edb, naive);
}

TEST(ParallelEvalTest, ProvenanceForcesSerialButStaysCorrect) {
  auto parsed = testing::MustParse(
      "a(X, Y) :- p(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "?- a(X, Y).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kChain;
  spec.nodes = 200;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  MakeGraph(parsed.ctx.get(), &edb, p, spec);
  EvalOptions options;
  options.record_provenance = true;
  options.num_threads = 4;  // ignored: provenance forces the serial path
  EvalResult with_threads = testing::MustEval(parsed.program, edb, options);
  options.num_threads = 1;
  EvalResult serial = testing::MustEval(parsed.program, edb, options);
  ExpectIdenticalDatabases(serial.db, with_threads.db);
  EXPECT_EQ(serial.provenance.size(), with_threads.provenance.size());
}

TEST(ParallelEvalTest, BitsetKernelWorkloadMatchesSerial) {
  // A fully bitset-eligible workload (DESIGN.md §14): unary recursive
  // predicates advanced through a binary probe plus unary membership
  // tests. pool_min_delta_rows=1 defeats the small-delta pool skip so the
  // kernels genuinely run on the worker pool, and the test pins parallel
  // == serial byte-identity.
  auto parsed = testing::MustParse(
      "odd(Y) :- even(X), p(X, Y).\n"
      "even(Y) :- odd(X), p(X, Y).\n"
      "even(X) :- zero(X).\n"
      "result(X) :- even(X), mark(X).\n"
      "?- result(X).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kRandomSparse;
  spec.nodes = 400;
  spec.avg_degree = 2.0;
  spec.seed = 17;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  std::vector<Value> nodes = MakeGraph(parsed.ctx.get(), &edb, p, spec);
  PredId zero = parsed.ctx->InternPredicate("zero", 1);
  PredId mark = parsed.ctx->InternPredicate("mark", 1);
  edb.AddTuple(zero, std::vector<Value>{nodes[0]});
  for (size_t i = 0; i < nodes.size(); i += 3) {
    edb.AddTuple(mark, std::vector<Value>{nodes[i]});
  }
  EvalOptions options;
  options.pool_min_delta_rows = 1;
  ExpectParallelMatchesSerial(parsed.program, edb, options);
  // The kernels must also agree with the generic descent (a provenance
  // run takes it on every rule), not just with their own serial run.
  EvalResult kernels = testing::MustEval(parsed.program, edb);
  EvalOptions generic_options;
  generic_options.record_provenance = true;
  EvalResult generic = testing::MustEval(parsed.program, edb, generic_options);
  ExpectIdenticalDatabases(generic.db, kernels.db);
  EXPECT_EQ(generic.answers, kernels.answers);
  EXPECT_EQ(generic.stats.rounds, kernels.stats.rounds);
  EXPECT_EQ(generic.stats.rule_firings, kernels.stats.rule_firings);
  EXPECT_EQ(generic.stats.tuples_inserted, kernels.stats.tuples_inserted);
  EXPECT_EQ(generic.stats.duplicate_inserts, kernels.stats.duplicate_inserts);
  EXPECT_EQ(generic.stats.index_probes, kernels.stats.index_probes);
  EXPECT_EQ(generic.stats.rows_matched, kernels.stats.rows_matched);
  EXPECT_GT(kernels.representation.words_scanned, 0u);
  EXPECT_EQ(generic.representation.words_scanned, 0u);
}

// A variant whose outermost step probes an index with a constant key
// stays serial: partitioning the probed relation's row range would make
// every worker repeat the probe, so the counters would depend on the
// thread count.
TEST(ParallelEvalTest, ProbeFirstVariantCountsAlikeAtAnyThreadCount) {
  std::string source = "q(Z) :- e(n0, Y), e(Y, Z).\n?- q(Z).\n";
  for (int i = 0; i < 1024; ++i) {
    source += "e(n" + std::to_string(i / 4) + ", n" + std::to_string(i) +
              ").\n";
  }
  auto parsed = testing::MustParse(source);
  EvalOptions serial_options;
  serial_options.num_threads = 1;
  EvalOptions parallel_options;
  parallel_options.num_threads = 4;
  const EvalResult serial =
      testing::MustEval(parsed.program, parsed.edb, serial_options);
  const EvalResult parallel =
      testing::MustEval(parsed.program, parsed.edb, parallel_options);
  EXPECT_EQ(serial.answers, parallel.answers);
  EXPECT_EQ(serial.stats.rounds, parallel.stats.rounds);
  EXPECT_EQ(serial.stats.rule_firings, parallel.stats.rule_firings);
  EXPECT_EQ(serial.stats.tuples_inserted, parallel.stats.tuples_inserted);
  EXPECT_EQ(serial.stats.duplicate_inserts, parallel.stats.duplicate_inserts);
  EXPECT_EQ(serial.stats.index_probes, parallel.stats.index_probes);
  EXPECT_EQ(serial.stats.rows_matched, parallel.stats.rows_matched);
  EXPECT_EQ(serial.stats.rules_retired, parallel.stats.rules_retired);
}

TEST(ParallelEvalTest, TimingCountersPopulated) {
  auto parsed = testing::MustParse(
      "a(X, Y) :- p(X, Y).\n"
      "a(X, Y) :- p(X, Z), a(Z, Y).\n"
      "?- a(X, Y).\n");
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kChain;
  spec.nodes = 100;
  PredId p = parsed.ctx->InternPredicate("p", 2);
  Database edb;
  MakeGraph(parsed.ctx.get(), &edb, p, spec);
  EvalResult result = testing::MustEval(parsed.program, edb);
  EXPECT_GT(result.stats.eval_seconds, 0.0);
  EXPECT_GT(result.stats.max_round_seconds, 0.0);
  EXPECT_LE(result.stats.max_round_seconds, result.stats.eval_seconds);
  EXPECT_NE(result.stats.ToString().find("eval_ms="), std::string::npos);
  EXPECT_NE(result.stats.ToString().find("max_round_ms="),
            std::string::npos);
}

}  // namespace
}  // namespace exdl
