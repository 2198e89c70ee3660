// Observability subsystem tests: metrics registry + shard merging, trace
// span nesting, evaluator/optimizer instrumentation exactness, and the
// null-sink byte-identity guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_program.h"
#include "eval/evaluator.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "testing/test_util.h"

namespace exdl {
namespace {

using ::exdl::testing::MustParse;

constexpr const char* kChain =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
    "?- tc(n0, Y).\n"
    "e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4). e(n4, n5).\n"
    "e(n2, n0). e(n5, n1).\n";

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsTest, RegistrationIsIdempotent) {
  obs::MetricsRegistry registry;
  obs::MetricId a = registry.Counter("x", {{"rule", "0"}});
  obs::MetricId b = registry.Counter("x", {{"rule", "0"}});
  obs::MetricId c = registry.Counter("x", {{"rule", "1"}});
  obs::MetricId d = registry.Counter("y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsTest, KindsShareOneNamespacePerKind) {
  obs::MetricsRegistry registry;
  obs::MetricId counter = registry.Counter("m");
  obs::MetricId gauge = registry.Gauge("m");
  EXPECT_NE(counter, gauge);  // same name, different kind
  registry.Add(counter, 7);
  registry.Set(gauge, 2.5);
  EXPECT_EQ(registry.CounterValue(counter), 7u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue(gauge), 2.5);
}

TEST(MetricsTest, ShardMergeFoldsAndResets) {
  obs::MetricsRegistry registry;
  obs::MetricId counter = registry.Counter("c");
  obs::MetricId gauge = registry.Gauge("g");
  obs::MetricId hist = registry.Histogram("h", {1.0, 10.0});
  obs::MetricsShard s1 = registry.NewShard();
  obs::MetricsShard s2 = registry.NewShard();
  s1.Add(counter, 3);
  s2.Add(counter, 4);
  s1.Set(gauge, 9.0);
  s1.Observe(hist, 0.5);
  s2.Observe(hist, 5.0);
  s2.Observe(hist, 100.0);
  registry.Merge(s1);
  registry.Merge(s2);
  EXPECT_EQ(registry.CounterValue(counter), 7u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue(gauge), 9.0);
  // Bounds {1, 10} make three buckets: <=1, <=10, +inf.
  std::vector<uint64_t> counts = registry.HistogramCounts(hist);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  // Merge resets the shard: folding it again adds nothing.
  registry.Merge(s1);
  registry.Merge(s2);
  EXPECT_EQ(registry.CounterValue(counter), 7u);
  EXPECT_EQ(registry.HistogramCounts(hist)[2], 1u);
}

TEST(MetricsTest, ConcurrentShardWritersMergeExactly) {
  obs::MetricsRegistry registry;
  obs::MetricId counter = registry.Counter("work");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 10000;
  std::vector<obs::MetricsShard> shards;
  for (int i = 0; i < kThreads; ++i) shards.push_back(registry.NewShard());
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&shards, i, counter] {
      for (uint64_t n = 0; n < kPerThread; ++n) shards[i].Add(counter, 1);
    });
  }
  for (std::thread& t : threads) t.join();
  for (obs::MetricsShard& shard : shards) registry.Merge(shard);
  EXPECT_EQ(registry.CounterValue(counter), kThreads * kPerThread);
}

TEST(MetricsTest, SnapshotCarriesDefinitionsAndValues) {
  obs::MetricsRegistry registry;
  obs::MetricId counter = registry.Counter("c", {{"rule", "2"}});
  registry.Add(counter, 11);
  std::vector<obs::MetricRow> rows = registry.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "c");
  EXPECT_EQ(rows[0].kind, obs::MetricKind::kCounter);
  ASSERT_EQ(rows[0].labels.size(), 1u);
  EXPECT_EQ(rows[0].labels[0].first, "rule");
  EXPECT_EQ(rows[0].labels[0].second, "2");
  EXPECT_EQ(rows[0].counter, 11u);
}

// ---------------------------------------------------------------------------
// Trace

TEST(TraceTest, SpansNestLexically) {
  obs::Trace trace;
  obs::SpanId outer = trace.Begin("eval");
  obs::SpanId round = trace.Begin("round:0");
  obs::SpanId rule = trace.Begin("rule:1");
  EXPECT_EQ(trace.PathOf(rule), "eval > round:0 > rule:1");
  trace.End(rule);
  trace.End(round);
  obs::SpanId event = trace.Event("event:budget_trip:deadline");
  trace.End(outer);
  const std::vector<obs::TraceSpan>& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, static_cast<int64_t>(outer));
  EXPECT_EQ(spans[2].parent, static_cast<int64_t>(round));
  EXPECT_EQ(spans[event].parent, static_cast<int64_t>(outer));
  EXPECT_LT(spans[event].duration_seconds, 0.001);  // point event
  for (const obs::TraceSpan& span : spans) {
    EXPECT_GE(span.duration_seconds, 0.0) << span.name;
  }
}

TEST(TraceTest, EndClosesAnythingLeftOpenInside) {
  obs::Trace trace;
  obs::SpanId outer = trace.Begin("outer");
  trace.Begin("left-open");
  trace.End(outer);  // must close the inner span too
  for (const obs::TraceSpan& span : trace.spans()) {
    EXPECT_GE(span.duration_seconds, 0.0) << span.name;
  }
}

TEST(TraceTest, CapDropsSpansWithoutReallocating) {
  obs::Trace trace(/*max_spans=*/2);
  obs::SpanId a = trace.Begin("a");
  obs::SpanId b = trace.Begin("b");
  obs::SpanId c = trace.Begin("c");  // over the cap
  EXPECT_EQ(c, obs::kDroppedSpan);
  trace.End(c);  // no-op, must not unbalance the open stack
  trace.SetAttr(c, "k", 1.0);
  trace.End(b);
  trace.End(a);
  EXPECT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.dropped(), 1u);
}

TEST(TraceTest, ScopeIsRaii) {
  obs::Trace trace;
  {
    obs::Trace::Scope outer(&trace, "outer");
    obs::Trace::Scope inner(&trace, "inner");
    EXPECT_EQ(trace.PathOf(inner.id()), "outer > inner");
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_GE(trace.spans()[0].duration_seconds, 0.0);
  EXPECT_GE(trace.spans()[1].duration_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Evaluator instrumentation: the metrics must agree exactly with EvalStats.

TEST(EvalObsTest, SerialMetricsMatchStatsExactly) {
  auto parsed = MustParse(kChain);
  obs::Telemetry telemetry;
  EvalOptions options;
  options.telemetry = &telemetry;
  EvalResult result = testing::MustEval(parsed.program, parsed.edb, options);
  obs::MetricsRegistry& m = telemetry.metrics();
  EXPECT_EQ(m.CounterValue(m.Counter("eval.rule_firings")),
            result.stats.rule_firings);
  EXPECT_EQ(m.CounterValue(m.Counter("eval.index_probes")),
            result.stats.index_probes);
  EXPECT_EQ(m.CounterValue(m.Counter("eval.rows_matched")),
            result.stats.rows_matched);
  EXPECT_EQ(m.CounterValue(m.Counter("eval.rounds")), result.stats.rounds);
  // Per-rule attribution partitions the totals exactly.
  uint64_t derived = 0;
  uint64_t duplicates = 0;
  uint64_t firings = 0;
  for (size_t i = 0; i < parsed.program.rules().size(); ++i) {
    obs::LabelSet rule_label = {{"rule", std::to_string(i)}};
    derived += m.CounterValue(m.Counter("eval.rule.derived", rule_label));
    duplicates +=
        m.CounterValue(m.Counter("eval.rule.duplicates", rule_label));
    firings += m.CounterValue(m.Counter("eval.rule.firings", rule_label));
  }
  EXPECT_EQ(derived, result.stats.tuples_inserted);
  EXPECT_EQ(duplicates, result.stats.duplicate_inserts);
  EXPECT_EQ(firings, result.stats.rule_firings);
  EXPECT_DOUBLE_EQ(m.GaugeValue(m.Gauge("storage.tuples")),
                   static_cast<double>(result.db.TotalTuples()));
}

TEST(EvalObsTest, SpanTreeFollowsRoundsAndRules) {
  auto parsed = MustParse(kChain);
  obs::Telemetry telemetry;
  EvalOptions options;
  options.telemetry = &telemetry;
  EvalResult result = testing::MustEval(parsed.program, parsed.edb, options);
  const std::vector<obs::TraceSpan>& spans = telemetry.trace().spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "eval");
  size_t rounds = 0;
  bool saw_rule = false;
  for (const obs::TraceSpan& span : spans) {
    if (span.name.rfind("round:", 0) == 0) {
      EXPECT_EQ(span.parent, 0);  // rounds nest directly under eval
      ++rounds;
    }
    if (span.name.rfind("rule:", 0) == 0) saw_rule = true;
  }
  EXPECT_EQ(rounds, result.stats.rounds);
  EXPECT_TRUE(saw_rule);
  EXPECT_EQ(telemetry.trace().dropped(), 0u);
}

TEST(EvalObsTest, NullSinkRunIsByteIdentical) {
  auto parsed = MustParse(kChain);
  EvalOptions traced;
  obs::Telemetry telemetry;
  traced.telemetry = &telemetry;
  EvalResult with = testing::MustEval(parsed.program, parsed.edb, traced);
  EvalResult without =
      testing::MustEval(parsed.program, parsed.edb, EvalOptions());
  EXPECT_EQ(with.answers, without.answers);
  EXPECT_EQ(with.stats.rounds, without.stats.rounds);
  EXPECT_EQ(with.stats.rule_firings, without.stats.rule_firings);
  EXPECT_EQ(with.stats.tuples_inserted, without.stats.tuples_inserted);
  EXPECT_EQ(with.stats.duplicate_inserts, without.stats.duplicate_inserts);
  EXPECT_EQ(with.stats.index_probes, without.stats.index_probes);
  EXPECT_EQ(with.stats.rows_matched, without.stats.rows_matched);
  // Row-for-row identical storage, not just equal counts.
  for (const auto& [pred, rel] : without.db.relations()) {
    const Relation* other = with.db.Find(pred);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(other->size(), rel.size());
    for (size_t r = 0; r < rel.size(); ++r) {
      std::span<const Value> a = rel.view().Scan(r);
      std::span<const Value> b = other->view().Scan(r);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
}

// ---------------------------------------------------------------------------
// Optimizer instrumentation: the span sequence under "optimize" must match
// the structured per-phase report entries, in order.

TEST(OptimizerObsTest, PhaseSpansMatchReportOrder) {
  obs::Telemetry telemetry;
  CompileOptions options;
  options.optimize = true;
  Result<CompiledProgram::Ptr> compiled =
      CompiledProgram::Compile(kChain, options, &telemetry);
  ASSERT_TRUE(compiled.ok());
  const OptimizationReport& report = (*compiled)->report();
  ASSERT_FALSE(report.phases.empty());
  std::vector<std::string> span_phases;
  for (const obs::TraceSpan& span : telemetry.trace().spans()) {
    if (span.name.rfind("phase:", 0) == 0) {
      EXPECT_EQ(telemetry.trace().PathOf(span.id),
                "optimize > " + span.name);
      span_phases.push_back(span.name.substr(6));
    }
  }
  ASSERT_EQ(span_phases.size(), report.phases.size());
  for (size_t i = 0; i < report.phases.size(); ++i) {
    EXPECT_EQ(span_phases[i], report.phases[i].name);
  }
  // Structured entries carry the data the printer renders.
  for (const OptimizationPhase& phase : report.phases) {
    EXPECT_FALSE(phase.name.empty());
    EXPECT_GE(phase.seconds, 0.0);
    EXPECT_FALSE(phase.interrupted);
  }
}

}  // namespace
}  // namespace exdl
