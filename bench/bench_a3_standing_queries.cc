// A3 — standing-query maintenance (DESIGN.md §16): sustained
// update/query mix through the QueryService at 1/2/4 workers. Both cases
// run the same scenario — register/submit 8 transitive-closure queries
// over a chain EDB, then absorb kGenerations fact loads and read every
// query's answers after each load:
//
//   * incremental: the queries are registered once as standing views;
//     each LoadFacts maintains them by delta-driven semi-naive
//     re-derivation, and the per-generation reads are PollStandingQuery
//     (no evaluation at all).
//   * recompute: the queries are re-submitted after every load, so each
//     generation re-runs every fixpoint from scratch (the program cache
//     is warm — the gap measured is evaluation, not compilation).
//
// The incremental case asserts ivm.full_recomputes == 0 (the fast path
// actually ran) and that the final polled answers are byte-identical to
// cold re-evaluations of the same generation — the maintained view is a
// correct materialization, not a faster approximation.
//
// load_facts_indexed/scale:{1,10,100} puts the remaining O(EDB) cost of a
// load on record: 4-fact LoadFacts into the chain EDB at 1x, 10x and 100x
// its size, after one query built an index on e[1], with no views. Each
// load still detaches (copies) the whole `e` relation, indexes included;
// p50_us is the median LoadFacts latency (the JSON row records its
// inverse as queries_per_sec: loads per second at the median).
//
// view_heap/views:{1,8,64} puts standing-view memory on record: N
// same-rule views (distinct chain heads) absorb kGenerations loads, then
// heap_per_view_kb is the live heap (mallinfo2) that unregistering them
// releases, per view, next to edb_kb, the published snapshot's relation
// storage. A view owns only what it derives, so the per-view figure stays
// flat in N and far below edb_kb; the row's telemetry carries
// ivm.private_bytes, the relation storage the live views own.
//
// compact_snapshot/{encode,decode}/scale:{1,10,100} time the snapshot
// codec (DESIGN.md §11) on the same chain EDB with no index: encode is
// what a durable service's compaction runs every compact_every loads
// (DESIGN.md §15), decode is what a restart runs. p50_us is the median
// call; snapshot_bytes is the blob size.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "recovery/checkpoint.h"
#include "service/answer_text.h"
#include "service/query_service.h"
#include "util/string_util.h"

namespace exdl::bench {
namespace {

// The EDB is many short *disjoint* chains rather than one long one: the
// fixpoint's round count is the chain depth (shallow for both cases),
// while the tuple volume scales with the chain count — so the measured
// gap is the O(delta)-vs-O(database) per-round work, not per-round
// fixed overhead (a single long chain needs O(n) delta rounds to
// propagate an appended edge back to the head, which would bound the
// speedup by round overhead alone).
constexpr int kChains = 512;
constexpr int kChainLen = 16;    ///< Edges per chain (= fixpoint depth).
constexpr int kEdgesPerGen = 4;  ///< Chains extended per generation.
constexpr int kGenerations = 6;
constexpr int kStandingQueries = 8;

std::string NodeName(int chain, int pos) {
  return StrCat("c", std::to_string(chain), "x", std::to_string(pos));
}

/// The base EDB: `chains` disjoint chains of kChainLen edges each.
std::string BaseFacts(int chains = kChains) {
  std::string facts;
  for (int c = 0; c < chains; ++c) {
    for (int p = 0; p < kChainLen; ++p) {
      facts += "e(" + NodeName(c, p) + ", " + NodeName(c, p + 1) + ").\n";
    }
  }
  return facts;
}

/// Generation `g`'s delta: one edge appended to each of kEdgesPerGen
/// rotating chains (every chain is extended at most once across a run).
std::string DeltaFacts(int g) {
  std::string facts;
  for (int j = 0; j < kEdgesPerGen; ++j) {
    const int c = (g * kEdgesPerGen + j) % kChains;
    facts += "e(" + NodeName(c, kChainLen) + ", " +
             NodeName(c, kChainLen + 1) + ").\n";
  }
  return facts;
}

/// Distinct TC queries (distinct cache keys / standing views): same rules,
/// different chain-head constant, as in A2. Chains 0..7 are extended in
/// the first two generations, so the polled answers actually change.
std::vector<QueryRequest> MakeRequests() {
  std::vector<QueryRequest> requests;
  for (int q = 0; q < kStandingQueries; ++q) {
    const std::string start = NodeName(q, 0);
    requests.push_back(QueryRequest{
        .source = "tc(X, Y) :- e(X, Y).\n"
                  "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                  "?- tc(" + start + ", Y).\n",
        .name = "q" + start});
  }
  return requests;
}

ServiceOptions MakeOptions(uint32_t workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.compile.optimize = true;
  options.program_cache_capacity = 64;  // Warm both cases: measure eval.
  return options;
}

bool MetricsEnabled() {
  const char* value = std::getenv("EXDL_BENCH_METRICS");
  return value != nullptr && *value != '\0' && std::string_view(value) != "0";
}

/// Re-evaluates every request cold and compares the rendered answers to
/// the standing views' polled answers — the byte-identity contract.
void VerifyAgainstCold(QueryService& service,
                       const std::vector<QueryRequest>& requests,
                       const std::vector<uint64_t>& standing_ids,
                       EvalResult* aggregate) {
  for (size_t q = 0; q < requests.size(); ++q) {
    QueryResponse cold = service.Await(service.Submit(requests[q]));
    if (!cold.status.ok()) std::abort();
    Result<StandingQueryResult> polled =
        service.PollStandingQuery(standing_ids[q]);
    if (!polled.ok()) std::abort();
    if (polled->stats.full_recomputes != 0 ||
        polled->fallback != ivm::Fallback::kNone) {
      std::cerr << "bench: standing view " << standing_ids[q]
                << " fell back to full recompute\n";
      std::abort();
    }
    const std::string cold_text =
        RenderAnswerRows(*service.ctx(), cold.result.answers);
    if (cold_text != polled->answers ||
        cold.snapshot_generation != polled->generation) {
      std::cerr << "bench: standing answers diverged from cold run for "
                << requests[q].name << "\n";
      std::abort();
    }
    aggregate->stats += cold.result.stats;
    aggregate->db = std::move(cold.result.db);
    aggregate->answers = std::move(cold.result.answers);
  }
}

void BM_StandingIncremental(benchmark::State& state) {
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  const std::vector<QueryRequest> requests = MakeRequests();
  const std::string name =
      "standing/incremental/workers:" + std::to_string(workers);
  EvalResult aggregate;
  size_t reads = 0;
  std::chrono::duration<double> wall{0};
  std::string metrics_doc;
  for (auto _ : state) {
    QueryService service(MakeOptions(workers));
    if (!service.LoadFacts(BaseFacts()).ok()) std::abort();
    std::vector<uint64_t> ids;
    for (const QueryRequest& request : requests) {
      Result<uint64_t> id = service.RegisterStandingQuery(request);
      if (!id.ok()) std::abort();
      ids.push_back(*id);
    }
    const auto start = std::chrono::steady_clock::now();
    for (int g = 0; g < kGenerations; ++g) {
      if (!service.LoadFacts(DeltaFacts(g)).ok()) std::abort();
      for (uint64_t id : ids) {
        Result<StandingQueryResult> polled = service.PollStandingQuery(id);
        if (!polled.ok() || polled->answer_count == 0) std::abort();
        ++reads;
      }
    }
    wall += std::chrono::steady_clock::now() - start;
    aggregate = EvalResult();
    VerifyAgainstCold(service, requests, ids, &aggregate);
    if (MetricsEnabled()) metrics_doc = service.MetricsJson();
  }
  const double qps =
      wall.count() > 0 ? static_cast<double>(reads) / wall.count() : 0;
  ReportThroughput(state, name, aggregate, qps);
  if (!metrics_doc.empty()) AttachTelemetry(name, std::move(metrics_doc));
}

void BM_StandingRecompute(benchmark::State& state) {
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  const std::vector<QueryRequest> requests = MakeRequests();
  const std::string name =
      "standing/recompute/workers:" + std::to_string(workers);
  EvalResult aggregate;
  size_t reads = 0;
  std::chrono::duration<double> wall{0};
  std::string metrics_doc;
  for (auto _ : state) {
    QueryService service(MakeOptions(workers));
    if (!service.LoadFacts(BaseFacts()).ok()) std::abort();
    // Prime the program cache so the timed loop measures evaluation.
    for (QueryResponse& r :
         service.AwaitBatch(service.SubmitBatch(requests))) {
      if (!r.status.ok()) std::abort();
    }
    const auto start = std::chrono::steady_clock::now();
    aggregate = EvalResult();
    for (int g = 0; g < kGenerations; ++g) {
      if (!service.LoadFacts(DeltaFacts(g)).ok()) std::abort();
      for (QueryResponse& r :
           service.AwaitBatch(service.SubmitBatch(requests))) {
        if (!r.status.ok() || r.result.answers.empty()) std::abort();
        aggregate.stats += r.result.stats;
        aggregate.db = std::move(r.result.db);
        aggregate.answers = std::move(r.result.answers);
        ++reads;
      }
    }
    wall += std::chrono::steady_clock::now() - start;
    if (MetricsEnabled()) metrics_doc = service.MetricsJson();
  }
  const double qps =
      wall.count() > 0 ? static_cast<double>(reads) / wall.count() : 0;
  ReportThroughput(state, name, aggregate, qps);
  if (!metrics_doc.empty()) AttachTelemetry(name, std::move(metrics_doc));
}

void BM_LoadFactsIndexed(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  const int chains = kChains * scale;
  const std::string name = "load_facts_indexed/scale:" + std::to_string(scale);
  QueryService service(MakeOptions(1));
  if (!service.LoadFacts(BaseFacts(chains)).ok()) std::abort();
  // A one-shot query whose plan probes e on column 1 builds that index in
  // the published snapshot — the state every later load has to copy.
  QueryResponse indexed = service.Await(service.Submit(
      {.source = "q(X) :- e(X, " + NodeName(0, 1) + ").\n?- q(X).\n",
       .name = "index_e1"}));
  if (!indexed.status.ok() || indexed.result.answers.size() != 1) {
    std::abort();
  }
  std::vector<double> micros;
  int64_t edge = 0;  // Appends kEdgesPerGen fresh edges per load.
  for (auto _ : state) {
    std::string facts;
    for (int j = 0; j < kEdgesPerGen; ++j, ++edge) {
      const int c = static_cast<int>(edge % chains);
      const int pos = kChainLen + static_cast<int>(edge / chains);
      facts += "e(" + NodeName(c, pos) + ", " + NodeName(c, pos + 1) + ").\n";
    }
    const auto start = std::chrono::steady_clock::now();
    if (!service.LoadFacts(facts).ok()) std::abort();
    micros.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count());
  }
  std::sort(micros.begin(), micros.end());
  const double p50 = micros.empty() ? 0 : micros[micros.size() / 2];
  state.counters["p50_us"] = p50;
  state.counters["edb_edges"] = static_cast<double>(chains) * kChainLen;
  ReportThroughput(state, name, EvalResult(), p50 > 0 ? 1e6 / p50 : 0);
  if (MetricsEnabled()) AttachTelemetry(name, service.MetricsJson());
}

/// Bytes in live heap allocations, allocator-level: it repeats run to
/// run, unlike resident-set figures.
double HeapKb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1024;
}

void BM_StandingViewHeap(benchmark::State& state) {
  const int views = static_cast<int>(state.range(0));
  const std::string name = "view_heap/views:" + std::to_string(views);
  double heap_per_view_kb = 0;
  double edb_kb = 0;
  std::string metrics_doc;
  for (auto _ : state) {
    ServiceOptions options = MakeOptions(1);
    options.program_cache_capacity = views;
    QueryService service(options);
    if (!service.LoadFacts(BaseFacts()).ok()) std::abort();
    std::vector<uint64_t> ids;
    for (int v = 0; v < views; ++v) {
      Result<uint64_t> id = service.RegisterStandingQuery(
          {.source = "tc(X, Y) :- e(X, Y).\n"
                     "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                     "?- tc(" + NodeName(v, 0) + ", Y).\n",
           .name = "v" + std::to_string(v)});
      if (!id.ok()) std::abort();
      ids.push_back(*id);
    }
    for (int g = 0; g < kGenerations; ++g) {
      if (!service.LoadFacts(DeltaFacts(g)).ok()) std::abort();
    }
    metrics_doc = service.MetricsJson();
    const double with_views = HeapKb();
    for (uint64_t id : ids) {
      if (!service.UnregisterStandingQuery(id).ok()) std::abort();
    }
    heap_per_view_kb = (with_views - HeapKb()) / views;
    edb_kb = 0;
    for (const auto& [pred, rel] : service.snapshot().db().relations()) {
      edb_kb += static_cast<double>(rel.storage_bytes()) / 1024;
    }
  }
  state.counters["heap_per_view_kb"] = heap_per_view_kb;
  state.counters["edb_kb"] = edb_kb;
  ReportThroughput(state, name, EvalResult(), 0);
  AttachTelemetry(name, std::move(metrics_doc));
}

void RunCompactSnapshot(benchmark::State& state, bool decode) {
  const int scale = static_cast<int>(state.range(0));
  const std::string name = StrCat("compact_snapshot/",
                                  decode ? "decode" : "encode",
                                  "/scale:", std::to_string(scale));
  QueryService service(MakeOptions(1));
  if (!service.LoadFacts(BaseFacts(kChains * scale)).ok()) std::abort();
  const DatabaseSnapshot published = service.snapshot();
  const std::string bytes = recovery::EncodeSnapshot(
      *service.ctx(), published.db(), EvalCursor{}, published.generation());
  std::vector<double> micros;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    if (decode) {
      Result<recovery::Snapshot> snap = recovery::DecodeSnapshot(bytes);
      micros.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count());
      if (!snap.ok()) std::abort();
    } else {
      const std::string encoded = recovery::EncodeSnapshot(
          *service.ctx(), published.db(), EvalCursor{},
          published.generation());
      micros.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count());
      if (encoded != bytes) std::abort();
    }
  }
  std::sort(micros.begin(), micros.end());
  const double p50 = micros.empty() ? 0 : micros[micros.size() / 2];
  state.counters["p50_us"] = p50;
  state.counters["snapshot_bytes"] = static_cast<double>(bytes.size());
  ReportThroughput(state, name, EvalResult(), p50 > 0 ? 1e6 / p50 : 0);
}

void BM_CompactSnapshotEncode(benchmark::State& state) {
  RunCompactSnapshot(state, /*decode=*/false);
}

void BM_CompactSnapshotDecode(benchmark::State& state) {
  RunCompactSnapshot(state, /*decode=*/true);
}

BENCHMARK(BM_StandingIncremental)
    ->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StandingRecompute)
    ->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LoadFactsIndexed)
    ->Arg(1)->Arg(10)->Arg(100)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StandingViewHeap)
    ->Arg(1)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompactSnapshotEncode)
    ->Arg(1)->Arg(10)->Arg(100)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CompactSnapshotDecode)
    ->Arg(1)->Arg(10)->Arg(100)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace exdl::bench
