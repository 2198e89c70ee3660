// A2 — QueryService throughput (DESIGN.md §12): end-to-end queries/sec
// through the concurrent service at 1/2/4 workers, cold cache (every
// submission parses + optimizes) vs warm cache (every submission hits the
// ProgramCache and only evaluates). The warm/cold gap is the amortized
// compile cost; the worker sweep is the scaling of independent sessions
// over one shared EDB snapshot.

#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/query_service.h"
#include "util/string_util.h"

namespace exdl::bench {
namespace {

constexpr int kChainNodes = 96;
constexpr int kDistinctQueries = 8;

/// Ground facts for a chain graph, loaded once as the shared EDB.
std::string ChainFacts() {
  std::string facts;
  for (int i = 0; i < kChainNodes; ++i) {
    facts += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ").\n";
  }
  return facts;
}

/// Distinct query sources (distinct cache keys): same rules, different
/// query constant, so a cold run compiles all of them.
std::vector<QueryRequest> MakeRequests() {
  std::vector<QueryRequest> requests;
  for (int q = 0; q < kDistinctQueries; ++q) {
    const std::string start = StrCat("n", std::to_string(q));
    requests.push_back(QueryRequest{
        .source = "tc(X, Y) :- e(X, Y).\n"
                  "tc(X, Y) :- e(X, Z), tc(Z, Y).\n"
                  "?- tc(" + start + ", Y).\n",
        .name = "q" + start});
  }
  return requests;
}

ServiceOptions MakeOptions(uint32_t workers, bool warm) {
  ServiceOptions options;
  options.num_workers = workers;
  options.compile.optimize = true;  // Makes the compile cost worth caching.
  // Cold cases disable the cache so *every* iteration re-parses and
  // re-optimizes; warm cases prime it once and then always hit.
  options.program_cache_capacity = warm ? 64 : 0;
  return options;
}

/// Sums the per-query stats of one awaited batch into `aggregate`; the
/// last response's database/answers become the JSON row's result shape.
void FoldBatch(QueryService& service, const std::vector<QueryService::Ticket>& tickets,
               EvalResult& aggregate) {
  for (QueryService::Ticket ticket : tickets) {
    QueryResponse response = service.Await(ticket);
    if (!response.status.ok()) {
      std::abort();  // Bench programs must not fail quietly.
    }
    aggregate.stats += response.result.stats;
    aggregate.db = std::move(response.result.db);
    aggregate.answers = std::move(response.result.answers);
  }
}

void RunCase(benchmark::State& state, bool warm) {
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  QueryService service(MakeOptions(workers, warm));
  if (!service.LoadFacts(ChainFacts()).ok()) std::abort();
  const std::vector<QueryRequest> requests = MakeRequests();
  EvalResult aggregate;
  if (warm) {
    // Prime the cache; the timed loop below then only ever hits.
    FoldBatch(service, service.SubmitBatch(requests), aggregate);
    aggregate = EvalResult();
  }
  size_t queries = 0;
  std::chrono::duration<double> wall{0};
  for (auto _ : state) {
    aggregate = EvalResult();
    const auto start = std::chrono::steady_clock::now();
    FoldBatch(service, service.SubmitBatch(requests), aggregate);
    wall += std::chrono::steady_clock::now() - start;
    queries += requests.size();
  }
  const double qps =
      wall.count() > 0 ? static_cast<double>(queries) / wall.count() : 0;
  ReportThroughput(state,
                   std::string("service/") + (warm ? "warm" : "cold") +
                       "/workers:" + std::to_string(workers),
                   aggregate, qps);
}

void BM_ServiceCold(benchmark::State& state) { RunCase(state, false); }
void BM_ServiceWarm(benchmark::State& state) { RunCase(state, true); }

BENCHMARK(BM_ServiceCold)
    ->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServiceWarm)
    ->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace exdl::bench
