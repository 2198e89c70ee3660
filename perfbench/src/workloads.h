// The benchmark's three workloads: seeded generators for their inputs and
// an answer oracle that never runs the engine.
//
// Every input the engine sees — the EDB, each query, each fact load — is
// produced here from the run's seed. The oracle computes the expected
// answer rows of each query with plain C++ over the generated graph
// (closed forms on the chain EDB, a BFS on the random graph), so a wrong
// answer from any layer — optimizer, evaluator, storage, view
// maintenance, recovery — is caught by the benchmark itself.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace perfbench {

enum class Workload { kServeMix, kIngestViews, kDeepClosure };

/// "serve_mix", "ingest_views", "deep_closure".
std::string_view WorkloadName(Workload w);
bool ParseWorkload(std::string_view name, Workload* out);

/// Transitive closure over `e`, the recursion every workload queries.
inline constexpr std::string_view kTcRules =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Y) :- e(X, Z), tc(Z, Y).\n";

/// True when `rendered` (RenderAnswerRows text: one '\n'-terminated line
/// per row) holds exactly the rows of `expected`, in any order.
/// `expected` must be sorted.
bool SameRows(std::string_view rendered,
              const std::vector<std::string>& expected);

/// One query of a stream, with the rows the oracle expects.
struct Query {
  uint64_t request_id = 0;
  std::string source;
  /// Sorted expected rows (shared: template 0 expects 8192 of them).
  std::shared_ptr<const std::vector<std::string>> expected;
};

// --- The chain EDB (serve_mix, ingest_views) ------------------------------

/// 512 disjoint chains of 16 edges each: 8192 `e` facts.
inline constexpr int kChains = 512;
inline constexpr int kChainLen = 16;

/// "c<chain>x<pos>".
std::string ChainNode(int chain, int pos);
/// The 8192-fact base EDB.
std::string ChainEdbSource();

/// serve_mix's request stream for one client connection. 90% of requests
/// draw from a hot set of 16 sources (shared by every client, so they hit
/// the program cache); 10% draw a source no earlier request of any
/// client used (a cache miss: parse + optimize, and an eviction once the
/// cache is full). Templates, each a paper shape:
///   0  Example 1:   q(X) :- tc(X, _).     (8192 rows; no constant, so
///                                          always hot)
///   1  two hops from a constant:  q(Z) :- e(c, Y), e(Y, Z).
///   2  §3.1 boolean component:    hit :- e(c, Y), tc(Y, _).
class ServeMixStream {
 public:
  ServeMixStream(uint64_t seed, int client, int num_clients);
  Query Next();
  /// Every hot request once (cache warm-up).
  std::vector<Query> Warmup() const;

 private:
  Query Make(int tmpl, int chain, int pos) const;

  int client_;
  int num_clients_;
  uint64_t next_op_ = 0;
  exdl::Rng rng_;
  std::vector<std::pair<int, int>> hot_;   ///< (chain, pos)
  std::vector<std::pair<int, int>> cold_;  ///< This client's fresh pool.
  size_t next_cold_ = 0;
  std::shared_ptr<const std::vector<std::string>> all_sources_;
};

/// ingest_views' stream: 8 standing TC views over chain heads, then
/// closed-loop 4-fact loads that each extend 4 distinct chains by one
/// edge, each followed by a poll of one rotating view.
class IngestStream {
 public:
  static constexpr int kViews = 8;
  static constexpr int kFactsPerLoad = 4;

  explicit IngestStream(uint64_t seed);
  /// View v's query: ?- tc(<head of its chain>, Y).
  std::string ViewSource(int v) const;
  /// A one-shot query on a chain no view watches; submitting it once
  /// leaves an index on `e` behind.
  std::string OneShotSource() const;

  struct Load {
    uint64_t request_id = 0;
    std::string facts;
    int poll_view = 0;
  };
  Load Next();
  /// Sorted rows view v must show after every load so far.
  std::vector<std::string> ExpectedView(int v) const;
  /// Sorted rows of OneShotSource() before any load.
  std::vector<std::string> ExpectedOneShot() const;

 private:
  std::vector<std::string> ChainReach(int chain) const;

  exdl::Rng rng_;
  uint64_t next_op_ = 0;
  std::vector<int> view_chain_;
  int one_shot_chain_ = 0;
  std::vector<int> length_;  ///< Current edge count of every chain.
};

// --- The random graph (deep_closure) --------------------------------------

/// A seeded random digraph on 768 nodes with 1.5 out-edges per node.
/// The seed picks the first graph of its draw sequence whose transitive
/// closure is within kClosureWindow of kClosureTarget tuples, so every
/// seed asks the evaluator for the same amount of work and only the
/// shape differs.
struct Graph {
  static constexpr int kNodes = 768;
  static constexpr int kEdges = 1152;
  static constexpr uint64_t kClosureTarget = 199000;
  static constexpr double kClosureWindow = 0.01;

  std::vector<std::vector<int>> out;
  uint64_t closure_tuples = 0;

  static Graph Generate(uint64_t seed);
  static std::string Node(int v);  ///< "n<v>"
  std::string Source() const;      ///< The `e` facts.
  /// Sorted names of the nodes reachable from `v` by one or more edges.
  std::vector<std::string> Reach(int v) const;
};

/// deep_closure's stream: ?- tc(nK, Y) for one of 64 seeded sources with
/// a non-empty reach. The binary closure cannot be projected, and
/// without magic sets evaluation computes all of it.
class DeepClosureStream {
 public:
  static constexpr int kSources = 64;
  DeepClosureStream(uint64_t seed, const Graph* graph);
  Query Next();
  /// Every source once (cache warm-up).
  std::vector<Query> Warmup() const;

 private:
  Query Make(size_t source) const;

  const Graph* graph_;
  exdl::Rng rng_;
  uint64_t next_op_ = 0;
  std::vector<int> sources_;
  std::vector<std::shared_ptr<const std::vector<std::string>>> expected_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
