#include "workloads.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

using Rows = std::vector<std::string>;

std::shared_ptr<const Rows> Sorted(Rows rows) {
  std::sort(rows.begin(), rows.end());
  return std::make_shared<const Rows>(std::move(rows));
}

/// Fisher-Yates with the portable Rng, so a seed means the same order on
/// every platform.
template <typename T>
void Shuffle(std::vector<T>& v, exdl::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

}  // namespace

std::string_view WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServeMix:
      return "serve_mix";
    case Workload::kIngestViews:
      return "ingest_views";
    case Workload::kDeepClosure:
      return "deep_closure";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kServeMix, Workload::kIngestViews,
                     Workload::kDeepClosure}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

bool SameRows(std::string_view rendered, const Rows& expected) {
  std::vector<std::string_view> rows;
  size_t start = 0;
  while (start < rendered.size()) {
    const size_t end = rendered.find('\n', start);
    if (end == std::string_view::npos) return false;  // Unterminated row.
    rows.push_back(rendered.substr(start, end - start));
    start = end + 1;
  }
  if (rows.size() != expected.size()) return false;
  std::sort(rows.begin(), rows.end());
  return std::equal(rows.begin(), rows.end(), expected.begin());
}

// --- Chain EDB ------------------------------------------------------------

std::string ChainNode(int chain, int pos) {
  return "c" + std::to_string(chain) + "x" + std::to_string(pos);
}

std::string ChainEdbSource() {
  std::string facts;
  for (int c = 0; c < kChains; ++c) {
    for (int p = 0; p < kChainLen; ++p) {
      facts += "e(" + ChainNode(c, p) + ", " + ChainNode(c, p + 1) + ").\n";
    }
  }
  return facts;
}

// --- serve_mix ------------------------------------------------------------

namespace {

constexpr int kHotSources = 16;
constexpr double kColdShare = 0.10;
/// Sources sit at positions 0..13, so a two-hop query always has an answer
/// and the boolean is always true; cold draws take any position that has
/// an out-edge, so some two-hop answers are empty and some booleans false.
constexpr int kHotMaxPos = kChainLen - 3;

}  // namespace

ServeMixStream::ServeMixStream(uint64_t seed, int client, int num_clients)
    : client_(client),
      num_clients_(num_clients),
      rng_(seed * 0x9E3779B97F4A7C15ULL + 0x51 + static_cast<uint64_t>(client)) {
  // The hot set depends on the seed only: every client shares it.
  exdl::Rng hot_rng(seed ^ 0x5EC0DE5EEDULL);
  std::vector<int> chains(kChains);
  for (int c = 0; c < kChains; ++c) chains[c] = c;
  Shuffle(chains, hot_rng);
  for (int i = 0; i < kHotSources; ++i) {
    hot_.emplace_back(chains[i],
                      static_cast<int>(hot_rng.Below(kHotMaxPos + 1)));
  }
  // Fresh sources: this client's share of the chains, minus hot sources,
  // so no two requests of a run ever share a cold source.
  for (int c = client; c < kChains; c += num_clients) {
    for (int p = 0; p < kChainLen; ++p) {
      if (std::find(hot_.begin(), hot_.end(), std::make_pair(c, p)) ==
          hot_.end()) {
        cold_.emplace_back(c, p);
      }
    }
  }
  Shuffle(cold_, rng_);
  Rows all;
  for (int c = 0; c < kChains; ++c) {
    for (int p = 0; p < kChainLen; ++p) all.push_back(ChainNode(c, p));
  }
  all_sources_ = Sorted(std::move(all));
}

Query ServeMixStream::Make(int tmpl, int chain, int pos) const {
  Query q;
  const std::string c = ChainNode(chain, pos);
  switch (tmpl) {
    case 0:
      q.source = std::string(kTcRules) + "q(X) :- tc(X, _).\n?- q(X).\n";
      q.expected = all_sources_;
      break;
    case 1:
      q.source = "q(Z) :- e(" + c + ", Y), e(Y, Z).\n?- q(Z).\n";
      q.expected = Sorted(pos + 2 <= kChainLen
                              ? Rows{ChainNode(chain, pos + 2)}
                              : Rows{});
      break;
    default:
      // A true 0-ary query renders as one empty row.
      q.source = std::string(kTcRules) + "hit :- e(" + c +
                 ", Y), tc(Y, _).\n?- hit.\n";
      q.expected = Sorted(pos + 1 < kChainLen ? Rows{""} : Rows{});
      break;
  }
  return q;
}

Query ServeMixStream::Next() {
  const uint64_t op = next_op_++;
  Query q;
  if (rng_.Chance(kColdShare) && next_cold_ < cold_.size()) {
    const auto [chain, pos] = cold_[next_cold_++];
    q = Make(1 + static_cast<int>(rng_.Below(2)), chain, pos);
  } else {
    const int tmpl = static_cast<int>(rng_.Below(3));
    const auto [chain, pos] = hot_[rng_.Below(hot_.size())];
    q = Make(tmpl, chain, pos);
  }
  q.request_id = op * static_cast<uint64_t>(num_clients_) +
                 static_cast<uint64_t>(client_) + 1;
  return q;
}

std::vector<Query> ServeMixStream::Warmup() const {
  std::vector<Query> out;
  out.push_back(Make(0, 0, 0));
  for (const auto& [chain, pos] : hot_) {
    out.push_back(Make(1, chain, pos));
    out.push_back(Make(2, chain, pos));
  }
  return out;
}

// --- ingest_views ---------------------------------------------------------

IngestStream::IngestStream(uint64_t seed)
    : rng_(seed * 0x2545F4914F6CDD1DULL + 0x1D),
      length_(kChains, kChainLen) {
  std::vector<int> chains(kChains);
  for (int c = 0; c < kChains; ++c) chains[c] = c;
  Shuffle(chains, rng_);
  view_chain_.assign(chains.begin(), chains.begin() + kViews);
  one_shot_chain_ = chains[kViews];
}

std::string IngestStream::ViewSource(int v) const {
  return std::string(kTcRules) + "?- tc(" + ChainNode(view_chain_[v], 0) +
         ", Y).\n";
}

std::string IngestStream::OneShotSource() const {
  return std::string(kTcRules) + "?- tc(" + ChainNode(one_shot_chain_, 0) +
         ", Y).\n";
}

IngestStream::Load IngestStream::Next() {
  Load load;
  const uint64_t op = next_op_++;
  load.request_id = op + 1;
  load.poll_view = static_cast<int>(op % kViews);
  // Every fourth load extends a watched chain, so polled answers change
  // while the run measures; the rest extend random chains.
  std::vector<int> picked;
  if (op % 4 == 0) picked.push_back(view_chain_[(op / 4) % kViews]);
  while (picked.size() < static_cast<size_t>(kFactsPerLoad)) {
    const int c = static_cast<int>(rng_.Below(kChains));
    if (std::find(picked.begin(), picked.end(), c) == picked.end()) {
      picked.push_back(c);
    }
  }
  for (int c : picked) {
    load.facts += "e(" + ChainNode(c, length_[c]) + ", " +
                  ChainNode(c, length_[c] + 1) + ").\n";
    ++length_[c];
  }
  return load;
}

std::vector<std::string> IngestStream::ExpectedView(int v) const {
  return ChainReach(view_chain_[v]);
}

std::vector<std::string> IngestStream::ExpectedOneShot() const {
  return ChainReach(one_shot_chain_);
}

std::vector<std::string> IngestStream::ChainReach(int chain) const {
  Rows rows;
  for (int p = 1; p <= length_[chain]; ++p) rows.push_back(ChainNode(chain, p));
  std::sort(rows.begin(), rows.end());
  return rows;
}

// --- deep_closure ---------------------------------------------------------

std::string Graph::Node(int v) { return "n" + std::to_string(v); }

std::string Graph::Source() const {
  std::string facts;
  for (int u = 0; u < kNodes; ++u) {
    for (int v : out[u]) facts += "e(" + Node(u) + ", " + Node(v) + ").\n";
  }
  return facts;
}

namespace {

/// Marks every node reachable from `src` by >= 1 edge; returns the count.
int Bfs(const std::vector<std::vector<int>>& out, int src,
        std::vector<char>* seen) {
  seen->assign(out.size(), 0);
  std::vector<int> frontier(out[src].begin(), out[src].end());
  int count = 0;
  for (int v : frontier) {
    if (!(*seen)[v]) {
      (*seen)[v] = 1;
      ++count;
    }
  }
  std::vector<int> queue;
  for (int v = 0; v < static_cast<int>(out.size()); ++v) {
    if ((*seen)[v]) queue.push_back(v);
  }
  for (size_t i = 0; i < queue.size(); ++i) {
    for (int w : out[queue[i]]) {
      if (!(*seen)[w]) {
        (*seen)[w] = 1;
        ++count;
        queue.push_back(w);
      }
    }
  }
  return count;
}

}  // namespace

Graph Graph::Generate(uint64_t seed) {
  exdl::Rng rng(seed * 0xD1B54A32D192ED03ULL + 0xDC);
  const double lo = kClosureTarget * (1 - kClosureWindow);
  const double hi = kClosureTarget * (1 + kClosureWindow);
  std::vector<char> seen;
  while (true) {
    Graph g;
    g.out.assign(kNodes, {});
    int edges = 0;
    while (edges < kEdges) {
      const int u = static_cast<int>(rng.Below(kNodes));
      const int v = static_cast<int>(rng.Below(kNodes));
      if (u == v ||
          std::find(g.out[u].begin(), g.out[u].end(), v) != g.out[u].end()) {
        continue;
      }
      g.out[u].push_back(v);
      ++edges;
    }
    for (int u = 0; u < kNodes; ++u) {
      g.closure_tuples += static_cast<uint64_t>(Bfs(g.out, u, &seen));
    }
    const double size = static_cast<double>(g.closure_tuples);
    if (size >= lo && size <= hi) return g;
  }
}

std::vector<std::string> Graph::Reach(int v) const {
  std::vector<char> seen;
  Bfs(out, v, &seen);
  Rows rows;
  for (int w = 0; w < kNodes; ++w) {
    if (seen[w]) rows.push_back(Node(w));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

DeepClosureStream::DeepClosureStream(uint64_t seed, const Graph* graph)
    : graph_(graph), rng_(seed * 0xA0761D6478BD642FULL + 0xDE) {
  std::vector<int> nodes(Graph::kNodes);
  for (int v = 0; v < Graph::kNodes; ++v) nodes[v] = v;
  Shuffle(nodes, rng_);
  for (int v : nodes) {
    if (static_cast<int>(sources_.size()) == kSources) break;
    Rows reach = graph_->Reach(v);
    if (reach.empty()) continue;
    sources_.push_back(v);
    expected_.push_back(std::make_shared<const Rows>(std::move(reach)));
  }
}

Query DeepClosureStream::Make(size_t i) const {
  Query q;
  q.source = std::string(kTcRules) + "?- tc(" + Graph::Node(sources_[i]) +
             ", Y).\n";
  q.expected = expected_[i];
  return q;
}

Query DeepClosureStream::Next() {
  Query q = Make(rng_.Below(sources_.size()));
  q.request_id = ++next_op_;
  return q;
}

std::vector<Query> DeepClosureStream::Warmup() const {
  std::vector<Query> out;
  for (size_t i = 0; i < sources_.size(); ++i) out.push_back(Make(i));
  return out;
}

}  // namespace perfbench
