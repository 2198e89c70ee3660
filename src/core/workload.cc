#include "core/workload.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/string_util.h"

namespace exdl {
namespace {

void AddEdge(Database* db, PredId pred, Value from, Value to) {
  const Value row[2] = {from, to};
  db->AddTuple(pred, row);
}

/// Emits the edges of `spec`, calling `edge(from, to)` for each.
template <typename EmitEdge>
std::vector<Value> GenerateGraph(Context* ctx, const GraphSpec& spec,
                                 EmitEdge edge) {
  std::vector<Value> nodes = MakeNodes(ctx, spec.nodes);
  Rng rng(spec.seed);
  int n = spec.nodes;
  switch (spec.kind) {
    case GraphSpec::Kind::kChain:
      for (int i = 0; i + 1 < n; ++i) edge(nodes[i], nodes[i + 1]);
      break;
    case GraphSpec::Kind::kCycle:
      for (int i = 0; i + 1 < n; ++i) edge(nodes[i], nodes[i + 1]);
      if (n > 1) edge(nodes[n - 1], nodes[0]);
      break;
    case GraphSpec::Kind::kRandomSparse: {
      int64_t edges = static_cast<int64_t>(spec.avg_degree * n);
      for (int64_t e = 0; e < edges; ++e) {
        edge(nodes[rng.Below(static_cast<uint64_t>(n))],
             nodes[rng.Below(static_cast<uint64_t>(n))]);
      }
      break;
    }
    case GraphSpec::Kind::kGrid: {
      int side = std::max(1, static_cast<int>(std::sqrt(n)));
      for (int r = 0; r < side; ++r) {
        for (int c = 0; c < side; ++c) {
          int i = r * side + c;
          if (c + 1 < side) edge(nodes[i], nodes[i + 1]);
          if (r + 1 < side) edge(nodes[i], nodes[i + side]);
        }
      }
      break;
    }
    case GraphSpec::Kind::kTree:
      for (int i = 1; i < n; ++i) {
        edge(nodes[rng.Below(static_cast<uint64_t>(i))], nodes[i]);
      }
      break;
    case GraphSpec::Kind::kPreferential: {
      // Each new node links to ~avg_degree targets chosen proportionally
      // to in-degree + 1 (implemented by sampling from an endpoint list).
      std::vector<int> endpoints;
      int per_node = std::max(1, static_cast<int>(spec.avg_degree));
      for (int i = 1; i < n; ++i) {
        for (int k = 0; k < per_node; ++k) {
          int target;
          if (endpoints.empty() || rng.Chance(0.2)) {
            target = static_cast<int>(rng.Below(static_cast<uint64_t>(i)));
          } else {
            target = endpoints[rng.Below(endpoints.size())];
          }
          edge(nodes[i], nodes[target]);
          endpoints.push_back(target);
        }
      }
      break;
    }
  }
  return nodes;
}

}  // namespace

std::vector<Value> MakeNodes(Context* ctx, int count) {
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(ctx->InternSymbol(StrCat("n", std::to_string(i))));
  }
  return out;
}

std::vector<Value> MakeGraph(Context* ctx, Database* db, PredId edge_pred,
                             const GraphSpec& spec) {
  // Pre-size the edge arena: every generator emits at most ~avg_degree * n
  // (plus one for the cycle-closing edge).
  db->GetOrCreate(edge_pred, 2).Reserve(static_cast<size_t>(
      std::max(spec.avg_degree, 1.0) * spec.nodes + 1));
  return GenerateGraph(ctx, spec, [&](Value from, Value to) {
    AddEdge(db, edge_pred, from, to);
  });
}

std::vector<Value> MakeLabeledGraph(Context* ctx, Database* db,
                                    const std::vector<PredId>& edge_preds,
                                    const GraphSpec& spec) {
  Rng label_rng(spec.seed ^ 0x9E3779B97F4A7C15ULL);
  return GenerateGraph(ctx, spec, [&](Value from, Value to) {
    AddEdge(db, edge_preds[label_rng.Below(edge_preds.size())], from, to);
  });
}

void MakeRandomTuples(Context* ctx, Database* db, PredId pred, int count,
                      int domain_size, uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> domain = MakeNodes(ctx, domain_size);
  uint32_t arity = ctx->predicate(pred).arity;
  db->GetOrCreate(pred, arity).Reserve(static_cast<size_t>(count));
  std::vector<Value> row(arity);
  for (int i = 0; i < count; ++i) {
    for (uint32_t j = 0; j < arity; ++j) {
      row[j] = domain[rng.Below(domain.size())];
    }
    db->AddTuple(pred, row);
  }
}

}  // namespace exdl
