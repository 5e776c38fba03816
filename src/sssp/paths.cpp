#include "sssp/paths.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"

namespace wasp {

std::vector<VertexId> shortest_path_tree(const Graph& g, VertexId source,
                                         const std::vector<Distance>& dist) {
  std::vector<VertexId> parent(g.num_vertices(), kInvalidVertex);
  // One pass over all edges: u is a valid parent of v when the edge is
  // tight. Prefer the smallest-id parent for determinism.
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (dist[u] == kInfDist) continue;
    for (const WEdge& e : g.out_neighbors(u)) {
      if (e.dst == source || dist[e.dst] == kInfDist) continue;
      if (dist[u] + e.w == dist[e.dst] &&
          (parent[e.dst] == kInvalidVertex || u < parent[e.dst])) {
        parent[e.dst] = u;
      }
    }
  }
  parent[source] = kInvalidVertex;
  return parent;
}

std::vector<VertexId> extract_path(const Graph& g, VertexId source,
                                   VertexId target,
                                   const std::vector<Distance>& dist) {
  if (dist[target] == kInfDist) return {};
  // Walk backwards along tight edges. For directed graphs the in-neighbours
  // come from the transpose; undirected graphs are their own transpose.
  const Graph* back = &g;
  Graph gt;
  if (!g.is_undirected()) {
    gt = transpose(g);
    back = &gt;
  }
  std::vector<VertexId> reversed{target};
  VertexId v = target;
  while (v != source) {
    VertexId best = kInvalidVertex;
    for (const WEdge& e : back->out_neighbors(v)) {
      if (dist[e.dst] != kInfDist && dist[e.dst] + e.w == dist[v]) {
        if (best == kInvalidVertex || e.dst < best) best = e.dst;
      }
    }
    if (best == kInvalidVertex) return {};  // inconsistent distances
    reversed.push_back(best);
    v = best;
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

double closeness_centrality(const std::vector<Distance>& dist, VertexId v) {
  std::uint64_t reached = 0;
  double sum = 0.0;
  for (std::size_t u = 0; u < dist.size(); ++u) {
    if (u == v || dist[u] == kInfDist) continue;
    ++reached;
    sum += dist[u];
  }
  return sum > 0.0 ? static_cast<double>(reached) / sum : 0.0;
}

std::uint64_t reach_within(const std::vector<Distance>& dist, VertexId source,
                           Distance budget) {
  std::uint64_t reach = 0;
  for (std::size_t v = 0; v < dist.size(); ++v) {
    if (v == source || dist[v] == kInfDist) continue;
    if (dist[v] <= budget) ++reach;
  }
  return reach;
}

}  // namespace wasp
