#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "support/errors.hpp"

namespace wasp {

Graph Graph::from_edges(VertexId num_vertices, const std::vector<Edge>& edges,
                        bool undirected) {
  const std::size_t n = num_vertices;
  std::vector<EdgeIndex> offsets(n + 1, 0);

  // Pass 1: count out-degrees (both directions for undirected graphs).
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;  // drop self-loops
    if (e.src >= num_vertices || e.dst >= num_vertices)
      throw std::out_of_range("Graph::from_edges: vertex id out of range");
    ++offsets[e.src + 1];
    if (undirected) ++offsets[e.dst + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  // Pass 2: scatter into the adjacency array.
  AdjacencyVector adjacency(offsets[n]);
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;
    adjacency[cursor[e.src]++] = WEdge{e.dst, e.w};
    if (undirected) adjacency[cursor[e.dst]++] = WEdge{e.src, e.w};
  }

  // Sort each adjacency list by destination: deterministic layout, better
  // locality, and required by the bidirectional-relaxation tests.
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]),
              [](const WEdge& a, const WEdge& b) {
                return a.dst < b.dst || (a.dst == b.dst && a.w < b.w);
              });
  }

  return from_csr(std::move(offsets), std::move(adjacency), undirected);
}

Graph Graph::from_csr(std::vector<EdgeIndex> offsets, AdjacencyVector adjacency,
                      bool undirected) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != adjacency.size())
    throw InvalidGraphError("Graph::from_csr: malformed offsets");
  if (offsets.size() - 1 > static_cast<std::size_t>(kInvalidVertex))
    throw InvalidGraphError("Graph::from_csr: too many vertices for 32-bit ids");
  const std::size_t n = offsets.size() - 1;
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      std::ostringstream os;
      os << "Graph::from_csr: offsets decrease at vertex " << v << " ("
         << offsets[v] << " > " << offsets[v + 1] << ")";
      throw InvalidGraphError(os.str());
    }
  }
  for (std::size_t i = 0; i < adjacency.size(); ++i) {
    if (adjacency[i].dst >= n) {
      std::ostringstream os;
      os << "Graph::from_csr: adjacency[" << i << "].dst = "
         << adjacency[i].dst << " out of range [0, " << n << ")";
      throw InvalidGraphError(os.str());
    }
  }
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  g.undirected_ = undirected;
  return g;
}

Weight Graph::max_weight() const {
  Weight w = 0;
  for (const WEdge& e : adjacency_) w = std::max(w, e.w);
  return w;
}

}  // namespace wasp
