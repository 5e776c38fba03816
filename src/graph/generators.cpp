#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>


namespace wasp::gen {

namespace {

Graph finish(VertexId n, std::vector<Edge>& edges, const WeightScheme& ws,
             std::uint64_t seed, bool undirected) {
  assign_weights(edges, ws, hash_mix(seed ^ 0x5eedULL));
  return Graph::from_edges(n, edges, undirected);
}

}  // namespace

Graph grid(std::uint32_t rows, std::uint32_t cols, const WeightScheme& ws,
           std::uint64_t seed) {
  const VertexId n = rows * cols;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(2) * n);
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      const VertexId v = r * cols + c;
      if (c + 1 < cols) edges.push_back({v, v + 1, 0});
      if (r + 1 < rows) edges.push_back({v, v + cols, 0});
    }
  }
  return finish(n, edges, ws, seed, /*undirected=*/true);
}

Graph mesh(std::uint32_t rows, std::uint32_t cols, const WeightScheme& ws,
           std::uint64_t seed) {
  const VertexId n = rows * cols;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(4) * n);
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      const VertexId v = r * cols + c;
      if (c + 1 < cols) edges.push_back({v, v + 1, 0});
      if (r + 1 < rows) edges.push_back({v, v + cols, 0});
      if (r + 1 < rows && c + 1 < cols) edges.push_back({v, v + cols + 1, 0});
      if (r + 1 < rows && c > 0) edges.push_back({v, v + cols - 1, 0});
    }
  }
  return finish(n, edges, ws, seed, /*undirected=*/true);
}

Graph chain_forest(std::uint32_t num_chains, std::uint32_t chain_len,
                   const WeightScheme& ws, std::uint64_t seed) {
  if (chain_len < 2) throw std::invalid_argument("chain_forest: chain_len < 2");
  const VertexId n = num_chains * chain_len;
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) + num_chains);
  for (std::uint32_t ch = 0; ch < num_chains; ++ch) {
    const VertexId base = ch * chain_len;
    for (std::uint32_t i = 0; i + 1 < chain_len; ++i)
      edges.push_back({base + i, base + i + 1, 0});
  }
  // Cross-link consecutive chains at random positions so the graph is
  // connected (the paper picks sources in the largest component anyway, but
  // a connected instance makes per-run work comparable).
  for (std::uint32_t ch = 0; ch + 1 < num_chains; ++ch) {
    const VertexId u = ch * chain_len + static_cast<VertexId>(rng.next_below(chain_len));
    const VertexId v =
        (ch + 1) * chain_len + static_cast<VertexId>(rng.next_below(chain_len));
    edges.push_back({u, v, 0});
  }
  return finish(n, edges, ws, seed, /*undirected=*/true);
}

Graph star_hub(VertexId n, double hub_fraction, double branch_fraction,
               const WeightScheme& ws, std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument("star_hub: n < 2");
  Xoshiro256 rng(seed);
  const VertexId hub = 0;
  const VertexId hub_degree =
      std::max<VertexId>(1, static_cast<VertexId>(hub_fraction * (n - 1)));
  std::vector<Edge> edges;
  edges.reserve(hub_degree + static_cast<VertexId>(branch_fraction * hub_degree) * 3 + n / 16);
  // Hub spokes: vertices 1..hub_degree.
  for (VertexId v = 1; v <= hub_degree; ++v) edges.push_back({hub, v, 0});
  // A small fraction of spoke endpoints branch out further (Mawi: ~1% of the
  // hub's neighbours are not leaves).
  const VertexId branching =
      static_cast<VertexId>(branch_fraction * hub_degree);
  for (VertexId i = 0; i < branching; ++i) {
    const VertexId u = 1 + static_cast<VertexId>(rng.next_below(hub_degree));
    for (int k = 0; k < 3; ++k) {
      const VertexId v = 1 + static_cast<VertexId>(rng.next_below(n - 1));
      if (v != u) edges.push_back({u, v, 0});
    }
  }
  // Vertices beyond the hub neighbourhood form a sparse random background so
  // they are reachable.
  for (VertexId v = hub_degree + 1; v < n; ++v) {
    const VertexId u = 1 + static_cast<VertexId>(rng.next_below(hub_degree));
    edges.push_back({u, v, 0});
  }
  return finish(n, edges, ws, seed, /*undirected=*/true);
}

Graph erdos_renyi(VertexId n, double avg_degree, const WeightScheme& ws,
                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const EdgeIndex m = static_cast<EdgeIndex>(avg_degree * n / 2.0);
  std::vector<Edge> edges;
  edges.reserve(m);
  for (EdgeIndex i = 0; i < m; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u != v) edges.push_back({u, v, 0});
  }
  return finish(n, edges, ws, seed, /*undirected=*/true);
}

Graph rmat(int scale, EdgeIndex num_edges, double a, double b, double c,
           const WeightScheme& ws, std::uint64_t seed, bool undirected) {
  if (scale < 1 || scale > 31) throw std::invalid_argument("rmat: bad scale");
  const VertexId n = VertexId{1} << scale;
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (EdgeIndex i = 0; i < num_edges; ++i) {
    VertexId u = 0;
    VertexId v = 0;
    for (int level = 0; level < scale; ++level) {
      // Slightly perturbed quadrant probabilities (standard R-MAT noise)
      // avoid exact self-similarity artifacts.
      const double noise = 0.9 + 0.2 * rng.next_double();
      const double pa = a * noise;
      const double pb = b * noise;
      const double pc = c * noise;
      const double sum = pa + pb + pc + (1.0 - a - b - c) * noise;
      const double r = rng.next_double() * sum;
      u <<= 1;
      v <<= 1;
      if (r < pa) {
        // top-left quadrant: no bits set
      } else if (r < pa + pb) {
        v |= 1;
      } else if (r < pa + pb + pc) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u != v) edges.push_back({u, v, 0});
  }
  return finish(n, edges, ws, seed, undirected);
}

Graph random_regular(VertexId n, int k, const WeightScheme& ws,
                     std::uint64_t seed) {
  if (k < 1) throw std::invalid_argument("random_regular: k < 1");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(k) / 2);
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  // k/2 random permutation matchings: v -- perm[v]; each contributes ~2 to
  // every degree. Collisions/self-loops are dropped, so degrees are ~k.
  const int rounds = std::max(1, k / 2);
  for (int round = 0; round < rounds; ++round) {
    for (VertexId i = n; i > 1; --i) {
      const auto j = static_cast<VertexId>(rng.next_below(i));
      std::swap(perm[i - 1], perm[j]);
    }
    for (VertexId v = 0; v < n; ++v)
      if (v != perm[v]) edges.push_back({v, perm[v], 0});
  }
  return finish(n, edges, ws, seed, /*undirected=*/true);
}

Graph hypercube(int dims, const WeightScheme& ws, std::uint64_t seed) {
  if (dims < 1 || dims > 30) throw std::invalid_argument("hypercube: bad dims");
  const VertexId n = VertexId{1} << dims;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(dims) / 2);
  for (VertexId v = 0; v < n; ++v) {
    for (int d = 0; d < dims; ++d) {
      const VertexId u = v ^ (VertexId{1} << d);
      if (v < u) edges.push_back({v, u, 0});
    }
  }
  return finish(n, edges, ws, seed, /*undirected=*/true);
}

Graph small_world(VertexId n, int k, double rewire_p, const WeightScheme& ws,
                  std::uint64_t seed) {
  if (k < 1) throw std::invalid_argument("small_world: k < 1");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  for (VertexId v = 0; v < n; ++v) {
    for (int j = 1; j <= k; ++j) {
      VertexId u = (v + static_cast<VertexId>(j)) % n;
      if (rng.next_double() < rewire_p) {
        u = static_cast<VertexId>(rng.next_below(n));
        if (u == v) continue;
      }
      edges.push_back({v, u, 0});
    }
  }
  return finish(n, edges, ws, seed, /*undirected=*/true);
}

Graph preferential_attachment(VertexId n, int m, const WeightScheme& ws,
                              std::uint64_t seed) {
  if (m < 1) throw std::invalid_argument("preferential_attachment: m < 1");
  if (n <= static_cast<VertexId>(m))
    throw std::invalid_argument("preferential_attachment: n <= m");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(m));
  // `targets` holds one entry per edge endpoint; sampling it uniformly is
  // sampling vertices proportionally to degree.
  std::vector<VertexId> endpoints;
  endpoints.reserve(2 * edges.capacity());
  // Seed clique over the first m+1 vertices.
  for (VertexId u = 0; u <= static_cast<VertexId>(m); ++u) {
    for (VertexId v = u + 1; v <= static_cast<VertexId>(m); ++v) {
      edges.push_back({u, v, 0});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (VertexId v = static_cast<VertexId>(m) + 1; v < n; ++v) {
    for (int j = 0; j < m; ++j) {
      const VertexId u = endpoints[rng.next_below(endpoints.size())];
      if (u == v) continue;
      edges.push_back({v, u, 0});
      endpoints.push_back(v);
      endpoints.push_back(u);
    }
  }
  return finish(n, edges, ws, seed, /*undirected=*/true);
}

}  // namespace wasp::gen
