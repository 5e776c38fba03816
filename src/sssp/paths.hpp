// Shortest-path tree utilities layered on top of a distance vector: parent
// extraction, path queries, and the centrality helpers of the repeated-SSSP
// workloads the paper's introduction motivates (run those through one
// Solver, sssp/solver.hpp, to amortize the team and the distance array).
//
// All functions work from the *distances* alone (plus the graph): any vertex
// v's parent is an in-neighbour u with dist[u] + w(u,v) == dist[v], which
// always exists for a valid SSSP fixed point. This keeps the hot SSSP loops
// free of parent bookkeeping.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "sssp/common.hpp"

namespace wasp {

/// Parent of every vertex in one shortest-path tree (kInvalidVertex for the
/// source and for unreachable vertices). O(|E|) via the transpose.
std::vector<VertexId> shortest_path_tree(const Graph& g, VertexId source,
                                         const std::vector<Distance>& dist);

/// The vertices of one shortest path source -> target (inclusive), or empty
/// when target is unreachable. O(path length * in-degree) — no transpose
/// needed for undirected graphs; directed graphs pass the transpose.
std::vector<VertexId> extract_path(const Graph& g, VertexId source,
                                   VertexId target,
                                   const std::vector<Distance>& dist);

/// Closeness centrality of `v` given its SSSP distances:
/// (reached - 1) / sum of distances; 0 when nothing is reached.
double closeness_centrality(const std::vector<Distance>& dist, VertexId v);

/// Number of vertices within `budget` of the source (excluding the source).
std::uint64_t reach_within(const std::vector<Distance>& dist, VertexId source,
                           Distance budget);

}  // namespace wasp
