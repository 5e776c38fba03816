// Tests for the extension modules: shortest-path trees & path extraction,
// batched SSSP, pendant-tree contraction, the Stealing MultiQueue, and the
// delta-suggestion heuristic.
#include <gtest/gtest.h>

#include <set>

#include "graph/algorithms.hpp"
#include "graph/contraction.hpp"
#include "graph/generators.hpp"
#include "sssp/contracted.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/paths.hpp"
#include "sssp/solver.hpp"
#include "sssp/sssp.hpp"
#include "sssp/tuning.hpp"
#include "sssp/validate.hpp"

namespace wasp {
namespace {

// --- shortest-path trees & paths -------------------------------------------

TEST(Paths, TreeParentsAreTight) {
  const Graph g = gen::rmat(10, 4096, 0.57, 0.19, 0.19, WeightScheme::gap(), 3,
                            true);
  const VertexId src = pick_source_in_largest_component(g, 1);
  const auto dist = dijkstra(g, src).dist;
  const auto parent = shortest_path_tree(g, src, dist);
  EXPECT_EQ(parent[src], kInvalidVertex);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == src) continue;
    if (dist[v] == kInfDist) {
      EXPECT_EQ(parent[v], kInvalidVertex);
      continue;
    }
    ASSERT_NE(parent[v], kInvalidVertex) << "reached vertex without parent";
    // The parent edge must be tight.
    bool tight = false;
    for (const WEdge& e : g.out_neighbors(parent[v]))
      if (e.dst == v && dist[parent[v]] + e.w == dist[v]) tight = true;
    EXPECT_TRUE(tight) << "parent edge of " << v << " not tight";
  }
}

TEST(Paths, ExtractPathEndsMatchAndSumsToDistance) {
  const Graph g = gen::grid(20, 20, WeightScheme::gap(), 4);
  const VertexId src = 0;
  const auto dist = dijkstra(g, src).dist;
  for (VertexId target : {VertexId{399}, VertexId{57}, VertexId{210}}) {
    const auto path = extract_path(g, src, target, dist);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), target);
    // Sum edge weights along the path.
    Distance sum = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      Weight w = 0;
      bool found = false;
      for (const WEdge& e : g.out_neighbors(path[i]))
        if (e.dst == path[i + 1] && (!found || e.w < w)) {
          w = e.w;
          found = true;
        }
      ASSERT_TRUE(found) << "path uses a non-edge";
      sum += w;
    }
    EXPECT_EQ(sum, dist[target]);
  }
}

TEST(Paths, ExtractPathDirectedGraph) {
  const Graph g = Graph::from_edges(
      4, {{0, 1, 2}, {1, 2, 2}, {0, 2, 10}, {2, 3, 1}}, false);
  const auto dist = dijkstra(g, 0).dist;
  const auto path = extract_path(g, 0, 3, dist);
  EXPECT_EQ(path, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(Paths, UnreachableTargetGivesEmptyPath) {
  const Graph g = Graph::from_edges(3, {{0, 1, 1}}, false);
  const auto dist = dijkstra(g, 0).dist;
  EXPECT_TRUE(extract_path(g, 0, 2, dist).empty());
}

TEST(Paths, BatchRunsMatchIndividualRuns) {
  const Graph g = gen::erdos_renyi(2000, 8.0, WeightScheme::gap(), 5);
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 3;
  options.delta = 1;
  // One Solver (one thread team, one pooled distance array) across the
  // batch, as repeated-SSSP workloads use it.
  Solver solver(options);
  for (const VertexId s : {VertexId{1}, VertexId{100}, VertexId{999}}) {
    EXPECT_EQ(solver.solve(g, s).dist, dijkstra(g, s).dist) << "source " << s;
  }
}

TEST(Paths, CentralityHelpers) {
  // Star: center 0 with 4 unit spokes.
  const Graph g = Graph::from_edges(
      5, {{0, 1, 2}, {0, 2, 2}, {0, 3, 2}, {0, 4, 2}}, true);
  const auto dist = dijkstra(g, 0).dist;
  EXPECT_DOUBLE_EQ(closeness_centrality(dist, 0), 4.0 / 8.0);
  EXPECT_EQ(reach_within(dist, 0, 2), 4u);
  EXPECT_EQ(reach_within(dist, 0, 1), 0u);
}

// --- pendant-tree contraction ----------------------------------------------

TEST(Contraction, EliminatesStarLeavesAndStaysExact) {
  const Graph g = gen::star_hub(5000, 0.93, 0.01, WeightScheme::gap(), 9);
  const VertexId src = pick_source_in_largest_component(g, 2);
  const auto pc = PendantContraction::contract(g, src);
  // Most of the star graph is pendant.
  EXPECT_GT(pc.num_eliminated(), g.num_vertices() / 2);
  EXPECT_TRUE(pc.in_core(src));

  auto dist = dijkstra(pc.core(), src).dist;
  pc.expand(dist);
  EXPECT_EQ(dist, dijkstra(g, src).dist);
}

TEST(Contraction, EliminatesWholeTrees) {
  // A triangle core {0,1,2} with a 3-deep pendant path 2-3-4-5 and a
  // branching pendant tree at 0.
  const Graph g = Graph::from_edges(
      8,
      {{0, 1, 1}, {1, 2, 1}, {0, 2, 1},        // core
       {2, 3, 5}, {3, 4, 2}, {4, 5, 7},        // path
       {0, 6, 4}, {6, 7, 3}},                  // small tree
      true);
  const auto pc = PendantContraction::contract(g, 0);
  EXPECT_EQ(pc.num_eliminated(), 5u);  // vertices 3,4,5,6,7
  for (VertexId v : {3u, 4u, 5u, 6u, 7u}) EXPECT_FALSE(pc.in_core(v));
  for (VertexId v : {0u, 1u, 2u}) EXPECT_TRUE(pc.in_core(v));

  auto dist = dijkstra(pc.core(), 0).dist;
  pc.expand(dist);
  EXPECT_EQ(dist, dijkstra(g, 0).dist);
}

TEST(Contraction, SourceInsidePendantTreeIsPreserved) {
  // Path 0-1-2-3 attached to triangle {3,4,5}; source 0 is a leaf. The
  // whole chain 0-1-2 must survive so core SSSP from 0 is well-defined.
  const Graph g = Graph::from_edges(
      6, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1}, {3, 5, 1}},
      true);
  const auto pc = PendantContraction::contract(g, 0);
  EXPECT_TRUE(pc.in_core(0));
  EXPECT_TRUE(pc.in_core(1));
  EXPECT_TRUE(pc.in_core(2));
  auto dist = dijkstra(pc.core(), 0).dist;
  pc.expand(dist);
  EXPECT_EQ(dist, dijkstra(g, 0).dist);
}

TEST(Contraction, PureTreeContractsToSource) {
  // A path graph is one big pendant tree: everything except the kept vertex
  // collapses.
  const Graph g = gen::chain_forest(1, 50, WeightScheme::gap(), 11);
  const auto pc = PendantContraction::contract(g, 10);
  EXPECT_EQ(pc.num_eliminated(), g.num_vertices() - 1);
  auto dist = dijkstra(pc.core(), 10).dist;
  pc.expand(dist);
  EXPECT_EQ(dist, dijkstra(g, 10).dist);
}

TEST(Contraction, RejectsDirectedGraphs) {
  const Graph g = Graph::from_edges(2, {{0, 1, 1}}, false);
  EXPECT_THROW(PendantContraction::contract(g, 0), std::invalid_argument);
}

TEST(Contraction, RunSsspContractedMatchesPlain) {
  for (const auto seed : {1, 2, 3}) {
    const Graph g = gen::star_hub(4000, 0.9, 0.02, WeightScheme::gap(),
                                  static_cast<std::uint64_t>(seed));
    const VertexId src = pick_source_in_largest_component(g, 7);
    SsspOptions options;
    options.algo = Algorithm::kWasp;
    options.threads = 4;
    options.delta = 4;
    const auto contracted = run_sssp_contracted(g, src, options);
    EXPECT_GT(contracted.eliminated_vertices, 0u);
    EXPECT_EQ(contracted.result.dist, dijkstra(g, src).dist);
  }
}

// --- Stealing MultiQueue ----------------------------------------------------

TEST(SmqDijkstra, MatchesDijkstraAcrossGraphs) {
  for (const int threads : {1, 4}) {
    const Graph g = gen::rmat(11, 16384, 0.57, 0.19, 0.19, WeightScheme::gap(),
                              15, true);
    const VertexId src = pick_source_in_largest_component(g, 3);
    SsspOptions options;
    options.algo = Algorithm::kSmqDijkstra;
    options.threads = threads;
    const SsspResult r = run_sssp(g, src, options);
    EXPECT_EQ(r.dist, dijkstra(g, src).dist) << "threads=" << threads;
  }
}

TEST(SmqDijkstra, GridAndStarStayCorrect) {
  for (const auto* kind : {"grid", "star"}) {
    const Graph g = std::string(kind) == "grid"
                        ? gen::grid(40, 40, WeightScheme::gap(), 21)
                        : gen::star_hub(3000, 0.93, 0.01, WeightScheme::gap(), 22);
    const VertexId src = pick_source_in_largest_component(g, 5);
    SsspOptions options;
    options.algo = Algorithm::kSmqDijkstra;
    options.threads = 6;
    options.smq.steal_batch = 4;
    const SsspResult r = run_sssp(g, src, options);
    std::string msg;
    EXPECT_TRUE(validate_sssp(g, src, r.dist, &msg)) << kind << ": " << msg;
    EXPECT_EQ(r.dist, dijkstra(g, src).dist) << kind;
  }
}

TEST(SmqDijkstra, ParsesAlgorithmName) {
  EXPECT_EQ(parse_algorithm("smq"), Algorithm::kSmqDijkstra);
  EXPECT_STREQ(to_string(Algorithm::kSmqDijkstra), "smq");
}

// --- contraction -------------------------------------------------------------

TEST(Contraction, GridHasNoPendantsButStaysExact) {
  // Grids are their own 2-core: contraction must be a no-op and still exact.
  const Graph g = gen::grid(20, 20, WeightScheme::gap(), 12);
  const auto pc = PendantContraction::contract(g, 0);
  EXPECT_EQ(pc.num_eliminated(), 0u);
  auto dist = dijkstra(pc.core(), 0).dist;
  pc.expand(dist);
  EXPECT_EQ(dist, dijkstra(g, 0).dist);
}

TEST(Contraction, UnreachablePendantTreesStayInfinite) {
  // Two components; the pendant path 3-4-5 hangs off the *other* component.
  const Graph g = Graph::from_edges(
      6, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 2}, {4, 5, 2}}, true);
  const auto pc = PendantContraction::contract(g, 0);
  auto dist = dijkstra(pc.core(), 0).dist;
  pc.expand(dist);
  EXPECT_EQ(dist[4], kInfDist);
  EXPECT_EQ(dist[5], kInfDist);
  EXPECT_EQ(dist, dijkstra(g, 0).dist);
}

// --- delta heuristics --------------------------------------------------------

TEST(Tuning, ProfileDetectsStructure) {
  const auto road = profile_graph(gen::grid(50, 50, WeightScheme::gap(), 1));
  EXPECT_TRUE(road.low_degree);
  EXPECT_FALSE(road.skewed);

  const auto social = profile_graph(
      gen::rmat(12, 1 << 16, 0.57, 0.19, 0.19, WeightScheme::gap(), 2, true));
  EXPECT_FALSE(social.low_degree);
  EXPECT_TRUE(social.skewed);
}

TEST(Tuning, WaspGetsDeltaOneOnSkewedGraphs) {
  const Graph g =
      gen::rmat(12, 1 << 16, 0.57, 0.19, 0.19, WeightScheme::gap(), 2, true);
  EXPECT_EQ(suggest_delta(Algorithm::kWasp, g), 1u);
  EXPECT_GT(suggest_delta(Algorithm::kDeltaStepping, g), 1u);
}

TEST(Tuning, CoarseDeltaOnRoadGraphs) {
  const Graph g = gen::grid(60, 60, WeightScheme::gap(), 1);
  EXPECT_GT(suggest_delta(Algorithm::kWasp, g), 255u);
  EXPECT_GT(suggest_delta(Algorithm::kDeltaStepping, g),
            suggest_delta(Algorithm::kObim, g) / 4);
  EXPECT_EQ(suggest_delta(Algorithm::kMqDijkstra, g), 1u);
}

TEST(Tuning, SuggestedDeltasProduceCorrectRuns) {
  const Graph g = gen::grid(40, 40, WeightScheme::gap(), 8);
  const VertexId src = 0;
  const auto expected = dijkstra(g, src).dist;
  for (const auto algo : {Algorithm::kWasp, Algorithm::kDeltaStepping,
                          Algorithm::kDeltaStar}) {
    SsspOptions options;
    options.algo = algo;
    options.threads = 4;
    options.delta = suggest_delta(algo, g);
    EXPECT_EQ(run_sssp(g, src, options).dist, expected) << to_string(algo);
  }
}

}  // namespace
}  // namespace wasp
