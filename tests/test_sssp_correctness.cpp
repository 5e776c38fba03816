// Correctness of every SSSP implementation against the sequential Dijkstra
// reference, swept over graph families, delta values, and thread counts
// (parameterized property tests). All implementations must produce exactly
// the same distance vector — SSSP has a unique fixed point.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/sssp.hpp"
#include "sssp/validate.hpp"

namespace wasp {
namespace {

using obs::CounterId;

struct TestGraph {
  const char* name;
  Graph graph;
  VertexId source;
};

/// Small but structurally diverse instances; each exercises a different
/// code path (deep buckets, hub decomposition, leaves, skew, cycles).
const TestGraph& test_graph(int index) {
  static const std::vector<TestGraph> graphs = [] {
    std::vector<TestGraph> gs;
    const auto add = [&gs](const char* name, Graph g) {
      const VertexId src = pick_source_in_largest_component(g, 123);
      gs.push_back(TestGraph{name, std::move(g), src});
    };
    add("grid", gen::grid(40, 40, WeightScheme::gap(), 11));
    add("chain", gen::chain_forest(4, 300, WeightScheme::gap(), 12));
    add("star", gen::star_hub(3000, 0.93, 0.01, WeightScheme::gap(), 13));
    add("rmat_directed",
        gen::rmat(11, 16384, 0.57, 0.19, 0.19, WeightScheme::gap(), 14, false));
    add("rmat_undirected",
        gen::rmat(11, 16384, 0.57, 0.19, 0.19, WeightScheme::gap(), 15, true));
    add("er", gen::erdos_renyi(3000, 8.0, WeightScheme::gap(), 16));
    add("unit_weights", gen::grid(30, 30, WeightScheme::unit(), 17));
    add("normal_weights",
        gen::random_regular(2000, 6, WeightScheme::truncated_normal(1.0, 0.5),
                            18));
    return gs;
  }();
  return graphs[static_cast<std::size_t>(index)];
}
constexpr int kNumTestGraphs = 8;

using Param = std::tuple<Algorithm, int /*graph index*/, Weight /*delta*/,
                         int /*threads*/>;

std::string param_name(const testing::TestParamInfo<Param>& info) {
  const auto [algo, graph_index, delta, threads] = info.param;
  return std::string(to_string(algo)) + "_" +
         test_graph(graph_index).name + "_d" + std::to_string(delta) + "_t" +
         std::to_string(threads);
}

class SsspCorrectness : public testing::TestWithParam<Param> {};

TEST_P(SsspCorrectness, MatchesDijkstra) {
  const auto [algo, graph_index, delta, threads] = GetParam();
  const TestGraph& tg = test_graph(graph_index);

  const SsspResult reference = dijkstra(tg.graph, tg.source);

  SsspOptions options;
  options.algo = algo;
  options.threads = threads;
  options.delta = delta;
  options.seed = 99;
  // Small theta so neighborhood decomposition actually triggers on the
  // star graph's hub at test scale.
  options.wasp.theta = 256;
  const SsspResult result = run_sssp(tg.graph, tg.source, options);

  std::string message;
  ASSERT_TRUE(distances_equal(reference.dist, result.dist, &message))
      << to_string(algo) << " on " << tg.name << " (delta=" << delta
      << ", threads=" << threads << "): " << message;
}

// Every parallel algorithm on every graph family, single- and multi-threaded,
// at a fine and a coarse delta.
INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SsspCorrectness,
    testing::Combine(
        testing::Values(Algorithm::kBellmanFord, Algorithm::kDeltaStepping,
                        Algorithm::kJulienne, Algorithm::kDeltaStar,
                        Algorithm::kRhoStepping, Algorithm::kRadiusStepping,
                        Algorithm::kMqDijkstra, Algorithm::kSmqDijkstra,
                        Algorithm::kObim, Algorithm::kWasp),
        testing::Range(0, kNumTestGraphs),
        testing::Values(Weight{1}, Weight{64}),
        testing::Values(1, 4)),
    param_name);

// Deltas beyond max weight and at extreme coarsening.
class SsspDeltaSweep : public testing::TestWithParam<Weight> {};

TEST_P(SsspDeltaSweep, WaspAnyDeltaMatchesDijkstra) {
  const Weight delta = GetParam();
  const TestGraph& tg = test_graph(0);
  const SsspResult reference = dijkstra(tg.graph, tg.source);
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 3;
  options.delta = delta;
  const SsspResult result = run_sssp(tg.graph, tg.source, options);
  std::string message;
  ASSERT_TRUE(distances_equal(reference.dist, result.dist, &message)) << message;
}

INSTANTIATE_TEST_SUITE_P(DeltaValues, SsspDeltaSweep,
                         testing::Values(Weight{1}, Weight{2}, Weight{16},
                                         Weight{255}, Weight{1024},
                                         Weight{1u << 20}));

TEST(SsspEdgeCases, SingleVertexGraph) {
  const Graph g = Graph::from_edges(1, {}, false);
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  const SsspResult r = run_sssp(g, 0, options);
  ASSERT_EQ(r.dist.size(), 1u);
  EXPECT_EQ(r.dist[0], 0u);
}

TEST(SsspEdgeCases, DisconnectedVerticesStayInfinite) {
  // Two components; sources in the first leave the second at infinity.
  const Graph g = Graph::from_edges(5, {{0, 1, 2}, {1, 2, 2}, {3, 4, 2}}, true);
  for (const Algorithm algo :
       {Algorithm::kDeltaStepping, Algorithm::kMqDijkstra, Algorithm::kWasp}) {
    SsspOptions options;
    options.algo = algo;
    options.threads = 2;
    options.delta = 1;
    const SsspResult r = run_sssp(g, 0, options);
    EXPECT_EQ(r.dist[0], 0u) << to_string(algo);
    EXPECT_EQ(r.dist[1], 2u) << to_string(algo);
    EXPECT_EQ(r.dist[2], 4u) << to_string(algo);
    EXPECT_EQ(r.dist[3], kInfDist) << to_string(algo);
    EXPECT_EQ(r.dist[4], kInfDist) << to_string(algo);
  }
}

TEST(SsspEdgeCases, ZeroWeightEdgesSupported) {
  const Graph g = Graph::from_edges(
      4, {{0, 1, 0}, {1, 2, 0}, {2, 3, 5}, {0, 3, 6}}, false);
  const SsspResult reference = dijkstra(g, 0);
  EXPECT_EQ(reference.dist[3], 5u);
  for (const Algorithm algo :
       {Algorithm::kDeltaStepping, Algorithm::kDeltaStar, Algorithm::kWasp}) {
    SsspOptions options;
    options.algo = algo;
    options.threads = 2;
    options.delta = 3;
    const SsspResult r = run_sssp(g, 0, options);
    std::string message;
    EXPECT_TRUE(distances_equal(reference.dist, r.dist, &message))
        << to_string(algo) << ": " << message;
  }
}

TEST(SsspEdgeCases, SourceWithNoOutEdges) {
  const Graph g = Graph::from_edges(3, {{1, 2, 4}}, false);
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  const SsspResult r = run_sssp(g, 0, options);
  EXPECT_EQ(r.dist[0], 0u);
  EXPECT_EQ(r.dist[1], kInfDist);
  EXPECT_EQ(r.dist[2], kInfDist);
}

TEST(SsspEdgeCases, ParallelEdgesKeepMinimum) {
  const Graph g = Graph::from_edges(2, {{0, 1, 9}, {0, 1, 3}, {0, 1, 7}}, false);
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  const SsspResult r = run_sssp(g, 0, options);
  EXPECT_EQ(r.dist[1], 3u);
}

TEST(SolveMetrics, RelaxationCountsArePlausible) {
  const TestGraph& tg = test_graph(4);  // undirected rmat
  const SsspResult reference = dijkstra(tg.graph, tg.source);
  EXPECT_GT(reference.metrics.counter(CounterId::kRelaxations), 0u);

  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 1;
  options.delta = 1;
  options.wasp.bidirectional_relaxation = false;  // adds pull relaxations
  const SsspResult wasp_run = run_sssp(tg.graph, tg.source, options);
  // A parallel run cannot beat Dijkstra's relaxation count (the theoretical
  // minimum modulo leaf pruning, which only removes relaxations Dijkstra
  // performs; allow small slack for that).
  EXPECT_GE(wasp_run.metrics.counter(CounterId::kRelaxations) +
                tg.graph.num_vertices(),
            reference.metrics.counter(CounterId::kRelaxations) / 2);
  EXPECT_GT(wasp_run.metrics.counter(CounterId::kUpdates), 0u);
}

}  // namespace
}  // namespace wasp
