// Solver-reuse correctness: the query-throughput fast path (pooled
// epoch-versioned distances, prefetched relaxation) must be invisible in
// results. A reused Solver answering the same query twice, or a different
// query, must produce distances bit-identical to a fresh per-call solve —
// for every algorithm, across an epoch wrap, and under fault injection.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/sssp.hpp"
#include "sssp/validate.hpp"
#include "support/chaos.hpp"
#include "support/errors.hpp"

namespace wasp {
namespace {

Graph make_test_graph() {
  return gen::erdos_renyi(1500, 6.0, WeightScheme::gap(), 17);
}

SsspOptions options_for(Algorithm algo) {
  SsspOptions options;
  options.algo = algo;
  options.threads = 3;
  options.delta = 32;
  return options;
}

class SolverReuse : public testing::TestWithParam<Algorithm> {};

TEST_P(SolverReuse, RepeatAndCrossSourceQueriesAreBitIdentical) {
  const Graph g = make_test_graph();
  const VertexId s1 = pick_source_in_largest_component(g, 11);
  const VertexId s2 = pick_source_in_largest_component(g, 12345);
  ASSERT_NE(s1, s2);

  const SsspOptions options = options_for(GetParam());
  // Fresh per-call solves: each pays the full distance initialization.
  const SsspResult fresh1 = run_sssp(g, s1, options);
  const SsspResult fresh2 = run_sssp(g, s2, options);

  Solver solver(options);
  const SsspResult r1 = solver.solve(g, s1);
  const SsspResult r2 = solver.solve(g, s1);  // repeat query: epoch bump only
  const SsspResult r3 = solver.solve(g, s2);  // different source, same pool

  EXPECT_EQ(r1.dist, fresh1.dist);
  EXPECT_EQ(r2.dist, fresh1.dist);
  EXPECT_EQ(r3.dist, fresh2.dist);

  // The pooled array is initialized once (the first acquire); repeat
  // queries re-use it with an O(1) epoch bump. Sequential Dijkstra bypasses
  // the pool entirely.
  const auto sweeps = [](const SsspResult& r) {
    return r.metrics.counter(obs::CounterId::kEpochSweeps);
  };
  if (GetParam() == Algorithm::kDijkstra) {
    EXPECT_EQ(sweeps(r1), 0u);
  } else {
    EXPECT_EQ(sweeps(r1), 1u);
  }
  EXPECT_EQ(sweeps(r2), 0u);
  EXPECT_EQ(sweeps(r3), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SolverReuse,
    testing::Values(Algorithm::kDijkstra, Algorithm::kBellmanFord,
                    Algorithm::kDeltaStepping, Algorithm::kJulienne,
                    Algorithm::kDeltaStar, Algorithm::kRhoStepping,
                    Algorithm::kRadiusStepping, Algorithm::kMqDijkstra,
                    Algorithm::kSmqDijkstra, Algorithm::kObim,
                    Algorithm::kWasp),
    [](const testing::TestParamInfo<Algorithm>& param_info) {
      std::string name = to_string(param_info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(SolverReuseEpochWrap, ForcedWrapSweepsAndStaysCorrect) {
  const Graph g = make_test_graph();
  const VertexId s = pick_source_in_largest_component(g, 11);
  const std::vector<Distance> reference = dijkstra(g, s).dist;

  Solver solver(options_for(Algorithm::kWasp));
  const SsspResult r1 = solver.solve(g, s);
  EXPECT_EQ(r1.metrics.counter(obs::CounterId::kEpochSweeps), 1u);
  EXPECT_EQ(r1.dist, reference);

  // Jump the tag to its maximum: the next acquire wraps to 0 and must run
  // the full O(V) re-stamp instead of the O(1) bump — entries stamped a full
  // tag-space ago would otherwise read as live.
  AtomicDistances* dist = solver.distances().current();
  ASSERT_NE(dist, nullptr);
  dist->debug_set_epoch(0xFFFFFFFFu);
  const SsspResult r2 = solver.solve(g, s);
  EXPECT_EQ(r2.metrics.counter(obs::CounterId::kEpochSweeps), 1u);
  EXPECT_EQ(dist->epoch(), 0u);
  EXPECT_EQ(r2.dist, reference);

  // And the bump fast path resumes afterwards.
  const SsspResult r3 = solver.solve(g, s);
  EXPECT_EQ(r3.metrics.counter(obs::CounterId::kEpochSweeps), 0u);
  EXPECT_EQ(r3.dist, reference);
}

TEST(SolverReuseChaos, SeededInjectionWithFastPathStaysExact) {
  const Graph g = make_test_graph();
  const VertexId s = pick_source_in_largest_component(g, 11);
  const std::vector<Distance> reference = dijkstra(g, s).dist;

  SsspOptions options = options_for(Algorithm::kWasp);
  options.delta = 1;
  options.prefetch_lookahead = 8;
  chaos::Engine engine(0xC0FFEEu, chaos::Policy::uniform(1 << 12),
                       options.threads);
  options.chaos = &engine;

  Solver solver(options);
  for (int i = 0; i < 3; ++i) {
    const SsspResult r = solver.solve(g, s);
    std::string message;
    ASSERT_TRUE(distances_equal(reference, r.dist, &message))
        << "iteration " << i << ": " << message;
  }
}

TEST(SolverReusePrefetch, LookaheadIsValidatedAndZeroDisables) {
  const Graph g = make_test_graph();
  const VertexId s = pick_source_in_largest_component(g, 11);
  const std::vector<Distance> reference = dijkstra(g, s).dist;

  SsspOptions options = options_for(Algorithm::kMqDijkstra);
  options.prefetch_lookahead = 257;
  EXPECT_THROW(Solver bad(std::move(options)), InvalidOptionsError);

  // Lookahead is purely a performance knob: off and on give identical
  // distances, and the prefetch_issued counter reports which ran.
  SsspOptions off = options_for(Algorithm::kMqDijkstra);
  off.prefetch_lookahead = 0;
  Solver solver_off(off);
  const SsspResult r_off = solver_off.solve(g, s);
  EXPECT_EQ(r_off.dist, reference);
  EXPECT_EQ(r_off.metrics.counter(obs::CounterId::kPrefetchIssued), 0u);

  SsspOptions on = options_for(Algorithm::kMqDijkstra);
  on.prefetch_lookahead = 2;
  Solver solver_on(on);
  const SsspResult r_on = solver_on.solve(g, s);
  EXPECT_EQ(r_on.dist, reference);
  EXPECT_GT(r_on.metrics.counter(obs::CounterId::kPrefetchIssued), 0u);
}

}  // namespace
}  // namespace wasp
