// The driver of the Wasp engine: placement, seeding, and the team launch.
// The worker itself (and its cancellation polls) is in wasp_core.hpp.
// lint:worker-loop-in(wasp_core.hpp)
#include "sssp/wasp.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "sssp/wasp_core.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/scheduler.hpp"

namespace wasp {

namespace {

/// One run from a multi-source frontier whose bounds are already in ctx.dist
/// (a cold solve is the one-seed case at distance 0).
template <typename ChunkT>
SsspResult run_seeds(const Graph& g, std::span<const VertexId> seeds,
                     Weight delta, const WaspConfig& config, RunContext& ctx) {
  const auto p = static_cast<std::size_t>(ctx.team.size());
  // With a matching size, distances() hands the pre-loaded array back
  // untouched (no epoch bump, no seeding).
  AtomicDistances& dist = ctx.distances(g.num_vertices());

  // Seed levels and each worker's minimum, computed up front so every
  // seeded worker can be pre-published busy before the team launches: no
  // worker may pass the termination scan before the seeds land.
  std::vector<std::uint64_t> level(seeds.size(), kInfPriority);
  std::vector<std::uint64_t> min_level(p, kInfPriority);
  bool any_seed = false;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Distance d = dist.load(seeds[i]);
    if (d == kInfDist) continue;  // nothing can relax from an inf bound
    level[i] = static_cast<std::uint64_t>(d) / delta;
    min_level[i % p] = std::min(min_level[i % p], level[i]);
    any_seed = true;
  }
  if (!any_seed) {
    // Nothing to repair: report the warm bounds as-is, zero parallel work.
    SsspResult result;
    finalize_result(ctx, 0.0, result);
    result.dist = dist.snapshot();
    return result;
  }

  // Placement: each worker's CPU, folded into the topology's CPU range.
  const std::shared_ptr<const NumaTopology> topo =
      config.topology ? config.topology
                      : std::make_shared<NumaTopology>(NumaTopology::detect());
  std::vector<int> cpu_of(p);
  for (std::size_t t = 0; t < p; ++t)
    cpu_of[t] = ctx.team.cpu_of(static_cast<int>(t)) % topo->num_cpus();

  core::Shared<ChunkT> shared(g, dist, delta, config, ctx, *topo, cpu_of);
  for (std::size_t t = 0; t < p; ++t) {
    if (min_level[t] != kInfPriority)
      shared.curr.publish(static_cast<int>(t), min_level[t]);
  }

  Timer timer;
  ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    chaos::ScopedInstall chaos_guard(ctx.chaos, tid);
    core::Worker<ChunkT> worker(shared, tid);
    worker.seed(seeds, level, min_level[static_cast<std::size_t>(tid)]);
    worker.run();
  });

  SsspResult result;
  finalize_result(ctx, timer.seconds(), result);
  result.dist = dist.snapshot();
  return result;
}

}  // namespace

SsspResult wasp_sssp(const Graph& g, VertexId source, Weight delta,
                     const WaspConfig& config, RunContext& ctx) {
  return core::with_chunk_capacity(
      config.chunk_capacity, "wasp_sssp",
      [&]<typename ChunkT>(std::type_identity<ChunkT>) {
        AtomicDistances& dist = ctx.distances(g.num_vertices());
        dist.store(source, 0);
        return run_seeds<ChunkT>(g, std::span<const VertexId>(&source, 1),
                                 delta, config, ctx);
      });
}

SsspResult wasp_sssp_seeded(const Graph& g, std::span<const VertexId> seeds,
                            Weight delta, const WaspConfig& config,
                            RunContext& ctx) {
  if (ctx.dist == nullptr || ctx.dist->size() != g.num_vertices())
    throw InvalidOptionsError(
        "wasp_sssp_seeded: ctx.dist must be pre-loaded with warm bounds "
        "sized to the graph");
  return core::with_chunk_capacity(
      config.chunk_capacity, "wasp_sssp_seeded",
      [&]<typename ChunkT>(std::type_identity<ChunkT>) {
        return run_seeds<ChunkT>(g, seeds, delta, config, ctx);
      });
}

}  // namespace wasp
