#include "sssp/wasp.hpp"

#include <algorithm>
#include <numeric>
#include <thread>

#include "sssp/wasp_core.hpp"
#include "support/prefetch.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/scheduler.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;
using EK = obs::EventKind;

/// Run-wide state of a flat run: the core's, plus the global CSR, the one
/// distance array, and victim tiers over every worker.
template <typename ChunkT>
struct WaspShared : core::Shared<ChunkT> {
  const Graph& graph;
  AtomicDistances& dist;
  std::vector<int> everyone;  ///< 0..p-1: every worker is a steal victim
  VictimTiers tiers;

  WaspShared(const Graph& g, AtomicDistances& d, Weight delta_,
             const WaspConfig& cfg, RunContext& ctx_,
             const core::Placement& place)
      : core::Shared<ChunkT>(g, cfg, ctx_, delta_, place.node_of), graph(g),
        dist(d), everyone(static_cast<std::size_t>(ctx_.team.size())),
        tiers(*place.topo, place.cpu_of) {
    std::iota(everyone.begin(), everyone.end(), 0);
  }
};

/// Per-thread worker implementing Algorithms 1 and 2 on the global CSR.
template <typename ChunkT>
class WaspWorker : public core::WorkerCore<WaspWorker<ChunkT>, ChunkT> {
  using Core = core::WorkerCore<WaspWorker<ChunkT>, ChunkT>;
  friend Core;

 public:
  WaspWorker(WaspShared<ChunkT>& shared, int tid)
      : Core(shared, tid, shared.everyone, shared.tiers, tid), s_(shared) {}

  /// Seeds this worker's round-robin share of the initial frontier
  /// (seeds[i] with i % team_size == tid) at the levels the driver computed.
  /// The level is published before the pushes, so a seed at that level
  /// lands in the buffer chunk exactly as a relaxation would put it there.
  /// The driver pre-published the same level on the board, so the
  /// termination scan cannot fire before these land.
  void seed(std::span<const VertexId> seeds,
            std::span<const std::uint64_t> levels, std::uint64_t min_level) {
    if (min_level == kInfPriority) return;
    frontier_.publish(min_level);
    const auto p = static_cast<std::size_t>(s_.ctx.team.size());
    for (std::size_t i = static_cast<std::size_t>(tid_); i < seeds.size();
         i += p) {
      if (levels[i] != kInfPriority) frontier_.push(seeds[i], levels[i]);
    }
  }

  /// The main work loop (Algorithm 1, work_stealing_shortest_path).
  void run() {
    for (;;) {
      // Cancellation point: abandon unprocessed buckets (arena-owned, freed
      // with the run) and leave through the normal idle path. Publishing
      // kInfPriority lets peers still inside terminate() reach the all-idle
      // verdict even before their own poll fires.
      if (s_.ctx.stop_requested()) {
        frontier_.publish(kInfPriority);
        return;
      }
      this->drain_current_bucket();

      // Current bucket is empty: try to find higher-priority work elsewhere
      // before touching lower-priority local buckets (Algorithm 1, L22).
      const std::uint64_t next = frontier_.next_level();
      if (this->try_steal_and_process(next)) continue;

      if (next != kInfPriority) {
        this->advance_bucket(next);
        continue;
      }
      if (terminate()) return;
    }
  }

 private:
  using Core::frontier_;
  using Core::lookahead_;
  using Core::my_;
  using Core::tid_;

  [[nodiscard]] Distance load_dist(VertexId u) const { return s_.dist.load(u); }

  void prefetch_vertex(VertexId v) {
    prefetch_read(s_.dist.prefetch_addr(v));
    prefetch_read(s_.graph.offsets_data() + v);
  }

  // --- relaxation (Algorithm 1 lines 1-15 + §4.4 optimizations) ----------

  void process_neighborhood(VertexId u, std::uint64_t prio, std::uint32_t begin,
                            std::uint32_t end) {
    const Graph& g = s_.graph;
    const std::uint32_t degree = g.out_degree(u);
    if (end == core::kFullRange) end = this->split_neighborhood(u, prio, degree);

    Distance du = s_.dist.load(u);

    // Bidirectional relaxation (§4.4): for small undirected neighborhoods,
    // pull a potentially better distance for u before pushing.
    if (s_.config.bidirectional_relaxation && g.is_undirected() &&
        degree <= 8 && begin == 0) {
      Distance best = du;
      for (const WEdge& e : g.out_neighbors(u)) {
        my_.inc(CId::kRelaxations);
        const Distance dn = s_.dist.load(e.dst);
        const Distance through = saturating_add(dn, e.w);
        if (through < best) best = through;
      }
      if (best < du) {
        if (s_.dist.relax_to(u, best)) my_.inc(CId::kUpdates);
        du = s_.dist.load(u);
      }
    }

    this->count_vertex();
    // Indexed drain over the interleaved records so edge j can prefetch the
    // dist entry of edge j + lookahead's target (the data-dependent miss).
    const WEdge* edges = g.edge_data() + g.edge_offset(u);
    for (std::uint32_t j = begin; j < end; ++j) {
      if (lookahead_ != 0 && j + lookahead_ < end)
        prefetch_read(s_.dist.prefetch_addr(edges[j + lookahead_].dst));
      const WEdge& e = edges[j];
      my_.inc(CId::kRelaxations);
      const Distance nd = saturating_add(du, e.w);
      if (s_.dist.relax_to(e.dst, nd)) {
        my_.inc(CId::kUpdates);
        this->schedule(e.dst, nd);
      }
    }
    this->count_prefetches(begin, end);
  }

  // --- termination (§4.3) -------------------------------------------------

  /// Called with no local work anywhere. Returns true when the whole
  /// computation is finished: exit on the first passing double scan
  /// (WorkerCore's termination comment has the argument). A worker exiting
  /// on a stale verdict loses nothing — the work it missed is still held by
  /// a survivor, who finishes it before the team join.
  bool terminate() {
    bool sweep = true;  // sweep on entry; afterwards only when work is seen
    obs::trace_begin(s_.ctx.trace, tid_, EK::kTerminationScan);
    for (;;) {
      if (this->cancelled_while_idle()) return true;
      if (sweep) {
        this->begin_termination_sweep();
        if (this->try_steal_and_process(kInfPriority)) {
          obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 0);
          return false;
        }
        frontier_.publish(kInfPriority);
      }

      my_.inc(CId::kTerminationScans);
      Timer idle_timer;
      const auto verdict = this->scan_board([] {});
      if (verdict.quiet) {
        // Chaos: a spurious wakeup distrusts the double-scan verdict and
        // forces one more sweep; termination must still be reached once the
        // injected doubt stops firing.
        if (WASP_CHAOS_FAIL(chaos::Point::kSpuriousWakeup)) {
          sweep = true;
          this->record_idle(idle_timer.nanoseconds());
          continue;
        }
        this->record_idle(idle_timer.nanoseconds());
        this->terminated();
        return true;
      }
      // Re-sweep only when a thread holds real-priority work; if only
      // thieves remain, stay idle and let the epoch settle.
      sweep = verdict.someone_working;
      std::this_thread::yield();
      this->record_idle(idle_timer.nanoseconds());
    }
  }

  WaspShared<ChunkT>& s_;
};

/// One flat run from a multi-source frontier whose bounds are already in
/// ctx.dist (a cold solve is the one-seed case at distance 0).
template <typename ChunkT>
SsspResult run_flat(const Graph& g, std::span<const VertexId> seeds,
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

  WaspShared<ChunkT> shared(g, dist, delta, config, ctx,
                            core::Placement(config, ctx.team));
  for (std::size_t t = 0; t < p; ++t) {
    if (min_level[t] != kInfPriority)
      shared.curr.publish(static_cast<int>(t), min_level[t]);
  }

  Timer timer;
  ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    chaos::ScopedInstall chaos_guard(ctx.chaos, tid);
    WaspWorker<ChunkT> worker(shared, tid);
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
        return run_flat<ChunkT>(g, std::span<const VertexId>(&source, 1),
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
        return run_flat<ChunkT>(g, seeds, delta, config, ctx);
      });
}

}  // namespace wasp
