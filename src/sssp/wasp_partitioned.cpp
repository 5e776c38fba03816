// Partitioned Wasp (docs/NUMA.md): fragment-local frontiers with batched
// remote relaxation queues.
//
// The graph is split into per-NUMA-node fragments (graph/partition.hpp).
// Inside a fragment, the flat engine's worker runs unchanged — it is the
// same code, core::WorkerCore in wasp_core.hpp: thread-local buckets, a
// stealable current-bucket deque, `curr` publication, NUMA-tiered stealing
// with the §4.2 policies — except victims are restricted to the fragment's
// own workers, so steal CAS traffic never crosses a node boundary. What this
// file adds is only what differs:
//  * the relaxation: each fragment owns a private distance shard
//    (first-touched by its leader); a relaxation whose target lives in
//    another fragment becomes a {vertex, dist} record in a batched remote
//    queue (concurrent/remote_queue.hpp) instead of a CAS on a remote cache
//    line. Bidirectional relaxation is disabled (it would read remote
//    shards); leaf pruning and neighborhood decomposition apply unchanged;
//  * the run loop's flush and drain steps: batches are published when full
//    and at bucket boundaries; destination workers drain their fragment's
//    channel at round boundaries and inside termination sweeps;
//  * the exit rule. Termination extends the §4.3 double scan with a
//    quiescence barrier: a passing scan (every board slot idle, zero
//    in-flight records, stable epoch) casts a revocable VOTE instead of
//    exiting, and workers leave together once all p votes are in. Flat wasp
//    tolerates a worker exiting on a stale verdict — the remaining workers
//    finish the work and the team join covers completion — but a
//    partitioned worker's early exit would strand its fragment's inbound
//    channel (no other member drains it), hanging the survivors. The
//    barrier makes that impossible: a sweep revokes its vote first, so a
//    voted worker provably holds no work, and a published batch keeps its
//    publisher unvoted until every record is applied — a full vote count is
//    therefore true global quiescence (argument at terminate()).
//
// The fixed point is the same exact-distance solution as flat wasp_sssp
// (monotone relaxation converges regardless of routing); the partition suite
// pins bit-identical snapshots across synthetic topologies and chaos
// schedules.
#include "sssp/wasp.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "concurrent/remote_queue.hpp"
#include "graph/partition.hpp"
#include "sssp/wasp_core.hpp"
#include "support/prefetch.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"
#include "verify/scheduler.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;
using EK = obs::EventKind;

/// Run-wide shared state. The core's curr board, steal epoch and deques are
/// global (termination is a whole-run property), as are the relay network
/// and the vote count; victim tiers and distance shards are per fragment.
template <typename ChunkT>
struct PartShared : core::Shared<ChunkT> {
  const GraphPartition& part;
  RemoteRelayNetwork net;  ///< per-fragment inbound channels + in-flight count
  /// Per-fragment distance shards, constructed by each fragment's leader in
  /// the placement phase (the constructor's sweep is the first touch).
  std::vector<std::unique_ptr<AtomicDistances>> shards;
  std::vector<int> frag_of;                ///< worker -> fragment
  std::vector<std::vector<int>> members;   ///< fragment -> worker tids
  std::vector<int> local_idx;              ///< worker -> index in its members
  /// Victim tiers per fragment, over that fragment's members only (indices
  /// are member-local; the core translates through `members`).
  std::vector<std::unique_ptr<VictimTiers>> frag_tiers;
  /// Quiescence barrier (terminate()): the number of workers whose latest
  /// scan passed and who have not swept since. Exit requires quiesced == p.
  verify::atomic<std::uint32_t> quiesced{0};

  PartShared(const Graph& g, const GraphPartition& part_, Weight delta_,
             const WaspConfig& cfg, RunContext& ctx_,
             const core::Placement& place)
      : core::Shared<ChunkT>(g, cfg, ctx_, delta_, place.node_of), part(part_),
        net(part_.num_fragments()),
        shards(static_cast<std::size_t>(part_.num_fragments())) {}
};

/// Per-thread worker: the core scoped to one fragment, plus the remote
/// send/drain obligations.
template <typename ChunkT>
class PartWorker : public core::WorkerCore<PartWorker<ChunkT>, ChunkT> {
  using Core = core::WorkerCore<PartWorker<ChunkT>, ChunkT>;
  friend Core;

 public:
  PartWorker(PartShared<ChunkT>& shared, int tid)
      : PartWorker(shared, tid, shared.frag_of[static_cast<std::size_t>(tid)]) {}

  /// Seeds the source into this worker's current bucket. Called on one
  /// worker of the source's fragment before run(); the driver pre-published
  /// this worker busy at level 0. The seed worker is its fragment's leader,
  /// so this store is sequenced after the shard's constructor sweep on the
  /// same logical thread — it must happen here, on a team worker, not on
  /// the driver thread: the verify model only records stores from bound
  /// threads, and peers that read a stale kInfDist are harmless (the CAS
  /// relax path is monotone and this worker schedules the source itself).
  void seed(VertexId source) {
    dist_.store(source - fragment_.begin, 0);
    frontier_.publish(0);
    frontier_.push(source, 0);
  }

  /// The main work loop: flat wasp's Algorithm 1 plus outbound flushes and
  /// inbound drains at bucket boundaries.
  void run() {
    for (;;) {
      // Cancellation point: abandon local buckets (arena-owned) and any
      // published-but-undrained inbound batches (freed by the network's
      // teardown); publishing kInfPriority lets peers reach all-idle.
      if (s_.ctx.stop_requested()) {
        frontier_.publish(kInfPriority);
        return;
      }
      this->drain_current_bucket();
      // Bucket boundary: publish open outbound batches so neighbour
      // fragments see our boundary relaxations, then pick up theirs.
      flush_outbound();
      // Guard: a pristine worker (board slot still kInfPriority, nothing
      // published since launch) must not schedule drained records here — a
      // scanner could reach its all-idle verdict while this worker holds
      // the fresh work. The first terminate() sweep drains instead, under
      // kStealingPriority and an epoch bump.
      //
      // When the drain schedules anything, restart the iteration: a record
      // whose level equals the current level lands in the buffer chunk,
      // which next_level() below cannot see — falling through could reach
      // terminate() holding live work whose in-flight accounting is already
      // settled, and the quiescence barrier would (soundly, by its own
      // lights) let every worker exit with the re-expansion lost.
      if (frontier_.level() != kInfPriority && drain_inbound() > 0) continue;

      const std::uint64_t next = frontier_.next_level();
      if (steal_and_process(next)) continue;

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

  PartWorker(PartShared<ChunkT>& shared, int tid, int frag)
      : Core(shared, tid, shared.members[static_cast<std::size_t>(frag)],
             *shared.frag_tiers[static_cast<std::size_t>(frag)],
             shared.local_idx[static_cast<std::size_t>(tid)]),
        s_(shared), frag_(frag), fragment_(shared.part.fragment(frag)),
        dist_(*shared.shards[static_cast<std::size_t>(frag)]),
        sender_(shared.net, shared.config.partition.flush_threshold),
        lone_(shared.members[static_cast<std::size_t>(frag)].size() <= 1) {}

  // --- fragment-local distance shard --------------------------------------
  // All shard accesses translate the GLOBAL vertex id to the fragment-local
  // index; chunks, queues, and the leaf bitmap speak global ids throughout.

  [[nodiscard]] Distance load_dist(VertexId global_v) const {
    return dist_.load(global_v - fragment_.begin);
  }
  bool shard_relax(VertexId global_v, Distance candidate) {
    return dist_.relax_to(global_v - fragment_.begin, candidate);
  }

  /// Chunk-drain lookahead against the fragment-local arrays.
  void prefetch_vertex(VertexId v) {
    prefetch_read(dist_.prefetch_addr(v - fragment_.begin));
    prefetch_read(fragment_.offsets.data() + (v - fragment_.begin));
  }

  // --- relaxation --------------------------------------------------------

  void process_neighborhood(VertexId u, std::uint64_t prio, std::uint32_t begin,
                            std::uint32_t end) {
    const std::uint32_t degree = fragment_.out_degree(u);
    // Neighborhood decomposition (§4.4) over the fragment-local row.
    if (end == core::kFullRange) end = this->split_neighborhood(u, prio, degree);
    // No bidirectional relaxation here: pulling through in-edges would read
    // neighbour distances that may live in remote shards.

    const Distance du = load_dist(u);
    this->count_vertex();

    const WEdge* edges = fragment_.edge_data() + fragment_.edge_offset(u);
    for (std::uint32_t j = begin; j < end; ++j) {
      if (lookahead_ != 0 && j + lookahead_ < end) {
        const VertexId target = edges[j + lookahead_].dst;
        if (fragment_.owns(target))
          prefetch_read(dist_.prefetch_addr(target - fragment_.begin));
      }
      const WEdge& e = edges[j];
      my_.inc(CId::kRelaxations);
      const Distance nd = saturating_add(du, e.w);
      if (fragment_.owns(e.dst)) {
        if (shard_relax(e.dst, nd)) {
          my_.inc(CId::kUpdates);
          this->schedule(e.dst, nd);
        }
      } else {
        // Boundary edge: defer to the owner through its remote queue. No
        // stale filter here beyond saturation — the receiver's relax CAS is
        // the arbiter (its shard may already hold something better).
        my_.inc(CId::kRemoteRelaxations);
        if (sender_.send(s_.part.owner_of(e.dst), e.dst, nd))
          my_.inc(CId::kRemoteBatches);
      }
    }
    this->count_prefetches(begin, end);
  }

  // --- remote queues ------------------------------------------------------

  /// Publishes every open outbound batch (bucket boundary / pre-idle).
  void flush_outbound() {
    const int published = sender_.flush_all();
    if (published > 0)
      my_.inc(CId::kRemoteBatches, static_cast<std::uint64_t>(published));
  }

  /// Grabs this fragment's inbound channel and applies the records to the
  /// local shard, scheduling improvements into the local buckets. Returns
  /// the number of vertices scheduled. Caller contract (termination
  /// soundness): this worker's board slot must not read kInfPriority while
  /// the call can schedule work — run() calls it under a real level,
  /// terminate() under kStealingPriority.
  std::uint64_t drain_inbound() {
    if (!s_.net.pending(frag_)) return 0;
    RemoteBatch* batch = s_.net.grab_all(frag_);
    if (batch == nullptr) return 0;  // a peer member grabbed it first
    std::uint64_t scheduled = 0;
    std::uint64_t grabbed = 0;
    bool cancelled = false;
    while (batch != nullptr) {
      RemoteBatch* next_batch = batch->next;
      const std::uint32_t count = batch->size();
      grabbed += count;
      // Cancellation point at batch granularity: a cancelled drain still
      // frees every grabbed batch and settles the in-flight accounting.
      cancelled = cancelled || s_.ctx.stop_requested();
      if (!cancelled) {
        for (std::uint32_t i = 0; i < count; ++i) {
          const RemoteRelax r = batch->record(i);
          if (shard_relax(r.vertex, r.dist)) {
            my_.inc(CId::kUpdates);
            if (this->schedule(r.vertex, r.dist)) ++scheduled;
          } else {
            my_.inc(CId::kStaleSkips);
          }
        }
      }
      // Subtract only now: the records are applied (or the run is being
      // cancelled and the verdict no longer matters). The termination
      // scan's zero-in-flight leg relies on this ordering.
      s_.net.on_drained(count);
      free_batch(batch);
      batch = next_batch;
    }
    my_.observe(obs::HistId::kRemoteQueueDepth, grabbed);
    return scheduled;
  }

  /// The core's steal sweep over this fragment's members — stealing never
  /// crosses a fragment (hence, with aligned placement, never a NUMA node).
  /// A lone member has no victim and skips the sweep and its accounting,
  /// keeping only the sweep-entry deadline poll.
  bool steal_and_process(std::uint64_t next) {
    if (!lone_) return this->try_steal_and_process(next);
    (void)s_.ctx.poll_cancel();
    return false;
  }

  // --- termination (§4.3 double-scan + quiescence barrier) -----------------

  /// Flat wasp's double-scan, hardened into a barrier. A passing scan casts
  /// a VOTE (seq_cst increment of s_.quiesced) rather than returning; the
  /// worker keeps scanning — and keeps draining its fragment's channel —
  /// until all p votes are in. A sweep revokes the vote before touching any
  /// work source.
  ///
  /// Why the barrier: flat wasp survives a worker exiting on a stale-read
  /// verdict — the work it missed is still reachable by the survivors, who
  /// finish it before the team join. Here an exited worker's fragment may
  /// receive records afterwards with no remaining member to drain them:
  /// distances stay wrong and in_flight never returns to zero, hanging the
  /// survivors. So nobody leaves until everybody can.
  ///
  /// Exit soundness: quiesced == p (the true count — every vote, revoke,
  /// and the exit load are seq_cst) at any instant implies no work exists
  /// anywhere at that instant.
  ///  - Local work: a voted worker holds none. Voting requires this
  ///    worker's own buckets, deque, buffer, and open batches empty (facts
  ///    it knows exactly about itself — run() flushes and drains to
  ///    exhaustion before calling terminate(), and a sweep that acquires
  ///    work revokes first, then returns to run()).
  ///  - Remote work: in_flight counts every record from before its batch is
  ///    grabbable until after it is applied (remote_queue.hpp, all seq_cst).
  ///    Batches are published only while processing, i.e. by unvoted
  ///    workers, and such a worker re-votes only after a scan reads the
  ///    true in_flight == 0 — which requires its batch already applied and
  ///    subtracted. An outstanding record therefore keeps its publisher
  ///    unvoted, so a full count also rules out channel backlogs and
  ///    half-drained grabs.
  ///
  /// The scan verdict (all board slots idle, in-flight zero, stable steal
  /// epoch) gates the vote, not the exit, so the acquire board/epoch reads
  /// only affect vote churn, never correctness. The in-flight read sits
  /// before the board scan on purpose: the counter's seq_cst RMW chain
  /// carries each drainer's release clock, and every drain is sequenced
  /// after that drainer's busy publication (kStealingPriority in sweeps, a
  /// real level in run()), so a scanner that reads the true zero cannot
  /// then see a worker still busy with drained records as idle.
  bool terminate() {
    const auto p = static_cast<std::uint32_t>(s_.ctx.team.size());
    bool sweep = true;  // sweep on entry; afterwards only when work is seen
    bool voted = false;
    obs::trace_begin(s_.ctx.trace, tid_, EK::kTerminationScan);
    for (;;) {
      // The vote is not revoked on cancellation: every worker observes the
      // same sticky stop flag and exits, so the count is never read again.
      if (this->cancelled_while_idle()) return true;
      if (sweep) {
        if (voted) {
          // Revoke BEFORE stealing or draining: the exit argument needs
          // "voted implies holding no work" at every instant, so the
          // seq_cst decrement must precede any chance of acquiring work.
          s_.quiesced.fetch_sub(1, std::memory_order_seq_cst);
          voted = false;
        }
        // The sweep's epoch bump also covers the inbound drain, a way to
        // move work the flat engine does not have.
        this->begin_termination_sweep();
        if (steal_and_process(kInfPriority)) {
          obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 0);
          return false;
        }
        if (drain_inbound() > 0) {
          // Fresh remote work landed in our buckets (under
          // kStealingPriority, so no scanner saw us idle meanwhile); let
          // run() advance to it.
          obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 0);
          return false;
        }
        frontier_.publish(kInfPriority);
      }

      my_.inc(CId::kTerminationScans);
      Timer idle_timer;
      // True in-flight count first — see the function comment for why this
      // read precedes the board scan. seq_cst (remote_queue.hpp).
      std::uint64_t in_flight = 0;
      const auto verdict =
          this->scan_board([&] { in_flight = s_.net.in_flight(); });

      if (verdict.quiet && in_flight == 0) {
        // Chaos: distrust the verdict and force one more sweep (which also
        // exercises the revoke path once this worker has voted).
        if (WASP_CHAOS_FAIL(chaos::Point::kSpuriousWakeup)) {
          sweep = true;
          this->record_idle(idle_timer.nanoseconds());
          continue;
        }
        if (!voted) {
          // seq_cst: the exit load below must observe true counts.
          s_.quiesced.fetch_add(1, std::memory_order_seq_cst);
          voted = true;
        }
        // seq_cst: the barrier. All p voted at this instant => quiescent.
        if (s_.quiesced.load(std::memory_order_seq_cst) == p) {
          this->record_idle(idle_timer.nanoseconds());
          this->terminated();
          return true;
        }
        // Not everyone is done; keep scanning (and draining) as a lame
        // duck. No sweep needed unless the checks below say otherwise.
      }
      // Re-sweep when a worker holds real-priority work, or when our own
      // fragment's channel has batches to drain (pending() is advisory —
      // relaxed — but a miss only delays one yield-iteration, and the
      // vote gate above keeps the exit sound regardless).
      sweep = verdict.someone_working || s_.net.pending(frag_);
      std::this_thread::yield();
      this->record_idle(idle_timer.nanoseconds());
    }
  }

  PartShared<ChunkT>& s_;
  const int frag_;
  const GraphPartition::Fragment& fragment_;
  AtomicDistances& dist_;  ///< this fragment's shard (local indices)
  RemoteSender sender_;
  const bool lone_;  ///< the only member of its fragment
};

template <typename ChunkT>
SsspResult wasp_sssp_partitioned_impl(const Graph& g, VertexId source,
                                      Weight delta, const WaspConfig& config,
                                      RunContext& ctx) {
  const int p = ctx.team.size();
  const VertexId n = g.num_vertices();
  const core::Placement place(config, ctx.team);

  // Every fragment needs at least one member worker (it alone drains its
  // inbound channel), so the fragment count is capped by the team size.
  const int want = config.partition.num_fragments > 0
                       ? config.partition.num_fragments
                       : place.topo->num_nodes();
  const int f_want = std::clamp(want, 1, p);
  GraphPartition part = GraphPartition::build(g, *place.topo, f_want,
                                              p > 1 ? &ctx.team : nullptr);
  const int f_count = part.num_fragments();

  PartShared<ChunkT> shared(g, part, delta, config, ctx, place);

  // Worker -> fragment membership: node affinity first (a worker joins the
  // fragment assigned to its NUMA node, folded mod f_count), then a
  // deterministic fix-up moves workers out of the largest group until every
  // fragment has at least one member (feasible since f_count <= p).
  shared.frag_of.resize(static_cast<std::size_t>(p));
  shared.members.assign(static_cast<std::size_t>(f_count), {});
  for (int t = 0; t < p; ++t) {
    const int f = place.node_of[static_cast<std::size_t>(t)] % f_count;
    shared.frag_of[static_cast<std::size_t>(t)] = f;
    shared.members[static_cast<std::size_t>(f)].push_back(t);
  }
  for (int f = 0; f < f_count; ++f) {
    while (shared.members[static_cast<std::size_t>(f)].empty()) {
      int big = 0;
      for (int o = 1; o < f_count; ++o) {
        if (shared.members[static_cast<std::size_t>(o)].size() >
            shared.members[static_cast<std::size_t>(big)].size())
          big = o;
      }
      const int moved = shared.members[static_cast<std::size_t>(big)].back();
      shared.members[static_cast<std::size_t>(big)].pop_back();
      shared.members[static_cast<std::size_t>(f)].push_back(moved);
      shared.frag_of[static_cast<std::size_t>(moved)] = f;
    }
  }
  shared.local_idx.resize(static_cast<std::size_t>(p));
  for (int f = 0; f < f_count; ++f) {
    const auto& ms = shared.members[static_cast<std::size_t>(f)];
    for (std::size_t i = 0; i < ms.size(); ++i)
      shared.local_idx[static_cast<std::size_t>(ms[i])] = static_cast<int>(i);
  }

  // Fragment-local victim tiers, over each fragment's member CPUs.
  shared.frag_tiers.resize(static_cast<std::size_t>(f_count));
  for (int f = 0; f < f_count; ++f) {
    const auto& ms = shared.members[static_cast<std::size_t>(f)];
    std::vector<int> member_cpus;
    member_cpus.reserve(ms.size());
    for (const int t : ms)
      member_cpus.push_back(place.cpu_of[static_cast<std::size_t>(t)]);
    shared.frag_tiers[static_cast<std::size_t>(f)] =
        std::make_unique<VictimTiers>(*place.topo, member_cpus);
  }

  // Placement phase: each fragment's leader (member 0) constructs its
  // distance shard — the constructor's kInfDist sweep is the first touch,
  // so the shard's pages land on the leader's node. The team join publishes
  // the shard pointers to every worker of the solve phase.
  ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    if (shared.local_idx[static_cast<std::size_t>(tid)] == 0) {
      const int f = shared.frag_of[static_cast<std::size_t>(tid)];
      shared.shards[static_cast<std::size_t>(f)] =
          std::make_unique<AtomicDistances>(
              part.fragment(f).num_vertices());
    }
  });

  // Pre-publish the seed worker (the source fragment's leader) busy at
  // level 0 so no worker can pass the termination check before the seed is
  // planted; the dist[source] = 0 store itself happens in seed(), on the
  // worker (see the comment there).
  const int source_frag = part.owner_of(source);
  const int seed_worker =
      shared.members[static_cast<std::size_t>(source_frag)].front();
  shared.curr.publish(seed_worker, 0);

  Timer timer;
  ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    chaos::ScopedInstall chaos_guard(ctx.chaos, tid);
    PartWorker<ChunkT> worker(shared, tid);
    if (tid == seed_worker) worker.seed(source);
    worker.run();
  });
  SsspResult result;
  finalize_result(ctx, timer.seconds(), result);
  result.dist.resize(n);
  for (int f = 0; f < f_count; ++f) {
    const GraphPartition::Fragment& frag = part.fragment(f);
    const AtomicDistances& shard =
        *shared.shards[static_cast<std::size_t>(f)];
    for (VertexId v = 0; v < frag.num_vertices(); ++v)
      result.dist[frag.begin + v] = shard.load(v);
  }
  return result;
}

}  // namespace

SsspResult wasp_sssp_partitioned(const Graph& g, VertexId source, Weight delta,
                                 const WaspConfig& config, RunContext& ctx) {
  return core::with_chunk_capacity(
      config.chunk_capacity, "wasp_sssp_partitioned",
      [&]<typename ChunkT>(std::type_identity<ChunkT>) {
        return wasp_sssp_partitioned_impl<ChunkT>(g, source, delta, config,
                                                  ctx);
      });
}

}  // namespace wasp
