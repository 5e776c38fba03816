// The Wasp worker core (paper Algorithms 1-2, §4.2-4.4), shared by the flat
// engine (wasp.cpp, which also backs the seeded repair runs) and the
// partitioned engine (wasp_partitioned.cpp).
//
// What lives here is everything both workers run unchanged:
//  * Frontier: one worker's bucket list of chunks, its buffer chunk, its
//    stealable current-bucket deque, its chunk pool, and its published
//    `curr` level, with push / push_chunk / pop (chunk-drain lookahead) /
//    pour;
//  * WorkerCore: the pop loop, neighborhood decomposition, the steal sweep
//    over a member list (flat: every worker; partitioned: the fragment's
//    members) with the three §4.2 policies and the stolen-chunk drain, and
//    the pieces of the §4.3 double-scan termination check;
//  * with_chunk_capacity: the one dispatch from the runtime chunk capacity
//    to the compiled instantiations.
//
// What stays in each engine is only what differs: how a neighborhood is
// relaxed (the flat pull-then-push on the global CSR vs the fragment row
// with remote sends), the partitioned flush/drain steps, and each engine's
// exit rule. The engine plugs in through CRTP — WorkerCore calls
// Derived::load_dist, Derived::prefetch_vertex and
// Derived::process_neighborhood — so the per-pop and per-edge paths carry
// no virtual call, function pointer or mode flag.
//
// Private to src/sssp (and its unit tests), like curr_board.hpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "concurrent/chase_lev_deque.hpp"
#include "concurrent/chunk.hpp"
#include "graph/algorithms.hpp"
#include "sssp/common.hpp"
#include "sssp/curr_board.hpp"
#include "support/errors.hpp"
#include "support/numa.hpp"
#include "support/random.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp::core {

/// `curr` value of a thread that is out of local work and sweeping victims
/// (or, in the partitioned engine, draining remote records). Distinct from
/// kInfPriority so a thief holding freshly stolen work can never be
/// mistaken for an idle thread by the termination scan.
inline constexpr std::uint64_t kStealingPriority = kInfPriority - 1;

/// Sentinel neighbour range meaning "the whole adjacency list".
inline constexpr std::uint32_t kFullRange = ~std::uint32_t{0};

/// Runs `f(std::type_identity<ChunkT>{})` for the chunk instantiation of
/// `capacity`. The chunk capacity is a compile-time property (paper §4.3:
/// "chosen at compilation time"); these are the instantiations we ship.
template <typename F>
decltype(auto) with_chunk_capacity(std::uint32_t capacity, const char* who,
                                   F&& f) {
  switch (capacity) {
    case 16: return f(std::type_identity<BasicChunk<16>>{});
    case 32: return f(std::type_identity<BasicChunk<32>>{});
    case 64: return f(std::type_identity<BasicChunk<64>>{});
    case 128: return f(std::type_identity<BasicChunk<128>>{});
    case 256: return f(std::type_identity<BasicChunk<256>>{});
    default:
      throw InvalidOptionsError(
          std::string(who) +
          ": chunk_capacity must be one of 16, 32, 64, 128, 256");
  }
}

/// Where the team's workers run: CPU per worker (folded into the topology)
/// and NUMA node per worker.
struct Placement {
  std::shared_ptr<const NumaTopology> topo;
  std::vector<int> cpu_of;
  std::vector<int> node_of;

  Placement(const WaspConfig& config, const ThreadTeam& team)
      : topo(config.topology) {
    if (!topo) topo = std::make_shared<NumaTopology>(NumaTopology::detect());
    const int p = team.size();
    cpu_of.resize(static_cast<std::size_t>(p));
    node_of.resize(static_cast<std::size_t>(p));
    for (int t = 0; t < p; ++t) {
      const auto i = static_cast<std::size_t>(t);
      cpu_of[i] = team.cpu_of(t) % topo->num_cpus();
      node_of[i] = topo->node_of_cpu(cpu_of[i]);
    }
  }
};

/// Thread-local bucket list: level -> linked stack of chunks, the head chunk
/// partially filled. Grown by power-of-two rounding (§4.3).
template <typename ChunkT>
struct BucketList {
  std::vector<ChunkT*> head;
  std::uint64_t min_hint = kInfPriority;

  ChunkT*& at(std::uint64_t level) {
    if (level >= head.size()) {
      // Grow geometrically from the *requested* level, not by doubling the
      // current size: a weight outlier landing in a sparse high bucket
      // resizes straight to bit_ceil(level+1) instead of walking there.
      const std::size_t cap = std::max<std::size_t>(
          64, std::bit_ceil(static_cast<std::size_t>(level) + 1));
      head.resize(cap, nullptr);
    }
    return head[level];
  }

  /// Smallest level holding vertices; updates the scan hint.
  std::uint64_t min_non_empty() {
    for (std::uint64_t l = min_hint; l < head.size(); ++l) {
      if (head[l] != nullptr) {
        min_hint = l;
        return l;
      }
    }
    min_hint = kInfPriority;
    return kInfPriority;
  }
};

/// One worker's frontier (Figure 3): local buckets, the buffer chunk
/// batching pushes and pops into the current bucket (§4.3), the stealable
/// current-bucket deque, and the worker's `curr` slot on the board.
template <typename ChunkT>
class Frontier {
 public:
  Frontier(BasicChunkArena<ChunkT>& arena, ChaseLevDeque<ChunkT*>& deque,
           CurrBoard& board, int tid, obs::MetricsShard& my,
           obs::TraceRecorder* trace, std::uint32_t lookahead)
      : pool_(arena), deque_(&deque), board_(&board), my_(&my), trace_(trace),
        tid_(tid), lookahead_(lookahead) {
    buffer_ = alloc();
  }

  Frontier(const Frontier&) = delete;
  Frontier& operator=(const Frontier&) = delete;

  /// The level this worker last published (its current bucket).
  [[nodiscard]] std::uint64_t level() const { return curr_; }

  void publish(std::uint64_t level) {
    curr_ = level;
    // Chaos: widen the window between deciding a level and publishing it —
    // the interval the kStealingPriority state exists to protect.
    WASP_CHAOS_YIELD(chaos::Point::kDelayCurrPublish);
    board_->publish(tid_, level);  // release (curr_board.hpp)
  }

  /// Every chunk-pool allocation goes through here so the alloc rate is
  /// observable (kChunkAllocs + trace instants).
  ChunkT* alloc() {
    my_->inc(obs::CounterId::kChunkAllocs);
    obs::trace_instant(trace_, tid_, obs::EventKind::kChunkAlloc);
    return pool_.get();
  }

  /// Returns a drained chunk to this worker's freelist (stolen chunks are
  /// recycled by the thief, §4.3).
  void recycle(ChunkT* c) { pool_.put(c); }

  /// Algorithm 1, push_to_buckets: current-level vertices go to the current
  /// bucket (buffer -> deque), others to the thread-local bucket list.
  void push(VertexId v, std::uint64_t level) {
    if (level == curr_) {
      if (buffer_->full()) {
        deque_->push_bottom(buffer_);
        buffer_ = alloc();
      }
      if (buffer_->empty()) buffer_->set_priority(level);
      buffer_->push(v);
      return;
    }
    ChunkT*& head = buckets_.at(level);
    // A range chunk carries exactly one vertex and its [lo, hi) slice; a
    // vertex pushed into it would be popped with the slice's range and the
    // slice itself dropped. Start a fresh chunk in front of it instead.
    if (head == nullptr || head->full() || head->is_range()) {
      ChunkT* fresh = alloc();
      fresh->set_priority(level);
      fresh->next = head;
      head = fresh;
    }
    head->push(v);
    buckets_.min_hint = std::min(buckets_.min_hint, level);
  }

  /// Pushes a pre-built chunk (range chunks from neighborhood
  /// decomposition). Current-level chunks go straight to the deque so other
  /// threads can steal slices of the big neighborhood immediately.
  void push_chunk(ChunkT* c, std::uint64_t level) {
    c->set_priority(level);
    if (level == curr_) {
      deque_->push_bottom(c);
      return;
    }
    ChunkT*& head = buckets_.at(level);
    c->next = head;
    head = c;
    buckets_.min_hint = std::min(buckets_.min_hint, level);
  }

  /// Pops one vertex of the current bucket from the buffer chunk, refilling
  /// it from the deque when empty (popped chunks are recycled as the buffer,
  /// §4.3). [begin, end) is the slice of u's row to relax (kFullRange end =
  /// the whole row). `prefetch(v)` warms the vertex the drain reaches
  /// `lookahead` pops from now.
  template <typename Prefetch>
  bool pop(VertexId& u, std::uint64_t& prio, std::uint32_t& begin,
           std::uint32_t& end, Prefetch&& prefetch) {
    if (buffer_->empty()) {
      ChunkT* refill = deque_->pop_bottom();
      if (refill == nullptr) return false;
      pool_.put(buffer_);
      buffer_ = refill;
    }
    prio = buffer_->priority();
    if (buffer_->is_range()) {
      begin = buffer_->range_begin();
      end = buffer_->range_end();
      u = buffer_->pop();
      buffer_->reset();  // range chunks hold exactly one vertex
    } else {
      begin = 0;
      end = kFullRange;
      u = buffer_->pop();
      // Chunk-drain lookahead: the LIFO order of the remaining entries is
      // already decided, so warm the distance entry and adjacency offsets
      // of the vertex we will drain `lookahead_` pops from now.
      if (lookahead_ != 0 && !buffer_->empty()) {
        prefetch(buffer_->peek(std::min(lookahead_ - 1, buffer_->size() - 1)));
        my_->inc(obs::CounterId::kPrefetchIssued, 2);
      }
    }
    return true;
  }

  /// Smallest non-empty local bucket (kInfPriority when none).
  std::uint64_t next_level() { return buckets_.min_non_empty(); }

  /// Algorithm 1 line 32: moves all chunks of bucket `level` into the
  /// current-bucket deque.
  void pour(std::uint64_t level) {
    ChunkT* c = buckets_.head[level];
    buckets_.head[level] = nullptr;
    while (c != nullptr) {
      ChunkT* next_chunk = c->next;
      c->next = nullptr;
      deque_->push_bottom(c);
      c = next_chunk;
    }
  }

 private:
  BasicChunkPool<ChunkT> pool_;
  ChaseLevDeque<ChunkT*>* deque_;
  CurrBoard* board_;
  obs::MetricsShard* my_;
  obs::TraceRecorder* trace_;
  const int tid_;
  const std::uint32_t lookahead_;  ///< SsspOptions::prefetch_lookahead
  ChunkT* buffer_ = nullptr;
  BucketList<ChunkT> buckets_;
  std::uint64_t curr_ = kInfPriority;
};

/// Run-wide state every worker of either engine shares. Owns the deques so
/// a finished worker's current bucket stays probeable by late thieves.
template <typename ChunkT>
struct Shared {
  const WaspConfig& config;
  RunContext& ctx;  ///< metrics shards, trace recorder, observer
  Weight delta;
  std::vector<std::uint8_t> leaf_bits;  ///< empty when leaf pruning is off
  const std::uint8_t* leaf;             ///< leaf_bits.data(), or null
  CurrBoard curr;  ///< per-worker published levels (sssp/curr_board.hpp)
  std::vector<std::unique_ptr<ChaseLevDeque<ChunkT*>>> deques;
  BasicChunkArena<ChunkT> arena;
  std::vector<int> node_of;  ///< worker -> NUMA node (steal locality)
  /// Bumped whenever a thread enters a termination-mode sweep; the
  /// double-scan termination check needs it to detect work migrating
  /// behind a scan (see WorkerCore::scan_board).
  verify::atomic<std::uint64_t> steal_epoch{0};

  Shared(const Graph& g, const WaspConfig& cfg, RunContext& ctx_,
         Weight delta_, std::vector<int> node_of_)
      : config(cfg), ctx(ctx_), delta(delta_),
        leaf_bits(cfg.leaf_pruning ? compute_leaf_bitmap(g)
                                   : std::vector<std::uint8_t>{}),
        leaf(cfg.leaf_pruning ? leaf_bits.data() : nullptr),
        curr(ctx_.team.size()),
        deques(static_cast<std::size_t>(ctx_.team.size())),
        node_of(std::move(node_of_)) {
    for (auto& d : deques) d = std::make_unique<ChaseLevDeque<ChunkT*>>();
  }
};

/// The part of a Wasp worker both engines share. `Derived` supplies:
///  * `Distance load_dist(VertexId u) const` — u's tentative distance;
///  * `void prefetch_vertex(VertexId v)` — chunk-drain lookahead target;
///  * `void process_neighborhood(VertexId u, std::uint64_t prio,
///     std::uint32_t begin, std::uint32_t end)` — relax [begin, end) of u's
///     row (end == kFullRange: the whole row, see split_neighborhood).
template <typename Derived, typename ChunkT>
class WorkerCore {
 protected:
  using CId = obs::CounterId;
  using EK = obs::EventKind;

  /// `members` are the workers this one may steal from (itself included,
  /// at index `me`); `tiers` ranks them by NUMA distance in member-local
  /// indices.
  WorkerCore(Shared<ChunkT>& shared, int tid, std::span<const int> members,
             const VictimTiers& tiers, int me)
      : core_(shared), tid_(tid), my_(shared.ctx.metrics.shard(tid)),
        frontier_(shared.arena, *shared.deques[static_cast<std::size_t>(tid)],
                  shared.curr, tid, my_, shared.ctx.trace,
                  shared.ctx.prefetch_lookahead),
        rng_(hash_mix(0xA5B5ULL + static_cast<std::uint64_t>(tid))),
        members_(members), tiers_(tiers), me_(me),
        lookahead_(shared.ctx.prefetch_lookahead) {}

  Derived& self() { return static_cast<Derived&>(*this); }

  // --- current bucket ----------------------------------------------------

  void drain_current_bucket() {
    VertexId u;
    std::uint64_t prio;
    std::uint32_t begin, end;
    while (frontier_.pop(u, prio, begin, end,
                         [this](VertexId v) { self().prefetch_vertex(v); })) {
      // Cancellation point (one relaxed load per pop): leftover entries in
      // the buffer/deque are simply dropped — run() exits next iteration.
      if (core_.ctx.stop_requested()) return;
      if (is_stale(u, prio)) {
        my_.inc(CId::kStaleSkips);
        continue;
      }
      self().process_neighborhood(u, prio, begin, end);
    }
  }

  /// Algorithm 1 line 20: skip entries superseded by a better path.
  [[nodiscard]] bool is_stale(VertexId u, std::uint64_t prio) {
    return static_cast<std::uint64_t>(self().load_dist(u)) <
           prio * static_cast<std::uint64_t>(core_.delta);
  }

  /// Algorithm 1 line 30-32: advance to the next local bucket, moving its
  /// chunks into the work-stealing deque.
  void advance_bucket(std::uint64_t next) {
    my_.inc(CId::kBucketAdvances);
    obs::trace_instant(core_.ctx.trace, tid_, EK::kBucketAdvance, next);
    frontier_.publish(next);
    frontier_.pour(next);
  }

  // --- relaxation helpers -------------------------------------------------

  /// Neighborhood decomposition (§4.4) of a whole-row request: split a
  /// huge adjacency into theta-sized range chunks at the same priority; we
  /// keep the first range, the rest become stealable single-vertex chunks.
  /// Returns the end of the range this worker relaxes now.
  std::uint32_t split_neighborhood(VertexId u, std::uint64_t prio,
                                   std::uint32_t degree) {
    const WaspConfig& cfg = core_.config;
    if (!cfg.neighborhood_decomposition || degree <= cfg.theta) return degree;
    for (std::uint32_t lo = cfg.theta; lo < degree; lo += cfg.theta) {
      ChunkT* slice = frontier_.alloc();
      slice->make_range(u, lo, std::min(lo + cfg.theta, degree));
      frontier_.push_chunk(slice, prio);
    }
    return cfg.theta;
  }

  /// Per-vertex accounting: the processed counter, and every 4096 vertices
  /// the observer's progress callback plus a deadline poll (one clock read;
  /// a fired deadline self-cancels the token and the next stop_requested()
  /// poll unwinds the worker).
  void count_vertex() {
    my_.inc(CId::kVerticesProcessed);
    ++progress_;
    if ((progress_ & 0xFFFu) == 0) {
      if (core_.ctx.observer != nullptr)
        core_.ctx.observer->on_progress(tid_, progress_);
      (void)core_.ctx.poll_cancel();
    }
  }

  /// Schedules v after its distance improved to d, unless leaf pruning
  /// (§4.4) says it can never improve another vertex. Returns whether v was
  /// pushed.
  bool schedule(VertexId v, Distance d) {
    if (core_.leaf != nullptr && core_.leaf[v]) return false;
    frontier_.push(v, static_cast<std::uint64_t>(d) / core_.delta);
    return true;
  }

  /// Prefetches the relaxation loop over [begin, end) issued.
  void count_prefetches(std::uint32_t begin, std::uint32_t end) {
    if (lookahead_ != 0 && end - begin > lookahead_)
      my_.inc(CId::kPrefetchIssued, end - begin - lookahead_);
  }

  // --- work stealing (Algorithm 2 + §4.2 ablation policies) --------------

  /// Attempts to steal chunks with priority at least as good as `next`.
  /// On success, publishes curr = best stolen priority, processes all stolen
  /// chunks immediately (stolen chunks are never re-exposed, §4.1), and
  /// returns true.
  bool try_steal_and_process(std::uint64_t next) {
    // Deadline poll at sweep entry: steal storms never process a vertex, so
    // without this a livelocked sweep loop would only notice an external
    // cancel, not its own expired budget.
    (void)core_.ctx.poll_cancel();
    ChunkT* stolen[64];
    int count = 0;
    obs::trace_begin(core_.ctx.trace, tid_, EK::kStealSweep, next);
    Timer steal_timer;
    switch (core_.config.steal_policy) {
      case StealPolicy::kPriorityNuma:
        count = steal_priority_numa(next, stolen);
        break;
      case StealPolicy::kRandom:
        count = steal_random(stolen);
        break;
      case StealPolicy::kTwoChoice:
        count = steal_two_choice(stolen);
        break;
    }
    const std::uint64_t sweep_ns = steal_timer.nanoseconds();
    my_.inc(CId::kStealNs, sweep_ns);
    my_.observe(obs::HistId::kStealSweepNs, sweep_ns);
    obs::trace_end(core_.ctx.trace, tid_, EK::kStealSweep,
                   static_cast<std::uint64_t>(count));
    if (count == 0) return false;

    std::uint64_t best = kInfPriority;
    for (int i = 0; i < count; ++i)
      best = std::min(best, stolen[i]->priority());
    frontier_.publish(best);  // Algorithm 1 line 23

    for (int i = 0; i < count; ++i) {
      ChunkT* c = stolen[i];
      const std::uint64_t prio = c->priority();
      const bool range = c->is_range();
      const std::uint32_t rb = c->range_begin();
      const std::uint32_t re = c->range_end();
      while (!c->empty()) {
        // Cancellation point: stop processing but keep recycling the stolen
        // chunks (they are never re-exposed) so ownership stays tidy.
        if (core_.ctx.stop_requested()) {
          c->reset();
          break;
        }
        const VertexId u = c->pop();
        if (is_stale(u, prio)) {
          my_.inc(CId::kStaleSkips);
          continue;
        }
        if (range) {
          self().process_neighborhood(u, prio, rb, re);
        } else {
          self().process_neighborhood(u, prio, 0, kFullRange);
        }
      }
      c->reset();
      frontier_.recycle(c);
    }
    return true;
  }

  /// The paper's protocol (Algorithm 2): walk NUMA tiers nearest-first;
  /// within a tier, steal one chunk from every victim whose current
  /// priority level is at least as good as our best local bucket; stop at
  /// the first tier that yields anything.
  int steal_priority_numa(std::uint64_t next, ChunkT** out) {
    int count = 0;
    for (const auto& tier : tiers_.tiers(me_)) {
      for (const int lv : tier) {
        const int t = members_[static_cast<std::size_t>(lv)];
        note_attempt(t);
        const std::uint64_t victim_curr = core_.curr.probe(t);  // acquire
        if (victim_curr > next) {
          notify_steal(t, false);
          continue;
        }
        ChunkT* c = core_.deques[static_cast<std::size_t>(t)]->steal();
        notify_steal(t, c != nullptr);
        if (c != nullptr) {
          out[count++] = c;
          if (count == 64) return count;
        }
      }
      if (count > 0) return count;
    }
    return count;
  }

  /// Traditional random-victim stealing (§4.2 ablation): up to
  /// steal_retries+1 random victims, taking any available chunk.
  int steal_random(ChunkT** out) {
    const int m = static_cast<int>(members_.size());
    if (m <= 1) return 0;
    for (int attempt = 0; attempt <= core_.config.steal_retries; ++attempt) {
      const int t = random_victim(m);
      note_attempt(t);
      if (take_from(t, out)) return 1;
    }
    return 0;
  }

  /// MultiQueue-like two-choice stealing (§4.2 ablation): sample two
  /// victims, steal from the one with the better current priority.
  int steal_two_choice(ChunkT** out) {
    const int m = static_cast<int>(members_.size());
    if (m <= 1) return 0;
    for (int attempt = 0; attempt <= core_.config.steal_retries; ++attempt) {
      const int a = random_victim(m);
      const int b = random_victim(m);
      const std::uint64_t ca = core_.curr.probe(a);  // acquire (curr_board.hpp)
      const std::uint64_t cb = core_.curr.probe(b);  // acquire (curr_board.hpp)
      const int t = ca <= cb ? a : b;
      note_attempt(t);
      if (take_from(t, out)) return 1;
    }
    return 0;
  }

  /// A uniformly random member other than this worker, as a worker id.
  int random_victim(int m) {
    int lv = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(m - 1)));
    if (lv >= me_) ++lv;
    return members_[static_cast<std::size_t>(lv)];
  }

  void note_attempt(int victim) {
    my_.inc(CId::kStealAttempts);
    obs::trace_instant(core_.ctx.trace, tid_, EK::kStealAttempt,
                       static_cast<std::uint64_t>(victim));
  }

  /// One steal from `victim`'s deque into out[0]; true on success.
  bool take_from(int victim, ChunkT** out) {
    ChunkT* c = core_.deques[static_cast<std::size_t>(victim)]->steal();
    notify_steal(victim, c != nullptr);
    if (c == nullptr) return false;
    out[0] = c;
    return true;
  }

  /// Observer + trace notification for one victim probe, plus the steal
  /// counters on success. The call count matches the kStealAttempts counter
  /// exactly (tests rely on it). A steal is local when thief and victim are
  /// pinned to the same NUMA node of the run's topology (exported by
  /// bench/fig06_scaling).
  void notify_steal(int victim, bool success) {
    if (success) {
      my_.inc(CId::kSteals);
      my_.inc(core_.node_of[static_cast<std::size_t>(victim)] ==
                      core_.node_of[static_cast<std::size_t>(tid_)]
                  ? CId::kLocalSteals
                  : CId::kRemoteSteals);
      obs::trace_instant(core_.ctx.trace, tid_, EK::kStealSuccess,
                         static_cast<std::uint64_t>(victim));
    }
    if (core_.ctx.observer != nullptr)
      core_.ctx.observer->on_steal(tid_, victim, success);
  }

  // --- termination (§4.3) -------------------------------------------------
  //
  // Correctness argument of the double scan: work always resides with a
  // thread whose `curr` is not kInfPriority (workers publish a real level
  // before exposing or processing work, and kStealingPriority before
  // sweeping). The only way work crosses from a not-yet-scanned thread to
  // an already-scanned one is a termination-mode sweep, and every such
  // sweep increments steal_epoch *before* it can move work. Hence "epoch
  // stable across a scan that saw every thread idle" proves no work existed
  // during the scan. Each engine's terminate() builds its exit rule on it.

  /// Cancellation point of a termination loop (with deadline check — idle
  /// scans are exactly where an overdue run spins): leave as if terminated;
  /// peers observe us idle and exit through their own polls or a verdict.
  bool cancelled_while_idle() {
    if (!core_.ctx.poll_cancel()) return false;
    frontier_.publish(kInfPriority);
    obs::trace_end(core_.ctx.trace, tid_, EK::kTerminationScan, 1);
    return true;
  }

  /// Enters a termination-mode sweep: everything it may move (steals, and
  /// the partitioned engine's inbound drain) happens after this.
  void begin_termination_sweep() {
    // acq_rel: the epoch bump orders this sweep's work movement between the
    // double-scan's acquire reads (scan_board), invalidating any scan that
    // it raced with.
    core_.steal_epoch.fetch_add(1, std::memory_order_acq_rel);
    frontier_.publish(kStealingPriority);
  }

  struct ScanVerdict {
    bool quiet;            ///< every slot idle and the epoch stable
    bool someone_working;  ///< some slot holds a real level
  };

  /// One double scan of the curr board. `inside` runs between the opening
  /// epoch read and the board reads (the partitioned engine's in-flight
  /// read must sit exactly there).
  template <typename Inside>
  ScanVerdict scan_board(Inside&& inside) {
    // Acquire epoch reads bracket the scan: any sweep that bumps the epoch
    // between them invalidates this scan (§4.3 double-scan).
    const std::uint64_t epoch_before =
        core_.steal_epoch.load(std::memory_order_acquire);
    inside();
    bool all_idle = true;
    bool someone_working = false;
    for (int t = 0; t < core_.curr.size(); ++t) {
      const std::uint64_t c = core_.curr.scan(t);  // acquire (curr_board.hpp)
      if (c != kInfPriority) all_idle = false;
      if (c < kStealingPriority) someone_working = true;
    }
    // Acquire: closes the double-scan bracket (see epoch_before).
    const std::uint64_t epoch_after =
        core_.steal_epoch.load(std::memory_order_acquire);
    return {all_idle && epoch_before == epoch_after, someone_working};
  }

  /// The termination verdict is in: close the scan span, tell the observer.
  void terminated() {
    obs::trace_end(core_.ctx.trace, tid_, EK::kTerminationScan, 1);
    if (core_.ctx.observer != nullptr) core_.ctx.observer->on_termination(tid_);
  }

  void record_idle(std::uint64_t ns) {
    my_.inc(CId::kIdleNs, ns);
    my_.observe(obs::HistId::kIdleScanNs, ns);
  }

  Shared<ChunkT>& core_;
  const int tid_;
  obs::MetricsShard& my_;
  Frontier<ChunkT> frontier_;
  Xoshiro256 rng_;
  const std::span<const int> members_;
  const VictimTiers& tiers_;
  const int me_;
  std::uint64_t progress_ = 0;
  const std::uint32_t lookahead_;  ///< SsspOptions::prefetch_lookahead
};

}  // namespace wasp::core
