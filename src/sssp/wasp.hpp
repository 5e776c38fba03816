// Wasp — Work-Stealing Shortest Path (the paper's contribution, §4).
//
// Architecture per thread (Figure 3):
//  * a list of thread-local buckets, one per coarsened priority level,
//    implemented as linked stacks of chunks (cheap, unsynchronized),
//  * the *current bucket*: a lock-free Chase-Lev deque of chunks holding the
//    priority level the thread is working on, stealable by other threads,
//  * a single thread-local buffer chunk batching both pushes and pops into
//    the current bucket (§4.3: one shared buffer chunk beats split
//    push/pop chunks),
//  * a shared atomic `curr` publishing the thread's current priority level.
//
// Execution (Algorithm 1) is fully asynchronous: a thread drains its current
// bucket, then *steals higher-priority chunks* (Algorithm 2: victims walked
// in NUMA tiers, stealing only from threads whose `curr` is at least as good
// as the best local bucket), and only when no better work exists anywhere
// does it advance to its next local bucket — this is the "priority drifting
// only when high-priority work is not available" principle.
//
// Optimizations (§4.4): neighborhood decomposition (high-degree adjacency
// split into stealable range chunks), leaf pruning (precomputed bitmap), and
// bidirectional relaxation (pull-before-push for small undirected
// neighborhoods).
//
// Termination: a thread with no work publishes curr = infinity and scans all
// `curr` values (§4.3). We close the classic steal/terminate race with an
// intermediate kStealingPriority state: a thief is never INF while it holds
// a freshly stolen chunk, so "all threads INF" really means no work exists.
//
// Both entry points below run the same worker (sssp/wasp_core.hpp) from the
// same driver (wasp.cpp): a cold solve is a seeded run with one seed at
// distance 0. NUMA awareness is the victim order alone — every worker reads
// the one CSR and the one distance array.
#pragma once

#include <span>

#include "graph/graph.hpp"
#include "sssp/common.hpp"
#include "support/thread_team.hpp"

namespace wasp {

/// Runs Wasp with bucket width `delta` and the given configuration. The
/// chaos engine installed on workers is ctx.chaos. Knobs must satisfy
/// SsspOptions::validate() (delta >= 1, chunk_capacity in
/// {16,32,64,128,256}).
SsspResult wasp_sssp(const Graph& g, VertexId source, Weight delta,
                     const WaspConfig& config, RunContext& ctx);

/// Warm-start multi-source variant backing incremental repair
/// (sssp/incremental.hpp): instead of seeding one source at distance 0 into
/// an all-infinity array, the caller pre-loads ctx.dist with valid *upper
/// bounds* (kInfDist for invalidated vertices) and names the frontier —
/// every vertex whose current bound may improve a neighbour. The engine
/// relaxes monotonically from the seeds exactly like a cold run relaxes
/// from the source, so it converges to the same fixed point: exact
/// distances, in work proportional to the region the seeds reach with
/// improvements, not the graph.
///
/// Contract: ctx.dist must be non-null, sized to g.num_vertices(), and hold
/// admissible bounds (never below the true distance). Seeds with an
/// infinite bound are skipped (nothing can relax from them — and their
/// bucket level would be meaningless). An empty (or all-infinite) seed set
/// returns the current bounds unchanged. Same knob contract as wasp_sssp.
SsspResult wasp_sssp_seeded(const Graph& g, std::span<const VertexId> seeds,
                            Weight delta, const WaspConfig& config,
                            RunContext& ctx);

}  // namespace wasp
