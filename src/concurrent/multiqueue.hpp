// Relaxed concurrent priority queue: the MultiQueue of Rihani, Sanders &
// Dementiev (SPAA'15) with the engineering refinements of Williams, Sanders
// & Dementiev (ESA'21) the paper benchmarks against (§2, §5):
//
//  * c*p spinlock-protected internal priority queues (c = 2 in the paper),
//    each an 8-ary min-heap,
//  * two-choice deletion: sample two queues, take from the one whose top has
//    the smaller key (peeked via a lock-free shadow of each queue's top),
//  * stickiness s: a thread keeps using its chosen queue for s consecutive
//    refills before re-sampling,
//  * per-thread insertion and deletion buffers of size b (b = 16) to batch
//    locked operations.
//
// Instrumented: time spent inside locked queue operations (buffer flushes
// and refills) is accumulated per thread; this is what Figure 2's
// "queue operations" share reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "concurrent/dary_heap.hpp"
#include "concurrent/spinlock.hpp"
#include "support/padded.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"
#include "support/types.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

/// MultiQueue of (Distance, VertexId) entries.
class MultiQueue {
 public:
  struct Config {
    int threads = 1;
    int c = 2;            ///< queues per thread
    int stickiness = 8;   ///< refills before re-sampling a queue
    int buffer_size = 16; ///< insertion/deletion buffer capacity
    std::uint64_t seed = 1;
  };

  explicit MultiQueue(const Config& config);

  MultiQueue(const MultiQueue&) = delete;
  MultiQueue& operator=(const MultiQueue&) = delete;

  /// Inserts an element (goes through the caller's insertion buffer).
  void push(int tid, Distance key, VertexId value);

  /// Pops an approximately-minimal element. Returns false when the structure
  /// appears empty from this thread's perspective (own buffers flushed, the
  /// sampled queues empty). Refill samples only a few queues, so false does
  /// not prove emptiness even when quiescent: elements may remain in queues
  /// the sample missed. size_estimate() is the exact quiescent test (what
  /// mq_dijkstra's termination reads, together with its busy count).
  bool try_pop(int tid, Distance& key, VertexId& value);

  /// Flushes the caller's insertion buffer so its elements become stealable
  /// by other threads' pops.
  void flush(int tid);

  /// Elements currently buffered + queued (exact when quiescent).
  /// Occupancy statistic: staleness is inherent (the counter races with
  /// buffered pushes anyway), so relaxed is the honest order.
  [[nodiscard]] std::int64_t size_estimate() const {
    return size_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds thread `tid` has spent inside locked queue operations.
  [[nodiscard]] std::uint64_t queue_op_ns(int tid) const {
    return per_thread_[static_cast<std::size_t>(tid)].value.queue_op_ns;
  }

  [[nodiscard]] int num_internal_queues() const {
    return static_cast<int>(queues_.size());
  }

 private:
  struct InternalQueue {
    SpinLock lock;
    DaryHeap<Distance, VertexId, 8> heap WASP_GUARDED_BY(lock);
    // Lock-free shadow of heap.top().key (kInfDist when empty), so the
    // two-choice comparison does not need the lock. Advisory: every decision
    // based on it is re-validated under `lock`, so relaxed accesses suffice
    // (docs/CONCURRENCY.md) — the lock itself is the load-bearing sync.
    verify::atomic<Distance> top_key{kInfDist};
  };

  struct Entry {
    Distance key;
    VertexId value;
  };

  struct PerThread {
    Xoshiro256 rng{1};
    std::vector<Entry> insert_buffer;
    std::vector<Entry> delete_buffer;  // ascending; consumed from the front
    std::size_t delete_cursor = 0;
    int sticky_queue = -1;
    int sticky_left = 0;
    std::uint64_t queue_op_ns = 0;
  };

  int pick_queue_two_choice(PerThread& me);
  bool refill(int tid, PerThread& me);

  Config config_;
  std::vector<CachePadded<InternalQueue>> queues_;
  std::vector<CachePadded<PerThread>> per_thread_;
  verify::atomic<std::int64_t> size_{0};
};

}  // namespace wasp
