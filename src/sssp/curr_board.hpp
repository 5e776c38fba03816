// CurrBoard: the curr-level publication protocol of the Wasp engine
// (paper §4.2/§4.3, Algorithm 1 line 23 / Algorithm 2).
//
// One cache-padded slot per worker advertises the priority level whose
// chunks that worker currently exposes in its Chase-Lev deque. Thieves read
// the board twice over: steal policies *probe* it to pick victims whose
// level is at least as good as their best local bucket, and the
// termination protocol *scans* it for the all-idle verdict.
//
// Extracted from wasp.cpp so the protocol's freshness contract is a
// testable unit: the release/acquire pair below is exactly what guarantees
// a thief that observed a published level can steal the chunks pushed
// before it (tests/test_verify.cpp WaspCurrProtocol — the publish() site is
// a deterministically killed mutant, see docs/CONCURRENCY.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "concurrent/chunk.hpp"  // kInfPriority
#include "support/padded.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

class CurrBoard {
 public:
  /// Slots start at kInfPriority ("no work"), the idle state the
  /// termination scan looks for. Relaxed: construction precedes the team
  /// launch, which carries the edge to every worker.
  explicit CurrBoard(int threads)
      : slots_(static_cast<std::size_t>(threads)) {
    for (auto& s : slots_)
      s.value.store(kInfPriority, std::memory_order_relaxed);
  }

  CurrBoard(const CurrBoard&) = delete;
  CurrBoard& operator=(const CurrBoard&) = delete;

  /// Publishes the level whose chunks `tid` is now exposing. Release: the
  /// chunks (and their plain priority/range fields) were pushed to the
  /// deque *before* the level is claimed, and this store is what carries
  /// them to a thief whose probe() reads it — the probe-then-steal
  /// freshness contract the WaspCurrProtocol tests pin down.
  void publish(int tid, std::uint64_t level) {
    slots_[static_cast<std::size_t>(tid)].value.store(
        level, std::memory_order_release);
  }

  /// Steal-policy read of a victim's published level (Algorithm 2 gate and
  /// the two-choice policy). Acquire: reads-from publish(), so a thief
  /// that saw the level also sees the deque state pushed before it. The
  /// acquire is the published order of the probe-then-steal contract, but
  /// it is advisory: steal() re-synchronizes through the deque's own
  /// bottom release/acquire edge, so a weakened probe costs at most a
  /// spurious empty steal (waived mutant CURR-c05129, docs/CONCURRENCY.md).
  [[nodiscard]] std::uint64_t probe(int victim) const {
    return slots_[static_cast<std::size_t>(victim)].value.load(
        std::memory_order_acquire);
  }

  /// Termination-scan read (§4.3 double-scan). Acquire: pairs with
  /// publish() so a scanner that observes a worker idle is ordered after
  /// that worker's last real-level activity; the double-scan epoch check
  /// tolerates staleness here (see core::Worker::scan_board).
  [[nodiscard]] std::uint64_t scan(int t) const {
    return slots_[static_cast<std::size_t>(t)].value.load(
        std::memory_order_acquire);
  }

  [[nodiscard]] int size() const { return static_cast<int>(slots_.size()); }

 private:
  std::vector<CachePadded<verify::atomic<std::uint64_t>>> slots_;
};

}  // namespace wasp
