// Helpers of the repository benchmark that carry a rule worth testing on
// its own (selftest.cpp): the percentile rank rule, the backlog and climb
// rules behind slo_qps, the seeded Zipf and Poisson generators of the
// open-loop client, and the digest the oracle compares answers by.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/random.hpp"
#include "support/types.hpp"

namespace perfbench {

/// Samples a percentile must leave strictly above its rank before the
/// benchmark reports it ("the highest percentile with at least ten samples
/// beyond it").
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank index of percentile `p` (in (0, 100]) among `n` sorted
/// samples: the smallest k with k / n >= p / 100, as a 0-based index.
inline std::size_t rank_index(std::size_t n, double p) {
  const double k = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(std::max(1.0, k)) - 1;
}

/// Samples strictly beyond the nearest-rank position of `p`.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - 1 - rank_index(n, p);
}

/// True when `n` samples support reporting percentile `p`.
inline bool supports(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kMinBeyond;
}

/// Nearest-rank percentile of `v` (copied and sorted). Throws when the
/// sample count does not support `p`, so a named p99 is never read off a
/// sample too small to have one; the median (p = 50) needs one sample.
/// +inf samples (unserved queries) sort last and may be the answer.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty() || (p > 50.0 && !supports(v.size(), p)))
    throw std::runtime_error("percentile p" + std::to_string(p) +
                             " needs more than " + std::to_string(v.size()) +
                             " samples");
  const std::size_t k = rank_index(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Backlog rule of slo_qps: the client samples its backlog (queries sent
/// and not yet resolved) at every send. The backlog is growing when the
/// mean of the last third of the samples exceeds the mean of the first
/// third by more than 4 queries plus a quarter of that first-third mean.
/// Fewer than 3 samples never count as growing.
inline bool backlog_growing(const std::vector<double>& backlog) {
  const std::size_t third = backlog.size() / 3;
  if (third == 0) return false;
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < third; ++i) {
    head += backlog[i];
    tail += backlog[backlog.size() - third + i];
  }
  head /= static_cast<double>(third);
  tail /= static_cast<double>(third);
  return tail > head + 4.0 + 0.25 * head;
}

/// A ladder rung meets the latency limit when its p99 latency (unserved
/// queries count as +inf) is at most `limit_ms` and its backlog is not
/// growing.
inline bool rung_meets_slo(const std::vector<double>& latency_ms,
                           const std::vector<double>& backlog,
                           double limit_ms) {
  return percentile(latency_ms, 99.0) <= limit_ms &&
         !backlog_growing(backlog);
}

/// One rung visit of a climb, judged by rung_meets_slo().
struct RungVerdict {
  bool passes;
  double goodput;  ///< answers within the limit per second
};

/// slo_qps of one climb, given its rungs in increasing rate order: the
/// goodput of the last rung passed before the first one that fails, or 0
/// when the first fails. A rung passed above a failed one does not count.
inline double climb_goodput(const std::vector<RungVerdict>& rungs) {
  double best = 0.0;
  for (const RungVerdict& r : rungs) {
    if (!r.passes) break;
    best = r.goodput;
  }
  return best;
}

/// Zipf(s) ranks over [0, n): rank r is drawn with probability
/// proportional to 1 / (r + 1)^s. Deterministic in the Xoshiro256 stream.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::size_t operator()(wasp::Xoshiro256& rng) const {
    const double u = rng.next_double();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Due times, in seconds from the start of a rung, of `count` Poisson
/// arrivals at `rate` per second (exponential gaps).
inline std::vector<double> poisson_arrivals(double rate, std::size_t count,
                                            wasp::Xoshiro256& rng) {
  std::vector<double> due(count);
  double t = 0.0;
  for (double& d : due) {
    t += -std::log1p(-rng.next_double()) / rate;
    d = t;
  }
  return due;
}

/// 64-bit digest of a distance vector (length and every entry, in order).
/// The oracle compares answers by digest, so answers need not be kept in
/// memory until the checks run after the measured phases; any change to a
/// single entry changes the digest (each step is a bijection of the state).
inline std::uint64_t digest(const std::vector<wasp::Distance>& dist) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ dist.size();
  for (const wasp::Distance d : dist) {
    h = (h ^ d) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  return h;
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace perfbench
