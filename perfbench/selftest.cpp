// Checks of the benchmark's own helpers (stats.hpp): the percentile rank
// rule, the backlog and climb rules behind slo_qps, determinism of the seeded Zipf and
// Poisson generators, and the oracle rejecting a corrupted answer.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "graph/suite.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "stats.hpp"

namespace pb = perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  failures += ok ? 0 : 1;
}

bool throws(double p, std::size_t n) {
  try {
    (void)pb::percentile(std::vector<double>(n, 1.0), p);
    return false;
  } catch (const std::runtime_error&) {
    return true;
  }
}

void percentile_rule() {
  check(pb::samples_beyond(1000, 99) == 10, "p99 of 1000 leaves 10 beyond");
  check(pb::supports(1000, 99) && !pb::supports(999, 99),
        "p99 needs at least 1000 samples");
  check(pb::supports(100, 90) && !pb::supports(99, 90),
        "p90 needs at least 100 samples");
  check(throws(99, 999) && !throws(99, 1000),
        "percentile() refuses an unsupported p99");
  check(!throws(50, 1), "a median needs one sample");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check(pb::percentile(v, 99) == 990.0, "nearest-rank p99 of 1..1000 is 990");
  check(pb::percentile(v, 50) == 500.0, "nearest-rank p50 of 1..1000 is 500");
  v[0] = pb::kInf;  // an unserved query sorts last
  check(pb::percentile(v, 99) == 991.0, "an unserved sample counts as +inf");
}

void backlog_rule() {
  check(!pb::backlog_growing(std::vector<double>(300, 6.0)),
        "a flat backlog is not growing");
  std::vector<double> ramp;
  for (int i = 0; i < 300; ++i) ramp.push_back(i / 10.0);
  check(pb::backlog_growing(ramp), "a backlog climbing to 30 is growing");
  std::vector<double> noisy;
  for (int i = 0; i < 300; ++i) noisy.push_back(i % 2 ? 8.0 : 2.0);
  check(!pb::backlog_growing(noisy), "an oscillating backlog is not growing");
  check(!pb::backlog_growing({0.0, 50.0}), "two samples never grow");
  std::vector<double> fast(1000, 5.0), slow(1000, 5.0);
  slow[995] = 100.0;
  slow[996] = pb::kInf;
  check(pb::rung_meets_slo(fast, std::vector<double>(1000, 1.0), 10.0),
        "a fast rung with a flat backlog meets the limit");
  check(!pb::rung_meets_slo(fast, ramp, 10.0),
        "a growing backlog fails the rung");
  check(pb::rung_meets_slo(slow, std::vector<double>(1000, 1.0), 10.0),
        "two misses in 1000 still meet a p99 limit");
  for (int i = 0; i < 10; ++i) slow[i] = pb::kInf;
  check(!pb::rung_meets_slo(slow, std::vector<double>(1000, 1.0), 10.0),
        "twelve misses in 1000 fail a p99 limit");
  check(pb::climb_goodput({{true, 100}, {true, 200}, {false, 150},
                           {true, 400}}) == 200.0,
        "a climb scores the last rung passed before its first failure");
  check(pb::climb_goodput({{false, 100}, {true, 200}}) == 0.0,
        "a climb whose first rung fails scores 0");
  check(pb::climb_goodput({{true, 100}, {true, 200}}) == 200.0,
        "a climb that passes every rung scores the top one");
}

void generators() {
  const pb::Zipf zipf(8192, 0.9);
  wasp::Xoshiro256 a(42), b(42), c(43);
  std::vector<std::size_t> ra, rb, rc;
  for (int i = 0; i < 1000; ++i) {
    ra.push_back(zipf(a));
    rb.push_back(zipf(b));
    rc.push_back(zipf(c));
  }
  check(ra == rb, "Zipf ranks repeat under one seed");
  check(ra != rc, "Zipf ranks differ under another seed");
  std::size_t top = 0;
  for (std::size_t r : ra) top += r == 0;
  check(top > 30 && top < 120, "Zipf(0.9) over 8192 puts ~7% on rank 0");

  wasp::Xoshiro256 p(7), q(7);
  const std::vector<double> da = pb::poisson_arrivals(200.0, 2000, p);
  const std::vector<double> db = pb::poisson_arrivals(200.0, 2000, q);
  check(da == db, "Poisson due times repeat under one seed");
  bool rising = true;
  for (std::size_t i = 1; i < da.size(); ++i) rising = rising && da[i] > da[i - 1];
  check(rising, "Poisson due times strictly increase");
  check(std::fabs(da.back() - 10.0) < 1.0,
        "2000 arrivals at 200/s span about 10 s");
}

void oracle_gate() {
  const wasp::suite::Workload w =
      wasp::suite::make(wasp::suite::GraphClass::kRoadUsa, 0.05, 3);
  const std::vector<wasp::Distance> want = wasp::dijkstra(w.graph, w.source).dist;
  wasp::SsspOptions opt;
  opt.threads = 2;
  opt.delta = 1024;
  wasp::Solver solver(opt);
  const std::vector<wasp::Distance> got = solver.solve(w.graph, w.source).dist;
  check(pb::digest(want) == pb::digest(got), "a Wasp answer matches Dijkstra");
  std::vector<wasp::Distance> bad = got;
  bad[bad.size() / 2] += 1;
  check(pb::digest(want) != pb::digest(bad),
        "the oracle rejects a corrupted distance");
  bad = got;
  std::swap(bad[1], bad[2]);
  check(bad == got || pb::digest(want) != pb::digest(bad),
        "the oracle rejects two swapped distances");
  bad = got;
  bad.pop_back();
  check(pb::digest(want) != pb::digest(bad),
        "the oracle rejects a truncated answer");
}

}  // namespace

int main() {
  percentile_rule();
  backlog_rule();
  generators();
  oracle_gate();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
