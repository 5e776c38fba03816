// Service-level robustness bench: drives a QueryService fleet with a seeded
// open-loop arrival stream (exponential inter-arrival times, two tenants)
// across a sweep of offered rates bracketing the fleet's measured capacity,
// then measures cancellation latency under a deliberately blown budget.
//
// Reports, per offered rate: the per-attempt outcome counts (which must sum
// to the accepted attempts — the invariant tools/bench_check.py enforces),
// served throughput, and end-to-end latency percentiles; plus the
// saturation throughput across the sweep and the deadline-overshoot
// percentiles of the cancellation phase (how far past its budget a
// cancelled query ran before the polling sites unwound it).
//
// Writes BENCH_qps.json (see docs/ROBUSTNESS.md for the schema;
// tools/bench_check.py --schema-only validates it in the service-smoke CI
// job, under TSan with chaos injection installed).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/algorithms.hpp"
#include "harness.hpp"
#include "service/service.hpp"
#include "support/chaos.hpp"
#include "support/errors.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

using namespace wasp;

namespace {

struct RateRow {
  double offered_qps = 0.0;
  int attempts = 0;   ///< submit() calls issued by the client
  int submitted = 0;  ///< attempts accepted (futures obtained)
  int rejected = 0;   ///< attempts refused with ServiceOverloadedError
  int served = 0;
  int served_stale = 0;
  int cancelled = 0;
  int deadline_expired = 0;
  int shed = 0;
  int failed = 0;
  std::uint64_t coalesced = 0;  ///< entries merged (service-side count)
  double served_qps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

struct CancelSummary {
  int queries = 0;
  double budget_ms = 0.0;
  int expired = 0;
  int served = 0;
  double p50_overshoot_ms = 0.0;
  double p99_overshoot_ms = 0.0;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

chaos::Policy parse_policy(const std::string& name) {
  for (const chaos::Policy& p : chaos::standard_policies())
    if (name == p.name) return p;
  std::fprintf(stderr, "qps_service: unknown chaos policy '%s'\n",
               name.c_str());
  std::exit(2);
}

std::uint64_t chaos_seed(std::uint64_t fallback) {
  const char* env = std::getenv("WASP_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : fallback;
}

void write_json(const std::string& path, const std::string& graph, int threads,
                int solvers, std::size_t queue_capacity, std::uint64_t seed,
                const std::string& chaos_name,
                const std::vector<RateRow>& rates, double saturation_qps,
                const CancelSummary& cancel, double watchdog_ms) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema_version\": 1,\n"
      << "  \"bench\": \"qps_service\",\n"
      << "  \"graph\": \"" << graph << "\",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"solvers\": " << solvers << ",\n"
      << "  \"queue_capacity\": " << queue_capacity << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"chaos\": \"" << chaos_name << "\",\n"
      << "  \"rates\": [\n";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const RateRow& r = rates[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"offered_qps\": %.3f, \"attempts\": %d, \"submitted\": %d, "
        "\"rejected\": %d, \"served\": %d, \"served_stale\": %d, "
        "\"cancelled\": %d, \"deadline_expired\": %d, \"shed\": %d, "
        "\"failed\": %d, \"coalesced\": %llu, \"served_qps\": %.3f, "
        "\"p50_ms\": %.6f, \"p90_ms\": %.6f, \"p99_ms\": %.6f}%s\n",
        r.offered_qps, r.attempts, r.submitted, r.rejected, r.served,
        r.served_stale, r.cancelled, r.deadline_expired, r.shed, r.failed,
        static_cast<unsigned long long>(r.coalesced), r.served_qps, r.p50_ms,
        r.p90_ms, r.p99_ms, i + 1 < rates.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"saturation_qps\": %.3f,\n"
                "  \"cancel\": {\"queries\": %d, \"budget_ms\": %.6f, "
                "\"expired\": %d, \"served\": %d, \"p50_overshoot_ms\": %.6f, "
                "\"p99_overshoot_ms\": %.6f, \"watchdog_interval_ms\": "
                "%.3f}\n",
                saturation_qps, cancel.queries, cancel.budget_ms,
                cancel.expired, cancel.served, cancel.p50_overshoot_ms,
                cancel.p99_overshoot_ms, watchdog_ms);
  out << buf << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("qps_service",
                 "QueryService robustness: rate sweep + cancel latency");
  bench::add_common_args(args);
  args.add_int("solvers", 2, "Solvers in the service fleet");
  args.add_int("queue", 8, "admission queue capacity");
  args.add_int("queries", 48, "query attempts per offered rate");
  args.add_double("budget-x", 20.0,
                  "per-query budget as a multiple of the median solve time");
  args.add_string("chaos", "off",
                  "fault-injection policy for the cancel phase "
                  "(off/uniform/steal-storm/alloc-pressure/termination-fuzz)");
  args.add_string("out", "BENCH_qps.json", "machine-readable report path");
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int solvers = std::max(1, static_cast<int>(args.get_int("solvers")));
  const std::size_t queue_cap =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("queue")));
  const int queries =
      static_cast<int>(std::max<std::int64_t>(4, args.get_int("queries")));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::string chaos_name = args.get_string("chaos");

  const auto cls = bench::selected_classes(args).front();
  const auto w = suite::make(cls, args.get_double("scale"), seed);
  const std::string graph_abbr = suite::abbr(cls);

  // Seeded source pool inside the largest component (as tput_queries).
  std::vector<VertexId> pool;
  for (int i = 0; i < 8; ++i)
    pool.push_back(pick_source_in_largest_component(w.graph, seed + 7919u * i));

  service::ServiceConfig base;
  base.solver.threads = threads;
  base.solver.algo = Algorithm::kWasp;
  base.solver.delta = bench::default_delta(Algorithm::kWasp, cls);
  base.num_solvers = solvers;
  base.queue_capacity = queue_cap;
  base.seed = seed;

  // Baseline: median uncontended solve time, measured through a throwaway
  // single-solver service so the path under test is the one being timed.
  double median_solve_s;
  {
    service::ServiceConfig probe = base;
    probe.num_solvers = 1;
    service::QueryService svc(probe);
    std::vector<double> times;
    for (int q = 0; q < 5; ++q) {
      const service::QueryResult r =
          svc.solve(w.graph, pool[static_cast<std::size_t>(q) % pool.size()]);
      if (r.outcome == service::Outcome::kServed)
        times.push_back(r.solve_ms / 1e3);
    }
    if (times.empty()) {
      std::fprintf(stderr, "qps_service: baseline queries did not serve\n");
      return 1;
    }
    median_solve_s = median(times);
  }
  const double capacity_qps =
      static_cast<double>(solvers) / std::max(median_solve_s, 1e-9);
  const std::chrono::nanoseconds budget(static_cast<std::int64_t>(
      args.get_double("budget-x") * median_solve_s * 1e9));

  std::printf("QueryService sweep: %s, %d solvers x %d threads, queue %zu, "
              "median solve %.2fms (capacity ~%.0f qps)\n\n",
              graph_abbr.c_str(), solvers, threads, queue_cap,
              median_solve_s * 1e3, capacity_qps);
  bench::print_cell("offered", 10);
  bench::print_cell("served", 8);
  bench::print_cell("stale", 7);
  bench::print_cell("shed", 6);
  bench::print_cell("rej", 6);
  bench::print_cell("expired", 9);
  bench::print_cell("qps", 10);
  bench::print_cell("p50", 10);
  bench::print_cell("p99", 10);
  std::printf("\n");

  // --- Rate sweep: open-loop arrivals at fractions of measured capacity ---
  const double multipliers[] = {0.5, 1.0, 2.0, 4.0};
  std::vector<RateRow> rows;
  double saturation_qps = 0.0;
  for (const double mult : multipliers) {
    RateRow row;
    row.offered_qps = capacity_qps * mult;
    service::QueryService svc(base);
    Xoshiro256 rng(hash_mix(seed ^ static_cast<std::uint64_t>(mult * 1024)));

    std::vector<std::shared_future<service::QueryResult>> futures;
    const Timer wall;
    auto next_arrival = CancelToken::Clock::now();
    for (int q = 0; q < queries; ++q) {
      std::this_thread::sleep_until(next_arrival);
      // Exponential inter-arrival at the offered rate (open loop: the
      // schedule never waits for completions).
      const double u = std::max(rng.next_double(), 1e-12);
      next_arrival += std::chrono::nanoseconds(static_cast<std::int64_t>(
          -std::log(u) / row.offered_qps * 1e9));
      service::QueryOptions opt;
      const bool gold = rng.next_below(5) == 0;  // 20% gold / 80% free
      opt.tenant = gold ? "gold" : "free";
      opt.priority = gold ? 1 : 0;
      opt.allow_stale = !gold;
      opt.budget = budget;
      ++row.attempts;
      try {
        futures.push_back(svc.submit(
            w.graph, pool[rng.next_below(pool.size())], std::move(opt)));
        ++row.submitted;
      } catch (const ServiceOverloadedError&) {
        ++row.rejected;
      }
    }

    std::vector<double> served_latency_ms;
    for (const auto& f : futures) {
      const service::QueryResult& r = f.get();
      switch (r.outcome) {
        case service::Outcome::kServed:
          ++row.served;
          served_latency_ms.push_back(r.queue_ms + r.solve_ms);
          break;
        case service::Outcome::kServedStale: ++row.served_stale; break;
        case service::Outcome::kCancelled: ++row.cancelled; break;
        case service::Outcome::kDeadlineExpired: ++row.deadline_expired; break;
        case service::Outcome::kShed: ++row.shed; break;
        case service::Outcome::kFailed: ++row.failed; break;
      }
    }
    const double elapsed = wall.seconds();
    row.coalesced = svc.stats().totals.coalesced;
    svc.shutdown();
    row.served_qps =
        elapsed > 0 ? static_cast<double>(row.served) / elapsed : 0.0;
    row.p50_ms = percentile(served_latency_ms, 0.50);
    row.p90_ms = percentile(served_latency_ms, 0.90);
    row.p99_ms = percentile(served_latency_ms, 0.99);
    saturation_qps = std::max(saturation_qps, row.served_qps);
    rows.push_back(row);

    char cell[32];
    std::snprintf(cell, sizeof(cell), "%.0f", row.offered_qps);
    bench::print_cell(cell, 10);
    std::snprintf(cell, sizeof(cell), "%d", row.served);
    bench::print_cell(cell, 8);
    std::snprintf(cell, sizeof(cell), "%d", row.served_stale);
    bench::print_cell(cell, 7);
    std::snprintf(cell, sizeof(cell), "%d", row.shed);
    bench::print_cell(cell, 6);
    std::snprintf(cell, sizeof(cell), "%d", row.rejected);
    bench::print_cell(cell, 6);
    std::snprintf(cell, sizeof(cell), "%d", row.deadline_expired);
    bench::print_cell(cell, 9);
    std::snprintf(cell, sizeof(cell), "%.1f", row.served_qps);
    bench::print_cell(cell, 10);
    bench::print_cell(bench::format_time_ms(row.p50_ms / 1e3), 10);
    bench::print_cell(bench::format_time_ms(row.p99_ms / 1e3), 10);
    std::printf("\n");
    std::fflush(stdout);
  }

  // --- Cancellation latency: budgets deliberately below the solve time ---
  // A single-solver fleet (one chaos engine must not be shared by teams
  // running concurrently), sequential queries, each with ~35% of the median
  // solve time: every query should come back kDeadlineExpired, and the
  // overshoot — completion minus deadline — measures how quickly the
  // polling sites notice and unwind.
  CancelSummary cancel;
  {
    service::ServiceConfig cc = base;
    cc.num_solvers = 1;
    cc.max_retries = 0;
    std::unique_ptr<chaos::Engine> engine;
    if (chaos_name != "off") {
      engine = std::make_unique<chaos::Engine>(
          chaos_seed(seed), parse_policy(chaos_name), threads,
          /*record=*/false);
      cc.solver.chaos = engine.get();
    }
    cancel.budget_ms = std::max(median_solve_s * 0.35 * 1e3, 0.05);
    cancel.queries = 24;
    service::QueryService svc(cc);
    std::vector<double> overshoot_ms;
    for (int q = 0; q < cancel.queries; ++q) {
      service::QueryOptions opt;
      opt.budget = std::chrono::nanoseconds(
          static_cast<std::int64_t>(cancel.budget_ms * 1e6));
      const service::QueryResult r = svc.solve(
          w.graph, pool[static_cast<std::size_t>(q) % pool.size()],
          std::move(opt));
      if (r.outcome == service::Outcome::kDeadlineExpired) {
        ++cancel.expired;
        overshoot_ms.push_back(
            std::max(r.queue_ms + r.solve_ms - cancel.budget_ms, 0.0));
      } else if (r.outcome == service::Outcome::kServed) {
        ++cancel.served;  // tiny graphs can finish under any budget
      }
    }
    svc.shutdown();
    cancel.p50_overshoot_ms = percentile(overshoot_ms, 0.50);
    cancel.p99_overshoot_ms = percentile(overshoot_ms, 0.99);
  }

  std::printf("\ncancel phase: %d queries, budget %.2fms -> %d expired "
              "(%d served), overshoot p50 %.2fms p99 %.2fms\n",
              cancel.queries, cancel.budget_ms, cancel.expired, cancel.served,
              cancel.p50_overshoot_ms, cancel.p99_overshoot_ms);

  const std::string out_path = args.get_string("out");
  write_json(out_path, graph_abbr, threads, solvers, queue_cap, seed,
             chaos_name, rows, saturation_qps, cancel,
             std::chrono::duration<double, std::milli>(
                 base.watchdog_interval)
                 .count());
  std::printf("report written to %s\n", out_path.c_str());
  std::printf("Expectation: overdue queries cancelled within one polling "
              "interval; outcome counts sum to accepted attempts at every "
              "rate.\n");
  return 0;
}
