#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "support/cancel.hpp"
#include "support/chaos.hpp"
#include "support/errors.hpp"
#include "support/stats.hpp"

namespace wasp::bench {

namespace {

/// Liveness monitor the watchdog consults before declaring a trial hung: a
/// trial that keeps emitting rounds or progress callbacks is slow, not
/// wedged, and earns one budget extension. Steal callbacks are deliberately
/// not counted — a livelocked steal storm still fires those.
class ProgressMonitor final : public obs::RunObserver {
 public:
  explicit ProgressMonitor(obs::RunObserver* inner) : inner_(inner) {}

  void on_round(std::uint64_t round, std::size_t frontier_size) override {
    ticks_.fetch_add(1, std::memory_order_relaxed);
    if (inner_ != nullptr) inner_->on_round(round, frontier_size);
  }
  void on_steal(int thief, int victim, bool success) override {
    if (inner_ != nullptr) inner_->on_steal(thief, victim, success);
  }
  void on_termination(int tid) override {
    if (inner_ != nullptr) inner_->on_termination(tid);
  }
  void on_progress(int tid, std::uint64_t vertices_processed) override {
    ticks_.fetch_add(1, std::memory_order_relaxed);
    if (inner_ != nullptr) inner_->on_progress(tid, vertices_processed);
  }

  [[nodiscard]] std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  obs::RunObserver* inner_;
  std::atomic<std::uint64_t> ticks_{0};
};

/// Solvers handed out by make_solver(). Owning them here (instead of by
/// value in the bench binaries) keeps one construction per worker count for
/// the whole process — the amortization the Solver front-end exists for.
std::vector<std::unique_ptr<Solver>> g_solvers;  // NOLINT(cert-err58-cpp)

/// Runs one trial on a helper thread so the harness can interrupt it.
/// Returns true when the trial finished within `timeout_seconds` (result in
/// `out`; exceptions from Solver::solve rethrow here). A trial whose monitor
/// recorded observer ticks during the budget is making forward progress and
/// earns exactly one budget extension. On expiry the watchdog disables fault
/// injection process-wide -- the only supported livelock source -- and
/// grants one more timeout for the run to unwind; a run that still does not
/// return is cancelled through the trial's CancelToken, which every
/// algorithm polls, so the runner joins promptly and the Solver stays
/// reusable for the next trial (no thread is ever detached, nothing leaks).
bool run_with_watchdog(const Graph& g, VertexId source,
                       const SsspOptions& options, Solver& solver,
                       double timeout_seconds, const ProgressMonitor* monitor,
                       SsspResult& out) {
  solver.options() = options;
  if (timeout_seconds <= 0) {
    out = solver.solve(g, source);
    return true;
  }
  CancelToken token;
  solver.options().cancel = &token;
  std::packaged_task<SsspResult()> task(
      [&solver, &g, source] { return solver.solve(g, source); });
  std::future<SsspResult> future = task.get_future();
  std::thread runner(std::move(task));
  const auto finish = [&](bool completed) {
    runner.join();
    solver.options().cancel = nullptr;
    if (!completed) {
      // Cancelled run: consume the typed failure so the shared state is
      // drained; the epoch bump already discarded the partial distances.
      try {
        future.get();
      } catch (const SolveCancelledError&) {
      }
      return false;
    }
    out = future.get();
    return true;
  };
  const auto budget = std::chrono::duration<double>(timeout_seconds);
  std::uint64_t ticks_before = monitor != nullptr ? monitor->ticks() : 0;
  if (future.wait_for(budget) == std::future_status::ready) return finish(true);
  if (monitor != nullptr && monitor->ticks() != ticks_before) {
    // Rounds/progress advanced during the budget: slow, not hung.
    if (future.wait_for(budget) == std::future_status::ready)
      return finish(true);
  }
  // Timed out. Pull the injection kill switch: chaos-induced livelocks (e.g.
  // steal-storm policies at unlucky rates) clear within microseconds once
  // every WASP_CHAOS_FAIL starts answering false.
  chaos::disable_all();
  const bool recovered =
      future.wait_for(budget) == std::future_status::ready;
  if (recovered) {
    chaos::enable_all();
    (void)finish(true);  // counted as a trip by the caller despite recovering
    return false;
  }
  // Still wedged: cancel cooperatively. The polling sites notice within one
  // interval and the run unwinds through its own termination protocol.
  token.request_cancel(CancelReason::kWatchdog);
  const bool gone = finish(false);
  chaos::enable_all();
  return gone;  // always false: the trial produced no result
}

}  // namespace

Measurement measure(const Graph& g, VertexId source, const SsspOptions& options,
                    int trials, Solver& solver, double watchdog_seconds) {
  Measurement m;
  std::vector<double> times;
  m.best_seconds = 1e100;
  SsspOptions opts = options;
  ProgressMonitor monitor(options.observer);
  opts.observer = &monitor;
  // Keep the NUMA topology the solver resolved at construction: bench
  // configs usually carry none, and per-trial re-detection is exactly the
  // cost the Solver front-end amortizes away.
  if (!opts.wasp.topology) opts.wasp.topology = solver.options().wasp.topology;
  for (int t = 0; t < std::max(trials, 1); ++t) {
    SsspResult r;
    if (!run_with_watchdog(g, source, opts, solver, watchdog_seconds,
                           &monitor, r)) {
      ++m.watchdog_trips;
      // The trial tripped (recovered-after-kill-switch or cancelled): the
      // configuration is most plausibly a chaos-induced livelock, so retry
      // the remaining trials injection-free (once per measurement) instead
      // of failing the row. The solver itself is fine either way — a
      // cancelled run unwound cooperatively and the team is idle again.
      if (!m.chaos_retried && opts.chaos != nullptr) {
        m.chaos_retried = true;
        opts.chaos = nullptr;
        --t;  // the tripped trial does not count
        continue;
      }
      m.failure = "watchdog-timeout";
      break;
    }
    times.push_back(r.stats.seconds);
    if (r.stats.seconds < m.best_seconds) {
      m.best_seconds = r.stats.seconds;
      m.stats = r.stats;
      m.metrics = std::move(r.metrics);
    }
  }
  if (times.empty()) {
    if (m.failure.empty()) m.failure = "watchdog-timeout";
    m.best_seconds = std::numeric_limits<double>::quiet_NaN();
    m.median_seconds = m.best_seconds;
    return m;
  }
  m.median_seconds = median(times);
  return m;
}

Solver& make_solver(int threads) {
  SsspOptions options;
  options.threads = threads;
  g_solvers.push_back(std::make_unique<Solver>(std::move(options)));
  return *g_solvers.back();
}

std::vector<Weight> delta_candidates(const Graph& g) {
  const Weight max_w = std::max<Weight>(g.max_weight(), 1);
  // Up to ~64x the max weight: beyond that every bucket-based algorithm has
  // effectively collapsed to Bellman-Ford on our workload sizes.
  const std::uint64_t cap = static_cast<std::uint64_t>(max_w) * 64;
  std::vector<Weight> candidates;
  for (std::uint64_t d = 1; d <= cap; d *= 4)
    candidates.push_back(static_cast<Weight>(d));
  return candidates;
}

Weight tune_delta(const Graph& g, VertexId source, SsspOptions options,
                  const std::vector<Weight>& candidates, int trials,
                  Solver& solver) {
  std::vector<Weight> cands = candidates.empty() ? delta_candidates(g) : candidates;
  // Sweep from coarse to fine and stop once a candidate is far past the
  // optimum: run time grows steeply (extra rounds + barriers) as delta
  // shrinks below the sweet spot, so candidates after a 4x regression can
  // only lose. This keeps road-graph sweeps from spending minutes in the
  // pathological delta=1 corner of the synchronous baselines.
  std::sort(cands.begin(), cands.end(), std::greater<>());
  Weight best_delta = cands.front();
  double best_time = 1e100;
  for (const Weight d : cands) {
    options.delta = d;
    const Measurement m = measure(g, source, options, trials, solver);
    if (m.best_seconds < best_time) {
      best_time = m.best_seconds;
      best_delta = d;
    } else if (m.best_seconds > 4.0 * best_time) {
      break;
    }
  }
  return best_delta;
}

bool is_low_degree_class(suite::GraphClass cls) {
  using GC = suite::GraphClass;
  switch (cls) {
    case GC::kRoadEu:
    case GC::kRoadUsa:
    case GC::kKmer:
    case GC::kDelaunay:
    case GC::kKktPower:
    case GC::kNlpKkt:
    case GC::kSpielman:
    case GC::kCircuit:
      return true;
    default:
      return false;
  }
}

Weight default_delta(Algorithm algo, suite::GraphClass cls) {
  const bool low_degree = is_low_degree_class(cls);
  switch (algo) {
    case Algorithm::kWasp:
      // Figure 4: Wasp prefers delta=1 on 9 of 13 graphs; only the
      // low-degree classes (and Moliere) want coarsening.
      return low_degree ? 1024 : 1;
    case Algorithm::kMqDijkstra:
    case Algorithm::kDijkstra:
    case Algorithm::kBellmanFord:
      return 1;  // delta-free algorithms
    case Algorithm::kObim:
      return low_degree ? 4096 : 16;
    default:
      // Synchronous steppers need coarse buckets everywhere, coarser still
      // on road-like graphs.
      return low_degree ? 8192 : 64;
  }
}

void add_common_args(ArgParser& args) {
  args.add_double("scale", 0.5, "workload scale factor (vertex multiplier)");
  // Default to 8 workers on machines that can run them in parallel, 4 on
  // smaller boxes (oversubscription still exercises every code path but
  // slows the sweeps down).
  const int default_threads = hardware_threads() >= 8 ? 8 : 4;
  args.add_int("threads", default_threads, "worker threads");
  args.add_int("trials", 2, "trials per configuration (best kept)");
  args.add_string("graphs", "", "comma-separated class abbreviations");
  args.add_string("csv", "", "append machine-readable rows to this CSV file");
  args.add_flag("full", "use the full 13-class suite (default: core suite)");
  args.add_flag("tune", "tune delta per configuration (SLOW workflow)");
  args.add_int("seed", 1, "workload seed");
  args.add_double("watchdog-sec", kDefaultWatchdogSeconds,
                  "per-trial watchdog timeout in seconds (<=0 disables)");
  args.add_string("trace", "",
                  "write a Chrome trace_event JSON of the last run here");
}

std::vector<suite::GraphClass> selected_classes(const ArgParser& args) {
  const std::string csv = args.get_string("graphs");
  if (!csv.empty()) {
    std::vector<suite::GraphClass> classes;
    std::stringstream ss(csv);
    std::string token;
    while (std::getline(ss, token, ','))
      if (!token.empty()) classes.push_back(suite::parse_abbr(token));
    return classes;
  }
  return args.get_flag("full") ? suite::main_suite() : suite::core_suite();
}

std::vector<Algorithm> figure5_algorithms() {
  return {Algorithm::kDeltaStar, Algorithm::kObim,      Algorithm::kDeltaStepping,
          Algorithm::kJulienne,  Algorithm::kMqDijkstra, Algorithm::kRhoStepping,
          Algorithm::kWasp};
}

void print_cell(const std::string& text, int width) {
  std::printf("%-*s", width, text.c_str());
}

std::string format_time_ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  return buf;
}

std::string format_speedup(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", x);
  return buf;
}

}  // namespace wasp::bench
