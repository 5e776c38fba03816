// wasp_perfbench — the repository benchmark's workloads (see README.md).
//
//   wasp_perfbench --workload road|social --seed N --seconds S --trace 0|1
//                  [--out DIR] [--source-id ID]
//
// Each workload builds one graph class from the seed, then runs two phases
// through the public front doors only:
//   1. solve:   one wasp::Solver with nproc/2 threads answers sources from a
//               seeded pool back to back (closed loop, one caller);
//   2. service: a service::QueryService (2 solvers) over a VersionedGraph of
//               a smaller graph of the same class answers a closed loop of
//               one query at a time, then a seeded open-loop Poisson stream
//               at a frozen ladder of absolute rates around its measured
//               capacity, while a second client thread applies seeded
//               update() batches at a fixed period.
// Every solve-phase answer is compared bit for bit with Dijkstra, and a
// fixed seeded sample of service answers with Dijkstra at the graph version
// the answer is stamped with. The last stdout line is the result object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/delta.hpp"
#include "graph/suite.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "spans.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "stats.hpp"
#include "support/errors.hpp"
#include "support/random.hpp"

namespace pb = perfbench;
using namespace wasp;
using CId = obs::CounterId;
using pb::Clock;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions. Rates, limits and periods are absolute and frozen
// here; nothing is derived from a capacity probe at run time.

/// Rungs of the service's rate ladder. Rung 0 is the low rung of
/// lat_*.low, at a light load; rung 1 is the high rung of lat_*.high. The rungs from 1 up are about 10% apart
/// around the capacity measured at the commit that froze them (README.md),
/// so slo_qps resolves a change of about that size.
constexpr int kRungs = 5;

struct WorkloadSpec {
  const char* name;
  suite::GraphClass cls;
  double solve_scale;    ///< suite scale of the solve-phase graph
  Weight delta;          ///< Wasp bucket width for this class
  /// Suite scale of the service graph: large enough that a query's solve,
  /// not the thread wake-ups around it, makes most of its latency.
  double service_scale;
  int setup_reps;        ///< set-ups per run; setup_s is their median
  /// Offered queries per second of each rung: 0.3, 0.85, 0.95, 1.05 and
  /// 1.15 times the capacity measured for this workload (README.md).
  double rates[kRungs];
};

constexpr WorkloadSpec kWorkloads[] = {
    // Capacity 220/s.
    {"road", suite::GraphClass::kRoadUsa, 4.0, 1024, 0.25, 9,
     {66, 187, 209, 231, 253}},
    // Capacity 315/s.
    {"social", suite::GraphClass::kTwitter, 4.0, 1, 0.5, 3,
     {95, 268, 299, 331, 362}},
};

/// A run is kRounds rounds of a solve chunk, a closed-loop query chunk and
/// a low-rung visit, then one climb of rungs 1.. that stops after the
/// first rung failing the limit. Interleaving spreads the gated phases over
/// the run, so a stretch of heavy host load does not land on one of them
/// only.
constexpr int kRounds = 3;
constexpr double kSolveShare = 0.3;  ///< share of --seconds spent solving
constexpr double kQueryShare = 0.2;  ///< share in the closed query loop
constexpr double kLowShare = 0.12;   ///< share of --seconds at the low rung
/// Unrecorded arrivals at the low rate before the first round's queries,
/// so the service does not start cold.
constexpr double kWarmupSeconds = 1.0;
/// Attempt::rung of the warm-up and of the closed query loop.
constexpr int kWarmup = -1;
constexpr int kClosedLoop = -2;
constexpr double kLimitMs = 100.0;  ///< p99 latency limit of slo_qps
constexpr std::size_t kSolvePool = 64;  ///< distinct solve-phase sources
constexpr std::size_t kMinSolves = 100; ///< p90 needs >= 100 samples
constexpr std::size_t kServicePool = 8192;
constexpr double kZipfS = 0.7;
constexpr double kGoldShare = 0.3;
constexpr double kGoldBudgetMs = kLimitMs;
constexpr double kUpdatePeriodMs = 500.0;
/// Stale-answer cache size. update() re-solves every cached answer while
/// its gate holds all queries, so this sets how long each update stalls.
constexpr std::size_t kStaleCacheEntries = 4;
constexpr int kJamsPerBatch = 8;
constexpr std::size_t kMinRungArrivals = 1000;  ///< p99 needs >= 1000
constexpr std::size_t kOracleEvery = 8;  ///< service answers checked: 1 in 8
constexpr std::uint64_t kServiceSeedSalt = 0x5E21CEULL;

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 50.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string source_id = "unknown";
  std::vector<double> rates;  ///< --rates: a calibration ladder (README.md)
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wasp_perfbench: %s\nusage: wasp_perfbench --workload "
               "road|social --seed N --seconds S --trace 0|1 [--out DIR] "
               "[--source-id ID] [--rates R1,R2,...]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = v == "1";
      else if (k == "--out") a.out_dir = v;
      else if (k == "--source-id") a.source_id = v;
      else if (k == "--rates") {
        for (std::size_t at = 0; at < v.size();) {
          std::size_t used = 0;
          a.rates.push_back(std::stod(v.substr(at), &used));
          at += used + 1;  // skip the comma
        }
      } else usage(("unknown flag " + k).c_str());
    } catch (const std::logic_error&) {  // from std::stod and std::stoull
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.seconds <= 0.0) usage("--seconds must be > 0");
  if (!a.rates.empty() &&
      (a.rates.size() < 2 || *std::min_element(a.rates.begin(), a.rates.end()) <= 0.0 ||
       !std::is_sorted(a.rates.begin(), a.rates.end())))
    usage("--rates needs at least two increasing rates > 0");
  return a;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(const std::vector<double>& v) { return pb::percentile(v, 50); }

/// Highest resident set size seen by sample() calls, read from
/// /proc/self/statm at most every 10 ms. Sampling only inside the measured
/// phases keeps the set-up repetitions and the oracle out of the figure.
class RssSampler {
 public:
  void sample() {
    const auto now = Clock::now();
    if (now - last_ < std::chrono::milliseconds(10)) return;
    last_ = now;
    std::ifstream in("/proc/self/statm");
    double size = 0.0, resident = 0.0;
    if (in >> size >> resident)
      peak_mb_ = std::max(peak_mb_, resident * page_mb_);
  }
  [[nodiscard]] double peak_mb() const { return peak_mb_; }

 private:
  Clock::time_point last_{};
  double peak_mb_ = 0.0;
  double page_mb_ = static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
};

/// Jiffies the hypervisor took from this machine's CPUs ("steal") and all
/// jiffies, from /proc/stat; their ratio over a run says how much of the
/// run the host ran something else.
std::pair<double, double> cpu_steal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {}, total = 0.0;
  in >> cpu;
  for (double& x : v) {
    in >> x;
    total += x;
  }
  return {v[7], total};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Threads of the solve-phase Solver: half the CPUs. ThreadTeam pins its
/// workers one per CPU, so a team as wide as the machine shares every CPU
/// with whatever else the host runs, and its solve time followed that load
/// from run to run; a half-width team leaves CPUs to the rest (README.md).
int solve_threads() { return std::max(1, nproc() / 2); }

/// Threads per service solver. One: a multi-thread Wasp team spins while a
/// partner thread's CPU is taken by the host, which made service latency
/// follow the host's steal time from run to run (README.md).
int service_threads() { return 1; }

/// `count` distinct vertices drawn uniformly from the largest (weakly)
/// connected component.
std::vector<VertexId> source_pool(const Graph& g, std::size_t count,
                                  std::uint64_t seed) {
  const ComponentInfo cc = connected_components(g);
  std::vector<VertexId> members;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (cc.label[v] == cc.largest) members.push_back(v);
  Xoshiro256 rng(seed);
  count = std::min(count, members.size());
  for (std::size_t i = 0; i < count; ++i)  // partial Fisher-Yates
    std::swap(members[i], members[i + rng.next_below(members.size() - i)]);
  members.resize(count);
  return members;
}

/// Digest of the Dijkstra distances from each source, computed on up to
/// nproc threads.
std::map<VertexId, std::uint64_t> oracle(const Graph& g,
                                         const std::vector<VertexId>& sources) {
  std::vector<std::uint64_t> out(sources.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < nproc(); ++t)
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < sources.size();)
        out[i] = pb::digest(dijkstra(g, sources[i]).dist);
    });
  for (std::thread& t : pool) t.join();
  std::map<VertexId, std::uint64_t> m;
  for (std::size_t i = 0; i < sources.size(); ++i) m.emplace(sources[i], out[i]);
  return m;
}

/// An answer kept for the oracle: its source, the graph version it is
/// stamped with (0 for the solve phase), and its digest.
struct Answer {
  std::uint64_t version;
  VertexId source;
  std::uint64_t digest;
};

/// Wrong answers among `answers`, checked against Dijkstra on `g`.
std::size_t count_wrong(const Graph& g, const std::vector<Answer>& answers) {
  std::vector<VertexId> sources;
  for (const Answer& a : answers) sources.push_back(a.source);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  const auto want = oracle(g, sources);
  std::size_t wrong = 0;
  for (const Answer& a : answers) wrong += want.at(a.source) != a.digest;
  return wrong;
}

// ---------------------------------------------------------------------------
// Seeded update batches: weight jams and clearings plus one insert and one
// erase of an earlier insert, so every batch compacts the overlay. They are
// generated against a replica before the timed region; the oracle replays
// them to rebuild the graph at any version.

std::vector<GraphDelta> make_batches(const Graph& base,
                                     const std::vector<VertexId>& verts,
                                     std::size_t count, std::uint64_t seed) {
  VersionedGraph ref{Graph(base)};
  Xoshiro256 rng(seed);
  struct Jam {
    VertexId u, v;
    Weight w;
  };
  std::vector<Jam> jams;
  std::set<std::pair<VertexId, VertexId>> jammed, inserted;
  std::vector<std::pair<VertexId, VertexId>> inserts;
  const auto key = [&](VertexId u, VertexId v) {
    if (ref.is_undirected() && v < u) std::swap(u, v);
    return std::pair<VertexId, VertexId>{u, v};
  };
  const auto has_arc = [&](VertexId u, VertexId v) {
    for (const WEdge& e : ref.out_neighbors(u))
      if (e.dst == v) return true;
    return false;
  };
  std::vector<GraphDelta> batches(count);
  for (GraphDelta& b : batches) {
    for (int j = 0; j < kJamsPerBatch; ++j) {
      if (!jams.empty() && rng.next_below(2) == 0) {  // clear a jam
        const std::size_t k = rng.next_below(jams.size());
        b.set_weight(jams[k].u, jams[k].v, jams[k].w);
        jammed.erase(key(jams[k].u, jams[k].v));
        jams[k] = jams.back();
        jams.pop_back();
        continue;
      }
      const VertexId u = verts[rng.next_below(verts.size())];
      const auto nbrs = ref.out_neighbors(u);
      if (nbrs.empty()) continue;
      const WEdge e = nbrs[rng.next_below(nbrs.size())];
      if (jammed.count(key(u, e.dst)) || inserted.count(key(u, e.dst)))
        continue;
      jams.push_back({u, e.dst, e.w});
      jammed.insert(key(u, e.dst));
      b.set_weight(u, e.dst, std::min<Weight>(e.w * 8, Weight{1} << 20));
    }
    const VertexId u = verts[rng.next_below(verts.size())];
    const VertexId v = verts[rng.next_below(verts.size())];
    if (u != v && !has_arc(u, v) && !has_arc(v, u) &&
        !inserted.count(key(u, v))) {
      b.insert(u, v, static_cast<Weight>(1 + rng.next_below(255)));
      inserted.insert(key(u, v));
      inserts.emplace_back(u, v);
    }
    if (inserts.size() > 1) {  // erase an insert from an earlier batch
      const std::size_t k = rng.next_below(inserts.size() - 1);
      b.erase(inserts[k].first, inserts[k].second);
      inserted.erase(key(inserts[k].first, inserts[k].second));
      inserts[k] = inserts.back();
      inserts.pop_back();
    }
    ref.apply(b);
  }
  return batches;
}

// ---------------------------------------------------------------------------

/// Everything set-up builds. Members are destroyed in reverse order, so the
/// service stops before the graph it serves goes away.
struct Rig {
  Graph graph;
  VertexId first_source = 0;
  std::unique_ptr<Solver> solver;
  Graph service_base;
  std::unique_ptr<VersionedGraph> vg;
  std::unique_ptr<service::QueryService> svc;
};

struct SetupTimes {
  std::vector<double> setup_s, build_s, spawn_ms, first_solve_ms;
};

SsspOptions solver_options(const WorkloadSpec& w, int threads) {
  SsspOptions opt;
  opt.algo = Algorithm::kWasp;
  opt.threads = threads;
  opt.delta = w.delta;
  return opt;
}

/// One set-up: graph generation, Solver and QueryService construction, and
/// a warm-up solve on each. Oracle and input generation are not included.
std::unique_ptr<Rig> setup(const WorkloadSpec& w, std::uint64_t seed,
                           SetupTimes& times, pb::SpanRecorder& spans) {
  auto rig = std::make_unique<Rig>();
  const auto t0 = Clock::now();
  suite::Workload solve_w = suite::make(w.cls, w.solve_scale, seed);
  const auto t1 = Clock::now();
  suite::Workload svc_w =
      suite::make(w.cls, w.service_scale, seed ^ kServiceSeedSalt);
  const auto t2 = Clock::now();
  spans.add("graph.build", pb::to_ns(t0), pb::to_ns(t1));
  spans.add("graph.build", pb::to_ns(t1), pb::to_ns(t2));
  rig->graph = std::move(solve_w.graph);
  rig->first_source = solve_w.source;

  const auto t3 = Clock::now();
  rig->solver = std::make_unique<Solver>(solver_options(w, solve_threads()));
  const auto t4 = Clock::now();
  (void)rig->solver->solve(rig->graph, rig->first_source);
  const auto t5 = Clock::now();

  rig->service_base = svc_w.graph;
  rig->vg = std::make_unique<VersionedGraph>(std::move(svc_w.graph));
  service::ServiceConfig cfg;
  cfg.solver = solver_options(w, service_threads());
  cfg.num_solvers = 2;
  cfg.stale_cache_entries = kStaleCacheEntries;
  cfg.seed = seed;
  const auto t6 = Clock::now();
  rig->svc = std::make_unique<service::QueryService>(std::move(cfg));
  const auto t7 = Clock::now();
  (void)rig->svc->solve(*rig->vg, {.source = svc_w.source});
  const auto t8 = Clock::now();

  times.setup_s.push_back(std::chrono::duration<double>(t8 - t0).count());
  times.build_s.push_back(std::chrono::duration<double>(t2 - t0).count());
  times.spawn_ms.push_back(ms_between(t3, t4) + ms_between(t6, t7));
  times.first_solve_ms.push_back(ms_between(t4, t5));
  return rig;
}

// ---------------------------------------------------------------------------
// Phase 1: closed-loop solves.

struct SolvePhase {
  std::vector<double> wall_ms;      ///< untraced solves (end-to-end)
  std::vector<double> traced_ms;    ///< traced solves (trace run only)
  std::vector<double> overhead_ms;  ///< wall minus MetricsSnapshot::seconds
  std::vector<double> parallel_ms;
  double sweeps = 0, advances = 0, scans = 0, idle_ns = 0, steal_ns = 0,
         thread_ns = 0, relax = 0, updates = 0, stale = 0, prefetch = 0,
         steals = 0, attempts = 0, chunks = 0;
  std::size_t solves = 0;
  std::vector<Answer> answers;
};

void run_solves(Rig& rig, const std::vector<VertexId>& pool, double seconds,
                std::size_t min_total, Xoshiro256& rng,
                pb::SpanRecorder& spans, RssSampler& rss, SolvePhase& out) {
  std::vector<VertexId> order = pool;
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::size_t i = 0;
       Clock::now() < end || out.wall_ms.size() < min_total; ++i) {
    if (i % order.size() == 0)  // a fresh seeded permutation per cycle
      for (std::size_t k = order.size(); k > 1; --k)
        std::swap(order[k - 1], order[rng.next_below(k)]);
    const VertexId src = order[i % order.size()];
    // In the traced run every other solve records spans; the untraced
    // ones beside them give trace.overhead_share.
    const bool traced = spans.enabled() && i % 2 == 1;
    const auto t0 = Clock::now();
    SsspResult r = rig.solver->solve(rig.graph, src);
    const auto t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    rss.sample();
    if (traced) {
      const std::uint64_t id =
          spans.add("sssp.solver.solve", pb::to_ns(t0), pb::to_ns(t1));
      spans.add("sssp.wasp.parallel", pb::to_ns(t0),
                pb::to_ns(t0) +
                    static_cast<std::int64_t>(r.metrics.seconds * 1e9),
                id, 0, true);
      out.traced_ms.push_back(ms);
    } else {
      out.wall_ms.push_back(ms);
    }
    const obs::MetricsSnapshot& m = r.metrics;
    out.overhead_ms.push_back(ms - m.seconds * 1e3);
    out.parallel_ms.push_back(m.seconds * 1e3);
    out.sweeps += static_cast<double>(m.counter(CId::kEpochSweeps));
    out.advances += static_cast<double>(m.counter(CId::kBucketAdvances));
    out.scans += static_cast<double>(m.counter(CId::kTerminationScans));
    out.idle_ns += static_cast<double>(m.counter(CId::kIdleNs));
    out.steal_ns += static_cast<double>(m.counter(CId::kStealNs));
    out.thread_ns += m.seconds * 1e9 * m.threads;
    out.relax += static_cast<double>(m.counter(CId::kRelaxations));
    out.updates += static_cast<double>(m.counter(CId::kUpdates));
    out.stale += static_cast<double>(m.counter(CId::kStaleSkips));
    out.prefetch += static_cast<double>(m.counter(CId::kPrefetchIssued));
    out.steals += static_cast<double>(m.counter(CId::kSteals));
    out.attempts += static_cast<double>(m.counter(CId::kStealAttempts));
    out.chunks += static_cast<double>(m.counter(CId::kChunkAllocs));
    ++out.solves;
    out.answers.push_back({0, src, pb::digest(r.dist)});
  }
}

/// p50 wall time of one solve of each source with a fresh `threads` Solver.
double solo_p50(const WorkloadSpec& w, int threads, const Graph& g,
                const std::vector<VertexId>& sources) {
  Solver solver(solver_options(w, threads));
  (void)solver.solve(g, sources.front());
  std::vector<double> ms;
  for (VertexId s : sources) {
    const auto t0 = Clock::now();
    (void)solver.solve(g, s);
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

// ---------------------------------------------------------------------------
// Phase 2: the service client.

struct Attempt {
  int rung = 0;              ///< a ladder rung, kWarmup or kClosedLoop
  double lat_ms = pb::kInf;  ///< due -> observed ready; +inf when unserved
  double lag_ms = 0;         ///< send - due
  double submit_us = 0;
  double queue_ms = 0, solve_ms = 0;
  bool served = false, stale = false, unserved = false, error = false;
  std::int64_t sent_ns = 0, done_ns = 0;
};

/// One stretch of queries: arrivals at one rung's rate, or the closed loop.
struct Visit {
  int rung = 0;
  double seconds = 0;          ///< arrival window
  std::vector<double> backlog; ///< queries outstanding, sampled at each send
  std::vector<double> lat_ms;  ///< its attempts' latencies, after the drain
  bool passes = false;         ///< meets the limit with a steady backlog
  double goodput = 0;          ///< answers within the limit per second
};

struct ServicePhase {
  std::vector<Attempt> attempts;
  std::vector<Visit> visits;
  std::vector<double> update_ms;
  std::vector<std::pair<std::int64_t, std::int64_t>> update_spans;
  std::vector<Answer> samples;
  std::size_t updates = 0, update_errors = 0;
  double backlog_max = 0;
};

/// The service client: one thread sends queries, in a closed loop or as a
/// rung's Poisson arrivals, and observes readiness by polling every
/// outstanding future (every 100 us while it waits for the next due time),
/// while an updater thread applies one update() batch per kUpdatePeriodMs
/// for as long as the visit runs.
class ServiceClient {
 public:
  ServiceClient(Rig& rig, const std::vector<VertexId>& pool,
                const std::vector<GraphDelta>& batches, std::uint64_t seed,
                pb::SpanRecorder& spans, RssSampler& rss, ServicePhase& out)
      : svc_(*rig.svc), vg_(*rig.vg), pool_(pool), zipf_(pool.size(), kZipfS),
        batches_(batches), rng_(seed), spans_(spans), rss_(rss), out_(out) {}
  ~ServiceClient() {
    if (updater_.joinable()) stop_updater();
  }
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Sends `count` arrivals at `rate` per second, waits until every query
  /// has resolved, judges the visit against the limit and returns its
  /// index in out.visits. The updater runs from the first send to the end
  /// of the drain.
  std::size_t run_rung(int rung, double rate, std::size_t count) {
    Visit& v = begin_visit(rung);
    const std::vector<double> due_s = pb::poisson_arrivals(rate, count, rng_);
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < count; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due_s[i]));
      rss_.sample();
      while (Clock::now() < due) {
        poll(false);
        const auto left = due - Clock::now();
        if (left > std::chrono::microseconds(100))
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        else if (left > Clock::duration::zero())
          std::this_thread::sleep_until(due);
      }
      send(rung, due);
    }
    v.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    while (!inflight_.empty()) poll(true);
    end_visit(v);
    // Only the climb's rungs are judged.
    if (rung > 0) {
      v.passes = pb::rung_meets_slo(v.lat_ms, v.backlog, kLimitMs);
      v.goodput = static_cast<double>(std::count_if(
                      v.lat_ms.begin(), v.lat_ms.end(),
                      [](double x) { return x <= kLimitMs; })) /
                  v.seconds;
    }
    return out_.visits.size() - 1;
  }

  /// Closed loop for `seconds`: one query at a time, each due when the one
  /// before it resolves, with the updater running beside it. Readiness is
  /// observed by waiting on the query's future.
  void run_closed(double seconds) {
    Visit& v = begin_visit(kClosedLoop);
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      rss_.sample();
      send(kClosedLoop, Clock::now());
      while (!inflight_.empty()) poll(true);
    }
    v.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    end_visit(v);
  }

 private:
  struct InFlight {
    std::size_t idx;
    Clock::time_point due;
    std::shared_future<service::QueryResult> fut;
    std::uint64_t submit_span;
    std::int64_t submit_end_ns;
    VertexId source;
    bool sample;
  };

  /// Opens a visit and starts the updater. Memory freed before the visit
  /// goes back to the system first, so peak_rss_mb follows what the visit
  /// holds and not how the allocator kept the pages of earlier ones.
  Visit& begin_visit(int rung) {
    malloc_trim(0);
    out_.visits.push_back({});
    out_.visits.back().rung = rung;
    first_ = out_.attempts.size();
    stop_ = false;
    updater_ = std::thread([this] { update_loop(); });
    return out_.visits.back();
  }

  /// Stops the updater and collects the visit's latencies.
  void end_visit(Visit& v) {
    stop_updater();
    for (std::size_t i = first_; i < out_.attempts.size(); ++i)
      v.lat_ms.push_back(out_.attempts[i].lat_ms);
  }

  void stop_updater() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    updater_.join();
  }

  void update_loop() {
    auto next = Clock::now();
    while (next_batch_ < batches_.size()) {
      next += std::chrono::microseconds(
          static_cast<std::int64_t>(kUpdatePeriodMs * 1e3));
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, next, [this] { return stop_; })) return;
      }
      const auto t0 = Clock::now();
      try {
        svc_.update(vg_, batches_[next_batch_++]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "update %zu failed: %s\n", next_batch_ - 1,
                     e.what());
        std::lock_guard<std::mutex> lock(mu_);
        ++out_.update_errors;
        return;
      }
      const auto t1 = Clock::now();
      std::lock_guard<std::mutex> lock(mu_);
      out_.update_ms.push_back(ms_between(t0, t1));
      out_.update_spans.emplace_back(pb::to_ns(t0), pb::to_ns(t1));
      spans_.add("service.update", pb::to_ns(t0), pb::to_ns(t1));
      ++out_.updates;
    }
  }

  void send(int rung, Clock::time_point due) {
    const bool gold = rng_.next_double() < kGoldShare;
    service::QueryRequest req;
    req.source = pool_[zipf_(rng_)];
    req.tenant = gold ? "gold" : "free";
    req.priority = gold ? 1 : 0;
    req.allow_stale = !gold;
    if (gold)
      req.budget = std::chrono::microseconds(
          static_cast<std::int64_t>(kGoldBudgetMs * 1e3));
    const std::size_t idx = out_.attempts.size();
    out_.attempts.push_back({});
    Attempt& a = out_.attempts.back();
    a.rung = rung;
    const auto s0 = Clock::now();
    a.sent_ns = pb::to_ns(s0);
    a.lag_ms = ms_between(due, s0);
    std::shared_future<service::QueryResult> fut;
    try {
      fut = svc_.submit(vg_, req);
    } catch (const ServiceOverloadedError&) {
      a.unserved = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "submit failed: %s\n", e.what());
      a.error = true;
    }
    const auto s1 = Clock::now();
    a.submit_us = ms_between(s0, s1) * 1e3;
    if (fut.valid()) {
      std::uint64_t span = 0;
      if (spans_.enabled()) {
        std::lock_guard<std::mutex> lock(mu_);
        span = spans_.add("service.submit", pb::to_ns(s0), pb::to_ns(s1));
      }
      inflight_.push_back({idx, due, std::move(fut), span, pb::to_ns(s1),
                           req.source, idx % kOracleEvery == 0});
    } else {
      a.done_ns = pb::to_ns(s1);
    }
    out_.visits.back().backlog.push_back(
        static_cast<double>(inflight_.size()));
    out_.backlog_max =
        std::max(out_.backlog_max, static_cast<double>(inflight_.size()));
  }

  /// Records every resolved query; with `block`, first waits up to 100 us
  /// on the first outstanding one (once per pass, ready or not), so a pass
  /// observes readiness at most 100 us late.
  void poll(bool block) {
    for (std::size_t i = 0; i < inflight_.size();) {
      InFlight& f = inflight_[i];
      const auto status = f.fut.wait_for(block ? std::chrono::microseconds(100)
                                               : std::chrono::microseconds(0));
      block = false;
      if (status != std::future_status::ready) {
        ++i;
        continue;
      }
      record(f, Clock::now());
      inflight_[i] = std::move(inflight_.back());
      inflight_.pop_back();
    }
  }

  void record(const InFlight& f, Clock::time_point now) {
    const service::QueryResult& r = f.fut.get();
    Attempt& a = out_.attempts[f.idx];
    a.done_ns = pb::to_ns(now);
    a.queue_ms = r.queue_ms;
    a.solve_ms = r.solve_ms;
    if (r.ok()) {
      a.lat_ms = ms_between(f.due, now);
      a.served = r.outcome == service::Outcome::kServed;
      a.stale = !a.served;
      if (f.sample)
        out_.samples.push_back({r.graph_version, f.source, pb::digest(r.dist)});
    } else {
      a.unserved = r.outcome != service::Outcome::kFailed;
      a.error = !a.unserved;
    }
    if (!spans_.enabled()) return;
    // The query's root span runs from its due time to observed readiness;
    // queue and solve are the service-reported intervals after submit.
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t root = spans_.add("service.query", pb::to_ns(f.due),
                                          a.done_ns, 0, r.query_id);
    spans_.link(f.submit_span, root, r.query_id);
    const std::int64_t q0 = f.submit_end_ns;
    const std::int64_t q1 = std::min(
        a.done_ns, q0 + static_cast<std::int64_t>(r.queue_ms * 1e6));
    const std::int64_t s1 = std::min(
        a.done_ns, q1 + static_cast<std::int64_t>(r.solve_ms * 1e6));
    spans_.add("service.queue", q0, q1, root, r.query_id, true);
    spans_.add("service.solve", q1, s1, root, r.query_id, true);
  }

  service::QueryService& svc_;
  VersionedGraph& vg_;
  const std::vector<VertexId>& pool_;
  const pb::Zipf zipf_;
  const std::vector<GraphDelta>& batches_;
  Xoshiro256 rng_;
  pb::SpanRecorder& spans_;
  RssSampler& rss_;
  ServicePhase& out_;
  std::vector<InFlight> inflight_;
  std::size_t first_ = 0;  ///< the open visit's first attempt
  std::size_t next_batch_ = 0;  ///< touched by the updater thread only
  std::mutex mu_;  ///< guards stop_, spans_ and out_'s update fields
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread updater_;  ///< runs update_loop() while a visit is open
};

// ---------------------------------------------------------------------------

/// Checks the sampled service answers against Dijkstra on the graph rebuilt
/// at each answer's stamped version. Returns the wrong-answer count.
std::size_t check_service(const Graph& base,
                          const std::vector<GraphDelta>& batches,
                          std::vector<Answer>& samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Answer& a, const Answer& b) {
              return a.version < b.version;
            });
  VersionedGraph replica{Graph(base)};
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < samples.size();) {
    const std::uint64_t version = samples[i].version;
    while (replica.version() < version) {
      const std::size_t k = replica.version() - 1;
      if (k >= batches.size()) return wrong + (samples.size() - i);
      replica.apply(batches[k]);
    }
    std::size_t j = i;
    while (j < samples.size() && samples[j].version == version) ++j;
    wrong += count_wrong(replica.graph(),
                         {samples.begin() + static_cast<std::ptrdiff_t>(i),
                          samples.begin() + static_cast<std::ptrdiff_t>(j)});
    i = j;
  }
  return wrong;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::string note;  ///< sample count or definition, printed beside it
};

/// Percentile `p` of `v`, or the highest of p90 / p50 that the sample
/// supports; `note` records which was taken and the sample count.
double tail(const std::vector<double>& v, double p, std::string& note) {
  for (double q : {p, 90.0, 50.0})
    if (q == 50.0 || pb::supports(v.size(), q)) {
      note = "p" + std::to_string(static_cast<int>(q)) +
             " of n=" + std::to_string(v.size());
      return v.empty() ? 0.0 : pb::percentile(v, q);
    }
  return 0.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 1e9;  // an unserved-dominated percentile
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (args.workload == w.name) spec = &w;
  if (spec == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());
  const WorkloadSpec& w = *spec;
  pb::SpanRecorder spans(args.trace);

  const auto steal0 = cpu_steal();
  // --- set-up, repeated; the last rig is the one measured ---------------
  SetupTimes st;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    rig.reset();
    // Hand the previous rig's memory back to the system, so peak_rss_mb
    // measures one rig and not how earlier ones fragmented the heap.
    malloc_trim(0);
    rig = setup(w, args.seed, st, spans);
  }

  // --- inputs (outside every timed region) -------------------------------
  const std::vector<VertexId> solve_pool =
      source_pool(rig->graph, kSolvePool, args.seed ^ 0x501BEULL);
  const std::vector<VertexId> svc_pool =
      source_pool(rig->service_base, kServicePool, args.seed ^ 0x9001ULL);
  // --rates replaces the ladder for calibration: one climb that visits
  // every rate, failing or not.
  const bool calibrating = !args.rates.empty();
  const std::vector<double> rates =
      calibrating ? args.rates
                  : std::vector<double>(std::begin(w.rates), std::end(w.rates));
  const int rungs = static_cast<int>(rates.size());
  // The low rung's visits pool their samples; every other rung is visited
  // once, with enough arrivals for its own p99.
  std::vector<std::size_t> arrivals = {std::max<std::size_t>(
      1, static_cast<std::size_t>(rates[0] * args.seconds * kLowShare / kRounds))};
  double service_seconds =  // the most a run can take
      kWarmupSeconds + args.seconds * kQueryShare +
      kRounds * static_cast<double>(arrivals[0]) / rates[0];
  for (int rung = 1; rung < rungs; ++rung) {
    arrivals.push_back(kMinRungArrivals);
    service_seconds += static_cast<double>(kMinRungArrivals) / rates[rung];
  }
  // One batch per update period, with room for the drains between rungs.
  const std::size_t nbatches = static_cast<std::size_t>(
      2.0 * service_seconds * 1e3 / kUpdatePeriodMs) + 16;
  const std::vector<GraphDelta> batches =
      make_batches(rig->service_base, svc_pool, nbatches, args.seed ^ 0xBA7CULL);

  // --- measured phases ---------------------------------------------------
  malloc_trim(0);  // input generation's garbage stays out of the RSS peak
  RssSampler rss;
  SolvePhase sp;
  ServicePhase vp;
  const std::uint64_t compactions0 = rig->vg->compactions();
  const obs::MetricsSnapshot svc0 = rig->svc->metrics();
  ServiceClient client(*rig, svc_pool, batches, args.seed ^ 0xC11EULL, spans,
                       rss, vp);
  Xoshiro256 solve_rng(args.seed ^ 0x0DE7ULL);
  for (int round = 0; round < kRounds; ++round) {
    run_solves(*rig, solve_pool, args.seconds * kSolveShare / kRounds,
               round == kRounds - 1 ? kMinSolves : 0, solve_rng, spans, rss,
               sp);
    if (round == 0)
      client.run_rung(kWarmup, rates[0],
                      static_cast<std::size_t>(rates[0] * kWarmupSeconds));
    client.run_closed(args.seconds * kQueryShare / kRounds);
    client.run_rung(0, rates[0], arrivals[0]);
  }
  // slo_qps: the goodput of the climb's last rung passed, 0 when rung 1
  // fails. Rung 1 always runs: it is the high rung of lat_*. --rates
  // calibrates: the climb visits every rate, failing or not.
  std::vector<pb::RungVerdict> verdicts;
  for (int rung = 1; rung < rungs; ++rung) {
    if (rung > 1 && !verdicts.back().passes && !calibrating) break;
    const Visit& v = vp.visits[client.run_rung(rung, rates[rung], arrivals[rung])];
    verdicts.push_back({v.passes, v.goodput});
  }
  const double slo_qps = pb::climb_goodput(verdicts);
  const obs::MetricsSnapshot svc1 = rig->svc->metrics();
  const double compactions =
      static_cast<double>(rig->vg->compactions() - compactions0);
  const auto steal1 = cpu_steal();
  const double steal_share = (steal1.first - steal0.first) /
                             std::max(1.0, steal1.second - steal0.second);

  // --- traced-run extras: self-speedup and solo service solve ------------
  double self_speedup = 0.0, svc_solo_ms = 0.0;
  if (args.trace) {
    const std::vector<VertexId> few(
        solve_pool.begin(),
        solve_pool.begin() + std::min<std::ptrdiff_t>(11, std::ssize(solve_pool)));
    self_speedup = solo_p50(w, 1, rig->graph, few) /
                   solo_p50(w, solve_threads(), rig->graph, few);
    const std::vector<VertexId> svc_few(
        svc_pool.begin(),
        svc_pool.begin() + std::min<std::ptrdiff_t>(41, std::ssize(svc_pool)));
    svc_solo_ms = solo_p50(w, service_threads(), rig->service_base, svc_few);
  }
  rig->svc->shutdown();

  // --- correctness ---------------------------------------------------------
  const std::size_t solve_wrong = count_wrong(rig->graph, sp.answers);
  const std::size_t svc_wrong =
      check_service(rig->service_base, batches, vp.samples);
  std::size_t errors = solve_wrong + svc_wrong + vp.update_errors;
  std::size_t unserved = 0, stale = 0;
  for (const Attempt& a : vp.attempts) {
    errors += a.error;
    unserved += a.unserved;
    stale += a.stale;
  }
  const std::size_t attempted = sp.solves + vp.attempts.size();

  // --- metrics -----------------------------------------------------------
  auto lat = [&](int rung) {
    std::vector<double> v;
    for (const Attempt& a : vp.attempts)
      if (a.rung == rung) v.push_back(a.lat_ms);
    return v;
  };
  auto field = [&](int rung, auto pick, bool served_only) {
    std::vector<double> v;
    for (const Attempt& a : vp.attempts)
      if ((rung < 0 || a.rung == rung) && (!served_only || a.served))
        v.push_back(pick(a));
    return v;
  };
  const std::vector<double> lat_low = lat(0), lat_high = lat(1),
                            lat_closed = lat(kClosedLoop);
  const double n_solves = static_cast<double>(sp.solves);
  std::vector<Metric> e2e = {
      {"setup_s", median(st.setup_s), "s",
       std::to_string(w.setup_reps) + " set-ups, median"},
      {"solve_ms_p50", median(sp.wall_ms), "ms",
       "n=" + std::to_string(sp.wall_ms.size())},
      {"query_ms_p50", median(lat_closed), "ms",
       "closed loop, n=" + std::to_string(lat_closed.size())},
      {"peak_rss_mb", rss.peak_mb(), "MB",
       "highest resident set sampled in the measured phases"},
  };

  const double updates = std::max<double>(1.0, static_cast<double>(vp.updates));
  const auto delta = [&](CId id) {
    return static_cast<double>(svc1.counter(id) - svc0.counter(id));
  };
  // Queries of the low and high rungs in flight while an update() ran.
  std::vector<double> overlap;
  for (const Attempt& a : vp.attempts)
    for (const auto& [u0, u1] : vp.update_spans)
      if (a.rung == 0 || a.rung == 1)
      if (a.sent_ns < u1 && a.done_ns > u0) {
        overlap.push_back(a.lat_ms);
        break;
      }
  std::vector<double> lags;  // of the open-loop sends
  for (const Attempt& a : vp.attempts)
    if (a.rung >= 0) lags.push_back(a.lag_ms);
  std::vector<double> residual_low;
  for (const Attempt& a : vp.attempts)
    if (a.rung == 0 && a.served)
      residual_low.push_back(a.lat_ms - a.queue_ms - a.solve_ms);
  const std::vector<double> svc_solve_low =
      field(0, [](const Attempt& a) { return a.solve_ms; }, true);
  std::string queue_note, low_note;
  // slo_qps, the open-loop latencies, update time and the solve tail are
  // reported with the layers: they followed the host's load from run to
  // run too far to gate on (README.md).
  std::vector<Metric> layers = {
      {"slo_qps", slo_qps, "1/s", "one climb from rung 1; 0 when it fails"},
      {"solve_ms_p90", pb::percentile(sp.wall_ms, 90), "ms",
       "n=" + std::to_string(sp.wall_ms.size())},
      {"lat_p50_ms.low", median(lat_low), "ms",
       "n=" + std::to_string(lat_low.size())},
      {"lat_p99_ms.low", tail(lat_low, 99, low_note), "ms", low_note},
      {"lat_p50_ms.high", median(lat_high), "ms",
       "n=" + std::to_string(lat_high.size())},
      {"lat_p99_ms.high", pb::percentile(lat_high, 99), "ms",
       "n=" + std::to_string(lat_high.size())},
      {"update_ms_p50", vp.update_ms.empty() ? 0.0 : median(vp.update_ms),
       "ms", "n=" + std::to_string(vp.update_ms.size())},
      {"graph.build_s", median(st.build_s), "s", "solve + service graph"},
      {"graph.compactions_per_update", compactions / updates, "count", ""},
      {"support.team_spawn_ms", median(st.spawn_ms), "ms",
       "Solver + QueryService construction"},
      {"sssp.solver.overhead_ms", median(sp.overhead_ms), "ms", "p50"},
      {"sssp.solver.epoch_sweeps", sp.sweeps / n_solves, "count", "per solve"},
      {"sssp.solver.first_solve_ms", median(st.first_solve_ms), "ms", ""},
      {"sssp.wasp.parallel_ms_p50", median(sp.parallel_ms), "ms", ""},
      {"sssp.wasp.bucket_advances", sp.advances / n_solves, "count",
       "per solve"},
      {"sssp.wasp.termination_scans", sp.scans / n_solves, "count",
       "per solve"},
      {"sssp.wasp.idle_share", sp.idle_ns / sp.thread_ns, "ratio", ""},
      {"sssp.wasp.relax_per_arc",
       sp.relax / n_solves / static_cast<double>(rig->graph.num_edges()),
       "ratio", ""},
      {"sssp.wasp.update_ratio", sp.updates / sp.relax, "ratio", ""},
      {"sssp.wasp.stale_skip_ratio", sp.stale / sp.updates, "ratio",
       "stale skips per successful update"},
      {"sssp.wasp.steal_share", sp.steal_ns / sp.thread_ns, "ratio", ""},
      {"sssp.wasp.prefetch_issued", sp.prefetch / n_solves, "count",
       "per solve"},
      {"sssp.wasp.self_speedup", self_speedup, "ratio",
       "1-thread p50 / nproc/2-thread p50, 11 sources"},
      {"concurrent.steals", sp.steals / n_solves, "count", "per solve"},
      {"concurrent.steal_success",
       sp.attempts > 0 ? sp.steals / sp.attempts : 0.0, "ratio", ""},
      {"concurrent.chunk_allocs", sp.chunks / n_solves, "count", "per solve"},
      {"sssp.incremental.repairs_per_update",
       delta(CId::kRepairBatches) / updates, "count", ""},
      {"sssp.incremental.cone_per_update",
       delta(CId::kRepairConeVertices) / updates, "count", ""},
      {"sssp.incremental.seeds_per_update",
       delta(CId::kRepairSeedVertices) / updates, "count", ""},
      {"service.submit_us_p50",
       median(field(1, [](const Attempt& a) { return a.submit_us; }, false)),
       "us", "high rung"},
      {"service.submit_us_p99",
       pb::percentile(field(1, [](const Attempt& a) { return a.submit_us; }, false), 99),
       "us", "high rung"},
      {"service.queue_ms_p50",
       median(field(1, [](const Attempt& a) { return a.queue_ms; }, true)),
       "ms", "high rung, served"},
      {"service.queue_ms_p99",
       tail(field(1, [](const Attempt& a) { return a.queue_ms; }, true), 99,
            queue_note),
       "ms", "high rung, served, " + queue_note},
      {"service.backlog_max", vp.backlog_max, "count", "all rungs"},
      {"service.solve_ms_p50", median(svc_solve_low), "ms",
       "low rung, served"},
      {"service.solve_inflation",
       svc_solo_ms > 0 ? median(svc_solve_low) / svc_solo_ms : 0.0, "ratio",
       "over a solo solve p50 on the service graph"},
      {"service.residual_ms_p50", median(residual_low), "ms",
       "low rung, served: latency - queue - solve"},
      {"service.coalesced_share",
       delta(CId::kQueriesCoalesced) /
           std::max(1.0, delta(CId::kQueriesSubmitted)),
       "ratio", ""},
      {"service.update_overlap_lat_p90_ms",
       pb::supports(overlap.size(), 90) ? pb::percentile(overlap, 90) : 0.0,
       "ms", "n=" + std::to_string(overlap.size())},
      {"service.retries", delta(CId::kQueryRetries), "count", ""},
      {"service.rebuilds", delta(CId::kSolverRebuilds), "count", ""},
      {"service.watchdog_cancels", delta(CId::kWatchdogCancels), "count", ""},
      {"service.generator_lag_ms_p99", pb::percentile(lags, 99), "ms",
       "n=" + std::to_string(lags.size())},
      {"trace.overhead_share",
       args.trace ? median(sp.traced_ms) / median(sp.wall_ms) - 1.0 : 0.0,
       "ratio", "traced vs untraced solves, alternating"},
      {"trace.residual_share",
       spans.residual_share({"sssp.solver.solve", "service.query"}), "ratio",
       "root time not covered by child spans"},
      {"error_rate",
       static_cast<double>(errors) / static_cast<double>(attempted), "ratio",
       ""},
      {"unserved_share",
       static_cast<double>(unserved) /
           static_cast<double>(std::max<std::size_t>(1, vp.attempts.size())),
       "ratio", ""},
      {"stale_share",
       static_cast<double>(stale) /
           static_cast<double>(std::max<std::size_t>(1, vp.attempts.size())),
       "ratio", ""},
  };

  // --- report ---------------------------------------------------------------
  const bool correct = errors == 0;
  std::printf("workload %s seed %llu seconds %g trace %d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("fingerprint: nproc=%d cpu=\"%s\" compiler=\"%s\" "
              "build=%s flags=\"%s\" WASP_OBS=ON source=%s\n",
              nproc(), cpu_model().c_str(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              args.source_id.c_str());
  std::printf("host steal share during the run: %.4f\n", steal_share);
  std::printf("attempted %zu (solves %zu, queries %zu), errors %zu "
              "(wrong solve %zu, wrong sampled service %zu of %zu)\n",
              attempted, sp.solves, vp.attempts.size(), errors, solve_wrong,
              svc_wrong, vp.samples.size());
  for (const Visit& v : vp.visits) {
    if (v.rung == kWarmup) continue;
    std::size_t lost = 0;
    for (double x : v.lat_ms) lost += std::isinf(x);
    std::string tail_note;
    const double tail_ms = tail(v.lat_ms, 99, tail_note);
    if (v.rung == kClosedLoop)
      std::printf("closed loop: ");
    else
      std::printf("rung %d: offered %.0f/s, ", v.rung, rates[v.rung]);
    std::printf("over %.2f s, n=%zu, p50 %.2f ms, %s %.2f ms (unserved %zu), "
                "backlog %s",
                v.seconds, v.lat_ms.size(), median(v.lat_ms),
                tail_note.substr(0, 3).c_str(), tail_ms, lost,
                pb::backlog_growing(v.backlog) ? "growing" : "steady");
    if (v.rung > 0)
      std::printf(", goodput %.1f/s: %s\n", v.goodput,
                  v.passes ? "passes" : "fails");
    else
      std::printf("\n");
  }
  const std::vector<Metric>& shown = args.trace ? layers : e2e;
  for (const std::vector<Metric>* group : {&e2e, &layers})
    for (const Metric& m : *group)
      std::printf("  %-36s %14.4f %-6s %s\n", m.name.c_str(), m.value, m.unit,
                  m.note.c_str());
  const std::map<std::string, double> self_ms = spans.self_ms_by_name();
  for (const auto& [name, ms] : self_ms)
    std::printf("  span self time %-24s %12.1f ms\n", name.c_str(), ms);

  const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (args.trace) {
    std::ofstream os(stem + "-spans.json");
    spans.write_json(os);
  }
  {
    std::ofstream os(stem + "-result.json");
    os << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
       << ", \"fingerprint\": {\"nproc\": " << nproc()
       << ", \"cpu\": \"" << cpu_model() << "\", \"compiler\": \""
       << PERFBENCH_COMPILER << "\", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"flags\": \"" << PERFBENCH_CXX_FLAGS
       << "\", \"wasp_obs\": \"ON\", \"source\": \"" << args.source_id
       << "\", \"host_steal_share\": " << json_number(steal_share)
       << "}, \"metrics\": {";
    bool first = true;
    for (const std::vector<Metric>* group : {&e2e, &layers})
      for (const Metric& m : *group) {
        os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
           << json_number(m.value) << ", \"unit\": \"" << m.unit
           << "\", \"note\": \"" << m.note << "\"}";
        first = false;
      }
    os << "}, \"span_self_ms\": {";
    first = true;
    for (const auto& [name, ms] : self_ms) {
      os << (first ? "" : ", ") << "\"" << name << "\": " << json_number(ms);
      first = false;
    }
    os << "}}\n";
  }
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(errors) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i)
    line += (i ? ", " : "") + std::string("\"") + shown[i].name +
            "\": {\"value\": " + json_number(shown[i].value) +
            ", \"unit\": \"" + shown[i].unit + "\"}";
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
