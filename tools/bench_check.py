#!/usr/bin/env python3
"""Validates a machine-readable bench report (BENCH_tput.json,
BENCH_qps.json, or BENCH_dyn.json), dispatching on the report's "bench"
field.

tput_queries checks (stdlib only, exit 1 on the first violation):
  * the top-level schema: schema_version == 1, bench == "tput_queries",
    threads/queries positive, a non-empty results list;
  * every row carries the full key set with sane values: qps > 0, positive
    latencies, queries > 0;
  * steady-state latency does not exceed first-solve latency by more than
    the tolerance (the pooled front-end must never make repeat queries
    slower), and optionally beats it by --min-gain (e.g. 1.25 asserts
    steady-state at least 25% below first-solve);
  * at least one epoch sweep was recorded per row (the first acquire).

qps_service checks:
  * the top-level schema: bench == "qps_service", fleet shape positive,
    a non-empty rates list and the cancel block;
  * per rate: the accounting invariant — every accepted attempt resolved
    with exactly one outcome (served + served_stale + cancelled +
    deadline_expired + shed + failed == submitted) and submitted +
    rejected == attempts;
  * percentile monotonicity p50 <= p90 <= p99;
  * saturation_qps > 0, and the cancel phase resolved every query
    (expired + served == queries) with non-negative, ordered overshoot
    percentiles.

dyn_updates checks:
  * the top-level schema: bench == "dyn_updates", threads/batches/
    ops_per_batch positive, a non-empty results list;
  * per row: positive repair/full latencies, incremental_repairs +
    full_solves == batches, at least one incremental repair, and the
    correctness anchor exact == true (repaired distances bit-identical to
    a from-scratch solve after every batch — checked at any scale);
  * without --schema-only, the repair speedup must reach --min-gain.

With --schema-only, the timing-relation checks (steady <= first * tolerance
and --min-gain) are skipped for tput and dyn reports: schema, key-set,
positivity, the qps accounting invariants, and the dyn exactness anchor
still run. This is the mode ctest uses on tiny smoke runs, where latencies
are noise but bookkeeping must be exact.

Usage:
  python3 tools/bench_check.py BENCH_tput.json
  python3 tools/bench_check.py BENCH_tput.json --min-gain 1.3334 --graph USA
  python3 tools/bench_check.py BENCH_qps.json --schema-only
"""

import argparse
import json
import sys

ROW_KEYS = {
    "graph", "algo", "queries", "first_ms", "steady_ms", "qps",
    "epoch_sweeps", "prefetch_issued",
}
TOP_KEYS = {
    "schema_version", "bench", "threads", "queries", "scale",
    "distinct_sources", "results",
}

QPS_TOP_KEYS = {
    "schema_version", "bench", "graph", "threads", "solvers",
    "queue_capacity", "seed", "chaos", "rates", "saturation_qps", "cancel",
}
QPS_RATE_KEYS = {
    "offered_qps", "attempts", "submitted", "rejected", "served",
    "served_stale", "cancelled", "deadline_expired", "shed", "failed",
    "coalesced", "served_qps", "p50_ms", "p90_ms", "p99_ms",
}
QPS_CANCEL_KEYS = {
    "queries", "budget_ms", "expired", "served", "p50_overshoot_ms",
    "p99_overshoot_ms", "watchdog_interval_ms",
}
QPS_OUTCOMES = (
    "served", "served_stale", "cancelled", "deadline_expired", "shed",
    "failed",
)

DYN_TOP_KEYS = {
    "schema_version", "bench", "threads", "batches", "ops_per_batch",
    "scale", "results",
}
DYN_ROW_KEYS = {
    "graph", "algo", "batches", "ops_per_batch", "repair_ms", "full_ms",
    "speedup", "mean_cone", "mean_seeds", "incremental_repairs",
    "full_solves", "exact",
}


def fail(msg):
    print(f"bench_check: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_tput_report(report, min_gain, graph_filter, tolerance, schema_only):
    missing = TOP_KEYS - report.keys()
    if missing:
        fail(f"missing top-level keys: {sorted(missing)}")
    if report["threads"] < 1 or report["queries"] < 2:
        fail("threads must be >= 1 and queries >= 2")
    rows = report["results"]
    if not rows:
        fail("empty results list")

    checked = 0
    for row in rows:
        missing = ROW_KEYS - row.keys()
        if missing:
            fail(f"row {row.get('graph', '?')}: missing keys {sorted(missing)}")
        name = f"{row['graph']}/{row['algo']}"
        if graph_filter and row["graph"] not in graph_filter:
            continue
        checked += 1
        if row["queries"] <= 0:
            fail(f"{name}: queries must be positive")
        if row["first_ms"] <= 0 or row["steady_ms"] <= 0:
            fail(f"{name}: latencies must be positive")
        if row["qps"] <= 0:
            fail(f"{name}: qps must be positive, got {row['qps']}")
        if row["epoch_sweeps"] < 1:
            fail(f"{name}: expected at least one epoch sweep (first acquire)")
        gain = row["first_ms"] / row["steady_ms"]
        if schema_only:
            print(f"bench_check: ok {name} (schema only): "
                  f"first {row['first_ms']:.3f}ms, "
                  f"steady {row['steady_ms']:.3f}ms, {row['qps']:.0f} qps")
            continue
        if row["steady_ms"] > row["first_ms"] * tolerance:
            fail(f"{name}: steady-state {row['steady_ms']:.3f}ms exceeds "
                 f"first-solve {row['first_ms']:.3f}ms "
                 f"(tolerance {tolerance:.2f}x) — the pooled front-end made "
                 "repeat queries slower")
        if gain < min_gain:
            fail(f"{name}: first/steady gain {gain:.2f}x below required "
                 f"{min_gain:.2f}x")
        print(f"bench_check: ok {name}: first {row['first_ms']:.3f}ms, "
              f"steady {row['steady_ms']:.3f}ms ({gain:.2f}x), "
              f"{row['qps']:.0f} qps")
    if checked == 0:
        fail(f"no rows matched graph filter {sorted(graph_filter)}")


def check_qps_report(report):
    missing = QPS_TOP_KEYS - report.keys()
    if missing:
        fail(f"missing top-level keys: {sorted(missing)}")
    if report["threads"] < 1 or report["solvers"] < 1:
        fail("threads and solvers must be >= 1")
    if report["queue_capacity"] < 1:
        fail("queue_capacity must be >= 1")
    rates = report["rates"]
    if not rates:
        fail("empty rates list")

    for row in rates:
        missing = QPS_RATE_KEYS - row.keys()
        if missing:
            fail(f"rate row: missing keys {sorted(missing)}")
        name = f"rate {row['offered_qps']:.0f}qps"
        if row["offered_qps"] <= 0:
            fail(f"{name}: offered_qps must be positive")
        if any(row[k] < 0 for k in QPS_OUTCOMES + ("attempts", "submitted",
                                                   "rejected", "coalesced")):
            fail(f"{name}: negative count")
        resolved = sum(row[k] for k in QPS_OUTCOMES)
        if resolved != row["submitted"]:
            fail(f"{name}: outcomes sum to {resolved} but {row['submitted']} "
                 "attempts were accepted — a query was dropped or "
                 "double-counted")
        if row["submitted"] + row["rejected"] != row["attempts"]:
            fail(f"{name}: submitted {row['submitted']} + rejected "
                 f"{row['rejected']} != attempts {row['attempts']}")
        if not row["p50_ms"] <= row["p90_ms"] <= row["p99_ms"]:
            fail(f"{name}: latency percentiles not monotonic: "
                 f"p50 {row['p50_ms']}, p90 {row['p90_ms']}, "
                 f"p99 {row['p99_ms']}")
        if any(row[f"p{p}_ms"] < 0 for p in (50, 90, 99)):
            fail(f"{name}: negative latency percentile")
        print(f"bench_check: ok {name}: served {row['served']} "
              f"(+{row['served_stale']} stale), shed {row['shed']}, "
              f"rejected {row['rejected']}, expired "
              f"{row['deadline_expired']}, {row['served_qps']:.0f} qps")

    if report["saturation_qps"] <= 0:
        fail(f"saturation_qps must be positive, "
             f"got {report['saturation_qps']}")
    if max(r["served_qps"] for r in rates) != report["saturation_qps"]:
        fail("saturation_qps is not the max served_qps across rates")

    cancel = report["cancel"]
    missing = QPS_CANCEL_KEYS - cancel.keys()
    if missing:
        fail(f"cancel block: missing keys {sorted(missing)}")
    if cancel["queries"] < 1 or cancel["budget_ms"] <= 0:
        fail("cancel block: queries must be >= 1 and budget_ms positive")
    if cancel["expired"] + cancel["served"] != cancel["queries"]:
        fail(f"cancel block: expired {cancel['expired']} + served "
             f"{cancel['served']} != queries {cancel['queries']} — a "
             "cancelled query never resolved")
    if not 0 <= cancel["p50_overshoot_ms"] <= cancel["p99_overshoot_ms"]:
        fail("cancel block: overshoot percentiles negative or not monotonic")
    print(f"bench_check: ok cancel: {cancel['expired']}/{cancel['queries']} "
          f"expired, overshoot p50 {cancel['p50_overshoot_ms']:.3f}ms "
          f"p99 {cancel['p99_overshoot_ms']:.3f}ms "
          f"(watchdog {cancel['watchdog_interval_ms']:.1f}ms)")


def check_dyn_report(report, min_gain, graph_filter, schema_only):
    missing = DYN_TOP_KEYS - report.keys()
    if missing:
        fail(f"missing top-level keys: {sorted(missing)}")
    if report["threads"] < 1 or report["batches"] < 1:
        fail("threads and batches must be >= 1")
    if report["ops_per_batch"] < 1:
        fail("ops_per_batch must be >= 1")
    rows = report["results"]
    if not rows:
        fail("empty results list")

    checked = 0
    for row in rows:
        missing = DYN_ROW_KEYS - row.keys()
        if missing:
            fail(f"row {row.get('graph', '?')}: missing keys {sorted(missing)}")
        name = f"{row['graph']}/{row['algo']}"
        if graph_filter and row["graph"] not in graph_filter:
            continue
        checked += 1
        if row["repair_ms"] <= 0 or row["full_ms"] <= 0:
            fail(f"{name}: repair/full latencies must be positive")
        if row["incremental_repairs"] + row["full_solves"] != row["batches"]:
            fail(f"{name}: incremental_repairs {row['incremental_repairs']} "
                 f"+ full_solves {row['full_solves']} != batches "
                 f"{row['batches']} — a batch went unaccounted")
        # The correctness anchor holds at any scale: a mismatch between the
        # repaired distances and a from-scratch solve is a bug, not noise.
        if row["exact"] is not True:
            fail(f"{name}: repaired distances diverged from from-scratch")
        if row["incremental_repairs"] < 1:
            fail(f"{name}: every batch fell back to a full solve — the "
                 "warm-repair path never ran")
        if schema_only:
            print(f"bench_check: ok {name} (schema only): "
                  f"repair {row['repair_ms']:.3f}ms, "
                  f"full {row['full_ms']:.3f}ms, "
                  f"{row['incremental_repairs']}/{row['batches']} repaired")
            continue
        if row["speedup"] < min_gain:
            fail(f"{name}: repair speedup {row['speedup']:.2f}x below "
                 f"required {min_gain:.2f}x")
        print(f"bench_check: ok {name}: repair {row['repair_ms']:.3f}ms vs "
              f"full {row['full_ms']:.3f}ms ({row['speedup']:.2f}x), "
              f"mean cone {row['mean_cone']:.0f}")
    if checked == 0:
        fail(f"no rows matched graph filter {sorted(graph_filter)}")


def check_report(report, min_gain, graph_filter, tolerance, schema_only):
    if report.get("schema_version") != 1:
        fail(f"unsupported schema_version {report.get('schema_version')}")
    bench = report.get("bench")
    if bench == "tput_queries":
        check_tput_report(report, min_gain, graph_filter, tolerance,
                          schema_only)
    elif bench == "qps_service":
        # The qps accounting invariants are exact at any scale, so
        # --schema-only changes nothing here.
        check_qps_report(report)
    elif bench == "dyn_updates":
        check_dyn_report(report, min_gain, graph_filter, schema_only)
    else:
        fail(f"unexpected bench name {bench!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="path to BENCH_tput.json/BENCH_qps.json")
    parser.add_argument("--min-gain", type=float, default=1.0,
                        help="required first/steady latency ratio on checked "
                             "rows (default 1.0: steady must not be slower)")
    parser.add_argument("--graph", action="append", default=[],
                        help="only apply value checks to this graph "
                             "abbreviation (repeatable; default: all rows)")
    parser.add_argument("--tolerance", type=float, default=1.0,
                        help="slack factor for the steady <= first check "
                             "when --min-gain is 1.0 (default 1.0)")
    parser.add_argument("--schema-only", action="store_true",
                        help="validate schema and value sanity but skip the "
                             "timing-relation checks (for tiny smoke runs)")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.report}: {e}")

    check_report(report, args.min_gain, set(args.graph), args.tolerance,
                 args.schema_only)
    print("bench_check: PASS")


if __name__ == "__main__":
    main()
