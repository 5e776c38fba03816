#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload road --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload road --seed 1 --rates 100,200,300
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The wasp libraries are compiled from ../src
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) with
CMake, and the workload binary's output is passed through: its last stdout
line is the result object. Per-run result files (with the host/build
fingerprint) and, for --trace 1, the span file land in
<build dir>/results/. Exits non-zero on a build failure, a wrong answer, or
a run that does not finish.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def run_timeout_s(seconds):
    """A run measures for `seconds`; set-up, drains and the oracle add less
    than twice that again."""
    return 3 * seconds + 20


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no wasp sources under %s/src; run from a full checkout" % ROOT)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % log_path)


def source_id():
    """The git commit when there is one, else a digest of the source tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def run(cmd, timeout_s):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % timeout_s)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    # A TERM becomes SystemExit, so run() kills and reaps the benchmark
    # process before this one exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rates",
                    help="comma-separated service rates replacing the "
                         "workload's frozen ladder (capacity calibration)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    t0 = time.monotonic()
    build(bdir)
    print("perfbench: build ready in %.1f s" % (time.monotonic() - t0),
          file=sys.stderr)
    if args.selftest:
        sys.exit(run([os.path.join(bdir, "perfbench_selftest")], 60))
    if not args.workload:
        fail("--workload is required")
    out = os.path.join(bdir, "results")
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(bdir, "wasp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--source-id", source_id()]
    if args.rates:
        cmd += ["--rates", args.rates]
    sys.stdout.flush()
    sys.exit(run(cmd, run_timeout_s(args.seconds)))


if __name__ == "__main__":
    main()
