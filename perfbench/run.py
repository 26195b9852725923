#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds the program under
test and the benchmark from source (perfbench/CMakeLists.txt) into the
directory named by CARGO_TARGET_DIR (default .bench_build) and runs the
benchmark's helper tests once; later runs rebuild incrementally.  The last
line of standard output is the result object; perfbench/README.md lists
the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-fresh", "serve-warm", "route-skew", "trace-stream")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_revision():
    """git HEAD when the checkout is a repository, else a hash of the
    program's sources, so every result names the code it measured."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "ssm_cli", "perfbench", "perfbench_test"],
                   stdout=sys.stderr, check=True)
    # The helper tests run once per build of their binary.
    test_bin = os.path.join(build_dir, "perfbench_test")
    stamp = os.path.join(build_dir, "perfbench_test.passed")
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(test_bin)):
        subprocess.run([test_bin, "--gtest_brief=1"], stdout=sys.stderr,
                       check=True, timeout=120)
        with open(stamp, "w") as fh:
            fh.write("ok\n")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("the ssm sources are not next to perfbench/; nothing to measure")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--ssm", os.path.join(build_dir, "ssm", "tools", "ssm"),
           "--work", os.path.relpath(build_dir, ROOT),
           "--pins", os.path.join(HERE, "digests.json"),
           "--revision", source_revision()]
    # The load generator and its server children share one process group,
    # so nothing outlives this script, whichever of them exits first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the run exceeded %ds" % RUN_TIMEOUT_S)
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        return 2
    lines = out.strip().splitlines()
    if not lines:
        log("no result printed (exit %d)" % proc.returncode)
        return proc.returncode or 2
    try:
        result = json.loads(lines[-1])
        want = expected_metrics(args.trace)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        log("malformed result line: %s" % e)
        return 2
    if got != want:
        log("metrics differ from BENCHMARK.json: %s"
            % sorted(set(got.items()) ^ set(want.items())))
        return 2
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
