#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload kv-read|kv-defrag|cache-churn \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
the benchmark (perfbench/CMakeLists.txt, which builds the root
project's library target) into $CARGO_TARGET_DIR, default .bench_build.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The exit status is 0 only if every output check passed.

    python3 perfbench/run.py --selftest

runs the benchmark's own tests: the ratio, hash and set-up
normalisation helpers (C++), the trace self-time helpers (Python), and
every output check, once clean and once fed a wrong value, on small
inputs. See perfbench/BENCH.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("kv-read", "kv-defrag", "cache-churn")
# The output checks of each workload, by the name --corrupt takes.
CHECKS = {"kv-read": ("get", "content"), "kv-defrag": ("get", "content"),
          "cache-churn": ("rss", "replay", "teardown")}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                              ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure (once) and build; return the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.h")):
        raise RuntimeError("library sources not found under %s/src" % ROOT)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build step failed: %s" % " ".join(cmd))
    return out


def run_binary(bdir, args):
    """Run the benchmark binary; return (exit code, parsed result)."""
    done = subprocess.run([os.path.join(bdir, "perfbench")] + args,
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
    return done.returncode, result


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    bdir = build()
    trace_file = os.path.join(bdir, "trace-%s.json" % args.workload)
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file", trace_file]
    code, result = run_binary(bdir, cmd)
    if result is None:
        raise RuntimeError("benchmark printed no result (exit %d)" % code)
    metrics = result["metrics"]
    if args.trace:
        with open(trace_file) as f:
            trace = json.load(f)
        os.remove(trace_file)
        for name, (value, unit) in benchlib.trace_metrics(trace).items():
            metrics[name] = {"value": value, "unit": unit}
    want = expected_metrics(args.trace)
    missing = sorted(set(want) - set(metrics))
    wrong_unit = sorted(n for n in want if n in metrics
                        and metrics[n]["unit"] != want[n])
    if missing or wrong_unit:
        raise RuntimeError("metrics missing %s, units differ %s"
                           % (missing, wrong_unit))
    result["metrics"] = {n: metrics[n] for n in want}
    print(json.dumps(result))
    return 0 if result["correct"] and code == 0 else 1


def selftest():
    """The benchmark's own tests; returns the number of failures."""
    import unittest
    failures = 0
    bdir = build()
    if subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        failures += 1
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    if not unittest.TextTestRunner(stream=sys.stderr).run(suite)\
            .wasSuccessful():
        failures += 1
    # Every workload passes its output checks, and each check trips when
    # fed a wrong value.
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", "0", "--smoke"]
        for check in (None,) + CHECKS[workload]:
            code, result = run_binary(
                bdir, base + (["--corrupt", check] if check else []))
            tripped = check is not None
            ok = (result is not None and code == (1 if tripped else 0)
                  and result["correct"] != tripped
                  and (result["failed"] > 0) == tripped)
            log("%-4s %s: %s" % ("ok" if ok else "FAIL", workload,
                                 "check %s trips on a wrong value" % check
                                 if tripped else "clean run passes"))
            failures += 0 if ok else 1
    log("selftest: %d failure(s)" % failures)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return 1 if selftest() else 0
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as err:
        log("perfbench: %s" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
