#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the benchmark binary (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset; later calls only re-check the build. The last line
of standard output is the benchmark binary's JSON result. --selftest proves that a
corrupted pinned output is reported as a failed operation.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_round", "fleet", "closed_loop", "serve")
# Settings that would change what is measured: a fault plan, or the escape
# hatch that switches the partial solver tier off.
FORBIDDEN_ENV = ("RWC_FAULTS", "RWC_PARTIAL_RESOLVE")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "rwc_perfbench")


def git_revision():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, workload, seed, seconds, trace, pins):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--git-rev", git_revision()]
    for key, value in sorted(pins.items()):
        if key.startswith(workload + "."):
            args += ["--pin", f"{key}={value}"]
    if trace:
        traces = os.path.join(build_root(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-file", os.path.join(traces, f"{workload}-seed{seed}.trace.json")]
    try:
        result = subprocess.run(args, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        fail(f"{workload} exited with code {result.returncode}")
    lines = result.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload} printed no JSON result")
    if set(record) != RESULT_KEYS:
        fail(f"{workload} result has keys {sorted(record)}")
    return lines, record


def check_metrics(record, trace):
    expected = expected_metrics(trace)
    if expected is None:
        return
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if got != expected:
        fail("emitted metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}")


def selftest(binary):
    """Each workload, run briefly with one pinned value corrupted, must
    report that pin as a failed operation; with intact pins it must pass."""
    pins = load_pins()
    ok = True
    for workload in WORKLOADS:
        key = sorted(k for k in pins if k.startswith(workload + "."))[0]
        corrupted = dict(pins)
        corrupted[key] = f"{int(pins[key], 16) ^ 1:016x}"
        lines, record = run_binary(binary, workload, 1, 0.5, False, corrupted)
        detected = (not record["correct"] and record["failed"] >= 1
                    and any(key in line for line in lines if line.startswith("FAILED:")))
        print(f"selftest {workload}: corrupted pin {key} "
              f"{'reported as failed' if detected else 'NOT DETECTED'}")
        ok &= detected
    _, record = run_binary(binary, "fleet", 1, 0.5, False, pins)
    print(f"selftest fleet with intact pins: {'correct' if record['correct'] else 'FAILED'}")
    ok &= record["correct"]
    print(f"selftest: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    armed = [name for name in FORBIDDEN_ENV if name in os.environ]
    if armed:
        fail(f"refusing to run with {', '.join(armed)} set: "
             "the benchmark measures the default, fault-free configuration")

    binary = build()
    if args.selftest:
        return selftest(binary)
    lines, record = run_binary(binary, args.workload, args.seed, args.seconds,
                               bool(args.trace), load_pins())
    check_metrics(record, bool(args.trace))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
