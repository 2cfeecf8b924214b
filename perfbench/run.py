#!/usr/bin/env python3
r"""End-to-end benchmark of the fairswap simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_10k --seed 1 --seconds 30 \
        --trace 0

Builds fairswap_perfbench from source (CMake, Release) into the directory
named by $CARGO_TARGET_DIR, default .bench_build, then runs one workload
in its own process for --seconds seconds. The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics, and the traced pass's spans are written to
.bench_out/<workload>-seed<seed>.trace.json (Chrome trace-event JSON,
loads in Perfetto). Progress, per-pass times and any failed check go to
stderr. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Headroom over --seconds before a stuck run is stopped. fairswap_perfbench
# stops after --seconds plus at most one pass, or after its minimum of one
# pass per input; on flow_1k with --trace 1 that minimum takes about 60 s.
RUN_HEADROOM_S = 140


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds fairswap_perfbench; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "fairswap_perfbench",
             "-j", "4"],
            check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "fairswap_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + RUN_HEADROOM_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"fairswap_perfbench exited {proc.returncode} without a result")
        return 1
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        log(f"metrics do not match BENCHMARK.json: got {sorted(got)}")
        return 1
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
