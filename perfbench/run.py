#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload train_fit|cluster_packed|read_hot \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` driver from source (perfbench/CMakeLists.txt over
../src) into .bench_build/perfbench, runs one workload, appends the full
record (metrics with quartiles and sample counts, oracle verdict,
provenance) to perfbench/out/history.jsonl, and prints the result as the
last stdout line:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the Chrome trace under perfbench/out/).
Exits non-zero without a result line when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
OUT_DIR = HERE / "out"
HISTORY = OUT_DIR / "history.jsonl"
WORKLOADS = ("train_fit", "cluster_packed", "read_hot")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; cannot build")
        return False
    steps = []
    if not (BUILD_DIR / "build.ninja").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-G",
                      "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                  str(os.cpu_count() or 2)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return BINARY.is_file()


def source_digest():
    """SHA-256 over the library sources (the checkout may not be a git
    repository, so this identifies the code under test)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def metric_spec():
    """The metric lists of BENCHMARK.json, or None when it is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def run_workload(workload, seed, seconds, trace, tiny=False, history=True):
    """Run one workload; returns the driver's record (with provenance) or
    None when the run failed."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    trace_path = None
    if tiny:
        cmd.append("--tiny")
    if trace and history:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace_{workload}_{seed}.json"
        cmd += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{workload} exited with code {done.returncode}")
        return None
    record = json.loads(lines[-1])
    record["provenance"] = {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "unix_time": time.time(),
        "command": cmd[1:],
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
    }
    if history:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with HISTORY.open("a") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def check_metrics(record, trace):
    """Every metric BENCHMARK.json lists for the mode is present, with its
    unit, and nothing else. Returns a list of problems."""
    spec = metric_spec()
    if spec is None:
        return []
    want = {m["name"]: m["unit"] for m in spec[trace]}
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"unexpected metric {n}" for n in got if n not in want]
    problems += [f"{n}: unit {got[n]} != {u}" for n, u in want.items()
                 if n in got and got[n] != u]
    return problems


def result_line(record):
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (the benchmark's own tests)")
    args = parser.parse_args()
    if not build():
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          tiny=args.tiny)
    if record is None:
        return 1
    problems = check_metrics(record, args.trace)
    if problems:
        for problem in problems:
            log(problem)
        return 1
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
