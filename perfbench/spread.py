#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workload W ...] [--runs 10] [--first-seed 1]

Runs each workload --runs times (seeds first-seed, first-seed+1, ...) for
BENCHMARK.json's run_seconds, untraced, then prints for every end-to-end
metric its median, the interquartile range as a share of the median
(statistics.quantiles(values, n=4)) and the metric's bound. A spread at or
above a third of its bound is flagged: the benchmark is not steady enough
to resolve changes of that size. `setup_s` is reported but only its median
is gated. Each run's record is also appended to perfbench/out/history.jsonl.

Every run records two host probes (see cpp/common.h): the mean overshoot
of a bare PreciseSleep(600 us) loop before the run, and the share of CPU
time the hypervisor stole during it. Their medians are printed with each
set, so two sets taken in different host states can be told apart.

--baseline FILE also makes one traced run per workload and appends one
summary line per workload to FILE: the end-to-end medians, quartiles and
spreads, the host probes, the traced run's per-layer metrics, the tracing
overhead (traced minus untraced medians), and build and provenance.

--against FILE compares this set with the newest summary of the same
workload in FILE (written by --baseline): a metric whose median is worse
than FILE's by more than its bound is flagged, as the benchmark gate
would flag it, next to both sets' host probes. Exit code 4 when one is.
"""
import argparse
import json
import statistics
import sys

import run

PROBES = ("host_sleep_overshoot_us", "host_steal_pct")


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", help="append per-workload summaries here")
    parser.add_argument("--against", help="compare with the summaries here")
    args = parser.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            for line in f:
                entry = json.loads(line)
                earlier[entry["workload"]] = entry
    better = {m["name"]: m["better"] for m in spec_metrics()}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if not run.build():
        return 2
    steady, agree = True, True
    for workload in args.workload or run.WORKLOADS:
        records = []
        for i in range(args.runs):
            record = run.run_workload(workload, args.first_seed + i,
                                      spec["run_seconds"], 0)
            if record is None or not record["correct"] or record["failed"]:
                run.log(f"{workload} seed {args.first_seed + i} failed")
                return 1
            records.append(record)
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        summary = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in records])
            summary[name] = s
            flag = ""
            if name != "setup_s" and s["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {name:16s} median {s['median']:14.6g}  spread "
                  f"{s['spread']:7.2%}  bound {bound:5.0%}{flag}")
        host = {p: statistics.median(r["info"][p] for r in records)
                for p in PROBES}
        print("  host: " + ", ".join(f"{p} median {v:.4g}"
                                     for p, v in host.items()))
        if workload in earlier:
            agree = compare(earlier[workload], summary, host, bounds,
                            better) and agree
        if args.baseline:
            traced = run.run_workload(workload, args.first_seed,
                                      spec["run_seconds"], 1)
            if traced is None or not traced["correct"] or traced["failed"]:
                run.log(f"{workload} traced run failed")
                return 1
            with open(args.baseline, "a") as out:
                out.write(json.dumps({
                    "workload": workload,
                    "run_seconds": spec["run_seconds"],
                    "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                    "end_to_end": summary,
                    "host": host,
                    "failed_op_ratio": max(r["failed_op_ratio"]
                                           for r in records + [traced]),
                    "per_layer": {name: m["value"] for name, m
                                  in traced["metrics"].items()},
                    "tracing_overhead": {
                        name: m["value"] - summary[name]["median"]
                        for name, m in traced["traced_e2e"].items()},
                    "build": records[0]["build"],
                    "provenance": records[0]["provenance"],
                }, sort_keys=True) + "\n")
    if not agree:
        return 4
    return 0 if steady else 3


def spec_metrics():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def compare(before, summary, host, bounds, better):
    """Print this set against an earlier summary; False when a median is
    worse than the earlier one by more than its bound."""
    print(f"  against the set of {before['provenance']['unix_time']:.0f} "
          "(unix time):")
    old_host = before.get("host", {})
    print("    host then: " + ", ".join(
        f"{p} {old_host[p]:.4g}" for p in PROBES if p in old_host))
    ok = True
    for name, bound in bounds.items():
        old = before["end_to_end"][name]["median"]
        new = summary[name]["median"]
        change = (new - old) / old if old else float("inf")
        worse = change if better[name] == "lower" else -change
        flag = "  <-- worse by more than the bound" if worse > bound else ""
        ok = ok and not flag
        print(f"    {name:16s} {old:14.6g} -> {new:14.6g} ({change:+7.2%})"
              f"{flag}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
