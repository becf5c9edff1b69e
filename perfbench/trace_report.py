#!/usr/bin/env python3
"""Per-layer self-time report of the traced runs.

    python3 perfbench/trace_report.py [--workload W ...]

For each workload, takes the newest traced record in
perfbench/out/history.jsonl and prints:

  * a per-layer table: spans, busy time and self time (duration minus the
    time its child spans cover), with each layer's share of all self time.
    The driver accumulates these over every span of the measured trials
    (the record's "layers"), not only over the spans it keeps;
  * per client-op root (core.read.copy, dlsim.source_read, ...): the time
    its child spans account for and the unattributed remainder (its self
    time);
  * the nesting check over the spans kept in the record's Chrome trace
    (the first 100k of the measured trials): no child span may start
    before or end after its parent (exit code 1 when one does);
  * the tracing overhead: the traced run's end-to-end medians minus the
    medians of the last ten untraced runs of the same workload and code
    before it in the history (the host's speed drifts over minutes, so
    older runs would blur the difference).

Run a traced workload first, e.g.
    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 20 --trace 1
"""
import argparse
import json
import statistics
import sys

import run

# ts/dur are printed in microseconds with three decimals (1 ns); allow for
# rounding of both ends.
TOLERANCE_US = 0.002


def newest_records(workload):
    traced, untraced = None, []
    if not run.HISTORY.is_file():
        return traced, untraced
    records = [json.loads(line)
               for line in run.HISTORY.read_text().splitlines()]
    records = [r for r in records
               if r["workload"] == workload and not r.get("tiny")]
    for i, record in enumerate(records):
        if record["trace"] and record["provenance"].get("trace_file"):
            traced = record
            code = record["provenance"]["src_sha256"]
            untraced = [r for r in records[:i] if not r["trace"] and
                        r["provenance"]["src_sha256"] == code][-10:]
    return traced, untraced


def check_nesting(spans):
    """Child spans that start before or end after their parent, and the
    number of spans whose parent fell past the kept-span cap."""
    by_id = {s["args"]["id"]: s for s in spans}
    violations, detached = [], 0
    for s in spans:
        parent = s["args"]["parent"]
        if parent == 0:
            continue
        if parent not in by_id:
            detached += 1
            continue
        p = by_id[parent]
        if (s["ts"] < p["ts"] - TOLERANCE_US or
                s["ts"] + s["dur"] > p["ts"] + p["dur"] + TOLERANCE_US):
            violations.append((s["name"], p["name"], s["ts"]))
    return violations, detached


def overhead(traced, untraced):
    rows = []
    for name, metric in sorted(traced.get("traced_e2e", {}).items()):
        base = [r["metrics"][name]["value"] for r in untraced
                if name in r["metrics"]]
        if not base:
            continue
        median = statistics.median(base)
        delta = metric["value"] - median
        share = delta / median if median else float("nan")
        rows.append((name, metric["unit"], metric["value"], median, delta,
                     share))
    return rows


def report(workload):
    traced, untraced = newest_records(workload)
    if traced is None:
        print(f"{workload}: no traced run in {run.HISTORY}")
        return True
    layers = traced.get("layers", {})
    total_self = sum(v["self_s"] for v in layers.values()) or 1.0
    print(f"== {workload} (seed {traced['seed']}, "
          f"{sum(v['count'] for v in layers.values())} spans) ==")
    print(f"  {'layer':26s} {'spans':>9s} {'busy ms':>11s} {'self ms':>11s}"
          f" {'self share':>10s}")
    for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:26s} {v['count']:9d} {v['busy_s'] * 1e3:11.3f} "
              f"{v['self_s'] * 1e3:11.3f} {v['self_s'] / total_self:10.1%}")
    print(f"  {'client-op root':26s} {'ops':>9s} {'total ms':>11s} "
          f"{'in children':>11s} {'unattributed':>12s}")
    for name, v in sorted(layers.items()):
        if not v["root"]:
            continue
        busy, rest = v["busy_s"], v["self_s"]
        print(f"  {name:26s} {v['count']:9d} {busy * 1e3:11.3f} "
              f"{(busy - rest) * 1e3:11.3f} {rest * 1e3:9.3f} ms "
              f"({rest / busy if busy else 0:.1%})")
    rows = overhead(traced, untraced)
    if rows:
        print(f"  tracing overhead vs {len(untraced)} untraced run(s): "
              "traced median - untraced median")
        for name, unit, t, u, delta, share in rows:
            print(f"    {name:16s} {t:14.6g} - {u:14.6g} = {delta:+12.6g} "
                  f"{unit} ({share:+.1%})")
    else:
        print("  tracing overhead: no untraced run of this workload in the "
              "history")
    path = run.ROOT / traced["provenance"]["trace_file"]
    trace = json.loads(path.read_text())
    spans = trace["traceEvents"]
    violations, detached = check_nesting(spans)
    print(f"  nesting check over {len(spans)} kept spans "
          f"({trace['otherData']['dropped_spans']} past the cap, "
          f"{detached} with a parent past the cap):")
    if violations:
        print(f"    {len(violations)} child span(s) outlast their parent, "
              f"first: {violations[0]}")
        return False
    print("    every child span lies within its parent")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or run.WORKLOADS:
        ok = report(workload) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
