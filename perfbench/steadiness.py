#!/usr/bin/env python3
"""Steadiness report: how far the benchmark's own figures move on one host.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
                                    [--out perfbench/steadiness.json]

Run from the root of a source checkout.  Makes `--sets` independent sets of
`--runs` untraced runs of every workload, each run with its own seed, through
the command in BENCHMARK.json.  One workload at a time, the sets take turns
run by run, so a drift of the host's speed over the session falls on every
set alike.  For every (end-to-end metric, workload) it reports each set's
median and quartiles, the spread (q3 - q1) / median, and the largest shift
between two sets' medians in either direction, as a share of the smaller
one, next to the metric's bound.  It also reports, unchecked, the same
figures of the unscaled wall and CPU times and the reference loop's time
that each run prints among its facts.  These are the numbers the bounds in
BENCHMARK.json are derived from.  Exits 1 if a run fails, or if a spread
(setup_s included) or a shift reads outside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


RAW = ("wall_s", "cpu_s", "ref_s")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread(values), "values": values}


def shift(medians):
    """The largest move between two medians, either way, as a share of
    the smaller: a set that reads faster counts as much as one that reads
    slower."""
    return max(medians) / min(medians) - 1.0


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    facts = next((json.loads(l[6:]) for l in lines if l.startswith("facts ")), {})
    return result, host, facts, time.monotonic() - t0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="perfbench/steadiness.json")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = [{w: {m: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    # The unscaled medians each run prints among its facts, as measured.
    raw = [{w: {k: [] for k in RAW} for w in workloads} for _ in range(args.sets)]
    hosts, failures, elapsed = [], 0, []
    for w in workloads:
        for r in range(args.runs):
            for s, values in enumerate(sets):
                seed = 1000 * (s + 1) + r
                result, host, facts, dt = run_once(bench, w, seed)
                for k in RAW:
                    raw[s][w][k].append(facts[k])
                hosts.append(host)
                elapsed.append(dt)
                if not result["correct"] or result["failed"]:
                    failures += 1
                for m in metrics:
                    values[w][m].append(result["metrics"][m]["value"])
                print(f"set {s} {w} seed {seed} {dt:.1f}s " + " ".join(
                    f"{m}={values[w][m][-1]:.5g}" for m in metrics), flush=True)

    report, ok = {}, failures == 0
    for w in workloads:
        report[w] = {}
        for name, m in metrics.items():
            entry = {"bound": m["bound"],
                     "sets": [summary(v[w][name]) for v in sets]}
            if len(sets) > 1:
                entry["shift"] = shift([st["median"] for st in entry["sets"]])
                if entry["shift"] > m["bound"]:
                    ok = False
            if any(st["spread"] > m["bound"] for st in entry["sets"]):
                ok = False
            report[w][name] = entry
        for k in RAW:
            report[w]["raw." + k] = {"sets": [summary(v[w][k]) for v in raw]}
            print(f"{w:12s} {name:12s} bound {m['bound']:.2f} " + " ".join(
                f"[med {st['median']:.5g} spread {st['spread']:.3f}]" for st in entry["sets"])
                + (f" shift {entry['shift']:.3f}" if "shift" in entry else ""))
    out = {
        "runs_per_set": args.runs,
        "sets": args.sets,
        "run_seconds": bench["run_seconds"],
        "failed_runs": failures,
        "mean_run_s": statistics.mean(elapsed),
        "host": {k: hosts[0].get(k) for k in ("nproc", "ocaml", "commit", "source_md5")},
        "loadavg_1m": [h.get("loadavg_1m") for h in hosts],
        "report": report,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}; {'within' if ok else 'OUTSIDE'} bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
