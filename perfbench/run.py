#!/usr/bin/env python3
"""The rcn benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the workload runner
(perfbench/perfbench.exe) and the rcn CLI (its distributed census spawns
`rcn worker` processes) with dune, runs one workload in a fresh process,
and turns the runner's raw samples into metrics.  It prints the host facts
on one line and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the run is a sequence of short runner processes, each set
up afresh and doing a few units of work, until the seconds are spent; each
end-to-end metric of BENCHMARK.json is the median over the processes of
their own medians, times scaled by a reference loop timed before each
process (see REFERENCE_S).  With --trace 1 one runner process alternates traced and
untraced units and the metrics are the per-layer ones.  A per-layer metric
of a layer the workload does not exercise reads 0.

Exits 2 without a result when the directory holds no rcn source tree or the
build fails, and 1 when the runner fails.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("census", "census-sym", "serve-mix", "synth", "dist-census")

# End-to-end metric -> (unit, the sample series it is the median of).
END_TO_END = {
    "setup_s": ("s", "setup_norm_s"),
    "wall_norm_s": ("s", "wall_norm_s"),
    "cpu_norm_s": ("s", "cpu_norm_s"),
    "peak_rss_mb": ("MB", "peak_rss_mb"),
}

# On this benchmark's host unit and set-up times drift by up to 1.8x over
# minutes (perfbench/README.md, "Host noise"), and the runner's reference
# loop, timed in its own process right before each runner process, drifts
# with them.  So every time is reported scaled to a host on which that loop
# takes REFERENCE_S, about what it takes here when the host runs fast.
# NORMALIZED: the series scaled -> the name of the result.
REFERENCE_S = 0.25
NORMALIZED = {"setup_s": "setup_norm_s", "wall_s": "wall_norm_s", "cpu_s": "cpu_norm_s"}

# Per-layer metric -> unit.  Most are read from the runner's "layers"
# record; those in PERCENTILES are computed here from raw samples.
PER_LAYER = {
    "sched.trie_build_s": "s",
    "kernel.compile_us": "us",
    "decide.levels_us": "us",
    "decide.kernel_evals": "count",
    "decide.partitions_pruned": "count",
    "decide.prune_ratio": "ratio",
    "engine.census_s": "s",
    "pool.chunks": "count",
    "pool.busy_s": "s",
    "pool.idle_s": "s",
    "gc.minor_words": "words",
    "gc.promoted_words": "words",
    "gc.major_collections": "count",
    "sym.classes_s": "s",
    "sym.canon_ns": "ns",
    "sym.classes": "count",
    "sym.reduction": "ratio",
    "decide.reps_s": "s",
    "synth.evals": "count",
    "synth.sym_skips": "count",
    "synth.skip_ratio": "ratio",
    "kernel.patches": "count",
    "kernel.mask_reuse_ratio": "ratio",
    "synth.eval_p50_us": "us",
    "synth.eval_p99_us": "us",
    "api.request_decode_us": "us",
    "api.response_encode_us": "us",
    "serve.op_p50_ms": "ms",
    "serve.op_p99_ms": "ms",
    "serve.ops_per_s": "1/s",
    "serve.hit_p50_ms": "ms",
    "serve.cold_p50_ms": "ms",
    "serve.meta_p50_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.busy": "count",
    "serve.requests": "count",
    "store.find_us": "us",
    "store.put_us": "us",
    "store.hit_ratio": "ratio",
    "store.puts": "count",
    "store.dropped_puts": "count",
    "dist.spawn_s": "s",
    "dist.frame_us": "us",
    "dist.ledger_append_us": "us",
    "dist.leases_granted": "count",
    "dist.leases_stolen": "count",
    "dist.workers_respawned": "count",
    "dist.coordinator_cpu_s": "s",
    "dist.workers_cpu_s": "s",
    "self.engine_s": "s",
    "self.sym_s": "s",
    "self.synth_s": "s",
    "self.serve_s": "s",
    "self.dist_s": "s",
    "self.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Per-layer metric -> (raw sample series, percentile).
PERCENTILES = {
    "synth.eval_p50_us": ("synth.eval_us", 50),
    "synth.eval_p99_us": ("synth.eval_us", 99),
    "serve.op_p50_ms": ("serve.op_ms", 50),
    "serve.op_p99_ms": ("serve.op_ms", 99),
    "serve.hit_p50_ms": ("serve.hit_ms", 50),
    "serve.cold_p50_ms": ("serve.cold_ms", 50),
    "serve.meta_p50_ms": ("serve.meta_ms", 50),
}

MIN_SAMPLES = 3  # no end-to-end metric comes from fewer units than this

# Units of work per runner process in an untraced run.  On this benchmark's
# 2-vCPU host the same unit of work takes up to 1.5 times as long in one
# process as in another, while units of one process agree within a few
# percent (census-sym: 0.61-0.97 s across thirty processes, pairs within a
# process 0.02 s apart; ASLR off and CPU pinning did not change that), so a
# single-process run reads whatever the process drew.  A run therefore
# spreads its units over many short processes, and the median of their
# medians averages the draw out.
UNITS_PER_PROCESS = {
    "census": 1,
    "census-sym": 1,
    "serve-mix": 4,
    "synth": 1,
    "dist-census": 1,
}
MIN_PROCESSES = 3
MIN_BEYOND = 10  # a percentile needs this many samples above it
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170

BUILD_DIR = "_build/default"
RUNNER = "perfbench/perfbench.exe"
RCN = "bin/rcn.exe"


class BenchError(Exception):
    """A run that cannot produce a result."""


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-th percentile, refused unless at least `min_beyond`
    samples lie above it."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise BenchError(
            f"p{q} of {n} samples has {n - rank} above it; needs {min_beyond}")
    return sorted(values)[rank - 1]


def normalized(samples):
    """One process's samples plus the NORMALIZED series: each set-up's and
    unit's time times REFERENCE_S over the reference loop timed right
    before the process (its one `ref_s` sample)."""
    ref = samples.get("ref_s", [])
    if len(ref) != 1 or ref[0] <= 0:
        raise BenchError(f"a runner process needs one reference time, has {ref}")
    out = dict(samples)
    for key, name in NORMALIZED.items():
        out[name] = [v * REFERENCE_S / ref[0] for v in samples.get(key, [])]
    return out


def median_of(per_process, key):
    """Median over processes of each process's median of a sample series,
    refused below MIN_SAMPLES samples in all."""
    series = [s[key] for s in per_process if s.get(key)]
    if sum(map(len, series)) < MIN_SAMPLES:
        raise BenchError(
            f"{key}: {sum(map(len, series))} sample(s); an end-to-end metric needs {MIN_SAMPLES}")
    return statistics.median(statistics.median(v) for v in series)


def end_to_end_metrics(per_process):
    """`per_process`: one sample record per runner process."""
    return {
        name: {"value": median_of(per_process, key), "unit": unit}
        for name, (unit, key) in END_TO_END.items()
    }


def per_layer_metrics(samples, layers):
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in PERCENTILES:
            key, q = PERCENTILES[name]
            values = samples.get(key, [])
            value = percentile(values, q) if values else 0.0
        else:
            value = layers.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def result_line(record, metrics):
    """The last stdout line: exactly correct/attempted/failed/metrics."""
    for name in metrics:
        if not NAME_RE.match(name):
            raise BenchError(f"invalid metric name {name!r}")
    attempted, failed = int(record["attempted"]), int(record["failed"])
    return {
        "correct": attempted >= 1 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def source_digest(root):
    """MD5 over the tracked source of the program (lib, bin, dune-project)
    — the commit stand-in when the checkout is not a git repository."""
    h = hashlib.md5()
    paths = [os.path.join(root, "dune-project")]
    for top in ("lib", "bin"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            paths += [os.path.join(dirpath, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def host_facts(root, args):
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    commit = out(["git", "rev-parse", "HEAD"]) if os.path.isdir(
        os.path.join(root, ".git")) else ""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]) or out(["ocaml", "-vnum"]),
        "commit": commit or "none",
        "source_md5": source_digest(root),
        "loadavg_1m": os.getloadavg()[0],
    }


def build(root):
    if not all(os.path.exists(os.path.join(root, p))
               for p in ("dune-project", "lib", "bin", "perfbench/dune")):
        raise BenchError("no rcn source tree here (dune-project, lib/, bin/)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "perfbench", RUNNER, RCN],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("dune build failed")


def run_runner(root, args, seconds, units, index, deadline):
    """One runner process; its JSON record.  The first process of a run
    also makes the checks that take seconds (synth's comparison with the
    from-scratch search)."""
    work = os.path.join(root, ".bench_build", "perfbench",
                        f"{args.workload}-{os.getpid()}-{index}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(root, BUILD_DIR, RUNNER), "run", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--rcn", os.path.join(root, BUILD_DIR, RCN),
           "--dir", work]
    if units:
        cmd += ["--units", str(units)]
    if index == 0:
        cmd += ["--full-check", "1"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"runner exited {proc.returncode}")
    return json.loads(lines[-1])


def reference_time(root):
    """The reference loop, timed once in a process of its own."""
    proc = subprocess.run([os.path.join(root, BUILD_DIR, RUNNER), "reference"],
                          stdout=subprocess.PIPE, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"reference loop exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ref_s"]


def run_workload(root, args):
    """The run's runner records: one traced process, or untraced processes
    of UNITS_PER_PROCESS units each (at least MIN_PROCESSES), each right
    after a reference loop, until the seconds are spent — a process that
    would overrun them by more than half the median process length is not
    started."""
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    if args.trace:
        return [run_runner(root, args, args.seconds, None, 0, deadline)]
    records, lengths = [], []
    while (len(records) < MIN_PROCESSES
           or time.monotonic() + statistics.median(lengths) / 2 < start + args.seconds):
        t0 = time.monotonic()
        ref = reference_time(root)
        record = run_runner(root, args, 0, UNITS_PER_PROCESS[args.workload],
                            len(records), deadline)
        record["samples"]["ref_s"] = [ref]
        records.append(record)
        lengths.append(time.monotonic() - t0)
    return records


def merge(records):
    """Operation counts summed over the run's processes."""
    return {"attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "processes": len(records)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--keep", action="store_true",
                   help="keep the run's directory under .bench_build/perfbench "
                        "(spans.jsonl of a traced run, stores, ledgers)")
    args = p.parse_args(argv)
    root = os.getcwd()
    try:
        build(root)
        print("host " + json.dumps(host_facts(root, args)), flush=True)
        records = run_workload(root, args)
        totals = merge(records)
        facts = dict(records[0]["facts"], processes=totals["processes"])
        if args.trace:
            metrics = per_layer_metrics(records[0]["samples"], records[0]["layers"])
        else:
            per_process = [normalized(r["samples"]) for r in records]
            metrics = end_to_end_metrics(per_process)
            # The unscaled medians, as measured.
            for key in list(NORMALIZED) + ["ref_s"]:
                facts[key] = median_of(per_process, key)
        print("facts " + json.dumps(facts))
        print(json.dumps(result_line(totals, metrics)))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
