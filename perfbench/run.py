#!/usr/bin/env python3
"""Build and run the benchmark; print its metrics and one JSON result line.

One run (from the repository root):

    python3 perfbench/run.py --workload wall-escrow --seed 1 --seconds 45 --trace 0

builds perfbench/bench.exe with dune inside this checkout, runs one
workload, and prints every metric with its unit.  The last line of standard
output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the run also writes the
benchmark's spans to perfbench/_out/ and prints each span's self time.  The
exit code is nonzero when the program fails to build or any check fails.

Repeat mode runs each workload of BENCHMARK.json (or the one named) once
per seed and prints, for every end-to-end metric, the median, the
quartiles and their spread against the metric's bound; it exits nonzero
if any spread is over its bound:

    python3 perfbench/run.py --repeat 10 [--workload W] [--seconds S]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join("perfbench", "_out")
WORKLOADS = ["des-flow", "wall-escrow", "wall-transfer"]

# The runtime's default GC settings, set explicitly so that an inherited
# OCAMLRUNPARAM cannot change what is measured: minor heap 256k words,
# space overhead 120.
GC_PARAMS = "s=256k,o=120"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(proc.returncode or 1)


def run_once(workload, seed, seconds, trace, echo=True):
    """Run bench.exe once; return (exit code, its JSON line as a dict)."""
    env = {k: v for k, v in os.environ.items() if k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}
    env["OCAMLRUNPARAM"] = GC_PARAMS
    proc = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", OUT],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: bench.exe printed no result\n")
        sys.exit(proc.returncode or 1)
    return proc.returncode, raw


# Per-layer metrics of layers a workload does not exercise: the result
# reports them as 0.  Any other metric bench.exe did not print fails the run.
WALL_ONLY = [
    "client.late_p50_us", "mailbox.depth_p99", "mailbox.exec_rtt_idle_us",
    "walfile.bytes_per_commit", "walfile.bytes_per_record",
    "walfile.append_us_per_record", "walfile.read_us_per_record",
    "cluster.replayed_records", "cluster.respawn_rest_ms", "cluster.cores_busy",
    "cluster.stats_ms", "trace.emit_ns", "trace.emit_bytes", "trace.merge_ms",
] + ["span.%s.self_ms" % c for c in [
    "Cluster.create", "Cluster.run_load", "Cluster.start_bg_load", "Cluster.exec",
    "Cluster.quiesce", "Cluster.stats", "Cluster.conserved_all", "Cluster.trace_jsonl",
    "Cluster.kill_site", "Cluster.respawn_site", "Cluster.stop", "Walfile.read",
    "Walfile.append", "Log_replay.views", "Shards.merged_events", "Trace.emit"]]
NOT_APPLICABLE = {
    # Not in BENCHMARK.json's workloads (see README), but runnable.
    "des-flow": set(WALL_ONLY),
    # No open-loop client, no background load.
    "wall-escrow": {
        "client.late_p50_us", "mailbox.depth_p99", "span.Cluster.start_bg_load.self_ms"},
    # No closed-loop run_load.
    "wall-transfer": {"span.Cluster.run_load.self_ms"},
}


def select(raw, wanted, workload):
    """The metrics BENCHMARK.json names, with their units checked."""
    out = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if m["name"] not in NOT_APPLICABLE[workload]:
                sys.stderr.write("perfbench: metric %s missing\n" % m["name"])
                sys.exit(1)
            got = {"value": 0, "unit": m["unit"]}
        if not isinstance(got["value"], (int, float)):
            sys.stderr.write("perfbench: metric %s is not a finite number\n" % m["name"])
            sys.exit(1)
        if got["unit"] != m["unit"]:
            sys.stderr.write("perfbench: metric %s in %s, BENCHMARK.json says %s\n"
                             % (m["name"], got["unit"], m["unit"]))
            sys.exit(1)
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def single(args):
    s = spec()
    build()
    code, raw = run_once(args.workload, args.seed, args.seconds, args.trace)
    wanted = s["end_to_end"] if args.trace == 0 else s["per_layer"]
    result = {
        "correct": bool(raw["correct"]) and code == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": select(raw, wanted, args.workload),
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


def repeat(args):
    s = spec()
    build()
    seconds = args.seconds if args.seconds is not None else s["run_seconds"]
    workloads = [args.workload] if args.workload else [w["name"] for w in s["workloads"]]
    bad = False
    for w in workloads:
        values = {m["name"]: [] for m in s["end_to_end"]}
        shares = set()
        for seed in range(1, args.repeat + 1):
            code, raw = run_once(w, seed, seconds, 0, echo=False)
            if code != 0 or not raw["correct"]:
                print("%s seed %d: checks failed" % (w, seed))
                bad = True
            shares.add((raw["failed"], raw["attempted"]) if raw["failed"] else 0)
            for name, m in select(raw, s["end_to_end"], w).items():
                values[name].append(m["value"])
        print("%s: %d runs of %s s, failed share %s" % (w, args.repeat, seconds, sorted(shares)))
        print("  %-24s %14s %14s %14s %8s %6s"
              % ("metric", "q1", "median", "q3", "spread", "bound"))
        for m in s["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            sp = (q3 - q1) / med if med else float("inf")
            if sp <= m["bound"] / 3:
                flag = ""
            elif sp <= m["bound"]:
                flag = " over 1/3 bound"
            else:
                flag = " OVER BOUND"
            if sp > m["bound"]:
                bad = True
            print("  %-24s %14.6g %14.6g %14.6g %8.4f %6.2f%s"
                  % (m["name"], q1, med, q3, sp, m["bound"], flag))
            print("  %-24s %s" % ("", " ".join("%.4g" % x for x in v)))
    sys.exit(1 if bad else 0)


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0, help="runs per workload, seeds 1..N")
    args = p.parse_args()
    if args.repeat:
        repeat(args)
    else:
        if args.workload is None:
            p.error("--workload is required")
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        single(args)


if __name__ == "__main__":
    main()
