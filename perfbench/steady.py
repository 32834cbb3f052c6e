#!/usr/bin/env python3
"""Steadiness check and self-test for perfbench.

    python3 perfbench/steady.py --workload <name> [--seed0 N]
    python3 perfbench/steady.py --small

The first form runs one workload ten times at BENCHMARK.json's run_seconds,
each run a separate process with its own seed (seed0, seed0 + 1, ...), and
prints for every end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. The
quartiles are those of Python's statistics.quantiles(values, n=4). It fails
when a spread exceeds its bound, setup_s included, or when the share of
failed operations differs between runs. A second set of ten runs with other
seeds (--seed0 11) shows whether two sets agree.

The second form is the benchmark's own test: every workload on tiny inputs,
untraced and traced, checking that each run exits 0, reports correct
outputs and no failed operation, prints exactly the metric names that
BENCHMARK.json lists, and reads nonzero on every per-layer metric of the
layers that workload runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
RUNS = 10

# Per-layer metrics (by name or by "layer." prefix) each workload measures.
# A traced run prints every per-layer name and 0 for layers it does not run,
# so the self-test checks that these read nonzero.
SHAPE = ["amg.levels", "amg.operator_complexity", "amg.grid_complexity",
         "amg.hier_bytes"]
OWN_LAYERS = {
    "table2_oneshot": ["amg.", "matrix.", "spgemm.", "base.", "fig5."],
    "reservoir_resolve": ["amg.", "matrix.", "spgemm.", "krylov.",
                          "multivector."],
    "service_closed": ["amg.", "matrix.", "spgemm.", "multivector.",
                       "service."],
    "simmpi_fgmres": ["dist."] + SHAPE,
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, small=False):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        cmd.append("--small")
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit("%s seed %d exited with code %d" %
                         (workload, seed, p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def steadiness(workload, seed0):
    bench = spec()
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    shares = set()
    for i in range(RUNS):
        seed = seed0 + i
        t0 = time.monotonic()
        r = run_once(workload, seed, bench["run_seconds"], 0)
        elapsed = time.monotonic() - t0
        if not r["correct"]:
            raise SystemExit("%s seed %d: outputs incorrect" % (workload, seed))
        shares.add((r["failed"], r["attempted"]) if r["failed"] else 0)
        row = []
        for m in metrics:
            v = r["metrics"][m["name"]]["value"]
            values[m["name"]].append(v)
            row.append("%s=%.6g" % (m["name"], v))
        print("run %2d seed %d (%.1f s): %s" % (i + 1, seed, elapsed,
                                              " ".join(row)), flush=True)
    print("\n%-14s %12s %12s %12s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    worst = 0.0
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-14s %12.6g %12.6g %12.6g %8.4f %8.3f" %
              (m["name"], med, q1, q3, spread, m["bound"]))
        worst = max(worst, spread / m["bound"])
    print("\nlargest spread / bound: %.3f" % worst)
    if len(shares) > 1:
        print("failed share differs between runs: %s" % sorted(map(str, shares)))
        return 1
    return 0 if worst <= 1.0 else 1


def own(workload, name):
    return any(name == p or (p.endswith(".") and name.startswith(p))
               for p in OWN_LAYERS[workload])


def selftest():
    bench = spec()
    want = {0: {m["name"] for m in bench["end_to_end"]},
            1: {m["name"] for m in bench["per_layer"]}}
    bad = 0
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            r = run_once(w, 1, 1, trace, small=True)
            got = set(r["metrics"])
            zero = sorted(n for n, m in r["metrics"].items()
                          if m["value"] == 0 and (trace == 0 or own(w, n)))
            ok = (r["correct"] and r["failed"] == 0 and r["attempted"] > 0
                  and got == want[trace] and not zero)
            print("%-18s trace=%d attempted=%-5d %s" %
                  (w, trace, r["attempted"], "ok" if ok else "FAILED"))
            if got != want[trace]:
                print("  metric names differ: missing %s, extra %s" %
                      (sorted(want[trace] - got), sorted(got - want[trace])))
            if zero:
                print("  metrics of layers the workload runs read 0: %s" %
                      ", ".join(zero))
            bad += not ok
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed0", type=int, default=1,
                    help="seed of the first of the ten runs (default 1)")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()
    if args.small:
        return selftest()
    if not args.workload:
        ap.error("--workload or --small is required")
    return steadiness(args.workload, args.seed0)


if __name__ == "__main__":
    sys.exit(main())
