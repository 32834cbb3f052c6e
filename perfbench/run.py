#!/usr/bin/env python3
"""Builds the hpamg library and the perfbench driver from this checkout, runs
one workload and prints its metrics as one JSON object on the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--small]

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics,
with the names and units BENCHMARK.json lists; a per-layer metric of a layer
the workload does not run reads 0. --small runs the workload on tiny inputs
(a quick check, not a measurement).
The build goes to .bench_build/perfbench (Release) and happens before any
timing. Run it from the root of the checkout.
"""
import argparse
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170

# OpenMP threads per team for each workload, capped by the host's cores.
# service_closed runs 2 workers of one thread each beside its 2 client
# threads: with 2-thread teams its latencies spread 4x wider from run to run.
# simmpi_fgmres runs 4 rank threads of one OpenMP thread each.
WORKLOADS = {
    "table2_oneshot": lambda nproc: min(4, nproc),
    "reservoir_resolve": lambda nproc: min(4, nproc),
    "service_closed": lambda nproc: 1,
    "simmpi_fgmres": lambda nproc: 1,
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("src/CMakeLists.txt", "src/amg/solver.hpp",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("the program's sources are absent (missing %s); run from a "
                 "full checkout of the repository" % need)
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=log, stderr=log)


def run_driver(args, threads):
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--small", "1" if args.small else "0"]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        # wait4 reports the driver's own peak RSS (kilobytes on Linux), apart
        # from the compiler processes the build ran.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_kb = usage.ru_maxrss
    if proc.returncode != 0:
        fail("workload %s exited with code %d%s" % (
            args.workload, proc.returncode,
            " (killed after %d s)" % RUN_TIMEOUT_S
            if proc.returncode < 0 else ""))
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("workload %s printed no result" % args.workload)
    return json.loads(lines[-1]), peak_kb


def shape_metrics(measured, trace):
    """The driver's {name: value} as BENCHMARK.json's list, with units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    extra = sorted(set(measured) - set(units))
    if extra:
        fail("the driver printed metrics BENCHMARK.json does not list: %s"
             % ", ".join(extra))
    out = {}
    for name, unit in units.items():
        if name not in measured and not trace:
            fail("the driver did not print the end-to-end metric %s" % name)
        out[name] = {"value": measured.get(name, 0.0), "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    nproc = len(os.sched_getaffinity(0))
    threads = WORKLOADS[args.workload](nproc)
    result, peak_kb = run_driver(args, threads)

    measured = result["metrics"]
    if not args.trace:
        measured["peak_rss_mb"] = peak_kb / 1024.0
    metrics = shape_metrics(measured, args.trace)
    env = dict(result.get("env", {}), nproc=nproc, workload=args.workload,
               seed=args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
