#!/usr/bin/env python3
"""Run the e2e benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 e2ebench/prove.py [--workloads publish,fabric] --seeds 1-10 \
        [--trace 0] [--out e2ebench/results/<name>.json]

Without ``--workloads`` it runs every workload of BENCHMARK.json.

For every workload and metric it prints the median over the seeds and the
spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged.
With ``--out`` it writes the values plus host metadata (nproc, rustc,
git revision) as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def host_metadata():
    def run(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "rustc": run(["rustc", "--version"]),
        "git_rev": run(["git", "rev-parse", "HEAD"]),
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    table = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in table}
    results = {"host": host_metadata(), "run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    failed = False
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            ok = proc.returncode == 0 and result is not None and result["correct"]
            failed |= not ok
            print(f"{workload} seed={seed} exit={proc.returncode} wall={wall:.1f}s correct={ok}", flush=True)
            if not ok:
                sys.stderr.write(proc.stderr[-2000:])
            runs.append({"seed": seed, "wall_s": round(wall, 2), "exit": proc.returncode, "result": result})
        summary = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
            if not values:
                continue
            med, sp = spread(values)
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and sp >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {workload:8} {name:38} median={med:<14.6g} spread={sp:7.4f} bound={bound}{flag}")
            summary[name] = {"median": med, "spread": sp, "bound": bound, "values": values}
        results["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
            f.write("\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
