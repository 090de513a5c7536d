#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 1-10 --out bench/baseline/BENCH_seed.json

For every workload and seed it runs ``bench/run.py`` in a fresh process
(one at a time), then reports for each end-to-end metric the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound
from BENCHMARK.json.  ``--trace-seed`` adds one traced run per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, done.returncode, done.stderr))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            record, result, elapsed = run(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "elapsed_s": elapsed, "result": result,
                         "failures": record["failures"]})
            print("%-16s seed %3d  %5.1fs  correct=%s failed=%d/%d  %s" % (
                workload, seed, elapsed, result["correct"], result["failed"], result["attempted"],
                "  ".join("%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        entry = {"env": record["env"], "runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            entry["metrics"][name] = s
            print("    %-12s median %-12.6g spread %.4f  (bound %.2f, a third %.4f)%s" % (
                name, s["median"], s["spread"], bound, bound / 3.0,
                "" if s["spread"] < bound / 3.0 or name == "setup_s" else "  WIDE"), flush=True)
        if args.trace_seed is not None:
            record, result, elapsed = run(workload, args.trace_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "elapsed_s": elapsed, "result": result,
                               "per_call": record["per_call"], "layers": record["layers"]}
            print("    traced run %.1fs, overhead share %.3f" % (
                elapsed, result["metrics"]["trace.overhead_share"]["value"]), flush=True)
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
