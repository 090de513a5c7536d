#!/usr/bin/env python3
"""qedq benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload sim-events --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the workload's round of calls is repeated
until ``--seconds`` of round time have passed and the end-to-end metrics
are reported.  With ``--trace 1`` untraced and traced rounds alternate
(their ratio is the tracing overhead), then the per-layer probes run.
Every output is checked; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the run record (versions, checks, tail
percentiles), also written to ``bench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Workload-specific name of work_per_s, repeated in the run record.
WORK_ALIAS = {"arrivals": "sim_arrivals_per_s", "path-steps": "sim_steps_per_s",
              "queries": "queries_per_s"}


def import_library():
    """Import qedq from this checkout's src/, never from anywhere else."""
    if not (SRC / "qedq" / "__init__.py").is_file():
        sys.stderr.write("bench: no qedq sources at %s; run from a source checkout\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qedq
    if Path(qedq.__file__).resolve().parent != (SRC / "qedq").resolve():
        sys.stderr.write("bench: imported qedq from %s, not from %s\n" % (qedq.__file__, SRC))
        sys.exit(2)
    return qedq


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed, trace):
    import numpy
    import scipy
    import qedq
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "qedq": qedq.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "commit": git_commit(),
    }


def summary(samples):
    """Median, plus the highest ladder percentile with at least ten samples
    beyond it, plus the sample count."""
    import numpy as np
    n = len(samples)
    out = {"median": float(np.median(samples)), "n": n}
    tail = [p for p in LADDER if n * (1.0 - p / 100.0) >= 10.0]
    if tail and tail[-1] > 50.0:
        out["p"] = tail[-1]
        out["p_value"] = float(np.percentile(samples, tail[-1]))
    return out


def setup_probe(args):
    t0 = time.perf_counter()
    import_library()
    import workloads
    workloads.BUILDERS[args.workload](args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def setup_sample(args):
    """Time for a fresh interpreter to import qedq and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_round(workloads, plan, rnd):
    t0 = time.perf_counter()
    out, calls = workloads.run_round(plan, rnd)
    return out, time.perf_counter() - t0, calls


def best_round(calls):
    """Round time with every call at its fastest across the rounds.

    Contention from other tenants of the host only ever slows a call down,
    and it comes and goes within seconds, so this is the steadiest measure
    of the code's own cost; plain round times are kept in the run record.
    """
    return sum(min(c) for c in zip(*calls))


class Rounds:
    """Checks the outputs of every round of a run.

    A deterministic plan is checked in full on its first round, and every
    later round must repeat the first one's outputs exactly (compared by
    digest).  A plan that draws new seeds each round keeps a summary of
    every round, and its checks pool them at the end.
    """

    def __init__(self, workloads, plan, checks):
        self.workloads, self.plan, self.checks = workloads, plan, checks
        self.kept, self.digest, self.count, self.differ = [], None, 0, 0

    def add(self, out):
        self.count += 1
        if self.plan.summarise is not None:
            self.kept.append(self.plan.summarise(self.plan, out))
            return
        digest = self.workloads.fingerprint(out)
        if self.digest is None:
            self.digest = digest
            self.plan.check(self.plan, [out], self.checks)
        else:
            self.differ += digest != self.digest

    def finish(self):
        if self.plan.summarise is not None:
            self.plan.check(self.plan, self.kept, self.checks)
        elif self.count > 1:
            self.checks.add("rounds 2-%d repeat round 1's outputs" % self.count,
                            self.differ == 0, "%d differ" % self.differ)


def run_timed(args, workloads, plan, checks):
    rounds, walls, calls, setup = Rounds(workloads, plan, checks), [], [], []
    while not walls or sum(walls) < args.seconds:
        # Set-up samples are spread over the run: the host's speed changes
        # in phases of seconds, and one burst of samples would land in one.
        if sum(walls) >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(setup_sample(args))
        out, dt, call_s = timed_round(workloads, plan, len(walls))
        walls.append(dt)
        calls.append(call_s)
        rounds.add(out)
        del out
    rounds.finish()
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args))
    best = best_round(calls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": best,
        "work_per_s": plan.work / best,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {"setup_samples_s": setup, "round_s": walls, "median_round_s": statistics.median(walls),
              "work_unit": plan.work_unit, "work_per_round": plan.work,
              WORK_ALIAS[plan.work_unit]: metrics["work_per_s"]}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, record


def run_traced(args, workloads, plan, checks):
    import itertools
    import layers
    import spans

    tracer = spans.Tracer()
    rounds, plain, traced, differ = Rounds(workloads, plan, checks), [], [], 0
    first = None
    while not traced or sum(map(sum, plain + traced)) < args.seconds / 2.0:
        rnd = len(plain)
        out, _, call_s = timed_round(workloads, plan, rnd)
        plain.append(call_s)
        digest = workloads.fingerprint(out)
        rounds.add(out)
        del out
        with tracer:
            mark = tracer.mark()
            out, _, call_s = timed_round(workloads, plan, rnd)
        traced.append(call_s)
        if first is None:
            first = (mark, tracer.mark())
        del tracer.spans[first[1]:]     # keep the spans of the first traced round only
        differ += workloads.fingerprint(out) != digest
        del out
    rounds.finish()
    checks.add("traced rounds repeat the untraced rounds' outputs", differ == 0,
               "%d of %d differ" % (differ, len(traced)))

    metrics = {}
    totals = tracer.layer_totals(*first)
    for layer, t in totals.items():
        metrics[layer + ".self_s"] = (t["self_s"], "s")
        metrics[layer + ".calls"] = (t["calls"], "count")
    metrics["staffing.erlang_c_calls"] = (
        tracer.count_nested("exact", "erlang_c", "staffing", *first), "count")
    u, t = best_round(plain), best_round(traced)
    metrics["trace.overhead_share"] = ((t - u) / u, "share")

    samples = {}
    probe_start = time.perf_counter()
    with tracer:
        probe = layers.Probe(tracer, itertools.count(args.seed * 1000 + 1))
        for n_pass in itertools.count():
            for name, value in layers.probe_pass(probe, n_pass == 0):
                samples.setdefault(name, []).append(float(value))
            del tracer.spans[first[1]:]
            if time.perf_counter() - probe_start >= args.seconds / 2.0:
                break
    tails = {name: summary(vals) for name, vals in samples.items()}
    for name, s in tails.items():
        metrics[name] = (s["median"], layers.UNITS[name])

    OUT.mkdir(exist_ok=True)
    span_file = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    span_file.write_text(json.dumps(tracer.dump()))
    record = {"untraced_round_s": [sum(c) for c in plain],
              "traced_round_s": [sum(c) for c in traced], "layers": totals,
              "per_call": tails, "probe_passes": n_pass + 1, "round_spans": len(tracer.spans),
              "span_file": str(span_file.relative_to(ROOT))}
    return metrics, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sim-events", "sim-lockstep", "dimension-large", "dimension-small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    import_library()
    import workloads
    plan = workloads.BUILDERS[args.workload](args.seed)
    checks = workloads.Checks()
    if args.trace:
        metrics, record = run_traced(args, workloads, plan, checks)
    else:
        metrics, record = run_timed(args, workloads, plan, checks)

    failed = checks.failed
    record.update({
        "env": environment(args.workload, args.seed, args.trace),
        "seconds": args.seconds,
        "checks_attempted": checks.attempted, "checks_failed": len(failed),
        "failed_share": len(failed) / checks.attempted,
        "failures": failed,
        "known_defects_fixed": [c["name"] for c in checks.items if c["ok"] and c["known_defect"]],
        "checks": checks.items,
    })
    result = {"correct": checks.correct, "attempted": checks.attempted, "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1))
    print(json.dumps({k: v for k, v in record.items() if k != "checks"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
