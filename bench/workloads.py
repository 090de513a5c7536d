"""The four benchmark workloads: their inputs, their calls and their checks.

A workload is a ``Plan``: a fixed list of public-API calls made one after
another by a single caller (a closed loop), the amount of work those
calls represent, and a ``check`` that compares the outputs with
references.  Inputs come from the workload seed only: the dimensioning
workloads repeat the same calls every round, and the simulation
workloads derive each round's seeds from the workload seed and the
round number.  The library receives nothing but the generated arguments.  Functions are looked up
on their module at call time, so a tracer that rebinds them sees every
call.

Work counts are derived from the inputs (arrivals = lam * horizon *
replications, path-steps = horizon / step * paths) or from returned
values (path lengths), never from inside the library.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import optimize, special as sps

import qedq
from qedq import (BulkModel, DiffusionModel, QueueModel, SimConfig, SinusoidRate,
                  TimeVaryingModel)

# The paper's Table 1 as printed: s -> (alpha, lower, exact, upper, refined).
TABLE1 = {
    1: (0.830, 0.36571, 0.38197, 0.39437, 0.45085),
    2: (0.879, 0.32678, 0.33333, 0.33936, 0.36395),
    5: (0.924, 0.28886, 0.29097, 0.29328, 0.30185),
    10: (0.946, 0.26937, 0.27030, 0.27142, 0.27540),
    20: (0.962, 0.25565, 0.25608, 0.25663, 0.25851),
    50: (0.976, 0.24361, 0.24377, 0.24398, 0.24470),
    100: (0.983, 0.23761, 0.23769, 0.23779, 0.23814),
    200: (0.988, 0.23340, 0.23344, 0.23349, 0.23366),
    500: (0.993, 0.22969, 0.22970, 0.22972, 0.22979),
    1000: (0.995, 0.22783, 0.22783, 0.22784, 0.22788),
}
# Published limit values: g(beta) and the Gaussian-walk constants.
G_BETA = {0.1: 0.880287, 0.5: 0.504539, 1.0: 0.223361}
WALK = {1.0: (0.800543, 0.126373), 0.5: (0.529325, 0.532063), 0.1: (0.133419, 4.44199)}

Z_CHECK = 5.0          # simulation estimates must lie within 5 standard errors
MOL_BAND = 0.07        # criterion 9 band around epsilon
HW_BAND = 0.01         # criterion 8 band around g(beta)


def ladder_lam(s: float) -> float:
    """Arrival rate that puts s servers at beta = 1 (Table 1)."""
    return ((-1.0 + math.sqrt(1.0 + 4.0 * s)) / 2.0) ** 2


def sinusoid_mass(rate: SinusoidRate, t0: float, t1: float) -> float:
    """Integral of base + amplitude sin(omega t + phase) over [t0, t1]."""
    w = rate.omega
    return (rate.base * (t1 - t0)
            + rate.amplitude / w * (math.cos(w * t0 + rate.phase) - math.cos(w * t1 + rate.phase)))


def g_ref(beta: float) -> float:
    """Halfin-Whitt delay probability, written out independently of qedq.qed."""
    pdf = math.exp(-0.5 * beta * beta) / math.sqrt(2.0 * math.pi)
    return pdf / (pdf + beta * float(sps.ndtr(beta)))


def beta_ref(eps: float) -> float:
    return optimize.brentq(lambda b: g_ref(b) - eps, 1e-9, 50.0, xtol=1e-14)


class Fresh(NamedTuple):
    """An argument built anew for every round from the round number, such
    as a simulation config whose seed is derived from the workload seed and
    the round, so that every round draws new sample paths."""

    make: Callable    # make(round) -> argument


def round_seed(base: int, rnd: int) -> int:
    return int(np.random.SeedSequence([base, rnd]).generate_state(1)[0])


def sim_config(model, horizon: float, warmup: float, reps: int, base: int) -> Fresh:
    return Fresh(lambda rnd: SimConfig(model, horizon, warmup, reps, round_seed(base, rnd)))


class Call(NamedTuple):
    key: str
    module: str       # qedq layer module the function lives on
    func: str
    args: tuple = ()


@dataclass
class Plan:
    """``check(plan, rounds, checks)`` gets a list of rounds.  A plan without
    ``summarise`` is deterministic: every round must repeat the first, and
    the list holds the first round's outputs only.  A plan with
    ``summarise`` draws new seeds each round; the list holds
    ``summarise(plan, outputs)`` of every round, and the checks pool them."""

    calls: list
    work: float                   # work items in one round
    work_unit: str
    check: Callable
    summarise: Callable | None = None
    data: dict = field(default_factory=dict)


def run_call(call: Call, rnd: int = 0):
    """Make one call; a CLI call returns its exit code and captured stdout."""
    fn = getattr(importlib.import_module("qedq." + call.module), call.func)
    args = [a.make(rnd) if isinstance(a, Fresh) else a for a in call.args]
    if call.module == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = fn(args)
        return code, buf.getvalue()
    return fn(*args)


def run_round(plan: Plan, rnd: int) -> tuple:
    """Issue every call of the plan in order, each after the previous
    returned; return the outputs and each call's wall time."""
    outputs, seconds = {}, []
    clock = time.perf_counter
    for call in plan.calls:
        t0 = clock()
        outputs[call.key] = run_call(call, rnd)
        seconds.append(clock() - t0)
    return outputs, seconds


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(repr(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for x in obj:
            _feed(h, x)
        h.update(b")")
    elif is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in fields(obj)})
    else:
        h.update(repr(obj).encode())


def fingerprint(outputs: dict) -> str:
    h = hashlib.sha256()
    _feed(h, outputs)
    return h.hexdigest()


class Checks:
    """Outcome of every output check.  A check tied to a known library
    defect still counts as failed, but does not make the run incorrect;
    if it passes, the defect is reported as apparently fixed."""

    def __init__(self):
        self.items: list = []

    def add(self, name: str, ok: bool, detail: str = "", known_defect: str | None = None):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail,
                           "known_defect": known_defect})

    def within(self, name: str, got: float, ref: float, tol: float, **kw):
        ok = math.isfinite(got) and abs(got - ref) <= tol
        self.add(name, ok, "got %.9g ref %.9g tol %.3g" % (got, ref, tol), **kw)

    def estimate(self, name: str, est, ref: float, note: str = "", **kw):
        """Simulation estimate within Z_CHECK standard errors of a reference."""
        tol = Z_CHECK * est.stderr
        ok = math.isfinite(est.point) and math.isfinite(tol) and abs(est.point - ref) <= tol
        self.add(name, ok, "got %.6g +- %.2g ref %.6g (%.2f se)%s" % (
            est.point, est.stderr, ref,
            abs(est.point - ref) / est.stderr if est.stderr > 0 else math.inf, note), **kw)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> list:
        return [c for c in self.items if not c["ok"]]

    @property
    def correct(self) -> bool:
        return all(c["ok"] or c["known_defect"] for c in self.items)


def _jitter(rng: np.random.Generator, x: float, width: float = 0.01) -> float:
    return float(x * (1.0 + width * (2.0 * rng.random() - 1.0)))


def _seeds(rng: np.random.Generator, n: int) -> list:
    return [int(x) for x in rng.integers(1, 2 ** 31 - 1, size=n)]


class Pooled(NamedTuple):
    point: float
    stderr: float


def pool(ests: list) -> Pooled:
    """Mean of equal-size per-round estimates, with its standard error."""
    return Pooled(float(np.mean([e.point for e in ests])),
                  math.sqrt(sum(e.stderr ** 2 for e in ests)) / len(ests))


def pool_reps(values: np.ndarray) -> Pooled:
    """Mean of single-replication values, with its standard error."""
    return Pooled(float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values))))


# ---------------------------------------------------------------- sim-events

MOL_CALLS = 10          # single-replication profiles per round


def build_sim_events(seed: int) -> Plan:
    rng = np.random.default_rng([seed, 1])
    sd = _seeds(rng, 5 + MOL_CALLS)
    mms = QueueModel(lam=ladder_lam(100), s=100)
    mmsm = QueueModel(lam=1.0, s=2, theta=1.0)
    mmsn = QueueModel(lam=10.0, s=12, n=16)
    # (model, horizon, warm-up, single-replication calls, metrics).
    # Simulations start empty; at the M/M/s point 15 time units of warm-up
    # leave no bias that shows at 2000 replications, where 5 leave -3 % in
    # delay_prob.
    runs = {"mms": (mms, 30.0, 15.0, 4, ["delay_prob", "mean_delay", "mean_queue"]),
            "mmsm": (mmsm, 800.0, 20.0, 5, ["delay_prob", "abandon_prob", "mean_queue", "mean_delay"]),
            "mmsn": (mmsn, 80.0, 5.0, 5, ["delay_prob", "block_prob", "mean_queue", "mean_delay"])}

    rate = SinusoidRate(30.0, 20.0, 24.0)
    mu, eps = 0.5, 0.3
    # Half a period (six mean service times) of pre-roll: the start-up
    # transient has decayed to e^-6 of its size when the 12 measured hours begin.
    warmup = 12.0
    horizon = warmup + 12.0
    mol = qedq.mol_schedule(rate, mu, eps, np.arange(0.0, horizon, 0.25))
    mt = TimeVaryingModel(rate=rate, schedule=mol, mu=mu)
    h_path = 5.0
    h_nhpp = 48.0

    # One replication per call: short calls are more often timed free of
    # interference, and the checks see every replication's own estimate.
    calls = [Call("%s%d" % (key, i), "sim", "simulate",
                  (sim_config(model, h, w, 1, round_seed(sd[k], i)), names))
             for k, (key, (model, h, w, n, names)) in enumerate(runs.items())
             for i in range(n)]
    calls += [Call("mol%d" % b, "sim", "time_varying_delay_profile",
                   (sim_config(mt, horizon, warmup, 1, sd[5 + b]), 1.0))
              for b in range(MOL_CALLS)]
    calls += [
        Call("path", "sim", "sample_path", (sim_config(mms, h_path, 0.0, 1, sd[3]),)),
        Call("nhpp", "sim", "nhpp_arrivals",
             (rate, h_nhpp, Fresh(lambda rnd, s=sd[4]: np.random.default_rng([s, rnd])))),
    ]
    arrivals = (sum(model.lam * h * n for model, h, _, n, _ in runs.values())
                + sinusoid_mass(rate, 0.0, horizon) * MOL_CALLS
                + mms.lam * h_path + sinusoid_mass(rate, 0.0, h_nhpp))
    return Plan(calls, arrivals, "arrivals", check_sim_events, summarise_sim_events,
                {"runs": runs, "rate": rate, "eps": eps, "h_nhpp": h_nhpp})


def summarise_sim_events(plan: Plan, out: dict) -> dict:
    """Keep each replication's estimates and per-bin counts; reduce the
    sample path and the arrival epochs to their checks."""
    mms = plan.data["runs"]["mms"][0]
    path, epochs, h = out["path"], out["nhpp"], plan.data["h_nhpp"]
    profs = [out["mol%d" % b] for b in range(MOL_CALLS)]
    return {
        # per replication and metric: the estimate
        **{key: np.array([[out["%s%d" % (key, i)][name].point for name in names] for i in range(n)])
           for key, (_, _, _, n, names) in plan.data["runs"].items()},
        # per replication and bin: delayed arrivals, arrivals
        "mol": np.array([[p.delay_prob * p.arrivals, p.arrivals] for p in profs]),
        "path_ok": bool(path.values[0] == mms.s and np.all(np.diff(path.times) >= 0.0)
                        and np.all(np.abs(np.diff(path.values)) <= 1.0)
                        and np.all(path.values >= 0.0)),
        "nhpp_n": len(epochs),
        "nhpp_ok": bool(np.all(np.diff(epochs) >= 0.0) and np.all((epochs >= 0.0) & (epochs <= h))),
    }


def check_sim_events(plan: Plan, rounds: list, ck: Checks) -> None:
    def est(key, name):
        column = plan.data["runs"][key][4].index(name)
        return pool_reps(np.concatenate([r[key][:, column] for r in rounds]))

    mms, mmsm, mmsn = (plan.data["runs"][key][0] for key in ("mms", "mmsm", "mmsn"))
    m = qedq.mms_measures(mms)
    for name in ("delay_prob", "mean_delay", "mean_queue"):
        ck.estimate("mms %s vs exact" % name, est("mms", name), getattr(m, name))
    a = qedq.erlang_a_measures(mmsm)
    for name in ("delay_prob", "abandon_prob", "mean_queue"):
        ck.estimate("mmsm %s vs exact" % name, est("mmsm", name), getattr(a, name))
    ck.estimate("mmsm mean_delay vs erlang_a_measures", est("mmsm", "mean_delay"), a.mean_delay,
                known_defect="simulator averages the wait over served jobs, erlang_a_measures "
                             "over all arrivals (ROADMAP item 4)")
    n = qedq.mmsn_measures(mmsn)
    for name in ("delay_prob", "block_prob", "mean_queue", "mean_delay"):
        ck.estimate("mmsn %s vs exact" % name, est("mmsn", name), getattr(n, name))

    # MOL delay profile: the criterion 9 band, widened by this run's sampling
    # error.  Each bin's estimate is a ratio (delayed / arrivals) over the
    # replications; its standard error is the ratio estimator's.
    eps = plan.data["eps"]
    mol = np.concatenate([r["mol"] for r in rounds])
    delayed, arrivals = mol[:, 0], mol[:, 1]
    n_rep = len(mol)
    pooled = delayed.sum(axis=0) / arrivals.sum(axis=0)
    resid = ((delayed - pooled * arrivals) ** 2).sum(axis=0) * n_rep / (n_rep - 1)
    se = np.sqrt(resid) / arrivals.sum(axis=0)
    dev = np.abs(pooled - eps)
    excess = float(np.max((dev - MOL_BAND) / np.maximum(se, 1e-12)))
    ck.add("mol profile within %.2f of epsilon, up to %g se" % (MOL_BAND, Z_CHECK),
           excess <= Z_CHECK, "max dev %.4f over %d bins and %d replications, worst excess %.2f se"
           % (dev.max(), len(dev), n_rep, excess))

    ck.add("mms sample path is a unit-jump path from s",
           all(r["path_ok"] for r in rounds), "%d rounds" % len(rounds))
    count = sum(r["nhpp_n"] for r in rounds)
    mass = sinusoid_mass(plan.data["rate"], 0.0, plan.data["h_nhpp"]) * len(rounds)
    ck.add("nhpp arrival count within 5 sd of the rate integral, epochs ordered in range",
           abs(count - mass) <= Z_CHECK * math.sqrt(mass) and all(r["nhpp_ok"] for r in rounds),
           "%d arrivals, mean %.1f" % (count, mass))


# -------------------------------------------------------------- sim-lockstep

def build_sim_lockstep(seed: int) -> Plan:
    rng = np.random.default_rng([seed, 2])
    sd = _seeds(rng, 5)
    step = 1e-3
    paths = 200
    h_hw, w_hw = 20.0, 5.0
    bulk = BulkModel(lam=4.0, s=5)
    bulk_reps = 16
    periods, bulk_warm = 30_000, 1000
    h_path_hw = 25.0
    h_path_bulk = 2.5e5
    betas = (0.5, 1.0)
    calls = [Call("hw%g" % b, "sim", "simulate",
                  (sim_config(DiffusionModel(beta=b, step=step), h_hw, w_hw, paths, sd[i]),
                   ["frac_above_zero"]))
             for i, b in enumerate(betas)]
    calls += [
        Call("bulk", "sim", "simulate",
             (sim_config(bulk, periods, bulk_warm, bulk_reps, sd[2]), ["p_empty", "mean_queue"])),
        Call("path_hw", "sim", "sample_path",
             (sim_config(DiffusionModel(beta=1.0, step=step), h_path_hw, 0.0, 1, sd[3]),)),
        Call("path_bulk", "sim", "sample_path", (sim_config(bulk, h_path_bulk, 0.0, 1, sd[4]),)),
    ]
    steps = (len(betas) * round(h_hw / step) * paths + periods * bulk_reps
             + round(h_path_hw / step) + round(h_path_bulk))
    return Plan(calls, float(steps), "path-steps", check_sim_lockstep, summarise_sim_lockstep,
                {"betas": betas, "bulk": bulk, "n_hw": round(h_path_hw / step),
                 "n_bulk": round(h_path_bulk)})


def summarise_sim_lockstep(plan: Plan, out: dict) -> dict:
    """Keep the estimates; reduce the sample paths to their checks."""
    d = plan.data
    hw, bulk = out["path_hw"].values, out["path_bulk"].values
    return {
        **{"hw%g" % b: out["hw%g" % b] for b in d["betas"]}, "bulk": out["bulk"],
        "path_hw_ok": bool(len(hw) == d["n_hw"] and np.all(np.isfinite(hw))),
        "path_bulk_ok": bool(len(bulk) == d["n_bulk"] and np.all(bulk >= 0.0)
                             and np.all(bulk == np.round(bulk))
                             and np.all(np.diff(bulk) >= -d["bulk"].s)),
    }


def check_sim_lockstep(plan: Plan, rounds: list, ck: Checks) -> None:
    # Criterion 8 holds the diffusion to 0.01 of g(beta) over 1e5 time units;
    # a run may simulate less, so the estimate is held to Z_CHECK standard
    # errors and its deviation reported.
    for b in plan.data["betas"]:
        est = pool([r["hw%g" % b]["frac_above_zero"] for r in rounds])
        ck.estimate("diffusion beta=%g frac_above_zero vs g(beta)" % b, est, g_ref(b),
                    note="; criterion 8 band %.2f, deviation %.4f" % (HW_BAND, abs(est.point - g_ref(b))))
    st = qedq.bulk_stationary(plan.data["bulk"])
    ck.estimate("bulk p_empty vs series", pool([r["bulk"]["p_empty"] for r in rounds]), st.p_empty)
    ck.estimate("bulk mean_queue vs series", pool([r["bulk"]["mean_queue"] for r in rounds]),
                st.mean_queue)
    ck.add("diffusion sample path has one finite value per step",
           all(r["path_hw_ok"] for r in rounds), "%d rounds" % len(rounds))
    ck.add("bulk sample path is a reflected walk with capacity s",
           all(r["path_bulk_ok"] for r in rounds), "%d rounds" % len(rounds))


# ----------------------------------------------------------- dimension-large

def build_dimension_large(seed: int) -> Plan:
    rng = np.random.default_rng([seed, 3])
    eps, r = 0.2, 1.0
    lams = [_jitter(rng, x) for x in (1e4, 1e5, 3e5)]
    exhaustive = [_jitter(rng, x) for x in (1e3, 3e3)]
    scale = _jitter(rng, 10.0)
    rate = SinusoidRate(30.0 * scale, 20.0 * scale, 24.0)
    mu, psa_eps = 0.5, 0.3
    grid = np.arange(0.0, 24.0, 0.125)
    lam_bd = _jitter(rng, 1e5)
    s_bd = int(round(lam_bd + math.sqrt(lam_bd)))
    erlang_a = QueueModel(lam=lam_bd, s=s_bd, theta=1.0)
    mmsn = QueueModel(lam=lam_bd, s=s_bd, n=s_bd + int(round(2.0 * math.sqrt(s_bd))))
    heavy = QueueModel(lam=100.0 * (1.0 - 1e-5), s=100)

    calls = []
    for lam in lams:
        calls += [Call("staff_exact@%g" % lam, "staffing", "staff_exact", (lam, eps)),
                  Call("staff_qed@%g" % lam, "staffing", "staff_qed", (lam, eps)),
                  Call("cost_qed@%g" % lam, "staffing", "cost_qed", (lam, r)),
                  Call("cost_refined@%g" % lam, "staffing", "cost_refined", (lam, r))]
    calls += [Call("cost_exhaustive@%g" % lam, "staffing", "cost_exhaustive", (lam, r))
              for lam in exhaustive]
    calls += [
        Call("psa", "timevarying", "psa_schedule", (rate, mu, psa_eps, grid)),
        Call("erlang_a", "exact", "erlang_a_measures", (erlang_a,)),
        Call("mmsn", "exact", "mmsn_measures", (mmsn,)),
        Call("mms_heavy", "exact", "mms_measures", (heavy,)),
    ]
    return Plan(calls, float(len(calls)), "queries", check_dimension_large,
                data={"lams": lams, "eps": eps, "r": r, "exhaustive": exhaustive, "rate": rate,
                 "mu": mu, "psa_eps": psa_eps, "grid": grid, "erlang_a": erlang_a,
                 "mmsn": mmsn, "heavy": heavy})


def _check_staff_exact(ck: Checks, lam: float, eps: float, sol) -> None:
    c = qedq.erlang_c(sol.s, lam)
    below = sol.s - 1 <= lam or qedq.erlang_c(sol.s - 1, lam) > eps
    ck.add("staff_exact(%g, %g) minimal: C(s) <= eps < C(s-1)" % (lam, eps),
           c <= eps and below and abs(sol.achieved - c) <= 1e-9 * c, "s=%d C(s)=%.6g" % (sol.s, c))


def _check_cost_near_optimal(ck: Checks, name: str, lam: float, r: float, s: int,
                             cost: Callable) -> None:
    """|s - s*| <= 1 for the integer cost minimizer s*, by convexity of the
    cost in s: it must not rise from s-2 to s-1 nor fall from s+1 to s+2."""
    lo_ok = s - 2 <= lam or cost(s - 1) <= cost(s - 2)
    ck.add("%s(%g, %g) within 1 of the cost minimizer" % (name, lam, r),
           lo_ok and cost(s + 2) >= cost(s + 1), "s=%d" % s)


def check_dimension_large(plan: Plan, rounds: list, ck: Checks) -> None:
    d, out = plan.data, rounds[0]
    eps, r = d["eps"], d["r"]
    for lam in d["lams"]:
        ex = out["staff_exact@%g" % lam]
        _check_staff_exact(ck, lam, eps, ex)
        q = out["staff_qed@%g" % lam].s
        ck.add("|staff_qed - staff_exact| <= 1 at lam=%g" % lam, abs(q - ex.s) <= 1,
               "%d vs %d" % (q, ex.s))
        cost = functools.cache(lambda k, lam=lam: qedq.staffing_cost(k, lam, r))
        for rule in ("cost_qed", "cost_refined"):
            _check_cost_near_optimal(ck, rule, lam, r, out["%s@%g" % (rule, lam)].s, cost)
    for lam in d["exhaustive"]:
        best = out["cost_exhaustive@%g" % lam]
        cost = functools.cache(lambda k, lam=lam: qedq.staffing_cost(k, lam, r))
        ck.add("cost_exhaustive(%g, %g) is the minimizer" % (lam, r),
               (best - 1 <= lam or cost(best - 1) >= cost(best)) and cost(best + 1) >= cost(best),
               "s=%d" % best)

    sched = out["psa"]
    want = [qedq.staff_exact(float(x) / d["mu"], d["psa_eps"]).s
            for x in d["rate"].rate(_mids(d["grid"]))]
    ck.add("psa level equals staff_exact in every cell", list(sched.levels) == want,
           "%d cells" % len(want))

    m, model = out["erlang_a"], d["erlang_a"]
    beta = (model.s - model.lam) / math.sqrt(model.lam)
    lim = qedq.erlang_a_qed_limits(beta, model.theta)
    ck.within("erlang_a delay_prob vs QED limit", m.delay_prob, lim.delay_prob, 0.02)
    ck.within("erlang_a distribution mass", float(m.pi.sum()) + m.tail_mass, 1.0, 1e-9)
    m, model = out["mmsn"], d["mmsn"]
    gamma = (model.n - model.s) / math.sqrt(model.s)
    ck.within("mmsn delay_prob vs two-fold QED limit", m.delay_prob,
              qedq.finite_buffer_delay_limit(beta, gamma), 0.02)
    ck.within("mmsn distribution mass", float(m.pi.sum()), 1.0, 1e-9)
    m, model = out["mms_heavy"], d["heavy"]
    ck.within("heavy-traffic mms mean_queue vs C rho/(1-rho)", m.mean_queue / (
        m.delay_prob * model.rho / (1.0 - model.rho)), 1.0, 1e-6)
    ck.within("heavy-traffic mms delay_prob vs erlang_c", m.delay_prob,
              qedq.erlang_c(model.s, model.load), 1e-9)


# ----------------------------------------------------------- dimension-small

README_CLI = (
    ("analyze_mms", ("analyze", "--model", "mms", "--lambda", "7.29844", "--servers", "10")),
    ("analyze_mmsm", ("analyze", "--model", "mmsm", "--lambda", "1", "--servers", "2", "--theta", "1")),
    ("analyze_bulk", ("analyze", "--model", "bulk", "--lambda", "4", "--servers", "5")),
    ("staff_qed", ("staff", "--lambda", "100", "--epsilon", "0.2233613", "--rule", "qed")),
    ("staff_cost", ("staff", "--lambda", "100", "--cost-ratio", "1", "--rule", "all")),
    ("staff_sigma", ("staff", "--lambda", "100", "--sigma", "10", "--epsilon", "0.158655")),
    ("table1", ("table1",)),
)


def build_dimension_small(seed: int) -> Plan:
    rng = np.random.default_rng([seed, 4])
    lams = [_jitter(rng, x) for x in (10.0, 100.0, 500.0)]
    epss = [round(float(e), 2) for e in np.arange(0.05, 0.951, 0.05)]
    ratios = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
    calls = []
    for lam in lams:
        for e in epss:
            calls += [Call("staff_exact@%g,%g" % (lam, e), "staffing", "staff_exact", (lam, e)),
                      Call("staff_qed@%g,%g" % (lam, e), "staffing", "staff_qed", (lam, e))]
        for r in ratios:
            calls += [Call("cost_qed@%g,%g" % (lam, r), "staffing", "cost_qed", (lam, r)),
                      Call("cost_exhaustive@%g,%g" % (lam, r), "staffing", "cost_exhaustive", (lam, r)),
                      Call("cost_refined@%g,%g" % (lam, r), "staffing", "cost_refined", (lam, r))]
        for sigma in (0.0, math.sqrt(lam), 0.1 * lam):
            calls.append(Call("uncertain@%g,%g" % (lam, sigma), "staffing", "staff_uncertain",
                              (lam, sigma, 0.158655)))
    for s in TABLE1:
        lam = ladder_lam(s)
        calls += [Call("bounds@%d" % s, "qed", "qed_bounds", (s, lam)),
                  Call("erlang_c@%d" % s, "exact", "erlang_c", (s, lam)),
                  Call("corrected@%d" % s, "qed", "corrected_delay_prob", (s, lam))]
    calls += [Call("g@%g" % b, "qed", "qed_delay_prob", (b,)) for b in G_BETA]
    calls += [Call("walk@%g" % b, "bulk", "gaussian_walk_max", (b,)) for b in WALK]
    bulk_points = ((4.0, 5), (1.0, 2), (7.29844, 10), (10.0, 12))
    calls += [Call("bulk@%g,%d" % (lam, s), "bulk", "bulk_stationary", (BulkModel(lam=lam, s=s),))
              for lam, s in bulk_points]
    xs = np.linspace(-6.0, 6.0, 61)
    calls += [Call("quantile@%d" % i, "special", "normal_quantile", (float(sps.ndtr(x)),))
              for i, x in enumerate(xs)]
    means, cs = (0.5, 1.0, 4.0, 20.0), range(0, 101, 10)
    calls += [Call("tail@%g,%d" % (m, c), "special", "poisson_tail", (m, c)) for m in means for c in cs]
    calls += [Call("plus@%g,%d" % (m, c), "bulk", "pois_plus_stats", (m, c)) for m in means for c in cs]
    rate, mu = SinusoidRate(30.0, 20.0, 24.0), 0.5
    psa_grid = np.arange(0.0, 26.0, 0.25)
    mol_grid = np.arange(0.0, 50.0, 0.25)
    for e in (0.1, 0.3, 0.5):
        calls += [Call("psa@%g" % e, "timevarying", "psa_schedule", (rate, mu, e, psa_grid)),
                  Call("mol@%g" % e, "timevarying", "mol_schedule", (rate, mu, e, mol_grid))]
    calls += [Call("cli_" + key, "cli", "main", argv) for key, argv in README_CLI]
    return Plan(calls, float(len(calls)), "queries", check_dimension_small,
                data={"lams": lams, "epss": epss, "ratios": ratios, "xs": xs, "means": means, "cs": cs,
                 "rate": rate, "mu": mu, "psa_grid": psa_grid, "mol_grid": mol_grid,
                 "bulk_points": bulk_points})


def _poisson_tail_brute(mean: float, c: int) -> float:
    term = math.exp(-mean) * mean ** c / math.factorial(c)
    total, k = 0.0, c
    while True:
        total += term
        k += 1
        term *= mean / k
        if term < 1e-18 and k > mean:
            return total


def _poisson_plus_brute(mean: float, c: int) -> float:
    kmax = int(mean + 40.0 * math.sqrt(mean) + c + 60)
    k = np.arange(kmax)
    return float(np.sum(np.maximum(k - c, 0) * np.exp(k * math.log(mean) - mean - sps.gammaln(k + 1))))


def _cli_rows(text: str) -> list:
    return [line.split() for line in text.strip().splitlines()[1:]]


def _mids(grid: np.ndarray) -> np.ndarray:
    return grid + (grid[1] - grid[0]) / 2.0


def check_dimension_small(plan: Plan, rounds: list, ck: Checks) -> None:
    d, out = plan.data, rounds[0]
    worst_staff = worst_cost = 0
    for lam in d["lams"]:
        for e in d["epss"]:
            ex = out["staff_exact@%g,%g" % (lam, e)]
            _check_staff_exact(ck, lam, e, ex)
            worst_staff = max(worst_staff, abs(out["staff_qed@%g,%g" % (lam, e)].s - ex.s))
        for r in d["ratios"]:
            best = out["cost_exhaustive@%g,%g" % (lam, r)]
            for rule in ("cost_qed", "cost_refined"):
                worst_cost = max(worst_cost, abs(out["%s@%g,%g" % (rule, lam, r)].s - best))
        for sigma in (0.0, math.sqrt(lam), 0.1 * lam):
            want = int(math.ceil(lam + float(sps.ndtri(1.0 - 0.158655))
                                 * math.sqrt(sigma * sigma + lam) - 1e-9))
            got = out["uncertain@%g,%g" % (lam, sigma)]
            ck.add("staff_uncertain(%g, %g)" % (lam, sigma), got == want, "%d vs %d" % (got, want))
    ck.add("criterion 6: |s_QED - s*| <= 1", worst_staff <= 1, "max %d" % worst_staff)
    ck.add("criterion 7: |cost rule - exhaustive| <= 1", worst_cost <= 1, "max %d" % worst_cost)

    for s, (alpha, lower, exact, upper, refined) in TABLE1.items():
        b = out["bounds@%d" % s]
        ck.within("table 1 alpha s=%d" % s, b.alpha, alpha, 5e-4)
        for name, got, want in (("lower", b.lower, lower), ("exact", out["erlang_c@%d" % s], exact),
                                ("upper", b.upper, upper), ("refined", out["corrected@%d" % s], refined)):
            ck.within("table 1 %s s=%d" % (name, s), got, want, 1e-5)
    for b, want in G_BETA.items():
        ck.within("g(%g)" % b, out["g@%g" % b], want, 1e-6)
    for b, (p0, mean) in WALK.items():
        w = out["walk@%g" % b]
        ck.within("walk p_zero beta=%g" % b, w.p_zero, p0, 1e-5)
        ck.within("walk mean beta=%g" % b, w.mean_max, mean, 1e-5)
    st = out["bulk@4,5"]
    ck.within("criterion 4 bulk p_empty", st.p_empty, 0.615565, 1e-4)
    ck.within("criterion 4 bulk mean / sqrt(lam)", st.mean_queue / 2.0, 0.57812, 1e-4)
    for lam, s in d["bulk_points"]:
        st = out["bulk@%g,%d" % (lam, s)]
        ck.add("bulk series (%g, %d) converged" % (lam, s),
               0.0 < st.p_empty < 1.0 and st.mean_queue >= 0.0
               and max(st.log_remainder, st.mean_remainder) < 1e-10, "%d terms" % st.terms_used)
    worst = max(abs(out["quantile@%d" % i] - x) for i, x in enumerate(d["xs"]))
    ck.add("normal quantile round trip", worst <= 1e-8, "max err %.2g" % worst)
    worst_tail = max(abs(out["tail@%g,%d" % (m, c)].p_geq - _poisson_tail_brute(m, c))
                     for m in d["means"] for c in d["cs"])
    ck.add("poisson_tail vs direct sum", worst_tail <= 1e-12, "max err %.2g" % worst_tail)
    worst_plus = max(abs(out["plus@%g,%d" % (m, c)].plus_mean - _poisson_plus_brute(m, c))
                     for m in d["means"] for c in d["cs"])
    ck.add("pois_plus_stats vs direct sum", worst_plus <= 1e-12, "max err %.2g" % worst_plus)

    rate, mu = d["rate"], d["mu"]
    for e in (0.1, 0.3, 0.5):
        mids = _mids(d["psa_grid"])
        want = [qedq.staff_exact(float(x) / mu, e).s for x in rate.rate(mids)]
        ck.add("psa eps=%g level equals staff_exact per cell" % e,
               list(out["psa@%g" % e].levels) == want, "%d cells" % len(want))
        beta = beta_ref(e)
        offered = np.array([rate.stationary_offered_load(mu, float(t)) for t in _mids(d["mol_grid"])])
        want = np.ceil(offered + beta * np.sqrt(offered) - 1e-9)
        diff = int(np.abs(out["mol@%g" % e].levels - want).max())
        ck.add("mol eps=%g level within 1 of ceil(R + beta sqrt(R))" % e, diff <= 1, "max diff %d" % diff)

    for key, _ in README_CLI:
        code, _text = out["cli_" + key]
        ck.add("cli %s exit code 0" % key, code == 0, "exit %r" % code)
    rows = {r[0]: float(r[1]) for r in _cli_rows(out["cli_analyze_mms"][1])}
    ck.within("cli analyze mms delay_prob vs table 1", rows["delay_prob"], TABLE1[10][2], 1e-5)
    rows = _cli_rows(out["cli_table1"][1])
    ck.add("cli table1 exact column matches table 1",
           len(rows) == len(TABLE1)
           and all(abs(float(r[4]) - TABLE1[int(r[0])][2]) <= 1e-5 for r in rows), "%d rows" % len(rows))
    rows = _cli_rows(out["cli_staff_qed"][1])
    ck.add("cli staff qed gives s = 110", rows and rows[0][1] == "110", str(rows[:1]))
    want = int(math.ceil(100.0 + float(sps.ndtri(1.0 - 0.158655)) * math.sqrt(200.0) - 1e-9))
    rows = _cli_rows(out["cli_staff_sigma"][1])
    ck.add("cli staff sigma gives s = %d" % want, rows and rows[0][1] == str(want), str(rows[:1]))
    rows = _cli_rows(out["cli_staff_cost"][1])
    ss = [int(r[1]) for r in rows]
    ck.add("cli staff cost rules agree within 1", len(ss) == 3 and max(ss) - min(ss) <= 1, str(ss))


BUILDERS = {
    "sim-events": build_sim_events,
    "sim-lockstep": build_sim_lockstep,
    "dimension-large": build_dimension_large,
    "dimension-small": build_dimension_small,
}
