"""Per-layer probes: one representative call per layer metric.

Each probe makes a call through the traced module attribute and reads
the call's own span, so its time is the time of that public function
and of everything it calls.  Work counts come from the inputs or from
the returned values.  The probes are the same on every workload; the
workload-specific view is the per-layer self time of the traced rounds.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np

import qedq
from qedq import BulkModel, DiffusionModel, QueueModel, SimConfig, SinusoidRate, TimeVaryingModel

from workloads import Call, ladder_lam, run_call, sinusoid_mass

MMS = QueueModel(lam=ladder_lam(100), s=100)
MMSM = QueueModel(lam=1.0, s=2, theta=1.0)
MMSN = QueueModel(lam=10.0, s=12, n=16)
BULK = BulkModel(lam=4.0, s=5)
RATE = SinusoidRate(30.0, 20.0, 24.0)
MU = 0.5
GRID = np.arange(0.0, 24.0, 0.125)
LAM_BD = 1e5
S_BD = int(round(LAM_BD + math.sqrt(LAM_BD)))
HEAVY = QueueModel(lam=100.0 * (1.0 - 1e-5), s=100)


# Unit of every probe metric.
UNITS = {
    "sim.mms.us_per_arrival": "us",
    "sim.mmsm.us_per_arrival": "us",
    "sim.mmsn.us_per_arrival": "us",
    "sim.mt.us_per_arrival": "us",
    "sim.nhpp.us_per_arrival": "us",
    "sim.sample_path_mms.us_per_event": "us",
    "sim.hw.path_steps_per_s": "1/s",
    "sim.bulk.periods_per_s": "1/s",
    "sim.sample_path_hw.us_per_step": "us",
    "sim.sample_path_bulk.us_per_period": "us",
    "exact.erlang_c.ns_per_server": "ns",
    "exact.erlang_a_measures.ms": "ms",
    "exact.erlang_a_measures.states": "count",
    "exact.mmsn_measures.ms": "ms",
    "exact.mms_measures_heavy.ms": "ms",
    "exact.mms_measures_heavy.peak_mb": "MB",
    "exact.erlang_c.small_us": "us",
    "exact.erlang_c_real.us": "us",
    "staffing.staff_exact.lam1e4_ms": "ms",
    "staffing.staff_exact.lam1e5_ms": "ms",
    "staffing.staff_exact.lam1e6_ms": "ms",
    "staffing.staff_qed.lam1e6_ms": "ms",
    "staffing.cost_exhaustive.lam1e4_ms": "ms",
    "staffing.staff_exact.small_us": "us",
    "staffing.cost_exhaustive.small_ms": "ms",
    "staffing.cost_refined.us": "us",
    "timevarying.psa_schedule.x100_ms": "ms",
    "timevarying.psa_schedule.x1_ms": "ms",
    "timevarying.mol_schedule.ms": "ms",
    "timevarying.offered_load.us_per_step": "us",
    "qed.table1_row.us": "us",
    "qed.qed_delay_prob.us": "us",
    "special.normal_quantile.us": "us",
    "special.poisson_tail.us": "us",
    "bulk.bulk_stationary.us": "us",
    "bulk.bulk_stationary.terms": "count",
    "bulk.gaussian_walk_max.us": "us",
    "cli.analyze.ms": "ms",
    "cli.staff.ms": "ms",
    "cli.table1.ms": "ms",
}


class Probe:
    """Calls ``module.func`` and converts the call's span to metric values."""

    def __init__(self, tracer, seeds):
        self.tracer = tracer
        self.seeds = seeds
        mol = qedq.mol_schedule(RATE, MU, 0.3, np.arange(0.0, 50.0, 0.25))
        self.mt = TimeVaryingModel(rate=RATE, schedule=mol, mu=MU)

    def call(self, module, func, *args):
        mark = self.tracer.mark()
        out = run_call(Call("probe", module, func, args))
        return out, self.tracer.root_seconds(mark)

    def seed(self) -> int:
        return next(self.seeds)


def _per(seconds: float, count: float, scale: float) -> float:
    return seconds / count * scale


def _us_per_arrival(p, model, horizon, warmup, reps):
    _, sec = p.call("sim", "simulate", SimConfig(model, horizon, warmup, reps, p.seed()), ["delay_prob"])
    return _per(sec, model.lam * horizon * reps, 1e6)


def probe_sim(p):
    yield "sim.mms.us_per_arrival", _us_per_arrival(p, MMS, 10.0, 1.0, 4)
    yield "sim.mmsm.us_per_arrival", _us_per_arrival(p, MMSM, 1000.0, 10.0, 4)
    yield "sim.mmsn.us_per_arrival", _us_per_arrival(p, MMSN, 100.0, 5.0, 4)
    _, sec = p.call("sim", "time_varying_delay_profile", SimConfig(p.mt, 50.0, 26.0, 2, p.seed()), 1.0)
    yield "sim.mt.us_per_arrival", _per(sec, sinusoid_mass(RATE, 0.0, 50.0) * 2, 1e6)
    arrivals, sec = p.call("sim", "nhpp_arrivals", RATE, 240.0, np.random.default_rng(p.seed()))
    yield "sim.nhpp.us_per_arrival", _per(sec, len(arrivals), 1e6)
    path, sec = p.call("sim", "sample_path", SimConfig(MMS, 10.0, 0.0, 1, p.seed()))
    yield "sim.sample_path_mms.us_per_event", _per(sec, len(path.times), 1e6)
    hw = DiffusionModel(beta=1.0, step=1e-3)
    _, sec = p.call("sim", "simulate", SimConfig(hw, 5.0, 1.0, 200, p.seed()), ["frac_above_zero"])
    yield "sim.hw.path_steps_per_s", round(5.0 / hw.step) * 200 / sec
    _, sec = p.call("sim", "simulate", SimConfig(BULK, 1e5, 1e3, 4, p.seed()), ["p_empty"])
    yield "sim.bulk.periods_per_s", 4e5 / sec
    path, sec = p.call("sim", "sample_path", SimConfig(hw, 10.0, 0.0, 1, p.seed()))
    yield "sim.sample_path_hw.us_per_step", _per(sec, len(path.times), 1e6)
    path, sec = p.call("sim", "sample_path", SimConfig(BULK, 1e5, 0.0, 1, p.seed()))
    yield "sim.sample_path_bulk.us_per_period", _per(sec, len(path.times), 1e6)


def probe_exact(p, first_pass):
    for s in (10_000, 100_000, 10_000, 100_000):
        _, sec = p.call("exact", "erlang_c", s, ladder_lam(s))
        yield "exact.erlang_c.ns_per_server", _per(sec, s, 1e9)
    m, sec = p.call("exact", "erlang_a_measures", QueueModel(lam=LAM_BD, s=S_BD, theta=1.0))
    yield "exact.erlang_a_measures.ms", sec * 1e3
    yield "exact.erlang_a_measures.states", len(m.pi)
    mmsn = QueueModel(lam=LAM_BD, s=S_BD, n=S_BD + int(round(2.0 * math.sqrt(S_BD))))
    for _ in range(2):
        _, sec = p.call("exact", "mmsn_measures", mmsn)
        yield "exact.mmsn_measures.ms", sec * 1e3
    _, sec = p.call("exact", "mms_measures", HEAVY)
    yield "exact.mms_measures_heavy.ms", sec * 1e3
    if first_pass:
        tracemalloc.start()
        try:
            p.call("exact", "mms_measures", HEAVY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        yield "exact.mms_measures_heavy.peak_mb", peak / 2 ** 20
    for _ in range(10):
        for s in (10, 100, 1000):
            _, sec = p.call("exact", "erlang_c", s, ladder_lam(s))
            yield "exact.erlang_c.small_us", sec * 1e6
    for _ in range(5):
        for s in (10, 100):
            _, sec = p.call("exact", "erlang_c_real", s + 0.5, ladder_lam(s))
            yield "exact.erlang_c_real.us", sec * 1e6


def probe_staffing(p):
    for lam, name, n in ((1e4, "lam1e4_ms", 3), (1e5, "lam1e5_ms", 2), (1e6, "lam1e6_ms", 1)):
        for _ in range(n):
            _, sec = p.call("staffing", "staff_exact", lam, 0.2)
            yield "staffing.staff_exact." + name, sec * 1e3
    _, sec = p.call("staffing", "staff_qed", 1e6, 0.2)
    yield "staffing.staff_qed.lam1e6_ms", sec * 1e3
    _, sec = p.call("staffing", "cost_exhaustive", 1e4, 1.0)
    yield "staffing.cost_exhaustive.lam1e4_ms", sec * 1e3
    for _ in range(2):
        for lam, eps in itertools.product((10.0, 100.0, 500.0), (0.1, 0.3, 0.5)):
            _, sec = p.call("staffing", "staff_exact", lam, eps)
            yield "staffing.staff_exact.small_us", sec * 1e6
    for _ in range(2):
        for r in (0.1, 1.0, 10.0):
            _, sec = p.call("staffing", "cost_exhaustive", 100.0, r)
            yield "staffing.cost_exhaustive.small_ms", sec * 1e3
    for _ in range(4):
        for r in (0.1, 1.0, 10.0):
            _, sec = p.call("staffing", "cost_refined", 100.0, r)
            yield "staffing.cost_refined.us", sec * 1e6


def probe_timevarying(p):
    big = SinusoidRate(100.0 * RATE.base, 100.0 * RATE.amplitude, RATE.period)
    _, sec = p.call("timevarying", "psa_schedule", big, MU, 0.3, GRID)
    yield "timevarying.psa_schedule.x100_ms", sec * 1e3
    for _ in range(3):
        _, sec = p.call("timevarying", "psa_schedule", RATE, MU, 0.3, GRID)
        yield "timevarying.psa_schedule.x1_ms", sec * 1e3
        _, sec = p.call("timevarying", "mol_schedule", RATE, MU, 0.3, GRID)
        yield "timevarying.mol_schedule.ms", sec * 1e3
        load, sec = p.call("timevarying", "offered_load", RATE, MU, 48.0, 0.0625)
        yield "timevarying.offered_load.us_per_step", _per(sec, len(load.times) - 1, 1e6)


def probe_qed_special_bulk(p):
    for s in (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000):
        lam = ladder_lam(s)
        total = 0.0
        for module, func in (("qed", "qed_bounds"), ("exact", "erlang_c"),
                             ("qed", "corrected_delay_prob")):
            total += p.call(module, func, s, lam)[1]
        yield "qed.table1_row.us", total * 1e6
    for beta in np.linspace(0.05, 5.0, 100):
        yield "qed.qed_delay_prob.us", p.call("qed", "qed_delay_prob", float(beta))[1] * 1e6
    for q in np.linspace(0.001, 0.999, 100):
        yield "special.normal_quantile.us", p.call("special", "normal_quantile", float(q))[1] * 1e6
    for mean, c in itertools.product((0.5, 4.0, 20.0, 100.0), range(0, 125, 5)):
        yield "special.poisson_tail.us", p.call("special", "poisson_tail", mean, c)[1] * 1e6
    for _ in range(5):
        for lam, s in ((4.0, 5), (7.29844, 10)):
            st, sec = p.call("bulk", "bulk_stationary", BulkModel(lam=lam, s=s))
            yield "bulk.bulk_stationary.us", sec * 1e6
            yield "bulk.bulk_stationary.terms", st.terms_used
    for _ in range(4):
        for beta in (0.1, 0.5, 1.0):
            yield "bulk.gaussian_walk_max.us", p.call("bulk", "gaussian_walk_max", beta)[1] * 1e6


CLI_PROBES = (
    ("cli.analyze.ms", ("analyze", "--model", "mms", "--lambda", "7.29844", "--servers", "10")),
    ("cli.staff.ms", ("staff", "--lambda", "100", "--cost-ratio", "1", "--rule", "all")),
    ("cli.table1.ms", ("table1",)),
)


def probe_cli(p):
    for _ in range(3):
        for name, argv in CLI_PROBES:
            (code, _), sec = p.call("cli", "main", *argv)
            if code != 0:
                raise RuntimeError("cli %s exited %r" % (argv[0], code))
            yield name, sec * 1e3


def probe_pass(probe: Probe, first_pass: bool):
    """One pass over every layer; yields (metric, sample) pairs."""
    yield from probe_sim(probe)
    yield from probe_exact(probe, first_pass)
    yield from probe_staffing(probe)
    yield from probe_timevarying(probe)
    yield from probe_qed_special_bulk(probe)
    yield from probe_cli(probe)
