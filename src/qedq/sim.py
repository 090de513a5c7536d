"""Stochastic validation engine.

Simulation of the Markovian queue family, the bulk-service recursion,
and Euler-Maruyama integration of the piecewise-linear diffusion limits.
Every analytic quantity in the package has a counterpart estimator here.

One engine (``_event_rep``) runs the whole Markovian family: M/M/s,
finite buffer, abandonment, and nonhomogeneous arrivals with a
time-varying number of servers.  A constant-parameter model is the
one-cell schedule with level s; models differ only in their arrival
epochs and time-0 occupancy.  Service is FCFS and non-preemptive, so a
job's queue exit depends only on the jobs ahead of it: one pass over the
jobs in arrival order, with a heap of the end times of the jobs in
service, gives every job's queue exit and leave time, and each estimate
is a numpy reduction over those per-job arrays.  The heap drops ended
entries lazily: a start that finds it full with an ended entry on top
replaces that entry, one heap operation per job.

Randomness: counter-based Philox streams keyed by (seed, replication,
purpose), so arrival/service/patience draws are mutually independent and
replications can be computed in any order with identical results.  Each
replication draws its service times in one block, ``exponential(1/mu)``
per job, and its patience times likewise, ``exponential(1/theta)`` per
job, from a patience stream built only when theta > 0.  By
memorylessness this is equal in law to the clocks of an event-by-event
simulation: a departure clock at rate busy * mu, and an abandonment
clock at rate theta * queue with a uniformly chosen victim.
Estimates carry standard errors across independent replications.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from .bulk import BulkModel
from .errors import ConfigurationError, DomainError
from .exact import QueueModel, mms_pi
from .timevarying import RateFunction, StaffingSchedule

__all__ = [
    "TimeVaryingModel",
    "DiffusionModel",
    "SimConfig",
    "SimEstimate",
    "SamplePath",
    "TimeVaryingProfile",
    "simulate",
    "sample_path",
    "nhpp_arrivals",
    "time_varying_delay_profile",
    "diffusion_samples",
    "estimates_csv",
    "estimates_json",
    "path_csv",
]

# stream purposes
_ARRIVAL, _SERVICE, _PATIENCE, _INIT = 0, 1, 2, 3

_Z95 = 1.959963984540054

# metrics that are ratios over the arrivals after the warm-up
_PER_ARRIVAL = {"delay_prob", "mean_delay", "abandon_prob", "block_prob"}


def _stream(seed: int, rep: int, purpose: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(rep, purpose))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class TimeVaryingModel:
    """Nonhomogeneous arrivals served under a staffing schedule.

    ``initial_load``: offered load used to draw the time-0 occupancy from
    a stationary law; default is the rate's stationary offered load when
    it extends to the past, else rate(0)/mu.
    """

    rate: RateFunction
    schedule: StaffingSchedule
    mu: float = 1.0
    initial_load: Optional[float] = None

    def __post_init__(self):
        if not (self.mu > 0.0):
            raise DomainError("service rate must be positive, got %r" % (self.mu,))


@dataclass(frozen=True)
class DiffusionModel:
    """Piecewise-linear-drift diffusion: drift -beta - theta x above zero,
    -beta - x below, variance 2 (the QED process limit)."""

    beta: float
    theta: float = 0.0
    step: float = 1e-3

    def __post_init__(self):
        if self.theta < 0.0:
            raise DomainError("theta must be >= 0, got %r" % (self.theta,))
        if self.theta == 0.0 and not (self.beta > 0.0):
            raise DomainError("beta must be positive when theta = 0")
        if not (self.step > 0.0):
            raise DomainError("step must be positive, got %r" % (self.step,))


Model = Union[QueueModel, BulkModel, TimeVaryingModel, DiffusionModel]


@dataclass(frozen=True)
class SimConfig:
    model: Model
    horizon: float
    warmup: float = 0.0
    replications: int = 20
    seed: int = 0

    def __post_init__(self):
        if not (self.horizon > 0.0):
            raise DomainError("horizon must be positive, got %r" % (self.horizon,))
        if not (0.0 <= self.warmup < self.horizon):
            raise DomainError("need 0 <= warmup < horizon")
        if self.replications < 1:
            raise DomainError("replications must be >= 1")


class SimEstimate(NamedTuple):
    point: float
    stderr: float
    ci95: tuple
    replications: int

    @staticmethod
    def from_reps(values: np.ndarray) -> "SimEstimate":
        values = np.asarray(values, dtype=float)
        point = float(values.mean())
        if len(values) > 1:
            stderr = float(values.std(ddof=1) / math.sqrt(len(values)))
        else:
            stderr = float("nan")
        half = _Z95 * stderr
        return SimEstimate(point, stderr, (point - half, point + half), len(values))

    def ci(self, z: float) -> tuple:
        return (self.point - z * self.stderr, self.point + z * self.stderr)


@dataclass(frozen=True)
class SamplePath:
    times: np.ndarray
    values: np.ndarray
    scaling: str                     # "raw" or "centered_scaled"
    levels: Optional[np.ndarray] = None  # active server count (mt models)


class TimeVaryingProfile(NamedTuple):
    bin_mid: np.ndarray
    delay_prob: np.ndarray
    arrivals: np.ndarray


_QUEUE_METRICS = {"delay_prob", "mean_delay", "p_empty", "mean_queue", "frac_above_zero"}
_METRICS_BY_KIND = {
    "mms": _QUEUE_METRICS,
    "mmsn": _QUEUE_METRICS | {"block_prob"},
    "mmsm": _QUEUE_METRICS | {"abandon_prob"},
    "mt": {"delay_prob", "mean_delay", "mean_queue"},
    "bulk": {"p_empty", "mean_queue"},
    "hw": {"frac_above_zero"},
}


def _model_kind(model: Model) -> str:
    if isinstance(model, QueueModel):
        if model.n is not None:
            return "mmsn"
        if model.theta is not None:
            return "mmsm"
        return "mms"
    if isinstance(model, BulkModel):
        return "bulk"
    if isinstance(model, TimeVaryingModel):
        return "mt"
    if isinstance(model, DiffusionModel):
        return "hw"
    raise ConfigurationError("unknown model type %r" % (type(model),))


@functools.lru_cache(maxsize=32)
def _majorant(rate: RateFunction, horizon: float, cells: int) -> tuple:
    """Cell edges and the per-cell maximum of the rate (read-only arrays).

    Cached per (rate, horizon, cells): every ``RateFunction`` is a frozen,
    hashable dataclass, and a profile or criterion run draws the same
    rate thousands of times.
    """
    edges = np.linspace(0.0, horizon, cells + 1)
    peak = np.array([rate.max_on(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])],
                    dtype=float)
    bad = np.flatnonzero(~np.isfinite(peak))
    if len(bad):
        i = int(bad[0])
        raise ConfigurationError("rate unbounded on [%g, %g]" % (edges[i], edges[i + 1]))
    edges.flags.writeable = False
    peak.flags.writeable = False
    return edges, peak


def nhpp_arrivals(rate: RateFunction, horizon: float, rng: np.random.Generator,
                  cells: int = 64) -> np.ndarray:
    """Arrival epochs of a nonhomogeneous Poisson process on [0, horizon].

    Thinning against a piecewise-constant majorant (the exact per-cell
    maximum of the rate): one Poisson count per cell, candidates placed
    uniformly in their cell, and a candidate at t kept with probability
    rate(t) / (its cell's maximum).  All cells are drawn at once.
    """
    if not (horizon > 0.0):
        raise DomainError("horizon must be positive, got %r" % (horizon,))
    edges, peak = _majorant(rate, float(horizon), int(cells))
    width = np.diff(edges)
    counts = rng.poisson(peak * width)
    cell = np.repeat(np.arange(len(peak)), counts)
    u = rng.uniform(size=(2, len(cell)))
    cand = edges[cell] + width[cell] * u[0]
    keep = u[1] * peak[cell] < np.asarray(rate.rate(cand), dtype=float)
    return np.sort(cand[keep])


def _homogeneous_arrivals(lam: float, horizon: float,
                          rng: np.random.Generator) -> np.ndarray:
    n = rng.poisson(lam * horizon)
    return np.sort(rng.uniform(0.0, horizon, n))


class _Jobs(NamedTuple):
    """One replication as per-job arrays, in arrival order.

    The first ``n0`` jobs are the time-0 occupancy (epoch 0.0).  A
    blocked job has ``exit`` and ``leave`` NaN; an abandoning job leaves
    at its queue exit.
    """

    arrival: np.ndarray
    exit: np.ndarray       # queue exit: service start or abandonment
    leave: np.ndarray      # departure or abandonment
    abandoned: np.ndarray  # bool
    n0: int


def _event_rep(arrivals: np.ndarray, mu: float, theta: float, nbuf: Optional[int],
               grid, levels, n0: int,
               rng_s: np.random.Generator, rng_p: Optional[np.random.Generator]) -> _Jobs:
    """One replication of the Markovian queue family, job by job.

    Jobs arrive at the epochs ``arrivals`` after ``n0`` jobs present at
    time 0, need exponential(``mu``) service and abandon the queue after
    an exponential(``theta``) patience (``theta`` 0: never, and ``rng_p``
    is not used); with ``nbuf`` set, an arrival that finds ``nbuf`` jobs
    present is blocked.  ``levels[i]`` servers work on
    [grid[i], grid[i+1]), the last cell open-ended.

    FCFS is non-preemptive, so a job's queue exit depends only on the
    jobs ahead of it, and one pass in arrival order computes every job
    from a heap of the end times of the jobs in service.  For job j with
    epoch a: start from t = max(a, t_free), where t_free is the time the
    pass last reached; move the schedule pointer past the grid points
    <= t, and while s(t) servers are still busy set t to the next end
    time or grid point, whichever comes first.  If t is after the job's
    patience deadline it abandons at the deadline and takes no server;
    otherwise it starts at t.  Either way t_free = t.  Late switching
    falls out: a removed server stays in the heap until its job ends, and
    an added server is found at its grid point.  With a buffer, a second
    heap holds the leave times of the admitted jobs; an arrival is
    blocked when ``nbuf`` of them are after its epoch.

    Both heaps are lazy.  An entry <= t has ended, and stays ended since
    t never decreases, so it is kept until its slot is needed: a heap
    with fewer than s (or ``nbuf``) entries has room for a push, and a
    full one with an ended entry on top has room for one ``heapreplace``
    of that entry.  Only a level drop pops, and only the ended entries
    above the new level s.  A full heap whose top has not ended holds s
    or more busy servers (``nbuf`` jobs present).

    The service and patience times are drawn in one block each, one per
    job; exponential times are memoryless, so this is equal in law to the
    departure and abandonment clocks of an event-by-event simulation.
    """
    epochs = np.concatenate((np.zeros(n0), arrivals))
    service = rng_s.exponential(1.0 / mu, len(epochs))
    deadline = epochs + rng_p.exponential(1.0 / theta, len(epochs)) if theta > 0.0 else None
    grid = [float(g) for g in grid]
    levels = [int(v) for v in levels]
    k = bisect.bisect_right(grid, 0.0)  # index of the next grid point
    s = levels[max(k - 1, 0)]
    t_bound = grid[k] if k < len(grid) else math.inf
    push, replace, pop = heapq.heappush, heapq.heapreplace, heapq.heappop
    start: list = []                    # NaN: blocked; inf: abandoned
    put = start.append
    busy: list = []                     # end times of the jobs in service, and ended ones
    present: list = []                  # leave times of the admitted jobs, and past ones (buffer)
    t_free = 0.0
    patience = deadline.tolist() if deadline is not None else itertools.repeat(math.inf)
    for a, svc, due in zip(epochs.tolist(), service.tolist(), patience):
        if nbuf is not None:
            room = len(present) < nbuf
            if not room and present[0] > a:
                put(math.nan)
                continue
        t = a if a > t_free else t_free
        while True:
            while t >= t_bound:
                s = levels[k]
                k += 1
                t_bound = grid[k] if k < len(grid) else math.inf
            while len(busy) > s and busy[0] <= t:
                pop(busy)
            if len(busy) < s or busy[0] <= t:
                break
            t = busy[0] if busy[0] < t_bound else t_bound
        t_free = t
        if t > due:
            put(math.inf)
            if nbuf is not None:
                (push if room else replace)(present, due)
            continue
        put(t)
        end = t + svc
        (push if len(busy) < s else replace)(busy, end)
        if nbuf is not None:
            (push if room else replace)(present, end)
    start = np.array(start, dtype=float)
    abandoned = np.isinf(start)
    exit_ = np.where(abandoned, deadline, start) if deadline is not None else start
    return _Jobs(epochs, exit_, np.where(abandoned, exit_, start + service), abandoned, n0)


def _covered(start: np.ndarray, end: np.ndarray, lo: float, hi: float) -> tuple:
    """Lengths of (lo, hi] inside and outside the union of the intervals
    [start, end), whose starts are sorted.

    With sorted starts the union up to interval j reaches the running
    maximum of the ends, so one cumulative maximum gives both the new
    length each interval covers and the gap before it.
    """
    a = np.clip(start, lo, hi)
    reach = np.maximum.accumulate(np.concatenate(([lo], np.clip(end, lo, hi))))
    inside = np.maximum(reach[1:] - np.maximum(a, reach[:-1]), 0.0).sum()
    outside = np.maximum(a - reach[:-1], 0.0).sum() + (hi - reach[-1])
    return float(inside), float(outside)


def _rep_metrics(jobs: _Jobs, warmup: float, horizon: float) -> dict:
    """The estimates of one replication, as reductions over its jobs.

    Per-arrival ratios count the arrivals after the warm-up.
    ``mean_delay`` averages the time in queue over the admitted jobs that
    left the queue before the horizon, so an abandoning job counts with
    its wait until abandonment (the Little's-law definition
    mean_queue / lambda).  The time averages run over (warm-up, horizon]:
    the queue holds job j on [arrival, exit), the system on
    [arrival, leave).
    """
    span = horizon - warmup
    admitted = ~np.isnan(jobs.exit)
    a, x = jobs.arrival[admitted], jobs.exit[admitted]
    post = a > warmup
    seen = int(np.count_nonzero(jobs.arrival > warmup))
    entered = int(np.count_nonzero(post))
    out = post & (x < horizon)
    waited, _ = _covered(a, x, warmup, horizon)
    _, empty = _covered(a, jobs.leave[admitted], warmup, horizon)
    queued = np.clip(x, warmup, horizon) - np.clip(a, warmup, horizon)
    return {
        "arrivals": seen,
        "delay_prob": np.count_nonzero(post & (x > a)) / max(entered, 1),
        "mean_delay": float((x[out] - a[out]).sum()) / max(int(np.count_nonzero(out)), 1),
        "p_empty": empty / span,
        "mean_queue": float(queued.sum()) / span,
        "frac_above_zero": waited / span,
        "abandon_prob": np.count_nonzero(out & jobs.abandoned[admitted]) / max(entered, 1),
        "block_prob": (seen - entered) / max(seen, 1),
    }


@functools.lru_cache(maxsize=32)
def _initial_cdf(load: float, s: int) -> np.ndarray:
    """Cdf of the stationary M/M/s occupancy at ``load`` (a read-only array).

    Cached per (load, s): a profile or criterion run draws the time-0
    occupancy of the same model thousands of times, and each ``mms_pi``
    call would rebuild the same law.
    """
    pi0, _ = mms_pi(load, s)
    cdf = np.cumsum(pi0)
    cdf.flags.writeable = False
    return cdf


def _mt_initial_cdf(model: TimeVaryingModel) -> np.ndarray:
    """Cdf of the time-0 occupancy: the stationary M/M/s(0) law at the
    model's initial offered load, so a warm-up of one service time
    suffices.  A load at or above s(0) has no such law and is replaced by
    0.99 s(0), with a warning."""
    s0 = model.schedule.level_at(0.0)
    if model.initial_load is not None:
        a0 = model.initial_load
    elif model.rate.supports_past:
        a0 = model.rate.stationary_offered_load(model.mu)
    else:
        a0 = float(model.rate.rate(0.0)) / model.mu
    if a0 >= s0:
        warnings.warn("initial offered load %.6g >= s(0) = %d has no stationary law; "
                      "the time-0 occupancy is drawn at load %.6g instead"
                      % (a0, s0, 0.99 * s0))
        a0 = 0.99 * s0
    return _initial_cdf(max(float(a0), 1e-9), s0)


def _event_reps(model: Union[QueueModel, TimeVaryingModel], horizon: float,
                seed: int, replications: int, initial: Optional[int] = None):
    """Replications 0..replications-1 of a QueueModel or TimeVaryingModel,
    one ``_Jobs`` at a time.

    ``initial`` is the time-0 occupancy; by default a QueueModel starts
    empty and a TimeVaryingModel draws it from ``_mt_initial_cdf``.  The
    patience stream is built only when jobs abandon.
    """
    if isinstance(model, QueueModel):
        theta, nbuf, lam = model.theta or 0.0, model.n, model.lam
        grid, levels = [0.0], [int(model.s)]
        initial = initial or 0
    else:
        theta, nbuf, lam = 0.0, None, getattr(model.rate, "level", None)
        grid, levels = model.schedule.grid, model.schedule.levels
        cdf0 = _mt_initial_cdf(model) if initial is None else None
    for r in range(replications):
        rng_a = _stream(seed, r, _ARRIVAL)
        arrivals = _homogeneous_arrivals(lam, horizon, rng_a) if lam is not None \
            else nhpp_arrivals(model.rate, horizon, rng_a)
        n0 = initial if initial is not None \
            else int(np.searchsorted(cdf0, _stream(seed, r, _INIT).uniform()))
        yield _event_rep(arrivals, model.mu, theta, nbuf, grid, levels, n0,
                         _stream(seed, r, _SERVICE),
                         _stream(seed, r, _PATIENCE) if theta > 0.0 else None)


def _bulk_walk(model: BulkModel, periods: int, seed: int, rep: int) -> np.ndarray:
    """Queue length after each period: the reflected walk, vectorized via
    the running-minimum representation of the reflection map."""
    rng = _stream(seed, rep, _ARRIVAL)
    walk = np.cumsum(rng.poisson(model.lam, periods) - int(model.s))
    return walk - np.minimum.accumulate(np.minimum(walk, 0))


def _diffusion_run(model: DiffusionModel, horizon: float, warmup: float,
                   replications: int, seed: int,
                   sample_dt: Optional[float] = None):
    """Euler-Maruyama for all replications in lockstep.

    Returns per-replication fractions of time above zero and, if
    ``sample_dt`` is given, the post-warmup state samples at that spacing.
    """
    step = model.step
    beta, theta = model.beta, model.theta
    nsteps = int(round(horizon / step))
    nwarm = int(round(warmup / step))
    if nsteps <= nwarm:
        raise ConfigurationError("no diffusion step after warm-up (%d steps, %d warm-up)"
                                 % (nsteps, nwarm))
    every = max(int(round(sample_dt / step)), 1) if sample_dt else 0
    gens = [_stream(seed, r, _SERVICE) for r in range(replications)]
    x = np.zeros(replications)
    above = np.zeros(replications)
    count = 0
    samples = []
    sq = math.sqrt(2.0 * step)
    block = 8192
    done = 0
    while done < nsteps:
        m = min(block, nsteps - done)
        z = np.empty((m, replications))
        for j, gen in enumerate(gens):
            z[:, j] = gen.standard_normal(m)
        for i in range(m):
            drift = np.where(x > 0.0, -beta - theta * x, -beta - x)
            x = x + drift * step + sq * z[i]
            done += 1
            if done > nwarm:
                above += x > 0.0
                count += 1
                if every and (done - nwarm) % every == 0:
                    samples.append(x.copy())
    fracs = above / count
    if sample_dt:
        return fracs, (np.concatenate(samples) if samples else np.empty(0))
    return fracs, None


def diffusion_samples(model: DiffusionModel, horizon: float, warmup: float,
                      sample_dt: float, replications: int, seed: int) -> np.ndarray:
    """Near-stationary state samples of the diffusion, pooled over paths."""
    _, samples = _diffusion_run(model, horizon, warmup, replications, seed,
                                sample_dt=sample_dt)
    return samples


def simulate(config: SimConfig, metrics: Iterable[str]) -> dict:
    """Monte Carlo estimates (with replication-based standard errors).

    ``metrics`` must be applicable to the configured model; estimates are
    deterministic in (seed, replications) regardless of evaluation order.
    Per-arrival metrics (``delay_prob``, ``mean_delay``, ``abandon_prob``,
    ``block_prob``) average only the replications with an arrival after
    the warm-up, and their ``replications`` field counts those.
    """
    kind = _model_kind(config.model)
    names = sorted(set(metrics))
    if not names:
        raise ConfigurationError("no metrics requested")
    allowed = _METRICS_BY_KIND[kind]
    for m in names:
        if m not in allowed:
            raise ConfigurationError("metric %r not available for %s models" % (m, kind))

    if kind == "bulk":
        periods = int(round(config.horizon))
        warm = int(round(config.warmup))
        if periods <= warm:
            raise ConfigurationError("no bulk period after warm-up (%d periods, %d warm-up)"
                                     % (periods, warm))
        walks = (_bulk_walk(config.model, periods, config.seed, r)[warm:]
                 for r in range(config.replications))
        reps = [{"p_empty": float(np.mean(q == 0)), "mean_queue": float(q.mean())}
                for q in walks]
    elif kind == "hw":
        fracs, _ = _diffusion_run(config.model, config.horizon, config.warmup,
                                  config.replications, config.seed)
        reps = [{"frac_above_zero": float(f)} for f in fracs]
    else:
        if kind == "mms" and config.model.rho >= 1.0:
            warnings.warn("rho >= 1: no steady state; estimates are transient only")
        reps = [_rep_metrics(jobs, config.warmup, config.horizon)
                for jobs in _event_reps(config.model, config.horizon, config.seed,
                                        config.replications)]
        # a replication with no arrival after the warm-up has no
        # per-arrival ratio; those estimates average the others
        with_arrivals = [r for r in reps if r["arrivals"]]
        undefined = sorted(_PER_ARRIVAL.intersection(names))
        if undefined and not with_arrivals:
            raise ConfigurationError("no arrival after the warm-up in any replication: "
                                     "%s undefined" % ", ".join(undefined))
        return {m: SimEstimate.from_reps(np.array(
            [r[m] for r in (with_arrivals if m in _PER_ARRIVAL else reps)])) for m in names}

    return {m: SimEstimate.from_reps(np.array([r[m] for r in reps])) for m in names}


def time_varying_delay_profile(config: SimConfig, bin_width: float = 1.0) -> TimeVaryingProfile:
    """Pooled time-dependent delay probability for a TimeVaryingModel.

    Arrivals are binned by epoch; the profile is (delayed jobs)/(arrivals)
    per bin pooled over replications.  Bins covering the warm-up period
    are dropped.
    """
    if not isinstance(config.model, TimeVaryingModel):
        raise ConfigurationError("delay profile requires a TimeVaryingModel")
    if not (bin_width > 0.0):
        raise DomainError("bin_width must be positive")
    edges = np.arange(0.0, config.horizon + bin_width, bin_width)
    nb = len(edges) - 1
    mids = edges[:-1] + bin_width / 2.0
    keep = mids > config.warmup
    if not keep.any():
        raise ConfigurationError("no profile bin midpoint after the warm-up %g "
                                 "(horizon %g, bin width %g)"
                                 % (config.warmup, config.horizon, bin_width))
    delayed = np.zeros(nb)
    arrivals = np.zeros(nb)
    for jobs in _event_reps(config.model, config.horizon, config.seed, config.replications):
        a = jobs.arrival[jobs.n0:]
        b = np.minimum(np.searchsorted(edges, a, side="right") - 1, nb - 1)
        arrivals += np.bincount(b, minlength=nb)
        delayed += np.bincount(b[jobs.exit[jobs.n0:] > a], minlength=nb)
    p = delayed[keep] / np.maximum(arrivals[keep], 1.0)
    return TimeVaryingProfile(bin_mid=mids[keep], delay_prob=p, arrivals=arrivals[keep])


def _occupancy_path(jobs: _Jobs, grid: np.ndarray, horizon: float) -> tuple:
    """Times and values of the number of jobs present, from 0 up to the
    horizon: one point at time 0, then one after each arrival, departure,
    abandonment and grid point, in time order."""
    admitted = ~np.isnan(jobs.exit)
    ups = jobs.arrival[admitted]
    downs = jobs.leave[admitted]
    downs = downs[downs < horizon]
    marks = grid[(grid > 0.0) & (grid < horizon)]
    t = np.concatenate((ups, downs, marks))
    step = np.repeat(np.array([1, -1, 0]), (len(ups), len(downs), len(marks)))
    order = np.argsort(t, kind="stable")
    t = t[order]
    n = np.cumsum(step[order])
    first = int(np.searchsorted(t, 0.0, side="right"))  # time-0 jobs set the first value
    n_start = n[first - 1] if first else 0
    return np.concatenate(([0.0], t[first:])), np.concatenate(([n_start], n[first:])).astype(float)


def sample_path(config: SimConfig, centered: bool = False) -> SamplePath:
    """Occupancy path of a single replication (replication index 0).

    QueueModel paths start at full occupancy (the natural centering
    level), TimeVaryingModel paths at a draw from the stationary law at
    the initial load.  Centered scaling maps occupancy q to
    (q - s)/sqrt(s) with the instantaneous server count s.  Diffusion
    paths have no server count to center on: they are raw, and
    ``centered=True`` raises ``ConfigurationError``.
    """
    model = config.model
    kind = _model_kind(model)
    if kind == "hw":  # record every step
        if centered:
            raise ConfigurationError("diffusion paths are raw; centered=True needs a queue model")
        step = model.step
        n = int(round(config.horizon / step))
        gen = _stream(config.seed, 0, _SERVICE)
        x = 0.0
        times = np.arange(1, n + 1) * step
        vals = np.empty(n)
        sq = math.sqrt(2.0 * step)
        z = gen.standard_normal(n)
        beta, theta = model.beta, model.theta
        for i in range(n):
            drift = (-beta - theta * x) if x > 0.0 else (-beta - x)
            x += drift * step + sq * z[i]
            vals[i] = x
        return SamplePath(times, vals, "raw")
    if kind == "bulk":
        periods = int(round(config.horizon))
        times = np.arange(1, periods + 1, dtype=float)
        vals = _bulk_walk(model, periods, config.seed, 0).astype(float)
        levels = float(model.s)
    else:
        jobs = next(_event_reps(model, config.horizon, config.seed, 1,
                                initial=int(model.s) if kind != "mt" else None))
        if kind == "mt":
            grid = model.schedule.grid
            times, vals = _occupancy_path(jobs, grid, config.horizon)
            cell = np.maximum(np.searchsorted(grid, times, side="right") - 1, 0)
            levels = model.schedule.levels[cell].astype(float)
        else:
            times, vals = _occupancy_path(jobs, np.empty(0), config.horizon)
            levels = float(model.s)
    kept = levels if kind == "mt" else None
    if centered:
        return SamplePath(times, (vals - levels) / np.sqrt(levels), "centered_scaled", kept)
    return SamplePath(times, vals, "raw", kept)


def _config_dict(config: SimConfig) -> dict:
    model = config.model
    kind = _model_kind(model)
    d = {"kind": kind, "horizon": config.horizon, "warmup": config.warmup,
         "replications": config.replications, "seed": config.seed}
    if isinstance(model, QueueModel):
        d.update({"lam": model.lam, "mu": model.mu, "s": int(model.s)})
        if model.n is not None:
            d["n"] = int(model.n)
        if model.theta is not None:
            d["theta"] = model.theta
    elif isinstance(model, BulkModel):
        d.update({"lam": model.lam, "s": int(model.s)})
    elif isinstance(model, DiffusionModel):
        d.update({"beta": model.beta, "theta": model.theta, "step": model.step})
    else:
        d.update({"mu": model.mu, "rate": repr(model.rate),
                  "schedule_method": model.schedule.method,
                  "epsilon": model.schedule.epsilon})
    return d


def estimates_csv(estimates: dict, precision: int = 6) -> str:
    lines = ["metric,point,stderr,lo,hi"]
    for name in sorted(estimates):
        e = estimates[name]
        lines.append("%s,%.*g,%.*g,%.*g,%.*g" % (
            name, precision, e.point, precision, e.stderr,
            precision, e.ci95[0], precision, e.ci95[1]))
    return "\n".join(lines) + "\n"


def estimates_json(estimates: dict, config: SimConfig, precision: int = 6) -> str:
    payload = {
        "config": _config_dict(config),
        "estimates": {
            name: {
                "point": round(e.point, precision),
                "stderr": round(e.stderr, precision) if math.isfinite(e.stderr) else None,
                "ci95": [round(e.ci95[0], precision), round(e.ci95[1], precision)],
                "replications": e.replications,
            }
            for name, e in estimates.items()
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def path_csv(path: SamplePath, precision: int = 6) -> str:
    lines = ["time,value"]
    for t, v in zip(path.times, path.values):
        lines.append("%.*g,%.*g" % (precision, t, precision, v))
    return "\n".join(lines) + "\n"
