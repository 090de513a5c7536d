"""Staffing against time-varying demand.

The offered load R(t) of the matching infinite-server system solves
R' = lam(t) - mu R; it is what a square-root rule should be applied to
when rates move on the scale of a service time or faster.  Two schedule
builders are provided: the pointwise-stationary approximation (staff each
instant's stationary model exactly) and the modified-offered-load rule
ceil(R + beta* sqrt(R)).

Schedules are piecewise constant over a user grid; each cell's level is
the rule evaluated at the cell midpoint.  Switching semantics
(documented, and honored by the simulator): added servers start
immediately, removed servers finish their job in progress first.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import DomainError
from .staffing import _staff_exact_levels, beta_for_delay_target

__all__ = [
    "RateFunction",
    "ConstantRate",
    "SinusoidRate",
    "PiecewiseConstantRate",
    "SampledRate",
    "parse_rate",
    "OfferedLoad",
    "offered_load",
    "StaffingSchedule",
    "psa_schedule",
    "mol_schedule",
]


class RateFunction:
    """Arrival-rate function lam(t).  Subclasses are immutable."""

    #: whether lam(t) is defined for all t < 0 (enables stationary starts)
    supports_past = False

    def rate(self, t):
        raise NotImplementedError

    def max_on(self, t0: float, t1: float) -> float:
        """Exact upper bound of the rate on [t0, t1] (thinning majorant)."""
        raise NotImplementedError

    def stationary_offered_load(self, mu: float, t: float = 0.0) -> float:
        """Value at time t of the convolution integral over the infinite past."""
        raise DomainError(
            "%s is not defined for t < 0; pass an explicit initial value"
            % type(self).__name__
        )


@dataclass(frozen=True)
class ConstantRate(RateFunction):
    level: float
    supports_past = True

    def __post_init__(self):
        if self.level < 0.0:
            raise DomainError("rate level must be >= 0, got %r" % (self.level,))

    def rate(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.level)

    def max_on(self, t0, t1):
        return self.level

    def stationary_offered_load(self, mu, t=0.0):
        return self.level / mu


@dataclass(frozen=True)
class SinusoidRate(RateFunction):
    """lam(t) = base + amplitude * sin(2 pi t / period + phase)."""

    base: float
    amplitude: float
    period: float
    phase: float = 0.0
    supports_past = True

    def __post_init__(self):
        if self.amplitude < 0.0 or self.base < self.amplitude:
            raise DomainError("need base >= amplitude >= 0 so the rate stays nonnegative")
        if not (self.period > 0.0):
            raise DomainError("period must be positive, got %r" % (self.period,))

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.period

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        return self.base + self.amplitude * np.sin(self.omega * t + self.phase)

    def max_on(self, t0, t1):
        vals = [float(self.rate(t0)), float(self.rate(t1))]
        # interior peaks where sin = 1
        k0 = math.ceil((self.omega * t0 + self.phase - math.pi / 2.0) / (2.0 * math.pi))
        peak = (math.pi / 2.0 - self.phase + 2.0 * math.pi * k0) / self.omega
        if t0 <= peak <= t1:
            vals.append(self.base + self.amplitude)
        return max(vals)

    def stationary_offered_load(self, mu, t=0.0):
        w = self.omega
        arg = w * t + self.phase
        return (self.base / mu
                + self.amplitude * (mu * math.sin(arg) - w * math.cos(arg))
                / (mu * mu + w * w))


@dataclass(frozen=True)
class PiecewiseConstantRate(RateFunction):
    breakpoints: tuple
    levels: tuple

    def __post_init__(self):
        bp = tuple(float(x) for x in self.breakpoints)
        lv = tuple(float(x) for x in self.levels)
        if len(bp) != len(lv) or not bp:
            raise DomainError("breakpoints and levels must be equal-length and non-empty")
        if any(b >= a for a, b in zip(bp[1:], bp[:-1])):
            raise DomainError("breakpoints must be strictly increasing")
        if any(v < 0.0 for v in lv):
            raise DomainError("rate levels must be >= 0")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, t, side="right") - 1, 0, None)
        return np.asarray(self.levels)[idx]

    def max_on(self, t0, t1):
        i0 = max(np.searchsorted(self.breakpoints, t0, side="right") - 1, 0)
        i1 = max(np.searchsorted(self.breakpoints, t1, side="right") - 1, 0)
        return max(self.levels[i0:i1 + 1])


@dataclass(frozen=True)
class SampledRate(RateFunction):
    times: tuple
    values: tuple

    def __post_init__(self):
        ts = tuple(float(x) for x in self.times)
        vs = tuple(float(x) for x in self.values)
        if len(ts) != len(vs) or len(ts) < 2:
            raise DomainError("need at least two (time, rate) samples")
        if any(b >= a for a, b in zip(ts[1:], ts[:-1])):
            raise DomainError("sample times must be strictly increasing")
        if any(v < 0.0 for v in vs):
            raise DomainError("sampled rates must be >= 0")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vs)

    def rate(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.values)

    def max_on(self, t0, t1):
        ts = np.asarray(self.times)
        inside = (ts >= t0) & (ts <= t1)
        vals = [float(self.rate(t0)), float(self.rate(t1))]
        if inside.any():
            vals.append(float(np.asarray(self.values)[inside].max()))
        return max(vals)


def parse_rate(text: str) -> RateFunction:
    """Parse the textual rate spec.

    Formats: ``constant:LEVEL``, ``sinusoid:A,B,PERIOD[,PHASE]``,
    ``pwc:t0,l0;t1,l1;...``, ``csv:PATH`` (two columns: time, rate).
    """
    kind, _, body = text.partition(":")
    try:
        if kind == "constant":
            return ConstantRate(float(body))
        if kind == "sinusoid":
            parts = [float(x) for x in body.split(",")]
            if len(parts) == 3:
                return SinusoidRate(*parts)
            if len(parts) == 4:
                return SinusoidRate(parts[0], parts[1], parts[2], parts[3])
            raise DomainError("sinusoid takes A,B,PERIOD[,PHASE]")
        if kind == "pwc":
            pairs = [seg.split(",") for seg in body.split(";") if seg]
            bps = [float(p[0]) for p in pairs]
            lvs = [float(p[1]) for p in pairs]
            return PiecewiseConstantRate(tuple(bps), tuple(lvs))
        if kind == "csv":
            times, values = [], []
            with open(body, newline="") as fh:
                for row in csv.reader(fh):
                    if not row or row[0].strip().startswith("#"):
                        continue
                    try:
                        t = float(row[0])
                    except ValueError:
                        continue  # header line
                    times.append(t)
                    values.append(float(row[1]))
            return SampledRate(tuple(times), tuple(values))
    except DomainError:
        raise
    except Exception as exc:
        raise DomainError("cannot parse rate spec %r: %s" % (text, exc)) from exc
    raise DomainError("unknown rate spec kind %r" % (kind,))


@dataclass(frozen=True)
class OfferedLoad:
    """Sampled infinite-server offered load R(t); linearly interpolated."""

    times: np.ndarray
    values: np.ndarray
    mu: float

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.values)


def offered_load(
    rate: RateFunction,
    mu: float,
    horizon: float,
    grid_step: float,
    initial: Optional[float] = None,
) -> OfferedLoad:
    """Integrate R' = lam(t) - mu R on [0, horizon] with classic RK4.

    ``initial=None`` uses the stationary convolution value when the rate
    extends to the infinite past (constant, sinusoid), otherwise an
    explicit initial value is required.
    """
    if not (mu > 0.0):
        raise DomainError("service rate must be positive, got %r" % (mu,))
    if not (grid_step > 0.0) or not (horizon > 0.0):
        raise DomainError("horizon and grid_step must be positive")
    if initial is None:
        initial = rate.stationary_offered_load(mu)
    if initial < 0.0:
        raise DomainError("initial offered load must be >= 0, got %r" % (initial,))

    n = int(math.ceil(horizon / grid_step))
    times = np.minimum(np.arange(n + 1) * grid_step, horizon)
    lam_probe = np.asarray(rate.rate(times), dtype=float)
    if np.any(lam_probe < 0.0):
        raise DomainError("rate function is negative on the horizon")

    def f(t, x):
        return float(rate.rate(t)) - mu * x

    values = np.empty(n + 1)
    values[0] = initial
    x = initial
    for i in range(n):
        t0, t1 = times[i], times[i + 1]
        h = t1 - t0
        if h <= 0.0:
            values[i + 1] = x
            continue
        k1 = f(t0, x)
        k2 = f(t0 + h / 2.0, x + h / 2.0 * k1)
        k3 = f(t0 + h / 2.0, x + h / 2.0 * k2)
        k4 = f(t1, x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[i + 1] = x
    return OfferedLoad(times=times, values=values, mu=mu)


@dataclass(frozen=True)
class StaffingSchedule:
    """Piecewise-constant staffing levels over ``grid`` cell start times.

    Cell i covers [grid[i], grid[i+1]); the final cell extends to any
    later time.  ``level_at`` is what the simulator consumes.
    """

    grid: np.ndarray
    levels: np.ndarray
    method: Literal["PSA", "MOL"]
    epsilon: float
    mu: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        levels = np.asarray(self.levels, dtype=int)
        if grid.ndim != 1 or len(grid) < 1 or np.any(np.diff(grid) <= 0.0):
            raise DomainError("grid must be strictly increasing")
        if len(levels) != len(grid) or np.any(levels < 1):
            raise DomainError("need one positive level per grid cell")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "levels", levels)

    def level_at(self, t: float) -> int:
        i = int(np.searchsorted(self.grid, t, side="right")) - 1
        return int(self.levels[max(i, 0)])


def _cell_midpoints(grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if len(g) < 1 or np.any(np.diff(g) <= 0.0):
        raise DomainError("grid must be strictly increasing")
    widths = np.diff(g)
    last = widths[-1] if len(widths) else 1.0
    return np.concatenate([g[:-1] + widths / 2.0, [g[-1] + last / 2.0]])


def psa_schedule(rate: RateFunction, mu: float, epsilon: float,
                 grid: Sequence[float]) -> StaffingSchedule:
    """Pointwise-stationary schedule: staff each cell's instantaneous
    stationary model exactly (minimal s with Erlang C <= epsilon, as
    :func:`~qedq.staffing.staff_exact`; one server where the rate is 0).
    Each step of that scan is one Erlang C call over the cells still
    moving."""
    if not (0.0 < mu < math.inf):
        raise DomainError("service rate must be positive and finite, got %r" % (mu,))
    mids = _cell_midpoints(np.asarray(grid, dtype=float))
    offered = np.asarray(rate.rate(mids), dtype=float) / mu
    if not np.all(np.isfinite(offered)):
        raise DomainError("offered load is not finite on the grid")
    levels = np.ones(len(offered), dtype=int)
    busy = offered > 0.0
    if busy.any():
        levels[busy] = _staff_exact_levels(offered[busy], epsilon)
    return StaffingSchedule(grid=np.asarray(grid, dtype=float), levels=levels,
                            method="PSA", epsilon=epsilon, mu=mu)


def mol_schedule(rate: RateFunction, mu: float, epsilon: float,
                 grid: Sequence[float],
                 offered: Optional[OfferedLoad] = None,
                 initial: Optional[float] = None) -> StaffingSchedule:
    """Modified-offered-load schedule ceil(R + beta* sqrt(R)) per cell.

    ``offered`` may carry a precomputed load curve; otherwise it is
    integrated here on a grid four times finer than the schedule cells,
    with stationary initialization when the rate allows it.
    """
    grid = np.asarray(grid, dtype=float)
    mids = _cell_midpoints(grid)
    if offered is None:
        step = float(np.diff(grid).min()) / 4.0 if len(grid) > 1 else 0.25
        offered = offered_load(rate, mu, horizon=float(mids[-1]) + step,
                               grid_step=step, initial=initial)
    beta = beta_for_delay_target(epsilon)
    r = np.maximum(offered(mids), 1e-12)
    levels = np.ceil(r + beta * np.sqrt(r) - 1e-9).astype(int)
    return StaffingSchedule(grid=grid, levels=levels,
                            method="MOL", epsilon=epsilon, mu=mu)
