"""The bulk-service queue (Poisson demand, deterministic per-period
capacity) and its square-root-slack limit, the maximum of a random walk
with Gaussian N(-beta, 1) increments.

Steady state of the reflected walk comes from the classical series over
positive parts of the partial sums S_k = Pois(k lam) - k s:

    P(Q = 0) = exp(-sum_k P(S_k > 0)/k),   E[Q] = sum_k E[S_k^+]/k.

Both series converge geometrically whenever lam < s; each term needs one
Poisson tail, evaluated through the incomplete gamma function so that
periods deep into the sum (means of k*lam) cost no precision.

The limit constants P(M = 0) and E[M] of the Gaussian walk maximum are
zeta-function series, convergent for 0 < beta < 2 sqrt(pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NumericalError
from .special import SeriesControl, poisson_tail, zeta_half

__all__ = [
    "BulkModel",
    "BulkStationary",
    "GaussianWalkMax",
    "PoissonPlus",
    "pois_plus_stats",
    "bulk_stationary",
    "gaussian_walk_max",
    "many_sources_staffing",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


@dataclass(frozen=True)
class BulkModel:
    """Per-period Poisson demand ``lam`` against deterministic capacity ``s``."""

    lam: float
    s: int
    control: SeriesControl = SeriesControl()

    def __post_init__(self):
        if not (self.lam > 0.0):
            raise DomainError("demand rate must be positive, got %r" % (self.lam,))
        if int(self.s) != self.s or self.s < 1:
            raise DomainError("capacity must be a positive integer, got %r" % (self.s,))
        if not (self.lam < self.s):
            raise DomainError(
                "stability requires lam < s, got lam=%r s=%r" % (self.lam, self.s)
            )


class PoissonPlus(NamedTuple):
    p_gt: float       # P(Pois(mean) > c)
    plus_mean: float  # E[(Pois(mean) - c)^+]


class BulkStationary(NamedTuple):
    p_empty: float
    mean_queue: float
    terms_used: int
    # geometric-extrapolation bounds on the truncated remainders
    log_remainder: float
    mean_remainder: float


class GaussianWalkMax(NamedTuple):
    beta: float
    p_zero: float    # P(all-time maximum = 0)
    mean_max: float  # E[all-time maximum]
    terms_used: int


def pois_plus_stats(mean: float, c: int) -> PoissonPlus:
    """Upper tail and mean positive excess of Pois(mean) over level c.

    E[(N - c)^+] = mean P(N >= c) - c P(N >= c + 1), with the tails from
    :func:`poisson_tail`.
    """
    tail = poisson_tail(mean, c)
    return PoissonPlus(p_gt=tail.p_gt, plus_mean=mean * tail.p_geq - c * tail.p_gt)


def bulk_stationary(model: BulkModel) -> BulkStationary:
    """Empty probability and mean of the stationary bulk-service queue.

    Terms are accumulated in vectorized blocks; the summation stops once
    both series' terms drop below ``control.abs_tol`` (never before term
    10, since early terms can be non-monotone).  The discarded remainders
    are bounded by geometric extrapolation and reported.
    """
    lam, s, control = model.lam, int(model.s), model.control
    log_sum = 0.0
    mean_sum = 0.0
    block = 64
    k0 = 1
    t_log = t_mean = math.inf
    prev_log = prev_mean = math.inf
    while k0 <= control.max_terms:
        k = np.arange(k0, min(k0 + block, control.max_terms + 1))
        m = k * lam
        c = k * s
        p_gt = _sp.gammainc(c + 1, m)
        p_geq = _sp.gammainc(c, m)
        plus_mean = m * p_geq - c * p_gt
        tl = p_gt / k
        tm = plus_mean / k
        log_sum += float(tl.sum())
        mean_sum += float(tm.sum())
        prev_log = float(tl[-2]) if len(tl) > 1 else prev_log
        prev_mean = float(tm[-2]) if len(tm) > 1 else prev_mean
        t_log = float(tl[-1])
        t_mean = float(tm[-1])
        k0 = int(k[-1]) + 1
        if k0 > 10 and t_log < control.abs_tol and t_mean < control.abs_tol:
            break
    else:
        raise NumericalError(
            "bulk series not converged within %d terms (lam close to s)"
            % control.max_terms
        )

    def geo_rem(last: float, before: float) -> float:
        if last <= 0.0 or before <= 0.0 or last >= before:
            return last
        r = last / before
        return last * r / (1.0 - r)

    return BulkStationary(
        p_empty=math.exp(-log_sum),
        mean_queue=mean_sum,
        terms_used=k0 - 1,
        log_remainder=geo_rem(t_log, prev_log),
        mean_remainder=geo_rem(t_mean, prev_mean),
    )


def gaussian_walk_max(beta: float, control: SeriesControl = SeriesControl()) -> GaussianWalkMax:
    """Atom at zero and mean of the all-time maximum of the Gaussian walk.

    Valid for 0 < beta < 2 sqrt(pi) (the series' radius); both series use
    the embedded zeta table.  The mean also satisfies the Brownian bound
    E[M] <= 1/(2 beta), which callers can use as a sanity envelope.
    """
    if not (0.0 < beta < _TWO_SQRT_PI):
        raise DomainError(
            "gaussian_walk_max requires 0 < beta < 2*sqrt(pi), got %r" % (beta,)
        )
    x = -beta * beta / 2.0
    pow_over_fact = 1.0  # x^l / l!
    s_zero = 0.0
    s_mean = 0.0
    l = 0
    converged = False
    while l <= control.max_terms:
        try:
            z_plus = zeta_half(l, "plus")
            z_minus = zeta_half(l, "minus")
        except DomainError:
            break
        t_zero = z_plus * pow_over_fact / (2 * l + 1)
        t_mean = z_minus * pow_over_fact / ((2 * l + 1) * (2 * l + 2))
        s_zero += t_zero
        s_mean += t_mean
        l += 1
        pow_over_fact *= x / l
        if l > 3 and abs(t_zero) < control.abs_tol and abs(t_mean) < control.abs_tol:
            converged = True
            break
    if not converged:
        raise NumericalError(
            "zeta series for the walk maximum did not converge within %d terms "
            "(beta=%r close to the radius 2*sqrt(pi))" % (l, beta)
        )
    p_zero = math.sqrt(2.0) * beta * math.exp(beta / _SQRT_2PI * s_zero)
    mean_max = (1.0 / (2.0 * beta) + zeta_half(0, "plus") / _SQRT_2PI + beta / 4.0
                + beta * beta / _SQRT_2PI * s_mean)
    return GaussianWalkMax(beta=beta, p_zero=p_zero, mean_max=mean_max, terms_used=l)


def many_sources_staffing(mu_a: float, sigma_a: float, beta: float) -> float:
    """Capacity rule mean demand + beta * (demand standard deviation).

    Generalizes square-root capacity slack to arbitrary per-period demand
    distributions; with sigma = sqrt(mu) it reduces to the Poisson rule.
    Returned un-rounded; the caller owns the rounding convention.
    """
    if not (mu_a > 0.0) or not (sigma_a > 0.0) or not (beta > 0.0):
        raise DomainError("many_sources_staffing requires positive arguments")
    return mu_a + beta * sigma_a
