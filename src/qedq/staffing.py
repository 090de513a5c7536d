"""Capacity dimensioning: constraint satisfaction and cost minimization,
exactly and through QED asymptotics, plus the refined (finite-size
corrected) square-root rule and the uncertainty-hedged variant.

Rounding conventions are deliberate and differ by problem: constraint
satisfaction rounds up (a ceiling guarantees the target), cost rules
round to the nearest integer with ties up.  Whenever a rounding lands at
or below the load, the count is bumped to the smallest stable integer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np
from scipy import optimize as _opt

from .errors import DomainError, InstabilityError
from .exact import _erlang_c, erlang_c, erlang_c_real
from .qed import _delay_terms, delay_correction_coeff, qed_delay_prob
from .special import normal_quantile, round_half_up

__all__ = [
    "StaffingProblem",
    "StaffingSolution",
    "staff_exact",
    "beta_for_delay_target",
    "staff_qed",
    "staffing_cost",
    "staffing_cost_real",
    "cost_beta_star",
    "cost_qed",
    "cost_refined",
    "cost_exhaustive",
    "staff_uncertain",
]


def _check_load(lam: float) -> None:
    if not (0.0 < lam < math.inf):
        raise DomainError("load must be positive and finite, got %r" % (lam,))


@dataclass(frozen=True)
class StaffingProblem:
    """A load plus either a delay-probability target or a cost ratio."""

    lam: float
    epsilon: Optional[float] = None
    cost_ratio: Optional[float] = None

    def __post_init__(self):
        _check_load(self.lam)
        if (self.epsilon is None) == (self.cost_ratio is None):
            raise DomainError("give exactly one of epsilon / cost_ratio")
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise DomainError("epsilon must be in (0,1), got %r" % (self.epsilon,))
        if self.cost_ratio is not None and not (self.cost_ratio > 0.0):
            raise DomainError("cost_ratio must be positive, got %r" % (self.cost_ratio,))


@dataclass(frozen=True)
class StaffingSolution:
    s: int
    rule: Literal["exact", "qed", "refined"]
    beta_used: Optional[float]
    predicted: float  # the rule's own prediction of the targeted quantity
    achieved: float   # exact value at the integer s (never the asymptotic)


def _min_stable(lam: float) -> int:
    return int(math.floor(lam)) + 1


def _ceil_guard(x: float) -> int:
    """Ceiling with a tiny cushion so representation fuzz a hair above an
    integer does not buy an extra server."""
    return int(math.ceil(x - 1e-9))


@functools.lru_cache(maxsize=256)
def beta_for_delay_target(epsilon: float) -> float:
    """Solve qed_delay_prob(beta) = epsilon (strictly decreasing in beta).

    Brent's method on a bracket doubled until it holds the root; results
    are cached per epsilon, since schedules solve the same target for
    every cell.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must be in (0,1), got %r" % (epsilon,))
    lo, hi = 0.0, 1.0
    while qed_delay_prob(hi) > epsilon:
        lo = hi
        hi *= 2.0
        if hi > 1e6:
            raise DomainError("no beta matches epsilon=%r" % (epsilon,))
    # g(0+) = 1 > epsilon, so the smallest positive float brackets from below
    lo = max(lo, math.ulp(0.0))
    return _opt.brentq(lambda b: qed_delay_prob(b) - epsilon, lo, hi,
                       xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


def staff_exact(lam: float, epsilon: float) -> StaffingSolution:
    """Smallest stable server count with delay probability <= epsilon.

    Scans from the square-root-rule guess ceil(lam + beta* sqrt(lam)),
    one Erlang C call per step.  Over loads from 1e-3 to 1e7 the guess
    was never above the answer, and the scan took at most 2 steps at
    epsilon >= 1e-3, 6 at 1e-8 and 9 at 1e-12: the count grows as epsilon
    shrinks, not with the load.
    """
    _check_load(lam)
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must be in (0,1), got %r" % (epsilon,))
    floor_s = _min_stable(lam)
    s = max(floor_s, _ceil_guard(lam + beta_for_delay_target(epsilon) * math.sqrt(lam)))
    while s > floor_s and erlang_c(s - 1, lam) <= epsilon:
        s -= 1
    while erlang_c(s, lam) > epsilon:
        s += 1
    return StaffingSolution(s=s, rule="exact", beta_used=None,
                            predicted=epsilon, achieved=erlang_c(s, lam))


def _staff_exact_levels(loads: np.ndarray, epsilon: float) -> np.ndarray:
    """``staff_exact(load, epsilon).s`` for each load > 0.

    The two loops of :func:`staff_exact` run over every cell that is still
    moving, one Erlang C call per step: down while s - 1 is stable and
    C(s - 1) <= epsilon, then up while C(s) > epsilon.  Scalar and array
    Erlang C agree to the last bit and the steps start from the same
    guess, so the levels equal those of :func:`staff_exact`.
    """
    loads = np.asarray(loads, dtype=float)
    stable = np.floor(loads).astype(np.int64) + 1
    beta = beta_for_delay_target(epsilon)
    s = np.maximum(stable, np.ceil(loads + beta * np.sqrt(loads) - 1e-9).astype(np.int64))
    move = np.flatnonzero(s > stable)
    while move.size:
        move = move[_erlang_c(s[move] - 1, loads[move]) <= epsilon]
        s[move] -= 1
        move = move[s[move] > stable[move]]
    move = np.arange(len(s))
    while move.size:
        move = move[_erlang_c(s[move], loads[move]) > epsilon]
        s[move] += 1
    return s


def staff_qed(lam: float, epsilon: float) -> StaffingSolution:
    """Square-root staffing: ceil(lam + beta* sqrt(lam)), g(beta*) = epsilon."""
    _check_load(lam)
    beta = beta_for_delay_target(epsilon)
    s = max(_min_stable(lam), _ceil_guard(lam + beta * math.sqrt(lam)))
    return StaffingSolution(s=s, rule="qed", beta_used=beta,
                            predicted=epsilon, achieved=erlang_c(s, lam))


def staffing_cost(s, lam: float, r: float):
    """Normalized cost r (s - lam) + lam E[delay]; E[delay] via Erlang C.

    ``s`` may be an integer array; the result then has its shape.
    """
    if not (r > 0.0):
        raise DomainError("cost ratio must be positive, got %r" % (r,))
    if not np.all(s > lam):
        raise InstabilityError("cost defined only for s > lam")
    return r * (s - lam) + lam * erlang_c(s, lam) / (s - lam)


def staffing_cost_real(s: float, lam: float, r: float) -> float:
    """The same cost at real-valued s, via :func:`erlang_c_real`.

    Used for optimality-gap evaluation of the continuous staffing rules
    before rounding.
    """
    if not (r > 0.0):
        raise DomainError("cost ratio must be positive, got %r" % (r,))
    if not (s > lam):
        raise InstabilityError("cost defined only for s > lam")
    return r * (s - lam) + lam * erlang_c_real(s, lam) / (s - lam)


def _kstar(beta: float, r: float) -> float:
    return r * beta + qed_delay_prob(beta) / beta


def _kstar_slope(beta: float, r: float) -> float:
    """K'(beta) = r + (beta g' - g) / beta^2 for K(beta) = r beta + g/beta.

    With M = Phi/phi, g = 1/(1 + beta M) and M' = 1 + beta M, so
    g' = -(M + beta (1 + beta M)) g^2 = -g (g M + beta).
    """
    g, g_mills = _delay_terms(beta)
    dg = -g * (g_mills + beta)
    return r + (beta * dg - g) / (beta * beta)


def cost_beta_star(r: float) -> float:
    """Minimizer of the limiting scaled cost r beta + g(beta)/beta.

    The cost is strictly convex, so the minimizer is the one root of its
    closed-form slope; Brent's method solves it on a bracket grown by
    doubling (or halving) from [1/2, 1].
    """
    if not (r > 0.0):
        raise DomainError("cost ratio must be positive, got %r" % (r,))
    lo, hi = 0.5, 1.0
    while _kstar_slope(hi, r) < 0.0:
        lo, hi = hi, 2.0 * hi
    while _kstar_slope(lo, r) > 0.0:
        lo, hi = 0.5 * lo, lo
        if lo < 1e-150:
            raise DomainError("no interior minimum found for r=%r" % (r,))
    return _opt.brentq(_kstar_slope, lo, hi, args=(r,), xtol=1e-16 * lo,
                       rtol=4.0 * np.finfo(float).eps)


def cost_qed(lam: float, r: float) -> StaffingSolution:
    """Square-root rule for the cost problem: nearest-int of lam + beta* sqrt(lam)."""
    _check_load(lam)
    beta = cost_beta_star(r)
    s = round_half_up(lam + beta * math.sqrt(lam))
    if s <= lam:
        s = _min_stable(lam)
    return StaffingSolution(s=s, rule="qed", beta_used=beta,
                            predicted=_kstar(beta, r) * math.sqrt(lam),
                            achieved=staffing_cost(s, lam, r))


def _refined_shift(beta: float, r: float) -> float:
    """-beta G'(beta) / (K''(beta) + 2r) at beta = cost_beta_star(r)."""
    g, q = _delay_terms(beta)
    dg = -g * (q + beta)
    dq = g * g + beta * g * q - q * q
    d2g = -dg * (q + beta) - g * (dq + 1.0)
    a, b = 1.0 / 3.0 + beta * beta / 6.0, beta / 2.0 + beta ** 3 / 6.0
    c = g * g * a + g * q * b
    dc = (2.0 * g * dg * a + g * g * beta / 3.0 + (dg * q + g * dq) * b
          + g * q * (0.5 + beta * beta / 2.0))
    curv = d2g / beta - 2.0 * dg / (beta * beta) + 2.0 * g / beta ** 3
    return -(dc - c / beta) / (curv + 2.0 * r)  # beta G' = c' - c/beta


def refined_server_shift(r: float) -> float:
    """O(1) server-count correction of the refined square-root cost rule.

    Equals -beta* G'(beta*) / (K''(beta*) + 2r), with G = c/beta,
    c = delay_correction_coeff, and K = r beta + g/beta.  The derivatives
    are closed forms in g = 1/(1 + beta M), M = Phi/phi, and q = g M:
    g' = -g (q + beta), q' = g^2 + beta g q - q^2,
    g'' = -g' (q + beta) - g (q' + 1); with c = g^2 A + g q B,
    A = 1/3 + beta^2/6 and B = beta/2 + beta^3/6,
    c' = 2 g g' A + g^2 beta/3 + (g' q + g q') B + g q (1/2 + beta^2/2),
    G' = c'/beta - c/beta^2 and K'' = g''/beta - 2 g'/beta^2 + 2 g/beta^3.
    A 45-digit mpmath test guards the transcription.
    """
    return _refined_shift(cost_beta_star(r), r)


def cost_refined(lam: float, r: float) -> StaffingSolution:
    """Refined square-root cost rule: adds the O(1) server correction."""
    _check_load(lam)
    beta = cost_beta_star(r)
    shift = _refined_shift(beta, r)
    s = round_half_up(lam + beta * math.sqrt(lam) + shift)
    if s <= lam:
        s = _min_stable(lam)
    return StaffingSolution(s=s, rule="refined",
                            beta_used=beta + shift / math.sqrt(lam),
                            predicted=(_kstar(beta, r)
                                       + (delay_correction_coeff(beta) / beta)
                                       / math.sqrt(lam)) * math.sqrt(lam),
                            achieved=staffing_cost(s, lam, r))


def cost_exhaustive(lam: float, r: float) -> int:
    """Integer cost minimizer by scan over (lam, lam + 10 sqrt(lam) + 10]."""
    _check_load(lam)
    s = np.arange(_min_stable(lam), int(math.ceil(lam + 10.0 * math.sqrt(lam) + 10.0)) + 1)
    return int(s[np.argmin(staffing_cost(s, lam, r))])


def staff_uncertain(lam_hat: float, sigma: float, epsilon: float) -> int:
    """Uncertainty-hedged square-root staffing.

    With the load known only as an estimate lam_hat with standard error
    sigma, the fluctuation hedge widens to sqrt(sigma^2 + lam_hat):
    s = ceil(lam_hat + z_(1-eps) sqrt(sigma^2 + lam_hat)).  At sigma = 0
    this is the plain infinite-server square-root rule.
    """
    if not (lam_hat > 0.0):
        raise DomainError("estimated load must be positive, got %r" % (lam_hat,))
    if sigma < 0.0:
        raise DomainError("sigma must be >= 0, got %r" % (sigma,))
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must be in (0,1), got %r" % (epsilon,))
    beta = normal_quantile(1.0 - epsilon)
    return _ceil_guard(lam_hat + beta * math.sqrt(sigma * sigma + lam_hat))
