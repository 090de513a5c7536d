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
from .qed import _mills, delay_correction_coeff, qed_delay_prob
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
    g' = -(M + beta (1 + beta M)) g^2 = -g (g M + beta); g M is written
    1/(1/M + beta), which stays finite when M overflows.
    """
    mills = _mills(beta)
    g = 1.0 / (1.0 + beta * mills)
    dg = -g * (1.0 / (1.0 / mills + beta) + beta)
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


def _diff(f, x: float, h: float):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _diff2(f, x: float, h: float):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def refined_server_shift(r: float, h: float = 1e-5) -> float:
    """O(1) server-count correction of the refined square-root cost rule.

    Equals -beta* G'(beta*) / (K''(beta*) + 2r), with G the finite-size
    cost correction delay_correction_coeff(beta)/beta and K the limiting
    scaled cost.  Derivatives are central differences, cross-validated at
    half step (the closed forms are long enough that transcription is the
    bigger risk).
    """
    beta = cost_beta_star(r)
    corr = lambda b: delay_correction_coeff(b) / b
    k = lambda b: _kstar(b, r)
    d1 = _diff(corr, beta, h)
    d1_check = _diff(corr, beta, h / 10.0)
    if abs(d1 - d1_check) > 1e-4 * max(1.0, abs(d1_check)):
        raise DomainError("refined-rule derivative failed step cross-validation")
    d2 = _diff2(k, beta, h)
    d2_check = _diff2(k, beta, h * 10.0)
    if abs(d2 - d2_check) > 1e-4 * max(1.0, abs(d2_check)):
        raise DomainError("refined-rule curvature failed step cross-validation")
    return -beta * d1 / (d2 + 2.0 * r)


def cost_refined(lam: float, r: float) -> StaffingSolution:
    """Refined square-root cost rule: adds the O(1) server correction."""
    _check_load(lam)
    beta = cost_beta_star(r)
    shift = refined_server_shift(r)
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
