"""Closed-form limits, refinements and bounds for the QED (square-root
capacity) regime.

The central object is the limiting delay probability

    qed_delay_prob(beta) = (1 + beta Phi(beta) / phi(beta))^(-1),

reached by M/M/s along s = load + beta sqrt(load).  Everything else in
this module is a relative of it: the scaled mean delay, the loss-system
coefficient, the finite-size correction and sandwich bounds, the hybrid
diffusion stationary law, the abandonment (Erlang A) limits, and the
finite-buffer two-fold-scaling limit.

All formulas are evaluated in factored form (a single exp per normal
density, complements via expm1/log1p) so they stay accurate for beta in
the whole practical range.  Mills ratios Phi/phi and normal hazards go
through ``scipy.special.erfcx``, so no formula divides by a density that
has underflowed: for |beta| up to 60 and beyond, results are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from scipy import special as _sp

from .errors import DomainError, InstabilityError
from .special import round_half_up

__all__ = [
    "QedPoint",
    "QedBounds",
    "HwStationary",
    "AbandonmentLimits",
    "qed_delay_prob",
    "qed_mean_delay",
    "qed_loss_coefficient",
    "infinite_server_delay",
    "corrected_delay_prob",
    "delay_correction_coeff",
    "qed_bounds",
    "hw_stationary",
    "erlang_a_qed_limits",
    "finite_buffer_delay_limit",
    "scaled_servers",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QedPoint:
    """Asymptotic parameterization of a system in the QED regime."""

    beta: float
    gamma: float | None = None
    theta: float | None = None

    def __post_init__(self):
        if not (self.beta > 0.0):
            raise DomainError("beta must be positive, got %r" % (self.beta,))
        if self.gamma is not None and not (self.gamma > 0.0):
            raise DomainError("gamma must be positive when given, got %r" % (self.gamma,))
        if self.theta is not None and self.theta < 0.0:
            raise DomainError("theta must be >= 0 when given, got %r" % (self.theta,))


class QedBounds(NamedTuple):
    alpha: float
    gamma_s: float
    lower: float
    upper: float


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _mills(x: float) -> float:
    """Phi(x) / phi(x) = sqrt(pi/2) erfcx(-x/sqrt(2)), without dividing by
    an underflowed density; it is inf (not an error) for x > 37.6."""
    return _SQRT_HALF_PI * float(_sp.erfcx(-x / _SQRT2))


def _delay_terms(beta: float) -> tuple[float, float]:
    """g = 1/(1 + beta M) and g M, M = Phi/phi; g M is finite when M overflows."""
    mills = _mills(beta)
    return 1.0 / (1.0 + beta * mills), 1.0 / (1.0 / mills + beta)


def qed_delay_prob(beta: float) -> float:
    """Limiting M/M/s delay probability under square-root capacity slack."""
    if not (beta > 0.0):
        raise DomainError("qed_delay_prob requires beta > 0, got %r" % (beta,))
    pdf = _phi(beta)
    return pdf / (pdf + beta * float(_sp.ndtr(beta)))


def qed_mean_delay(beta: float) -> float:
    """Limit of sqrt(s) * E[delay]; equals qed_delay_prob(beta) / beta."""
    return qed_delay_prob(beta) / beta


def qed_loss_coefficient(beta: float) -> float:
    """Limit of sqrt(load) * ErlangB along the square-root rule: phi/Phi."""
    if not (beta > 0.0):
        raise DomainError("qed_loss_coefficient requires beta > 0, got %r" % (beta,))
    return _phi(beta) / float(_sp.ndtr(beta))


def infinite_server_delay(s: float, lam: float) -> float:
    """Normal (infinite-server) approximation 1 - Phi((s - lam)/sqrt(lam)).

    Ignores queueing feedback, hence underestimates the true delay
    probability; useful as a quick lower anchor.
    """
    if not (lam > 0.0):
        raise DomainError("infinite_server_delay requires lam > 0, got %r" % (lam,))
    return float(_sp.ndtr(-(float(s) - lam) / math.sqrt(lam)))


def delay_correction_coeff(beta: float) -> float:
    """Coefficient of the O(1/sqrt(load)) finite-size delay correction.

    Equals g(beta)^2 [1/3 + beta^2/6 + (Phi/phi)(beta/2 + beta^3/6)] with
    g the limiting delay probability.
    """
    if not (0.0 < beta < math.inf):
        raise DomainError("delay_correction_coeff requires finite beta > 0, got %r" % (beta,))
    g, g_mills = _delay_terms(beta)
    return g * g * (1.0 / 3.0 + beta * beta / 6.0) + g * g_mills * (beta / 2.0 + beta ** 3 / 6.0)


def corrected_delay_prob(s: int, lam: float) -> float:
    """Limit value plus the first finite-size correction term.

    Evaluates g(beta) + coeff(beta) * beta / sqrt(lam) at
    beta = (s - lam)/sqrt(lam); substantially closer to Erlang C than the
    bare limit for systems of moderate size.
    """
    if not (lam > 0.0):
        raise DomainError("corrected_delay_prob requires lam > 0, got %r" % (lam,))
    if not (s > lam):
        raise InstabilityError("corrected_delay_prob requires s > lam")
    beta = (s - lam) / math.sqrt(lam)
    return qed_delay_prob(beta) + delay_correction_coeff(beta) * beta / math.sqrt(lam)


def qed_bounds(s: int, lam: float) -> QedBounds:
    """Sandwich bounds on Erlang C sharp to O(1/s) in the QED regime.

    The controlling parameter alpha = sqrt(-2 s (1 - rho + ln rho)) is
    evaluated through log1p so that the cancellation at rho near 1 (the
    QED regime itself) costs no precision.
    """
    if not (lam > 0.0):
        raise DomainError("qed_bounds requires lam > 0, got %r" % (lam,))
    if not (s > lam):
        raise InstabilityError("qed_bounds requires s > lam, got s=%r lam=%r" % (s, lam))
    s = float(s)
    rho = lam / s
    u = 1.0 - rho
    alpha = math.sqrt(-2.0 * s * (u + math.log1p(-u)))
    gamma_s = u * math.sqrt(s)
    pdf_a = _phi(alpha)
    base = _mills(alpha) + (2.0 / 3.0) / math.sqrt(s)
    upper = 1.0 / (rho + gamma_s * base)
    slack = math.inf if pdf_a == 0.0 else 1.0 / (pdf_a * (12.0 * s - 1.0))
    lower = 1.0 / (rho + gamma_s * (base + slack))
    return QedBounds(alpha=alpha, gamma_s=gamma_s, lower=lower, upper=upper)


@dataclass(frozen=True)
class HwStationary:
    """Stationary law of the hybrid diffusion limit (Brownian motion with
    drift above zero, mean-reverting below).

    ``p_positive`` is the mass above zero, the conditional law above zero
    is exponential, below zero a renormalized Gaussian; ``mean_above`` is
    the unconditional mean of the positive part.
    """

    beta: float
    p_positive: float
    mean_above: float

    def tail_above(self, x: float) -> float:
        """P(D >= x | D > 0) = exp(-beta x) for x >= 0."""
        if x < 0.0:
            raise DomainError("tail_above requires x >= 0, got %r" % (x,))
        return math.exp(-self.beta * x)

    def cdf_below(self, x: float) -> float:
        """P(D <= x | D <= 0) = Phi(beta + x)/Phi(beta) for x <= 0."""
        if x > 0.0:
            raise DomainError("cdf_below requires x <= 0, got %r" % (x,))
        return float(_sp.ndtr(self.beta + x)) / float(_sp.ndtr(self.beta))


def hw_stationary(beta: float) -> HwStationary:
    """Stationary distribution summary of the QED diffusion limit."""
    g = qed_delay_prob(beta)
    return HwStationary(beta=beta, p_positive=g, mean_above=g / beta)


class AbandonmentLimits(NamedTuple):
    delay_prob: float
    abandon_coef: float  # limit of sqrt(lam) * P(abandon)


def erlang_a_qed_limits(beta: float, theta: float) -> AbandonmentLimits:
    """QED limits for the abandonment queue M/M/s+M.

    ``beta`` may be any real (abandonment stabilizes every load); theta
    must be positive.  Returns the limiting delay probability and the
    coefficient of the vanishing abandonment fraction.
    """
    if not (theta > 0.0):
        raise DomainError("erlang_a_qed_limits requires theta > 0, got %r" % (theta,))
    if not math.isfinite(beta):
        raise DomainError("erlang_a_qed_limits requires finite beta, got %r" % (beta,))
    rt = math.sqrt(theta)
    # sqrt(theta) h(beta/sqrt(theta)) with the normal hazard h(x) = 1/mills(-x);
    # 1/h(-beta) = mills(beta).  Both ratios stay finite or go to 0 / inf
    # without a division by an underflowed density.
    hazard = rt / _mills(-beta / rt)
    delay = 1.0 / (1.0 + hazard * _mills(beta))
    abandon = (hazard - beta) * delay
    return AbandonmentLimits(delay_prob=delay, abandon_coef=abandon)


def finite_buffer_delay_limit(beta: float, gamma: float) -> float:
    """Two-fold-scaling limit of the admitted-job delay probability in
    M/M/s/n with s = lam + beta sqrt(lam) and n = s + gamma sqrt(s).

    Strictly below the infinite-buffer limit and increasing to it as the
    buffer slack gamma grows.
    """
    if not (beta > 0.0) or not (gamma > 0.0):
        raise DomainError("finite_buffer_delay_limit requires beta, gamma > 0")
    pdf = _phi(beta)
    cut = -math.expm1(-beta * gamma)  # 1 - exp(-beta gamma), stable for small products
    return cut * pdf / (cut * pdf + beta * float(_sp.ndtr(beta)))


def scaled_servers(lam: float, beta: float, rule: str) -> int:
    """Server counts under the three canonical capacity scalings.

    ``ED`` adds a constant margin, ``QED`` a square-root margin, ``QD`` a
    proportional margin.  Nearest-integer rounding (ties up); if rounding
    lands at or below the load the count is bumped to the smallest stable
    integer.
    """
    if not (lam > 0.0) or not (beta > 0.0):
        raise DomainError("scaled_servers requires lam > 0 and beta > 0")
    if rule == "ED":
        raw = lam + beta
    elif rule == "QED":
        raw = lam + beta * math.sqrt(lam)
    elif rule == "QD":
        raw = lam + beta * lam
    else:
        raise DomainError("rule must be one of ED, QED, QD; got %r" % (rule,))
    s = round_half_up(raw)
    if s <= lam:
        s = int(math.floor(lam)) + 1
    return s
