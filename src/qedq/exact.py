"""Exact stationary analysis of Markovian multi-server queues.

Covers the Erlang loss and delay formulas (including their extension to
real server counts), full stationary measures of M/M/s, the
finite-buffer M/M/s/n, and the abandonment model M/M/s+M.  Erlang B/C and
the M/M/s, M/M/s/n and M/M/s+M laws are closed forms on scipy ufuncs,
built on the one Poisson pmf of ``qedq.special``; Erlang B is the same
formula p(s) / Q(s+1, load) at integer and real s, and broadcasts over
arrays of s and load.  The three laws are built only from the state
floor up (``_state_floor``): in the QED regime the mass lies within
O(sqrt(load)) states of the mode, and the weights below the floor are
0.0 in double precision.  The generic birth-death solver stays as the
public tool for other chains and as the tests' reference.

Conventions: ``load`` always means offered load lambda/mu.  ``mean_delay``
is queueing time only (no service), ``mean_queue`` counts waiting jobs
only.  Little's law links the two through the rate of admitted jobs,
which excludes blocked arrivals under a finite buffer.  Under
abandonment every arrival is admitted and an abandoning job counts with
its time in queue until it leaves, so ``mean_delay = mean_queue / lambda``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy import special as _sp

from .errors import DomainError, InstabilityError, NumericalError
from .special import SeriesControl, _poisson_log_pmf

__all__ = [
    "QueueModel",
    "StationaryMeasures",
    "BirthDeathResult",
    "erlang_b",
    "erlang_c",
    "erlang_c_real",
    "mms_measures",
    "mms_pi",
    "solve_birth_death",
    "mmsn_measures",
    "erlang_a_measures",
]


@dataclass(frozen=True)
class QueueModel:
    """Parameters of an M/M/s-family system.

    ``n`` (total capacity, buffer included) selects the finite-buffer
    variant, ``theta`` (abandonment rate) the Erlang-A variant; at most
    one of the two may be set.
    """

    lam: float
    s: int
    mu: float = 1.0
    n: Optional[int] = None
    theta: Optional[float] = None

    def __post_init__(self):
        if not (self.lam > 0.0):
            raise DomainError("arrival rate must be positive, got %r" % (self.lam,))
        if not (self.mu > 0.0):
            raise DomainError("service rate must be positive, got %r" % (self.mu,))
        if int(self.s) != self.s or self.s < 1:
            raise DomainError("server count must be a positive integer, got %r" % (self.s,))
        if self.n is not None and self.theta is not None:
            raise DomainError("finite buffer and abandonment are mutually exclusive")
        if self.n is not None and self.n < self.s:
            raise DomainError("system capacity n=%r below server count s=%r" % (self.n, self.s))
        if self.theta is not None and self.theta < 0.0:
            raise DomainError("abandonment rate must be >= 0, got %r" % (self.theta,))

    @property
    def load(self) -> float:
        return self.lam / self.mu

    @property
    def rho(self) -> float:
        return self.lam / (self.s * self.mu)


@dataclass(frozen=True)
class StationaryMeasures:
    """Steady-state performance measures plus the distribution itself."""

    delay_prob: float
    mean_delay: float
    mean_queue: float
    utilization: float
    pi: np.ndarray
    tail_mass: float
    block_prob: Optional[float] = None
    abandon_prob: Optional[float] = None


class BirthDeathResult(NamedTuple):
    pi: np.ndarray
    tail_mass: float
    converged: bool


# Up to this many servers Erlang B at integer s comes from the recursion:
# it is exact to rounding there (tests pin it to 1e-15 at s <= 12), and its
# O(s) loop costs about as much as the closed form at s = 40.
_RECURSION_MAX_S = 40
# The closed form divides by the Poisson upper tail Q(s+1, load); below
# this value (load >> s) it nears the subnormal range and the recursion
# takes over.
_CDF_MIN = 1e-290


def _erlang_b_recursion(s: int, load: float) -> float:
    b = 1.0
    for k in range(1, s + 1):
        b = load * b / (k + load * b)
    return b


def _erlang_b(s, load):
    """Erlang B at an int, a float (real s) or an integer array ``s``, and
    a float or float array ``load`` that broadcasts with ``s``.

    B = p(s) / Q(s+1, load): the Poisson(load) pmf over the regularized
    upper incomplete gamma, which at integer s is the Poisson cdf.  At
    real s this is Jagerman's continuous Erlang B, because
    1/B = load int_0^inf e^(-load t) (1+t)^s dt = e^load load^(-s)
    Gamma(s+1, load).  Integer s <= 40, and integer s whose Q underflows,
    take the recursion instead.  A real s must exceed the load, so that Q
    stays near 1.  Scalar and array calls go through the same ufuncs,
    ``np.exp`` included, so they agree to the last bit.
    """
    if isinstance(s, np.ndarray) or isinstance(load, np.ndarray):
        x, a = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(load, dtype=float))
        shape, x, a = x.shape, x.ravel(), a.ravel()
        q = _sp.gammaincc(x + 1.0, a)
        with np.errstate(divide="ignore", invalid="ignore"):
            b = np.exp(_poisson_log_pmf(x, a)) / q
        for i in np.flatnonzero((x <= _RECURSION_MAX_S) | ~(q >= _CDF_MIN)):
            b[i] = _erlang_b_recursion(int(x[i]), float(a[i]))
        return b.reshape(shape)
    if s <= _RECURSION_MAX_S and isinstance(s, int):
        return _erlang_b_recursion(s, load)
    q = float(_sp.gammaincc(s + 1.0, load))
    if q < _CDF_MIN and isinstance(s, int):
        return _erlang_b_recursion(s, load)
    return float(np.exp(_poisson_log_pmf(float(s), load))) / q


def _erlang_c(s, load):
    """Erlang C from Erlang B as C = B / (1 - rho (1 - B)), which stays
    defined when B underflows to 0 (C is then 0.0); ``s`` and ``load`` as
    for :func:`_erlang_b`, with s > load."""
    b = _erlang_b(s, load)
    rho = load / s
    return b / (1.0 - rho * (1.0 - b))


def _check_erlang_args(name: str, s, load: float):
    """Validate the server count(s) and the load; return s as an int or as
    an integer array."""
    if not (load > 0.0):
        raise DomainError("%s requires load > 0, got %r" % (name, load))
    if not isinstance(s, (np.ndarray, list, tuple)):
        if int(s) != s or s < 1:
            raise DomainError("%s requires integer s >= 1, got %r" % (name, s))
        return int(s)
    arr = np.asarray(s)
    if arr.size == 0 or np.any(arr != np.floor(arr)) or np.any(arr < 1):
        raise DomainError("%s requires integer s >= 1, got %r" % (name, s))
    return arr.astype(np.int64)


def erlang_b(s, load: float):
    """Blocking probability of the M/M/s/s loss system.

    For s > 40 this is the closed form B = p(s) / F(s), the Poisson(load)
    pmf over its cdf: p is taken in Loader's saddle-point form and F is
    ``scipy.special.gammaincc(s + 1, load)``, so a call costs O(1) for any
    s; it agrees with a 50-digit reference to about 1e-12 relative for
    s <= 1e6.  For s <= 40, and where F underflows (load >> s), it uses
    the stable recursion B(0) = 1, B(k) = a B(k-1) / (k + a B(k-1)).

    ``s`` may be an integer array; the result then has its shape.
    """
    return _erlang_b(_check_erlang_args("erlang_b", s, load), load)


def erlang_c(s, load: float):
    """Probability an arriving job must wait in the M/M/s queue.

    Computed from Erlang B as C = B / (1 - rho (1 - B)), which stays
    defined when B underflows to 0 (C is then 0.0).  ``s`` may be an
    integer array, as for :func:`erlang_b`.
    """
    s = _check_erlang_args("erlang_c", s, load)
    if load >= (s if isinstance(s, int) else s.min()):
        raise InstabilityError("M/M/s unstable: load %r >= s=%r" % (load, s))
    return _erlang_c(s, load)


def erlang_c_real(s: float, load: float) -> float:
    """Erlang C at a real server count s > load.

    The same closed form as :func:`erlang_c`, C = B / (1 - rho (1 - B))
    with B = p(s) / Q(s+1, load) and the pmf at real s (see
    ``_erlang_b``); at integer s it equals :func:`erlang_c` up to the
    recursion used there for s <= 40.  Within about 1e-12 relative of a
    50-digit reference for s from 0.5 to 1e6.
    """
    s = float(s)
    if not (load > 0.0):
        raise DomainError("erlang_c_real requires load > 0, got %r" % (load,))
    if not math.isfinite(s):
        raise DomainError("erlang_c_real requires finite s, got %r" % (s,))
    if not (s > load):
        raise InstabilityError("erlang_c_real requires s > load, got s=%r load=%r" % (s, load))
    return _erlang_c(s, load)


# exp() of a log-weight this far below the largest one is 0.0: the
# smallest subnormal is exp(-745.1), and the margin covers rounding.
_UNDERFLOW_LOG = -760.0


def _state_floor(load: float, s: int) -> int:
    """A state below which every stationary weight of M/M/s, M/M/s/n or
    M/M/s+M is 0.0 after ``exp(logw - max)``; 0 when there is none.

    In all three chains the birth rate is constant and the death rate
    nondecreasing, so the law is log-concave and unimodal.  Up to s the
    weights are Poisson(load), rising up to c = min(floor(load), s), so the
    mode is at or above c and every state up to k0 = c - sqrt(1600 c)
    weighs at most p(k0) / p(c) of the largest weight.  One pmf check
    shows whether that ratio underflows; in the QED regime it does once c
    exceeds a few thousand, and the states below k0 (most of them at
    large load) need not be built.
    """
    c = min(math.floor(load), s)
    k0 = math.floor(c - math.sqrt(1600.0 * c))
    if k0 > 0 and (_poisson_log_pmf(float(k0), load) - _poisson_log_pmf(float(c), load)
                   < _UNDERFLOW_LOG):
        return k0
    return 0


def _state_ceiling(load: float, s: int) -> int:
    """For M/M/s (load < s): a state above which every stationary weight
    is 0.0 after ``exp(logw - max)``; s when there is none.

    Past the mode c = floor(load) the weights fall, so every state above
    k1 = c + sqrt(1600 c) + 760 weighs at most p(k1) / p(c) of the largest,
    and one pmf check shows whether that underflows.  Without the 760 the
    ratio is only e^-233 at c = 10 and e^-711 at c = 1e4.
    """
    c = math.floor(load)
    k1 = math.ceil(c + math.sqrt(1600.0 * c)) + 760
    if k1 < s and (_poisson_log_pmf(float(k1), load) - _poisson_log_pmf(float(c), load)
                   < _UNDERFLOW_LOG):
        return k1
    return s


def mms_pi(load: float, s: int, abs_tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """Stationary distribution of M/M/s, truncated with reported tail mass.

    States 0..s carry the Poisson(load) weights; above s the law is geometric
    with ratio rho = load/s.  States below ``_state_floor`` and above
    ``_state_ceiling`` are 0.0 in double precision and are zero-filled,
    not computed.  The returned
    array covers 0..s + m, where m is the smallest count that leaves a
    remaining mass below ``abs_tol``, capped at
    ``SeriesControl().max_terms`` so that rho near 1 cannot exhaust
    memory.  The exact geometric remainder
    pi_s rho^(m+1) / (1 - rho) is returned as the tail mass, so
    ``pi.sum() + tail_mass == 1`` up to rounding, also when the cap binds.
    """
    if not (load > 0.0):
        raise DomainError("mms_pi requires load > 0, got %r" % (load,))
    if load >= s:
        raise InstabilityError("M/M/s unstable: load %r >= s=%r" % (load, s))
    rho = load / s
    lo, hi = _state_floor(load, s), _state_ceiling(load, s)
    logw = _poisson_log_pmf(np.arange(lo, hi + 1, dtype=float), load)
    log_ps = logw[-1] if hi == s else _poisson_log_pmf(float(s), load)
    # normalization: sum_{k<=s} p(k) + p(s) * rho/(1-rho)
    log_norm = np.logaddexp(_sp.logsumexp(logw), log_ps + math.log(rho / (1.0 - rho)))
    extra = math.ceil((math.log(abs_tol) + log_norm - log_ps + math.log(1.0 - rho))
                      / math.log(rho))
    extra = min(max(extra, 1), SeriesControl().max_terms)
    # log-weights, then weights, in place: the geometric tail may hold
    # SeriesControl().max_terms states
    pi = np.zeros(s + 1 + extra)
    pi[lo:hi + 1] = logw
    if hi == s:  # else the geometric tail lies above the ceiling too
        tail = pi[s + 1:]
        np.multiply(np.arange(1.0, extra + 1), math.log(rho), out=tail)
        tail += log_ps
        hi = len(pi) - 1
    mass = pi[lo:hi + 1]
    mass -= log_norm
    np.exp(mass, out=mass)
    tail_mass = math.exp(log_ps - log_norm + (extra + 1) * math.log(rho)) / (1.0 - rho)
    return pi, tail_mass


def mms_measures(model: QueueModel, abs_tol: float = 1e-12) -> StationaryMeasures:
    """Full steady-state measures of the plain M/M/s queue.

    The mean queue is the exact C rho / (1 - rho), independent of where
    ``pi`` is truncated.
    """
    if model.n is not None or model.theta is not None:
        raise DomainError("mms_measures expects a plain M/M/s model")
    a, s, rho = model.load, int(model.s), model.rho
    if rho >= 1.0:
        raise InstabilityError("M/M/s unstable: rho=%r >= 1" % (rho,))
    c = erlang_c(s, a)
    mean_delay = c / ((1.0 - rho) * s * model.mu)
    mean_queue = c * rho / (1.0 - rho)
    pi, tail = mms_pi(a, s, abs_tol)
    return StationaryMeasures(
        delay_prob=c,
        mean_delay=mean_delay,
        mean_queue=mean_queue,
        utilization=rho,
        pi=pi,
        tail_mass=tail,
    )


RateSpec = Union[Sequence[float], Callable[[int], float]]


def solve_birth_death(
    birth: RateSpec,
    death: RateSpec,
    control: SeriesControl = SeriesControl(),
) -> BirthDeathResult:
    """Stationary distribution of a birth-death chain by detailed balance.

    ``birth(k)`` is the rate out of state k upward, ``death(k)`` the rate
    from state k down to k-1 (k >= 1).  Passing sequences fixes the state
    space to 0..len(birth); passing callables grows the state space until
    the estimated remaining mass drops below ``control.abs_tol`` or
    ``control.max_terms`` states have been used, whichever comes first.
    A normalization that keeps growing is reported as unstable.
    """
    seq_mode = not callable(birth)
    if seq_mode != (not callable(death)):
        raise DomainError("birth and death must both be sequences or both callables")

    if seq_mode:
        b = np.asarray(birth, dtype=float)
        d = np.asarray(death, dtype=float)
        if len(b) != len(d):
            raise DomainError("birth and death sequences must have equal length")
        if np.any(b < 0.0) or np.any(d <= 0.0):
            raise DomainError("rates must be nonnegative (deaths strictly positive)")
        logw = np.concatenate([[0.0], np.cumsum(np.log(np.where(b > 0, b, 1.0))
                                                - np.log(d))])
        # a zero birth rate truncates the reachable space
        zero = np.where(b == 0.0)[0]
        if len(zero):
            logw[zero[0] + 1:] = -np.inf
        w = np.exp(logw - np.max(logw[np.isfinite(logw)]))
        pi = w / w.sum()
        return BirthDeathResult(pi, 0.0, True)

    logw = [0.0]
    log_max = 0.0
    total = 1.0  # running sum of exp(logw - log_max)
    k = 1
    while k <= control.max_terms:
        bk = float(birth(k - 1))
        dk = float(death(k))
        if bk < 0.0 or dk <= 0.0:
            raise DomainError("rates must be nonnegative (deaths strictly positive)")
        if bk == 0.0:
            break
        logw.append(logw[-1] + math.log(bk) - math.log(dk))
        if logw[-1] > log_max:
            total *= math.exp(log_max - logw[-1])
            log_max = logw[-1]
        total += math.exp(logw[-1] - log_max)
        k += 1
        if k > 10:
            ratio = math.exp(logw[-1] - logw[-2])
            if ratio < 1.0:
                # geometric bound on the un-enumerated mass
                rem = math.exp(logw[-1] - log_max) * ratio / (1.0 - ratio)
                if rem < control.abs_tol * total:
                    w = np.exp(np.array(logw) - log_max)
                    pi = w / (w.sum() + rem)
                    return BirthDeathResult(pi, rem / (w.sum() + rem), True)
    else:
        ratio = math.exp(logw[-1] - logw[-2])
        if ratio >= 1.0:
            raise InstabilityError(
                "birth-death normalization diverges (weight ratio %.3f >= 1)" % ratio
            )
        raise NumericalError(
            "birth-death solver did not reach tail tolerance within %d states"
            % control.max_terms
        )
    w = np.exp(np.array(logw) - log_max)
    pi = w / w.sum()
    return BirthDeathResult(pi, 0.0, True)


def _queue_and_utilization(pi: np.ndarray, lo: int, s: int) -> tuple[float, float]:
    """Mean number waiting and utilization of a law that is 0 below lo."""
    k = np.arange(lo, len(pi))
    return (float(np.sum(np.maximum(k - s, 0) * pi[lo:])),
            float(np.sum(np.minimum(k, s) * pi[lo:])) / s)


def mmsn_measures(model: QueueModel) -> StationaryMeasures:
    """Steady-state measures of the finite-capacity M/M/s/n queue.

    The state weights are closed forms: the Poisson(load) pmf up to s and
    p(s) rho^(k-s) from s to n, built by ``_erlang_a_log_weights`` at
    theta = 0.  States below ``_state_floor`` are 0.0 in double precision
    and are zero-filled, not computed.  The delay probability counts
    admitted jobs only: by PASTA it equals P(s <= Q < n) / (1 - P(Q = n)).
    """
    if model.n is None:
        raise DomainError("mmsn_measures expects a finite-buffer model")
    s, n = int(model.s), int(model.n)
    lo = _state_floor(model.load, s)
    logw = _erlang_a_log_weights(model.lam, model.mu, 0.0, s, lo, n + 1)
    w = np.exp(logw - logw.max())
    pi = np.zeros(n + 1)
    pi[lo:] = w / w.sum()
    block = float(pi[n])
    admitted = 1.0 - block
    delay = float(pi[s:n].sum()) / admitted
    mean_queue, util = _queue_and_utilization(pi, lo, s)
    mean_delay = mean_queue / (model.lam * admitted)
    return StationaryMeasures(
        delay_prob=delay,
        mean_delay=mean_delay,
        mean_queue=mean_queue,
        utilization=util,
        pi=pi,
        tail_mass=0.0,
        block_prob=block,
    )


def _erlang_a_log_weights(lam: float, mu: float, theta: float, s: int,
                          lo: int, n: int) -> np.ndarray:
    """Log-weights of states lo..n-1 of M/M/s+M, up to a common constant;
    lo <= s.  At theta = 0 they are the M/M/s/n weights.

    For k <= s the weight is P(Pois(a) = k), a = lam/mu, from
    ``qedq.special``'s one Poisson pmf.  Beyond s it is
    w_s lam^j / prod_{i<=j} (s mu + i theta), summed in log space as
    j log(lam / (s mu)) - sum_{i<=j} log1p(i theta / (s mu)), whose partial
    sums stay small.  Neither part cancels terms of size a log a, so the
    weights keep about 1e-13 relative accuracy at s = 1e5.
    """
    logw = _poisson_log_pmf(np.arange(lo, min(n, s + 1), dtype=float), lam / mu)
    if n <= s + 1:
        return logw
    j = np.arange(1, n - s, dtype=float)
    sm = s * mu
    tail = logw[-1] + j * math.log(lam / sm) - np.cumsum(np.log1p(j * (theta / sm)))
    return np.concatenate([logw, tail])


def erlang_a_measures(model: QueueModel, control: SeriesControl | None = None) -> StationaryMeasures:
    """Steady-state measures of the M/M/s+M (abandonment) queue.

    With theta > 0 the chain is stable for every load.  The log-weights
    are built in closed form (see ``_erlang_a_log_weights``) from the
    state floor up: below ``_state_floor``, about a - 40 sqrt(a) with
    a = lambda/mu in the QED regime, every weight is 0.0 in double
    precision, so those states are zero-filled in ``pi``, not computed.
    The weights are truncated by the stopping rule of
    :func:`solve_birth_death`: the first state count n >= 11 at which the
    weight ratio r of the last two states is below 1 and the geometric
    bound w_(n-1) r / (1 - r) on the remaining mass is below
    ``control.abs_tol`` times the mass so far.
    That bound is reported as ``tail_mass`` (a share of the total), so
    ``pi.sum() + tail_mass == 1``.  ``control.max_terms`` caps the last
    state; it defaults to m + 200 sqrt(max(m, lambda / theta)) + 200,
    where m = s + (lambda - s mu)^+ / theta is the mode.  Beyond the mode
    the superlinear death rate guarantees fast decay, but near critical
    load the queue above s spreads over about sqrt(lambda / theta)
    states; that spread term is capped at sqrt(1e7).  A mode above 1e7
    states raises ``NumericalError`` instead of exhausting memory.
    """
    if model.theta is None:
        raise DomainError("erlang_a_measures expects an abandonment model")
    s, theta, mu, lam = int(model.s), float(model.theta), model.mu, model.lam
    if theta == 0.0:
        if model.rho >= 1.0:
            raise InstabilityError("theta=0 and rho >= 1: no stationary regime")
        return mms_measures(QueueModel(lam=lam, s=s, mu=mu))
    if control is None:
        mode = s + max(lam - s * mu, 0.0) / theta
        if mode > 1e7:
            raise NumericalError("M/M/s+M mode at %.3g states exceeds the 1e7-state budget"
                                 % mode)
        mode = int(math.ceil(mode))
        spread = math.sqrt(max(mode, min(lam / theta, 1e7)))
        cap = mode + int(math.ceil(200.0 * spread)) + 200
        control = SeriesControl(abs_tol=1e-12, max_terms=cap)
    n_max = control.max_terms + 1
    lo = min(_state_floor(lam / mu, s), n_max - 2)
    n = min(n_max, s + 8 * int(math.ceil(math.sqrt(s))) + 64)
    while True:
        logw = _erlang_a_log_weights(lam, mu, theta, s, lo, n)
        w = np.exp(logw - logw.max())
        with np.errstate(over="ignore", divide="ignore"):
            ratio = np.exp(np.diff(logw))
            rem = w[1:] * ratio / (1.0 - ratio)
        # candidate j stands for the state count m = lo + j + 2; the rule
        # applies from m = 11
        stop = (ratio < 1.0) & (rem < control.abs_tol * np.cumsum(w)[1:])
        stop[:max(9 - lo, 0)] = False
        hits = np.flatnonzero(stop)
        if len(hits):
            j = int(hits[0])
            break
        if n == n_max:
            if ratio[-1] >= 1.0:
                raise InstabilityError(
                    "birth-death normalization diverges (weight ratio %.3f >= 1)" % ratio[-1])
            raise NumericalError(
                "birth-death solver did not reach tail tolerance within %d states"
                % control.max_terms)
        n = min(n_max, 2 * n)
    total = w[:j + 2].sum() + rem[j]
    pi = np.zeros(lo + j + 2)
    pi[lo:] = w[:j + 2] / total
    tail_mass = rem[j] / total
    mean_queue, util = _queue_and_utilization(pi, lo, s)
    abandon = theta * mean_queue / lam
    delay = float(pi[s:].sum())
    mean_delay = mean_queue / lam  # Little's law over the waiting room
    return StationaryMeasures(
        delay_prob=delay,
        mean_delay=mean_delay,
        mean_queue=mean_queue,
        utilization=util,
        pi=pi,
        tail_mass=tail_mass,
        abandon_prob=abandon,
    )
