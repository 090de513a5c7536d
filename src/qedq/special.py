"""Special functions used throughout the package.

Standard normal pdf/cdf/quantile, Poisson tail probabilities evaluated
through the regularized incomplete gamma function, the Poisson pmf at
real arguments (scalar or array) that the exact layer builds on, and the
Riemann zeta function at the half-integer arguments required by the
Gaussian-random-walk series.

Numerical policy
----------------
* Poisson tails never sum terms naively: ``P(Pois(m) >= c)`` is the
  regularized lower incomplete gamma ``P(c, m)``, stable up to means of
  1e6 and beyond.
* The Poisson pmf has one evaluation, at real k and over arrays:
  log-gamma form up to k = 40, Loader's saddle-point form above, where
  ``k log m - m - gammaln(k+1)`` would cancel terms of size k log k.
  Erlang B/C, the M/M/s law and the M/M/s+M weights all use it.
* Zeta values at ``1/2 - l`` and ``-1/2 - l`` (l = 0..199) come from one
  embedded table of zeta(1/2 - k), k = 0..200, precomputed with mpmath at
  30 significant digits; the ``-1/2 - l`` branch reads entry l + 1.  The
  test suite revalidates every entry against mpmath.
* The normal quantile is scipy's ``ndtri``, taken on the survival scale,
  -ndtri(1 - p), for p > 1/2 so that no precision is lost near p = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "SeriesControl",
    "NormalValues",
    "PoissonTail",
    "normal_dist",
    "normal_quantile",
    "poisson_tail",
    "poisson_log_pmf",
    "zeta_half",
    "round_half_up",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy shared by every infinite series in the package.

    ``abs_tol`` is the absolute size below which a term is considered
    negligible, ``max_terms`` caps the number of terms.  Consumers report
    whether their series converged within the budget.
    """

    abs_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise DomainError("abs_tol must be positive, got %r" % (self.abs_tol,))
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1, got %r" % (self.max_terms,))


class NormalValues(NamedTuple):
    pdf: float
    cdf: float


class PoissonTail(NamedTuple):
    p_geq: float  # P(Pois(mean) >= c)
    p_gt: float   # P(Pois(mean) >  c)


def normal_dist(x: float) -> NormalValues:
    """Standard normal density and distribution function at ``x``."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("normal_dist requires finite x, got %r" % (x,))
    pdf = math.exp(-0.5 * x * x) / _SQRT_2PI
    cdf = float(_sp.ndtr(x))
    return NormalValues(pdf, cdf)


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal cdf.

    For p > 1/2 the quantile is taken on the survival scale with the
    exactly representable complement 1 - p, so accuracy is preserved deep
    into both tails; p = 1/2 gives exactly 0.0.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError("normal_quantile requires 0 < p < 1, got %r" % (p,))
    if p <= 0.5:
        return float(_sp.ndtri(p))
    return -float(_sp.ndtri(1.0 - p))


def poisson_tail(mean: float, c: int) -> PoissonTail:
    """Upper tail probabilities of a Poisson random variable.

    Returns ``P(Pois(mean) >= c)`` and ``P(Pois(mean) > c)`` via the
    regularized incomplete gamma relation P(Pois(m) >= k) = P(k, m).
    """
    mean = float(mean)
    if not (mean > 0.0) or not math.isfinite(mean):
        raise DomainError("poisson_tail requires mean > 0, got %r" % (mean,))
    c = int(c)
    if c < 0:
        raise DomainError("poisson_tail requires c >= 0, got %r" % (c,))
    p_geq = 1.0 if c == 0 else float(_sp.gammainc(c, mean))
    p_gt = float(_sp.gammainc(c + 1, mean))
    return PoissonTail(p_geq, p_gt)


_LOG_GAMMA_MAX_K = 40


def _loader_saddle(k, mean):
    """-stirlerr(k) - bd0(k, mean) - log(2 pi k)/2: the deviance
    bd0 = k log(k/mean) - (k - mean) is small near the mode, and three
    Stirling terms leave an error below 3e-15 for k > 40."""
    k2 = k * k
    stirlerr = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * k2)) / k2) / k
    bd0 = _sp.xlog1py(k, (k - mean) / mean) - (k - mean)
    return -stirlerr - bd0 - 0.5 * np.log(2.0 * math.pi * k)


def _poisson_log_pmf(k, mean):
    """log P(Pois(mean) = k) at real k >= 0 and mean > 0, floats or
    arrays that broadcast together; unchecked.  Log-gamma form up to
    k = 40, saddle-point form above (the log-gamma form would lose 4e-10
    relative at k = 3e5, 2e-9 at 1e6).
    """
    if isinstance(k, np.ndarray) or isinstance(mean, np.ndarray):
        k, mean = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(mean, dtype=float))
        small = k <= _LOG_GAMMA_MAX_K
        logp = _loader_saddle(np.where(small, _LOG_GAMMA_MAX_K + 1.0, k), mean)
        low, m = k[small], mean[small]
        logp[small] = _sp.xlogy(low, m) - m - _sp.gammaln(low + 1.0)
        return logp
    if k > _LOG_GAMMA_MAX_K:
        return float(_loader_saddle(k, mean))
    return float(_sp.xlogy(k, mean) - mean - _sp.gammaln(k + 1.0))


def poisson_log_pmf(mean: float, c: int) -> float:
    """log P(Pois(mean) = c): log-gamma form for c <= 40, Loader's
    saddle-point form above."""
    if not (mean > 0.0):
        raise DomainError("poisson_log_pmf requires mean > 0, got %r" % (mean,))
    if c < 0:
        raise DomainError("poisson_log_pmf requires c >= 0, got %r" % (c,))
    return _poisson_log_pmf(float(c), float(mean))


def round_half_up(x: float) -> int:
    """Nearest-integer rounding with ties at .5 rounded up."""
    return int(math.floor(x + 0.5))


# Riemann zeta at 1/2 - k, k = 0..200.  Precomputed with mpmath
# (mp.dps = 30); validated against mpmath in the test suite.
_ZETA_HALF = (
    -1.46035450880958684e+00, -2.07886224977354567e-01, -2.54852018898330361e-02,
    8.51692877785033102e-03, 4.44101133547943235e-03, -3.09166924721583376e-03,
    -2.67145801989922445e-03, 2.74676793953686866e-03, 3.26903957260021990e-03,
    -4.41603287300489002e-03, -6.67217229646664082e-03, 1.11461224739428134e-02,
    2.03969787159427908e-02, -4.05749674811945807e-02, -8.71752559062172472e-02,
    2.01174049384226894e-01, 4.96271219912057582e-01, -1.30322925070511397e+00,
    -3.62975929977457401e+00, 1.06873270690219933e+01, 3.31683257856946057e+01,
    -1.08217475058776060e+02, -3.70301878375478623e+02, 1.32604581174901568e+03,
    4.95959831504304384e+03, -1.93389419883746195e+04, -7.84861485692176939e+04,
    3.31023648745450308e+05, 1.44881137058272632e+06, -6.57168649156995770e+06,
    -3.08545334723967649e+07, 1.49774871277934760e+08, 7.50878449993700981e+08,
    -3.88394555145481682e+09, -2.07079959618103600e+10, 1.13704407197954880e+11,
    6.42429955212920776e+11, -3.73197545810990576e+12, -2.22735878120364062e+13,
    1.36480636625888484e+14, 8.58001934235335875e+14, -5.53048758514464200e+15,
    -3.65284841306854880e+16, 2.47081774554709312e+17, 1.71060643092094950e+18,
    -1.21151903778802565e+19, -8.77327557988240753e+19, 6.49284231675247067e+20,
    4.90849775978008701e+21, -3.78887665587879800e+22, -2.98494132031557246e+23,
    2.39909423813573216e+24, 1.96641269075431993e+25, -1.64306257443396883e+26,
    -1.39903318833796811e+27, 1.21351360873113197e+28, 1.07190862583058348e+29,
    -9.63887493342347012e+29, -8.82092890111872568e+30, 8.21278245805995403e+31,
    7.77727430219495691e+32, -7.48863947630418493e+33, -7.32990203657451727e+34,
    7.29118838437615647e+35, 7.36872206966173947e+36, -7.56435709368769740e+37,
    -7.88557658916079372e+38, 8.34593948040954385e+39, 8.96600828060763940e+40,
    -9.77484408298176242e+41, -1.08122175386258295e+43, 1.21317659627531654e+44,
    1.38054382280541351e+45, -1.59297270826985833e+46, -1.86344168337749321e+47,
    2.20949086529392878e+48, 2.65496801660577961e+49, -3.23251731949176724e+50,
    -3.98715110271140644e+51, 4.98141223377894964e+52, 6.30289022564566142e+53,
    -8.07524588817564473e+54, -1.04745046932531002e+56, 1.37533208865565237e+57,
    1.82773901752544017e+58, -2.45805175926327878e+59, -3.34485480122420734e+60,
    4.60482901841660202e+61, 6.41271137827252284e+62, -9.03244022309236020e+63,
    -1.28661397117005383e+65, 1.85317730893340706e+66, 2.69872231165376647e+67,
    -3.97301371237177144e+68, -5.91223661161618893e+69, 8.89208788986876988e+70,
    1.35153485368658695e+72, -2.07574831879819764e+73, -3.22106465412638973e+74,
    5.04958636296959079e+75, 7.99648297084855750e+76, -1.27904319112151592e+78,
    -2.06619536989446370e+79, 3.37066336675098296e+80, 5.55233757088290679e+81,
    -9.23447658776300107e+82, -1.55054678857834768e+84, 2.62817702980846000e+85,
    4.49658918035686369e+86, -7.76485018691451892e+87, -1.35321664712894299e+89,
    2.37985085903617619e+90, 4.22323006261367500e+91, -7.56166432814168614e+92,
    -1.36594555036183462e+94, 2.48919549352962946e+95, 4.57573771020493598e+96,
    -8.48412735224838679e+97, -1.58659169696949440e+99, 2.99228984820885426e+100,
    5.69104076004832892e+101, -1.09143750830047407e+103, -2.11054824544135233e+104,
    4.11482627722499514e+105, 8.08795253351202792e+106, -1.60261084337531674e+108,
    -3.20104614157695419e+109, 6.44469830368972241e+110, 1.30777462950441952e+112,
    -2.67458353805503509e+113, -5.51246782077801657e+114, 1.14492413551693744e+116,
    2.39619741357047364e+117, -5.05310828466726114e+118, -1.07364326058034267e+120,
    2.29827725091999579e+121, 4.95634860782816802e+122, -1.07674937454969437e+124,
    -2.35633729967199441e+125, 5.19406479435930169e+126, 1.15319221603281102e+128,
    -2.57868419330989770e+129, -5.80730625494062624e+130, 1.31707263254425363e+132,
    3.00802719528479426e+133, -6.91782763786994006e+134, -1.60196440515598369e+136,
    3.73517211225939353e+137, 8.76844879823490447e+138, -2.07237982468860244e+140,
    -4.93095092129344273e+141, 1.18110174596741710e+143, 2.84786944465251438e+144,
    -6.91210061580148246e+145, -1.68864579453537637e+147, 4.15228522637393413e+148,
    1.02763219789705913e+150, -2.55960044321979544e+151, -6.41612574033852672e+152,
    1.61853563141232647e+154, 4.10868724363865785e+155, -1.04953820453214953e+157,
    -2.69768297042361076e+158, 6.97693066911335559e+159, 1.81552526088409590e+161,
    -4.75322453205656511e+162, -1.25200614273857702e+164, 3.31772839053105584e+165,
    8.84455062592137311e+166, -2.37189690834810715e+168, -6.39861004108235413e+169,
    1.73632156090945520e+171, 4.73930233055054497e+172, -1.30113885243175159e+174,
    -3.59288449823300069e+175, 9.97835197101785702e+176, 2.78712259037242624e+178,
    -7.82926355265416932e+179, -2.21176714143407095e+181, 6.28344407246522579e+182,
    1.79507392487488661e+184, -5.15679273488369990e+185, -1.48962323347666293e+187,
    4.32672644238026717e+188, 1.26361751780510739e+190, -3.71049747281277752e+191,
    -1.09545914620769800e+193, 3.25158531508350243e+194, 9.70323517088545026e+195,
    -2.91103913109470414e+197, -8.77965376434312099e+198, 2.66190468741424366e+200,
    8.11299878514402407e+201, -2.48560593041186019e+203, -7.65479170230921847e+204,
    2.36958948894579897e+206, 7.37292825916749477e+207, -2.30580562580406414e+209,
    -7.24786217232740394e+210, 2.28976318677571769e+212, 7.27032123721986517e+213,
)


def zeta_half(l: int, branch: str = "plus") -> float:
    """Riemann zeta at ``1/2 - l`` (branch "plus") or ``-1/2 - l`` ("minus").

    Values come from the embedded, oracle-validated table; the table
    covers l = 0..199, beyond which the Gaussian-walk series they feed is
    outside its practical convergence range anyway.
    """
    if l < 0:
        raise DomainError("zeta_half requires l >= 0, got %r" % (l,))
    if branch not in ("plus", "minus"):
        raise DomainError("branch must be 'plus' or 'minus', got %r" % (branch,))
    if l >= len(_ZETA_HALF) - 1:
        raise DomainError(
            "zeta table covers l <= %d, got l=%d" % (len(_ZETA_HALF) - 2, l)
        )
    return _ZETA_HALF[l + (branch == "minus")]
