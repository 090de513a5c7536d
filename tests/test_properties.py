"""Property tests of the exact layer's error contract over wide inputs:
every call returns finite fields and a distribution of unit mass, or
raises a ``QedqError``."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qedq import (
    QedqError,
    QueueModel,
    SinusoidRate,
    erlang_a_measures,
    erlang_c,
    mms_measures,
    mmsn_measures,
    psa_schedule,
)

_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def _servers(draw, lam):
    """A server count around the QED point lam + beta sqrt(lam), or anywhere."""
    beta = draw(st.floats(-10.0, 10.0))
    qed = max(1, int(lam + beta * math.sqrt(lam)))
    return draw(st.one_of(st.just(qed), st.integers(1, 300_000)))


@st.composite
def _queues(draw, variant):
    lam = draw(_log_uniform(1e-3, 3e5))
    s = draw(_servers(lam))
    mu = draw(_log_uniform(0.1, 10.0))
    if variant == "n":
        return dict(lam=lam * mu, s=s, mu=mu, n=s + draw(st.integers(0, 5_000)))
    if variant == "theta":
        return dict(lam=lam * mu, s=s, mu=mu,
                    theta=draw(st.one_of(st.just(0.0), _log_uniform(1e-6, 1e3))))
    return dict(lam=lam * mu, s=s, mu=mu)


def _check_measures(solve, params):
    try:
        m = solve(QueueModel(**params))
    except QedqError:
        return
    fields = [m.delay_prob, m.mean_delay, m.mean_queue, m.utilization, m.tail_mass,
              m.block_prob or 0.0, m.abandon_prob or 0.0]
    assert all(math.isfinite(x) for x in fields), (params, fields)
    assert np.all(np.isfinite(m.pi)) and np.all(m.pi >= 0.0), params
    assert abs(float(m.pi.sum()) + m.tail_mass - 1.0) <= 1e-9, params


@_SETTINGS
@given(_queues(None))
def test_mms_measures_contract(params):
    _check_measures(mms_measures, params)


@_SETTINGS
@given(_queues("n"))
def test_mmsn_measures_contract(params):
    _check_measures(mmsn_measures, params)


@_SETTINGS
@given(_queues("theta"))
def test_erlang_a_measures_contract(params):
    _check_measures(erlang_a_measures, params)


@_SETTINGS
@given(base=_log_uniform(1e-3, 1e5), swing=st.floats(0.0, 1.0), mu=_log_uniform(0.1, 10.0),
       eps=st.floats(1e-9, 0.999999))
def test_psa_schedule_contract(base, swing, mu, eps):
    try:
        sched = psa_schedule(SinusoidRate(base, swing * base, 24.0), mu, eps,
                             np.arange(0.0, 24.0, 1.0))
    except QedqError:
        return
    assert sched.levels.dtype.kind == "i" and np.all(sched.levels >= 1)
    # each busy cell gets the smallest stable level whose Erlang C meets eps
    loads = SinusoidRate(base, swing * base, 24.0).rate(np.arange(0.5, 24.0, 1.0)) / mu
    for load, level in zip(loads, sched.levels):
        if load > 0.0:
            assert erlang_c(int(level), load) <= eps, (load, level)
            assert level - 1 <= load or erlang_c(int(level) - 1, load) > eps, (load, level)
