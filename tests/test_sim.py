import math

import numpy as np
import pytest

import qedq
from qedq import (
    BulkModel,
    ConfigurationError,
    DiffusionModel,
    QueueModel,
    SimConfig,
    SinusoidRate,
    StaffingSchedule,
    TimeVaryingModel,
    bulk_stationary,
    diffusion_samples,
    erlang_a_measures,
    mms_measures,
    mmsn_measures,
    nhpp_arrivals,
    qed_delay_prob,
    sample_path,
    scaled_servers,
    simulate,
)
from qedq.sim import _event_rep, _rep_metrics, _stream, estimates_csv, estimates_json, path_csv

Z99 = 2.5758293035489004


def _covers(est, target, z=Z99):
    lo, hi = est.ci(z)
    return lo <= target <= hi


def test_nhpp_constant_rate_counts():
    rate = qedq.ConstantRate(5.0)
    counts = [len(nhpp_arrivals(rate, 100.0, _stream(3, r, 0))) for r in range(400)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - 500.0) < 3.0 * se


def test_nhpp_sinusoid_counts():
    rate = SinusoidRate(30.0, 20.0, 24.0)
    counts = [len(nhpp_arrivals(rate, 24.0, _stream(4, r, 0))) for r in range(1000)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - 720.0) < 3.0 * se
    # interval counts: first quarter period carries integral of lam over [0,6]
    target = 30.0 * 6.0 + 20.0 * 24.0 / (2 * math.pi) * (1 - math.cos(2 * math.pi / 4))
    sub = [np.count_nonzero(nhpp_arrivals(rate, 24.0, _stream(5, r, 0)) < 6.0)
           for r in range(1000)]
    se = np.std(sub, ddof=1) / math.sqrt(len(sub))
    assert abs(np.mean(sub) - target) < 3.0 * se


def test_nhpp_zero_rate():
    rate = qedq.PiecewiseConstantRate((0.0, 5.0), (0.0, 3.0))
    times = nhpp_arrivals(rate, 5.0, _stream(6, 0, 0))
    assert len(times) == 0


def test_nhpp_vectorized_epochs_and_unbounded_rate():
    rate = SinusoidRate(30.0, 20.0, 24.0)
    for r in range(20):
        times = nhpp_arrivals(rate, 48.0, _stream(7, r, 0), cells=5)
        assert np.all(np.diff(times) >= 0.0)
        assert times[0] >= 0.0 and times[-1] <= 48.0
    unbounded = qedq.SampledRate((0.0, 1.0, 2.0), (1.0, float("inf"), 1.0))
    with pytest.raises(ConfigurationError, match="unbounded"):
        nhpp_arrivals(unbounded, 2.0, _stream(7, 0, 0))


class _Fixed:
    """Stand-in generator whose exponential draws are given times."""

    def __init__(self, times):
        self.times = np.asarray(times, dtype=float)

    def exponential(self, scale, size):
        assert size == len(self.times)
        return self.times.copy()


def _run(arrivals, service, patience=None, nbuf=None, grid=(0.0,), levels=(1,), n0=0):
    rng_p = _Fixed(patience) if patience is not None else None
    return _event_rep(np.asarray(arrivals, dtype=float), 1.0, 1.0 if rng_p else 0.0, nbuf,
                      np.asarray(grid), np.asarray(levels), n0, _Fixed(service), rng_p)


def _assert_jobs(jobs, exits, leaves):
    np.testing.assert_array_equal(jobs.exit, exits)
    np.testing.assert_array_equal(jobs.leave, leaves)


def test_engine_fcfs_waits():
    # s = 2, one job present at time 0; job 3 waits for the first end, job 4 for the next
    jobs = _run([1.0, 3.0, 4.0], [5.0, 5.0, 1.0, 1.0], levels=(2,), n0=1)
    _assert_jobs(jobs, [0.0, 1.0, 5.0, 6.0], [5.0, 6.0, 6.0, 7.0])
    est = _rep_metrics(jobs, 0.5, 6.5)
    assert est["delay_prob"] == 2.0 / 3.0
    assert est["mean_delay"] == (2.0 + 2.0) / 3.0
    assert est["mean_queue"] == 4.0 / 6.0                 # queue holds [3, 5) and [4, 6)
    assert est["frac_above_zero"] == 3.0 / 6.0
    assert est["p_empty"] == 0.0


def test_engine_blocking_at_n():
    jobs = _run([1.0, 2.0, 3.0, 6.0], [4.0, 4.0, 4.0, 1.0], nbuf=2)
    _assert_jobs(jobs, [1.0, 5.0, np.nan, 9.0], [5.0, 9.0, np.nan, 10.0])
    assert _rep_metrics(jobs, 0.0, 12.0)["block_prob"] == 0.25


def test_engine_abandoning_job_takes_no_server():
    # job 2's patience ends at 2.0, before the server frees at 3.5; job 3 takes it
    jobs = _run([0.5, 1.0, 2.0], [3.0, 1.0, 1.0], patience=[10.0, 1.0, 10.0])
    _assert_jobs(jobs, [0.5, 2.0, 3.5], [3.5, 2.0, 4.5])
    np.testing.assert_array_equal(jobs.abandoned, [False, True, False])
    est = _rep_metrics(jobs, 0.0, 10.0)
    assert est["abandon_prob"] == 1.0 / 3.0
    assert est["mean_delay"] == (0.0 + 1.0 + 1.5) / 3.0


def test_engine_schedule_drop_waits_below_new_level():
    # s falls from 2 to 1 at t = 2: job 3 waits until no job is in service
    jobs = _run([0.5, 1.0, 2.5], [3.0, 2.0, 1.0], grid=(0.0, 2.0), levels=(2, 1))
    _assert_jobs(jobs, [0.5, 1.0, 3.5], [3.5, 3.0, 4.5])


def test_engine_schedule_rise_starts_at_boundary():
    jobs = _run([1.0, 2.0], [10.0, 1.0], grid=(0.0, 4.0), levels=(1, 2))
    _assert_jobs(jobs, [1.0, 4.0], [11.0, 5.0])


def test_engine_epoch_on_grid_point_sees_new_level():
    # cell i covers [grid[i], grid[i+1]): an arrival at 2.0 finds the second server
    jobs = _run([1.0, 2.0], [5.0, 1.0], grid=(0.0, 2.0), levels=(1, 2))
    _assert_jobs(jobs, [1.0, 2.0], [6.0, 3.0])
    assert _rep_metrics(jobs, 0.0, 10.0)["delay_prob"] == 0.0


def _reference_jobs(epochs, service, deadline, nbuf, grid, levels):
    """Event-by-event FCFS with the same per-job times (the engine's reference)."""
    m = len(epochs)
    exits, leaves = np.full(m, np.nan), np.full(m, np.nan)
    ends, queue = {}, []
    nxt = 0
    t = 0.0

    def level(u):
        return levels[max(int(np.searchsorted(grid, u, side="right")) - 1, 0)]

    while True:
        cands = [epochs[nxt]] if nxt < m else []
        cands += list(ends.values()) + [deadline[j] for j in queue]
        cands += [g for g in grid if g > t]
        if not cands:
            return exits, leaves
        t = min(cands)
        for j in [j for j, e in ends.items() if e == t]:
            del ends[j]
        for j in [j for j in queue if deadline[j] == t]:
            queue.remove(j)
            exits[j] = leaves[j] = t
        while nxt < m and epochs[nxt] == t:
            if nbuf is None or len(ends) + len(queue) < nbuf:
                queue.append(nxt)
            nxt += 1
        while queue and len(ends) < level(t):
            j = queue.pop(0)
            exits[j], leaves[j] = t, t + service[j]
            ends[j] = leaves[j]


@pytest.mark.parametrize("theta,nbuf,grid,levels", [
    (0.0, None, (0.0,), (3,)),
    (1.0, None, (0.0,), (3,)),
    (0.0, 5, (0.0,), (3,)),
    (0.0, None, (0.0, 3.0, 7.0, 11.0), (3, 1, 4, 2)),
    (1.0, 4, (0.0, 3.0, 7.0, 11.0), (3, 1, 4, 2)),
])
def test_engine_matches_event_reference(theta, nbuf, grid, levels):
    for r in range(10):
        rng = np.random.default_rng([r, 17])
        arrivals = np.sort(rng.uniform(0.0, 15.0, 40))
        n0 = int(rng.integers(0, 4))
        service = rng.exponential(1.0, 40 + n0)
        patience = rng.exponential(1.0, 40 + n0) if theta else None
        jobs = _run(arrivals, service, patience, nbuf, grid, levels, n0)
        epochs = np.concatenate((np.zeros(n0), arrivals))
        deadline = epochs + patience if theta else np.full(len(epochs), np.inf)
        exits, leaves = _reference_jobs(epochs, service, deadline, nbuf, grid, levels)
        _assert_jobs(jobs, exits, leaves)


def test_simulate_deterministic():
    cfg = SimConfig(model=QueueModel(lam=3.2, s=4), horizon=300.0, warmup=20.0,
                    replications=4, seed=42)
    a = simulate(cfg, ["delay_prob", "mean_queue"])
    b = simulate(cfg, ["mean_queue", "delay_prob"])
    assert a["delay_prob"] == b["delay_prob"]
    assert a["mean_queue"] == b["mean_queue"]
    c = simulate(SimConfig(model=QueueModel(lam=3.2, s=4), horizon=300.0,
                           warmup=20.0, replications=4, seed=43),
                 ["delay_prob"])
    assert c["delay_prob"] != a["delay_prob"]


def test_metric_validation():
    cfg = SimConfig(model=QueueModel(lam=1.0, s=2), horizon=10.0)
    with pytest.raises(ConfigurationError):
        simulate(cfg, ["block_prob"])
    with pytest.raises(ConfigurationError):
        simulate(cfg, [])
    cfg = SimConfig(model=BulkModel(lam=1.0, s=2), horizon=100.0)
    with pytest.raises(ConfigurationError):
        simulate(cfg, ["delay_prob"])
    # no replication holds an arrival after the warm-up: no per-arrival ratio
    cfg = SimConfig(model=QueueModel(lam=0.001, s=1), horizon=1.0, replications=2)
    with pytest.raises(ConfigurationError, match="no arrival"):
        simulate(cfg, ["delay_prob", "mean_delay"])
    assert simulate(cfg, ["p_empty"])["p_empty"].point == 1.0


def test_per_arrival_metrics_skip_empty_replications():
    # 10 of these 20 replications hold no arrival; two of the other ten
    # saw a delayed job (2 of 3 and 1 of 2 arrivals).  Per-arrival ratios
    # average the ten, time averages all twenty.
    cfg = SimConfig(model=QueueModel(lam=0.5, s=1), horizon=2.0, replications=20, seed=3)
    est = simulate(cfg, ["delay_prob", "p_empty"])
    assert est["delay_prob"].replications == 10
    assert est["delay_prob"].point == pytest.approx((2.0 / 3.0 + 0.5) / 10.0, rel=1e-12)
    assert est["p_empty"].replications == 20


def test_unstable_model_flagged():
    cfg = SimConfig(model=QueueModel(lam=5.0, s=4), horizon=50.0,
                    replications=2, seed=1)
    with pytest.warns(UserWarning):
        simulate(cfg, ["mean_queue"])


def test_mt_initial_load_clamp_warns():
    # an initial load at or above s(0) has no stationary M/M/s law to draw from
    schedule = StaffingSchedule(grid=np.array([0.0, 2.0]), levels=np.array([6, 12]),
                                method="PSA", epsilon=0.3, mu=1.0)
    model = TimeVaryingModel(rate=qedq.ConstantRate(8.0), schedule=schedule)
    cfg = SimConfig(model=model, horizon=5.0, replications=2, seed=3)
    with pytest.warns(UserWarning, match="initial offered load 8 >= s\\(0\\) = 6"):
        est = simulate(cfg, ["mean_queue"])
    assert math.isfinite(est["mean_queue"].point)


def test_mms_simulation_covers_analytics():
    model = QueueModel(lam=3.2, s=4)
    cfg = SimConfig(model=model, horizon=4000.0, warmup=200.0,
                    replications=12, seed=2024)
    est = simulate(cfg, ["delay_prob", "mean_delay", "mean_queue", "p_empty"])
    m = mms_measures(model)
    assert _covers(est["delay_prob"], m.delay_prob)
    assert _covers(est["mean_delay"], m.mean_delay)
    assert _covers(est["mean_queue"], m.mean_queue)
    assert _covers(est["p_empty"], float(m.pi[0]))


def test_erlang_a_simulation_covers_analytics():
    model = QueueModel(lam=1.0, s=2, theta=1.0)
    cfg = SimConfig(model=model, horizon=8000.0, warmup=200.0,
                    replications=12, seed=77)
    est = simulate(cfg, ["delay_prob", "abandon_prob", "mean_queue", "mean_delay"])
    m = erlang_a_measures(model)
    assert _covers(est["delay_prob"], m.delay_prob)
    assert _covers(est["abandon_prob"], m.abandon_prob)
    assert _covers(est["mean_queue"], m.mean_queue)
    assert _covers(est["mean_delay"], m.mean_delay)


def test_mmsn_simulation_covers_analytics():
    model = QueueModel(lam=10.0, s=12, n=16)
    cfg = SimConfig(model=model, horizon=1500.0, warmup=100.0,
                    replications=12, seed=123)
    est = simulate(cfg, ["delay_prob", "block_prob"])
    m = mmsn_measures(model)
    assert _covers(est["delay_prob"], m.delay_prob)
    assert _covers(est["block_prob"], m.block_prob)


def test_bulk_simulation_covers_analytics():
    model = BulkModel(lam=4.0, s=5)
    cfg = SimConfig(model=model, horizon=100_000, warmup=1000, replications=12,
                    seed=5)
    est = simulate(cfg, ["p_empty", "mean_queue"])
    st = bulk_stationary(model)
    assert _covers(est["p_empty"], st.p_empty)
    assert _covers(est["mean_queue"], st.mean_queue)


def test_meta_calibration_coverage():
    """99% CIs cover analytic values in at least 95% of 40 meta-runs.

    The CI for a mean of R replication values uses the t quantile (the
    normal quantile undercovers at small R).
    """
    from scipy.stats import t as tdist
    reps = 12
    z99 = float(tdist.ppf(0.995, reps - 1))
    cases = []
    m1 = QueueModel(lam=2.0, s=3)
    cases.append((m1, "delay_prob", mms_measures(m1).delay_prob, 800.0))
    m2 = QueueModel(lam=1.0, s=2, theta=1.0)
    cases.append((m2, "abandon_prob", erlang_a_measures(m2).abandon_prob, 800.0))
    m3 = QueueModel(lam=6.0, s=7, n=10)
    cases.append((m3, "block_prob", mmsn_measures(m3).block_prob, 400.0))
    for model, metric, target, horizon in cases:
        hits = 0
        for meta in range(40):
            cfg = SimConfig(model=model, horizon=horizon, warmup=50.0,
                            replications=reps, seed=9000 + meta)
            if _covers(simulate(cfg, [metric])[metric], target, z=z99):
                hits += 1
        assert hits >= 38, "%s coverage %d/40" % (metric, hits)
    # bulk: cheap, use many periods
    mb = BulkModel(lam=4.0, s=5)
    target = bulk_stationary(mb).p_empty
    hits = 0
    for meta in range(40):
        cfg = SimConfig(model=mb, horizon=20_000, warmup=500, replications=reps,
                        seed=41000 + meta)
        if _covers(simulate(cfg, ["p_empty"])["p_empty"], target, z=z99):
            hits += 1
    assert hits >= 38


def test_diffusion_frac_above_zero():
    model = DiffusionModel(beta=1.0, step=1e-3)
    cfg = SimConfig(model=model, horizon=400.0, warmup=20.0,
                    replications=24, seed=31)
    est = simulate(cfg, ["frac_above_zero"])
    assert abs(est["frac_above_zero"].point - qed_delay_prob(1.0)) < 0.02


def test_diffusion_exponential_tail_ks():
    beta = 0.5
    model = DiffusionModel(beta=beta, step=1e-3)
    samples = diffusion_samples(model, horizon=600.0, warmup=40.0,
                                sample_dt=0.5, replications=90, seed=8)
    pos = samples[samples > 0.0]
    assert len(pos) > 45_000
    from scipy.stats import kstest
    stat = kstest(pos, lambda x: 1.0 - np.exp(-beta * x)).statistic
    assert stat < 0.02


def test_diffusion_below_zero_mean_reverts():
    model = DiffusionModel(beta=0.5, step=1e-3)
    samples = diffusion_samples(model, horizon=400.0, warmup=20.0,
                                sample_dt=0.1, replications=20, seed=15)
    n_per = len(samples) // 20
    x = samples.reshape(-1, 20)  # rows: time order per sample epoch
    xt = x[:-1].ravel()
    dx = (x[1:] - x[:-1]).ravel()
    below = xt < 0.0
    slope = np.polyfit(xt[below], dx[below], 1)[0]
    # OU segment: drift -(beta + x), so increments regress on state with
    # slope about -(1 - exp(-dt)) for dt = 0.1
    assert slope < -0.02
    assert slope > -0.3


def _path_time_weighted_var(path):
    dt = np.diff(path.times)
    vals = path.values[:-1]
    w = dt / dt.sum()
    mean = np.sum(w * vals)
    return float(np.sum(w * (vals - mean) ** 2))


def test_sample_path_regression_and_excursions():
    lam = 100.0
    s = scaled_servers(lam, 0.5, "QED")
    assert s == 105
    cfg = SimConfig(model=QueueModel(lam=lam, s=s), horizon=50.0, seed=1234,
                    replications=1)
    path = sample_path(cfg)
    # Above s the scaled queue (q - s)/sqrt(s) has an exponential tail with
    # rate beta, so its maximum over the run is close to Gumbel with scale
    # 1/beta (median 4.8, largest 15.9 over seeds 0-399): nine tail means are
    # crossed with probability about 1e-3.  Below s the scaled path is
    # pulled back at rate one (an OU process).
    assert path.values.max() - s < 9.0 / 0.5 * math.sqrt(s)
    assert s - path.values.min() < 6.0 * math.sqrt(s)
    # identical seed: identical path (regression pin)
    again = sample_path(cfg)
    assert np.array_equal(path.values, again.values)


def test_sample_path_mmsn_hard_cap():
    lam = 100.0
    s = scaled_servers(lam, 0.5, "QED")
    gamma = 1.0
    n = int(round(s + gamma * math.sqrt(s)))
    cfg = SimConfig(model=QueueModel(lam=lam, s=s, n=n), horizon=200.0,
                    seed=77, replications=1)
    path = sample_path(cfg, centered=True)
    assert path.scaling == "centered_scaled"
    assert path.values.max() <= gamma + 1e-12


def test_sample_path_diffusion_rejects_centering():
    cfg = SimConfig(model=DiffusionModel(beta=1.0), horizon=1.0, replications=1)
    assert sample_path(cfg).scaling == "raw"
    with pytest.raises(ConfigurationError):
        sample_path(cfg, centered=True)


def test_qed_ladder_variance_and_regime_ordering():
    # centered-scaled path variance stays O(1) along the square-root rule
    variances = {}
    for lam in (10.0, 50.0, 100.0):
        s = scaled_servers(lam, 0.5, "QED")
        cfg = SimConfig(model=QueueModel(lam=lam, s=s), horizon=1500.0,
                        seed=33, replications=1)
        path = sample_path(cfg, centered=True)
        keep = path.times > 100.0
        sub = type(path)(times=path.times[keep], values=path.values[keep],
                         scaling=path.scaling)
        variances[lam] = _path_time_weighted_var(sub)
    ratio = variances[10.0] / variances[100.0]
    assert 1.0 / 3.0 <= ratio <= 3.0
    # at lam=100 the fraction of time spent above s orders the regimes
    fracs = {}
    for rule in ("ED", "QED", "QD"):
        s = scaled_servers(100.0, 0.5, rule)
        cfg = SimConfig(model=QueueModel(lam=100.0, s=s), horizon=1200.0,
                        warmup=100.0, replications=4, seed=55)
        fracs[rule] = simulate(cfg, ["frac_above_zero"])["frac_above_zero"].point
    assert fracs["ED"] > fracs["QED"] > fracs["QD"]


def test_export_roundtrip():
    import json
    cfg = SimConfig(model=QueueModel(lam=1.0, s=2), horizon=200.0, warmup=10.0,
                    replications=4, seed=9)
    est = simulate(cfg, ["delay_prob", "mean_queue"])
    csv_text = estimates_csv(est, precision=8)
    assert csv_text.splitlines()[0] == "metric,point,stderr,lo,hi"
    assert estimates_csv(est, precision=8) == csv_text  # byte-identical
    js = estimates_json(est, cfg, precision=8)
    payload = json.loads(js)
    assert payload["config"]["seed"] == 9
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == js
    path = sample_path(SimConfig(model=QueueModel(lam=1.0, s=2), horizon=5.0,
                                 replications=1, seed=3))
    lines = path_csv(path).splitlines()
    assert lines[0] == "time,value"
    assert len(lines) == len(path.times) + 1
