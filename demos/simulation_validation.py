"""Every analytic quantity in the package against its Monte Carlo
estimate: plain, finite-buffer and abandonment queues, plus the hybrid
diffusion limit and its stationary law.
"""

import numpy as np

from qedq import (
    DiffusionModel,
    QueueModel,
    SimConfig,
    diffusion_samples,
    erlang_a_measures,
    hw_stationary,
    mms_measures,
    mmsn_measures,
    qed_delay_prob,
    simulate,
)

CASES = [
    ("M/M/4, load 3.2", QueueModel(lam=3.2, s=4), mms_measures,
     ["delay_prob", "mean_delay", "mean_queue"]),
    ("M/M/12/16, load 10", QueueModel(lam=10.0, s=12, n=16), mmsn_measures,
     ["delay_prob", "block_prob"]),
    ("M/M/2+M, load 1, patience 1", QueueModel(lam=1.0, s=2, theta=1.0),
     erlang_a_measures, ["delay_prob", "abandon_prob", "mean_delay"]),
]

for title, model, measure_fn, metrics in CASES:
    m = measure_fn(model)
    cfg = SimConfig(model=model, horizon=3000.0, warmup=150.0,
                    replications=8, seed=13)
    est = simulate(cfg, metrics)
    print("\n%s" % title)
    for name in metrics:
        analytic = getattr(m, name)
        e = est[name]
        print("  %-12s analytic %.5f   simulated %.5f +- %.5f"
              % (name, analytic, e.point, e.stderr))

print("\nhybrid diffusion (drift -beta above 0, mean-reverting below):")
for beta in (0.5, 1.0):
    cfg = SimConfig(model=DiffusionModel(beta=beta, step=1e-3), horizon=400.0,
                    warmup=20.0, replications=25, seed=29)
    est = simulate(cfg, ["frac_above_zero"])["frac_above_zero"]
    print("  beta=%.1f  P(above 0): limit %.5f   simulated %.5f +- %.5f"
          % (beta, qed_delay_prob(beta), est.point, est.stderr))

beta = 0.5
st = hw_stationary(beta)
samples = diffusion_samples(DiffusionModel(beta=beta, step=1e-3),
                            horizon=300.0, warmup=20.0, sample_dt=0.5,
                            replications=30, seed=31)
pos = samples[samples > 0]
print("\nstationary law above zero is exponential with rate beta:")
for x in (0.5, 1.0, 2.0):
    emp = float(np.mean(pos >= x))
    print("  P(D >= %.1f | D > 0): empirical %.4f   exact %.4f"
          % (x, emp, st.tail_above(x)))
