"""Command-line front end.

Subcommands: ``analyze`` (exact measures next to their QED
approximations), ``staff`` (capacity solvers), ``table1`` (the
bounds/refinement ladder at beta = 1), and ``simulate`` (Monte Carlo
validation).  Machine-readable output (--format csv|json) is
byte-reproducible for fixed flags and seed.

Exit codes: 0 success, 2 usage error, 3 domain/instability error,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bulk as bulkmod
from . import exact, qed, sim, staffing, timevarying
from .errors import ConfigurationError, DomainError, InstabilityError, NumericalError

_TABLE1_LADDER = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


def _fmt(x, precision):
    if isinstance(x, float):
        return "%.*f" % (precision, x)
    return str(x)


def _emit(rows, header, fmt, precision, out):
    """Render a list of row tuples with a header to table/csv/json."""
    if fmt == "json":
        payload = [{k: (round(v, precision) if isinstance(v, float) else v)
                    for k, v in zip(header, r)} for r in rows]
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        lines = [",".join(header)]
        for r in rows:
            lines.append(",".join(_fmt(v, precision) for v in r))
        text = "\n".join(lines) + "\n"
    else:
        widths = [max(len(h), *(len(_fmt(r[i], precision)) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for r in rows:
            lines.append("  ".join(_fmt(v, precision).ljust(w) for v, w in zip(r, widths)))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_output_flags(p):
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--precision", type=int, default=6)
    p.add_argument("--out", default=None)


def _cmd_analyze(args):
    precision = args.precision
    rows = []
    if args.model == "bulk":
        model = bulkmod.BulkModel(lam=args.lam, s=int(args.servers))
        st = bulkmod.bulk_stationary(model)
        beta = (model.s - model.lam) / math.sqrt(model.lam)
        rows.append(("p_empty", st.p_empty))
        rows.append(("mean_queue", st.mean_queue))
        rows.append(("mean_queue_per_sqrt_lam", st.mean_queue / math.sqrt(model.lam)))
        rows.append(("mean_queue_per_sqrt_s", st.mean_queue / math.sqrt(model.s)))
        if 0.0 < beta < 2.0 * math.sqrt(math.pi):
            walk = bulkmod.gaussian_walk_max(beta)
            rows.append(("limit_p_empty", walk.p_zero))
            rows.append(("limit_scaled_mean", walk.mean_max))
        _emit(rows, ("measure", "value"), args.format, precision, args.out)
        return

    n = int(args.buffer) if args.buffer is not None else None
    theta = args.theta
    model = exact.QueueModel(lam=args.lam, s=int(args.servers), mu=args.mu,
                             n=n, theta=theta)
    if n is not None:
        m = exact.mmsn_measures(model)
    elif theta is not None:
        m = exact.erlang_a_measures(model)
    else:
        m = exact.mms_measures(model)
    rows.append(("delay_prob", m.delay_prob))
    rows.append(("mean_delay", m.mean_delay))
    rows.append(("mean_queue", m.mean_queue))
    rows.append(("utilization", m.utilization))
    if m.block_prob is not None:
        rows.append(("block_prob", m.block_prob))
    if m.abandon_prob is not None:
        rows.append(("abandon_prob", m.abandon_prob))

    load = model.load
    if n is None and theta is None:
        beta = (model.s - load) / math.sqrt(load)
        g = qed.qed_delay_prob(beta)
        corr = qed.corrected_delay_prob(model.s, load)
        b = qed.qed_bounds(model.s, load)
        comp = [
            ("qed_limit", g, abs(g - m.delay_prob)),
            ("corrected", corr, abs(corr - m.delay_prob)),
            ("lower_bound", b.lower, abs(b.lower - m.delay_prob)),
            ("upper_bound", b.upper, abs(b.upper - m.delay_prob)),
        ]
        rows.extend(("delay_" + name, val) for name, val, _ in comp)
        rows.extend(("err_" + name, err) for name, val, err in comp)
    elif theta is not None and theta > 0.0:
        beta = (model.s - load) / math.sqrt(load)
        lim = qed.erlang_a_qed_limits(beta, theta / args.mu)
        rows.append(("delay_qed_limit", lim.delay_prob))
        rows.append(("abandon_qed_limit", lim.abandon_coef / math.sqrt(load)))
    elif n is not None:
        beta = (model.s - load) / math.sqrt(load)
        gamma = (n - model.s) / math.sqrt(model.s)
        if beta > 0.0 and gamma > 0.0:
            rows.append(("delay_qed_limit",
                         qed.finite_buffer_delay_limit(beta, gamma)))
    _emit(rows, ("measure", "value"), args.format, precision, args.out)


def _cmd_staff(args):
    if (args.epsilon is None) == (args.cost_ratio is None):
        raise UsageError("give exactly one of --epsilon / --cost-ratio")
    rows = []
    header = ("rule", "s", "beta", "predicted", "achieved")
    if args.sigma is not None:
        if args.epsilon is None:
            raise UsageError("--sigma (uncertain mode) requires --epsilon")
        s = staffing.staff_uncertain(args.lam, args.sigma, args.epsilon)
        rows.append(("uncertain", s, staffing.normal_quantile(1.0 - args.epsilon),
                     float(args.epsilon), float("nan")))
        _emit(rows, header, args.format, args.precision, args.out)
        return
    if args.epsilon is not None:
        if args.rule == "refined":
            raise UsageError("rule 'refined' applies to --cost-ratio problems")
        sols = []
        if args.rule in ("exact", "all"):
            sols.append(staffing.staff_exact(args.lam, args.epsilon))
        if args.rule in ("qed", "all"):
            sols.append(staffing.staff_qed(args.lam, args.epsilon))
    else:
        sols = []
        if args.rule in ("exact", "all"):
            s = staffing.cost_exhaustive(args.lam, args.cost_ratio)
            sols.append(staffing.StaffingSolution(
                s=s, rule="exact", beta_used=None,
                predicted=staffing.staffing_cost(s, args.lam, args.cost_ratio),
                achieved=staffing.staffing_cost(s, args.lam, args.cost_ratio)))
        if args.rule in ("qed", "all"):
            sols.append(staffing.cost_qed(args.lam, args.cost_ratio))
        if args.rule in ("refined", "all"):
            sols.append(staffing.cost_refined(args.lam, args.cost_ratio))
    for sol in sols:
        rows.append((sol.rule, sol.s,
                     float("nan") if sol.beta_used is None else sol.beta_used,
                     sol.predicted, sol.achieved))
    _emit(rows, header, args.format, args.precision, args.out)


def _cmd_table1(args):
    header = ("s", "lam", "alpha", "lower", "exact", "upper",
              "rel_gap", "refined", "rel_refined_err")
    rows = []
    for s in _TABLE1_LADDER:
        lam = ((-1.0 + math.sqrt(1.0 + 4.0 * s)) / 2.0) ** 2
        b = qed.qed_bounds(s, lam)
        c = exact.erlang_c(s, lam)
        refined = qed.corrected_delay_prob(s, lam)
        rows.append((s, round(lam, 5), round(b.alpha, 3), b.lower, c, b.upper,
                     (b.upper - b.lower) / c, refined, abs(refined - c) / c))
    if args.format == "table":
        # keep scientific notation for the relative columns
        disp = [(r[0], "%.5f" % r[1], "%.3f" % r[2], "%.5f" % r[3], "%.5f" % r[4],
                 "%.5f" % r[5], "%.3e" % r[6], "%.5f" % r[7], "%.3e" % r[8])
                for r in rows]
        _emit(disp, header, "table", args.precision, args.out)
    else:
        _emit(rows, header, args.format, max(args.precision, 8), args.out)


def _build_sim_config(args):
    reps = args.reps
    if args.model in ("mms", "mmsn", "mmsm"):
        if args.lam is None or args.servers is None:
            raise UsageError("--lambda and --servers are required for queue models")
        n = int(args.buffer) if args.buffer is not None else None
        theta = args.theta if args.model == "mmsm" else None
        if args.model == "mmsm" and theta is None:
            raise UsageError("--theta is required for mmsm")
        if args.model == "mmsn" and n is None:
            raise UsageError("--buffer is required for mmsn")
        model = exact.QueueModel(lam=args.lam, s=int(args.servers), mu=args.mu,
                                 n=n if args.model == "mmsn" else None,
                                 theta=theta)
        if args.arrivals is not None:
            horizon = args.arrivals / (args.lam * reps)
        elif args.horizon is not None:
            horizon = args.horizon
        else:
            raise UsageError("give --horizon or --arrivals")
        warmup = args.warmup if args.warmup is not None else 0.1 * horizon
        return sim.SimConfig(model=model, horizon=horizon, warmup=warmup,
                             replications=reps, seed=args.seed)
    if args.model == "bulk":
        if args.lam is None or args.servers is None:
            raise UsageError("--lambda and --servers are required for bulk")
        model = bulkmod.BulkModel(lam=args.lam, s=int(args.servers))
        periods = args.periods if args.periods is not None else args.horizon
        if periods is None:
            raise UsageError("give --periods (or --horizon) for bulk")
        periods = float(periods) / reps
        warmup = args.warmup if args.warmup is not None else 0.05 * periods
        return sim.SimConfig(model=model, horizon=periods, warmup=warmup,
                             replications=reps, seed=args.seed)
    if args.model == "hw":
        if args.beta is None:
            raise UsageError("--beta is required for hw")
        model = sim.DiffusionModel(beta=args.beta, theta=args.theta or 0.0,
                                   step=args.step)
        if args.horizon is None:
            raise UsageError("give --horizon (total diffusion time) for hw")
        per_rep = args.horizon / reps
        warmup = args.warmup if args.warmup is not None else min(10.0 / max(model.beta, 0.1),
                                                                 0.5 * per_rep)
        return sim.SimConfig(model=model, horizon=per_rep, warmup=warmup,
                             replications=reps, seed=args.seed)
    # mt
    if args.rate is None or args.schedule is None or args.epsilon is None:
        raise UsageError("mt needs --rate, --schedule and --epsilon")
    rate = timevarying.parse_rate(args.rate)
    if not (args.grid_step > 0.0):
        raise UsageError("--grid-step must be positive, got %r" % (args.grid_step,))
    horizon = args.horizon if args.horizon is not None else 24.0 + 1.0 / args.mu
    grid = np.arange(0.0, horizon, args.grid_step)
    if args.schedule == "mol":
        schedule = timevarying.mol_schedule(rate, args.mu, args.epsilon, grid)
    else:
        schedule = timevarying.psa_schedule(rate, args.mu, args.epsilon, grid)
    model = sim.TimeVaryingModel(rate=rate, schedule=schedule, mu=args.mu)
    warmup = args.warmup if args.warmup is not None else 1.0 / args.mu
    return sim.SimConfig(model=model, horizon=horizon, warmup=warmup,
                         replications=reps, seed=args.seed)


def _cmd_simulate(args):
    config = _build_sim_config(args)
    metrics = args.metric or ["delay_prob"]
    if args.model == "mt":
        profile = sim.time_varying_delay_profile(config, bin_width=args.bin_width)
        rows = [(float(t), float(p), int(n), config.model.schedule.epsilon)
                for t, p, n in zip(profile.bin_mid, profile.delay_prob, profile.arrivals)]
        _emit(rows, ("time", "delay_prob", "arrivals", "epsilon"),
              args.format, args.precision, args.out)
        return
    if args.model == "bulk":
        metrics = args.metric or ["p_empty"]
    if args.model == "hw":
        metrics = args.metric or ["frac_above_zero"]
    est = sim.simulate(config, metrics)
    if args.format == "json":
        text = sim.estimates_json(est, config, args.precision)
    else:
        text = sim.estimates_csv(est, args.precision)
        if args.format == "table":
            text = text.replace(",", "\t")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class UsageError(Exception):
    pass


def _parser():
    p = argparse.ArgumentParser(prog="qedq",
                                description="Many-server queue analysis, "
                                            "dimensioning and simulation")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="exact measures with QED comparisons")
    pa.add_argument("--model", choices=("mms", "mmsn", "mmsm", "bulk"), required=True)
    pa.add_argument("--lambda", dest="lam", type=float, required=True)
    pa.add_argument("--servers", type=float, required=True)
    pa.add_argument("--mu", type=float, default=1.0)
    pa.add_argument("--theta", type=float, default=None)
    pa.add_argument("--buffer", type=float, default=None)
    _add_output_flags(pa)
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("staff", help="capacity dimensioning")
    ps.add_argument("--lambda", dest="lam", type=float, required=True)
    ps.add_argument("--epsilon", type=float, default=None)
    ps.add_argument("--cost-ratio", dest="cost_ratio", type=float, default=None)
    ps.add_argument("--rule", choices=("exact", "qed", "refined", "all"), default="all")
    ps.add_argument("--sigma", type=float, default=None,
                    help="load-estimate standard error (uncertain mode)")
    _add_output_flags(ps)
    ps.set_defaults(func=_cmd_staff)

    pt = sub.add_parser("table1", help="bounds/refinement ladder at beta=1")
    _add_output_flags(pt)
    pt.set_defaults(func=_cmd_table1)

    pm = sub.add_parser("simulate", help="Monte Carlo validation")
    pm.add_argument("--model", choices=("mms", "mmsn", "mmsm", "bulk", "hw", "mt"),
                    required=True)
    pm.add_argument("--lambda", dest="lam", type=float, default=None)
    pm.add_argument("--servers", type=float, default=None)
    pm.add_argument("--mu", type=float, default=1.0)
    pm.add_argument("--theta", type=float, default=None)
    pm.add_argument("--buffer", type=float, default=None)
    pm.add_argument("--beta", type=float, default=None)
    pm.add_argument("--step", type=float, default=1e-3)
    pm.add_argument("--rate", default=None, help="constant:L | sinusoid:A,B,P[,PH] | "
                                                 "pwc:t0,l0;... | csv:PATH")
    pm.add_argument("--schedule", choices=("psa", "mol"), default=None)
    pm.add_argument("--epsilon", type=float, default=None)
    pm.add_argument("--grid-step", dest="grid_step", type=float, default=0.25)
    pm.add_argument("--bin-width", dest="bin_width", type=float, default=1.0)
    pm.add_argument("--horizon", type=float, default=None)
    pm.add_argument("--arrivals", type=float, default=None,
                    help="total expected arrivals across replications")
    pm.add_argument("--periods", type=float, default=None,
                    help="total bulk periods across replications")
    pm.add_argument("--warmup", type=float, default=None)
    pm.add_argument("--reps", type=int, default=20)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--metric", action="append", default=None)
    _add_output_flags(pm)
    pm.set_defaults(func=_cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 2
    except ConfigurationError as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return 2
    except (DomainError, InstabilityError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except NumericalError as exc:
        sys.stderr.write("numerical error: %s\n" % exc)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
