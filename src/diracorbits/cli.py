"""Command-line surface: reproducible CSV/JSON/SVG outputs for every module.

Exit codes: 0 success, 1 usage or argument error, 2 verification failure.
Config precedence: explicit flags > --config JSON file > built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import ansatz as ans
from . import autonomous as aut
from . import dissipative as dis
from .clifford import DimensionTooLarge, build_rep, rep_to_json_dict, verify_rep
from .numerics import IntegrationError, NonConvergence, integrate
from .serialize import write_csv, write_json
from .svg import render_figure

log = logging.getLogger("diracorbits")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; the contract wants 1.
    def error(self, message):
        raise UsageError(message)


def _setup_logging() -> None:
    level = os.environ.get("LOG_LEVEL", "warn").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _apply_config(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Fill unset options from --config JSON, then from defaults."""
    config = {}
    if getattr(args, "config", None):
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(config, dict):
            raise UsageError("--config must contain a JSON object")
    for key, default in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, default))
    return args


def _write_trajectory_csv(path, traj) -> None:
    rows = zip(traj.t, traj.u, traj.v, traj.energy)
    write_csv(path, ["t", "u", "v", "H"], rows)


# ---------------------------------------------------------------- clifford


def cmd_clifford(args) -> int:
    _apply_config(args, {"m": 3})
    try:
        rep = build_rep(int(args.m))
    except DimensionTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = verify_rep(rep)
    if args.emit:
        write_json(args.emit, rep_to_json_dict(rep))
        write_json(str(args.emit) + ".report.json", report)
    else:
        print(json.dumps(report, default=str))
    if not report["ok"]:
        print("error: Clifford identity verification failed", file=sys.stderr)
        return 2
    return 0


# -------------------------------------------------------------- autonomous


def _autonomous_portrait(args, params: aut.AutonomousParams) -> int:
    curves = []
    field = aut.time_field(params)
    en = aut.energy_fn(params)
    # closed orbits inside the homoclinic loop
    for K in np.linspace(0.2, 0.9, 4) * aut.k0(params):
        if K >= aut.k0(params) * (1 - 1e-6):
            continue
        _, traj = aut.orbit_reconstruct(params, float(K), n_samples=801)
        curves.append((traj.u, traj.v))
    # homoclinic loop
    ts = np.linspace(-12.0, 12.0, 1201)
    hpts = np.array([aut.homoclinic(params, float(t)) for t in ts])
    curves.append((hpts[:, 0], hpts[:, 1]))
    # a few outside trajectories
    for u0, v0 in ((1.6, 1.6), (-1.2, 1.2)):
        traj = integrate(field, (u0, v0), (0.0, 4.0), n_samples=801, energy=en)
        curves.append((traj.u, traj.v))
    render_figure(args.out, curves, markers=aut.equilibria(params),
                  title=f"phase portrait, m={params.m}")
    return 0


def _autonomous_period(args, params: aut.AutonomousParams) -> int:
    K = float(args.K)
    s0, s1 = aut.fk_zeros(params, K)
    eta = aut.half_period(params, K)
    payload = {
        "m": params.m,
        "K": K,
        "s0": s0,
        "s1": s1,
        "half_period": eta,
        "energy": -params.lam * K / 2,
    }
    if args.out:
        write_json(args.out, payload)
    else:
        print(json.dumps(payload))
    return 0


def _autonomous_orbit(args, params: aut.AutonomousParams) -> int:
    spec, traj = aut.orbit_reconstruct(params, float(args.K), int(args.n_samples))
    _write_trajectory_csv(args.out, traj)
    if args.spec_out:
        write_json(args.spec_out, {
            "m": spec.m, "K": spec.K, "s0": spec.s0, "s1": spec.s1,
            "half_period": spec.half_period, "energy": spec.energy,
        })
    return 0


def _autonomous_homoclinic(args, params: aut.AutonomousParams) -> int:
    ts = np.linspace(-10.0, 10.0, 2001)
    res = 0.0
    h_max = 0.0
    for t in ts:
        u, v = aut.homoclinic(params, float(t))
        du, dv = aut.homoclinic_derivative(params, float(t))
        fu, fv = aut.vector_field(params, (u, v))
        res = max(res, abs(du - fu), abs(dv - fv))
        h_max = max(h_max, abs(aut.hamiltonian(params, u, v)))
    payload = {"m": params.m, "t_range": [-10.0, 10.0], "samples": len(ts),
               "max_field_residual": res, "max_abs_energy": h_max}
    if args.out:
        write_json(args.out, payload)
    else:
        print(json.dumps(payload))
    return 0


def _autonomous_bifurcation(args, params: aut.AutonomousParams) -> int:
    T = float(args.T)
    count, roots, diag = aut.solutions_count(params, T)
    payload = {
        "m": params.m,
        "T": T,
        "count": count,
        "roots": [{"k": k, "K": K} for k, K in roots],
        "multi_root_k": diag["multi_root_k"],
    }
    if args.out:
        write_json(args.out, payload)
    else:
        print(json.dumps(payload))
    return 0


def cmd_autonomous(args) -> int:
    _apply_config(args, {"m": 3, "K": 0.1, "T": 2.0, "n_samples": 2001})
    params = aut.AutonomousParams(int(args.m))
    sub = args.autonomous_cmd
    if sub == "portrait":
        return _autonomous_portrait(args, params)
    if sub == "period":
        return _autonomous_period(args, params)
    if sub == "orbit":
        return _autonomous_orbit(args, params)
    if sub == "homoclinic":
        return _autonomous_homoclinic(args, params)
    if sub == "bifurcation":
        return _autonomous_bifurcation(args, params)
    raise UsageError(f"unknown autonomous subcommand {sub!r}")


# -------------------------------------------------------------- dissipative


def _parse_grid(args) -> list[float]:
    if args.grid:
        return [float(x) for x in str(args.grid).split(",") if x.strip()]
    return list(np.linspace(float(args.mu_start), float(args.mu_stop),
                            int(args.mu_count)))


def cmd_dissipative(args) -> int:
    _apply_config(args, {
        "m": 3, "mu": 0.5, "t_max": 60.0, "k": 0, "tol": 1e-8,
        "mu_lo": None, "mu_hi": None, "T": 5.0, "jobs": 1,
        "grid": None, "mu_start": 0.1, "mu_stop": 0.7, "mu_count": 7,
        "decay_threshold": 1e-6, "fit_tol": 0.2, "deadband": 1e-9,
    })
    params = dis.DissipativeParams(int(args.m))
    thr = dis.Thresholds(float(args.decay_threshold), float(args.fit_tol),
                         float(args.deadband))
    sub = args.dissipative_cmd
    if sub == "shoot":
        out = dis.shoot(params, float(args.mu), float(args.t_max), thr)
        if args.out:
            write_json(args.out, out.to_json_dict())
        else:
            print(json.dumps(out.to_json_dict()))
        return 0
    if sub == "sweep":
        grid = _parse_grid(args)
        outcomes = dis.classify_sweep(params, grid, float(args.t_max), thr,
                                      jobs=int(args.jobs))
        rows = [(o.mu, o.k, o.cls, o.H_tail) for o in outcomes]
        if args.out:
            write_csv(args.out, ["mu", "k", "class", "H_tail"], rows)
        else:
            for row in rows:
                print(*row, sep=",")
        return 0
    if sub == "boundary":
        if args.mu_lo is None or args.mu_hi is None:
            raise UsageError("boundary requires --mu-lo and --mu-hi")
        lo, hi, diag = dis.boundary_bisect(
            params, int(args.k), float(args.mu_lo), float(args.mu_hi),
            float(args.tol), float(args.t_max), thr)
        payload = {"m": params.m, "k": int(args.k), "mu_lo": lo, "mu_hi": hi,
                   "width": hi - lo, "non_A_midpoints": diag}
        if args.out:
            write_json(args.out, payload)
        else:
            print(json.dumps(payload))
        return 0
    if sub == "rescaled":
        mu = float(args.mu)
        err = dis.rescale_compare(params, mu, float(args.T))
        ref_err = dis.rescale_compare(params, 10.0, float(args.T))
        payload = {"m": params.m, "mu": mu, "T": float(args.T),
                   "sup_error": err, "reference_mu": 10.0,
                   "reference_error": ref_err,
                   "ratio_vs_mu10": err / ref_err if ref_err else None}
        if args.out:
            write_json(args.out, payload)
        else:
            print(json.dumps(payload))
        return 0
    raise UsageError(f"unknown dissipative subcommand {sub!r}")


# ------------------------------------------------------------------ ansatz


def _profile_from_source(args, m: int) -> ans.SpinorProfile:
    source = args.source
    if source == "homoclinic":
        params = aut.AutonomousParams(m)
        ts = np.linspace(-8.0, 8.0, 4001)
        states = np.array([aut.homoclinic(params, float(t)) for t in ts])
        from .numerics import Trajectory
        traj = Trajectory(ts, states, np.full(len(ts), np.nan))
        return ans.profile_from_phase("autonomous", m, traj)
    if source == "equilibrium":
        params = aut.AutonomousParams(m)
        c = aut.equilibria(params)[1][0]
        ts = np.linspace(-3.0, 3.0, 1001)
        states = np.full((len(ts), 2), c)
        from .numerics import Trajectory
        traj = Trajectory(ts, states, np.full(len(ts), np.nan))
        return ans.profile_from_phase("autonomous", m, traj)
    if source == "orbit":
        params = aut.AutonomousParams(m)
        period = 2 * aut.half_period(params, float(args.K))
        span = 5 * period
        traj = aut.periodic_orbit_trajectory(params, float(args.K),
                                             (-span, span), 16001)
        return ans.profile_from_phase("autonomous", m, traj)
    if source == "dissipative":
        params = dis.DissipativeParams(m)
        out = dis.shoot(params, float(args.mu), float(args.t_max))
        return ans.profile_from_phase("dissipative", m, out.trajectory)
    raise UsageError(f"unknown profile source {source!r}")


def cmd_ansatz(args) -> int:
    _apply_config(args, {
        "m": 3, "K": 0.1, "mu": 0.4, "t_max": 20.0,
        "source": "orbit", "end": "zero", "h": "1e-3,5e-4,2.5e-4",
    })
    m = int(args.m)
    sub = args.ansatz_cmd
    if sub == "profile":
        profile = _profile_from_source(args, m)
        ans.profile_to_csv(profile, args.out)
        return 0
    if sub == "residual":
        profile = _profile_from_source(args, m)
        rep = build_rep(profile.ambient_dim)
        r_mid = np.geomspace(max(profile.r[0] * 4, 0.5),
                             min(profile.r[-1] / 4, 2.0), 5)
        points = []
        for r in r_mid:
            x = np.zeros(profile.ambient_dim)
            x[0] = r
            points.append(x)
        rows = []
        for h in [float(s) for s in str(args.h).split(",")]:
            res = ans.pde_residual(profile.kind, m, profile, rep, points, h)
            rows.append((h, res))
        if args.out:
            write_csv(args.out, ["h", "max_residual"], rows)
        else:
            for row in rows:
                print(*row, sep=",")
        return 0
    if sub == "decay":
        profile = _profile_from_source(args, m)
        window = None
        if args.source == "orbit":
            # whole number of orbit periods so the ln-r oscillation
            # does not bias the least-squares slope
            window = 4 * aut.half_period(aut.AutonomousParams(m), float(args.K))
        exponent = ans.decay_fit(profile, args.end, window=window)
        payload = {"m": m, "source": args.source, "end": args.end,
                   "exponent": exponent}
        if args.out:
            write_json(args.out, payload)
        else:
            print(json.dumps(payload))
        return 0
    raise UsageError(f"unknown ansatz subcommand {sub!r}")


# -------------------------------------------------------------------- main


def _build_parser() -> _Parser:
    parser = _Parser(prog="diracorbits",
                     description="Planar Hamiltonian reductions of a critical "
                                 "nonlinear Dirac equation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--m", type=int, default=None, help="dimension parameter")
        p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("clifford", help="build and verify the matrix family")
    common(p)
    p.add_argument("--emit", default=None, help="write rep JSON here")
    p.set_defaults(func=cmd_clifford)

    p = sub.add_parser("autonomous", help="conservative system commands")
    p.add_argument("autonomous_cmd",
                   choices=["portrait", "period", "orbit", "homoclinic", "bifurcation"])
    common(p)
    p.add_argument("--K", type=float, default=None, help="level parameter")
    p.add_argument("--T", type=float, default=None, help="target period")
    p.add_argument("--n-samples", dest="n_samples", type=int, default=None)
    p.add_argument("--spec-out", dest="spec_out", default=None)
    p.set_defaults(func=cmd_autonomous)

    p = sub.add_parser("dissipative", help="shooting-classification commands")
    p.add_argument("dissipative_cmd", choices=["shoot", "sweep", "boundary", "rescaled"])
    common(p)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--mu-lo", dest="mu_lo", type=float, default=None)
    p.add_argument("--mu-hi", dest="mu_hi", type=float, default=None)
    p.add_argument("--T", type=float, default=None, help="rescaled horizon")
    p.add_argument("--jobs", type=int, default=None,
                   help="deprecated and ignored: sweep lanes are solved together")
    p.add_argument("--grid", default=None, help="comma-separated mu values")
    p.add_argument("--mu-start", dest="mu_start", type=float, default=None)
    p.add_argument("--mu-stop", dest="mu_stop", type=float, default=None)
    p.add_argument("--mu-count", dest="mu_count", type=int, default=None)
    p.add_argument("--decay-threshold", dest="decay_threshold", type=float, default=None)
    p.add_argument("--fit-tol", dest="fit_tol", type=float, default=None)
    p.add_argument("--deadband", type=float, default=None)
    p.set_defaults(func=cmd_dissipative)

    p = sub.add_parser("ansatz", help="radial spinor-profile commands")
    p.add_argument("ansatz_cmd", choices=["profile", "residual", "decay"])
    common(p)
    p.add_argument("--K", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--source", default=None,
                   choices=["orbit", "homoclinic", "equilibrium", "dissipative"])
    p.add_argument("--end", default=None, choices=["zero", "infinity"])
    p.add_argument("--h", default=None, help="comma-separated FD steps")
    p.set_defaults(func=cmd_ansatz)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError, IntegrationError,
            NonConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
