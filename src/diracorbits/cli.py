"""Command-line surface: reproducible CSV/JSON/SVG outputs for every module.

Exit codes: 0 success, 1 usage or argument error, 2 verification failure.
Config precedence: explicit flags > --config JSON file > built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import ansatz as ans
from . import autonomous as aut
from . import dissipative as dis
from .clifford import DimensionTooLarge, build_rep, rep_to_json_dict, verify_rep
from .numerics import IntegrationError, NonConvergence, Trajectory, integrate
from .serialize import csv_text, dumps, write_csv, write_json
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


def _finite_float(text) -> float:
    """argparse type of every float flag: NaN and infinities are usage errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _finite_floats(text: str) -> list[float]:
    """argparse type of the comma-separated lists --grid and --h: one entry or more."""
    values = [_finite_float(s) for s in text.split(",") if s.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _one_of(names: tuple[str, ...]):
    """argparse type of an option with ``choices``: argparse runs an option's
    type on a --config default too, but checks ``choices`` only on a flag."""
    def check(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})")
        return text

    return check


def _flag_text(value) -> str:
    """A --config value as its flag's text: a list's entries joined with commas."""
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _emit(args, payload) -> int:
    """Write ``payload`` as JSON to --out, or the same bytes to stdout."""
    if args.out:
        write_json(args.out, payload)
    else:
        sys.stdout.write(dumps(payload))
    return 0


def _emit_rows(args, header, rows) -> int:
    """Write CSV rows to --out, or the same bytes to stdout."""
    if args.out:
        write_csv(args.out, header, rows)
    else:
        sys.stdout.write(csv_text(header, rows))
    return 0


# ---------------------------------------------------------------- clifford


def cmd_clifford(args) -> int:
    try:
        rep = build_rep(args.m)
    except DimensionTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = verify_rep(rep)
    if args.emit:
        write_json(args.emit, rep_to_json_dict(rep))
        write_json(str(args.emit) + ".report.json", report)
    else:
        _emit(args, report)
    if not report["ok"]:
        print("error: Clifford identity verification failed", file=sys.stderr)
        return 2
    return 0


# -------------------------------------------------------------- autonomous


def _autonomous_portrait(args, params: aut.AutonomousParams) -> int:
    if not args.out:
        raise UsageError("portrait writes an SVG file and requires --out")
    curves = []
    field = aut.time_field(params)
    # closed orbits inside the homoclinic loop
    for K in np.linspace(0.2, 0.9, 4) * aut.k0(params):
        _, traj = aut.orbit_reconstruct(params, float(K), n_samples=801)
        curves.append((traj.u, traj.v))
    # homoclinic loop
    curves.append(aut.homoclinic(params, np.linspace(-12.0, 12.0, 1201)))
    # a few outside trajectories
    for u0, v0 in ((1.6, 1.6), (-1.2, 1.2)):
        traj = integrate(field, (u0, v0), np.linspace(0.0, 4.0, 801))
        curves.append((traj.u, traj.v))
    render_figure(args.out, curves, markers=aut.equilibria(params),
                  title=f"phase portrait, m={params.m}")
    return 0


def _autonomous_period(args, params: aut.AutonomousParams) -> int:
    s0, s1 = aut.fk_zeros(params, args.K)
    eta = aut.half_period(params, args.K)
    payload = {
        "m": params.m,
        "K": args.K,
        "s0": s0,
        "s1": s1,
        "half_period": eta,
        "energy": -params.lam * args.K / 2,
    }
    return _emit(args, payload)


def _autonomous_orbit(args, params: aut.AutonomousParams) -> int:
    spec, traj = aut.orbit_reconstruct(params, args.K, args.n_samples)
    _emit_rows(args, ["t", "u", "v", "H"], zip(traj.t, traj.u, traj.v, traj.energy))
    if args.spec_out:
        write_json(args.spec_out, {
            "m": spec.m, "K": spec.K, "s0": spec.s0, "s1": spec.s1,
            "half_period": spec.half_period, "energy": spec.energy,
        })
    return 0


def _autonomous_homoclinic(args, params: aut.AutonomousParams) -> int:
    ts = np.linspace(-10.0, 10.0, 2001)
    u, v = aut.homoclinic(params, ts)
    du, dv = aut.homoclinic_derivative(params, ts)
    fu, fv = aut.time_field(params)(0.0, u, v)
    res = max(np.max(np.abs(du - fu)), np.max(np.abs(dv - fv)))
    h_max = np.max(np.abs(aut.hamiltonian(params, u, v)))
    payload = {"m": params.m, "t_range": [-10.0, 10.0], "samples": len(ts),
               "max_field_residual": res, "max_abs_energy": h_max}
    return _emit(args, payload)


def _autonomous_bifurcation(args, params: aut.AutonomousParams) -> int:
    count, roots, _ = aut.solutions_count(params, args.T)
    payload = {
        "m": params.m,
        "T": args.T,
        "count": count,
        "roots": [{"k": k, "K": K} for k, K in roots],
    }
    return _emit(args, payload)


def cmd_autonomous(args) -> int:
    run = {"portrait": _autonomous_portrait, "period": _autonomous_period,
           "orbit": _autonomous_orbit, "homoclinic": _autonomous_homoclinic,
           "bifurcation": _autonomous_bifurcation}[args.autonomous_cmd]
    return run(args, aut.AutonomousParams(args.m))


# -------------------------------------------------------------- dissipative


def cmd_dissipative(args) -> int:
    params = dis.DissipativeParams(args.m)
    thr = dis.Thresholds(args.decay_threshold, args.fit_tol, args.deadband)
    sub = args.dissipative_cmd
    if sub == "shoot":
        # the record alone: a one-lane sweep forms only the samples it reads
        out = dis.classify_sweep(params, [args.mu], args.t_max, thr)[0]
        return _emit(args, out.to_json_dict())
    if sub == "sweep":
        grid = args.grid or list(np.linspace(args.mu_start, args.mu_stop, args.mu_count))
        outcomes = dis.classify_sweep(params, grid, args.t_max, thr)
        rows = [(o.mu, o.k, o.cls, o.H_tail) for o in outcomes]
        return _emit_rows(args, ["mu", "k", "class", "H_tail"], rows)
    if sub == "boundary":
        if args.mu_lo is None or args.mu_hi is None:
            raise UsageError("boundary requires --mu-lo and --mu-hi")
        if not args.tol > 0:
            raise UsageError("--tol must be positive")
        lo, hi, diag = dis.boundary_bisect(
            params, args.k, args.mu_lo, args.mu_hi, args.tol, args.t_max, thr)
        payload = {"m": params.m, "k": args.k, "mu_lo": lo, "mu_hi": hi,
                   "width": hi - lo, "non_A_midpoints": diag}
        return _emit(args, payload)
    # rescaled, the one subcommand left: argparse checks the choice
    err = dis.rescale_compare(params, args.mu, args.T)
    ref_err = dis.rescale_compare(params, 10.0, args.T)
    payload = {"m": params.m, "mu": args.mu, "T": args.T,
               "sup_error": err, "reference_mu": 10.0,
               "reference_error": ref_err,
               "ratio_vs_mu10": err / ref_err if ref_err else None}
    return _emit(args, payload)


# ------------------------------------------------------------------ ansatz


def _profile_from_source(args, m: int, t_max: float) -> ans.SpinorProfile:
    source = args.source
    if source == "dissipative":
        out = dis.shoot(dis.DissipativeParams(m), args.mu, t_max)
        return ans.profile_from_phase("dissipative", m, out.trajectory)
    params = aut.AutonomousParams(m)
    if source == "homoclinic":
        ts = np.linspace(-8.0, 8.0, 4001)
        states = np.column_stack(aut.homoclinic(params, ts))
        traj = Trajectory(ts, states, np.full(len(ts), np.nan))
    elif source == "equilibrium":
        ts = np.linspace(-3.0, 3.0, 1001)
        states = np.full((len(ts), 2), aut.equilibria(params)[1][0])
        traj = Trajectory(ts, states, np.full(len(ts), np.nan))
    else:  # orbit
        span = 5 * (2 * aut.half_period(params, args.K))  # five periods
        traj = aut.periodic_orbit_trajectory(params, args.K, (-span, span), 16001)
    return ans.profile_from_phase("autonomous", m, traj)


def _residual_radii(r_lo: float, r_hi: float) -> np.ndarray:
    """The |x| of the residual's five points on a profile sampled over [r_lo, r_hi]."""
    return np.geomspace(max(r_lo * 4, 0.5), min(r_hi / 4, 2.0), 5)


def cmd_ansatz(args) -> int:
    m = args.m
    sub = args.ansatz_cmd
    t_max = args.t_max
    if sub == "residual":
        if not all(h > 0 for h in args.h):
            raise UsageError("--h steps must be positive")
        # a dissipative profile spans r in [e^-t_max, 1]; once 4 e^-t_max is below the
        # first radius and the lowest stencil radius lies inside, the radii are those of
        # r_lo = 0, and a longer shoot moves no point: it only spreads its samples
        radii = _residual_radii(0.0, 1.0)
        low = radii.min() - ans.ambient_dim("dissipative", m) * max(args.h)
        if low > 0:
            t_max = min(t_max, math.ceil(max(math.log(4 / radii[0]), -math.log(low))))
    if sub == "decay" and args.end == "infinity":
        # the fit reads one decade, r in [0.1, 1], which a dissipative profile
        # reaches by t = ln 10; a longer shoot moves none of it, only thins its samples
        t_max = min(t_max, math.ceil(math.log(10.0)))
    profile = _profile_from_source(args, m, t_max)
    if sub == "profile":
        rows = zip(profile.r, profile.f1, profile.f2, profile.psi_abs)
        return _emit_rows(args, ["r", "f1", "f2", "psi_abs"], rows)
    if sub == "residual":
        rep = build_rep(profile.ambient_dim)
        r_mid = _residual_radii(profile.r[0], profile.r[-1])
        points = np.outer(r_mid, np.eye(profile.ambient_dim)[0])  # (r, 0, ..., 0)
        rows = [(h, ans.pde_residual(profile.kind, m, profile, rep, points, h))
                for h in args.h]
        return _emit_rows(args, ["h", "max_residual"], rows)
    # decay
    window = None
    if args.source == "orbit":
        # whole number of orbit periods so the ln-r oscillation
        # does not bias the least-squares slope
        window = 4 * aut.half_period(aut.AutonomousParams(m), args.K)
    exponent = ans.decay_fit(profile, args.end, window=window)
    payload = {"m": m, "source": args.source, "end": args.end,
               "exponent": exponent}
    return _emit(args, payload)


# -------------------------------------------------------------------- main


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser and its subparsers by name; each option's type and default live here."""
    parser = _Parser(prog="diracorbits",
                     description="Planar Hamiltonian reductions of a critical "
                                 "nonlinear Dirac equation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags take precedence")
        p.add_argument("--m", type=int, default=3, help="dimension parameter")
        p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("clifford", help="build and verify the matrix family")
    common(p)
    p.add_argument("--emit", default=None, help="write rep JSON here")
    p.set_defaults(func=cmd_clifford)

    p = sub.add_parser("autonomous", help="conservative system commands")
    p.add_argument("autonomous_cmd",
                   choices=["portrait", "period", "orbit", "homoclinic", "bifurcation"])
    common(p)
    p.add_argument("--K", type=_finite_float, default=0.1, help="level parameter")
    p.add_argument("--T", type=_finite_float, default=2.0, help="target period")
    p.add_argument("--n-samples", dest="n_samples", type=int, default=2001)
    p.add_argument("--spec-out", dest="spec_out", default=None)
    p.set_defaults(func=cmd_autonomous)

    p = sub.add_parser("dissipative", help="shooting-classification commands")
    p.add_argument("dissipative_cmd", choices=["shoot", "sweep", "boundary", "rescaled"])
    common(p)
    p.add_argument("--mu", type=_finite_float, default=0.5)
    p.add_argument("--t-max", dest="t_max", type=_finite_float, default=60.0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--tol", type=_finite_float, default=1e-8)
    p.add_argument("--mu-lo", dest="mu_lo", type=_finite_float, default=None)
    p.add_argument("--mu-hi", dest="mu_hi", type=_finite_float, default=None)
    p.add_argument("--T", type=_finite_float, default=5.0, help="rescaled horizon")
    p.add_argument("--jobs", type=int, default=1,
                   help="deprecated and ignored: sweep lanes are solved together")
    p.add_argument("--grid", type=_finite_floats, default=None,
                   help="comma-separated mu values")
    p.add_argument("--mu-start", dest="mu_start", type=_finite_float, default=0.1)
    p.add_argument("--mu-stop", dest="mu_stop", type=_finite_float, default=0.7)
    p.add_argument("--mu-count", dest="mu_count", type=int, default=7)
    p.add_argument("--decay-threshold", dest="decay_threshold", type=_finite_float, default=1e-6)
    p.add_argument("--fit-tol", dest="fit_tol", type=_finite_float, default=0.2)
    p.add_argument("--deadband", type=_finite_float, default=1e-9)
    p.set_defaults(func=cmd_dissipative)

    p = sub.add_parser("ansatz", help="radial spinor-profile commands")
    p.add_argument("ansatz_cmd", choices=["profile", "residual", "decay"])
    common(p)
    p.add_argument("--K", type=_finite_float, default=0.1)
    p.add_argument("--mu", type=_finite_float, default=0.4)
    p.add_argument("--t-max", dest="t_max", type=_finite_float, default=20.0)
    sources, ends = ("orbit", "homoclinic", "equilibrium", "dissipative"), ("zero", "infinity")
    p.add_argument("--source", default="orbit", choices=sources, type=_one_of(sources))
    p.add_argument("--end", default="zero", choices=ends, type=_one_of(ends))
    p.add_argument("--h", type=_finite_floats, default=[1e-3, 5e-4, 2.5e-4],
                   help="comma-separated FD steps")
    p.set_defaults(func=cmd_ansatz)
    return parser, sub.choices


def main(argv=None) -> int:
    """Run one command; under LOG_LEVEL=debug, end with one stderr line on how it went."""
    start = time.perf_counter()
    _setup_logging()
    parser, subparsers = _build_parser()
    command = "(unparsed)"
    try:
        args = parser.parse_args(argv)
        if args.config:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
            if not isinstance(config, dict):
                raise UsageError("--config must contain a JSON object")
            # each config value of this command's options becomes that option's
            # default as text, which argparse reads through the option's type:
            # the flag's own checks, and flags > config > defaults
            options = vars(args).keys() - {"config", "func", "command"}
            subparsers[args.command].set_defaults(
                **{key: _flag_text(value) for key, value in config.items() if key in options})
            args = parser.parse_args(argv)
        command = " ".join(filter(None, (args.command, getattr(args, f"{args.command}_cmd", None))))
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, IntegrationError, NonConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # e.g. K0 = ((m-1)/2)^(m-1)/m overflows at m = 1000
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        log.debug("%s: main %.3f s, scipy %s", command, time.perf_counter() - start,
                  "loaded" if "scipy" in sys.modules else "not loaded")


if __name__ == "__main__":
    sys.exit(main())
