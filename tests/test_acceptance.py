"""Top-level acceptance suite: one test and one PASS/FAIL line per criterion.

Each test prints a single summary line and then asserts, so the verdict for
every criterion appears in the output even when run under plain pytest.
"""

import json
import math
import time

import numpy as np
import pytest

from diracorbits import autonomous as aut
from diracorbits import dissipative as dis
from diracorbits.ansatz import decay_fit, pde_residual, profile_from_phase
from diracorbits.cli import main as cli_main
from diracorbits.clifford import build_rep, verify_rep
from diracorbits.numerics import Tolerances, Trajectory, integrate


def _verdict(n: int, label: str, ok: bool) -> None:
    print(f"[acceptance {n}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} failed: {label}"


def test_acceptance_01_clifford_identities():
    t0 = time.perf_counter()
    ok = all(verify_rep(build_rep(m))["ok"] for m in range(1, 9))
    rep3 = build_rep(3)
    pauli = [
        np.array([[0, 1], [-1, 0]], dtype=complex),
        np.array([[0, 1j], [1j, 0]], dtype=complex),
        np.array([[-1j, 0], [0, 1j]], dtype=complex),
    ]
    ok = ok and all(
        np.array_equal(rep3.alphas[j], pauli[j]) for j in range(3)
    )
    ok = ok and (time.perf_counter() - t0) < 1.0
    _verdict(1, "exact Clifford identities m=1..8 and m=3 matrices", ok)


def test_acceptance_02_homoclinic_exactness():
    ok = True
    for m in (2, 3, 4, 5):
        params = aut.AutonomousParams(m)
        for t in np.linspace(-10.0, 10.0, 2001):
            u, v = aut.homoclinic(params, float(t))
            du, dv = aut.homoclinic_derivative(params, float(t))
            fu, fv = aut.time_field(params)(0.0, u, v)
            if abs(du - fu) > 1e-12 or abs(dv - fv) > 1e-12:
                ok = False
            if abs(aut.hamiltonian(params, u, v)) > 1e-12:
                ok = False
    _verdict(2, "homoclinic closed form solves the system to 1e-12", ok)


def test_acceptance_03_period_limits():
    # Near the fold K -> K0 the orbit shrinks onto the center (c, c), where
    # z^{1/(m-1)} = lam.  The Jacobian there is [[1/2 - lam, 1/2 + lam],
    # [-1/2 - lam, lam - 1/2]]: trace 0, determinant 2 lam = m - 1.  The
    # angular frequency is sqrt(m-1), so in the time t = -log r of the
    # system the half-period tends to pi/sqrt(m-1).  The form
    # (sqrt(m-1)/2) pi = lam * pi/sqrt(m-1) is the same limit in the
    # rescaled time lam*t; the small-K slope 1/(m-1) below is also in t
    # (it would be 1/2 in lam*t).  See docs/decisions.md.
    ok = True
    details = []
    for m in (2, 3, 4):
        params = aut.AutonomousParams(m)
        kmax = aut.k0(params)
        if abs(kmax - (1 / m) * ((m - 1) / 2) ** (m - 1)) != 0.0:
            ok = False
        eta_fold = aut.half_period(params, 0.9999 * kmax)
        expected = math.pi / math.sqrt(m - 1)
        rel = abs(eta_fold - expected) / expected
        details.append(f"m={m}: eta={eta_fold:.6f} expected={expected:.6f} rel={rel:.3f}")
        if rel > 0.01:
            ok = False
        ks = np.array([1e-6, 3e-6, 1e-5, 3e-5, 1e-4])
        etas = np.array([aut.half_period(params, float(K)) for K in ks])
        slope = np.polyfit(np.log(1 / ks), etas, 1)[0]
        if abs(slope - 1 / (m - 1)) > 0.05 / (m - 1):
            ok = False
    print("; ".join(details))
    _verdict(3, "near-fold period limit, K0 formula, small-K slope", ok)


def test_acceptance_04_orbit_cross_validation():
    params = aut.AutonomousParams(3)
    ok = True
    for K in (0.05, 0.1, 0.2, 0.3):
        eta = aut.half_period(params, K)
        spec, recon = aut.orbit_reconstruct(params, K, n_samples=2001)
        u0, v0 = recon.states[0]
        rk = integrate(
            aut.time_field(params),
            (float(u0), float(v0)),
            np.linspace(0.0, 2 * eta, 2001),
        )
        sup = float(np.max(np.abs(rk.states - recon.states)))
        if sup > 1e-5:
            ok = False
        target = -params.lam * K / 2
        if np.max(np.abs(recon.energy - target)) > 1e-9:
            ok = False
        long = integrate(
            aut.time_field(params),
            (float(u0), float(v0)),
            np.linspace(0.0, 20 * eta, 4001),
        )
        energy = aut.hamiltonian(params, long.u, long.v)
        if np.max(np.abs(energy - energy[0])) > 1e-8:
            ok = False
    _verdict(4, "orbit reconstruction vs RK, energy level, 10-period drift", ok)


def test_acceptance_05_bifurcation_count():
    params = aut.AutonomousParams(3)
    count2, roots2, _ = aut.solutions_count(params, 2.0)
    ok = count2 == 1 and roots2 == []
    count5, roots5, _ = aut.solutions_count(params, 5.0)
    ok = ok and count5 == 3 and sorted(k for k, _ in roots5) == [1, 2]
    for k, K in roots5:
        if abs(aut.half_period(params, K) - 5.0 / k) > 1e-8:
            ok = False
    _verdict(5, "solution counts at T=2 and T=5 with verified roots", ok)


def test_acceptance_06_dissipative_invariants():
    ok = True
    for m in (3, 4):
        params = dis.DissipativeParams(m)
        grid = np.geomspace(0.05, 5.0, 50)
        for mu in grid:
            out = dis.shoot(params, float(mu), t_max=30.0)
            traj = out.trajectory
            if np.any(np.diff(traj.energy) > 1e-10):
                ok = False
            if out.cls in ("A", "I-candidate"):
                tail = traj.t >= 0.8 * traj.t[-1]
                if not np.all(traj.u[tail] * traj.v[tail] > 0):
                    ok = False
            neg = np.nonzero(traj.energy <= 0)[0]
            if neg.size:
                prod = traj.u[neg[0] :] * traj.v[neg[0] :]
                if not np.all(prod[1:] > 0):
                    ok = False
            # symmetry: w(s) = (u(-s), v(-s)) solves w' = -f(-s, w) from
            # (mu, mu); the claim u(-t) = v(t) means w = (v, u)
            fwd = integrate(
                dis.time_field(params),
                (float(mu), float(mu)),
                np.linspace(0.0, 5.0, 201),
                Tolerances(1e-12, 1e-12),
            )

            def backward(s, u, v, params=params):
                du, dv = dis.time_field(params)(-s, u, v)
                return (-du, -dv)

            bwd = integrate(
                backward,
                (float(mu), float(mu)),
                np.linspace(0.0, 5.0, 201),
                Tolerances(1e-12, 1e-12),
            )
            if np.max(np.abs(bwd.u - fwd.v)) > 1e-8:
                ok = False
            if np.max(np.abs(bwd.v - fwd.u)) > 1e-8:
                ok = False
    _verdict(6, "dissipative invariant suite on 50-point grids, m=3,4", ok)


def test_acceptance_07_figure_reproduction():
    params = dis.DissipativeParams(3)
    ok = True
    for mu in (0.1, 0.6, 0.7):
        out = dis.shoot(params, mu)
        if out.cls != "A" or out.k != 0:
            ok = False
        report = dis.envelope_check(params, out.trajectory, "A")
        tail = out.trajectory.t >= report["tail_start"]
        z = out.trajectory.u[tail] ** 2 + out.trajectory.v[tail] ** 2
        if not np.all(z <= report["cosh_envelope_C"] * np.cosh(out.trajectory.t[tail]) * (1 + 1e-12)):
            ok = False
    b0 = dis.boundary_bisect(params, 0, 0.5, 1.0, tol=1e-8)
    ok = ok and (b0[1] - b0[0]) <= 1e-8 and b0[0] > 0.7
    b1 = dis.boundary_bisect(params, 1, 1.5, 2.0, tol=1e-6)
    b2 = dis.boundary_bisect(params, 2, 2.0, 2.5, tol=1e-6)
    ok = ok and b0[1] < b1[0] and b1[1] < b2[0]
    _verdict(7, "trapped reference cases, first boundary > 0.7, ordered boundaries", ok)


def test_acceptance_08_rescaled_limit():
    params = dis.DissipativeParams(3)
    errs = [dis.rescale_compare(params, mu, 5.0) for mu in (10.0, 100.0, 1000.0)]
    ok = errs[1] <= errs[0] / 2
    ok = ok and errs[0] > errs[1] > errs[2]
    U0, V0 = dis.rescaled_limit(params, 0.0)
    ok = ok and abs(U0 - 1) < 1e-12 and abs(V0 - 1) < 1e-12
    for t in np.linspace(-10, 10, 101):
        U, V = dis.rescaled_limit(params, float(t))
        if abs(U * U + V * V - 2) > 1e-12:
            ok = False
    _verdict(8, "rescaled-limit error rates and closed-form identities", ok)


def test_acceptance_09_pde_and_decay():
    m = 3
    params = aut.AutonomousParams(m)
    rep = build_rep(m)
    eta = aut.half_period(params, 0.1)

    ts = np.linspace(-8.0, 8.0, 4001)
    homo = Trajectory(
        ts,
        np.array([aut.homoclinic(params, float(t)) for t in ts]),
        np.full(len(ts), np.nan),
    )
    c = aut.equilibria(params)[1][0]
    eq = Trajectory(ts, np.full((len(ts), 2), c), np.full(len(ts), np.nan))
    orbit = aut.periodic_orbit_trajectory(params, 0.1, (-5 * eta, 5 * eta), 16001)

    ok = True
    points = [[r, 0.0, 0.0] for r in (0.5, 0.9, 1.4, 2.0)]
    for traj in (homo, eq, orbit):
        prof = profile_from_phase("autonomous", m, traj)
        res = [
            pde_residual("autonomous", m, prof, rep, points, h)
            for h in (1e-3, 5e-4, 2.5e-4)
        ]
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        if not all(o >= 1.9 for o in orders):
            ok = False

    orbit_long = aut.periodic_orbit_trajectory(params, 0.1, (-8 * eta, 8 * eta), 16001)
    prof = profile_from_phase("autonomous", m, orbit_long)
    for end in ("zero", "infinity"):
        if abs(decay_fit(prof, end, window=4 * eta) - (-1.0)) > 0.1:
            ok = False

    dparams = dis.DissipativeParams(m)
    out = dis.shoot(dparams, 0.4, t_max=40.0)
    dprof = profile_from_phase("dissipative", m, out.trajectory)
    slope = decay_fit(dprof, "zero", window=10.0)
    if not (-(m - 1) / 2 - 0.1 <= slope <= -(m - 2) / 2 + 0.1):
        ok = False
    _verdict(9, "FD PDE residual order and corollary decay exponents", ok)


def test_acceptance_10_cli_determinism(tmp_path):
    commands = {
        "clifford.json": ["clifford", "--m", "4", "--emit"],
        "portrait.svg": ["autonomous", "portrait", "--m", "3", "--out"],
        "period.json": ["autonomous", "period", "--m", "3", "--K", "0.1", "--out"],
        "orbit.csv": ["autonomous", "orbit", "--m", "3", "--K", "0.1",
                      "--n-samples", "301", "--out"],
        "homoclinic.json": ["autonomous", "homoclinic", "--m", "3", "--out"],
        "bifurcation.json": ["autonomous", "bifurcation", "--m", "3", "--T", "2.0",
                             "--out"],
        "shoot.json": ["dissipative", "shoot", "--m", "3", "--mu", "0.6", "--out"],
        "sweep.csv": ["dissipative", "sweep", "--m", "3",
                      "--grid", "0.2,0.4,0.6,0.8,1.0,1.2,1.4,1.6",
                      "--t-max", "30", "--jobs", "8", "--out"],
        "boundary.json": ["dissipative", "boundary", "--m", "3", "--k", "0",
                          "--mu-lo", "0.5", "--mu-hi", "1.0", "--tol", "1e-6",
                          "--out"],
        "rescaled.json": ["dissipative", "rescaled", "--m", "3", "--mu", "100",
                          "--T", "5", "--out"],
        "profile.csv": ["ansatz", "profile", "--m", "3", "--K", "0.1", "--out"],
        "residual.csv": ["ansatz", "residual", "--m", "3", "--source",
                         "homoclinic", "--h", "1e-3,5e-4", "--out"],
        "decay.json": ["ansatz", "decay", "--m", "3", "--K", "0.1",
                       "--end", "zero", "--out"],
    }
    ok = True
    for name, argv in commands.items():
        paths = [tmp_path / f"{i}_{name}" for i in (1, 2)]
        for p in paths:
            if cli_main(argv + [str(p)]) != 0:
                ok = False
        if paths[0].read_bytes() != paths[1].read_bytes():
            ok = False
        if name == "clifford.json":
            for p in paths:
                extra = p.with_name(p.name + ".report.json")
                if not json.loads(extra.read_text())["ok"]:
                    ok = False
    _verdict(10, "byte-identical CLI outputs, including parallel sweeps", ok)
