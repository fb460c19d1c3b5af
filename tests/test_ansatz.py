"""Tests for radial spinor profiles, the closed Dirac action and PDE residuals.

The evaluation and closed-form tests are checked against direct matrix
arithmetic; the residual tests use the library's own finite-difference
stencil as an independent oracle with measured convergence order.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracorbits.ansatz import (
    EmptyTrajectory,
    InsufficientTail,
    NonFiniteProfile,
    OriginEvaluation,
    PointOutOfRange,
    SpinorProfile,
    ansatz_eval,
    decay_fit,
    default_gamma0,
    dirac_on_ansatz_closed,
    four_component_field,
    lambda_exp,
    pde_residual,
    phase_from_profile,
    profile_from_phase,
)
from diracorbits.autonomous import (
    AutonomousParams,
    half_period,
    homoclinic,
    k0,
    periodic_orbit_trajectory,
)
from diracorbits.clifford import build_rep
from diracorbits.dissipative import DissipativeParams, shoot, time_field
from diracorbits.numerics import Tolerances, Trajectory, integrate
from diracorbits.autonomous import time_field as autonomous_field

M3 = AutonomousParams(3)


def _homoclinic_trajectory(m=3, t_lo=-8.0, t_hi=8.0, n=2001):
    params = AutonomousParams(m)
    t = np.linspace(t_lo, t_hi, n)
    states = np.array([homoclinic(params, tk) for tk in t])
    return Trajectory(
        t=t,
        states=states,
        energy=np.zeros(n),
        terminal_reason="closed-form",
    )


def _equilibrium_trajectory(m=3, t_lo=-3.0, t_hi=3.0, n=601):
    c = (m - 1) ** ((m - 1) / 2) / 2 ** (m / 2)
    t = np.linspace(t_lo, t_hi, n)
    states = np.full((n, 2), c)
    return Trajectory(
        t=t, states=states, energy=np.zeros(n), terminal_reason="constant"
    )


# ---------------------------------------------------------------------------
# ansatz_eval


def test_eval_radial_part_only():
    rep = build_rep(3)
    g = default_gamma0(rep.dim)
    for x in ([1.0, 0.0, 0.0], [0.3, -0.2, 0.9]):
        out = ansatz_eval(rep, 1.0, 0.0, g, x)
        assert np.allclose(out, g)


def test_eval_single_clifford_action_m2():
    rep = build_rep(2)
    g = np.array([1.0, 0.0], dtype=complex)
    out = ansatz_eval(rep, 0.0, 1.0, g, [1.0, 0.0])
    expected = rep.alphas[0] @ g
    assert np.allclose(out, expected)
    assert np.allclose(out, [0.0, -1.0])


def test_eval_m3_mixed():
    rep = build_rep(3)
    g = np.array([1.0, 0.0], dtype=complex)
    out = ansatz_eval(rep, 1.0, 1.0, g, [0.0, 0.0, 1.0])
    oracle = g + rep.alphas[2] @ g
    assert np.allclose(out, oracle)
    assert np.allclose(out, [1.0 - 1.0j, 0.0])


def test_eval_rejects_origin():
    rep = build_rep(2)
    with pytest.raises(OriginEvaluation):
        ansatz_eval(rep, 1.0, 1.0, default_gamma0(2), [0.0, 0.0])


# ---------------------------------------------------------------------------
# dirac_on_ansatz_closed


def test_closed_form_constant_is_harmonic():
    rep = build_rep(3)
    g = default_gamma0(rep.dim)
    out = dirac_on_ansatz_closed(
        rep,
        f1=lambda r: 2.5,
        f2=lambda r: 0.0,
        f1_prime=lambda r: 0.0,
        f2_prime=lambda r: 0.0,
        x=[0.4, -1.1, 0.2],
        gamma0=g,
    )
    assert np.allclose(out, 0.0)


def test_closed_form_quadratic_radial():
    rep = build_rep(3)
    g = default_gamma0(rep.dim)
    out = dirac_on_ansatz_closed(
        rep,
        f1=lambda r: r * r / 2,
        f2=lambda r: 0.0,
        f1_prime=lambda r: r,
        f2_prime=lambda r: 0.0,
        x=[1.0, 0.0, 0.0],
        gamma0=g,
    )
    assert np.allclose(out, rep.alphas[0] @ g)


def _fd_dirac_on_smooth(rep, f1, f2, x, gamma0, h):
    """Central-difference Dirac action on the smooth field, an FD oracle."""
    x = np.asarray(x, dtype=float)

    def field(y):
        r = float(np.linalg.norm(y))
        return ansatz_eval(rep, f1(r), f2(r), gamma0, y)

    out = np.zeros(rep.dim, dtype=complex)
    for k in range(rep.m):
        e = np.zeros(rep.m)
        e[k] = h
        out += rep.alphas[k] @ ((field(x + e) - field(x - e)) / (2 * h))
    return out


def test_closed_form_matches_fd_second_order():
    rep = build_rep(3)
    g = default_gamma0(rep.dim)
    f1 = lambda r: math.exp(-r)
    f2 = lambda r: r * math.exp(-r)
    f1p = lambda r: -math.exp(-r)
    f2p = lambda r: (1 - r) * math.exp(-r)
    x = [1.0, 0.0, 0.0]
    exact = dirac_on_ansatz_closed(rep, f1, f2, f1p, f2p, x, g)
    errs = []
    for h in (1e-3, 5e-4):
        approx = _fd_dirac_on_smooth(rep, f1, f2, x, g, h)
        errs.append(float(np.linalg.norm(approx - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_closed_form_stays_in_ansatz_space():
    # project D psi back onto the orthonormal frame {gamma0, x.gamma0/|x|}
    rep = build_rep(3)
    g = default_gamma0(rep.dim)
    f1 = lambda r: math.sin(r)
    f2 = lambda r: math.cos(r)
    f1p = lambda r: math.cos(r)
    f2p = lambda r: -math.sin(r)
    x = np.array([0.6, -0.3, 0.9])
    r = float(np.linalg.norm(x))
    out = dirac_on_ansatz_closed(rep, f1, f2, f1p, f2p, x, g)
    frame1 = g
    frame2 = np.zeros(rep.dim, dtype=complex)
    for k in range(3):
        frame2 += x[k] / r * (rep.alphas[k] @ g)
    # <gamma0, x.gamma0> is purely imaginary (the alphas are skew-hermitian),
    # so the real coefficients are recovered by the real parts alone
    c1 = np.vdot(frame1, out).real
    c2 = np.vdot(frame2, out).real
    assert abs(c1 - (-(f2p(r) + 2 * f2(r) / r))) < 1e-12
    assert abs(c2 - f1p(r)) < 1e-12
    residual = out - c1 * frame1 - c2 * frame2
    assert np.linalg.norm(residual) < 1e-12


# ---------------------------------------------------------------------------
# profile transforms


def test_equilibrium_profile_closed_form():
    traj = _equilibrium_trajectory(m=3)
    prof = profile_from_phase("autonomous", 3, traj)
    c = math.sqrt(2) / 2
    assert np.allclose(prof.f1, -c / prof.r, rtol=1e-12)
    assert np.allclose(prof.f2, c / prof.r, rtol=1e-12)


def test_homoclinic_profile_regular():
    # |psi| = m^{(m-1)/2} / (1 + r^2) for the homoclinic orbit at m=3:
    # bounded at r -> 0 with limit 3, no singularity.
    prof = profile_from_phase("autonomous", 3, _homoclinic_trajectory())
    assert np.all(np.isfinite(prof.psi_abs))
    scaled = prof.psi_abs * (1 + prof.r**2)
    assert np.allclose(scaled, 3.0, atol=1e-10)


def test_orbit_profile_periodic_in_log_radius():
    K = 0.1
    eta = half_period(M3, K)
    traj = periodic_orbit_trajectory(M3, K, (0.0, 6 * eta), 6001)
    prof = profile_from_phase("autonomous", 3, traj)
    scaled = prof.psi_abs * prof.r ** ((3 - 1) / 2)
    assert np.all(scaled > 0)
    # one full period in t is 2*eta; compare sample k against sample k+2000
    # (t spacing is 6*eta/6000, so 2000 steps = 2*eta exactly)
    assert np.allclose(scaled[:-2000], scaled[2000:], rtol=1e-6)


def test_round_trip_profile_phase():
    traj = _homoclinic_trajectory(n=401)
    prof = profile_from_phase("autonomous", 3, traj)
    back = phase_from_profile(prof)
    prof2 = profile_from_phase("autonomous", 3, back, gamma0=prof.gamma0)
    assert np.allclose(prof2.r, prof.r, rtol=1e-12)
    assert np.allclose(prof2.f1, prof.f1, atol=1e-12, rtol=1e-12)
    assert np.allclose(prof2.f2, prof.f2, atol=1e-12, rtol=1e-12)


def test_empty_trajectory_rejected():
    empty = Trajectory(
        t=np.array([]),
        states=np.zeros((0, 2)),
        energy=np.array([]),
        terminal_reason="empty",
    )
    with pytest.raises(EmptyTrajectory):
        profile_from_phase("autonomous", 3, empty)


def test_lambda_exponents():
    assert lambda_exp("autonomous", 3) == 1.0
    assert lambda_exp("dissipative", 3) == 0.5
    assert lambda_exp("autonomous", 4) == 1.5


def test_lambda_exponent_of_an_unknown_kind_raises():
    # a misspelt kind was read as dissipative and gave 0.5
    with pytest.raises(ValueError, match="unknown kind"):
        lambda_exp("autonomus", 3)


def test_profile_needs_two_samples():
    # one sample has no Hermite cell: at() gave NaN with a RuntimeWarning
    with pytest.raises(EmptyTrajectory):
        SpinorProfile("autonomous", 3, np.array([1.0]), np.array([1.0]), np.array([0.5]),
                      default_gamma0(2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m, t_first", [(4, 474.0), (5, 355.0)])
def test_a_profile_past_the_double_range_raises(m, t_first):
    # a trapped tail grows like e^(t/2), and f1 = -u e^(lt) with it: at m = 4
    # and 5 it passes 1.8e308 before the shoot ends at t = 710.48, which
    # gave inf rows and an overflow warning
    traj = shoot(DissipativeParams(m), 0.6, 2000.0).trajectory
    with pytest.raises(NonFiniteProfile, match=rf"not finite at t = {t_first!r}$"):
        profile_from_phase("dissipative", m, traj)
    # the first t whatever the cause: a NaN state
    states = np.array([[0.5, 0.5], [0.4, np.nan], [np.inf, 0.2]])
    bad = Trajectory(np.array([0.0, 1.0, 2.0]), states, np.full(3, np.nan))
    with pytest.raises(NonFiniteProfile, match=r"at t = 1\.0$"):
        profile_from_phase("dissipative", 3, bad)


def test_psi_abs_matches_eval_norm():
    rep = build_rep(3)
    prof = profile_from_phase("autonomous", 3, _homoclinic_trajectory(n=101))
    for i in range(0, len(prof.r), 20):
        x = np.array([prof.r[i], 0.0, 0.0])
        psi = ansatz_eval(rep, prof.f1[i], prof.f2[i], prof.gamma0, x)
        assert abs(np.linalg.norm(psi) - prof.psi_abs[i]) < 1e-12
        assert (
            abs(np.linalg.norm(psi) ** 2 - (prof.f1[i] ** 2 + prof.f2[i] ** 2)) < 1e-12
        )


@given(st.integers(0, 3), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_eval_norm_gamma0_independent(seed_axis, a, b):
    # |psi| must not depend on which unit spinor gamma0 is used
    rep = build_rep(3)
    x = np.array([0.7, -0.4, 0.5])
    g_default = default_gamma0(rep.dim)
    g = np.array([1.0 + a * 1j, b - 0.3j], dtype=complex)
    if seed_axis % 2:
        g = g[::-1]
    g = g / np.linalg.norm(g)
    n_default = np.linalg.norm(ansatz_eval(rep, 0.8, -0.6, g_default, x))
    n_other = np.linalg.norm(ansatz_eval(rep, 0.8, -0.6, g, x))
    assert abs(n_default - n_other) < 1e-12


# ---------------------------------------------------------------------------
# pde_residual


def test_residual_homoclinic_small():
    rep = build_rep(3)
    prof = profile_from_phase("autonomous", 3, _homoclinic_trajectory(n=4001))
    points = [[r, 0.0, 0.0] for r in (0.5, 0.8, 1.3, 2.0)]
    points += [[0.5, 0.5, 0.5], [-0.7, 0.2, 1.0]]
    res = pde_residual("autonomous", 3, prof, rep, points, h=1e-4)
    assert res <= 1e-6


def test_residual_equilibrium_small():
    rep = build_rep(3)
    prof = profile_from_phase("autonomous", 3, _equilibrium_trajectory(n=2001))
    points = [[r, 0.0, 0.0] for r in (0.5, 1.0, 2.0)]
    res = pde_residual("autonomous", 3, prof, rep, points, h=1e-4)
    assert res <= 1e-6


def test_residual_orbit_second_order():
    rep = build_rep(3)
    K = 0.1
    eta = half_period(M3, K)
    traj = periodic_orbit_trajectory(M3, K, (-5 * eta, 5 * eta), 16001)
    prof = profile_from_phase("autonomous", 3, traj)
    points = [[0.9, 0.0, 0.0], [0.0, 1.2, 0.0]]
    res_h = pde_residual("autonomous", 3, prof, rep, points, h=2e-4)
    res_h2 = pde_residual("autonomous", 3, prof, rep, points, h=1e-4)
    assert 3.0 < res_h / res_h2 < 5.0


def test_residual_dissipative_homoclinic_limit():
    # the dissipative residual uses the conformal factor (2/(1+r^2))^{1/(m-1)};
    # a phase trajectory integrated in the dissipative system must satisfy it
    params = DissipativeParams(3)
    out = shoot(params, 0.4, t_max=12.0, tol=Tolerances(1e-12, 1e-12))
    rep = build_rep(2)
    prof = profile_from_phase("dissipative", 3, out.trajectory)
    points = [[0.3, 0.1], [0.5, 0.0], [0.0, 0.9]]
    res = pde_residual("dissipative", 3, prof, rep, points, h=1e-4)
    assert res <= 1e-5


def _residual_loop(kind, m, prof, rep, points, h):
    """pde_residual with its own central-difference loop and its own Hermite profile."""
    s = np.log(prof.r)
    l = lambda_exp(kind, m)
    scale = prof.r ** l
    t, u, v = -s, -prof.f1 * scale, prof.f2 * scale
    if kind == "autonomous":
        du, dv = autonomous_field(AutonomousParams(m))(t, u, v)
    else:
        f = time_field(DissipativeParams(m))
        du, dv = np.array([f(*tuv) for tuv in zip(t.tolist(), u.tolist(), v.tolist())]).T
    d1, d2 = du / scale - l * prof.f1, -dv / scale - l * prof.f2

    def hermite(y, dy, ln_r):
        i = min(max(int(np.searchsorted(s, ln_r)) - 1, 0), len(s) - 2)
        step = float(s[i + 1] - s[i])
        x = (ln_r - float(s[i])) / step
        a, b = float(y[i]), float(y[i + 1])
        return (a + x * x * (3 - 2 * x) * (b - a)
                + step * x * (1 - x) * ((1 - x) * float(dy[i]) - x * float(dy[i + 1])))

    def field(x):
        ln_r = math.log(float(np.linalg.norm(x)))
        return ansatz_eval(rep, hermite(prof.f1, d1, ln_r), hermite(prof.f2, d2, ln_r),
                           prof.gamma0, x)

    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        dpsi = np.zeros(rep.dim, dtype=np.complex128)
        for kk in range(rep.m):
            e = np.zeros(rep.m)
            e[kk] = h
            dpsi += rep.alphas[kk] @ ((field(x + e) - field(x - e)) / (2 * h))
        psi = field(x)
        hnl = 1.0 if kind == "autonomous" else (2 / (1 + r * r)) ** (1 / (m - 1))
        rhs = hnl * float(np.linalg.norm(psi)) ** (2 / (m - 1)) * psi
        worst = max(worst, float(np.linalg.norm(dpsi - rhs)))
    return worst


def test_residual_equals_the_inline_stencil_bit_for_bit():
    auto = profile_from_phase("autonomous", 3, _homoclinic_trajectory(n=2001))
    out = shoot(DissipativeParams(4), 0.3, t_max=12.0)
    diss = profile_from_phase("dissipative", 4, out.trajectory)
    cases = [
        ("autonomous", 3, auto, [[0.5, 0.5, 0.5], [-0.7, 0.2, 1.0]]),
        ("dissipative", 4, diss, [[0.3, 0.1, -0.2], [0.0, 0.9, 0.0]]),
    ]
    # orbit profiles sampled as in the benchmark, on and off the axes
    for m in range(2, 7):
        params = AutonomousParams(m)
        traj = periodic_orbit_trajectory(params, 0.3 * k0(params), (-3.0, 3.0), 8001)
        axis = np.eye(m)
        mixed = np.resize([0.5, -0.3, 0.2, -0.4], m)
        cases.append(("autonomous", m, profile_from_phase("autonomous", m, traj),
                      [0.9 * axis[0], -1.2 * axis[-1], mixed, -mixed[::-1]]))
    for m, mu in ((3, 0.4), (5, 0.3)):
        out = shoot(DissipativeParams(m), mu, t_max=12.0)
        axis = np.eye(m - 1)
        mixed = np.resize([0.3, -0.2, 0.1], m - 1)
        cases.append(("dissipative", m, profile_from_phase("dissipative", m, out.trajectory),
                      [0.9 * axis[-1], mixed, -0.5 * mixed[::-1]]))
    for kind, m, prof, points in cases:
        rep = build_rep(prof.ambient_dim)
        for h in (1e-2, 2.5e-3, 1e-3, 1e-4):
            assert (pde_residual(kind, m, prof, rep, points, h)
                    == _residual_loop(kind, m, prof, rep, points, h)), (kind, m, h)


def test_profile_spline_is_built_once():
    points = [[0.5, 0.5, 0.5], [-0.7, 0.2, 1.0]]
    rep = build_rep(3)
    prof = profile_from_phase("autonomous", 3, _homoclinic_trajectory(n=2001))
    hs = (1e-2, 1e-3, 1e-4)
    shared = [pde_residual("autonomous", 3, prof, rep, points, h) for h in hs]
    assert prof.hermite is prof.hermite
    fresh = [pde_residual("autonomous", 3,
                          profile_from_phase("autonomous", 3, _homoclinic_trajectory(n=2001)),
                          rep, points, h) for h in hs]
    assert shared == fresh


def test_residual_point_out_of_range():
    rep = build_rep(3)
    prof = profile_from_phase("autonomous", 3, _homoclinic_trajectory(n=201))
    valid = [0.9, 0.0, 0.0]
    for bad in ([1e5, 0.0, 0.0], [math.nan, 0.0, 0.0], [0.5, math.nan, 0.5],
                [math.inf, 0.0, 0.0], [-math.inf, 0.0, 0.0]):
        for points in ([bad], [valid, bad]):
            with pytest.raises(PointOutOfRange):
                pde_residual("autonomous", 3, prof, rep, points, h=1e-4)
    with pytest.raises(PointOutOfRange):
        pde_residual("autonomous", 3, prof, rep, [valid], h=math.nan)


@pytest.mark.parametrize("h", [0.0, -1e-4, math.inf, -math.inf])
def test_residual_rejects_a_step_that_is_not_finite_and_positive(h):
    # h = 0 made every difference quotient 0/0 and returned 0.0
    rep = build_rep(3)
    prof = profile_from_phase("autonomous", 3, _homoclinic_trajectory(n=201))
    with pytest.raises(ValueError):
        pde_residual("autonomous", 3, prof, rep, [[0.9, 0.0, 0.0]], h=h)


def test_residual_keeps_a_nan_point():
    rep = build_rep(3)
    prof = profile_from_phase("autonomous", 3, _homoclinic_trajectory(n=201))
    nan_f1 = dataclasses.replace(prof, f1=np.full_like(prof.f1, np.nan))
    points = [[0.9, 0.0, 0.0], [0.5, 0.5, 0.0]]
    assert math.isnan(pde_residual("autonomous", 3, nan_f1, rep, points, h=1e-4))
    assert math.isfinite(pde_residual("autonomous", 3, prof, rep, points, h=1e-4))


def test_residual_refuses_a_kind_or_m_that_is_not_the_profiles():
    # an m = 4 dissipative profile read as ("autonomous", 3) shares its
    # ambient dimension, so the stencil ran with the wrong exponent and h_nl
    prof = profile_from_phase("dissipative", 4, shoot(DissipativeParams(4), 0.3, 12.0).trajectory)
    rep = build_rep(3)
    points = np.outer(np.geomspace(0.5, 0.25, 5), [1.0, 0.0, 0.0])
    assert pde_residual("dissipative", 4, prof, rep, points, h=1e-3) < 2e-3
    for kind, m in (("autonomous", 3), ("dissipative", 5), ("autonomous", 4)):
        with pytest.raises(ValueError, match="is not the profile's"):
            pde_residual(kind, m, prof, rep, points, h=1e-3)


def test_residual_rejects_empty_or_misshapen_points():
    rep = build_rep(3)
    prof = profile_from_phase("autonomous", 3, _homoclinic_trajectory(n=201))
    for points in ([], np.empty((0, 3)), [[0.9, 0.0]], [0.9, 0.0, 0.0]):
        with pytest.raises(ValueError, match="points must be"):
            pde_residual("autonomous", 3, prof, rep, points, h=1e-4)


def test_residual_gamma0_independent():
    rep = build_rep(3)
    traj = _homoclinic_trajectory(n=2001)
    rng = np.random.default_rng(7)
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    g = raw / np.linalg.norm(raw)
    prof_a = profile_from_phase("autonomous", 3, traj)
    prof_b = profile_from_phase("autonomous", 3, traj, gamma0=g)
    points = [[0.8, 0.0, 0.0], [0.4, 0.4, 0.4]]
    res_a = pde_residual("autonomous", 3, prof_a, rep, points, h=1e-4)
    res_b = pde_residual("autonomous", 3, prof_b, rep, points, h=1e-4)
    assert res_a <= 1e-6 and res_b <= 1e-6


# ---------------------------------------------------------------------------
# decay_fit


def test_decay_pure_power():
    r = np.geomspace(1e-3, 1e2, 400)
    prof = SpinorProfile(
        kind="autonomous",
        m=3,
        r=r,
        f1=1.0 / r,
        f2=np.zeros_like(r),
        gamma0=default_gamma0(2),
    )
    assert abs(decay_fit(prof, end="zero") - (-1.0)) < 1e-6
    assert abs(decay_fit(prof, end="infinity") - (-1.0)) < 1e-6


def test_decay_orbit_profile():
    K = 0.1
    eta = half_period(M3, K)
    traj = periodic_orbit_trajectory(M3, K, (-8 * eta, 8 * eta), 16001)
    prof = profile_from_phase("autonomous", 3, traj)
    # window = whole number of periods in ln r so the oscillation of the
    # periodic orbit does not bias the least-squares slope
    slope = decay_fit(prof, end="zero", window=4 * eta)
    assert abs(slope - (-1.0)) < 0.1
    slope_inf = decay_fit(prof, end="infinity", window=4 * eta)
    assert abs(slope_inf - (-1.0)) < 0.1


def test_decay_dissipative_trapped_profile():
    params = DissipativeParams(3)
    out = shoot(params, 0.4, t_max=40.0)
    prof = profile_from_phase("dissipative", 3, out.trajectory)
    slope = decay_fit(prof, end="zero", window=10.0)
    assert -1.0 <= slope <= -0.5


def test_decay_insufficient_tail():
    r = np.geomspace(0.5, 2.0, 6)
    prof = SpinorProfile(
        kind="autonomous",
        m=3,
        r=r,
        f1=1.0 / r,
        f2=np.zeros_like(r),
        gamma0=default_gamma0(2),
    )
    with pytest.raises(InsufficientTail):
        decay_fit(prof, end="zero")


# ---------------------------------------------------------------------------
# doubled-system symmetry reduction


def test_four_component_reduction_identity():
    params = DissipativeParams(3)
    out = shoot(params, 0.6, t_max=8.0, n_samples=401)
    s = math.sqrt(2)
    for i in range(0, len(out.trajectory), 25):
        t = float(out.trajectory.t[i])
        u, v = out.trajectory.states[i]
        planar = time_field(params)(t, u, v)
        doubled = four_component_field(3, t, (u / s, v / s, u / s, v / s))
        assert abs(doubled[0] - planar[0] / s) < 1e-12
        assert abs(doubled[1] - planar[1] / s) < 1e-12
        assert abs(doubled[2] - planar[0] / s) < 1e-12
        assert abs(doubled[3] - planar[1] / s) < 1e-12


def test_four_component_zero_state():
    assert four_component_field(3, 0.0, (0.0, 0.0, 0.0, 0.0)) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# integrated phase trajectories map to valid profiles


def test_integrated_orbit_profile_round_trip():
    K = 0.12
    eta = half_period(M3, K)
    spec_traj = periodic_orbit_trajectory(M3, K, (0.0, 2 * eta), 801)
    u0, v0 = spec_traj.states[0]
    traj = integrate(
        autonomous_field(M3),
        (float(u0), float(v0)),
        np.linspace(0.0, float(2 * eta), 801),
        Tolerances(1e-12, 1e-12),
    )
    prof = profile_from_phase("autonomous", 3, traj)
    back = phase_from_profile(prof)
    assert np.allclose(back.states, traj.states, atol=1e-10)
