import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import diracorbits.autonomous as aut
from diracorbits.autonomous import (
    ROOT_LN_TOL,
    ROOT_MAX_STEPS,
    AutonomousParams,
    _half_periods,
    _turning_values,
    KOutOfRange,
    equilibria,
    f_k,
    fk_zeros,
    half_period,
    hamiltonian,
    homoclinic,
    homoclinic_derivative,
    k0,
    orbit_reconstruct,
    periodic_orbit_trajectory,
    solutions_count,
    time_field,
)
from diracorbits.numerics import NonConvergence, Tolerances, bracketed_roots, integrate
from oracles import bisect, eta_agm, fit_slope, tanh_sinh_quad, turning_values_mp

M3 = AutonomousParams(3)


def eta_oracle(params, K, tol=1e-11):
    """Raw singular period integral via tanh-sinh, independent of the library.

    F_K = phi(z) (z + (2/m) z^p + K) with phi(z) = z - (2/m) z^p - K. Near a
    turning value s, phi(s + d) = d - (2/m) s^p expm1(p log1p(d/s)), which
    keeps its relative accuracy where the raw difference of squares cancels.
    """
    m, p = params.m, params.p
    s0, s1 = fk_zeros(params, K)

    def f_pair(d0, d1):
        if d0 <= d1:
            z, phi = s0 + d0, d0 - (2 / m) * s0 ** p * math.expm1(p * math.log1p(d0 / s0))
        else:
            z, phi = s1 - d1, -d1 - (2 / m) * s1 ** p * math.expm1(p * math.log1p(-d1 / s1))
        val = phi * (z + (2 / m) * z ** p + K)
        if val <= 0:  # roundoff at a turning point; weight there is negligible
            return math.inf
        return 1.0 / (2 * params.lam * math.sqrt(val))

    return tanh_sinh_quad(None, s0, s1, tol=tol, f_pair=f_pair)


def test_hamiltonian_values():
    c = math.sqrt(2) / 2
    assert abs(hamiltonian(M3, c, c) - (-1 / 6)) < 1e-15
    assert hamiltonian(M3, 0.0, 0.0) == 0.0
    u0, v0 = homoclinic(M3, 0.0)
    assert abs(hamiltonian(M3, u0, v0)) < 1e-12


def test_hamiltonian_equals_level_at_center():
    # H at the center equals -K0*lam/2
    assert abs(hamiltonian(M3, *equilibria(M3)[1]) + k0(M3) * M3.lam / 2) < 1e-15


def test_vector_field_values():
    c = math.sqrt(2) / 2
    assert np.allclose(time_field(M3)(0.0, c, c), (0.0, 0.0), atol=1e-15)
    assert time_field(M3)(0.0, 0.0, 0.0) == (0.0, 0.0)
    assert np.allclose(time_field(M3)(0.0, 1.0, 0.0), (-1.0, -1.0), atol=1e-15)


@pytest.mark.parametrize(
    "m,c", [(2, 0.5), (3, math.sqrt(2) / 2), (4, 3 ** 1.5 / 4)]
)
def test_equilibria(m, c):
    pts = equilibria(AutonomousParams(m))
    assert pts[0] == (0.0, 0.0)
    assert abs(pts[1][0] - c) < 1e-14 and abs(pts[1][1] - c) < 1e-14
    assert pts[2] == (-pts[1][0], -pts[1][1])


def test_homoclinic_values_and_decay():
    u0, v0 = homoclinic(M3, 0.0)
    assert abs(u0 - 3 / 2 ** 1.5) < 1e-14
    assert u0 == v0
    u10, v10 = homoclinic(M3, 10.0)
    assert u10 <= 2e-4 and v10 <= 2e-4
    assert abs(hamiltonian(M3, u10, v10)) < 1e-12


@given(st.integers(2, 6), st.floats(-8, 8))
@settings(max_examples=60, deadline=None)
def test_homoclinic_symmetry(m, t):
    params = AutonomousParams(m)
    u, v = homoclinic(params, t)
    vr, ur = homoclinic(params, -t)
    assert math.isclose(u, ur, rel_tol=1e-13, abs_tol=1e-300)
    assert math.isclose(v, vr, rel_tol=1e-13, abs_tol=1e-300)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_homoclinic_is_exact_solution(m):
    # analytic derivative matches the vector field to 1e-12 on [-10, 10]
    params = AutonomousParams(m)
    worst = 0.0
    for t in np.linspace(-10, 10, 801):
        u, v = homoclinic(params, float(t))
        du, dv = homoclinic_derivative(params, float(t))
        fu, fv = time_field(params)(0.0, u, v)
        worst = max(worst, abs(du - fu), abs(dv - fv))
    assert worst <= 1e-12


@pytest.mark.parametrize("m,val", [(2, 0.25), (3, 1 / 3), (4, 27 / 32)])
def test_k0_values(m, val):
    assert k0(AutonomousParams(m)) == pytest.approx(val, abs=1e-15)


def test_f_k_values():
    assert abs(f_k(M3, 0.0, 1.0) - 5 / 9) < 1e-15
    assert f_k(M3, 0.3, 0.0) == -(0.3 ** 2)
    # double root at K = K0: F and its derivative vanish at s = lam^{m-1}
    s_star = M3.lam ** (M3.m - 1)
    assert abs(f_k(M3, k0(M3), s_star)) < 1e-14


def test_fk_zeros_against_bisection_oracle():
    s0, s1 = fk_zeros(M3, 0.1)

    def phi(s):
        return s - (2 / 3) * s ** 1.5 - 0.1

    assert abs(s0 - bisect(phi, 1e-12, 1.0)) < 1e-10
    assert abs(s1 - bisect(phi, 1.0, 4.0)) < 1e-10
    assert 0 < s0 < 2 * 0.1  # s0 < 2K
    assert s1 > M3.lam ** (M3.m - 1)


def test_fk_zeros_m2_closed_form():
    # m=2: s = s^2 + K, roots (1 -+ sqrt(1-4K))/2
    s0, s1 = fk_zeros(AutonomousParams(2), 0.1)
    assert abs(s0 - (1 - math.sqrt(0.6)) / 2) < 1e-13
    assert abs(s1 - (1 + math.sqrt(0.6)) / 2) < 1e-13


def test_fk_zeros_merge_near_k0():
    s0, s1 = fk_zeros(M3, k0(M3) * (1 - 1e-8))
    assert s1 - s0 < 1e-3
    assert abs(s0 - 1) < 1e-3 and abs(s1 - 1) < 1e-3


# K/K0 from 1e-40 up to the fold, where s0 and s1 merge like sqrt(K0 - K);
# 0.49 and 0.51 sit on both sides of the switch to the near-fold form of G
FOLD_FRACS = ([10.0 ** -e for e in range(40, 0, -3)]
              + [0.3, 0.49, 0.51, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1 - 1e-9])


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_fk_zeros_match_40_digit_reference(m):
    params = AutonomousParams(m)
    for frac in FOLD_FRACS:
        K = frac * k0(params)
        s0, s1 = fk_zeros(params, K)
        r0, r1 = turning_values_mp(m, K)
        assert abs(s0 - r0) <= 1e-14 * r0, (frac, s0, r0)
        assert abs(s1 - r1) <= 1e-14 * r1, (frac, s1, r1)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_fold_lanes_settle_in_a_few_newton_steps(m, monkeypatch):
    # from y = K/s* and p^(m-1), lanes near K0 crept onto the near-double root
    # of G in 18-19 steps; started at the curvature bounds, every lane of a
    # scan to K0 (1 - 1e-8) settles within 10 and keeps its 40-digit value
    monkeypatch.setattr(aut, "NEWTON_MAX", 10)
    params = AutonomousParams(m)
    Ks = np.concatenate([np.geomspace(1e-6, 1 - 1e-8, 48), 1 - np.geomspace(1e-9, 0.49, 16)])
    s0, s1 = _turning_values(params, Ks * k0(params))
    for K, a, b in zip(Ks * k0(params), s0, s1):
        r0, r1 = turning_values_mp(m, float(K))
        assert abs(a - r0) <= 1e-14 * r0 and abs(b - r1) <= 1e-14 * r1, (K, a, r0, b, r1)


def test_fk_zeros_is_the_batched_entry():
    Ks = np.array(FOLD_FRACS) * k0(M3)
    s0, s1 = _turning_values(M3, Ks)
    assert [fk_zeros(M3, float(K)) for K in Ks] == list(zip(s0.tolist(), s1.tolist()))


def test_k_out_of_range():
    for K in (0.0, -0.1, k0(M3), k0(M3) * (1 - 1e-12), 1.0):
        with pytest.raises(KOutOfRange):
            fk_zeros(M3, K)
    with pytest.raises(KOutOfRange):
        half_period(M3, 0.5)
    with pytest.raises(KOutOfRange):
        orbit_reconstruct(M3, 0.0)


def test_root_monotonicity_in_k():
    ks = np.linspace(0.01, k0(M3) * 0.99, 25)
    roots = [fk_zeros(M3, float(K)) for K in ks]
    s0s = [r[0] for r in roots]
    s1s = [r[1] for r in roots]
    assert all(a < b for a, b in zip(s0s, s0s[1:]))  # s0 increasing
    assert all(a > b for a, b in zip(s1s, s1s[1:]))  # s1 decreasing


@given(
    st.integers(2, 5),
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
    st.floats(0.01, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_f_k_monotone_in_k(m, kf1, kf2, s):
    params = AutonomousParams(m)
    K1 = kf1 * k0(params)
    K2 = kf2 * k0(params)
    if K1 == K2:
        return
    lo, hi = sorted((K1, K2))
    assert f_k(params, hi, s) <= f_k(params, lo, s)


@pytest.mark.parametrize(
    "m,K_frac", [(2, 0.3), (2, 0.9), (3, 0.1), (3, 0.5), (3, 0.95), (4, 0.3), (4, 0.8),
                 (2, 0.9999), (3, 0.9999), (4, 0.9999),
                 # saddle passages of width t0 = s0^(1/(m-1)) ~ 3e-9 to 4e-8
                 (2, 1e-7), (2, 1e-8), (3, 1e-16), (4, 1e-22)]
)
def test_half_period_matches_singular_integral(m, K_frac):
    params = AutonomousParams(m)
    K = K_frac * k0(params)
    got = half_period(params, K)
    ref = eta_oracle(params, K)
    assert abs(got - ref) < 5e-7 * max(1.0, abs(ref))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_half_period_limit_near_k0(m):
    # linearization at the center: angular frequency sqrt(m-1), so the
    # small-oscillation half period is pi/sqrt(m-1)
    params = AutonomousParams(m)
    got = half_period(params, 0.9999 * k0(params))
    assert abs(got - math.pi / math.sqrt(m - 1)) < 0.01 * got


@pytest.mark.parametrize("m", [2, 3, 4])
def test_half_period_log_slope_small_k(m):
    params = AutonomousParams(m)
    ks = [1e-6, 1e-5, 1e-4]
    etas = [half_period(params, K) for K in ks]
    slope = fit_slope([math.log(1 / K) for K in ks], etas)
    assert abs(slope - 1 / (m - 1)) < 0.05 / (m - 1)


@pytest.mark.parametrize("m", [2, 3, 6])
def test_half_period_is_the_kernel_lane_bit_for_bit(m):
    params = AutonomousParams(m)
    Ks = np.geomspace(1e-5, 1 - 1e-8, 64) * k0(params)
    batched = _half_periods(params, Ks)
    assert [half_period(params, float(K)) for K in Ks] == batched.tolist()


# the decades of K/K0 down to which the mapped rule settles within 2^21 nodes
REACH = {2: 29, 3: 57, 4: 85, 5: 112, 6: 140}


def test_half_period_m2_is_the_agm_closed_form():
    # eta = pi / AGM(1, 2 sqrt K) at m = 2, from 0.5 K0 down to the rule's
    # edge; the unmapped rule was off by 2.3e-13 at 1e-9 K0 and raised below
    params = AutonomousParams(2)
    Ks = np.array([0.5] + [10.0 ** -e for e in range(1, REACH[2] + 1)]) * k0(params)
    batched = _half_periods(params, Ks)
    for K, eta in zip(Ks, batched):
        ref = eta_agm(float(K))
        assert abs(eta - ref) <= 1e-15 * ref, (K, eta, ref)
        assert half_period(params, float(K)) == eta


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_half_period_matches_tanh_sinh_down_to_1e_12_k0(m):
    # the oracle's own error grows to ~4e-14 at 1e-12 K0
    params = AutonomousParams(m)
    for e in range(1, 13):
        K = 10.0 ** -e * k0(params)
        got, ref = half_period(params, K), eta_oracle(params, K)
        assert abs(got - ref) <= 1e-13 * ref, (e, got, ref)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_half_period_refuses_one_decade_past_its_reach(m):
    params = AutonomousParams(m)
    assert math.isfinite(half_period(params, 10.0 ** -REACH[m] * k0(params)))
    with pytest.raises(NonConvergence):
        half_period(params, 10.0 ** -(REACH[m] + 1) * k0(params))


def test_unsettled_lane_raises_nonconvergence():
    # at m = 2 even the mapped rule cannot resolve the saddle passage of an
    # orbit this close to the homoclinic loop (t0 ~ 1e-30) within 2^21
    # nodes; one such lane fails the batch
    params = AutonomousParams(2)
    with pytest.raises(NonConvergence):
        _half_periods(params, np.array([0.1, 1e-30, 0.2]))


def test_half_period_integrand_regular():
    # after removing the endpoint weight the integrand factor is finite
    # and positive on [0, 1]
    from diracorbits.autonomous import _pk_eval

    for K_frac in (0.05, 0.5, 0.95):
        K = K_frac * k0(M3)
        s0, s1 = fk_zeros(M3, K)
        t0, t1 = s0 ** 0.5, s1 ** 0.5
        tgrid = np.linspace(t0, t1, 1001)
        pk = _pk_eval(M3, K, t0, t1, tgrid)
        assert np.all(pk > 0)


def test_orbit_reconstruct_energy_and_range():
    spec, traj = orbit_reconstruct(M3, 0.1)
    assert np.max(np.abs(traj.energy - (-0.05))) < 1e-9
    assert abs(spec.z_samples[0] - spec.s0) < 1e-12
    assert abs(spec.z_samples[-1] - spec.s1) < 1e-12
    assert np.all(np.diff(spec.z_samples) >= 0)
    assert abs(f_k(M3, 0.1, spec.s0)) < 1e-12
    assert abs(f_k(M3, 0.1, spec.s1)) < 1e-12


def test_orbit_reconstruct_past_the_unmapped_reach():
    # at m = 2, 1e-7 K0 the unmapped table did not settle within 2^20 knots;
    # the mapped one gives the closed-form half-period and holds the level
    params = AutonomousParams(2)
    K = 1e-7 * k0(params)
    spec, traj = orbit_reconstruct(params, K, n_samples=2001)
    assert abs(spec.half_period - eta_agm(K)) <= 1e-13 * spec.half_period
    assert abs(spec.half_period - half_period(params, K)) <= 1e-13 * spec.half_period
    # H = -lam u v + z^2/4 is a difference of terms up to 1/4, so its error is absolute
    assert np.max(np.abs(traj.energy - spec.energy)) <= 1e-15
    assert spec.z_samples[0] == spec.s0 and spec.z_samples[-1] == spec.s1
    assert np.all(np.diff(spec.z_samples) >= 0)


def test_orbit_cross_validates_against_rk():
    spec, traj = orbit_reconstruct(M3, 0.1, n_samples=2001)
    rk = integrate(
        time_field(M3),
        traj.states[0],
        np.linspace(0.0, float(traj.t[-1]), 2001),
        tol=Tolerances(abs_tol=1e-12, rel_tol=1e-12),
    )
    assert np.max(np.abs(rk.states - traj.states)) <= 1e-5


@pytest.mark.parametrize("K_frac", [0.5, 1e-2, 1e-3])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_orbit_reconstruct_matches_dop853(m, K_frac):
    # scipy's DOP853 at rtol 1e-13 from the reconstruction's first state;
    # a monotone (Pchip) inverse of a cumulative trapezoid was off by
    # 1.5e-10 to 6.4e-7 relative here
    from scipy.integrate import solve_ivp

    params = AutonomousParams(m)
    K = K_frac * k0(params)
    spec, traj = orbit_reconstruct(params, K, n_samples=2001)
    assert abs(spec.half_period - half_period(params, K)) <= 1e-12
    field = time_field(params)
    ref = solve_ivp(lambda t, y: field(t, *y), (0.0, float(traj.t[-1])), traj.states[0],
                    method="DOP853", rtol=1e-13, atol=1e-16, t_eval=traj.t)
    z_ref = ref.y[0] ** 2 + ref.y[1] ** 2
    z = traj.u ** 2 + traj.v ** 2
    assert np.max(np.abs(z / z_ref - 1)) <= 1e-10
    assert np.max(np.abs(traj.energy - spec.energy)) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 6])
def test_roots_in_ln_k_agree_with_scipy_chandrupatla(m):
    from scipy.optimize.elementwise import find_root

    params = AutonomousParams(m)
    lo, hi = np.full(3, math.log(1e-6 * k0(params))), np.full(3, math.log(0.9 * k0(params)))
    eta_lo, eta_hi = half_period(params, math.exp(lo[0])), half_period(params, math.exp(hi[0]))
    target = eta_hi + (eta_lo - eta_hi) * np.array([0.1, 0.5, 0.9])
    x = bracketed_roots(lambda x, live: _half_periods(params, np.exp(x)) - target[live],
                        lo, hi, eta_lo - target, eta_hi - target, ROOT_LN_TOL, ROOT_MAX_STEPS)
    ref = find_root(lambda x, tgt: _half_periods(params, np.exp(x)) - tgt,
                    (lo, hi), args=(target,), tolerances={"xatol": ROOT_LN_TOL}).x
    assert np.all(np.abs(x - ref) <= 2 * (ROOT_LN_TOL + 4 * np.finfo(float).eps * np.abs(ref)))
    assert np.all(np.abs(_half_periods(params, np.exp(x)) - target) <= 1e-11 * target)


def test_orbit_reconstruct_is_one_period_of_the_extension():
    for K, n in ((0.2, 501), (0.01, 2001)):
        spec, traj = orbit_reconstruct(M3, K, n_samples=n)
        ext = periodic_orbit_trajectory(M3, K, (0, 2 * spec.half_period), n)
        assert np.array_equal(ext.t, traj.t)
        assert np.array_equal(ext.states, traj.states)
        assert np.array_equal(ext.energy, traj.energy)


def test_periodic_extension_consistency():
    spec, traj = orbit_reconstruct(M3, 0.2, n_samples=501)
    period = 2 * spec.half_period
    ext = periodic_orbit_trajectory(M3, 0.2, (period, 2 * period), 501)
    assert np.max(np.abs(ext.states - traj.states)) < 1e-10


def test_energy_conservation_along_flow():
    traj = integrate(time_field(M3), (0.3, 0.3), np.linspace(0.0, 50.0, 5001))
    energy = hamiltonian(M3, traj.u, traj.v)
    assert np.max(np.abs(energy - energy[0])) <= 1e-8


def test_time_reversal_symmetry():
    # the system is invariant under (u, v, t) -> (v, u, -t): starting from
    # (mu, mu), u(-t) = v(t)
    mu = 0.5
    grid = np.linspace(0.0, 5.0, 501)
    fwd = integrate(time_field(M3), (mu, mu), grid)

    def back_field(t, u, v):
        fu, fv = time_field(M3)(0.0, u, v)
        return -fu, -fv

    bwd = integrate(back_field, (mu, mu), grid)
    assert np.max(np.abs(bwd.u - fwd.v)) < 1e-8
    assert np.max(np.abs(bwd.v - fwd.u)) < 1e-8


def test_solutions_count_small_period():
    count, roots, _ = solutions_count(M3, 2.0)
    assert count == 1 and roots == []
    count2, roots2, _ = solutions_count(AutonomousParams(2), 1.0)
    assert count2 == 1 and roots2 == []


def test_solutions_count_t5():
    count, roots, _ = solutions_count(M3, 5.0)
    assert count == 3
    ks = sorted(k for k, _ in roots)
    assert ks == [1, 2]
    for k, K in roots:
        assert abs(half_period(M3, K) - 5.0 / k) < 1e-8


@pytest.mark.parametrize("m,T", [(3, 8.342), (6, 6.0)])
def test_solutions_count_roots_hit_target_relatively(m, T):
    # eta' ~ -1/((m-1) K), so an absolute root tolerance misses T/k by
    # ~1e-13/K at small K; a tolerance relative to K does not
    params = AutonomousParams(m)
    _, roots, _ = solutions_count(params, T)
    assert roots
    for k, K in roots:
        assert abs(half_period(params, K) - T / k) <= 1e-11 * T / k


def eta_two_term(m, K, t0):
    """ln(2 m^(m-1)/K)/(m-1) + c_m t0, c_m = B(1 - p/2, -1/2)/(m (m-1)), for m >= 3."""
    p = m / (m - 1)
    c = math.gamma(1 - p / 2) * math.gamma(-0.5) / math.gamma(0.5 - p / 2) / (m * (m - 1))
    return math.log(2 * m ** (m - 1) / K) / (m - 1) + c * t0


@pytest.mark.parametrize("m,T", [(4, 8.0), (3, 12.0), (5, 6.0), (6, 10.0), (2, 15.0),
                                 (2, 20.0), (2, 22.0), (2, 25.0), (3, 30.0), (6, 30.0)])
def test_solutions_count_where_the_scan_reaches_tiny_k(m, T):
    # the scan reaches K ~ 1e-14 K0 and below, where an absolute tolerance
    # on the turning value s0 ~ K made the count raise or come out short;
    # at (2, 20) and (2, 22) a floor far below the k = 1 root raised, and
    # (2, 25), (3, 30) and (6, 30) lie past the unmapped rule's reach
    params = AutonomousParams(m)
    count, roots, _ = solutions_count(params, T)
    assert count == math.ceil(T * math.sqrt(m - 1) / math.pi)
    assert sorted(k for k, _ in roots) == list(range(1, count))
    for k, K in roots:
        assert abs(half_period(params, K) - T / k) <= 1e-11 * T / k
    # the k = 1 root against the closed form at m = 2, and against the
    # two-term asymptote (off by under 0.15 t0^2) from m = 3 on
    K1 = dict(roots)[1]
    if m == 2:
        assert abs(eta_agm(K1) - T) <= 1e-12 * T
    else:
        t0 = fk_zeros(params, K1)[0] ** (1 / (m - 1))
        assert abs(eta_two_term(m, K1, t0) - T) <= 0.15 * t0 ** 2 + 1e-12 * T


def test_solutions_count_past_the_quadrature_reach_raises():
    # the k = 1 root of (3, 80) lies near 1e-68 K0, where even the mapped
    # rule cannot resolve the saddle passage within 2^21 nodes: a typed
    # error, not a count, that names T and the scan floor
    with pytest.raises(NonConvergence, match=r"scan floor K = 7\.93536e-70, set by T = 80,"):
        solutions_count(M3, 80.0)


def test_count_past_the_quadrature_reach_names_the_clamped_floor():
    # T = 1e6 asks for a floor far below SCAN_X_MIN; the message names the
    # clamp as well as T
    with pytest.raises(NonConvergence, match=r"scan floor K = 1e-280, clamped from "
                                             r"ln K = -2e\+06, set by T = 1e\+06,"):
        solutions_count(M3, 1e6)


@pytest.mark.parametrize("m,T", [(3, 10.0), (2, 12.0), (4, 6.0)])
def test_solutions_count_with_a_floor_too_high_raises(m, T, monkeypatch):
    # a clamped floor where eta < T hides the k = 1 root; with the clamp at
    # K = 1e-3 these counts came out 3 instead of 5, 4 and 4
    monkeypatch.setattr(aut, "SCAN_X_MIN", math.log(1e-3))
    with pytest.raises(NonConvergence, match="scan floor K = 0.001"):
        solutions_count(AutonomousParams(m), T)


def test_solutions_count_refuses_a_scan_that_does_not_fall(monkeypatch):
    # a bump back above T = 5 just past the k = 1 crossing gives that k
    # three crossings; the count rests on a monotone eta (Chicone 1987) and
    # checks it on the scan's own values
    half_periods = aut._half_periods

    def bumped(params, K):
        eta = half_periods(params, K)
        if K.size == aut.SCAN_POINTS:
            i = np.flatnonzero(eta < 5.0)[0]
            eta[i + 1] = eta[i - 1]
        return eta

    monkeypatch.setattr(aut, "_half_periods", bumped)
    with pytest.raises(NonConvergence, match="does not fall strictly"):
        solutions_count(M3, 5.0)


def test_solutions_count_keeps_an_exact_hit_of_the_scan(monkeypatch):
    # T = eta at a scan point: the k = 1 bracket has an end where eta - T is
    # exactly 0, and bracketed_roots returns that point without solving.
    # Below T ~ 3.3 the m = 3 scan starts at 1e-2 K0 whatever T is
    x = np.linspace(math.log(1e-2 * k0(M3)), math.log(k0(M3) * (1.0 - 1e-8)), aut.SCAN_POINTS)
    eta = _half_periods(M3, np.exp(x))
    j = int(np.flatnonzero(eta < 3.0)[0])
    calls = []
    half_periods = aut._half_periods
    monkeypatch.setattr(aut, "_half_periods", lambda p, K: calls.append(K.size) or half_periods(p, K))
    count, roots, _ = solutions_count(M3, float(eta[j]))
    assert (count, roots) == (2, [(1, float(np.exp(x[j])))])
    assert calls == [aut.SCAN_POINTS]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.floats(0.1, 20.0))
def test_solutions_count_matches_the_monotone_count(m, bound):
    # eta falls monotonically from +inf to pi/sqrt(m-1) (Chicone 1987), so
    # eta = T/k has one root for each k < T sqrt(m-1)/pi, at a K that grows with k
    T = bound / (m - 1)
    c = T * math.sqrt(m - 1) / math.pi
    assume(abs(c - round(c)) >= 0.05)
    params = AutonomousParams(m)
    count, roots, diag = solutions_count(params, T)
    assert count == math.ceil(c)
    assert [k for k, _ in roots] == list(range(1, count))
    Ks = np.array([K for _, K in roots])
    assert np.all(np.diff(Ks) > 0)
    if roots:
        targets = T / np.arange(1, count)
        assert np.all(np.abs(_half_periods(params, Ks) - targets) <= 1e-11 * targets)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_half_period_sits_above_its_small_k_asymptote(m):
    # eta(K) - ln(2 m^(m-1)/K)/(m-1) is positive and falls toward 0 as
    # K -> 0; solutions_count puts its scan floor on this asymptote
    params = AutonomousParams(m)
    Ks = k0(params) * np.logspace(-1, -8, 15)
    gap = _half_periods(params, Ks) - np.log(2 * m ** (m - 1) / Ks) / (m - 1)
    assert np.all(gap > 0)
    assert np.all(np.diff(gap) < 0)


@pytest.mark.parametrize("m,T", [(4, 8.0), (3, 12.0), (6, 10.0), (2, 15.0), (3, 5.0)])
def test_solutions_count_scans_no_deeper_than_needed(m, T, monkeypatch):
    # the scan floor sits where eta is a little above T, not decades below
    # the k = 1 root, where each lane needs the most quadrature nodes
    params = AutonomousParams(m)
    seen = []

    def recording(params, K, *args, **kwargs):
        seen.append(np.array(K))
        return _half_periods(params, K, *args, **kwargs)

    monkeypatch.setattr(aut, "_half_periods", recording)
    solutions_count(params, T)
    assert half_period(params, float(min(K.min() for K in seen))) <= T + 2


def _homoclinic_loop(params, t):
    """The closed forms evaluated one sample at a time with math."""
    m = params.m
    amp = m ** ((m - 1) / 2) / 2 ** (m / 2)
    u = amp * math.exp(t / 2) / math.cosh(t) ** (m / 2)
    v = amp * math.exp(-t / 2) / math.cosh(t) ** (m / 2)
    th = math.tanh(t)
    return u, v, u * (0.5 - (m / 2) * th), v * (-0.5 - (m / 2) * th)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_homoclinic_broadcasts_like_the_scalar_loop(m):
    params = AutonomousParams(m)
    ts = np.linspace(-12.0, 12.0, 241)
    got = np.array(homoclinic(params, ts) + homoclinic_derivative(params, ts))
    ref = np.array([_homoclinic_loop(params, float(t)) for t in ts]).T
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_field_forms_agree_bit_for_bit():
    # the integrator's time_field is the field's one body
    field = time_field(M3)
    for u, v in ((0.3, -1.1), (2.0, 0.5), (-0.7, -0.2)):
        z = u * u + v * v
        nl = z ** (1 / (M3.m - 1))
        ref = (nl * v - M3.lam * u, M3.lam * v - nl * u)
        assert field(7.0, u, v) == ref
