"""Tests for the nonautonomous planar system: shooting, sweeps and envelopes.

Example values are verified by hand arithmetic; classification claims are
cross-checked against the monotone-energy argument and the closed-form
rescaled limit.
"""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracorbits.dissipative import (
    BracketInvalid,
    DissipativeParams,
    TailTooShort,
    Thresholds,
    _StepWatch,
    boundary_bisect,
    classify_sweep,
    envelope_check,
    hamiltonian_t,
    polar_field,
    rescale_compare,
    rescaled_limit,
    shoot,
    time_field,
)
from diracorbits.numerics import (
    NonFiniteState,
    StepLimitExceeded,
    Tolerances,
    Trajectory,
    find_root,
    integrate,
)
from oracles import bisect_round_per_solve, sign_change_events, vector_field_rescaled
from test_golden import BRACKETS as GOLDEN_BRACKETS

P3 = DissipativeParams(3)


def _traj_from_samples(t, u, v):
    t = np.asarray(t, dtype=float)
    states = np.column_stack([np.asarray(u, float), np.asarray(v, float)])
    return Trajectory(
        t=t, states=states, energy=np.zeros(len(t)), terminal_reason="synthetic"
    )


# ---------------------------------------------------------------------------
# pointwise formulas


def test_params_kappa():
    assert P3.kappa == 0.5
    assert DissipativeParams(4).kappa == 1.0
    with pytest.raises(ValueError):
        DissipativeParams(2)


@pytest.mark.parametrize("field", ["decay_threshold", "fit_tol", "deadband"])
@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
def test_thresholds_refuse_a_value_that_is_not_finite_or_is_negative(field, value):
    # a NaN deadband made every k read 0
    with pytest.raises(ValueError, match=field):
        Thresholds(**{field: value})
    assert getattr(Thresholds(**{field: 0.0}), field) == 0.0


def test_hamiltonian_symmetric_start():
    mu = 0.4
    # H(0, mu, mu) = -mu^2/2 + (1/3) * 2^{3/2} * mu^3 for m = 3
    expected = -0.5 * mu * mu + (1 / 3) * 2**1.5 * mu**3
    assert abs(hamiltonian_t(P3, 0.0, mu, mu) - expected) < 1e-15
    assert abs(expected - (-0.019660)) < 1e-6


def test_hamiltonian_axis_positive():
    for v in (0.3, -1.2, 5.0):
        assert hamiltonian_t(P3, 0.7, 0.0, v) > 0
        assert hamiltonian_t(P3, 0.7, v, 0.0) > 0


def test_hamiltonian_large_time_limit():
    u, v = 0.8, 0.5
    assert abs(hamiltonian_t(P3, 400.0, u, v) - (-0.5 * u * v)) < 1e-12


def test_vector_field_rest_point():
    for t in (0.0, 1.0, -3.0):
        assert time_field(P3)(t, 0.0, 0.0) == (0.0, 0.0)


def test_vector_field_hand_value():
    du, dv = time_field(P3)(0.0, 1.0, 1.0)
    assert abs(du - (math.sqrt(2) - 0.5)) < 1e-15
    assert abs(dv - (0.5 - math.sqrt(2))) < 1e-15


def test_vector_field_large_time():
    du, dv = time_field(P3)(200.0, 0.8, 0.5)
    assert abs(du - (-0.5 * 0.8)) < 1e-12
    assert abs(dv - 0.5 * 0.5) < 1e-12


@given(st.integers(3, 6), st.floats(0.0, 700.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_field_forms_agree_bit_for_bit(m, t, u, v):
    # the integrator's time_field is the field's one body
    params = DissipativeParams(m)
    z = u * u + v * v
    nl = math.cosh(t) ** (-1 / (m - 1)) * z ** (1 / (m - 1))
    ref = (nl * v - params.kappa * u, params.kappa * v - nl * u)
    assert time_field(params)(t, u, v) == ref


@given(st.integers(3, 6), st.floats(0.0, 700.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_polar_field_is_the_chain_rule_of_time_field(m, t, u, v):
    # rho = ln z and phi = atan2(v, u) give rho' = 2(u u' + v v')/z and
    # phi' = (u v' - v u')/z; both sides are sums of terms of size at most
    # 2 kappa + N, which scales the rounding
    z = u * u + v * v
    if z < 1e-6:
        return
    params = DissipativeParams(m)
    du, dv = time_field(params)(t, u, v)
    drho, dphi = polar_field(params)(t, math.log(z), math.atan2(v, u))
    scale = 2 * params.kappa + math.cosh(t) ** (-1 / (m - 1)) * z ** (1 / (m - 1))
    assert abs(drho - 2 * (u * du + v * dv) / z) <= 1e-13 * scale
    assert abs(dphi - (u * dv - v * du) / z) <= 1e-13 * scale


@given(
    st.floats(0.0, 20.0),
    st.floats(0.01, 10.0),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_hamiltonian_pointwise_nonincreasing_in_t(t1, dt, u, v):
    # the explicit time dependence only enters through 1/cosh(t), so H at a
    # fixed state can only decrease as t >= 0 grows
    assert hamiltonian_t(P3, t1 + dt, u, v) <= hamiltonian_t(P3, t1, u, v) + 1e-12


# ---------------------------------------------------------------------------
# sign counting


def _watch_count(v, t=None, deadband=1e-9):
    """k that ``_StepWatch`` reads from v at t[0] and at the step ends t[1:].

    v is (n,) or (n, lanes). u = 1e6 keeps H > 0 at every step end up to
    t = 40, so no lane traps and the watch never forms grid samples.
    """
    v = np.asarray(v, dtype=float).reshape(len(v), -1)
    t = np.arange(len(v), dtype=float) if t is None else np.asarray(t, dtype=float)
    u = np.full(v.shape[1], 1e6)

    def dense(ts):
        raise AssertionError("a lane trapped")

    watch = _StepWatch(P3, t, np.array([u, v[0]]), None, deadband)
    for tj, vj in zip(t[1:], v[1:]):
        watch(tj, np.array([u, vj]), dense)
    return watch.count.tolist()


def test_sign_changes_sine():
    t = np.linspace(0.0, 10.0, 4001)
    assert _watch_count(np.sin(t), t, 1e-8) == [3]


def test_sign_changes_constant():
    t = np.linspace(0.0, 10.0, 101)
    assert _watch_count(2 * np.ones_like(t), t) == [0]


def test_sign_changes_deadband_filters_noise():
    t = np.linspace(0.0, 1.0, 201)
    noise = 1e-12 * np.sin(300 * t)
    assert _watch_count(noise + 1e-13, t, deadband=1e-9) == [0]


def test_sign_changes_rescaled_limit():
    # V0 = sqrt(2) cos(sqrt(2) t + pi/4) has zeros at pi/(4 sqrt 2) + j pi/sqrt 2
    # = 0.5554, 2.7768, 4.9982 : all three lie in [0, 5]
    zeros = [math.pi / (4 * math.sqrt(2)) + j * math.pi / math.sqrt(2) for j in range(3)]
    assert all(z < 5.0 for z in zeros)
    t = np.linspace(0.0, 5.0, 8001)
    assert _watch_count(rescaled_limit(P3, t)[1], t, 1e-8) == [3]


def _sign_changes_loop(vals, deadband):
    count, last = 0, 0
    for x in vals:
        if abs(x) <= deadband:
            continue
        s = 1 if x > 0 else -1
        if last != 0 and s != last:
            count += 1
        last = s
    return count


@given(st.lists(st.sampled_from([-2.0, -1e-10, 0.0, 1e-10, 3.0, -5e-9, 5e-9]),
                min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_sign_changes_matches_loop_reference(vals):
    # the initial state and the step ends of one lane, and the mirror lane
    want = _sign_changes_loop(vals, 1e-9)
    assert _watch_count(np.column_stack([vals, np.negative(vals)])) == [want, want]


# ---------------------------------------------------------------------------
# counts at step ends


@pytest.mark.parametrize("m, mu, t_max, k", [
    # two zeros of v share a gap of the 4001-point grid from mu ~ 165 on at
    # m = 3, t_max = 60; at t_max = 1e4 the gap is 2.5 time units wide
    (3, 100.0, 60.0, 118), (3, 200.0, 60.0, 236), (3, 300.0, 60.0, 354), (3, 400.0, 60.0, 472),
    (5, 300.0, 60.0, 28), (3, 2.0, 1e4, 2), (3, 3.0, 1e4, 3), (3, 5.0, 1e4, 6),
])
def test_k_counts_every_zero_of_v(m, mu, t_max, k):
    assert sign_change_events(m, mu, t_max) == k
    assert shoot(DissipativeParams(m), mu, t_max=t_max).k == k


def test_sweep_counts_every_zero_of_v():
    outs = classify_sweep(P3, [100.0, 200.0, 300.0, 400.0])
    assert [o.k for o in outs] == [118, 236, 354, 472]


@pytest.mark.parametrize("m", [3, 4, 5])
def test_k_does_not_depend_on_the_grid_or_the_horizon(m):
    # every lane traps before t = 20, so k is final there
    params = DissipativeParams(m)
    mus = [2.0, 7.0, 40.0, 300.0]
    want = [sign_change_events(m, mu, 60.0) for mu in mus]
    for n_samples in (401, 4001, 16001):
        assert [shoot(params, mu, n_samples=n_samples).k for mu in mus] == want, n_samples
    for t_max in (20.0, 60.0, 1e4):
        assert [o.k for o in classify_sweep(params, mus, t_max=t_max)] == want, t_max


@pytest.mark.parametrize("m", [3, 4, 5])
def test_a_step_turns_every_lane_by_less_than_a_quarter_turn(m):
    # the premise of counting at step ends: between two step ends v has at
    # most one zero. The angle atan2(v, u), unwrapped over the step's
    # interpolant at 9 points, turns by less than pi/2 in every accepted
    # step of every lane (at most 0.58 rad was measured, at m = 3)
    mus = np.geomspace(0.5, 2000.0, 8)
    t_old, turns = [0.0], []

    def turn(t, y, dense):
        ys = dense(np.linspace(t_old[0], t, 9))
        t_old[0] = t
        angle = np.unwrap(np.arctan2(ys[:, 1], ys[:, 0]), axis=0)
        turns.append(np.max(np.abs(angle[-1] - angle[0])))
        return False

    integrate(time_field(DissipativeParams(m)), np.array([mus, mus]),
              np.array([0.0, 20.0]), stop=turn)
    assert len(turns) > 100 and 0.1 < max(turns) < math.pi / 2


# ---------------------------------------------------------------------------
# shooting classification


def test_shoot_trapped_small_mu():
    out = shoot(P3, 0.4)
    assert out.cls == "A"
    assert out.k == 0
    assert out.first_nonpositive_H is not None
    assert out.first_nonpositive_H == 0.0  # H(0) < 0 already
    assert hamiltonian_t(P3, 0.0, 0.4, 0.4) < 0


@pytest.mark.parametrize("mu", [0.1, 0.6, 0.7])
def test_shoot_reference_cases(mu):
    out = shoot(P3, mu)
    assert out.cls == "A"
    assert out.k == 0


def test_shoot_large_mu_oscillates():
    # time rescales by eps^{2/(m-1)} = eps at m = 3, so in original time the
    # early zeros sit at eps (pi/(4 sqrt 2) + j pi/sqrt 2) with eps = 1/100
    # and k >= 2 already within t <= 5 eps
    eps = 1.0 / 100.0
    out = shoot(P3, 100.0, t_max=5 * eps, n_samples=8001)
    assert out.k >= 2


def test_shoot_outcome_json_fields():
    out = shoot(P3, 0.4)
    d = out.to_json_dict()
    assert set(d) == {
        "mu",
        "k",
        "class",
        "t_end",
        "H_tail",
        "envelope",
        "first_nonpositive_H",
    }
    assert d["class"] == "A"
    assert d["mu"] == 0.4


def test_shoot_horizon_too_short_is_undetermined():
    # mu just above the first boundary needs time to resolve; a tiny horizon
    # cannot classify it
    out = shoot(P3, 0.7071067812, t_max=0.5)
    assert out.cls == "undetermined"


def test_shoot_huge_horizon_classifies_from_partial_trajectory():
    # the field overflows near t = 710; the 4001-point grid holds only
    # t = 0 by then, so the class must come from the step ends, and the
    # trapped tail, followed from its trap step's end in log-polar
    # coordinates, ends with a finite H < 0
    for t_max in (3e6, 1e300):
        out = shoot(P3, 0.6, t_max=t_max)
        assert out.trajectory.terminal_reason == "non_finite"
        assert 700.0 < out.t_end < 720.0
        assert (out.k, out.cls) == (0, "A")
        assert 0.8 < out.first_nonpositive_H < 1.0
        assert math.isfinite(out.H_tail) and out.H_tail < 0.0


def test_a_failed_shoot_keeps_phase_one_step_ends():
    # the log-polar phase fails at the overflow; the trajectory holds phase
    # 1's step ends up to the handoff at the trap step's end, t = 0.9618,
    # where it jumped from t = 0 to phase 2's first step end at 0.9995
    traj = shoot(P3, 0.6, t_max=1e300).trajectory
    assert np.all(np.diff(traj.t) > 0)
    early = traj.t[(traj.t > 0.0) & (traj.t <= 0.96)]
    assert len(early) >= 3
    ref = integrate(time_field(P3), (0.6, 0.6), np.concatenate([[0.0], early]))
    rows = np.searchsorted(traj.t, early)
    assert np.allclose(traj.states[rows], ref.states[1:], rtol=0.0, atol=1e-8)
    assert np.array_equal(traj.energy[rows], hamiltonian_t(P3, early, traj.u[rows], traj.v[rows]))


# ---------------------------------------------------------------------------
# invariants along shot trajectories


@pytest.mark.parametrize("mu", [0.1, 0.4, 0.7, 1.5])
def test_energy_monotone_along_trajectory(mu):
    out = shoot(P3, mu, t_max=30.0)
    H = out.trajectory.energy
    assert np.all(np.diff(H) <= 1e-10)


def test_symmetry_backward_solution():
    # w(s) := (u(-s), v(-s)) solves w' = -f(-s, w); the claimed symmetry is
    # u(-t) = v(t), i.e. w(s) = (v(s), u(s))
    mu = 0.6
    grid = np.linspace(0.0, 5.0, 501)
    fwd = integrate(time_field(P3), (mu, mu), grid, Tolerances(1e-12, 1e-12))

    def backward(s, u, v):
        du, dv = time_field(P3)(-s, u, v)
        return (-du, -dv)

    bwd = integrate(backward, (mu, mu), grid, Tolerances(1e-12, 1e-12))
    assert np.allclose(bwd.u, fwd.v, atol=1e-8)
    assert np.allclose(bwd.v, fwd.u, atol=1e-8)


@pytest.mark.parametrize("mu", [0.4, 0.7, 2.0])
def test_no_finite_time_rest(mu):
    out = shoot(P3, mu, t_max=30.0)
    z = out.trajectory.u**2 + out.trajectory.v**2
    assert np.min(z) > 0


@pytest.mark.parametrize("mu", [0.4, 0.7, 1.5])
def test_trapped_after_energy_sign_change(mu):
    out = shoot(P3, mu, t_max=30.0)
    traj = out.trajectory
    H = traj.energy
    idx = np.nonzero(H <= 0)[0]
    assert idx.size > 0
    prod = traj.u[idx[0] :] * traj.v[idx[0] :]
    # skip the crossing sample itself: uv may still be settling there
    assert np.all(prod[1:] > 0)


@pytest.mark.parametrize("mu", [0.1, 0.6, 2.0])
def test_eventually_same_sign(mu):
    out = shoot(P3, mu, t_max=30.0)
    traj = out.trajectory
    tail = traj.t >= 0.8 * traj.t[-1]
    assert np.all(traj.u[tail] * traj.v[tail] > 0)


# ---------------------------------------------------------------------------
# boundary bisection


def test_boundary_bisect_first_boundary():
    lo, hi, diag = boundary_bisect(P3, 0, 0.5, 1.0, tol=1e-8)
    assert hi - lo <= 1e-8
    assert lo > 0.7
    # the sweep oracle: both endpoints still classify as A
    assert shoot(P3, 0.5).k == 0
    assert shoot(P3, 1.0).k >= 1


def test_boundaries_increase_with_k():
    b0 = boundary_bisect(P3, 0, 0.5, 1.0, tol=1e-6)
    b1 = boundary_bisect(P3, 1, 1.5, 2.0, tol=1e-6)
    b2 = boundary_bisect(P3, 2, 2.0, 2.5, tol=1e-6)
    assert b0[1] < b1[0]
    assert b1[1] < b2[0]


def test_boundary_bisect_invalid_bracket():
    with pytest.raises(BracketInvalid):
        boundary_bisect(P3, 0, 0.1, 0.4, tol=1e-4)


@pytest.mark.parametrize("tol", [0.0, -1.0, -math.inf, math.inf, math.nan])
def test_boundary_bisect_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        boundary_bisect(P3, 0, 0.5, 1.0, tol=tol, t_max=5.0)


@pytest.mark.parametrize("tol", [1e-20, 5e-324])
def test_boundary_bisect_below_float_spacing_returns_adjacent_doubles(tol):
    # (b - a) / tol overflows to inf at the smallest subnormal tol
    lo, hi, _ = boundary_bisect(P3, 0, 0.5, 1.0, tol=tol, t_max=5.0)
    assert np.nextafter(lo, math.inf) == hi


def mu_star(m):
    return ((m - 1) / 2) ** ((m - 1) / 2) / math.sqrt(2)


@pytest.mark.parametrize("m, t_max", [(4, 8.5), (5, 6.5), (6, 5.5)])
@pytest.mark.parametrize("scale", [1 - 1e-15, 1.0, 1 + 1e-15])
def test_shoot_from_the_k0_boundary_is_an_i_candidate(m, t_max, scale):
    # mu*(m) starts the explicit orbit that decays like e^{-(m-2) t}; each
    # horizon ends before rounding pushes the solve off it (H <= 0 near
    # t = 8.97, 6.82 and 5.67, which makes a longer shoot class A)
    out = shoot(DissipativeParams(m), mu_star(m) * scale, t_max=t_max)
    assert out.cls == "I-candidate" and out.k == 0
    assert abs(out.envelope + (m - 2)) <= Thresholds().fit_tol * (m - 2)


@pytest.mark.parametrize("m, k, mu_lo, mu_hi", [
    # k = 0 brackets are not centred on mu*, so no round samples mu*
    # itself, whose side is decided by rounding alone
    *((m, 0, 0.85 * mu_star(m), 1.2 * mu_star(m)) for m in (3, 4, 5, 6)),
    (3, 1, 1.5, 2.0), (4, 1, 2.4, 2.9), (5, 2, 7.5, 9.0),
])
def test_boundary_bisect_ends_shoot_on_each_side(m, k, mu_lo, mu_hi):
    params = DissipativeParams(m)
    lo, hi, _ = boundary_bisect(params, k, mu_lo, mu_hi, tol=1e-8)
    assert hi - lo <= 1e-8
    if k == 0:
        # mu*(m) starts the explicit decaying orbit, the k = 0 boundary
        assert lo <= mu_star(m) <= hi
    assert shoot(params, lo).k <= k and shoot(params, hi).k >= k + 1


def _one_lane_bisect(mu, t_max):
    # the bracket [mu - 1e-6, mu + 1e-6] at tol 1.5e-6 takes one round of
    # one lane, its midpoint mu; at m = 3 both ends lie on either side of
    # the k = 0 boundary mu*(3) for the mu used below
    return boundary_bisect(P3, 0, mu - 1e-6, mu + 1e-6, tol=1.5e-6, t_max=t_max)


def test_boundary_bisect_lists_an_undecided_lane():
    # 1e-12 below mu*(3) the orbit keeps k = 0 and traps only at t = 13.2,
    # so the round runs to t_max and its lane is listed
    mu = mu_star(3) - 1e-12
    lo, hi, diag = _one_lane_bisect(mu, 12.0)
    assert [(d["k"], d["t_end"]) for d in diag] == [(0, 12.0)]
    assert diag[0]["class"] != "A" and diag[0]["mu"] == lo


def _fail_at_12(monkeypatch):
    """Make every solve that reaches t = 12 fail there, carrying its
    trajectory cut at t = 12; returns the list of the solves made."""
    import diracorbits.dissipative as dis

    calls = []

    def fails_at_12(field, y0, t_eval, *args, **kwargs):
        calls.append(None)
        if t_eval[-1] <= 12.0:
            return integrate(field, y0, t_eval, *args, **kwargs)
        cut = integrate(field, y0, np.append(t_eval[t_eval < 12.0], 12.0), *args, **kwargs)
        if cut.terminal_reason == "stopped":
            return cut  # the solve's stop came first
        raise NonFiniteState("cut", cut)

    monkeypatch.setattr(dis, "integrate", fails_at_12)
    return calls


def test_boundary_bisect_lists_the_lanes_of_a_failed_round(monkeypatch):
    # every solve fails at t = 12; the end check, mu -+ 2e-6, is decided
    # before, but the round's lane at mu traps only at t = 13.2. The one
    # round rides in the end check's solve, is classified from its partial
    # solve, with no lone re-solve, and lists its lanes that are not class
    # A: mu, and mu + 1e-6 above k
    calls = _fail_at_12(monkeypatch)
    mu = mu_star(3) - 1e-12
    _, _, diag = boundary_bisect(P3, 0, mu - 2e-6, mu + 2e-6, tol=4e-6 / 3.5, t_max=30.0)
    assert len(calls) == 1
    assert [(d["k"], d["class"] != "A", d["t_end"]) for d in diag] == [(0, True, 12.0),
                                                                       (1, True, 12.0)]


def test_boundary_bisect_leaves_out_a_lane_cut_short_above_k():
    # 1e-9 above mu*(3) v changes sign at t = 10.7 and H <= 0 only at
    # t = 43.2: the lane is decided above k = 0 long before t_max = 30 and
    # ends the round there, so it is not listed, though a solve to t_max
    # leaves it class undetermined
    mu = mu_star(3) + 1e-9
    out = shoot(P3, mu, t_max=30.0)
    assert out.k == 1 and out.cls != "A"
    assert _one_lane_bisect(mu, 30.0)[2] == []


# B_k, where the count goes from k to k + 1, at m = 3, 4, 5 and k = 0, 1, 2,
# to 1e-6 relative (the BOUNDARIES table of bench/workloads.py)
BOUNDARY_TABLE = {3: (0.707107, 1.574504, 2.424664), 4: (1.299038, 2.632089, 4.200931),
                  5: (2.828427, 5.269067, 8.360636)}


def _random_brackets():
    # ends 2 to 15 % of mu outside B_k; the tolerances give 4 to 7 rounds,
    # so odd and even round counts both occur
    rng = np.random.default_rng(25)
    cases = []
    for m, bs in BOUNDARY_TABLE.items():
        for k, b in enumerate(bs):
            for tol in (1e-5, 1e-6, 1e-7, 1e-8):
                lo, hi = b * (1 - rng.uniform(0.02, 0.15)), b * (1 + rng.uniform(0.02, 0.15))
                cases.append((m, k, float(lo), float(hi), tol))
    return cases


ORACLE_BRACKETS = [(m, k, lo, hi, 1e-8) for m, k, lo, hi in GOLDEN_BRACKETS] + _random_brackets()


@pytest.mark.parametrize("m, k, mu_lo, mu_hi, tol", ORACLE_BRACKETS)
def test_boundary_bisect_equals_one_round_per_solve(m, k, mu_lo, mu_hi, tol):
    # two rounds share a solve, and each lane's k comes from a larger stack;
    # the brackets and diagnostics are still those of one round per solve
    params = DissipativeParams(m)
    new = boundary_bisect(params, k, mu_lo, mu_hi, tol=tol)
    assert repr(new) == repr(bisect_round_per_solve(params, k, mu_lo, mu_hi, tol))


SIDE_KEYS = ("mu", "k", "class", "t_end", "first_nonpositive_H")


def _assert_same_lanes_listed(new, old):
    # the bracket and each listed lane's side to the bit; a listed lane's
    # H_tail and envelope are read at t_end on a larger stack, whose steps
    # differ, so they agree only to the integrator's tolerance
    assert repr(new[:2]) == repr(old[:2])
    assert [[d[key] for key in SIDE_KEYS] for d in new[2]] == [
        [d[key] for key in SIDE_KEYS] for d in old[2]]
    for d, e in zip(new[2], old[2]):
        assert d["H_tail"] == pytest.approx(e["H_tail"], rel=1e-5)
        assert d["envelope"] == pytest.approx(e["envelope"], rel=1e-5)


def test_boundary_bisect_lists_the_undecided_lane_of_one_round_per_solve():
    mu = mu_star(3) - 1e-12
    args = (P3, 0, mu - 1e-6, mu + 1e-6, 1.5e-6, 12.0)
    new = boundary_bisect(*args[:4], tol=args[4], t_max=args[5])
    assert len(new[2]) == 1
    _assert_same_lanes_listed(new, bisect_round_per_solve(*args))


def test_boundary_bisect_lists_no_lane_of_a_decided_round_beside_an_undecided_end():
    # mu_lo = mu*(3) - 1e-12 traps only at t = 13.2, so the first solve,
    # which holds the end check, runs to t_max = 12. Its rounds' lanes lie
    # 6e-8 or more above mu* and are decided long before, so none is
    # listed, as when each round is solved alone (listing every round of a
    # solve that ran on gave 21 lanes here)
    args = (P3, 0, mu_star(3) - 1e-12, mu_star(3) + 1e-6, 1e-8, 12.0)
    new = boundary_bisect(*args[:4], tol=args[4], t_max=args[5])
    assert new[2] == []
    _assert_same_lanes_listed(new, bisect_round_per_solve(*args))


def test_boundary_bisect_lists_the_failed_lanes_of_one_round_per_solve(monkeypatch):
    _fail_at_12(monkeypatch)
    mu = mu_star(3) - 1e-12
    args = (P3, 0, mu - 2e-6, mu + 2e-6, 4e-6 / 3.5, 30.0)
    new = boundary_bisect(*args[:4], tol=args[4], t_max=args[5])
    assert len(new[2]) == 2
    _assert_same_lanes_listed(new, bisect_round_per_solve(*args))


@pytest.mark.parametrize("tol", [1e-20, 5e-324])
def test_boundary_bisect_below_float_spacing_agrees_to_the_resolution(tol):
    # adjacent doubles at the boundary: a lane there takes its side from
    # v(t_max) against the deadband, which a larger stack moves by a few
    # 1e-15 (0.707195498364329 reads k = 1 alone and k = 0 in the last
    # round of one round per solve), so the two brackets agree to the
    # integrator's resolution, not to the bit
    new = boundary_bisect(P3, 0, 0.5, 1.0, tol=tol, t_max=5.0)
    old = bisect_round_per_solve(P3, 0, 0.5, 1.0, tol, 5.0)
    assert np.nextafter(new[0], math.inf) == new[1]
    assert abs(new[0] - old[0]) <= 1e-12 * old[0]


def _recorded_integrate(monkeypatch):
    """Record each solve: its lanes, its step ends and its stop's calls to ``dense``."""
    import diracorbits.dissipative as dis

    solves = []

    def recorded(field, y0, t_eval, tol=Tolerances(), stop=None):
        solve = {"lanes": np.shape(y0)[-1], "ends": [float(t_eval[0])], "dense": 0}
        solves.append(solve)

        def watched(t, y, dense):
            def counted(ts):
                solve["dense"] += 1
                return dense(ts)

            solve["ends"].append(t)
            return stop(t, y, counted)

        return integrate(field, y0, t_eval, tol, watched if stop else None)

    monkeypatch.setattr(dis, "integrate", recorded)
    return solves


def test_boundary_bisect_takes_two_rounds_per_solve(monkeypatch):
    # 7 rounds: the end check with the first, then 3 solves of two rounds
    # (one round per solve took 8)
    solves = _recorded_integrate(monkeypatch)
    boundary_bisect(P3, 1, 1.5, 2.0, tol=1e-8)
    assert len(solves) <= 4
    assert max(solve["lanes"] for solve in solves) == 2 ** 8 - 1


def test_a_side_solve_forms_no_sample_in_its_steps(monkeypatch):
    import diracorbits.dissipative as dis

    solves = _recorded_integrate(monkeypatch)
    boundary_bisect(P3, 1, 1.5, 2.0, tol=1e-8)
    mus = [0.3, 0.6, 1.0, 2.0]
    dis._outcomes(P3, mus, *dis._solve(P3, mus, 60.0, side=1), Thresholds())
    assert solves and all(solve["dense"] == 0 for solve in solves)
    # a solve with no side forms the trap step's grid samples
    classify_sweep(P3, [0.6, 1.0])
    assert solves[-2]["dense"] > 0


@pytest.mark.parametrize("mu_lo, mu_hi", [
    (0.8, 0.6), (0.7, 0.7), (0.0, 0.7), (-0.1, 0.7), (math.nan, 0.7), (0.5, math.nan),
    (0.5, math.inf), (-math.inf, 0.7)])
def test_boundary_bisect_refuses_a_bad_bracket_before_any_solve(monkeypatch, mu_lo, mu_hi):
    solves = _recorded_integrate(monkeypatch)
    with pytest.raises(ValueError, match="need finite 0 < mu_lo < mu_hi"):
        boundary_bisect(P3, 0, mu_lo, mu_hi)
    assert solves == []


_ENTRIES = {
    "shoot": lambda mu, t_max: shoot(P3, mu, t_max=t_max),
    "classify_sweep": lambda mu, t_max: classify_sweep(P3, [mu], t_max=t_max),
    "boundary_bisect": lambda mu, t_max: boundary_bisect(P3, 0, mu, 2.0, t_max=t_max),
    "rescale_compare": lambda mu, T: rescale_compare(P3, mu, T),
}


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize("mu, t_max", [
    (0.0, 5.0), (-1.0, 5.0), (math.nan, 5.0), (math.inf, 5.0),
    (1.5, 0.0), (1.5, -1.0), (1.5, math.nan), (1.5, math.inf)])
def test_each_entry_refuses_a_bad_mu_or_horizon_before_any_solve(monkeypatch, entry, mu, t_max):
    # an infinite mu or horizon used to reach integrate through a numpy
    # RuntimeWarning, and a NaN horizon to be called not positive
    match = "mu" if t_max == 5.0 else "(t_max|T) must be finite and positive"
    solves = _recorded_integrate(monkeypatch)
    with pytest.raises(ValueError, match=match):
        _ENTRIES[entry](mu, t_max)
    assert solves == []


@pytest.mark.parametrize("m", [3, 4, 5])
def test_lanes_1e9_from_mu_star_take_their_true_side(m):
    # the k = 0 boundary is resolved to about 1e-11 of mu (2.2e-12 above
    # mu*(4) a lane still traps with k = 0); 1e-9 away, the end check's
    # stacked solve and a lone shoot both give the true side
    params = DissipativeParams(m)
    lo, hi = mu_star(m) * (1 - 1e-9), mu_star(m) * (1 + 1e-9)
    assert shoot(params, lo).k == 0 and shoot(params, hi).k >= 1
    assert boundary_bisect(params, 0, lo, hi, tol=hi - lo)[:2] == (lo, hi)


def _in_trap_step(first_grid, trap_end, ends, t_max=60.0):
    # a side solve reports the end of the step where H first is <= 0; the
    # first grid time with H <= 0 lies in that step, or is the next grid
    # time after it when the step holds none
    grid = np.linspace(0.0, t_max, 4001)
    before = ends[ends.index(trap_end) - 1] if trap_end > 0 else -math.inf
    after = grid[min(np.searchsorted(grid, trap_end, side="right"), len(grid) - 1)]
    return before < first_grid <= trap_end or first_grid == after


@pytest.mark.parametrize("m", [3, 4, 5])
def test_trap_stop_keeps_sweep_outcomes(m, monkeypatch):
    # H <= 0 on every lane ends the solve; k and class must equal the
    # full-horizon sweep's on every lane, and its first H <= 0 must lie in
    # the side solve's trap step
    import diracorbits.dissipative as dis

    params = DissipativeParams(m)
    mus = list(np.geomspace(0.05, 20.0, 300))
    full = classify_sweep(params, mus)
    # no lane here changes sign 4001 times, so side = 4001 leaves H <= 0 as
    # the only rule
    solves = _recorded_integrate(monkeypatch)
    traj, ks, first = dis._solve(params, mus, 60.0, side=4001)
    trapped = dis._outcomes(params, mus, traj, ks, first, Thresholds())
    stopped = traj.terminal_reason == "stopped"
    ends = solves[-1]["ends"]
    assert stopped and max(o.t_end for o in trapped) < 60.0
    for a, b in zip(trapped, full):
        assert (a.mu, a.k, a.cls) == (b.mu, b.k, b.cls)
        assert _in_trap_step(b.first_nonpositive_H, a.first_nonpositive_H, ends), a.mu


@pytest.mark.parametrize("m", [3, 4, 5])
def test_side_stop_keeps_each_lanes_side(m, monkeypatch):
    # side=k ends the solve once every lane has H <= 0 or more than k sign
    # changes: every lane must take the full sweep's side of k, and every
    # lane trapped by then the full sweep's k and class, with the full
    # sweep's first H <= 0 in its trap step
    import diracorbits.dissipative as dis

    params = DissipativeParams(m)
    mus = list(np.geomspace(0.05, 20.0, 300))
    full = classify_sweep(params, mus)
    solves = _recorded_integrate(monkeypatch)
    for side in range(4):
        outs = dis._outcomes(params, mus, *dis._solve(params, mus, 60.0, side=side),
                             Thresholds())
        ends = solves[-1]["ends"]
        ahead = [o for o in outs if o.first_nonpositive_H is None]
        assert ahead and all(o.k > side for o in ahead)
        for a, b in zip(outs, full):
            assert a.mu == b.mu and (a.k > side) == (b.k > side), (side, a.mu)
            if a.first_nonpositive_H is not None:
                assert (a.k, a.cls) == (b.k, b.cls), (side, a.mu)
                assert _in_trap_step(b.first_nonpositive_H, a.first_nonpositive_H, ends)


GOLDEN = json.loads(Path(__file__).with_name("golden_dissipative.json").read_text())


@pytest.mark.parametrize("m, t_max", [(3, 60.0), (4, 60.0), (5, 60.0), (3, 10.0)])
def test_sweep_forms_only_the_tail_window_with_the_whole_tails_outcomes(m, t_max):
    # a stacked solve forms only the initial sample and the last TAIL_WINDOW
    # time units; those must be the doubles of the solve that keeps every
    # grid sample, and k, the first H <= 0 and the outcomes must be its own.
    # At t_max = 10 the stack traps after t_max - TAIL_WINDOW, so the window
    # reaches into phase 1
    import diracorbits.dissipative as dis

    params = DissipativeParams(m)
    mus = next(s for s in GOLDEN["sweeps"] if s["m"] == m)["lanes"]
    mus = [lane["mu"] for lane in mus]
    whole, ks, first = dis._solve(params, mus, t_max, Tolerances(), 4001, keep=True)
    window, window_ks, window_first = dis._solve(params, mus, t_max, Tolerances(), 4001)
    assert whole.terminal_reason == window.terminal_reason == "completed"
    rows = [0, *np.flatnonzero(whole.t >= t_max - dis.TAIL_WINDOW)]
    assert len(window) == len(rows) < len(whole)
    for name in ("t", "states", "energy"):
        assert np.array_equal(getattr(window, name), getattr(whole, name)[rows]), name
    assert np.array_equal(window_ks, ks) and np.array_equal(window_first, first)
    want = dis._outcomes(params, mus, whole, ks, first, Thresholds())
    assert classify_sweep(params, mus, t_max=t_max) == want
    assert dis._outcomes(params, mus, window, window_ks, window_first, Thresholds()) == want


def _dop853_tails(m, mus, t_max, n_samples):
    """H at t_max and the tail slope of ln z of each lane, by scipy's DOP853 at rtol 1e-13.

    The field is written out as the module docstring states it, in (u, v)
    over the whole horizon; the slope is numpy's polyfit over the grid
    samples of the last 5 time units.
    """
    from scipy.integrate import solve_ivp

    kappa, c, e = (m - 2) / 2, -1 / (m - 1), 1 / (m - 1)

    def rhs(t, y):
        u, v = y.reshape(2, -1)
        nl = np.cosh(t) ** c * (u * u + v * v) ** e
        return np.concatenate([nl * v - kappa * u, kappa * v - nl * u])

    t = np.linspace(0.0, t_max, n_samples)
    sol = solve_ivp(rhs, (0.0, t_max), np.concatenate([mus, mus]), method="DOP853",
                    t_eval=t, rtol=1e-13, atol=1e-13)
    u, v = sol.y.reshape(2, len(mus), -1)
    z = u * u + v * v
    H = -kappa * u[:, -1] * v[:, -1] + (m - 1) / (2 * m) * np.cosh(t_max) ** c * z[:, -1] ** (m * e)
    tail = t >= t_max - 5.0
    slopes = [np.polyfit(t[tail], np.log(lane[tail]), 1)[0] for lane in z]
    return H, np.array(slopes)


@pytest.mark.parametrize("sweep", GOLDEN["sweeps"], ids=lambda s: f"m{s['m']}")
def test_trapped_tails_match_scipy_dop853(sweep):
    # the trapped tails run in log-polar coordinates; H_tail and the
    # envelope must still agree with a tight Cartesian solve
    m, mus = sweep["m"], [lane["mu"] for lane in sweep["lanes"]]
    outs = classify_sweep(DissipativeParams(m), mus, t_max=GOLDEN["t_max"])
    H, slopes = _dop853_tails(m, np.array(mus), GOLDEN["t_max"], GOLDEN["n_samples"])
    for out, h, slope in zip(outs, H, slopes):
        assert out.cls == "A"
        assert abs(out.H_tail - h) <= 1e-8 * abs(h), (out.mu, out.H_tail, h)
        assert abs(out.envelope - slope) <= 1e-8 * abs(slope), (out.mu, out.envelope, slope)


def test_trapped_tail_takes_fewer_steps():
    # the whole horizon in (u, v) took 92 step attempts; after H <= 0 at
    # t = 0.81 the log-polar tail needs fewer, so a fall back to (u, v) fails
    traj = shoot(P3, 0.6).trajectory
    assert traj.steps_accepted + traj.steps_rejected < 92


def test_long_horizon_ends_at_the_coupling_overflow_without_warnings():
    # cosh(t) overflows at t = 710.48: the orbit is class A with k = 0 and
    # H <= 0 after the trap, so H_tail < 0 there, and mapping the log-polar
    # tail back warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = [shoot(P3, 0.6, t_max=2000.0), *classify_sweep(P3, [0.3, 0.6], t_max=2000.0)]
        # at m = 5, e^rho itself overflows by then, so H_tail is -inf
        far = [shoot(DissipativeParams(m), 0.6, t_max=2000.0) for m in (4, 5)]
    for out in outs + far:
        assert (out.cls, out.k) == ("A", 0) and out.H_tail < 0.0
        assert 710.0 < out.t_end < 710.5
        assert math.isfinite(out.envelope)
    assert all(math.isfinite(out.H_tail) for out in outs)
    assert far[1].H_tail == -math.inf


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("mu", [0.6, 2.0, 10.0])
def test_polar_tail_energy_is_hamiltonian_t_where_z_is_finite(m, mu):
    # the trapped tail's H is formed from (t, rho, phi); up to t = 60 it is
    # hamiltonian_t of the mapped samples, to rounding of its two terms
    params = DissipativeParams(m)
    traj = shoot(params, mu).trajectory
    z = traj.u ** 2 + traj.v ** 2
    scale = (params.kappa * z / 2
             + (m - 1) / (2 * m) * np.cosh(traj.t) ** (-1 / (m - 1)) * z ** (m / (m - 1)))
    H = hamiltonian_t(params, traj.t, traj.u, traj.v)
    assert np.all(np.abs(traj.energy - H) <= 1e-13 * scale)


@pytest.mark.parametrize("m, mu", [(3, 0.1), (3, 0.7071), (3, 2.0), (4, 1.0), (5, 5.0)])
def test_energy_nonincreasing_on_grid_samples(m, mu):
    # dH/dt = -tanh(t) cosh(t)^(-1/(m-1)) z^(m/(m-1)) / (2m) <= 0 for t >= 0
    H = shoot(DissipativeParams(m), mu).trajectory.energy
    scale = np.maximum(np.abs(H[1:]), np.abs(H[:-1]))
    assert np.all(np.diff(H) <= 4 * np.finfo(float).eps * scale)


# ---------------------------------------------------------------------------
# rescaled limit


def test_rescaled_limit_at_zero():
    U, V = rescaled_limit(P3, 0.0)
    assert abs(U - 1.0) < 1e-15
    assert abs(V - 1.0) < 1e-15


@given(st.floats(-20.0, 20.0))
@settings(max_examples=50, deadline=None)
def test_rescaled_limit_magnitude(t):
    U, V = rescaled_limit(P3, t)
    assert abs(U * U + V * V - 2.0) < 1e-12


def test_rescaled_limit_broadcasts_like_the_scalar_loop():
    ts = np.linspace(-20.0, 20.0, 401)
    U, V = rescaled_limit(P3, ts)
    for t, Ui, Vi in zip(ts, U, V):
        w = 2 ** (1 / (P3.m - 1)) * float(t) + math.pi / 4
        assert abs(Ui - math.sqrt(2) * math.sin(w)) <= 1e-14 * math.sqrt(2)
        assert abs(Vi - math.sqrt(2) * math.cos(w)) <= 1e-14 * math.sqrt(2)


def test_rescaled_limit_first_zero():
    z = find_root(lambda t: rescaled_limit(P3, t)[1], 0.1, 1.0)
    assert abs(z - math.pi / (4 * math.sqrt(2))) < 1e-10
    assert abs(z - 0.55536) < 1e-4


def test_rescaled_field_matches_original():
    # integrating the blown-up field directly must agree with rescaling an
    # original-time trajectory: U(t) = eps u(eps^{2/(m-1)} t), i.e. eps t at m = 3
    mu = 10.0
    eps = 1.0 / mu
    T = 3.0
    resc = integrate(
        lambda t, u, v: vector_field_rescaled(P3.m, eps, t, (u, v)),
        (1.0, 1.0),
        np.linspace(0.0, T, 301),
        Tolerances(1e-12, 1e-12),
    )
    orig = integrate(
        time_field(P3),
        (mu, mu),
        np.linspace(0.0, eps * T, 301),
        Tolerances(1e-12, 1e-12),
    )
    assert np.allclose(resc.u, eps * orig.u, atol=1e-9)
    assert np.allclose(resc.v, eps * orig.v, atol=1e-9)


def test_rescale_compare_shrinks_like_eps():
    e10 = rescale_compare(P3, 10.0)
    e100 = rescale_compare(P3, 100.0)
    ratio = e10 / e100
    assert 5.0 < ratio < 20.0


def test_rescale_compare_decreasing():
    errs = [rescale_compare(P3, mu) for mu in (10.0, 100.0, 1000.0)]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# envelope checks


def test_envelope_class_a():
    out = shoot(P3, 0.4)
    report = envelope_check(P3, out.trajectory, "A")
    C = report["cosh_envelope_C"]
    tail = out.trajectory.t >= report["tail_start"]
    z = out.trajectory.u[tail] ** 2 + out.trajectory.v[tail] ** 2
    assert np.all(z <= C * np.cosh(out.trajectory.t[tail]) * (1 + 1e-12))
    assert C > 0


def test_envelope_boundary_decay():
    # just below the first boundary the orbit hugs the decaying separatrix;
    # fit the decay exponent on the window before the eventual escape
    lo, hi, _ = boundary_bisect(P3, 0, 0.5, 1.0, tol=1e-10)
    out = shoot(P3, lo, t_max=14.0, tol=Tolerances(1e-12, 1e-12))
    report = envelope_check(P3, out.trajectory, "I-candidate", tail_start=5.0)
    assert abs(report["decay_exponent"] - (-1.0)) < 0.2
    assert report["expected_exponent"] == -1


def test_envelope_tail_too_short():
    t = np.linspace(0.0, 1.0, 50)
    traj = _traj_from_samples(t, np.zeros_like(t), np.zeros_like(t))
    with pytest.raises(TailTooShort):
        envelope_check(P3, traj, "I-candidate")


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_reference_row():
    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    outs = classify_sweep(P3, grid)
    assert [o.mu for o in outs] == grid
    assert all(o.cls == "A" and o.k == 0 for o in outs)


def test_sweep_single_transition():
    grid = list(np.linspace(0.65, 0.85, 9))
    outs = classify_sweep(P3, grid)
    ks = [o.k for o in outs]
    transitions = sum(1 for a, b in zip(ks, ks[1:]) if a != b)
    assert transitions == 1
    assert ks[0] == 0 and ks[-1] == 1


def test_sweep_empty():
    assert classify_sweep(P3, []) == []


def test_sweep_parallel_deterministic():
    grid = [0.3, 0.6, 0.9, 1.2]
    serial = classify_sweep(P3, grid, jobs=1)
    with pytest.warns(DeprecationWarning, match="jobs"):
        parallel = classify_sweep(P3, grid, jobs=4)
    for a, b in zip(serial, parallel):
        assert a.to_json_dict() == b.to_json_dict()


@pytest.mark.parametrize("m, grid", [
    (3, [0.4, 0.6, 1.0, 1.3, 1.9, 2.2, 2.8, 3.1]),
    (4, [0.8, 1.1, 1.8, 2.3, 3.0, 3.8, 4.6, 5.5]),
])
def test_sweep_stacked_matches_single_shoots(m, grid):
    # all lanes share one solve; each must classify as its own shoot does
    params = DissipativeParams(m)
    stacked = classify_sweep(params, grid)
    single = [shoot(params, mu) for mu in grid]
    assert {o.k for o in stacked} == {0, 1, 2, 3}
    for a, b in zip(stacked, single):
        assert (a.mu, a.k, a.cls, a.t_end) == (b.mu, b.k, b.cls, b.t_end)
        assert abs(a.H_tail - b.H_tail) <= 1e-6 * abs(b.H_tail)
        assert a.trajectory is None


def test_sweep_one_lane_equals_shoot():
    # one lane runs on Python floats however it is stacked, so it takes
    # shoot's steps and forms shoot's samples in the tail window
    for mu in (0.6, 0.8397, 2.7736):
        assert classify_sweep(P3, [mu])[0].to_json_dict() == shoot(P3, mu).to_json_dict()


@pytest.mark.parametrize("grid, solves", [
    # every lane traps before t = 12, so the log-polar phase fails there
    ([0.6, 1.0], 2),
    # the lane at mu*(3) - 1e-12 traps only at t = 13.2, so the Cartesian
    # phase fails
    ([0.6, mu_star(3) - 1e-12, 1.0], 1),
])
def test_sweep_classifies_a_failed_stack_from_its_partial_solve(monkeypatch, grid, solves):
    truth = [(o.k, o.cls) for o in classify_sweep(P3, grid, t_max=12.0)]
    calls = _fail_at_12(monkeypatch)
    outs = classify_sweep(P3, grid, t_max=30.0)
    assert len(calls) == solves
    assert [(o.k, o.cls) for o in outs] == truth
    assert all(o.t_end == 12.0 and o.trajectory is None for o in outs)
    assert all(o.first_nonpositive_H <= 12.0 for o in outs if o.cls == "A")


def test_a_failure_with_no_trajectory_raises(monkeypatch):
    # nothing to classify from: the typed error, with no lone re-solve
    import diracorbits.dissipative as dis

    calls = []

    def fails(field, y0, *args, **kwargs):
        calls.append(None)
        raise NonFiniteState("no step taken")

    monkeypatch.setattr(dis, "integrate", fails)
    for run in (lambda: classify_sweep(P3, [0.6, 1.0]), lambda: shoot(P3, 0.6),
                lambda: boundary_bisect(P3, 0, 0.6, 0.8)):
        calls.clear()
        with pytest.raises(NonFiniteState, match="no step taken"):
            run()
        assert len(calls) == 1


def test_long_sweep_is_one_stacked_solve(monkeypatch):
    # at t_max = 2000 the tail window lies past the coupling's overflow at
    # t = 710.48: the stack's log-polar phase fails there and is classified
    # from its partial solve, one Cartesian and one log-polar solve in all
    import diracorbits.dissipative as dis

    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dis, "integrate", counted)
    outs = classify_sweep(P3, [0.5, 1.0, 2.0], t_max=2000.0)
    assert len(calls) == 2
    assert [(o.k, o.cls, o.first_nonpositive_H) for o in outs] == [
        (0, "A", 0.0), (1, "A", 4.0), (2, "A", 5.0)]


@pytest.mark.parametrize("m,mu,t_max,tol", [
    (3, 10.0, 60.0, Tolerances()),
    (3, 1e3, 1.0, Tolerances()),
    (4, 1e4, 60.0, Tolerances()),
    (6, 1e4, 0.1, Tolerances()),
    (3, 1e3, 1.0, Tolerances(1e-3, 1e-3)),
])
def test_work_bound_stays_below_the_attempts_spent(m, mu, t_max, tol):
    # a budget of exactly the attempts the solve took must pass the bound
    import diracorbits.dissipative as dis

    params = DissipativeParams(m)
    traj = shoot(params, mu, t_max, tol=tol).trajectory
    spent = traj.steps_accepted + traj.steps_rejected
    dis._check_work(params, mu, t_max, replace(tol, max_steps=spent))


def test_mu_too_fast_for_the_step_budget_raises_at_once():
    # (2 mu^2)^(1/2) = 1.4e20 radians per unit time at m = 3
    with pytest.raises(StepLimitExceeded, match="turns about 2.25e"):
        shoot(P3, 1e20)
    with pytest.raises(StepLimitExceeded):
        classify_sweep(P3, [0.5, 1e20])
    with pytest.raises(StepLimitExceeded):
        boundary_bisect(P3, 0, 0.5, 1e20)
    # a horizon too short for many turns is not refused
    assert shoot(P3, 1e20, t_max=1e-300).t_end == 1e-300
