import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracorbits.numerics import (
    QUAD_BLOCK,
    NonConvergence,
    NonFiniteState,
    NoSignChange,
    StepLimitExceeded,
    Tolerances,
    find_root,
    hermite,
    integrate,
    ls_slope,
    quad_chebyshev_endpoint,
    sine_map,
)
from diracorbits import _dop853, numerics
from diracorbits.dissipative import DissipativeParams, hamiltonian_t, time_field
from oracles import tanh_sinh_quad


def test_zero_field_constant():
    traj = integrate(lambda t, u, v: (0.0, 0.0), (1.0, 2.0), np.linspace(0.0, 1.0, 1001))
    assert np.allclose(traj.states, [1.0, 2.0])
    assert traj.t[0] == 0.0 and traj.t[-1] == 1.0


def test_linear_saddle_closed_form():
    traj = integrate(lambda t, u, v: (-u, v), (1.0, 0.0), np.linspace(0.0, 1.0, 1001))
    assert abs(traj.u[-1] - math.exp(-1)) < 1e-9
    assert abs(traj.v[-1]) < 1e-12


def test_integrator_order_on_linear_problem():
    # achieved error should scale with the tolerance: ratio >= 8 for a
    # 16x tolerance ratio on the linear test problem
    def err_at(tol):
        traj = integrate(
            lambda t, u, v: (-u, v),
            (1.0, 1.0),
            np.linspace(0.0, 2.0, 1001),
            tol=Tolerances(abs_tol=tol, rel_tol=tol),
        )
        return max(
            abs(traj.u[-1] - math.exp(-2)), abs(traj.v[-1] - math.exp(2))
        )

    e_coarse = err_at(1.6e-5)
    e_fine = err_at(1e-6)
    assert e_coarse / e_fine >= 8


def test_energy_stamps_match_recomputation():
    # integrate leaves the energy NaN, one per sample; a caller forms it on
    # the sample arrays, and that equals a sample-by-sample recomputation
    def en(t, u, v):
        return u * u + v * v

    traj = integrate(lambda t, u, v: (-v, u), (1.0, 0.0), np.linspace(0.0, 3.0, 1001))
    assert traj.energy.shape == traj.t.shape and np.all(np.isnan(traj.energy))
    stamps = en(traj.t, traj.u, traj.v)
    recomputed = np.array([en(t, s[0], s[1]) for t, s in zip(traj.t, traj.states)])
    assert np.max(np.abs(stamps - recomputed)) <= 1e-12


def test_step_limit_carries_partial_trajectory():
    with pytest.raises(StepLimitExceeded) as exc:
        integrate(
            lambda t, u, v: (v, -u),
            (1.0, 0.0),
            np.linspace(0.0, 100.0, 1001),
            tol=Tolerances(max_steps=10),
        )
    traj = exc.value.trajectory
    assert traj is not None and len(traj) >= 1
    assert traj.terminal_reason == "step_limit"


def test_nonfinite_blowup_detected():
    # u' = u^2 blows up at t = 1 from u(0) = 1
    with pytest.raises(NonFiniteState):
        integrate(lambda t, u, v: (u * u, 0.0), (1.0, 0.0), np.linspace(0.0, 2.0, 1001))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("u0", [0.5, 1.0, 2.0])
def test_blowup_ends_at_closed_form_time(p, u0):
    # u' = u^p from u0 blows up at t* = 1/((p-1) u0^(p-1))
    t_star = 1.0 / ((p - 1) * u0 ** (p - 1))
    with pytest.raises(NonFiniteState) as exc:
        integrate(lambda t, u, v: (u**p, 0.0), (u0, 0.0), np.linspace(0.0, 2 * t_star, 1001))
    traj = exc.value.trajectory
    assert traj.terminal_reason == "non_finite"
    assert abs(traj.t[-1] - t_star) <= 1e-3 * t_star


def test_step_ends_are_kept_in_under_64_bytes_each():
    # the failure path's step ends live in one array that doubles when full,
    # not in one array per step; a failure past several doublings carries
    # every end, each with its own time
    args = (lambda t, u, v: (v, -u), (1.0, 0.0), np.linspace(0.0, 1e3, 11))
    tracemalloc.start()
    try:
        traj = integrate(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * traj.steps_accepted
    with pytest.raises(StepLimitExceeded) as exc:
        integrate(*args, tol=Tolerances(max_steps=1000))
    part = exc.value.trajectory
    formed = int(part.t[-1] // 100) + 1
    assert part.steps_accepted > 4 * 64 and len(part) == formed + part.steps_accepted
    assert np.allclose(part.states[:, 0], np.cos(part.t), atol=1e-6)
    assert np.allclose(part.states[:, 1], -np.sin(part.t), atol=1e-6)


@pytest.mark.parametrize(
    "y0, t_span",
    [((1.0, 0.0), [0.0, math.inf]), ((1.0, 0.0), [math.nan, 1.0]),
     ((math.nan, 0.0), [0.0, 1.0]), ((1.0, math.inf), [0.0, 1.0]),
     # sample times: one time, decreasing times, a repeated time
     ((1.0, 0.0), [0.0]), ((1.0, 0.0), [1.0, 0.5, 0.0]), ((1.0, 0.0), [0.0, 0.5, 0.5, 1.0])],
)
def test_nonfinite_input_rejected(y0, t_span):
    with pytest.raises(ValueError):
        integrate(lambda t, u, v: (v, -u), y0, t_span)


def test_stop_ends_at_first_step_end_where_it_holds():
    # saddle lanes v = v0 e^t; "every lane has v >= 1" stays true once true
    y0 = np.array([[1.0, 1.0, 1.0], [0.1, 0.2, 0.4]])
    args = (lambda t, u, v: (-u, v), y0, np.linspace(0.0, 5.0, 501))
    ends = []

    def record(t, y, dense):
        ends.append((t, y.copy()))
        return False

    full = integrate(*args, stop=record)
    seen = []

    def stop(t, y, dense):
        assert y.shape == (2, 3)
        seen.append((t, y.copy()))
        return bool(np.all(y[1] >= 1.0))

    cut = integrate(*args, stop=stop)
    first = next(i for i, (t, y) in enumerate(ends) if np.all(y[1] >= 1.0))
    t_stop = ends[first][0]
    n = int(np.searchsorted(full.t, t_stop, side="right"))
    assert cut.terminal_reason == "stopped"
    assert np.array_equal(cut.t, full.t[:n]) and cut.t[-1] <= t_stop < full.t[n]
    assert np.array_equal(cut.states, full.states[:n])
    assert cut.steps_accepted == first + 1 < full.steps_accepted
    # every accepted step reaches stop exactly once, in time order, up to the stop
    assert len(seen) == first + 1
    assert all(a == c and np.array_equal(b, d) for (a, b), (c, d) in zip(seen, ends))


def test_stop_that_never_fires_is_bit_identical():
    args = (lambda t, u, v: (-v, u), np.array([[1.0, 0.5], [0.0, 0.2]]),
            np.linspace(0.0, 7.0, 1001))
    plain = integrate(*args)
    never = integrate(*args, stop=lambda t, y, dense: False)
    for name in ("t", "states"):
        assert np.array_equal(getattr(plain, name), getattr(never, name))
    assert np.all(np.isnan(plain.energy)) and np.all(np.isnan(never.energy))
    assert (plain.steps_accepted, plain.steps_rejected, plain.terminal_reason) == (
        never.steps_accepted, never.steps_rejected, never.terminal_reason)
    assert never.terminal_reason == "completed"


def test_dense_gives_the_stored_samples_and_shares_their_field_evaluations():
    # dense(ts) at a step's own sample times gives the doubles integrate
    # stores there, and however often the hook calls it, a step whose samples
    # formed the interpolant pays no more field evaluations
    grid = np.linspace(0.0, 6.0, 2001)
    y0 = np.array([[1.0, 0.3], [0.0, -0.2]])
    formed = {}
    t_old = [0.0]

    def reread(t, y, dense):
        ts = grid[(grid > t_old[0]) & (grid <= t) & (grid < grid[-1])]
        t_old[0] = t
        for _ in range(2 if ts.size else 0):
            rows = dense(ts)
            assert rows.shape == (ts.size, 2, 2)
            formed.update(zip(ts.tolist(), rows))
        return False

    def twice(t, y, dense):
        dense(np.array([t]))
        dense(np.array([t]))
        return False

    field, plain_calls = _counted(lambda t, u, v: (-v - 0.1 * u, u))
    plain = integrate(field, y0, grid)
    field, hook_calls = _counted(lambda t, u, v: (-v - 0.1 * u, u))
    integrate(field, y0, grid, stop=reread)
    assert len(hook_calls) == len(plain_calls)
    assert len(formed) == len(grid) - 2
    for t, row in zip(plain.t[1:-1], plain.states[1:-1]):
        assert np.array_equal(formed[t], row)
    # with no sample in a step, its first dense call pays 3 evaluations, once
    field, calls = _counted(lambda t, u, v: (-v - 0.1 * u, u))
    plain = integrate(field, y0, grid[[0, -1]])
    field, again = _counted(lambda t, u, v: (-v - 0.1 * u, u))
    integrate(field, y0, grid[[0, -1]], stop=twice)
    assert len(again) - len(calls) == 3 * plain.steps_accepted


def _counted(field):
    """``field`` and a list whose length is the number of calls made of it."""
    calls = []

    def counted(t, u, v):
        calls.append(t)
        return field(t, u, v)

    return counted, calls


@pytest.mark.parametrize("first", [1, 2, 37, 400, 999, 1000])
def test_first_sample_forms_the_full_runs_rows_from_it(first):
    # stepping never reads the dense output: a run on the initial time and
    # the grid from ``first`` on takes the same steps, and its samples are
    # the doubles of the run on the whole grid
    def en(t, u, v):
        return u * u - v * v

    def field(t, u, v):
        return v, math.cosh(t) ** -0.5 * u

    y0, grid = np.array([[1.0, 0.3], [0.0, -0.2]]), np.linspace(0.0, 4.0, 1001)
    rows = [0, *range(first, len(grid))]
    full = integrate(field, y0, grid)
    part = integrate(field, y0, grid[rows])
    for name in ("t", "states"):
        assert np.array_equal(getattr(part, name), getattr(full, name)[rows])
    assert np.array_equal(en(part.t[:, None], part.states[:, 0], part.states[:, 1]),
                          en(full.t[:, None], full.states[:, 0], full.states[:, 1])[rows])
    assert (part.steps_accepted, part.steps_rejected, part.terminal_reason) == (
        full.steps_accepted, full.steps_rejected, full.terminal_reason)


@pytest.mark.parametrize("first", [2, 150, 600, 1000])
def test_first_sample_saves_the_dense_output_of_each_skipped_step(first):
    # a step with no sample time in it skips its 3 dense-output stages: on
    # the grid less samples 1 .. first - 1, those are the steps whose fills
    # in the whole grid's run all lie before grid[first]; a hook that never
    # calls dense costs nothing
    ends = [0.0]

    def record(t, y, dense):
        ends.append(t)
        return False

    grid = np.linspace(0.0, 30.0, 1001)
    field, full_calls = _counted(lambda t, u, v: (-v - 0.1 * u, u))
    integrate(field, (1.0, 0.0), grid, stop=record)
    field, part_calls = _counted(lambda t, u, v: (-v - 0.1 * u, u))
    integrate(field, (1.0, 0.0), grid[[0, *range(first, len(grid))]])
    # the dense samples of the step ending at ends[i] are
    # grid[reached[i-1]:reached[i]]; the last sample is the last step's end
    reached = np.minimum(np.searchsorted(grid, ends, side="right"), len(grid) - 1)
    skipped = int(np.sum((reached[1:] > reached[:-1]) & (reached[1:] <= first)))
    assert skipped > 0
    assert len(full_calls) - len(part_calls) == 3 * skipped


def test_blowup_before_the_first_sample_keeps_only_formed_states():
    # u' = u^2 from u = 1 blows up at t = 1; the first sample after the
    # initial one is at t = 1.5, so the partial trajectory holds the initial
    # state and the step ends, each a state of the full run at the same time
    field, grid = (lambda t, u, v: (u * u, 0.0)), np.linspace(0.0, 2.0, 201)
    with pytest.raises(NonFiniteState) as full:
        integrate(field, (1.0, 0.0), grid)
    with pytest.raises(NonFiniteState) as part:
        integrate(field, (1.0, 0.0), grid[[0, *range(150, len(grid))]])
    full, part = full.value.trajectory, part.value.trajectory
    assert 1 < len(part) < len(full)
    assert np.all(np.isfinite(part.states)) and part.t[-1] < 1.5
    at = np.searchsorted(full.t, part.t)
    assert np.array_equal(full.t[at], part.t)
    assert np.array_equal(full.states[at], part.states)


# ---------------------------------------------------------------------------
# parity with scipy's DOP853, stepped one step at a time as integrate steps


def _scipy_dop853(field, y0, t_grid, tol=Tolerances(), stop=None):
    """Times, samples, step counts and step ends of scipy.integrate.DOP853
    driven step by step with dense output at the times ``t_grid``, and a
    per-step ``stop`` as ``integrate`` calls it."""
    from scipy.integrate import DOP853

    y0 = np.asarray(y0, dtype=float)
    shape = y0.shape

    def rhs(t, y):
        f = np.empty(shape)
        f[0], f[1] = field(t, *(y.reshape(shape) if y0.ndim == 2 else y.tolist()))
        return f.ravel()

    n_samples = len(t_grid)
    states = np.empty((n_samples,) + shape)
    states[0] = y0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the rtol floor warns
        solver = DOP853(rhs, t_grid[0], y0.ravel(), t_grid[-1], rtol=tol.rel_tol,
                        atol=tol.abs_tol)
    nfev0, filled, accepted, dense, n_out = solver.nfev, 1, 0, 0, n_samples
    ends = []

    def interpolant(ts):
        nonlocal dense
        dense += 1
        return solver.dense_output()(ts).T.reshape((-1,) + shape)

    while solver.status == "running":
        solver.step()
        assert solver.status != "failed"
        accepted += 1
        ends.append((solver.t, solver.y.copy()))
        if solver.status == "finished":
            end = n_samples - 1
            states[-1] = solver.y.reshape(shape)
        else:
            end = int(np.searchsorted(t_grid, solver.t, side="right"))
        if end > filled:
            states[filled:end] = interpolant(t_grid[filled:end])
        filled = end
        if stop is not None and stop(solver.t, solver.y.reshape(shape), interpolant):
            n_out = n_samples if solver.status == "finished" else end
            break
    # 12 field evaluations per step attempt, 3 per dense output
    attempts = (solver.nfev - nfev0 - 3 * dense) // 12
    return t_grid[:n_out], states[:n_out], accepted, attempts - accepted, ends


def _assert_same_as_scipy(field, y0, t_eval, stop=None, **kw):
    ends = []

    def record(t, y, dense):
        ends.append((t, y.ravel().copy()))
        return stop is not None and stop(t, y, dense)

    traj = integrate(field, y0, t_eval, stop=record, **kw)
    t, states, accepted, rejected, scipy_ends = _scipy_dop853(field, y0, t_eval, stop=stop, **kw)
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.states, states)
    assert (traj.steps_accepted, traj.steps_rejected) == (accepted, rejected)
    # every step end, to the bit
    assert len(ends) == len(scipy_ends)
    assert all(a == c and np.array_equal(b, d) for (a, b), (c, d) in zip(ends, scipy_ends))
    return traj


def test_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    for name in ("A", "B", "C", "D", "E3", "E5"):
        assert np.array_equal(getattr(_dop853, name), getattr(ref, name)), name


@pytest.mark.parametrize("m", [3, 4, 5])
def test_one_lane_matches_scipy_dop853_bit_for_bit(m):
    params = DissipativeParams(m)
    for mu in (0.3, 0.6, 7.0):
        _assert_same_as_scipy(time_field(params), (mu, mu), np.linspace(0.0, 60.0, 4001))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_stacked_lanes_match_scipy_dop853_bit_for_bit(m):
    mus = np.geomspace(0.2, 10.0, 15)
    _assert_same_as_scipy(time_field(DissipativeParams(m)), np.array([mus, mus]),
                          np.linspace(0.0, 60.0, 4001))


def test_stop_run_matches_scipy_dop853_bit_for_bit():
    params = DissipativeParams(3)
    en = partial(hamiltonian_t, params)
    mus = np.geomspace(0.2, 10.0, 15)
    traj = _assert_same_as_scipy(time_field(params), np.array([mus, mus]),
                                 np.linspace(0.0, 60.0, 4001),
                                 stop=lambda t, y, dense: bool(np.all(en(t, y[0], y[1]) <= 0.0)))
    assert traj.terminal_reason == "stopped" and traj.t[-1] < 60.0


def test_rtol_below_floor_matches_scipy_dop853_bit_for_bit():
    # scipy raises rtol to 100 eps; integrate floors it the same way, silently
    tol = Tolerances(abs_tol=1e-14, rel_tol=1e-16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_as_scipy(time_field(DissipativeParams(4)), (0.8, 0.8),
                              np.linspace(0.0, 5.0, 501), tol=tol)
    floor = Tolerances(abs_tol=1e-14, rel_tol=100 * np.finfo(float).eps)
    grid = np.linspace(0.0, 3.0, 1001)
    low = integrate(lambda t, u, v: (-v, u), (1.0, 0.0), grid, tol=tol)
    at = integrate(lambda t, u, v: (-v, u), (1.0, 0.0), grid, tol=floor)
    assert np.array_equal(low.states, at.states)


def test_find_root_sqrt2():
    x = find_root(lambda x: x * x - 2, 1.0, 2.0, tol=1e-12)
    assert abs(x - math.sqrt(2)) < 1e-12


def test_find_root_no_sign_change():
    with pytest.raises(NoSignChange):
        find_root(lambda x: x * x + 1, -1.0, 1.0)


def test_find_root_out_of_steps_raises():
    with pytest.raises(NonConvergence):
        find_root(lambda x: x ** 3 - 2, 0.0, 2.0, max_iter=2)


@pytest.mark.parametrize("a, b", [(-1e300, 1e300), (1e300, -1e300), (-1e300, 3.5), (2.9, 1e300),
                                  (-1.7e308, 1.7e308)])
def test_find_root_in_a_bracket_of_very_unequal_ends(a, b):
    # a step x1 + t (x2 - x1) from the far end rounds the near end's digits
    # away, and x2 - x1 overflows past 1e308; steps from the nearer end
    # settle in a few calls, with no warning
    calls = []

    def f(x):
        calls.append(x)
        return x - 3.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(find_root(f, a, b) - 3.0) <= 1e-12
    assert len(calls) <= 10 and all(min(a, b) <= x <= max(a, b) for x in calls)


@given(
    a=st.floats(-10, 9.0),
    width=st.floats(0.5, 10),
    shift=st.floats(0.1, 0.9),
)
@settings(max_examples=50, deadline=None)
def test_find_root_stays_in_bracket(a, width, shift):
    b = a + width
    root = a + shift * width

    def f(x):
        return (x - root) * (1 + abs(x))

    x = find_root(f, a, b)
    assert a <= x <= b
    assert abs(x - root) < 1e-9


def _quad_one(g, **kw):
    """The one-lane quadrature of g(tau)."""
    return float(quad_chebyshev_endpoint(lambda tau, rows: g(tau)[None], 1, **kw)[0])


def test_chebyshev_weight_integrals():
    assert abs(_quad_one(lambda t: np.ones_like(t)) - math.pi) < 1e-13
    assert abs(_quad_one(lambda t: t) - math.pi / 2) < 1e-13
    assert abs(_quad_one(lambda t: t * (1 - t)) - math.pi / 8) < 1e-13


@given(coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_chebyshev_polynomial_exactness(coeffs):
    # closed form: int_0^1 tau^n / sqrt(tau(1-tau)) dtau = B(n+1/2, 1/2)
    exact = sum(
        c * math.gamma(n + 0.5) * math.gamma(0.5) / math.gamma(n + 1)
        for n, c in enumerate(coeffs)
    )

    def g(tau):
        return sum(c * tau**n for n, c in enumerate(coeffs))

    got = _quad_one(g, tol=1e-13)
    assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


def test_chebyshev_vs_tanh_sinh_oracle():
    def g(tau):
        return np.exp(-tau) / (1 + tau)

    got = _quad_one(g, tol=1e-13)
    ref = tanh_sinh_quad(
        None,
        0.0,
        1.0,
        f_pair=lambda da, db: math.exp(-da) / ((1 + da) * math.sqrt(da * db)),
    )
    assert abs(got - ref) < 1e-10


def _lane_integrand(tau, rows):
    # lane j integrates exp(-j tau) / (1 + tau)
    return np.exp(-np.outer(rows, tau)) / (1 + tau)


def test_chebyshev_lanes_match_scalar_calls_bit_for_bit(monkeypatch):
    lanes = quad_chebyshev_endpoint(_lane_integrand, 40, tol=1e-13)
    single = [_quad_one(lambda tau, j=j: np.exp(-j * tau) / (1 + tau), tol=1e-13)
              for j in range(40)]
    assert lanes.tolist() == single
    # the block cap splits the calls, not the values
    monkeypatch.setattr(numerics, "QUAD_BLOCK", 64)
    small = quad_chebyshev_endpoint(_lane_integrand, 40, tol=1e-13)
    assert small.tolist() == single


def test_chebyshev_lane_past_the_block_is_summed_in_chunks(monkeypatch):
    # sqrt(tau) has an unbounded derivative at 0, so its lane (exact value 2)
    # doubles far past QUAD_BLOCK nodes; no call may hold more than the block
    sizes = []

    def g(tau, rows):
        sizes.append(rows.size * tau.size)
        return np.where(rows[:, None] == 1, np.sqrt(tau), np.exp(-tau))

    got = quad_chebyshev_endpoint(g, 2)
    assert sum(sizes) > 1 << 18  # lane 1 went past 2^16 nodes
    assert max(sizes) <= QUAD_BLOCK
    assert abs(got[1] - 2.0) < 1e-11
    # the chunks change the calls, not the values
    monkeypatch.setattr(numerics, "QUAD_BLOCK", 1 << 30)
    assert got.tolist() == quad_chebyshev_endpoint(g, 2).tolist()


def test_chebyshev_lane_that_never_settles_raises():
    def g(tau, rows):
        vals = np.ones((rows.size, tau.size))
        vals[rows == 2] = np.cos(1e4 * tau)  # unresolved below ~1e4 nodes
        return vals

    with pytest.raises(NonConvergence):
        quad_chebyshev_endpoint(g, 4, max_nodes=256)


def test_chebyshev_nonfinite_lane_raises_at_once():
    calls = []

    def g(tau, rows):
        calls.append(tau.size)
        return np.where(rows[:, None] == 1, np.nan, 1.0) + 0 * tau

    with pytest.raises(NonConvergence):
        quad_chebyshev_endpoint(g, 3)
    assert calls == [16]


def test_sine_map_keeps_relative_digits_near_zero():
    # theta = phi - a sin(phi) against 40 digits, through the Taylor branch
    # (phi < 1) and the direct one, with a = 0, 1 - 1e-3 and 1 - 1e-9
    import mpmath as mp

    phi = np.concatenate([np.geomspace(1e-9, 0.999, 40), np.linspace(1.0, math.pi, 20)])
    for slope in (1.0, 1e-3, 1e-9):
        theta, dtheta = sine_map(phi, slope)
        with mp.workdps(40):
            a = 1 - mp.mpf(slope)
            for x, th, dth in zip(phi, theta, dtheta):
                x = mp.mpf(float(x))
                ref, dref = x - a * mp.sin(x), 1 - a * mp.cos(x)
                assert abs(th - ref) <= 4 * np.finfo(float).eps * ref, (slope, x)
                assert abs(dth - dref) <= 4 * np.finfo(float).eps * dref, (slope, x)
    ends = sine_map(np.array([0.0, math.pi]), 1e-3)[0]
    assert ends[0] == 0.0 and abs(ends[1] - math.pi) <= 4e-16 * math.pi


def test_mapped_lanes_match_one_lane_calls_bit_for_bit():
    # a lane's map is its own slope, so a lane's value does not depend on
    # the other lanes; every slope integrates the same smooth integral
    slopes = np.geomspace(1e-4, 1.0, 12)
    lanes = quad_chebyshev_endpoint(lambda tau, rows: np.exp(-rows[:, None] * tau) / (1 + tau),
                                    12, tol=1e-13, slope=slopes)
    single = [float(quad_chebyshev_endpoint(
        lambda tau, rows, j=j: np.exp(-j * tau) / (1 + tau), 1, tol=1e-13,
        slope=slopes[j:j + 1])[0]) for j in range(12)]
    assert lanes.tolist() == single
    plain = quad_chebyshev_endpoint(_lane_integrand, 12, tol=1e-13)
    assert np.allclose(lanes, plain, rtol=1e-13, atol=0)


def test_hermite_reproduces_a_cubic_and_its_knots():
    # a cubic with its exact slopes is its own Hermite interpolant, on one
    # curve and on two columns at once; a query at a knot gives its value
    x = np.array([-1.0, -0.3, 0.2, 0.25, 1.1, 2.0])
    y = np.column_stack([x ** 3 - 2 * x + 0.5, 0.3 - x * x])
    dydx = np.column_stack([3 * x * x - 2, -2 * x])
    xq = np.linspace(-1.0, 2.0, 97)
    exact = np.column_stack([xq ** 3 - 2 * xq + 0.5, 0.3 - xq * xq])
    got = hermite(x, y, dydx, xq)
    assert got.shape == (97, 2)
    assert np.allclose(got, exact, rtol=0, atol=1e-14)
    assert np.array_equal(hermite(x, y[:, 0], dydx[:, 0], xq), got[:, 0])
    assert np.allclose(hermite(x, y, dydx, x), y, rtol=4 * np.finfo(float).eps, atol=0)
    assert hermite(x, y[:, 1], dydx[:, 1], 0.25) == pytest.approx(y[3, 1], rel=1e-15)


def test_ls_slope_matches_polyfit_and_needs_spread_x():
    x = np.linspace(0.0, 5.0, 50)
    y = 3.0 - 2.5 * x + 0.1 * np.sin(7.0 * x)
    assert abs(ls_slope(x, y) - np.polyfit(x, y, 1)[0]) <= 1e-13
    # times within float spacings of 1e-300: var(x) underflows to 0
    assert ls_slope(np.linspace(0.0, 1e-300, 50), y) is None
    assert ls_slope(np.full(50, 2.0), y) is None
    assert ls_slope(np.array([0.0, 1e300, -1e300]), y[:3]) is None


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(max_steps=0)


@pytest.mark.parametrize("kwargs", [
    {"abs_tol": math.nan}, {"rel_tol": math.nan}, {"abs_tol": math.inf},
    {"abs_tol": math.inf, "rel_tol": math.inf}, {"max_steps": 1e6}, {"max_steps": 10.5},
    {"max_steps": math.inf}, {"max_steps": True}])
def test_tolerances_refuse_a_tolerance_not_finite_or_a_step_count_not_integer(kwargs):
    # a NaN abs_tol made shoot's first step NaN and rejected it forever; an
    # infinite pair switched the error control off (class A in 18 steps)
    with pytest.raises(ValueError):
        Tolerances(**kwargs)
