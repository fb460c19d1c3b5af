"""Shared numeric kernels.

DOP853 integration of planar fields, one state or many lanes at once (a
numpy port that steps exactly as scipy's DOP853), Chandrupatla's
bracketed root finding over many brackets at once, closed-form
least-squares slopes, Gauss-Chebyshev quadrature for integrands
carrying an inverse-square-root singularity at both endpoints of [0, 1],
many lanes at once, and piecewise cubic Hermite interpolation. numpy is
the only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _dop853

__all__ = [
    "Tolerances",
    "Trajectory",
    "IntegrationError",
    "StepLimitExceeded",
    "NonFiniteState",
    "NoSignChange",
    "NonConvergence",
    "integrate",
    "bracketed_roots",
    "find_root",
    "quad_chebyshev_endpoint",
    "sine_map",
    "hermite",
    "ls_slope",
]

# (lane, node) pairs per integrand call in a many-lane quadrature; caps its memory
QUAD_BLOCK = 1 << 14
# nodes of a quadrature's first estimate
QUAD_MIN_NODES = 16
EPS = np.finfo(float).eps
# Taylor coefficients of phi - sin(phi), the phi^19 term first: the phi^21
# term left out is below 1e-19 of the sum on phi < 1
_PHI_MINUS_SIN = tuple((-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(9, 0, -1))
# stage nodes as Python floats and the rows A[s, :s] of the DOP853 tableau
_C = _dop853.C.tolist()
_A_ROWS = [_dop853.A[s, :s] for s in range(_dop853.N_STAGES_EXTENDED)]

PlanarField = Callable[[float, float, float], tuple[float, float]]
DenseFn = Callable[[np.ndarray], np.ndarray]
StopFn = Callable[[float, np.ndarray, DenseFn], bool]


class IntegrationError(RuntimeError):
    """Base class for integrator failures; carries the partial trajectory."""

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


class StepLimitExceeded(IntegrationError):
    pass


class NonFiniteState(IntegrationError):
    pass


class NoSignChange(ValueError):
    pass


class NonConvergence(RuntimeError):
    pass


@dataclass(frozen=True)
class Tolerances:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        # a NaN tolerance makes a NaN first step that is rejected forever, and
        # an infinite one switches the error control off
        tols = (self.abs_tol, self.rel_tol)
        if not all(math.isfinite(x) and x >= 0 for x in tols) or sum(tols) <= 0:
            raise ValueError("need finite abs_tol, rel_tol >= 0 with abs_tol + rel_tol > 0; "
                             f"got {self.abs_tol!r} and {self.rel_tol!r}")
        steps = self.max_steps
        if isinstance(steps, bool) or not (isinstance(steps, (int, np.integer)) and steps > 0):
            raise ValueError(f"max_steps must be a positive integer, got {steps!r}")


@dataclass
class Trajectory:
    """Solution of a planar ODE at the sample times ``t``.

    ``states`` has shape (n, 2), or (n, 2, lanes) for a stacked solve, so
    ``u`` and ``v`` have shape (n,) or (n, lanes); ``energy`` holds the
    governing Hamiltonian at each sample where the caller forms it
    (``integrate`` leaves it NaN).
    """

    t: np.ndarray
    states: np.ndarray
    energy: np.ndarray
    steps_accepted: int = 0
    steps_rejected: int = 0
    terminal_reason: str = "completed"

    @property
    def u(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def v(self) -> np.ndarray:
        return self.states[:, 1]

    def __len__(self) -> int:
        return len(self.t)


def integrate(
    field: PlanarField,
    y0: Sequence[float],
    t_eval: Sequence[float],
    tol: Tolerances = Tolerances(),
    stop: StopFn | None = None,
) -> Trajectory:
    """Integrate a planar field with DOP853 (Dormand-Prince 8(5,3)).

    The method is Hairer, Norsett and Wanner's (*Solving ODEs I*, Sec. II.10)
    with scipy's step control, so the steps and samples are the doubles of
    ``scipy.integrate.DOP853`` stepped one step at a time: the step error is
    the 5th/3rd-order blend in the RMS norm over all components with
    rtol = max(``tol.rel_tol``, 100 eps) and atol = ``tol.abs_tol``, the
    step factor is 0.9 err^(-1/8) within [0.2, 10] (at most 1 right after a
    rejection), and the first step follows Hairer's rule. The tableau is in
    ``diracorbits._dop853``.

    ``y0`` is one state (u, v) or a (2, n) array of n independent lanes,
    solved together as one 2n-dimensional system; ``field(t, u, v)`` then
    receives u and v as arrays of length n, or Python floats when n is 1.
    The solve runs from ``t_eval[0]`` to ``t_eval[-1]``, and the samples
    are formed at exactly the times in ``t_eval`` (at least 2, finite and
    increasing), from the 7th-order dense output of each step; that costs
    3 more field evaluations per step that reaches a new sample, so a step
    with no sample in it builds no dense output. Stepping never reads the
    dense output, so the steps, and the sample at each time, do not depend
    on the other times. ``Trajectory.energy`` is left NaN.

    ``stop(t, y, dense)``, when given, is called after every accepted step,
    the last one included: t is the step's end, y the state there, shaped
    like y0, and ``dense(ts)`` the step's interpolant at times ts inside the
    step, shaped (len(ts),) + y0.shape and valid during the call only. The
    interpolant's 3 field evaluations are paid at most once per step, and
    the step's own samples share them. A true return ends the solve: the
    trajectory holds the samples up to t and carries
    ``terminal_reason="stopped"``.

    Raises StepLimitExceeded once ``tol.max_steps`` step attempts are spent
    (checked between steps), and NonFiniteState when the state turns
    non-finite or the step falls below 10 float spacings of t (as at a
    finite-time blow-up); both carry the samples formed so far merged with
    the ends of the accepted steps.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if t_eval.ndim != 1 or t_eval.size < 2:
        raise ValueError("t_eval must hold at least 2 times")
    if not (np.all(np.isfinite(t_eval)) and np.all(np.isfinite(y0))):
        raise ValueError("t_eval and y0 must be finite")
    if not np.all(t_eval[1:] > t_eval[:-1]):
        raise ValueError("t_eval must be increasing")
    if y0.ndim not in (1, 2) or y0.shape[0] != 2:
        raise ValueError("y0 must have shape (2,) or (2, n)")
    t0, t1 = float(t_eval[0]), float(t_eval[-1])
    shape = y0.shape
    rtol, atol = max(tol.rel_tol, 100 * EPS), np.asarray(tol.abs_tol)

    lanes = y0[0].size

    def rhs(t, y, out):
        """The field at the flat state y, written into the flat array ``out``."""
        try:
            # one lane runs on Python floats, several on numpy arrays
            if lanes == 1:
                out[0], out[1] = field(t, *y.tolist())
            else:
                out[:lanes], out[lanes:] = field(t, y[:lanes], y[lanes:])
        except OverflowError:
            out[:] = np.inf

    states = np.empty((len(t_eval),) + shape)
    states[0] = y0
    # one row per sample, a view the dense output writes into
    flat = states.reshape(len(t_eval), -1)
    filled = 1  # the next sample a step reaches
    attempts = accepted = 0
    # row i: t and the flat state at the end of accepted step i + 1, kept
    # for the failure path; the array doubles in place when full
    ends = np.empty((64, 1 + y0.size))

    def trajectory(t, ys, reason):
        return Trajectory(t, ys, np.full(ys.shape[:1] + shape[1:], np.nan), accepted,
                          attempts - accepted, reason)

    def partial(reason: str) -> Trajectory:
        # the formed samples merged with the accepted step ends, so sparse
        # times still show the path to the failure
        t = np.concatenate([t_eval[:filled], ends[:accepted, 0]])
        ys = np.concatenate([states[:filled], ends[:accepted, 1:].reshape((-1,) + shape)])
        t, first = np.unique(t, return_index=True)
        return trajectory(t, ys[first], reason)

    with np.errstate(over="ignore", invalid="ignore"):
        t, y = t0, y0.ravel()
        f = np.empty(y.size)
        rhs(t, y, f)
        if not np.all(np.isfinite(f)):
            raise NonFiniteState("field non-finite at initial state")
        h_abs = _initial_step(rhs, t, y, f, t1 - t0, rtol, atol)
        # rows 0-12: the step's stages and the field at its end; 13-15: dense
        # output; KT[s] is the stages before s as columns; buf a stage's state
        K = np.empty((_dop853.N_STAGES_EXTENDED, y.size))
        KT = [K[:s].T for s in range(_dop853.N_STAGES_EXTENDED)]
        buf = np.empty(y.size)
        while True:
            if attempts >= tol.max_steps:
                raise StepLimitExceeded("max_steps exceeded", partial("step_limit"))
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise NonFiniteState("step size fell below 10 float spacings of t",
                                         partial("non_finite"))
                t_new = min(t + h_abs, t1)
                h = t_new - t
                h_abs = h
                y_new = _rk_step(rhs, t, y, f, h, K, KT, buf)
                attempts += 1
                err = _error_norm(KT, h, atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol)
                if err < 1:
                    factor = 10 if err == 0 else min(10, 0.9 * err ** (-1 / 8))
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(0.2, 0.9 * err ** (-1 / 8))
                rejected = True
            if not np.isfinite(y_new).all():
                raise NonFiniteState("state or field became non-finite", partial("non_finite"))
            t_old, y_old, f_old = t, y, f
            t, y, f = t_new, y_new, K[_dop853.N_STAGES].copy()
            if accepted == len(ends):
                # no view of ends is alive between steps
                ends.resize((2 * accepted, ends.shape[1]), refcheck=False)
            ends[accepted, 0] = t
            ends[accepted, 1:] = y
            accepted += 1
            if t >= t1:
                end = len(t_eval) - 1
                states[-1] = y.reshape(shape)
            else:
                end = int(np.searchsorted(t_eval, t, side="right"))
            coef = None  # the step's interpolant, formed on first use

            def dense(ts, out=None):
                """The step's interpolant at ts, by Horner's rule, written into ``out``."""
                nonlocal coef
                if coef is None:
                    coef = _interpolant(rhs, t_old, y_old, f_old, h, y, f, K, KT, buf)
                x = ((np.asarray(ts, dtype=float) - t_old) / h)[:, None]
                x1 = 1 - x
                out = np.empty((len(x), y.size)) if out is None else out
                out.fill(0.0)
                for i, c in enumerate(coef[::-1]):
                    out += c
                    out *= x if i % 2 == 0 else x1
                out += y_old
                return out.reshape((-1,) + shape)

            if end > filled:
                dense(t_eval[filled:end], flat[filled:end])
            filled = end
            if stop is not None and stop(t, y.reshape(shape), dense):
                n = len(t_eval) if t >= t1 else end
                return trajectory(t_eval[:n], states[:n], "stopped")
            if t >= t1:
                return trajectory(t_eval, states, "completed")


def _initial_step(rhs, t0, y0, f0, interval, rtol, atol) -> float:
    """Hairer's first-step rule (*Solving ODEs I*, Sec. II.4) for error order 7."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = np.empty(y0.size)
    rhs(t0 + h0, y0 + h0 * f0, f1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _rk_step(rhs, t, y, f, h, K, KT, buf):
    """One DOP853 step of size h; fills K[:13] with the stages and f(t + h)."""
    K[0] = f
    for s in range(1, _dop853.N_STAGES):
        # the stage's state y + h * (the stages before s weighted by row s of A)
        np.dot(KT[s], _A_ROWS[s], out=buf)
        buf *= h
        buf += y
        rhs(t + _C[s] * h, buf, K[s])
    y_new = np.dot(KT[_dop853.N_STAGES], _dop853.B)
    y_new *= h
    y_new += y
    rhs(t + h, y_new, K[_dop853.N_STAGES])
    return y_new


def _error_norm(KT, h, scale) -> float:
    """The step's error relative to ``scale``: the 5th-order estimate, damped
    by the 3rd where the two disagree (Hairer's DOP853)."""
    stages = KT[_dop853.N_STAGES + 1]
    err5 = np.dot(stages, _dop853.E5)
    err5 /= scale
    err3 = np.dot(stages, _dop853.E3)
    err3 /= scale
    # sqrt(e @ e) is np.linalg.norm(e) to the bit
    err5_2, err3_2 = math.sqrt(err5 @ err5) ** 2, math.sqrt(err3 @ err3) ** 2
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    return abs(h) * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * scale.size)


def _interpolant(rhs, t_old, y_old, f_old, h, y, f, K, KT, buf) -> np.ndarray:
    """The coefficients of the step's 7th-order interpolant; fills K rows 13-15."""
    for s in range(_dop853.N_STAGES + 1, _dop853.N_STAGES_EXTENDED):
        np.dot(KT[s], _A_ROWS[s], out=buf)
        buf *= h
        buf += y_old
        rhs(t_old + _C[s] * h, buf, K[s])
    F = np.empty((_dop853.INTERPOLATOR_POWER, y.size))
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(_dop853.D, K)
    return F


def bracketed_roots(f, x1, x2, f1, f2, xtol: float, max_steps: int) -> np.ndarray:
    """Roots of f in the sign-changing brackets [x1, x2], all brackets at once.

    f1, f2 are f at the bracket ends, and ``f(x, live)`` returns f at the
    points x of the brackets whose indices are ``live``. Chandrupatla's
    method (1997, Adv. Eng. Softw. 28): inverse quadratic interpolation
    through the bracket ends and the last discarded point when it is safe,
    bisection otherwise, with the step kept a tolerance away from the ends
    and measured from the nearer one.
    Every step is one call of f for all live brackets; a bracket ends once
    it is narrower than xtol plus 4 ulp of x, or once f is exactly 0 there,
    and gives its end with the smaller |f|. Raises NonConvergence if a
    bracket is still live after max_steps steps.
    """
    n = x1.size
    live = np.arange(n)
    x3 = f3 = None
    root = np.empty(n)
    tiny = np.finfo(float).tiny
    for step in range(max_steps + 1):
        near = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(near, x1, x2), np.where(near, f1, f2)
        tol = xtol + 4 * EPS * np.abs(xm)
        with np.errstate(over="ignore"):
            # a width past the float range is inf, which is not done
            done = (np.abs(fm) <= tiny) | (np.abs(x2 - x1) < tol)
        root[live[done]] = xm[done]
        if done.all():
            return root
        if step == max_steps:
            break
        keep = ~done
        live, x1, f1, x2, f2, tol = (a[keep] for a in (live, x1, f1, x2, f2, tol))
        x = 0.5 * x1 + 0.5 * x2
        if x3 is not None:
            x3, f3 = x3[keep], f3[keep]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                quad = (1 - np.sqrt(1 - xi) < phi) & (phi < np.sqrt(xi))
                # the interpolant's Lagrange weights, applied as an offset
                # from the nearer end: an offset from the far one would
                # round the near end's digits away when |x2| << |x1|
                l1 = f2 / (f1 - f2) * f3 / (f1 - f3)
                l2 = f1 / (f2 - f1) * f3 / (f2 - f3)
                l3 = f1 / (f3 - f1) * f2 / (f3 - f2)
                d1 = l2 * (x2 - x1) + l3 * (x3 - x1)
                d2 = l1 * (x1 - x2) + l3 * (x3 - x2)
                x = np.where(quad, np.where(np.abs(d1) <= np.abs(d2), x1 + d1, x2 + d2), x)
        x = np.clip(x, np.minimum(x1, x2) + 0.5 * tol, np.maximum(x1, x2) - 0.5 * tol)
        fx = f(x, live)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
    raise NonConvergence(f"bracketed roots did not settle in {max_steps} steps")


def find_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-13,
    max_iter: int = 200,
) -> float:
    """Locate a zero of ``f`` in the sign-changing bracket [a, b].

    The one-bracket case of ``bracketed_roots``: converges to bracket width
    below tol + 4 ulp of the root, which always lies within [a, b].
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise NoSignChange(f"f({a}) = {fa} and f({b}) = {fb} have the same sign")
    x = bracketed_roots(lambda x, live: np.array([f(float(x[0]))], dtype=float),
                        *np.array([[a], [b], [fa], [fb]], dtype=float), tol, max_iter)
    return float(x[0])


def sine_map(phi, slope):
    """theta = phi - a sin(phi) with a = 1 - slope, and dtheta/dphi = 1 - a cos(phi).

    The map fixes 0 and pi; ``slope`` in (0, 1] is its slope at phi = 0,
    and 1 is the identity. Near 0, theta ~ slope phi + a phi^3/6, so nodes
    evenly spaced in phi lie 1/slope times closer together near theta = 0
    than evenly spaced theta would, and like phi^3 once slope phi is the
    smaller term (a = 1 is Sidi's sin^2 transformation). theta is formed
    as slope phi + a (phi - sin(phi)), the second term from its Taylor
    series below phi = 1, so it keeps its relative digits as phi -> 0;
    dtheta/dphi = slope + 2 a sin^2(phi/2) has no cancellation either.
    ``phi`` (an array) and ``slope`` broadcast.
    """
    x2 = phi * phi
    series = 0.0
    for c in _PHI_MINUS_SIN:
        series = series * x2 + c
    cubic = np.where(phi < 1.0, series * x2 * phi, phi - np.sin(phi))
    a = 1.0 - slope
    return slope * phi + a * cubic, slope + 2 * a * np.sin(phi / 2) ** 2


def quad_chebyshev_endpoint(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lanes: int,
    tol: float = 1e-12,
    max_nodes: int = 1 << 21,
    slope=1.0,
) -> np.ndarray:
    """Compute ``lanes`` weighted integrals of g(tau)/sqrt(tau*(1-tau)) over [0, 1].

    With tau = sin^2(theta/2) the integral is that of g over theta in
    [0, pi], and with theta = sine_map(phi, slope) that of g times
    dtheta/dphi over phi in [0, pi]: an even 2 pi-periodic integrand,
    which the midpoint rule in phi integrates spectrally. At slope 1 this
    is Gauss-Chebyshev (first kind), exact for polynomial g up to degree
    2n-1 with n nodes; a smaller slope packs the nodes near tau = 0, where
    g may have a feature narrower than the interval. ``slope`` is a
    scalar, or an array of one value per lane. The node count starts at
    QUAD_MIN_NODES and is doubled until two successive estimates agree to
    ``tol``.

    ``g(tau, rows)`` gets nodes and an index array of lanes and returns a
    (len(rows), n) array; tau has shape (n,) for a scalar ``slope`` and
    (len(rows), n) for one slope per lane. The result is an array of
    ``lanes`` values. Each lane doubles until its own estimates agree; a
    call holds at most QUAD_BLOCK (lane, node) pairs (one lane and a chunk
    of its n nodes once n exceeds it), and a block's unsettled rows go on
    to 2n before the other lanes at n, so a lane that cannot settle fails
    early. A lane's value does not depend on the other lanes. A lane that
    does not settle within ``max_nodes``, or whose estimate is not finite,
    raises ``NonConvergence``.
    """
    slope = np.asarray(slope, dtype=float)
    est = np.full(lanes, np.nan)
    todo = [(np.arange(lanes), QUAD_MIN_NODES)]
    while todo:
        rows, n = todo.pop()
        if n > max_nodes:
            raise NonConvergence(f"quadrature did not settle to {tol} within {max_nodes} nodes")
        take = max(1, QUAD_BLOCK // n)
        if rows.size > take:
            todo.append((rows[take:], n))
            rows = rows[:take]
        b = slope if slope.ndim == 0 else slope[rows, None]
        # nodes in chunks of at most QUAD_BLOCK; the chunk sums are added
        # pairwise, numpy's own order for a row of 2^j nodes
        sums = []
        for lo in range(0, n, QUAD_BLOCK):
            k = np.arange(lo + 1, min(n, lo + QUAD_BLOCK) + 1)
            theta, dtheta = sine_map((2 * k - 1) * (np.pi / (2 * n)), b)
            vals = np.asarray(g(np.sin(theta / 2) ** 2, rows), dtype=float)
            sums.append((vals * dtheta).sum(axis=1))
        while len(sums) > 1:
            sums = [sum(sums[i:i + 2]) for i in range(0, len(sums), 2)]
        new = np.pi / n * sums[0]
        if not np.all(np.isfinite(new)):
            raise NonConvergence(f"quadrature estimate not finite at {n} nodes")
        settled = np.abs(new - est[rows]) <= tol
        est[rows] = new
        if not settled.all():
            todo.append((rows[~settled], 2 * n))
    return est


def hermite(x: np.ndarray, y: np.ndarray, dydx: np.ndarray, xq) -> np.ndarray:
    """Piecewise cubic Hermite through (x, y) with slopes dydx, at xq (x increasing).

    ``y`` and ``dydx`` have shape (n,), or (n, c) for c curves on the same
    knots; the result has the shape of xq, with a last axis of c for the
    latter. Each query takes the cell whose right knot is the first knot
    >= it, clamped to the end cells. Every operation is elementwise, so
    each value is the double that the same formula gives on Python floats.
    """
    xq = np.asarray(xq, dtype=float)
    i = np.clip(np.searchsorted(x, xq) - 1, 0, x.size - 2)
    h = x[i + 1] - x[i]
    s = (xq - x[i]) / h
    if y.ndim == 2:
        h, s = h[..., None], s[..., None]
    return (y[i] + s * s * (3 - 2 * s) * (y[i + 1] - y[i])
            + h * s * (1 - s) * ((1 - s) * dydx[i] - s * dydx[i + 1]))


def ls_slope(x: np.ndarray, y: np.ndarray) -> float | None:
    """Least-squares slope of y against x in closed form, cov(x, y)/var(x).

    None when var(x) is 0 or not finite, as for x within a few float
    spacings of each other, where no line through the points has a slope.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - x.mean()
        var = float(dx @ dx)
        if not (math.isfinite(var) and var > 0):
            return None
        return float(dx @ (y - y.mean())) / var
