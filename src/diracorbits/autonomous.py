"""Conservative planar system u' = (u^2+v^2)^{1/(m-1)} v - lam*u, v' = lam*v - (u^2+v^2)^{1/(m-1)} u.

Hamiltonian level sets, equilibria, the explicit homoclinic loop, the
period quadrature for the family of closed orbits inside the loop
(parametrized by K with energy level H = -lam*K/2), quadrature-based
orbit reconstruction, and the count of closed orbits whose period divides
a given T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    NonConvergence,
    Trajectory,
    bracketed_roots,
    hermite,
    quad_chebyshev_endpoint,
)

__all__ = [
    "AutonomousParams",
    "OrbitSpec",
    "KOutOfRange",
    "hamiltonian",
    "time_field",
    "equilibria",
    "homoclinic",
    "k0",
    "f_k",
    "fk_zeros",
    "half_period",
    "orbit_reconstruct",
    "periodic_orbit_trajectory",
    "solutions_count",
]

# K within this relative distance of the supremum k0 is treated as the
# degenerate center orbit (the two turning radii merge).
DEGENERATE_CUTOFF = 1e-10
# Newton steps allowed per turning value: ~20 near the fold, a few elsewhere
NEWTON_MAX = 100
# the half-period quadrature doubles its nodes until two estimates agree to this
QUAD_TOL = 1e-12
# solutions_count samples eta at this many evenly spaced x = ln K, no lower
# than SCAN_X_MIN, and refines its roots in x to this bracket width in at
# most ROOT_MAX_STEPS steps
SCAN_POINTS = 128
SCAN_X_MIN = math.log(1e-280)
ROOT_LN_TOL = 1e-13
ROOT_MAX_STEPS = 100
# orbit time tables: knot counts and the z accuracy their Hermite inverse must reach
ORBIT_TABLE_MIN = 1 << 12
ORBIT_TABLE_MAX = 1 << 20
ORBIT_Z_TOL = 1e-11


class KOutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class AutonomousParams:
    """System dimension parameter m >= 2; lam = (m-1)/2 and p = m/(m-1)."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError("m must be an integer >= 2")

    @property
    def lam(self) -> float:
        return (self.m - 1) / 2

    @property
    def p(self) -> float:
        return self.m / (self.m - 1)


@dataclass(frozen=True)
class OrbitSpec:
    """Closed orbit at level H = -lam*K/2.

    s0 < s1 are the turning values of z = u^2 + v^2; half_period is the
    time for z to travel from s0 to s1; z_samples traces z on
    [0, half_period].
    """

    m: int
    K: float
    s0: float
    s1: float
    half_period: float
    z_samples: np.ndarray
    energy: float


def hamiltonian(params: AutonomousParams, u, v):
    """H(u, v); numpy-broadcast over u and v."""
    m = params.m
    z = u * u + v * v
    return -params.lam * u * v + (m - 1) / (2 * m) * z ** (m / (m - 1))


def time_field(params: AutonomousParams):
    """The field as ``field(t, u, v)`` for numerics.integrate; u, v may be arrays."""
    lam = params.lam
    e = 1 / (params.m - 1)

    def field(t, u, v):
        z = u * u + v * v
        nl = z ** e
        return nl * v - lam * u, lam * v - nl * u

    return field


def equilibria(params: AutonomousParams) -> list[tuple[float, float]]:
    """The origin (saddle) and the two centers +-(c, c)."""
    m = params.m
    c = (m - 1) ** ((m - 1) / 2) / 2 ** (m / 2)
    return [(0.0, 0.0), (c, c), (-c, -c)]


def homoclinic(params: AutonomousParams, t):
    """The explicit zero-energy orbit through the first quadrant; numpy-broadcast over t."""
    m = params.m
    amp = m ** ((m - 1) / 2) / 2 ** (m / 2)
    c = np.cosh(t) ** (m / 2)
    return amp * np.exp(t / 2) / c, amp * np.exp(-t / 2) / c


def homoclinic_derivative(params: AutonomousParams, t):
    """Analytic d/dt of the homoclinic pair; numpy-broadcast over t."""
    m = params.m
    u, v = homoclinic(params, t)
    th = np.tanh(t)
    return u * (0.5 - (m / 2) * th), v * (-0.5 - (m / 2) * th)


def k0(params: AutonomousParams) -> float:
    """Supremum of the level parameter: K0 = (1/m)((m-1)/2)^{m-1}."""
    m = params.m
    return ((m - 1) / 2) ** (m - 1) / m


def f_k(params: AutonomousParams, K: float, s: float) -> float:
    """F_K(s) = s^2 - ((2/m) s^p + K)^2; nonnegative between the turning values."""
    m = params.m
    return s * s - ((2 / m) * s ** params.p + K) ** 2


def _check_k(params: AutonomousParams, K: float) -> float:
    kmax = k0(params)
    if not (0.0 < K < kmax * (1.0 - DEGENERATE_CUTOFF)):
        raise KOutOfRange(
            f"K = {K} outside (0, K0*(1-{DEGENERATE_CUTOFF})) with K0 = {kmax}"
        )
    return kmax


def fk_zeros(params: AutonomousParams, K: float) -> tuple[float, float]:
    """The two positive zeros s0 < s1 of F_K, to a few ulp relative at every K.

    Both solve the fixed-point equation s = (2/m) s^p + K, i.e. zeros of
    phi(s) = s - (2/m) s^p - K. phi has a single interior maximum at
    s* = lam^{m-1} (where phi(s*) = K0 - K > 0), so one zero lies on each
    side of s*.
    """
    _check_k(params, K)
    s0, s1 = _turning_values(params, np.array([K], dtype=float))
    return float(s0[0]), float(s1[0])


def _turning_values(params: AutonomousParams, K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fk_zeros for an array of K.

    With y = s/s*, phi(s) = -(s*/p) G(y) for the convex G(y) = y^p - p y + q,
    q = p K/s*, and G'(1) = 0. Newton from the outer side of a root of a
    convex function moves monotonically onto it: from y = K/s* up to y0 and
    from y = p^{m-1} (s = (m/2)^{m-1}, where phi = -K) down to y1. A lane
    stops once its step no longer moves it. Near the fold (K > K0/2) the
    terms of G cancel, so there G is evaluated as B(y) - c with
    B(y) = expm1(p ln y) - p (y - 1) and c = (p - 1)(s* - m K)/s*, where
    s* - m K is exact up to one rounding (K split into two 26-bit halves).
    """
    m, p = params.m, params.p
    s_star = params.lam ** (m - 1)
    big = K * 134217729.0  # 2^27 + 1: Veltkamp split, so m * hi and m * lo are exact
    hi = big - (big - K)
    c = (p - 1) * ((s_star - m * hi) - m * (K - hi)) / s_star
    q = p * K / s_star
    fold = np.tile(2 * K > k0(params), 2)
    c, q = np.tile(c, 2), np.tile(q, 2)
    rising = np.repeat([True, False], K.size)
    y = np.concatenate([K / s_star, np.full(K.size, p ** (m - 1))])
    for _ in range(NEWTON_MAX):
        ln_y = np.log(y)
        G = np.where(fold, np.expm1(p * ln_y) - p * (y - 1) - c, np.exp(p * ln_y) + (q - p * y))
        y_new = y - G / (p * np.expm1((p - 1) * ln_y))
        moving = np.where(rising, y_new > y, y_new < y)
        if not moving.any():
            return s_star * y[: K.size], s_star * y[K.size:]
        y = np.where(moving, y_new, y)
    raise NonConvergence(f"turning values did not settle in {NEWTON_MAX} Newton steps")


def _pk_eval(params: AutonomousParams, K, t0, t1, t: np.ndarray) -> np.ndarray:
    """Regular polynomial factor P_K of F_K after the z = t^{m-1} substitution.

    F_K(t^{m-1}) = (4/m^2) (t - t0)(t1 - t) P_K(t) with
    P_K(t) = (t^m + (m/2) t^{m-1} + (m/2) K) * sum_j a_j t^{m-2-j},
    a_j = h_j - (m/2) h_{j-1}, h_j = sum_i t1^i t0^{j-i}. Since
    h_j = t0^j + t1 h_{j-1} and m/2 - t1 = (m/2) K / t1^{m-1} (t1 is a zero
    of t^m - (m/2) t^{m-1} + (m/2) K), a_j = t0^j - (m/2) K h_{j-1} / t1^{m-1},
    free of the cancellation in t1 - m/2 as K -> 0. P_K > 0 on [t0, t1].
    K, t0 and t1 broadcast against t.
    """
    m = params.m
    gap = (m / 2) * K / t1 ** (m - 1)
    second = np.ones_like(t)
    h = 1.0
    for j in range(1, m - 1):
        second = second * t + (t0 ** j - gap * h)
        h = t0 ** j + t1 * h
    return (t ** (m - 1) * (t + m / 2) + (m / 2) * K) * second


def _integrand(params: AutonomousParams, K, t0, t1, tau: np.ndarray) -> np.ndarray:
    """Smooth factor (m/2) t^{m-2} / sqrt(P_K(t)) of the half-period at t = t0 + (t1 - t0) tau."""
    m = params.m
    t = t0 + (t1 - t0) * tau
    return (m / 2) * t ** (m - 2) / np.sqrt(_pk_eval(params, K, t0, t1, t))


def _half_periods(params: AutonomousParams, K: np.ndarray) -> np.ndarray:
    """eta for an array of K in range: the kernel behind half_period and solutions_count.

    One Chebyshev quadrature over the (K x nodes) array, at most
    numerics.QUAD_BLOCK (K, node) pairs at a time; each K's value does not
    depend on the others.
    """
    s0, s1 = _turning_values(params, K)
    e = 1 / (params.m - 1)
    t0, t1, Kc = (s0 ** e)[:, None], (s1 ** e)[:, None], K[:, None]
    return quad_chebyshev_endpoint(
        lambda tau, rows: _integrand(params, Kc[rows], t0[rows], t1[rows], tau),
        K.size, tol=QUAD_TOL,
    )


def half_period(params: AutonomousParams, K: float) -> float:
    """Travel time of z = u^2 + v^2 from s0 to s1 along the K-orbit.

    The raw integral int_{s0}^{s1} dz / (2 lam sqrt(F_K)) is recast via
    z = t^{m-1} and t = t0 + (t1 - t0) tau into a Chebyshev-weight
    integral of the regular factor (m/2) t^{m-2} / sqrt(P_K(t)).

    Time is the system's own variable t = -log r.  As K -> K0 the orbit
    shrinks onto the center, whose linearisation has frequency sqrt(m-1),
    so eta -> pi/sqrt(m-1).  As K -> 0 the orbit approaches the homoclinic
    loop and eta grows like ln(1/K)/(m-1).  In the rescaled time lam*t
    both limits are multiplied by lam: (sqrt(m-1)/2) pi and slope 1/2.
    """
    _check_k(params, K)
    return float(_half_periods(params, np.array([K], dtype=float))[0])


def _orbit_table(params: AutonomousParams, K: float):
    """Time table of the K-orbit: (s0, s1, eta, at) with at(t) = (z, |w|) on [0, eta].

    tau = (1 - cos theta)/2 = sin^2(theta/2) absorbs the endpoint weight of
    the period integral, so dt/dtheta is the smooth factor g, an even 2 pi-periodic
    function of theta: on a Lobatto grid of n + 1 points it is the cosine
    series c_0/2 + sum c_k cos(k theta), whose integral
    t = c_0 theta/2 + sum c_k sin(k theta)/k takes two FFTs, and t(pi) = eta
    is the trapezoid rule. theta(t) is the cubic Hermite through the
    knots (t_j, theta_j) with the exact slopes 1/g_j. n doubles until the
    Hermite through every other knot gives z at the knots in between to
    ORBIT_Z_TOL relative; the table then uses all knots.

    z and |w| = sqrt(F_K(z)) follow from theta in closed form: with
    x = t0 + (t1 - t0) tau, z = x^{m-1} and
    |w| = (t1 - t0) sin(theta) sqrt(P_K(x)) / m, free of the cancellation
    in F_K near the turning values.
    """
    m = params.m
    s0, s1 = fk_zeros(params, K)
    t0, t1 = s0 ** (1 / (m - 1)), s1 ** (1 / (m - 1))

    def z_of(theta):
        return (t0 + (t1 - t0) * np.sin(theta / 2) ** 2) ** (m - 1)

    n = ORBIT_TABLE_MIN
    while n <= ORBIT_TABLE_MAX:
        theta = np.arange(n + 1) * (np.pi / n)
        g = _integrand(params, K, t0, t1, np.sin(theta / 2) ** 2)
        c = np.fft.rfft(np.concatenate([g, g[-2:0:-1]])).real / n
        b = np.zeros(2 * n)
        b[1:n] = c[1:n] / np.arange(1, n)
        time = 0.5 * c[0] * theta - np.fft.rfft(b).imag
        odd = hermite(time[::2], theta[::2], 1 / g[::2], time[1::2])
        if np.max(np.abs(z_of(odd) / z_of(theta[1::2]) - 1.0)) <= ORBIT_Z_TOL:
            break
        n *= 2
    else:
        raise NonConvergence(f"orbit table did not settle to {ORBIT_Z_TOL} "
                             f"within {ORBIT_TABLE_MAX} knots")

    def at(t):
        th = hermite(time, theta, 1 / g, t)
        x = t0 + (t1 - t0) * np.sin(th / 2) ** 2
        w = (t1 - t0) * np.sin(th) * np.sqrt(_pk_eval(params, K, t0, t1, x)) / m
        return np.clip(x ** (m - 1), s0, s1), w

    return s0, s1, float(time[-1]), at


def _sample_orbit(params: AutonomousParams, K: float, n_samples: int, t_span=None):
    """Time table of the K-orbit and its samples on linspace(*t_span, n_samples).

    The default span is one full period (0, 2 eta). The orbit starts at
    z = s0 with u = v; over [0, eta] w = u^2 - v^2 <= 0 while z rises to
    s1, then the mirror image returns to s0; the pattern repeats with
    period 2*eta. The larger of u, v comes from z and |w|, the smaller
    from u v = K/2 + z^p/m (the level H = -lam K/2), so neither loses
    digits where the orbit hugs an axis.
    """
    s0, s1, eta, at = _orbit_table(params, K)
    t0, t1 = (0.0, 2 * eta) if t_span is None else t_span
    t_grid = np.linspace(t0, t1, n_samples)
    phase = np.mod(t_grid, 2 * eta)
    z, w = at(np.minimum(phase, 2 * eta - phase))  # folded onto [0, eta]
    big = np.sqrt((z + w) / 2)
    small = (K / 2 + z ** params.p / params.m) / big
    rising = phase <= eta
    u, v = np.where(rising, small, big), np.where(rising, big, small)
    traj = Trajectory(t_grid, np.column_stack([u, v]), hamiltonian(params, u, v),
                      terminal_reason="reconstructed")
    return (s0, s1, eta, at), traj


def periodic_orbit_trajectory(
    params: AutonomousParams,
    K: float,
    t_span: tuple[float, float],
    n_samples: int = 2001,
) -> Trajectory:
    """Periodic extension of the K-orbit sampled over an arbitrary t-span."""
    _check_k(params, K)
    return _sample_orbit(params, K, n_samples, t_span)[1]


def orbit_reconstruct(
    params: AutonomousParams, K: float, n_samples: int = 2001
) -> tuple[OrbitSpec, Trajectory]:
    """One full period of the first-quadrant closed orbit at level K.

    z = u^2 + v^2 obeys z' = -2 lam w with w = u^2 - v^2 and
    w^2 = F_K(z): time as a function of z is the cumulative half-period
    integral, a sine series in the quadrature angle theta, inverted with a
    cubic Hermite that has the exact slopes (``_orbit_table``). Over one
    period z matches a DOP853 solve at rtol 1e-13 to within that solve's
    own error (below 1e-10 relative for m = 2..5 down to K = 1e-3 K0), and
    the spec's half_period agrees with ``half_period(params, K)`` to 1e-12.
    """
    _check_k(params, K)
    if n_samples < 8:
        raise ValueError("n_samples must be >= 8")
    (s0, s1, eta, at), traj = _sample_orbit(params, K, n_samples)
    n_half = (n_samples + 1) // 2
    spec = OrbitSpec(
        m=params.m,
        K=K,
        s0=s0,
        s1=s1,
        half_period=eta,
        z_samples=at(np.linspace(0.0, eta, n_half))[0],
        energy=-params.lam * K / 2,
    )
    return spec, traj


def solutions_count(
    params: AutonomousParams, T: float
) -> tuple[int, list[tuple[int, float]], dict]:
    """Count closed solutions whose full period 2*eta fits T exactly k times.

    Counts the constant solution plus one solution per root of
    eta(K) = T/k for each positive integer k. eta is sampled in one
    batched kernel call on SCAN_POINTS values of x = ln K, evenly spaced
    from a floor up to K0. At the floor the asymptote
    ln(2 m^(m-1)/K)/(m-1), which eta exceeds, is T + 1; should eta there
    still fall short of T (the floor clamped at SCAN_X_MIN), the count
    would miss roots, so it raises NonConvergence instead. It raises
    NonConvergence naming T and the floor, too, when the floor is past the
    quadrature's reach. eta falls monotonically (Chicone 1987), so each k
    with T/k above the scan's least eta has one root, in the scan cell that
    one search finds; a scan that does not fall strictly raises
    NonConvergence. The roots are solved in x = ln K, where eta is close to
    linear as K -> 0, by numerics.bracketed_roots from the scan's own
    values, all together.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    m = params.m
    kmax = k0(params)
    x_hi = math.log(kmax * (1.0 - 1e-8))
    # eta(K) > ln(2 m^(m-1)/K)/(m-1) at every K measured, the gap falling
    # to 0 as K -> 0 (docs/decisions.md), so eta > T + 1 at this floor.
    # Deeper lanes only cost more quadrature nodes.
    x_want = min(math.log(1e-2 * kmax), math.log(2.0) + (m - 1) * (math.log(m) - T - 1.0))
    x_lo = max(x_want, SCAN_X_MIN)
    x = np.linspace(x_lo, x_hi, SCAN_POINTS)
    try:
        eta = _half_periods(params, np.exp(x))
    except NonConvergence as exc:
        clamp = f", clamped from ln K = {x_want:.6g}" if x_want < x_lo else ""
        raise NonConvergence(f"eta at the scan floor K = {math.exp(x_lo):.6g}{clamp}, "
                             f"set by T = {T:.6g}, is past the quadrature's reach: {exc}") from exc
    if not np.all(np.diff(eta) < 0):
        raise NonConvergence(f"eta does not fall strictly along the scan from K = "
                             f"{math.exp(x_lo):.6g} to K0, set by T = {T:.6g}: the count "
                             f"needs a monotone period function")
    if eta[0] < T:
        raise NonConvergence(f"eta = {eta[0]:.6g} at the scan floor K = {math.exp(x_lo):.6g} "
                             f"falls short of T = {T:.6g}: roots of eta = T/k lie below it")

    # every k with T/k above the scan's least eta, each in its cell eta[i] >= T/k > eta[i + 1]
    k = np.arange(1, int(T / eta[-1]) + 2)
    k = k[T / k > eta[-1]]
    target = T / k
    i = np.searchsorted(-eta, -target, side="right") - 1
    # an exact hit, eta[i] == T/k, ends its bracket at x[i] before f is called
    K_root = np.exp(bracketed_roots(
        lambda xs, live: _half_periods(params, np.exp(xs)) - target[live],
        x[i], x[i + 1], eta[i] - target, eta[i + 1] - target, ROOT_LN_TOL, ROOT_MAX_STEPS))
    roots = [(int(kk), float(K)) for kk, K in zip(k, K_root)]
    return 1 + len(roots), roots, {"eta_range": (float(eta[-1]), float(eta[0]))}
