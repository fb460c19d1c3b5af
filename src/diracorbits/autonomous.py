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
from scipy.interpolate import PchipInterpolator

from .numerics import (
    NoSignChange,
    Tolerances,
    Trajectory,
    find_root,
    quad_chebyshev_endpoint,
)

__all__ = [
    "AutonomousParams",
    "OrbitSpec",
    "KOutOfRange",
    "hamiltonian",
    "vector_field",
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


def vector_field(params: AutonomousParams, state) -> tuple[float, float]:
    return time_field(params)(0.0, *state)


def energy_fn(params: AutonomousParams):
    def en(t: float, u: float, v: float) -> float:
        return hamiltonian(params, u, v)

    return en


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
    """The two positive zeros s0 < s1 of F_K.

    Both solve the fixed-point equation s = (2/m) s^p + K, i.e. zeros of
    phi(s) = s - (2/m) s^p - K. phi has a single interior maximum at
    s* = lam^{m-1} (where phi(s*) = K0 - K > 0), so one zero lies on each
    side of s*.
    """
    _check_k(params, K)
    m = params.m
    p = params.p

    def phi(s: float) -> float:
        return s - (2 / m) * s ** p - K

    s_star = params.lam ** (m - 1)
    s0 = find_root(phi, 1e-300, s_star)
    hi = 2 * s_star
    while phi(hi) > 0:
        hi *= 2
        if hi > 1e12:
            raise NoSignChange("failed to bracket the upper turning value")
    s1 = find_root(phi, s_star, hi)
    return s0, s1


def _pk_eval(params: AutonomousParams, K: float, t0: float, t1: float, t: np.ndarray) -> np.ndarray:
    """Regular polynomial factor P_K of F_K after the z = t^{m-1} substitution.

    F_K(t^{m-1}) = (4/m^2) (t - t0)(t1 - t) P_K(t) with
    P_K(t) = (t^m + (m/2) t^{m-1} + (m/2) K) * sum_j a_j t^{m-2-j},
    a_j = [(t1^{j+1} - t0^{j+1}) - (m/2)(t1^j - t0^j)] / (t1 - t0).
    P_K > 0 on [t0, t1].
    """
    m = params.m
    first = t ** m + (m / 2) * t ** (m - 1) + (m / 2) * K
    second = np.zeros_like(t)
    for j in range(m - 1):
        a_j = ((t1 ** (j + 1) - t0 ** (j + 1)) - (m / 2) * (t1 ** j - t0 ** j)) / (t1 - t0)
        second += a_j * t ** (m - 2 - j)
    return first * second


def half_period(params: AutonomousParams, K: float, tol: float = 1e-12) -> float:
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
    m = params.m
    s0, s1 = fk_zeros(params, K)
    t0 = s0 ** (1 / (m - 1))
    t1 = s1 ** (1 / (m - 1))

    def g(tau: np.ndarray) -> np.ndarray:
        t = t0 + (t1 - t0) * np.asarray(tau)
        return (m / 2) * t ** (m - 2) / np.sqrt(_pk_eval(params, K, t0, t1, t))

    return quad_chebyshev_endpoint(g, tol=tol)


def _orbit_interpolant(params: AutonomousParams, K: float):
    """Quadrature table for the K-orbit: (s0, s1, eta, z(t) on [0, eta]).

    tau = (1 - cos(theta))/2 absorbs the endpoint weight of the period
    integral, so the travel time up to theta is the integral of the
    smooth factor g alone; inverting the cumulative trapezoid with a
    monotone cubic interpolant gives z as a function of time.
    """
    m = params.m
    s0, s1 = fk_zeros(params, K)
    t0 = s0 ** (1 / (m - 1))
    t1 = s1 ** (1 / (m - 1))
    n_theta = 32769
    theta = np.linspace(0.0, np.pi, n_theta)
    tt = t0 + (t1 - t0) * 0.5 * (1.0 - np.cos(theta))
    g = (m / 2) * tt ** (m - 2) / np.sqrt(_pk_eval(params, K, t0, t1, tt))
    time_of_theta = np.concatenate(
        ([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(theta)))
    )
    eta = float(time_of_theta[-1])
    z_of_time = PchipInterpolator(time_of_theta, tt ** (m - 1))
    return s0, s1, eta, z_of_time


def _orbit_states(params, K, s0, s1, eta, z_of_time, t_grid: np.ndarray) -> np.ndarray:
    """(u, v) samples of the periodic orbit at arbitrary times.

    The orbit starts at z = s0 with u = v; over [0, eta] w = u^2 - v^2
    equals -sqrt(F_K(z)) while z rises to s1, then the mirror image
    returns to s0; the pattern repeats with period 2*eta.
    """
    phase = np.mod(t_grid, 2 * eta)
    half = np.minimum(phase, 2 * eta - phase)  # fold onto [0, eta]
    z = np.clip(z_of_time(half), s0, s1)
    fk = np.maximum(f_k(params, K, z), 0.0)
    w = -np.sqrt(fk)
    w[phase > eta] *= -1.0
    u = np.sqrt(np.maximum((z + w) / 2, 0.0))
    v = np.sqrt(np.maximum((z - w) / 2, 0.0))
    return np.column_stack([u, v])


def periodic_orbit_trajectory(
    params: AutonomousParams,
    K: float,
    t_span: tuple[float, float],
    n_samples: int = 2001,
) -> Trajectory:
    """Periodic extension of the K-orbit sampled over an arbitrary t-span."""
    _check_k(params, K)
    s0, s1, eta, z_of_time = _orbit_interpolant(params, K)
    t_grid = np.linspace(t_span[0], t_span[1], n_samples)
    states = _orbit_states(params, K, s0, s1, eta, z_of_time, t_grid)
    energy = hamiltonian(params, states[:, 0], states[:, 1])
    return Trajectory(t_grid, states, energy, terminal_reason="reconstructed")


def orbit_reconstruct(
    params: AutonomousParams, K: float, n_samples: int = 2001
) -> tuple[OrbitSpec, Trajectory]:
    """One full period of the first-quadrant closed orbit at level K.

    z = u^2 + v^2 obeys z' = -2 lam w with w = u^2 - v^2 and
    w^2 = F_K(z): time as a function of z is the cumulative half-period
    quadrature, inverted with a monotone cubic interpolant.
    """
    _check_k(params, K)
    if n_samples < 8:
        raise ValueError("n_samples must be >= 8")
    m = params.m
    lam = params.lam
    s0, s1, eta, z_of_time = _orbit_interpolant(params, K)
    t_grid = np.linspace(0.0, 2 * eta, n_samples)
    states = _orbit_states(params, K, s0, s1, eta, z_of_time, t_grid)
    energy = hamiltonian(params, states[:, 0], states[:, 1])

    n_half = (n_samples + 1) // 2
    spec = OrbitSpec(
        m=m,
        K=K,
        s0=s0,
        s1=s1,
        half_period=eta,
        z_samples=np.clip(z_of_time(np.linspace(0.0, eta, n_half)), s0, s1),
        energy=-lam * K / 2,
    )
    traj = Trajectory(
        t=t_grid,
        states=states,
        energy=energy,
        terminal_reason="reconstructed",
    )
    return spec, traj


def solutions_count(
    params: AutonomousParams,
    T: float,
    grid_size: int = 512,
) -> tuple[int, list[tuple[int, float]], dict]:
    """Count closed solutions whose full period 2*eta fits T exactly k times.

    Counts the constant solution plus one solution per root of
    eta(K) = T/k for each positive integer k. eta is sampled on a
    log-spaced K grid; every sign change is root-solved, so multiple
    roots per k (were eta non-monotone) are all reported, flagged in the
    diagnostics.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    kmax = k0(params)
    k_hi = kmax * (1.0 - 1e-8)
    # eta grows like ln(1/K)/(m-1) as K -> 0, so this floor puts the
    # largest sampled eta comfortably above any target period T/k <= T.
    # Going lower than needed only makes the quadrature near K ~ 0 harder.
    k_lo = kmax * min(1e-2, math.exp(-(params.m - 1) * (T + 3.0)))
    k_lo = max(k_lo, 1e-280)
    while True:
        grid = np.geomspace(k_lo, k_hi, grid_size)
        eta = np.array([half_period(params, Kg) for Kg in grid])
        eta_min = float(eta.min())
        if float(eta.max()) >= T or T <= eta_min or k_lo <= 1e-270:
            break
        k_lo = max(k_lo * k_lo / kmax, 1e-280)

    roots: list[tuple[int, float]] = []
    failures: list[int] = []
    multi: list[int] = []
    k = 1
    while True:
        target = T / k
        if target <= eta_min:
            break
        diff = eta - target
        hits = []
        for i in range(len(grid) - 1):
            if diff[i] == 0.0:
                hits.append(float(grid[i]))
            elif diff[i] * diff[i + 1] < 0:
                # eta' ~ -1/((m-1) K): a tolerance relative to K keeps
                # eta(root) within ~1e-13/(m-1) of the target at every K
                Kk = find_root(
                    lambda K, tgt=target: half_period(params, K) - tgt,
                    float(grid[i]),
                    float(grid[i + 1]),
                    tol=1e-13 * float(grid[i]),
                )
                hits.append(Kk)
        if not hits:
            failures.append(k)
        if len(hits) > 1:
            multi.append(k)
        roots.extend((k, Kk) for Kk in hits)
        k += 1

    count = 1 + len({kk for kk, _ in roots})
    diagnostics = {
        "eta_range": (eta_min, float(eta.max())),
        "bracket_failures": failures,
        "multi_root_k": multi,
    }
    return count, roots, diagnostics
