"""Radial two-function spinor fields and their link to the planar systems.

A field psi(x) = f1(|x|) gamma0 + (f2(|x|)/|x|) x . gamma0 (with
x . gamma0 = sum_k x_k alpha_k gamma0) is closed under the flat Dirac
operator; its image has the same shape with coefficients built from
f1', f2'. The logarithmic substitution r = e^{-t}, f1 = -u e^{l t},
f2 = v e^{l t} turns the critical nonlinear Dirac equation on such
fields into the planar systems of the autonomous (l = (m-1)/2) and
dissipative (l = (m-2)/2, ambient dimension m-1) modules. This module
provides the field evaluation, the closed-form Dirac action, the
profile transforms, finite-difference PDE residuals, and decay fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autonomous, dissipative
from .clifford import CliffordRep
from .numerics import Trajectory, hermite, ls_slope

__all__ = [
    "SpinorProfile",
    "OriginEvaluation",
    "EmptyTrajectory",
    "NonFiniteProfile",
    "PointOutOfRange",
    "InsufficientTail",
    "ansatz_eval",
    "dirac_on_ansatz_closed",
    "profile_from_phase",
    "phase_from_profile",
    "pde_residual",
    "decay_fit",
    "four_component_field",
]

# positive samples that decay_fit needs in its window
DECAY_MIN_SAMPLES = 10


class OriginEvaluation(ValueError):
    pass


class EmptyTrajectory(ValueError):
    pass


class NonFiniteProfile(ValueError):
    pass


class PointOutOfRange(ValueError):
    pass


class InsufficientTail(ValueError):
    pass


def ambient_dim(kind: str, m: int) -> int:
    """Spatial dimension the field lives in: m, or m-1 for the dissipative kind."""
    if kind == "autonomous":
        return m
    if kind == "dissipative":
        return m - 1
    raise ValueError(f"unknown kind {kind!r}")


def lambda_exp(kind: str, m: int) -> float:
    """Exponent l in f1 = -u e^{l t}: (ambient_dim-1)/2, (m-1)/2 or (m-2)/2 by kind."""
    return (ambient_dim(kind, m) - 1) / 2


@dataclass(frozen=True)
class SpinorProfile:
    """Radial profile pair (f1, f2) sampled on increasing radii.

    Between the samples the profile is the cubic Hermite in s = ln r
    through (f1, f2) with the slopes d(f1, f2)/ds that the kind's planar
    field gives at each sample (``hermite``, built on first use), so an
    orbit, the homoclinic loop, an equilibrium and a shot trajectory are
    all interpolated to fourth order with exact derivatives at the samples.
    """

    kind: str  # "autonomous" | "dissipative"
    m: int
    r: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    gamma0: np.ndarray

    def __post_init__(self):
        if self.kind not in ("autonomous", "dissipative"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if len(self.r) < 2:
            raise EmptyTrajectory("profile needs at least 2 samples to interpolate")
        if not np.all(np.diff(self.r) > 0):
            raise ValueError("radii must be strictly increasing")
        if abs(np.linalg.norm(self.gamma0) - 1.0) > 1e-12:
            raise ValueError("gamma0 must be a unit spinor")

    @property
    def lambda_exp(self) -> float:
        return lambda_exp(self.kind, self.m)

    @property
    def ambient_dim(self) -> int:
        return ambient_dim(self.kind, self.m)

    @property
    def psi_abs(self) -> np.ndarray:
        return np.hypot(self.f1, self.f2)

    @cached_property
    def hermite(self) -> tuple[np.ndarray, np.ndarray]:
        """(s, table): s = ln r, and table[i] = (f1, f2, df1/ds, df2/ds) at s[i].

        With t = -s, u = -f1 r^l and v = f2 r^l, the kind's field gives
        (u', v') in t, so df1/ds = u' r^-l - l f1 and df2/ds = -v' r^-l - l f2.
        """
        l, s = self.lambda_exp, np.log(self.r)
        scale = self.r ** l
        t, u, v = -s, -self.f1 * scale, self.f2 * scale
        if self.kind == "autonomous":
            du, dv = autonomous.time_field(autonomous.AutonomousParams(self.m))(t, u, v)
        else:
            field = dissipative.time_field(dissipative.DissipativeParams(self.m))
            du, dv = np.array([field(*tuv) for tuv in zip(t.tolist(), u.tolist(),
                                                           v.tolist())]).T
        d1, d2 = du / scale - l * self.f1, -dv / scale - l * self.f2
        return s, np.column_stack([self.f1, self.f2, d1, d2])

    def at(self, ln_r) -> tuple[np.ndarray, np.ndarray]:
        """(f1, f2) at each ln r in ``ln_r`` inside the sampled range: one Hermite cell each."""
        s, table = self.hermite
        f = hermite(s, table[:, :2], table[:, 2:], ln_r)
        return f[..., 0], f[..., 1]


def default_gamma0(dim: int) -> np.ndarray:
    g = np.zeros(dim, dtype=np.complex128)
    g[0] = 1.0
    return g


def _x_dot(rep: CliffordRep, x: np.ndarray, gamma0: np.ndarray) -> np.ndarray:
    out = np.zeros(rep.dim, dtype=np.complex128)
    for k in range(rep.m):
        if x[k] != 0.0:
            out += x[k] * (rep.alphas[k] @ gamma0)
    return out


def ansatz_eval(
    rep: CliffordRep, f1: float, f2: float, gamma0: np.ndarray, x
) -> np.ndarray:
    """f1 gamma0 + (f2/|x|) sum_k x_k alpha_k gamma0."""
    x = np.asarray(x, dtype=float)
    if x.shape != (rep.m,):
        raise ValueError(f"x must have shape ({rep.m},)")
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise OriginEvaluation("field is undefined at the origin")
    gamma0 = np.asarray(gamma0, dtype=np.complex128)
    return f1 * gamma0 + (f2 / r) * _x_dot(rep, x, gamma0)


def dirac_on_ansatz_closed(
    rep: CliffordRep, f1, f2, f1_prime, f2_prime, x, gamma0
) -> np.ndarray:
    """Closed-form Dirac action on the radial two-function field.

    D psi = -(f2'(r) + (m-1) f2(r)/r) gamma0 + (f1'(r)/r) x . gamma0,
    with m the ambient dimension and r = |x|.
    """
    x = np.asarray(x, dtype=float)
    m = rep.m
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise OriginEvaluation("field is undefined at the origin")
    gamma0 = np.asarray(gamma0, dtype=np.complex128)
    radial = -(f2_prime(r) + (m - 1) * f2(r) / r)
    return radial * gamma0 + (f1_prime(r) / r) * _x_dot(rep, x, gamma0)


def profile_from_phase(
    kind: str, m: int, traj: Trajectory, gamma0: np.ndarray | None = None
) -> SpinorProfile:
    """Map a phase-plane trajectory to the radial profile via r = e^{-t}.

    Raises NonFiniteProfile, naming the first such t, where f1 or f2 is
    not finite: u e^{l t} leaves the double range, as a long dissipative
    shoot's tail does at m >= 4.
    """
    l = lambda_exp(kind, m)
    t = traj.t
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(l * t)
        f1 = -traj.u * growth
        f2 = traj.v * growth
    bad = ~(np.isfinite(f1) & np.isfinite(f2))
    if bad.any():
        raise NonFiniteProfile(
            f"f1 = -u e^(lt) or f2 = v e^(lt) is not finite at t = {float(t[bad].min())!r}")
    r = np.exp(-t)
    order = np.argsort(r)
    if gamma0 is None:
        gamma0 = default_gamma0(2 ** (ambient_dim(kind, m) // 2))
    return SpinorProfile(
        kind=kind, m=m, r=r[order], f1=f1[order], f2=f2[order], gamma0=np.asarray(gamma0)
    )


def phase_from_profile(profile: SpinorProfile) -> Trajectory:
    """Inverse of profile_from_phase: u = -f1 r^l, v = f2 r^l, t = -ln r."""
    l = profile.lambda_exp
    t = -np.log(profile.r)
    order = np.argsort(t)
    scale = profile.r ** l
    u = -profile.f1 * scale
    v = profile.f2 * scale
    states = np.column_stack([u[order], v[order]])
    return Trajectory(
        t=t[order],
        states=states,
        energy=np.full(len(t), np.nan),
        terminal_reason="transformed",
    )


def pde_residual(
    kind: str,
    m: int,
    profile: SpinorProfile,
    rep: CliffordRep,
    points,
    h: float = 1e-4,
) -> float:
    """Max residual |D_fd psi - h_nl(x) |psi|^{2/(m-1)} psi| over the points.

    h_nl is 1 for the autonomous kind and (2/(1+|x|^2))^{1/(m-1)} for the
    dissipative kind (m is the system parameter in both exponents).
    D_fd is sum_k alpha_k d/dx_k by central differences of step h. The
    profile is interpolated by its cubic Hermite in ln r
    (``SpinorProfile.at``). ``points`` is a nonempty (n, dim) array-like
    and h a finite positive step; ``kind`` and ``m`` must be the
    profile's. A NaN residual at any point makes the result NaN.

    All stencil points are evaluated in one array pass. Each value is the
    double that a point-by-point evaluation gives: the elementwise steps
    are the same float operations in the same order, and every entry of
    an alpha_k product is one exact product plus zeros, since each row of
    alpha_k holds a single entry in {+-1, +-i}.
    """
    if (kind, m) != (profile.kind, profile.m):
        raise ValueError(f"({kind!r}, {m}) is not the profile's ({profile.kind!r}, {profile.m})")
    dim = ambient_dim(kind, m)
    if rep.m != dim:
        raise ValueError(f"rep dimension {rep.m} != ambient dimension {dim}")
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim or x.shape[0] == 0:
        raise ValueError(f"points must be a nonempty (n, {dim}) array, got shape {x.shape}")
    if h <= 0 or h == math.inf:  # a NaN step fails the range test below
        raise ValueError(f"h must be a finite positive step, got {h}")
    r_lo, r_hi = float(profile.r[0]), float(profile.r[-1])
    # stencil rows: x, then x + h e_k and x - h e_k for each k, point-major
    offsets = np.zeros((2 * dim + 1, dim))
    offsets[1::2] = np.eye(dim) * h
    offsets[2::2] = -offsets[1::2]
    y = (x[:, None, :] + offsets).reshape(-1, dim)
    # |y| as np.linalg.norm takes it, sqrt(y . y); ln |y| on Python floats
    r = np.array([math.sqrt(row.dot(row)) for row in y])
    centre = r[::2 * dim + 1]
    # the stencil width 2h in each coordinate must stay inside the sampled
    # radii; written so that a NaN radius fails it
    for rc in centre.tolist():
        if not (r_lo <= rc - dim * h and rc + dim * h <= r_hi):
            raise PointOutOfRange(
                f"stencil around |x| = {rc} leaves profile range [{r_lo}, {r_hi}]"
            )
    f1, f2 = profile.at([math.log(ri) for ri in r.tolist()])
    gamma0 = np.asarray(profile.gamma0, dtype=np.complex128)
    # psi = f1 gamma0 + (f2/|y|) sum_k y_k alpha_k gamma0, one row per stencil point
    x_dot = np.zeros((len(y), rep.dim), dtype=np.complex128)
    for k in range(dim):
        x_dot += y[:, k, None] * (rep.alphas[k] @ gamma0)
    psi = (f1[:, None] * gamma0 + (f2 / r)[:, None] * x_dot).reshape(len(x), 2 * dim + 1, -1)
    dpsi = np.zeros((len(x), rep.dim), dtype=np.complex128)
    for k in range(dim):
        dpsi += ((psi[:, 2 * k + 1] - psi[:, 2 * k + 2]) / (2 * h)) @ rep.alphas[k].T
    residuals = []
    for rc, p, d in zip(centre.tolist(), psi[:, 0], dpsi):
        hnl = 1.0 if kind == "autonomous" else (2 / (1 + rc * rc)) ** (1 / (m - 1))
        rhs = hnl * float(np.linalg.norm(p)) ** (2 / (m - 1)) * p
        residuals.append(float(np.linalg.norm(d - rhs)))
    # max() alone would drop a NaN that is not first; a NaN makes the sum NaN
    return math.nan if math.isnan(sum(residuals)) else max(residuals)


def decay_fit(
    profile: SpinorProfile,
    end: str = "zero",
    window: float | None = None,
) -> float:
    """Least-squares slope of ln|psi| vs ln r over the outermost tail window.

    ``window`` is the fitted length in ln r; the default is one decade.
    For profiles that oscillate periodically in ln r, pass a window equal
    to a whole number of periods so the oscillation does not bias the fit.
    """
    if end not in ("zero", "infinity"):
        raise ValueError("end must be 'zero' or 'infinity'")
    if window is None:
        window = math.log(10.0)
    r = profile.r
    psi = profile.psi_abs
    if end == "zero":
        mask = r <= r[0] * math.exp(window)
    else:
        mask = r >= r[-1] * math.exp(-window)
    if mask.sum() < DECAY_MIN_SAMPLES or np.any(psi[mask] <= 0):
        raise InsufficientTail(
            f"need >= {DECAY_MIN_SAMPLES} positive samples in the outermost window"
        )
    slope = ls_slope(np.log(r[mask]), np.log(psi[mask]))
    if slope is None:
        raise InsufficientTail("the window's radii do not spread; exponent undefined")
    return slope


def four_component_field(m: int, t: float, state) -> tuple[float, float, float, float]:
    """Doubled dissipative system sharing one magnitude coupling.

    u_i' = c(t) Z^{1/(m-1)} v_i - kappa u_i, v_i' = kappa v_i - c(t) Z^{1/(m-1)} u_i
    with Z = u1^2+v1^2+u2^2+v2^2 and kappa = (m-2)/2. A planar solution
    (u, v) scaled by 1/sqrt(2) and duplicated solves this identically.
    """
    u1, v1, u2, v2 = state
    kappa = (m - 2) / 2
    z = u1 * u1 + v1 * v1 + u2 * u2 + v2 * v2
    nl = math.cosh(t) ** (-1 / (m - 1)) * z ** (1 / (m - 1))
    return (
        nl * v1 - kappa * u1,
        kappa * v1 - nl * u1,
        nl * v2 - kappa * u2,
        kappa * v2 - nl * u2,
    )
