"""Nonautonomous planar system with a decaying coupling factor.

u' = cosh(t)^{-1/(m-1)} (u^2+v^2)^{1/(m-1)} v - kappa*u,
v' = kappa*v - cosh(t)^{-1/(m-1)} (u^2+v^2)^{1/(m-1)} u,  kappa = (m-2)/2.

The energy H is nonincreasing along forward orbits. Shooting from the
diagonal (mu, mu) at t = 0 classifies initial data into: class A (the
energy eventually becomes nonpositive, after which the orbit is trapped
in a quadrant and grows), I-candidates (energy stays positive and the
orbit decays like e^{-(m-2)t}), or undetermined at the horizon.
Backward time is never integrated; the symmetry u(-t) = v(t) supplies it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .numerics import (
    IntegrationError,
    StepLimitExceeded,
    Tolerances,
    Trajectory,
    integrate,
    ls_slope,
)

__all__ = [
    "DissipativeParams",
    "Thresholds",
    "ShootingOutcome",
    "BracketInvalid",
    "TailTooShort",
    "hamiltonian_t",
    "time_field",
    "polar_field",
    "shoot",
    "sign_changes",
    "boundary_bisect",
    "rescaled_limit",
    "rescale_compare",
    "envelope_check",
    "classify_sweep",
]

# interior points classified per boundary_bisect round: 4 bits per solve
BISECT_LANES = 15
# step attempts per turn of the orbit near t = 0 are at least this many at
# rtol 1e-10; measured no fewer than 17.4 for m = 3..12, mu = 10..1e4
MIN_ATTEMPTS_PER_TURN = 5.0
# the envelope is the decay rate of ln(u^2+v^2) over the last this many time units
TAIL_WINDOW = 5.0
# samples of rescale_compare's window
RESCALE_SAMPLES = 2001


class BracketInvalid(ValueError):
    pass


class TailTooShort(ValueError):
    pass


@dataclass(frozen=True)
class DissipativeParams:
    """System dimension parameter m >= 3; kappa = (m-2)/2 > 0."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 3:
            raise ValueError("m must be an integer >= 3")

    @property
    def kappa(self) -> float:
        return (self.m - 2) / 2


@dataclass(frozen=True)
class Thresholds:
    decay_threshold: float = 1e-6
    fit_tol: float = 0.2
    deadband: float = 1e-9


@dataclass(frozen=True)
class ShootingOutcome:
    mu: float
    k: int
    cls: str  # "A" | "I-candidate" | "undetermined"
    t_end: float
    H_tail: float
    envelope: float | None
    first_nonpositive_H: float | None
    trajectory: Trajectory | None = None

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "k": self.k,
            "class": self.cls,
            "t_end": self.t_end,
            "H_tail": self.H_tail,
            "envelope": self.envelope,
            "first_nonpositive_H": self.first_nonpositive_H,
        }


def hamiltonian_t(params: DissipativeParams, t, u, v):
    """H(t, u, v); numpy-broadcast over t, u and v."""
    m = params.m
    z = u * u + v * v
    return (
        -params.kappa * u * v
        + (m - 1) / (2 * m) * np.cosh(t) ** (-1 / (m - 1)) * z ** (m / (m - 1))
    )


def time_field(params: DissipativeParams):
    """The field as ``field(t, u, v)`` for numerics.integrate; u, v may be arrays."""
    kappa = params.kappa
    e = 1 / (params.m - 1)
    c = -1 / (params.m - 1)

    def field(t: float, u, v):
        z = u * u + v * v
        nl = math.cosh(t) ** c * z ** e
        return nl * v - kappa * u, kappa * v - nl * u

    return field


def polar_field(params: DissipativeParams):
    """The field in rho = ln(u^2+v^2) and phi = atan2(v, u), as ``field(t, rho, phi)``.

    rho' = -2 kappa cos 2phi and phi' = kappa sin 2phi - N, with the
    coupling N = cosh(t)^(-1/(m-1)) e^(rho/(m-1)) of ``time_field``. It is
    regular wherever u^2 + v^2 > 0, which always holds once H <= 0; there
    rho and phi vary slowly while u and v grow like sqrt(cosh t).
    """
    kappa = params.kappa
    e = 1 / (params.m - 1)
    c = -1 / (params.m - 1)

    def field(t: float, rho, phi):
        nl = math.cosh(t) ** c * np.exp(e * rho)
        two_phi = 2 * phi
        return -2 * kappa * np.cos(two_phi), kappa * np.sin(two_phi) - nl

    return field


def sign_changes(traj: Trajectory, component: str = "v", deadband: float = 1e-9) -> int:
    """Count strict sign alternations of one component with hysteresis.

    A crossing counts only between samples whose magnitude exceeds the
    deadband; excursions that never leave the deadband are ignored.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    vals = traj.u if component == "u" else traj.v
    signs = np.sign(vals[np.abs(vals) > deadband])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _sign_flips(v: np.ndarray, last: np.ndarray, deadband: float):
    """The samples where each column of v, (n, lanes), changes sign, as ``sign_changes`` counts.

    ``last`` holds each lane's sign before these samples (0 for none yet).
    Returns an (n, lanes) bool array, true at each sample that makes a
    change, and each lane's last sign. A sample within the deadband takes
    the sign before it (a forward fill), and a change counts only between
    two nonzero signs.
    """
    signs = np.empty((len(v) + 1, v.shape[1]))
    signs[0] = last
    np.copysign(np.abs(v) > deadband, v, out=signs[1:])
    at = np.where(signs != 0, np.arange(len(signs))[:, None], 0)
    np.maximum.accumulate(at, axis=0, out=at)
    signs = np.take_along_axis(signs, at, axis=0)
    return (signs[1:] != signs[:-1]) & (signs[:-1] != 0), signs[-1]


def _side_stop(params: DissipativeParams, y0: np.ndarray, side: int | None, deadband: float):
    """The ``stop`` of ``_solve``: true at the grid samples where every lane is decided.

    A lane is decided once H <= 0 (it is trapped, so its count is final),
    or, with ``side``, once v has changed sign more than ``side`` times
    outside the deadband so far (a count over more samples is never
    smaller). The count and each lane's last sign carry from one fill to
    the next; H is evaluated on a whole fill only when every lane is
    decided at its last sample, since H never rises.
    """
    en = partial(hamiltonian_t, params)
    v0 = np.reshape(y0[1], (1, -1))
    last = _sign_flips(v0, np.zeros(v0.shape[1]), deadband)[1]
    count = 0

    def stop(t, u, v):
        nonlocal count, last
        n = len(t)
        t = t.reshape((-1,) + (1,) * (u.ndim - 1))
        if side is not None:
            flips, last = _sign_flips(v.reshape(n, -1), last, deadband)
            before, count = count, count + flips.sum(axis=0)
        decided = en(t[-1:], u[-1:], v[-1:]).reshape(-1) <= 0.0
        if side is not None:
            decided |= count > side
        if not decided.all():
            return np.zeros(n, dtype=bool)
        decided = en(t, u, v).reshape(n, -1) <= 0.0
        if side is not None:
            decided |= before + np.cumsum(flips, axis=0) > side
        return decided.all(axis=1)

    return stop


def shoot(
    params: DissipativeParams,
    mu: float,
    t_max: float = 60.0,
    thresholds: Thresholds = Thresholds(),
    tol: Tolerances = Tolerances(),
    n_samples: int = 4001,
) -> ShootingOutcome:
    """Integrate from (mu, mu) at t = 0 and classify the forward orbit.

    Class A: H reaches a nonpositive value (the orbit is then unbounded).
    I-candidate: H stays positive, u^2+v^2 falls below decay_threshold,
    and the tail decay rate of ln(u^2+v^2) is within fit_tol of -(m-2).
    Otherwise undetermined at the horizon. A NonFiniteState blow-up after
    H <= 0 still classifies as A from the partial trajectory.

    The orbit is followed in (u, v) until the first grid sample with
    H <= 0, and from there to ``t_max`` in ``polar_field``, which needs
    fewer steps on the growing trapped tail (``_solve``). The trajectory
    holds both phases on the one grid, in (u, v), with their steps summed.

    No orbit is followed past the float range: the coupling's cosh(t)
    overflows at t = 710.48, where a longer t_max ends with H_tail < 0.
    A class-A orbit grows like u^2 + v^2 <= C cosh t, so u^2 + v^2 itself
    overflows a few units later (t = 717.83 at m = 3, mu = 0.6) however
    the coupling is written.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    _check_work(params, mu, t_max, tol)

    try:
        traj = _solve(params, np.array([mu, mu]), t_max, tol, n_samples)
    except IntegrationError as exc:
        traj = exc.trajectory
        if traj is None or len(traj) < 2:
            raise

    return replace(_outcomes(params, [mu], traj, thresholds)[0], trajectory=traj)


def _solve(
    params: DissipativeParams,
    y0: np.ndarray,
    t_max: float,
    tol: Tolerances,
    n_samples: int,
    side: int | None = None,
    deadband: float = Thresholds().deadband,
    window_only: bool = False,
) -> Trajectory:
    """Solve from y0 (one lane, or a (2, lanes) stack) at t = 0 to ``t_max``.

    Phase 1 integrates ``time_field``. With ``side=None`` it ends at the
    first grid sample where H <= 0 on every lane. Each lane is then
    trapped: u and v keep their signs and u^2 + v^2 > 0 (docs/decisions.md,
    "The trap stop"). Phase 2 continues from that sample in ``polar_field``
    on the rest of the grid, and its samples are mapped back to (u, v),
    with H formed from (t, rho, phi). A lane that never traps keeps phase 1
    to ``t_max``. An IntegrationError in phase 2 carries both phases joined:
    phase 2's formed samples and step ends.

    With ``window_only`` phase 2 forms only the grid samples of the last
    TAIL_WINDOW time units, all that ``_outcomes`` reads of a trapped tail
    (docs/decisions.md, "A sweep forms only the tail it reads"): the
    trajectory is phase 1 followed by those samples, and its steps and
    formed samples are the doubles of the whole tail's.

    With ``side=k`` phase 1 ends at the first grid sample where every lane
    has H <= 0 or more than k sign changes of v outside ``deadband`` so far
    (``_side_stop``), and the solve returns there: each lane's count is
    then final, or already known to exceed k.
    """
    grid = np.linspace(0.0, t_max, n_samples)
    head = integrate(time_field(params), y0, grid, tol=tol,
                     energy=partial(hamiltonian_t, params),
                     stop=_side_stop(params, y0, side, deadband))
    if side is not None or head.terminal_reason != "stopped":
        return head
    # only the samples reached are kept, so phase 1's full-grid array goes
    head = replace(head, states=head.states.copy())
    u, v = head.states[-1]
    start = np.array([2 * np.log(np.hypot(u, v)), np.arctan2(v, u)])
    # phase 2 starts at phase 1's last sample, grid[n - 1]
    n = len(head)
    tail = grid[n - 1:]
    if window_only:
        window = max(int(np.searchsorted(grid, t_max - TAIL_WINDOW)), n)
        tail = np.concatenate([grid[n - 1:n], grid[window:]])
    try:
        # the polar trajectory is passed unbound, for _join to free
        return _join(params, head, integrate(polar_field(params), start, tail, tol=tol))
    except IntegrationError as exc:
        if exc.trajectory is not None:
            exc.trajectory = _join(params, head, exc.trajectory)
        raise


def _join(params: DissipativeParams, head: Trajectory, polar: Trajectory) -> Trajectory:
    """``head`` followed by ``polar`` after its first sample, in (u, v).

    ``polar`` starts at ``head``'s last sample and may hold only some
    samples of the grid (the tail window of a sweep, or the formed samples
    and step ends of a failed solve); only those are mapped.
    H on the polar samples is e^rho ((m-1)/(2m) N - (kappa/2) sin 2phi), with
    N the coupling of ``polar_field``: it never forms z^(m/(m-1)), which
    overflows from t ~ 700 on. H and the mapped samples are written into
    the output arrays, and a ``polar`` passed unbound is released here.
    """
    n, m = len(head), params.m
    t = np.concatenate([head.t, polar.t[1:]])
    states = np.empty((len(t),) + head.states.shape[1:])
    states[:n] = head.states
    energy = np.empty(states.shape[:1] + states.shape[2:])
    energy[:n] = head.energy
    accepted = head.steps_accepted + polar.steps_accepted
    rejected = head.steps_rejected + polar.steps_rejected
    reason = polar.terminal_reason
    with np.errstate(over="ignore", invalid="ignore"):
        rho, phi = polar.states[1:, 0], polar.states[1:, 1]
        h = energy[n:]
        np.exp(rho / (m - 1), out=h)
        cosh_t = np.cosh(t[n:].reshape((-1,) + (1,) * (h.ndim - 1)))
        h *= (m - 1) / (2 * m) * cosh_t ** (-1 / (m - 1))
        h -= params.kappa / 2 * np.sin(2 * phi)
        h *= np.exp(rho)
        r = np.exp(0.5 * rho)
        np.multiply(r, np.cos(phi, out=states[n:, 0]), out=states[n:, 0])
        np.multiply(r, np.sin(phi, out=states[n:, 1]), out=states[n:, 1])
        del polar, rho, phi, r
    return Trajectory(t, states, energy, accepted, rejected, reason)


def _check_work(params: DissipativeParams, mu: float, t_max: float, tol: Tolerances) -> None:
    """Raise StepLimitExceeded at once if the first turns alone outspend ``tol.max_steps``.

    Near t = 0 the orbit from (mu, mu) turns at the rate (2 mu^2)^(1/(m-1))
    and keeps about that rate until t = 1, so the solve needs at least
    MIN_ATTEMPTS_PER_TURN attempts per turn made by min(t_max, 1); an
    8th-order step grows like tol^(1/8), which scales that count to a
    looser ``tol``. An infinite z = 2 mu^2 is left to ``integrate``.
    """
    span = min(t_max, 1.0)
    turns = (2 * mu * mu) ** (1 / (params.m - 1)) * span / (2 * math.pi)
    loosest = max(tol.rel_tol, tol.abs_tol, 100 * np.finfo(float).eps)
    need = MIN_ATTEMPTS_PER_TURN * turns * (1e-10 / loosest) ** (1 / 8)
    if math.isfinite(need) and need > tol.max_steps:
        raise StepLimitExceeded(
            f"mu = {mu!r} turns about {turns:.3g} times by t = {span!r}, which needs "
            f"at least {need:.3g} step attempts; max_steps is {tol.max_steps}")


def _outcomes(
    params: DissipativeParams, mus: list[float], traj: Trajectory, thresholds: Thresholds
) -> list[ShootingOutcome]:
    """The classification rules of ``shoot`` applied to every lane of ``traj`` at once.

    k is each lane's ``sign_changes`` of v, and the class comes from the
    first H <= 0 or else the decay test on u^2 + v^2 at the end. The
    envelope is the least-squares slope of ln(u^2+v^2) over the last
    TAIL_WINDOW time units, formed on that window alone: None with fewer
    than 10 positive samples there, or when their times do not spread (a
    horizon of a few float spacings).
    """
    n = len(traj)
    u, v = traj.u.reshape(n, -1), traj.v.reshape(n, -1)
    energy = traj.energy.reshape(n, -1)
    ks = _sign_flips(v, np.zeros(v.shape[1]), thresholds.deadband)[0].sum(axis=0)
    nonpos = energy <= 0.0
    first = nonpos.argmax(axis=0)
    with np.errstate(over="ignore"):
        z_final = u[-1] ** 2 + v[-1] ** 2
    t_end = float(traj.t[-1])
    tail = int(np.searchsorted(traj.t, t_end - TAIL_WINDOW))
    t_tail, r = traj.t[tail:], np.hypot(u[tail:], v[tail:])

    outcomes = []
    for i, mu in enumerate(mus):
        pos = r[:, i] > 0
        # ln z as 2 ln r stays finite where z = r^2 overflows, as near t = 710
        slope = (ls_slope(t_tail[pos], 2 * np.log(r[pos, i]))
                 if np.count_nonzero(pos) >= 10 else None)
        if nonpos[first[i], i]:
            cls = "A"
        elif (
            z_final[i] < thresholds.decay_threshold
            and slope is not None
            and abs(slope + (params.m - 2)) <= thresholds.fit_tol * (params.m - 2)
        ):
            cls = "I-candidate"
        else:
            cls = "undetermined"
        outcomes.append(ShootingOutcome(
            mu=mu,
            k=int(ks[i]),
            cls=cls,
            t_end=t_end,
            H_tail=float(energy[-1, i]),
            envelope=slope,
            first_nonpositive_H=float(traj.t[first[i]]) if cls == "A" else None,
        ))
    return outcomes


def boundary_bisect(
    params: DissipativeParams,
    k: int,
    mu_lo: float,
    mu_hi: float,
    tol: float = 1e-8,
    t_max: float = 60.0,
    thresholds: Thresholds = Thresholds(),
) -> tuple[float, float, list[dict]]:
    """Locate the mu where the sign-change count goes from <= k to >= k+1.

    Requires k(mu_lo) <= k and k(mu_hi) >= k+1, checked by one 2-lane solve.
    Each round classifies BISECT_LANES evenly spaced interior points of the
    bracket [a, b] in one stacked solve and keeps the adjacent pair where k
    first exceeds the target, gaining 4 bits per round; the last round uses
    only as many points as reaching ``tol`` needs. Each point takes a side
    by its sign-change count alone, so a solve (the end check's too) ends
    once every lane's side is decided: H <= 0 (k is final then) or more
    than k sign changes so far (``_solve`` with ``side=k``). The counts,
    and so the brackets, are those of solves run to the trap on every lane.
    A round with a lane that is neither keeps running to ``t_max``. Such
    lanes are expected near the boundary, where the decaying layer lives:
    the lanes that are not class A are returned in the diagnostics, from
    every round but those whose stacked solve ended at that stop (a round
    shot lane by lane after a failed stacked solve is listed too). So a
    lane above k that never traps, in a round whose other lanes are all
    decided, ends that round early and is not listed. The loop also ends
    when the bracket holds no double between its ends, so a ``tol`` below
    the float spacing returns adjacent doubles.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number")
    (lo, hi), _ = _shoot_lanes(params, [mu_lo, mu_hi], t_max, thresholds, side=k)
    if lo.k > k or hi.k < k + 1:
        # a count above k is counted only up to the stop
        got = [f"k(mu_lo) >= {lo.k}"] if lo.k > k else []
        got += [f"k(mu_hi) = {hi.k}"] if hi.k < k + 1 else []
        raise BracketInvalid(
            f"need k(mu_lo) <= {k} and k(mu_hi) >= {k + 1}; got {' and '.join(got)}")
    diagnostics: list[dict] = []
    a, b = mu_lo, mu_hi
    while b - a > tol:
        ratio = (b - a) / tol
        n = BISECT_LANES if ratio > BISECT_LANES + 1 else math.ceil(ratio) - 1
        mus = [float(x) for x in np.unique(np.linspace(a, b, n + 2)) if a < x < b]
        if not mus:
            break
        outs, stopped = _shoot_lanes(params, mus, t_max, thresholds, side=k)
        if not stopped:
            diagnostics += [o.to_json_dict() for o in outs if o.cls != "A"]
        grid = [a, *mus, b]
        j = next((i for i, o in enumerate(outs, 1) if o.k > k), len(grid) - 1)
        a, b = grid[j - 1], grid[j]
    return a, b, diagnostics


def rescaled_limit(params: DissipativeParams, t):
    """Closed-form limit of the blown-up flow near t = 0 for large mu; numpy-broadcast over t."""
    w = 2 ** (1 / (params.m - 1)) * t + math.pi / 4
    return math.sqrt(2) * np.sin(w), math.sqrt(2) * np.cos(w)


def rescale_compare(params: DissipativeParams, mu: float, T: float = 5.0) -> float:
    """Sup-distance on the rescaled window [0, T] to the closed-form limit.

    The trajectory is integrated in original time over [0, eps^{2/(m-1)} T]
    with eps = 1/mu, sampled at RESCALE_SAMPLES times, then mapped by the
    exact rescaling identity.
    """
    if not mu >= 1:
        raise ValueError("mu must be >= 1")
    eps = 1.0 / mu
    scale = eps ** (2 / (params.m - 1))
    traj = integrate(time_field(params), (mu, mu), np.linspace(0.0, scale * T, RESCALE_SAMPLES))
    U0, V0 = rescaled_limit(params, traj.t / scale)
    return float(np.max(np.hypot(eps * traj.u - U0, eps * traj.v - V0)))


def envelope_check(
    params: DissipativeParams,
    traj: Trajectory,
    cls: str,
    tail_start: float | None = None,
) -> dict:
    """Tail-envelope fit for a classified trajectory.

    Class A: smallest C with u^2+v^2 <= C cosh(t) on the tail.
    I-candidate: least-squares decay exponent of ln(u^2+v^2), expected
    close to -(m-2).
    """
    if len(traj) < 2:
        raise TailTooShort("trajectory has fewer than 2 samples")
    t_end = float(traj.t[-1])
    start = tail_start if tail_start is not None else max(5.0, t_end - 0.5 * t_end)
    mask = traj.t >= start
    if mask.sum() < 10 or t_end - start < 5.0:
        raise TailTooShort(f"tail [{start}, {t_end}] too short for a fit")
    z = traj.u[mask] ** 2 + traj.v[mask] ** 2
    if cls == "A":
        c = float(np.max(z / np.cosh(traj.t[mask])))
        return {"class": "A", "cosh_envelope_C": c, "tail_start": start}
    if np.any(z <= 0):
        raise TailTooShort("tail contains zero magnitude; exponent undefined")
    slope = ls_slope(traj.t[mask], np.log(z))
    if slope is None:
        raise TailTooShort("tail times do not spread; exponent undefined")
    return {
        "class": cls,
        "decay_exponent": slope,
        "expected_exponent": -(params.m - 2),
        "tail_start": start,
    }


def classify_sweep(
    params: DissipativeParams,
    mu_grid,
    t_max: float = 60.0,
    thresholds: Thresholds = Thresholds(),
    jobs: int = 1,
) -> list[ShootingOutcome]:
    """Classify every grid value as ``shoot`` does; result in grid order.

    All lanes are integrated together as one stacked system, so the step
    sizes are shared and each lane's floats differ slightly from a lone
    ``shoot``. Once every lane has H <= 0 the stack goes on to ``t_max`` in
    ``polar_field``, as ``shoot`` does, but forms only the samples of the
    last TAIL_WINDOW time units there, all that the classification reads
    of a trapped tail; the outcomes are the doubles of a solve that forms
    them all. A grid with a lane that never traps runs in (u, v)
    throughout. If the stacked solve fails, each lane is shot on its own.
    ``jobs`` is deprecated and ignored: the stacked solve is already
    faster than a process pool, and its output does not depend on it.
    """
    if jobs != 1:
        warnings.warn("classify_sweep(jobs=...) is deprecated and ignored",
                      DeprecationWarning, stacklevel=2)
    mus = [float(mu) for mu in mu_grid]
    if sorted(mus) != mus:
        raise ValueError("mu grid must be increasing")
    return _shoot_lanes(params, mus, t_max, thresholds)[0]


def _shoot_lanes(
    params: DissipativeParams,
    mus: list[float],
    t_max: float,
    thresholds: Thresholds,
    side: int | None = None,
) -> tuple[list[ShootingOutcome], bool]:
    """Classify each mu as ``shoot`` does, all lanes in one stacked solve.

    The solve is ``_solve``'s: in (u, v) up to the first grid sample where
    H <= 0 on every lane, then in ``polar_field`` to ``t_max``. With
    ``side=k`` it ends at the first sample where every lane has H <= 0 or
    more than k sign changes: H never rises again and keeps kappa*u*v > 0,
    so a trapped lane's k, class and first nonpositive H are final there,
    and a lane above k keeps ``k > side``. If the stacked solve fails, in
    either coordinate system, each lane is shot on its own.

    Returns the outcomes in ``mus`` order and whether the stacked solve
    ended at that ``side`` stop, where an untrapped lane was cut short.
    """
    if any(not mu > 0 for mu in mus):
        raise ValueError("mu must be positive")
    if not mus:
        return [], False
    _check_work(params, max(mus), t_max, Tolerances())
    try:
        traj = _solve(params, np.array([mus, mus]), t_max, Tolerances(), 4001, side,
                      thresholds.deadband, window_only=True)
    except IntegrationError:
        return [replace(shoot(params, mu, t_max, thresholds), trajectory=None)
                for mu in mus], False
    return _outcomes(params, mus, traj, thresholds), traj.terminal_reason == "stopped"
