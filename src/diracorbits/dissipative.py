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
from dataclasses import dataclass, fields, replace

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
    "boundary_bisect",
    "rescaled_limit",
    "rescale_compare",
    "envelope_check",
    "classify_sweep",
]

# interior points classified per boundary_bisect round: 4 bits per round,
# two rounds (255 lanes) and so 8 bits per solve
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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and >= 0, got {value!r}")


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


class _StepWatch:
    """The ``stop`` of ``_solve``'s phase 1: reads every lane at each step end.

    It counts the sign changes of v outside the deadband (a step end inside
    it keeps the sign before it) and forms H. With ``side=None``, only a
    lane's trap step, its first step end with H <= 0, forms its grid
    samples, to find its first grid time with H <= 0: the next one if the
    step holds none, since H never rises. With ``side=k`` no caller reads
    that time, so the trap step's end stands for it and no sample is
    formed. It stops at the first step end before ``t_max`` where every
    lane is decided: it has H <= 0, or, with ``side=k``, more than k
    changes. ``t`` and ``y`` hold the last step end and the state there:
    after a stop, the handoff.
    """

    def __init__(self, params, grid, y0, side, deadband):
        self.params, self.grid, self.side, self.deadband = params, grid, side, deadband
        self.sign = np.copysign(np.abs(y0[1]) > deadband, y0[1])
        self.count = np.zeros(y0.shape[1], dtype=int)
        self.first = np.where(hamiltonian_t(params, 0.0, y0[0], y0[1]) <= 0.0, 0.0, np.nan)
        self.first_end = np.full(y0.shape[1], np.nan)  # the trap step's end
        self.t, self.y = 0.0, y0

    def __call__(self, t, y, dense):
        grid, (u, v) = self.grid, y
        signs = np.copysign(np.abs(v) > self.deadband, v)
        self.count += signs * self.sign < 0
        self.sign = np.where(signs != 0, signs, self.sign)
        new = (hamiltonian_t(self.params, t, u, v) <= 0.0) & np.isnan(self.first)
        t_old, self.t, self.y = self.t, t, y
        if new.any():
            self.first_end[new] = self.first[new] = t
            if self.side is None:
                # the step's grid samples; the last one is the last step's end
                lo, hi = np.searchsorted(grid, [t_old, t], side="right")
                at = np.zeros(new.sum(), dtype=int)
                if hi > lo:
                    ys = dense(grid[lo:hi])
                    if hi == len(grid):
                        ys[-1] = y
                    hit = hamiltonian_t(self.params, grid[lo:hi, None], ys[:, 0], ys[:, 1]) <= 0.0
                    at = np.where(hit[:, new].any(axis=0), hit[:, new].argmax(axis=0), hi - lo)
                # none in the step: the next grid time, or t_max at the last step
                self.first[new] = grid[np.minimum(lo + at, len(grid) - 1)]
        decided = ~np.isnan(self.first)
        if self.side is not None:
            decided |= self.count > self.side
        return t < grid[-1] and bool(decided.all())


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
    Otherwise undetermined at the horizon. A solve that fails (a blow-up,
    or ``tol.max_steps`` spent) is classified from its partial trajectory;
    a field that is not finite at (mu, mu) raises NonFiniteState.

    The orbit is followed in (u, v) until the end of the step where H
    first is <= 0, and from there to ``t_max`` in ``polar_field``, which
    needs fewer steps on the growing trapped tail (``_solve``). The
    trajectory holds both phases on the one grid, in (u, v), with their
    steps summed; the record reads only the rows a sweep forms.

    No orbit is followed past the float range: the coupling's cosh(t)
    overflows at t = 710.48, where a longer t_max ends with H_tail < 0.
    A class-A orbit grows like u^2 + v^2 <= C cosh t, so u^2 + v^2 itself
    overflows a few units later (t = 717.83 at m = 3, mu = 0.6) however
    the coupling is written.
    """
    traj, ks, first = _solve(params, [mu], t_max, tol, n_samples,
                             deadband=thresholds.deadband, keep=True)
    grid = np.linspace(0.0, t_max, n_samples)[1:]
    read = (traj.t >= t_max - TAIL_WINDOW) | (grid[np.searchsorted(grid, traj.t)] != traj.t)
    sub = replace(traj, t=traj.t[read], states=traj.states[read], energy=traj.energy[read])
    out = _outcomes(params, [mu], sub, ks, first, thresholds)[0]
    traj = replace(traj, states=traj.states.reshape(-1, 2), energy=traj.energy.reshape(-1))
    return replace(out, trajectory=traj)


def _solve(
    params: DissipativeParams,
    mus: list[float],
    t_max: float,
    tol: Tolerances = Tolerances(),
    n_samples: int = 4001,
    side: int | None = None,
    deadband: float = Thresholds().deadband,
    keep: bool = False,
) -> tuple[Trajectory, np.ndarray, np.ndarray]:
    """One stacked solve of the lanes (mu, mu) from t = 0 to ``t_max`` on ``n_samples`` times.

    Before any solve it refuses, with ValueError, a mu or a ``t_max`` that
    is not finite and positive, fewer than 2 samples, or a ``t_max`` too
    small for ``n_samples`` increasing times, and runs ``_check_work``.
    Returns the trajectory, and each lane's k and first grid time with
    H <= 0 (NaN for none; with ``side=k``, the end of the step where H
    first is <= 0), read at phase 1's step ends by ``_StepWatch``.
    Phase 1 integrates ``time_field``. With ``side=None`` it ends at the
    trap step's end, the first step end before ``t_max`` where every lane
    has H <= 0 (docs/decisions.md, "Handoff at the trap step; one failure
    rule"), and phase 2 goes on from the state there in ``polar_field``.
    With ``side=k`` the solve returns where every lane's side of k is
    decided: H never rises again and keeps kappa*u*v > 0, so a trapped
    lane's k is final there, and a lane above k stays above it. ``keep``
    forms every grid sample; otherwise only the initial sample and the
    last TAIL_WINDOW time units are formed, all that ``_outcomes`` reads. A
    failed solve returns its formed samples and the failing ``integrate``'s
    step ends, and a lane whose first grid time with H <= 0 lies past its
    end reports its trap step's end instead (docs/decisions.md, "A failure
    keeps what integrate formed"); a failure with no trajectory raises.
    """
    if not all(0 < mu < math.inf for mu in mus):
        raise ValueError("mu must be finite and positive")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    if not n_samples >= 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples!r}")
    grid = np.linspace(0.0, t_max, n_samples)
    if not np.all(grid[1:] > grid[:-1]):
        raise ValueError(f"t_max = {t_max!r} is too small for {n_samples} increasing sample times")
    _check_work(params, max(mus), t_max, tol)
    y0 = np.array([mus, mus], dtype=float)
    times = grid if keep else grid[(grid == 0.0) | (grid >= t_max - TAIL_WINDOW)]
    watch = _StepWatch(params, grid, y0, side, deadband)
    pieces = []
    try:
        pieces.append(integrate(time_field(params), y0, times, tol=tol, stop=watch))
        if side is None and pieces[0].terminal_reason == "stopped":
            (u, v), t = watch.y, watch.t
            start = np.array([2 * np.log(np.hypot(u, v)), np.arctan2(v, u)])
            times = np.concatenate([[t], times[times > t]])
            pieces.append(integrate(polar_field(params), start, times, tol=tol))
    except IntegrationError as exc:
        if exc.trajectory is None:
            raise
        pieces.append(exc.trajectory)
    traj = _join(params, *pieces)
    return traj, watch.count, np.where(watch.first > traj.t[-1], watch.first_end, watch.first)


def _join(params: DissipativeParams, head: Trajectory,
          polar: Trajectory | None = None) -> Trajectory:
    """``head`` with H at each sample, then ``polar`` in (u, v) after its first sample, the handoff.

    States are (n, 2, lanes); only t, the states, the steps and the
    terminal reason of each piece are read. H on the polar samples is
    e^rho ((m-1)/(2m) N - (kappa/2) sin 2phi), with N the coupling of
    ``polar_field``: it never forms z^(m/(m-1)), which overflows from
    t ~ 700 on.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        energy = hamiltonian_t(params, head.t[:, None], head.states[:, 0], head.states[:, 1])
        if polar is None:
            return replace(head, energy=energy)
        m, t = params.m, polar.t[1:, None]
        rho, phi = polar.states[1:, 0], polar.states[1:, 1]
        coupling = (m - 1) / (2 * m) * np.cosh(t) ** (-1 / (m - 1))
        h = (np.exp(rho / (m - 1)) * coupling - params.kappa / 2 * np.sin(2 * phi)) * np.exp(rho)
        r = np.exp(0.5 * rho)
        states = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
    return Trajectory(np.concatenate([head.t, polar.t[1:]]),
                      np.concatenate([head.states, states]), np.concatenate([energy, h]),
                      head.steps_accepted + polar.steps_accepted,
                      head.steps_rejected + polar.steps_rejected, polar.terminal_reason)


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


def _outcomes(params: DissipativeParams, mus: list[float], traj: Trajectory, ks: np.ndarray,
              first: np.ndarray, thresholds: Thresholds) -> list[ShootingOutcome]:
    """The classification rules of ``shoot`` applied to every lane of ``traj`` at once.

    ``ks`` and ``first`` come from ``_solve``. The class comes from the
    first H <= 0 or else the decay test on u^2 + v^2 at the end. The
    envelope is the least-squares slope of ln(u^2+v^2) over the last
    TAIL_WINDOW time units, formed on that window alone: None with fewer
    than 10 positive samples there, or when their times do not spread (a
    horizon of a few float spacings).
    """
    u, v, energy = traj.u, traj.v, traj.energy
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
        if not math.isnan(first[i]):
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
            first_nonpositive_H=float(first[i]) if cls == "A" else None,
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

    Requires finite 0 < mu_lo < mu_hi, checked before any solve, and
    k(mu_lo) <= k and k(mu_hi) >= k+1, checked on the first solve. Each
    round classifies BISECT_LANES evenly spaced interior points of the
    bracket [a, b] and keeps the adjacent pair where k first exceeds the
    target, gaining 4 bits; the last round uses only as many points as
    reaching ``tol`` needs (``_round_points``). One stacked solve takes two
    rounds, 8 bits: the points of [a, b] and, for each of its sub-intervals,
    that sub-interval's own next-round points, 255 lanes in all. The
    rounds are paired from the last one back, so the first solve holds the
    end check and one round when the number of rounds is odd, two when it
    is even. Each point takes a side by its sign-change count alone, so a
    solve ends at the first step end where every lane's side is decided:
    H <= 0 (k is final then) or more than k sign changes so far (``_solve``
    with ``side=k``). The counts, and so the brackets, are those of one
    round per solve, each run to the trap on every lane.
    A solve with a lane that is neither keeps running to ``t_max``. Such
    lanes are expected near the boundary, where the decaying layer lives:
    the lanes that are not class A are returned in the diagnostics, from
    every round taken that still holds one where its solve ends, as when
    the round is solved alone (a solve that failed is classified from its
    partial one). So a lane above k that never traps, in a round whose
    other lanes are all decided, ends that round early and is not listed.
    The loop also ends when the bracket holds no double between its ends,
    so a ``tol`` below the float spacing returns adjacent doubles.

    The side of a point is as good as the integrator's resolution of the
    orbit, not the bracket's doubles. Next to the k = 0 boundary mu*(m) the
    orbit shadows the decaying one and its side is set by H's sign after a
    long passage: at m = 4, 2.2e-12 above mu* a lane still traps with
    k = 0, at deadband 1e-9 and 0 alike, while 1e-11 above it reads k = 1.
    Lanes 1e-9 of mu from mu* take their true side at m = 3, 4, 5.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number")
    if not (math.isfinite(mu_lo) and math.isfinite(mu_hi) and 0 < mu_lo < mu_hi):
        raise ValueError(f"need finite 0 < mu_lo < mu_hi; got {mu_lo!r} and {mu_hi!r}")
    diagnostics: list[dict] = []
    a, b, ends = mu_lo, mu_hi, [mu_lo, mu_hi]
    # the rounds along the last sub-intervals, paired from the last one back
    rounds, last = 0, a
    while points := _round_points(last, b, tol):
        rounds, last = rounds + 1, points[-1]
    depth = 2 - rounds % 2
    while True:
        points = _round_points(a, b, tol)
        grid = [a, *points, b]
        inner = ([x for pair in zip(grid, grid[1:]) for x in _round_points(*pair, tol)]
                 if depth == 2 else [])
        mus = ends + points + inner
        if not mus:
            return a, b, diagnostics
        traj, ks, first = _solve(params, mus, t_max, side=k, deadband=thresholds.deadband)
        if ends:
            if ks[0] > k or ks[1] < k + 1:
                # a count above k is counted only up to the stop
                got = [f"k(mu_lo) >= {ks[0]}"] if ks[0] > k else []
                got += [f"k(mu_hi) = {ks[1]}"] if ks[1] < k + 1 else []
                raise BracketInvalid(
                    f"need k(mu_lo) <= {k} and k(mu_hi) >= {k + 1}; got {' and '.join(got)}")
            ends = []
        lane = {mu: i for i, mu in enumerate(mus)}
        decided = ~np.isnan(first) | (ks > k)
        for _ in range(depth):
            points = _round_points(a, b, tol)
            if not points:
                break
            at = [lane[x] for x in points]
            if not decided[at].all():
                # solved alone, this round would have run as far as this solve
                sub = replace(traj, states=traj.states[..., at], energy=traj.energy[:, at])
                outs = _outcomes(params, points, sub, ks[at], first[at], thresholds)
                diagnostics += [o.to_json_dict() for o in outs if o.cls != "A"]
            grid = [a, *points, b]
            j = next((i for i, c in enumerate(ks[at], 1) if c > k), len(grid) - 1)
            a, b = grid[j - 1], grid[j]
        depth = 2


def _round_points(a: float, b: float, tol: float) -> list[float]:
    """The interior points one ``boundary_bisect`` round classifies in [a, b].

    BISECT_LANES evenly spaced points, or the fewest that leave gaps of at
    most ``tol``; none once b - a <= tol or no double lies between a and b.
    """
    if not b - a > tol:
        return []
    ratio = (b - a) / tol
    n = BISECT_LANES if ratio > BISECT_LANES + 1 else math.ceil(ratio) - 1
    return [float(x) for x in np.unique(np.linspace(a, b, n + 2)) if a < x < b]


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
    if not 1 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 1, got {mu!r}")
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and positive, got {T!r}")
    eps = 1.0 / mu
    scale = eps ** (2 / (params.m - 1))
    times = np.linspace(0.0, scale * T, RESCALE_SAMPLES)
    if not np.all(times[1:] > times[:-1]):
        raise ValueError(f"T = {T!r} is too small for {RESCALE_SAMPLES} increasing sample times")
    traj = integrate(time_field(params), (mu, mu), times)
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
    ``polar_field``, as ``shoot`` does, but only the samples the
    classification reads are formed. ``shoot`` classifies from the same
    rows, so a one-lane sweep gives its record. A grid with a lane that
    never traps runs in (u, v) throughout. A stacked solve that fails is
    classified from its partial trajectory, as ``shoot``'s is.
    ``jobs`` is deprecated and ignored: the stacked solve is already
    faster than a process pool, and its output does not depend on it.
    """
    if jobs != 1:
        warnings.warn("classify_sweep(jobs=...) is deprecated and ignored",
                      DeprecationWarning, stacklevel=2)
    mus = [float(mu) for mu in mu_grid]
    if sorted(mus) != mus:
        raise ValueError("mu grid must be increasing")
    if not mus:
        return []
    return _outcomes(params, mus, *_solve(params, mus, t_max, deadband=thresholds.deadband),
                     thresholds)
