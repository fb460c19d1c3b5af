"""Independent numerical oracles used only by the test suite.

Deliberately different algorithms from the library under test: tanh-sinh
quadrature (vs Gauss-Chebyshev), the m = 2 arithmetic-geometric mean
(vs any quadrature), plain bisection (vs Brent and Newton), 40-digit
mpmath arithmetic, so agreement is evidence of correctness rather
than shared bugs. ``bisect_round_per_solve`` is the exception: it is the
package's own earlier bisection loop, kept as the reference its brackets
must equal to the bit.
"""

from __future__ import annotations

import math


def tanh_sinh_quad(
    f, a: float, b: float, tol: float = 1e-12, max_level: int = 12, f_pair=None
) -> float:
    """Integrate f over (a, b); tolerates integrable endpoint singularities.

    Double-exponential substitution x = mid + half*tanh((pi/2) sinh t),
    trapezoid in t with step halving until two successive levels agree
    to tol. For integrands singular at an endpoint, pass ``f_pair(da, db)``
    taking the exact distances to a and b; reconstructing the distance
    from x alone loses precision near the endpoints.
    """
    half = 0.5 * (b - a)

    def eval_at(t: float) -> float:
        sigma = 0.5 * math.pi * math.sinh(t)
        # distances to each endpoint, computed without cancellation
        try:
            da = half * 2.0 / (1.0 + math.exp(-2.0 * sigma))
            db = half * 2.0 / (1.0 + math.exp(2.0 * sigma))
        except OverflowError:
            return 0.0
        w = half * (0.5 * math.pi * math.cosh(t)) / math.cosh(sigma) ** 2
        if da <= 0.0 or db <= 0.0 or w == 0.0:
            return 0.0
        val = f_pair(da, db) if f_pair is not None else f(a + da if da <= db else b - db)
        return val * w if math.isfinite(val) else 0.0

    t_max = 4.0
    h = 1.0
    total = eval_at(0.0)
    n = 1
    while n * h <= t_max:
        total += eval_at(n * h) + eval_at(-n * h)
        n += 1
    prev = h * total
    agreements = 0
    for _ in range(max_level):
        h *= 0.5
        extra = 0.0
        t = h
        while t <= t_max:
            extra += eval_at(t) + eval_at(-t)
            t += 2 * h
        total += extra
        est = h * total
        if abs(est - prev) <= tol * max(1.0, abs(est)):
            agreements += 1
            if agreements >= 2:
                return est
        else:
            agreements = 0
        prev = est
    return prev


def bisect(f, a: float, b: float, tol: float = 1e-14, max_iter: int = 200) -> float:
    """Plain bisection on a sign-changing bracket."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    assert fa * fb < 0, "no sign change"
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or b - a <= tol:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def eta_agm(K: float) -> float:
    """The m = 2 half-period in closed form, pi / AGM(1, 2 sqrt(K)).

    At m = 2, F_K(z) = z^2 - (z^2 + K)^2 has the four real zeros
    +-s0, +-s1 with s0 s1 = K and s0 + s1 = 1, so the period integral
    reduces to 2 K(k), k^2 = 1 - 4K (Byrd & Friedman), and the complete
    elliptic integral is pi / (2 AGM(1, sqrt(1 - k^2))) (Abramowitz &
    Stegun 17.6). The mean converges quadratically; 64 steps reach its
    fixed point for any K in the double range.
    """
    a, b = 1.0, 2.0 * math.sqrt(K)
    for _ in range(64):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / a


def turning_values_mp(m: int, K: float, dps: int = 40) -> tuple[float, float]:
    """Zeros s0 < s1 of phi(s) = s - (2/m) s^p - K, p = m/(m-1), at dps digits.

    Bisection in x = ln s, so the width test is relative in s at every K;
    s* = ((m-1)/2)^(m-1) separates the zeros, phi(K/2) < 0 and
    phi((m/2)^(m-1)) = -K < 0.
    """
    import mpmath as mp

    with mp.workdps(dps):
        mm, KK = mp.mpf(m), mp.mpf(K)
        p = mm / (mm - 1)

        def phi(x):
            return mp.exp(x) - 2 / mm * mp.exp(p * x) - KK

        def bisect_ln(lo, hi):
            # phi(lo) and phi(hi) differ in sign
            f_lo = phi(lo)
            while hi - lo > mp.mpf(10) ** (8 - dps):
                mid = (lo + hi) / 2
                if (phi(mid) > 0) == (f_lo > 0):
                    lo = mid
                else:
                    hi = mid
            return float(mp.exp((lo + hi) / 2))

        x_star = (mm - 1) * mp.log((mm - 1) / 2)
        return bisect_ln(mp.log(KK / 2), x_star), bisect_ln(x_star, (mm - 1) * mp.log(mm / 2) + 1)


def fit_slope(xs, ys) -> float:
    """Ordinary least-squares slope without numpy (independent check)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def vector_field_rescaled(m: int, eps: float, t: float, state):
    """Blown-up dissipative field: U(t) = eps * u(eps^{2/(m-1)} t) with eps = 1/mu.

    Written out on its own, so a solve of it checks the rescaling identity
    that ``dissipative.rescale_compare`` applies to an original-time solve.
    """
    U, V = state
    s = eps ** (2 / (m - 1)) * t
    z = U * U + V * V
    nl = math.cosh(s) ** (-1 / (m - 1)) * z ** (1 / (m - 1))
    kap = eps ** (2 / (m - 1)) * (m - 2) / 2
    return nl * V - kap * U, kap * V - nl * U


def sign_change_events(m: int, mu: float, t_max: float) -> int:
    """The zeros of v on the dissipative orbit from (mu, mu), up to its trap.

    scipy's solve_ivp with DOP853 at rtol = atol = 1e-11 and a
    terminal-free event v = 0, ended by a terminal event H = 0 crossed
    downward (after which u v > 0, so v keeps its sign) or at ``t_max``.
    The field and H are written out from the module docstring, in (u, v),
    and no sample grid is involved.
    """
    from scipy.integrate import solve_ivp

    kappa, c, e = (m - 2) / 2, -1 / (m - 1), 1 / (m - 1)

    def rhs(t, y):
        u, v = y
        nl = math.cosh(t) ** c * (u * u + v * v) ** e
        return [nl * v - kappa * u, kappa * v - nl * u]

    def v_zero(t, y):
        return y[1]

    def trap(t, y):
        u, v = y
        z = u * u + v * v
        return -kappa * u * v + (m - 1) / (2 * m) * math.cosh(t) ** c * z ** (m * e)

    trap.terminal, trap.direction = True, -1
    sol = solve_ivp(rhs, (0.0, t_max), [mu, mu], method="DOP853", rtol=1e-11, atol=1e-11,
                    events=[v_zero, trap])
    return len(sol.t_events[0])


def bisect_round_per_solve(params, k: int, mu_lo: float, mu_hi: float, tol: float,
                           t_max: float = 60.0):
    """``boundary_bisect`` as it was before two rounds shared a solve.

    A 2-lane end check, then one stacked ``side=k`` solve per round, each
    of a round's BISECT_LANES interior points (fewer in the last round,
    as ``tol`` needs), each classified by ``dissipative._outcomes``. The
    diagnostics are the lanes that are not class A, from every round whose
    solve did not end at the side stop.
    """
    import numpy as np

    from diracorbits import dissipative as dis

    thresholds = dis.Thresholds()

    def solve(mus):
        # the outcomes, and whether the solve ended at the side stop
        traj, ks, first = dis._solve(params, mus, t_max, side=k, deadband=thresholds.deadband)
        return (dis._outcomes(params, mus, traj, ks, first, thresholds),
                traj.terminal_reason == "stopped")

    (lo, hi), _ = solve([mu_lo, mu_hi])
    if lo.k > k or hi.k < k + 1:
        raise dis.BracketInvalid(f"k(mu_lo) = {lo.k}, k(mu_hi) = {hi.k}")
    diagnostics = []
    a, b = mu_lo, mu_hi
    while b - a > tol:
        ratio = (b - a) / tol
        n = dis.BISECT_LANES if ratio > dis.BISECT_LANES + 1 else math.ceil(ratio) - 1
        mus = [float(x) for x in np.unique(np.linspace(a, b, n + 2)) if a < x < b]
        if not mus:
            break
        outs, stopped = solve(mus)
        if not stopped:
            diagnostics += [o.to_json_dict() for o in outs if o.cls != "A"]
        grid = [a, *mus, b]
        j = next((i for i, o in enumerate(outs, 1) if o.k > k), len(grid) - 1)
        a, b = grid[j - 1], grid[j]
    return a, b, diagnostics
