"""Answer checks computed apart from the package.

Nothing here imports diracorbits. Each check takes the program's output
as plain numbers, recomputes the answer with a different method, and
returns a list of human-readable failures (empty when the output is
right):

- dissipative shooting: scipy's DOP853 at rtol = atol = 1e-11 on the ODE
  as the dissipative module docstring writes it, with the same sign
  counting rule (deadband, 4001-point grid) and class rule;
- the k = 0 boundary: the explicit decaying orbit
  u(t) = mu* e^{t/2} cosh(t)^{-(m-1)/2}, v(t) = u(-t), started from
  mu*(m) = ((m-1)/2)^{(m-1)/2} / sqrt(2);
- the orbit count: eta falls from +inf (K -> 0) to pi/sqrt(m-1) (K -> K0),
  so eta(K) = T/k has a root for each k < T sqrt(m-1)/pi, plus the
  constant solution: ceil(T sqrt(m-1)/pi);
- the half-period: mpmath tanh-sinh quadrature of the raw integral
  int dz / (2 lam sqrt(F_K(z))) between the turning values, with F_K
  factored as phi(z) (z + (2/m) z^p + K) so nothing cancels near the fold;
- the residual: central differences are second order, so
  log2(r(h)/r(h/2)) lies in [1.8, 2.2];
- the Clifford family: alpha_j alpha_k + alpha_k alpha_j = -2 delta_jk I
  recomputed with numpy from the emitted integer matrices;
- SVG: an XML parse.
"""

from __future__ import annotations

import functools
import math
import xml.etree.ElementTree as ET

import numpy as np

T_MAX = 60.0
N_SAMPLES = 4001
DEADBAND = 1e-9
DECAY_THRESHOLD = 1e-6
FIT_TOL = 0.2
ETA_REL_TOL = 1e-9
ROOT_K_TOL = 2e-13
ORDER_RANGE = (1.8, 2.2)
MP_DPS = 30


class OracleError(RuntimeError):
    pass


class Memo:
    """The two costly references, each computed once per input."""

    def __init__(self):
        self.classify = functools.lru_cache(maxsize=None)(classify)
        self.eta = functools.lru_cache(maxsize=None)(eta_mp)


# ------------------------------------------------------------ dissipative


def classify(m: int, mu: float, t_max: float = T_MAX) -> tuple[int, str]:
    """(k, class) of the forward orbit from (mu, mu), by DOP853."""
    from scipy.integrate import solve_ivp

    kappa = (m - 2) / 2
    e = 1.0 / (m - 1)

    def rhs(t, y):
        u, v = y
        nl = math.cosh(t) ** (-e) * (u * u + v * v) ** e
        return [nl * v - kappa * u, kappa * v - nl * u]

    t = np.linspace(0.0, t_max, N_SAMPLES)
    sol = solve_ivp(rhs, (0.0, t_max), [mu, mu], method="DOP853",
                    rtol=1e-11, atol=1e-11, t_eval=t)
    if sol.status != 0:
        raise OracleError(f"DOP853 failed at m={m}, mu={mu}: {sol.message}")
    u, v = sol.y
    signs = np.sign(v[np.abs(v) > DEADBAND])
    k = int(np.count_nonzero(signs[1:] != signs[:-1]))
    z = u * u + v * v
    H = -kappa * u * v + (m - 1) / (2 * m) * np.cosh(t) ** (-e) * z ** (m / (m - 1))
    if np.any(H <= 0.0):
        return k, "A"
    tail = (t >= t[-1] - 5.0) & (z > 0)
    if z[-1] < DECAY_THRESHOLD and tail.sum() >= 10:
        slope = np.polyfit(t[tail], np.log(z[tail]), 1)[0]
        if abs(slope + (m - 2)) <= FIT_TOL * (m - 2):
            return k, "I-candidate"
    return k, "undetermined"


def mu_star(m: int) -> float:
    """Start of the explicit decaying orbit: the k = 0 boundary."""
    return ((m - 1) / 2) ** ((m - 1) / 2) / math.sqrt(2)


def check_lanes(m: int, lanes, oracle) -> list[str]:
    """lanes: (mu, k, cls) from the program; oracle: mu -> (k, cls)."""
    errors = []
    for mu, k, cls in lanes:
        want = oracle(m, mu)
        if (k, cls) != want:
            errors.append(f"m={m} mu={mu!r}: program k={k} {cls}, DOP853 k={want[0]} {want[1]}")
    return errors


def check_boundary(m: int, k: int, lo: float, hi: float, tol: float, oracle,
                   margin: float = 1e-6) -> list[str]:
    """A located boundary: width, mu* for k = 0, oracle shots outside for k >= 1."""
    errors = []
    if not (hi - lo <= tol and lo < hi):
        errors.append(f"m={m} k={k}: bracket [{lo!r}, {hi!r}] wider than {tol}")
    if k == 0:
        ms = mu_star(m)
        if not lo <= ms <= hi:
            errors.append(f"m={m}: bracket [{lo!r}, {hi!r}] misses mu*={ms!r}")
    else:
        below = oracle(m, lo * (1 - margin))[0]
        above = oracle(m, hi * (1 + margin))[0]
        if below > k or above < k + 1:
            errors.append(f"m={m} k={k}: DOP853 gives k={below} below and k={above} "
                          f"above [{lo!r}, {hi!r}]")
    return errors


# ------------------------------------------------------------- autonomous


def expected_count(m: int, T: float) -> int:
    return math.ceil(T * math.sqrt(m - 1) / math.pi)


def eta_mp(m: int, K: float) -> float:
    """Half-period eta(K) in t = -log r, by mpmath on the raw integral."""
    import mpmath as mp

    with mp.workdps(MP_DPS):
        mm = mp.mpf(m)
        lam = (mm - 1) / 2
        p = mm / (mm - 1)
        KK = mp.mpf(K)

        def phi(s):
            return s - (2 / mm) * s ** p - KK

        s_star = lam ** (mm - 1)
        s0 = mp.findroot(phi, (mp.mpf(0), s_star), solver="anderson")
        hi = 2 * s_star
        while phi(hi) > 0:
            hi *= 2
        s1 = mp.findroot(phi, (s_star, hi), solver="anderson")

        def integrand(z):
            # |.|: tanh-sinh nodes within rounding of an end can see phi < 0;
            # their weights are far below the working precision
            f = abs(phi(z) * (z + (2 / mm) * z ** p + KK))
            return 1 / (2 * lam * mp.sqrt(f)) if f else mp.mpf(0)

        return float(mp.quad(integrand, [s0, s_star, s1]))


def check_roots(m: int, T: float, roots, eta) -> list[str]:
    """Every (k, K) root must satisfy eta(K) = T/k; eta: (m, K) -> float.

    solutions_count locates K to an absolute 1e-13 (find_root's tol), so
    at small K the half-period there may miss T/k by |eta'(K)| times that;
    a miss beyond ETA_REL_TOL is accepted only within that allowance.
    """
    errors = []
    for k, K in roots:
        target = T / k
        miss = abs(eta(m, K) - target)
        if miss <= ETA_REL_TOL * target:
            continue
        dK = 1e-6 * K
        slope = (eta(m, K + dK) - eta(m, K - dK)) / (2 * dK)
        if miss > ETA_REL_TOL * target + abs(slope) * ROOT_K_TOL:
            errors.append(f"m={m} T={T!r} k={k}: eta(K={K!r}) misses {target!r} by {miss!r}")
    return errors


def check_count(m: int, T: float, count: int) -> list[str]:
    want = expected_count(m, T)
    return [] if count == want else [f"m={m} T={T!r}: count {count}, want {want}"]


def fd_orders(residuals) -> list[float]:
    r = list(residuals)
    return [math.log2(r[i] / r[i + 1]) for i in range(len(r) - 1)]


def check_orders(label: str, residuals) -> list[str]:
    if any(not (x > 0 and math.isfinite(x)) for x in residuals):
        return [f"{label}: residuals {list(residuals)} not positive and finite"]
    orders = fd_orders(residuals)
    lo, hi = ORDER_RANGE
    if all(lo <= o <= hi for o in orders):
        return []
    return [f"{label}: observed orders {orders} outside [{lo}, {hi}]"]


# --------------------------------------------------------------- clifford


def check_clifford(alphas) -> list[str]:
    """alphas: nested [re, im] integer entries, as the CLI emits them."""
    mats = [np.array([[complex(re, im) for re, im in row] for row in a]) for a in alphas]
    n = mats[0].shape[0]
    eye = np.eye(n)
    errors = []
    for j, aj in enumerate(mats):
        for k, ak in enumerate(mats):
            want = -2 * eye if j == k else 0 * eye
            if not np.array_equal(aj @ ak + ak @ aj, want):
                errors.append(f"alpha_{j + 1} alpha_{k + 1} + alpha_{k + 1} alpha_{j + 1} "
                              f"!= {-2 if j == k else 0} I")
    return errors


# -------------------------------------------------------------------- svg


def check_svg(text: str) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"SVG root element is {root.tag!r}"]
    if not any(el.tag.endswith("polyline") for el in root.iter()):
        return ["SVG has no polyline"]
    return []
