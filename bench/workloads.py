"""Seeded inputs, the timed request of each workload, and its answer check.

Inputs are made from the seed alone, with numpy's default generator, and
without importing the package: the program receives only the numbers
built here. A run repeats one round of requests; a round holds the same
operations for every seed, so the share of failed operations is fixed.

Where an answer is ill-conditioned the generator keeps away from it:

- mu lanes stay LANE_MARGIN (2 %) of mu away from every sign-change
  boundary, whose positions at m = 3, 4, 5 (BOUNDARIES) were located
  once with the DOP853 oracle to 1e-7 relative; B_0 is mu*(m);
- bisection brackets put each end 5 to 15 % of mu outside the boundary;
- T sqrt(m-1)/pi stays at least 0.1 from an integer, where a root of
  eta(K) = T/k meets the fold and the count flips;
- (m-1) T <= 18, so the k = 1 root K stays above ~1e-8 K0 (see the FOUND
  lines in CHANGES.md for what goes wrong below that);
- the `ansatz residual` command takes K >= 1e-2 K0: at m = 2 below ~3e-3
  K0 the interpolation floor of its 16001-sample profile flattens the
  residual at h = 2.5e-3 and the observed order falls to 1 or below
  (FOUND line in CHANGES.md).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# B_k: the mu where the v sign-change count goes from k to k + 1.
BOUNDARIES = {
    3: (0.707107, 1.574504, 2.424664, 3.2729, 4.120605, 4.9681, 5.815492),
    4: (1.299038, 2.632089, 4.200931, 5.981794, 7.953316, 10.099115, 12.406311),
    5: (2.828427, 5.269067, 8.360636, 12.097037, 16.477706, 21.502583, 27.171682),
}
LANE_MARGIN = 0.02
LANES_PER_K = 2
SWEEP_K = range(7)
T_MAX = 60.0
BISECT_TOL = 1e-8

# T ranges per m for the orbits questions; see the module docstring.
ORBIT_T = {2: (3.6, 9.0), 3: (2.6, 9.0), 4: (2.0, 6.0), 5: (1.9, 4.5), 6: (1.8, 3.6)}
# solutions_count raises NonConvergence here on every run (half_period
# loses accuracy at K ~ 1e-14 K0); kept as the one operation counted failed.
FAILING_ORBIT = (4, 8.0)
# one T from each third of the range, so every round costs about the same
ORBIT_STRATA = 3
ORBIT_SAMPLES = 8001
ORBIT_RADII = (0.6, 0.9, 1.4)
ORBIT_STEPS = (1e-2, 5e-3, 2.5e-3)
# log10(K/K0) ranges of the CLI's orbit commands; see the module docstring
K_LOG_RANGE = (-3.0, -0.1)
RESIDUAL_K_LOG_RANGE = (-2.0, -0.1)

CLI_MAIN = "import sys; from diracorbits.cli import main; sys.exit(main(sys.argv[1:]))"


def k_interval(m: int, k: int) -> tuple[float, float]:
    """Lane range for count k at m, LANE_MARGIN inside its boundaries."""
    b = BOUNDARIES[m]
    lo = 0.25 * b[0] if k == 0 else b[k - 1] * (1 + LANE_MARGIN)
    return lo, b[k] * (1 - LANE_MARGIN)


def k0(m: int) -> float:
    return ((m - 1) / 2) ** (m - 1) / m


def draw_T(rng, m: int, stratum: int = 0, strata: int = 1) -> float:
    """T in the stratum-th of ``strata`` equal parts of ORBIT_T[m]."""
    lo, hi = ORBIT_T[m]
    lo, hi = lo + (hi - lo) * stratum / strata, lo + (hi - lo) * (stratum + 1) / strata
    while True:
        T = float(rng.uniform(lo, hi))
        c = T * math.sqrt(m - 1) / math.pi
        if 0.1 <= c - math.floor(c) <= 0.9:
            return T


def draw_grid(rng, m: int, per_k: int = LANES_PER_K) -> list[float]:
    return sorted(float(rng.uniform(*k_interval(m, k))) for k in SWEEP_K for _ in range(per_k))


def draw_K(rng, m: int, log_range: tuple[float, float] = K_LOG_RANGE) -> float:
    return k0(m) * 10 ** float(rng.uniform(*log_range))


# ---------------------------------------------------------------- package


class Package:
    """The package's modules, imported from <root>/src and nowhere else."""

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "diracorbits" / "__init__.py").is_file():
            raise FileNotFoundError(f"no package source under {src}")
        sys.path.insert(0, str(src))
        import diracorbits
        from diracorbits import ansatz, autonomous, clifford, dissipative

        if Path(diracorbits.__file__).resolve().parent != (src / "diracorbits").resolve():
            raise ImportError(f"diracorbits imported from {diracorbits.__file__}, not {src}")
        self.ansatz, self.autonomous = ansatz, autonomous
        self.clifford, self.dissipative = clifford, dissipative


def warm_up_dissipative(pkg: Package) -> None:
    dis = pkg.dissipative
    dis.shoot(dis.DissipativeParams(3), 0.5, t_max=1.0)


def warm_up_orbits(pkg: Package) -> None:
    aut = pkg.autonomous
    aut.half_period(aut.AutonomousParams(3), 0.1)


# ------------------------------------------------------------------ sweep


def sweep_round(seed: int) -> list[tuple[int, list[float]]]:
    rng = np.random.default_rng(seed)
    return [(m, draw_grid(rng, m)) for m in (3, 4, 5)]


def sweep_request(pkg: Package, item):
    m, grid = item
    dis = pkg.dissipative
    out = dis.classify_sweep(dis.DissipativeParams(m), grid, t_max=T_MAX, jobs=1)
    return [(o.mu, o.k, o.cls) for o in out]


def sweep_check(item, output, memo: oracles.Memo) -> list[str]:
    m, grid = item
    if [mu for mu, _, _ in output] != grid:
        return [f"m={m}: sweep returned mu {[mu for mu, _, _ in output]}, asked {grid}"]
    return oracles.check_lanes(m, output, memo.classify)


# ----------------------------------------------------------------- bisect


def bisect_round(seed: int) -> list[tuple[int, int, float, float]]:
    rng = np.random.default_rng(seed)
    items = []
    for m in (3, 4, 5):
        for k in (0, 1):
            b = BOUNDARIES[m][k]
            lo, hi = b * (1 - rng.uniform(0.05, 0.15)), b * (1 + rng.uniform(0.05, 0.15))
            items.append((m, k, float(lo), float(hi)))
    return items


def bisect_request(pkg: Package, item):
    m, k, lo, hi = item
    dis = pkg.dissipative
    a, b, _ = dis.boundary_bisect(dis.DissipativeParams(m), k, lo, hi, tol=BISECT_TOL, t_max=T_MAX)
    return a, b


def bisect_check(item, output, memo: oracles.Memo) -> list[str]:
    m, k, _, _ = item
    return oracles.check_boundary(m, k, output[0], output[1], BISECT_TOL, memo.classify)


# ----------------------------------------------------------------- orbits


def orbits_round(seed: int) -> list[tuple[int, float]]:
    rng = np.random.default_rng(seed)
    items = [(m, draw_T(rng, m, s, ORBIT_STRATA)) for m in sorted(ORBIT_T)
             for s in range(ORBIT_STRATA)]
    # first, so its 2^21-node quadrature (the memory peak) always meets the same heap
    return [FAILING_ORBIT] + items


def orbits_request(pkg: Package, item):
    m, T = item
    aut, ans = pkg.autonomous, pkg.ansatz
    params = aut.AutonomousParams(m)
    count, roots, _ = aut.solutions_count(params, T)
    K1 = next(K for k, K in roots if k == 1)
    traj = aut.periodic_orbit_trajectory(params, K1, (-T, T), ORBIT_SAMPLES)
    profile = ans.profile_from_phase("autonomous", m, traj)
    rep = pkg.clifford.build_rep(m)
    points = [r * np.eye(m)[0] for r in ORBIT_RADII]
    residuals = [ans.pde_residual("autonomous", m, profile, rep, points, h) for h in ORBIT_STEPS]
    return count, roots, residuals


def orbits_check(item, output, memo: oracles.Memo) -> list[str]:
    m, T = item
    count, roots, residuals = output
    return (oracles.check_count(m, T, count) + oracles.check_roots(m, T, roots, memo.eta)
            + oracles.check_orders(f"m={m} T={T!r} residual", residuals))


# --------------------------------------------------------------- cli-cold


def cli_round(seed: int) -> list[tuple[str, list[str], dict]]:
    """One command per subcommand family: (label, argv, facts for the check)."""
    rng = np.random.default_rng(seed)
    r = lambda x: repr(float(x))  # noqa: E731  17-digit round trip
    cmds = []
    m = int(rng.integers(3, 9))
    cmds.append(("clifford", ["clifford", "--m", str(m), "--emit", "rep.json"], {"m": m}))
    m = int(rng.integers(2, 7))
    K = draw_K(rng, m)
    cmds.append(("period", ["autonomous", "period", "--m", str(m), "--K", r(K),
                            "--out", "period.json"], {"m": m, "K": K}))
    m = int(rng.integers(2, 7))
    K = draw_K(rng, m)
    cmds.append(("orbit", ["autonomous", "orbit", "--m", str(m), "--K", r(K), "--n-samples",
                           "2001", "--out", "orbit.csv", "--spec-out", "spec.json"],
                 {"m": m, "K": K}))
    m = int(rng.integers(2, 6))
    cmds.append(("portrait", ["autonomous", "portrait", "--m", str(m), "--out", "portrait.svg"],
                 {"m": m}))
    m = int(rng.integers(2, 7))
    T = draw_T(rng, m)
    cmds.append(("bifurcation", ["autonomous", "bifurcation", "--m", str(m), "--T", r(T),
                                 "--out", "bifurcation.json"], {"m": m, "T": T}))
    m = int(rng.integers(3, 6))
    mu = float(rng.uniform(*k_interval(m, int(rng.integers(0, 7)))))
    cmds.append(("shoot", ["dissipative", "shoot", "--m", str(m), "--mu", r(mu),
                           "--out", "shoot.json"], {"m": m, "mu": mu}))
    m = int(rng.integers(3, 6))
    grid = draw_grid(rng, m, per_k=1)
    cmds.append(("sweep", ["dissipative", "sweep", "--m", str(m), "--grid",
                           ",".join(r(x) for x in grid), "--jobs", "2", "--out", "sweep.csv"],
                 {"m": m, "grid": grid}))
    m = int(rng.integers(3, 6))
    mu = float(rng.uniform(15.0, 40.0))
    cmds.append(("rescaled", ["dissipative", "rescaled", "--m", str(m), "--mu", r(mu),
                              "--T", "5", "--out", "rescaled.json"], {"m": m, "mu": mu}))
    m = int(rng.integers(2, 6))
    K = draw_K(rng, m, RESIDUAL_K_LOG_RANGE)
    cmds.append(("residual", ["ansatz", "residual", "--m", str(m), "--source", "orbit",
                              "--K", r(K), "--h", "1e-2,5e-3,2.5e-3", "--out", "residual.csv"],
                 {"m": m, "K": K}))
    m = int(rng.integers(2, 6))
    K = draw_K(rng, m)
    cmds.append(("decay", ["ansatz", "decay", "--m", str(m), "--source", "orbit", "--K", r(K),
                           "--end", "zero", "--out", "decay.json"], {"m": m, "K": K}))
    return cmds


@dataclass
class CliResult:
    returncode: int
    stderr: str
    files: dict  # output name -> text
    seconds: float  # wall time of the child process


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_outputs(argv: list[str]) -> list[str]:
    names = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--emit", "--out", "--spec-out")]
    if "--emit" in argv:
        names.append(argv[argv.index("--emit") + 1] + ".report.json")
    return names


def run_cli(argv: list[str], cwd: Path, env: dict, prefix: list[str] | None = None) -> CliResult:
    """One diracorbits command in a fresh interpreter; outputs read back.

    ``prefix`` replaces the plain entry point, e.g. with the traced one.
    """
    for name in cli_outputs(argv):
        (cwd / name).unlink(missing_ok=True)
    cmd = [sys.executable] + (prefix or ["-c", CLI_MAIN]) + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)
    seconds = time.perf_counter() - t0
    files = {}
    for name in cli_outputs(argv):
        path = cwd / name
        if path.is_file():
            files[name] = path.read_text(encoding="utf-8")
    return CliResult(proc.returncode, proc.stderr, files, seconds)


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def cli_check(item, res: CliResult, memo: oracles.Memo) -> list[str]:
    label, argv, facts = item
    where = f"cli {' '.join(argv[:2])}"
    if res.returncode != 0 or "Traceback" in res.stderr:
        return [f"{where}: exit {res.returncode}: {res.stderr.strip()[-300:]}"]
    missing = [n for n in cli_outputs(argv) if n not in res.files]
    if missing:
        return [f"{where}: no output {missing}"]
    try:
        return [f"{where}: {e}" for e in _CLI_CHECKS[label](facts, res.files, memo)]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{where}: output does not parse: {exc!r}"]


def _check_clifford(facts, files, memo):
    rep = json.loads(files["rep.json"])
    report = json.loads(files["rep.json.report.json"])
    errors = [] if report["ok"] is True else ["report says not ok"]
    if rep["m"] != facts["m"] or len(rep["alphas"]) != facts["m"]:
        errors.append(f"emitted m={rep['m']} with {len(rep['alphas'])} matrices")
    return errors + oracles.check_clifford(rep["alphas"])


def _check_period(facts, files, memo):
    out = json.loads(files["period.json"])
    m, K = facts["m"], facts["K"]
    errors = []
    for s in (out["s0"], out["s1"]):
        phi = s - (2 / m) * s ** (m / (m - 1)) - K
        if abs(phi) > 1e-12 * max(1.0, s):
            errors.append(f"turning value {s!r} leaves phi = {phi!r}")
    ref = memo.eta(m, K)
    if abs(out["half_period"] - ref) > oracles.ETA_REL_TOL * ref:
        errors.append(f"half_period {out['half_period']!r}, mpmath {ref!r}")
    return errors


def _check_orbit(facts, files, memo):
    m, K = facts["m"], facts["K"]
    header, rows = _csv(files["orbit.csv"])
    spec = json.loads(files["spec.json"])
    errors = [] if header == ["t", "u", "v", "H"] and len(rows) == 2001 else [
        f"orbit.csv header {header} with {len(rows)} rows"]
    H = np.array([float(row[3]) for row in rows])
    level = -(m - 1) / 2 * K / 2
    if np.max(np.abs(H - level)) > 1e-8 * abs(level):
        errors.append(f"energy drifts {np.max(np.abs(H - level))!r} from {level!r}")
    ref = memo.eta(m, K)
    if abs(spec["half_period"] - ref) > oracles.ETA_REL_TOL * ref:
        errors.append(f"half_period {spec['half_period']!r}, mpmath {ref!r}")
    return errors


def _check_portrait(facts, files, memo):
    return oracles.check_svg(files["portrait.svg"])


def _check_bifurcation(facts, files, memo):
    out = json.loads(files["bifurcation.json"])
    m, T = facts["m"], facts["T"]
    roots = [(r["k"], r["K"]) for r in out["roots"]]
    return oracles.check_count(m, T, out["count"]) + oracles.check_roots(m, T, roots, memo.eta)


def _check_shoot(facts, files, memo):
    out = json.loads(files["shoot.json"])
    return oracles.check_lanes(facts["m"], [(facts["mu"], out["k"], out["class"])], memo.classify)


def _check_sweep(facts, files, memo):
    header, rows = _csv(files["sweep.csv"])
    lanes = [(float(mu), int(k), cls) for mu, k, cls, _ in rows]
    if header != ["mu", "k", "class", "H_tail"] or [x for x, _, _ in lanes] != facts["grid"]:
        return [f"sweep.csv header {header}, mu {[x for x, _, _ in lanes]}"]
    return oracles.check_lanes(facts["m"], lanes, memo.classify)


def _check_rescaled(facts, files, memo):
    out = json.loads(files["rescaled.json"])
    # mu > 10 = reference_mu, so the blown-up orbit must be nearer its limit
    if 0 <= out["sup_error"] < out["reference_error"]:
        return []
    return [f"error {out['sup_error']!r} at mu={facts['mu']!r} not below "
            f"{out['reference_error']!r} at mu=10"]


def _check_residual(facts, files, memo):
    header, rows = _csv(files["residual.csv"])
    if header != ["h", "max_residual"] or len(rows) != 3:
        return [f"residual.csv header {header} with {len(rows)} rows"]
    return oracles.check_orders("residual", [float(res) for _, res in rows])


def _check_decay(facts, files, memo):
    out = json.loads(files["decay.json"])
    want = -(facts["m"] - 1) / 2
    if abs(out["exponent"] - want) <= 0.05:
        return []
    return [f"decay exponent {out['exponent']!r}, want {want} +- 0.05"]


_CLI_CHECKS: dict[str, Callable] = {
    "clifford": _check_clifford, "period": _check_period, "orbit": _check_orbit,
    "portrait": _check_portrait, "bifurcation": _check_bifurcation, "shoot": _check_shoot,
    "sweep": _check_sweep, "rescaled": _check_rescaled, "residual": _check_residual,
    "decay": _check_decay,
}
