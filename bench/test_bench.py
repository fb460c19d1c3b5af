"""Tests of the benchmark itself: checkers reject wrong answers, inputs
repeat per seed, traced counts repeat per seed.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads as w

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------- checkers reject wrong answers


@pytest.mark.parametrize("m", [3, 5])
def test_lane_checker_rejects_wrong_k_and_class(m):
    mu = float(np.mean(w.k_interval(m, 2)))
    k, cls = oracles.classify(m, mu)
    assert (k, cls) == (2, "A")
    assert oracles.check_lanes(m, [(mu, k, cls)], oracles.classify) == []
    for wrong in [(mu, k + 1, cls), (mu, k - 1, cls), (mu, k, "I-candidate")]:
        assert oracles.check_lanes(m, [wrong], oracles.classify)


def test_boundary_table_matches_oracle():
    """Lanes LANE_MARGIN inside each boundary have the table's count."""
    for m, bounds in w.BOUNDARIES.items():
        for k, b in enumerate(bounds):
            assert oracles.classify(m, b * (1 - w.LANE_MARGIN))[0] == k
            assert oracles.classify(m, b * (1 + w.LANE_MARGIN))[0] == k + 1


def test_boundary_checker_needs_mu_star_inside():
    for m in (3, 4, 5):
        ms = oracles.mu_star(m)
        assert abs(ms - w.BOUNDARIES[m][0]) < 1e-6
        good = (ms - 4e-9, ms + 4e-9)
        assert oracles.check_boundary(m, 0, *good, 1e-8, oracles.classify) == []
        moved = (good[0] + 1e-6, good[1] + 1e-6)
        assert oracles.check_boundary(m, 0, *moved, 1e-8, oracles.classify)
        assert oracles.check_boundary(m, 0, ms - 1e-7, ms + 1e-7, 1e-8, oracles.classify)


def test_boundary_checker_shoots_outside_k1_bracket():
    b = w.BOUNDARIES[3][1]
    assert oracles.check_boundary(3, 1, b * (1 - 1e-5), b * (1 - 1e-5) + 5e-9, 1,
                                  oracles.classify, margin=1e-6)
    assert oracles.check_boundary(3, 1, b * (1 - 1e-4), b * (1 + 1e-4), 1,
                                  oracles.classify) == []


def test_count_checker_rejects_count_plus_one():
    for m, T in [(2, 5.0), (3, 7.0), (6, 3.0)]:
        want = oracles.expected_count(m, T)
        assert oracles.check_count(m, T, want) == []
        assert oracles.check_count(m, T, want + 1)


def test_eta_reference_and_root_checker():
    # near the fold eta -> pi/sqrt(m-1); eta(K) is decreasing in K
    for m in (2, 3, 5):
        K0 = w.k0(m)
        assert abs(oracles.eta_mp(m, K0 * (1 - 1e-8)) - math.pi / math.sqrt(m - 1)) < 1e-3
        assert oracles.eta_mp(m, 0.1 * K0) > oracles.eta_mp(m, 0.5 * K0)
    K = 0.1 * w.k0(3)
    T = oracles.eta_mp(3, K)
    assert oracles.check_roots(3, T, [(1, K)], oracles.eta_mp) == []
    assert oracles.check_roots(3, T, [(1, K * (1 + 1e-6))], oracles.eta_mp)
    assert oracles.check_roots(3, 2 * T, [(2, K)], oracles.eta_mp) == []


def test_order_checker_rejects_order_one():
    h = np.array(w.ORBIT_STEPS)
    assert oracles.check_orders("second order", 3.0 * h**2) == []
    assert oracles.check_orders("first order", 0.1 * h)
    assert oracles.check_orders("constant", [1.0, 1.0, 1.0])
    assert oracles.check_orders("order one residual", [1.0, 0.5, 0.25])


def _pauli_family() -> list:
    """alpha_j = i sigma_j for m = 3, in the CLI's [re, im] layout."""
    s = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    return [[[[int((1j * a)[r, c].real), int((1j * a)[r, c].imag)] for c in range(2)]
             for r in range(2)] for a in s]


def test_clifford_checker_rejects_one_changed_entry():
    alphas = _pauli_family()
    assert oracles.check_clifford(alphas) == []
    alphas[1][0][1] = [alphas[1][0][1][0] + 1, alphas[1][0][1][1]]
    assert oracles.check_clifford(alphas)


def test_svg_checker():
    ok = '<svg xmlns="http://www.w3.org/2000/svg"><polyline points="0,0 1,1"/></svg>'
    assert oracles.check_svg(ok) == []
    assert oracles.check_svg(ok[:-3])
    assert oracles.check_svg('<svg xmlns="http://www.w3.org/2000/svg"></svg>')


def test_cli_checks_reject_wrong_outputs():
    item = ("decay", ["ansatz", "decay"], {"m": 3, "K": 0.1})
    good = w.CliResult(0, "", {"decay.json": '{"exponent": -1.01}'}, 1.0)
    assert w.cli_check(item, good, None) == []
    bad = w.CliResult(0, "", {"decay.json": '{"exponent": -0.9}'}, 1.0)
    assert w.cli_check(item, bad, None)
    crashed = w.CliResult(1, "Traceback (most recent call last):", {}, 1.0)
    assert w.cli_check(item, crashed, None)
    item = ("rescaled", ["dissipative", "rescaled"], {"m": 3, "mu": 20.0})
    worse = w.CliResult(0, "", {"rescaled.json":
                                '{"sup_error": 0.5, "reference_error": 0.4}'}, 1.0)
    assert w.cli_check(item, worse, None)


def test_scipy_import_parse():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        900 |     scipy.interpolate",
        "import time:        10 |       1300 |   diracorbits.ansatz",
    ])
    assert tracing.scipy_import_seconds(log) == pytest.approx(1200e-6)


# ------------------------------------------------------------ determinism


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = run.WORKLOADS[name].make_round
    assert repr(make(7)) == repr(make(7))
    assert repr(make(7)) != repr(make(8))


def test_generated_inputs_keep_their_distances():
    for seed in range(20):
        for m, grid in w.sweep_round(seed):
            b = np.array(w.BOUNDARIES[m])
            assert np.min(np.abs(np.subtract.outer(grid, b)) / b) >= w.LANE_MARGIN - 1e-12
        for m, T in w.orbits_round(seed)[1:]:
            c = T * math.sqrt(m - 1) / math.pi
            assert 0.1 <= c - math.floor(c) <= 0.9 and (m - 1) * T <= 18.0


COUNTS = ["numerics.integrate.steps_accepted", "numerics.integrate.steps_rejected",
          "numerics.field_evals", "numerics.energy_evals", "numerics.quad.nodes",
          "numerics.find_root.fevals", "autonomous.half_period.calls", "ansatz.field_evals"]


def _traced_counts(pkg, work, items) -> dict:
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        results = run.run_round(work, pkg, items, ROOT, {}, tracer)
    finally:
        tracing.restore(undo)
    assert all(r.error is None for r in results)
    spans = tracing.Spans(tracer.spans)
    return {k: tracing.LAYER_METRICS[k][3](spans) for k in COUNTS
            if spans.calls(tracing.LAYER_METRICS[k][2])}


def test_traced_counts_repeat():
    pkg = w.Package(ROOT)
    sweep = run.WORKLOADS["sweep"]
    items = [(3, w.sweep_round(5)[0][1][::3])]
    first, second = _traced_counts(pkg, sweep, items), _traced_counts(pkg, sweep, items)
    assert first == second and first["numerics.field_evals"] > 0
    orbits = run.WORKLOADS["orbits"]
    items = w.orbits_round(5)[1:3]
    first, second = _traced_counts(pkg, orbits, items), _traced_counts(pkg, orbits, items)
    assert first == second and first["numerics.quad.nodes"] > 0


def test_tracing_restores_the_package():
    pkg = w.Package(ROOT)
    before = pkg.dissipative.integrate
    undo = tracing.install(tracing.Tracer())
    assert pkg.dissipative.integrate is not before
    tracing.restore(undo)
    assert pkg.dissipative.integrate is before


# ------------------------------------------------------ refuses without source


def test_fails_without_package_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"] for m in spec["per_layer"]}
    assert layer == set(tracing.LAYER_METRICS) | set(tracing.FLOOR_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "request_p50_s", "ops_per_s", "peak_rss_mb"}
    assert {wl["name"] for wl in spec["workloads"]} == set(run.WORKLOADS)
