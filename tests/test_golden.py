"""Golden outcomes of the shooting classifier, pinned from the original integrator.

`golden_dissipative.json` holds k, class, H_tail, envelope and the first
nonpositive-H time for seeded sweep grids at m = 3, 4, 5, and two
boundary_bisect brackets at m = 3. The tolerances below are stated in
the file; a change of integrator must stay within them.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from diracorbits.dissipative import DissipativeParams, boundary_bisect, classify_sweep, shoot
from diracorbits.serialize import dumps

GOLDEN = json.loads((Path(__file__).with_name("golden_dissipative.json")).read_text())
REL = 1e-6


def _close(a, b, rel=REL):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.mark.parametrize("sweep", GOLDEN["sweeps"], ids=lambda s: f"m{s['m']}")
def test_golden_sweep(sweep):
    lanes = sweep["lanes"]
    outs = classify_sweep(DissipativeParams(sweep["m"]), [lane["mu"] for lane in lanes],
                          t_max=GOLDEN["t_max"])
    grid_step = GOLDEN["t_max"] / (GOLDEN["n_samples"] - 1)
    for lane, out in zip(lanes, outs):
        assert out.mu == lane["mu"]
        assert (out.k, out.cls) == (lane["k"], lane["class"]), lane["mu"]
        assert _close(out.H_tail, lane["H_tail"]), (lane["mu"], out.H_tail, lane["H_tail"])
        assert _close(out.envelope, lane["envelope"]), (lane["mu"], out.envelope)
        t_new, t_old = out.first_nonpositive_H, lane["first_nonpositive_H"]
        assert (t_new is None) == (t_old is None)
        if t_old is not None:
            assert abs(t_new - t_old) <= grid_step * (1 + 1e-9), (lane["mu"], t_new, t_old)


@pytest.mark.parametrize("case", GOLDEN["boundaries"], ids=lambda c: f"m{c['m']}k{c['k']}")
def test_golden_boundary(case):
    m, k = case["m"], case["k"]
    lo, hi, _ = boundary_bisect(DissipativeParams(m), k, case["mu_lo"], case["mu_hi"],
                                tol=case["tol"], t_max=GOLDEN["t_max"])
    assert hi - lo <= case["tol"]
    if k == 0:
        mu_star = ((m - 1) / 2) ** ((m - 1) / 2) / math.sqrt(2)
        assert lo <= mu_star <= hi
    else:
        old_lo, old_hi = case["bracket"]
        assert _close(lo, old_lo) and _close(hi, old_hi), (lo, hi, case["bracket"])


# sha256 of what a change to how a solve stops or steps must keep to the
# bit: the brackets, and each sweep lane's and shoot's mu, k, class, t_end
# and first nonpositive-H time. These depend only on each lane's side of
# k and of H = 0 at the grid times, so they should hold on any CPU; H_tail,
# the envelope and the samples come from numpy's exp, log and power loops,
# which round differently from one build to the next, and are left to the
# tolerances above
BRACKETS = [(3, 0, 0.6, 0.8), (3, 1, 1.5, 2.0), (3, 2, 2.3, 2.6), (4, 0, 1.2, 1.4),
            (4, 1, 2.5, 2.8), (4, 2, 4.0, 4.4), (5, 0, 2.6, 3.0), (5, 1, 5.0, 5.5)]
BRACKETS_SHA256 = "d42bc34e4a011edda8c2442f6e25301dee646478b006f4a2a25837158c1dc187"
SIDE_KEYS = ("mu", "k", "class", "t_end", "first_nonpositive_H")
SWEEP_SHA256 = {
    3: "ac577f2561e04fd6f7261e9ef0671d34de0494e99e709a13fde4f90a3ffe224f",
    4: "ee9c2039c2a15f607a4131c874ab601d7063f34ef812b0961c25cfa3d3f4711a",
    5: "f067d893737311c12dfe0afdaf72a3089af84b132808fcaf723c8974aa806142",
}
# class A with k = 0, 0, 2, 0, 1; an I-candidate on the k = 0 boundary; undetermined
SHOOTS = [(3, 0.3, 60.0), (3, 0.6, 60.0), (3, 2.0, 60.0), (4, 1.0, 60.0), (5, 5.0, 60.0),
          (4, 1.299038105676658, 8.5), (3, 0.7071067812, 0.5)]
SHOOTS_SHA256 = "7da2eaae3b1368cb5511b96e4aa677c3c460bd903abdd79a7d43df3f5aaadcdc"


def _sha256(obj) -> str:
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


def _sides(out) -> list:
    record = out.to_json_dict()
    return [record[key] for key in SIDE_KEYS]


def test_bracket_bytes_are_pinned():
    out = [list(boundary_bisect(DissipativeParams(m), k, lo, hi, tol=1e-8)[:2])
           for m, k, lo, hi in BRACKETS]
    assert _sha256(out) == BRACKETS_SHA256, out


@pytest.mark.parametrize("sweep", GOLDEN["sweeps"], ids=lambda s: f"m{s['m']}")
def test_sweep_record_bytes_are_pinned(sweep):
    outs = classify_sweep(DissipativeParams(sweep["m"]), [lane["mu"] for lane in sweep["lanes"]],
                          t_max=GOLDEN["t_max"])
    assert _sha256([_sides(o) for o in outs]) == SWEEP_SHA256[sweep["m"]]


def test_shoot_bytes_are_pinned():
    records = [_sides(shoot(DissipativeParams(m), mu, t_max=t_max)) for m, mu, t_max in SHOOTS]
    assert _sha256(records) == SHOOTS_SHA256, records
