"""Golden outcomes of the shooting classifier, pinned from the original integrator.

`golden_dissipative.json` holds k, class, H_tail, envelope and the first
nonpositive-H time for seeded sweep grids at m = 3, 4, 5, and two
boundary_bisect brackets at m = 3. The tolerances below are stated in
the file; a change of integrator must stay within them.
"""

import json
import math
from pathlib import Path

import pytest

from diracorbits.dissipative import DissipativeParams, boundary_bisect, classify_sweep

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
