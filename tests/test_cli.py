"""End-to-end command-line tests: exit codes, file formats, determinism."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import diracorbits
from diracorbits import ansatz as ans
from diracorbits import cli
from diracorbits import dissipative as dis
from diracorbits.cli import main
from diracorbits.serialize import csv_text, dumps


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# exit-code contract


def test_clifford_ok(tmp_path):
    out = tmp_path / "rep.json"
    assert run("clifford", "--m", "3", "--emit", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["m"] == 3 and rep["dim"] == 2
    # alpha_3 = diag(-i, i)
    assert rep["alphas"][2] == [[[0, -1], [0, 0]], [[0, 0], [0, 1]]]
    report = json.loads((tmp_path / "rep.json.report.json").read_text())
    assert report["ok"] is True


def test_clifford_m1(tmp_path):
    out = tmp_path / "rep.json"
    assert run("clifford", "--m", "1", "--emit", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["alphas"] == [[[[0, 1]]]]


def test_clifford_dimension_cap():
    assert run("clifford", "--m", "13") == 1


def test_clifford_verification_failure_exit_2(tmp_path, monkeypatch, capsys):
    def broken_verify(rep):
        return {"ok": False, "pair_failures": [[1, 2, 2.0]]}

    monkeypatch.setattr(cli, "verify_rep", broken_verify)
    out = tmp_path / "rep.json"
    assert run("clifford", "--m", "3", "--emit", str(out)) == 2
    assert "verification failed" in capsys.readouterr().err


def test_unknown_command_exit_1():
    assert run("no-such-command") == 1


def test_bad_flag_exit_1():
    assert run("autonomous", "period", "--no-such-flag", "1") == 1


@pytest.mark.parametrize("h", ["0", "-1e-3", "1e-3,0"])
def test_residual_nonpositive_h_is_usage_error(h, capsys):
    assert run("ansatz", "residual", "--m", "3", f"--h={h}") == 1
    assert capsys.readouterr().err.startswith("usage error: --h steps must be positive")


def test_bad_value_exit_1():
    # K above the fold energy is a domain error, reported as exit 1
    assert run("autonomous", "period", "--m", "3", "--K", "99.0") == 1


@pytest.mark.parametrize("argv", [
    # z = 2 mu^2 overflows at the initial state: NonFiniteState
    ["dissipative", "shoot", "--m", "3", "--mu", "1e200"],
    # at m = 2 even the mapped Chebyshev rule cannot resolve the saddle
    # passage of an orbit this close to the homoclinic loop: NonConvergence
    ["autonomous", "period", "--m", "2", "--K", "1e-30"],
    # K0 = ((m-1)/2)^(m-1)/m overflows a float: OverflowError
    ["autonomous", "period", "--m", "1000"],
    # the k = 1 root lies past the quadrature's reach: NonConvergence
    # (T = 50, which the unmapped rule refused, now counts 23)
    ["autonomous", "bifurcation", "--m", "3", "--T", "80"],
    # a T so large that the scan floor is clamped at K = 1e-280
    ["autonomous", "bifurcation", "--m", "3", "--T", "1e6"],
])
def test_library_errors_exit_1_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(diracorbits.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "diracorbits.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: ")


def test_mu_too_fast_for_the_step_budget_exits_1_at_once():
    # the orbit turns ~2e19 times by t = 1: StepLimitExceeded before any step
    env = dict(os.environ, PYTHONPATH=str(Path(diracorbits.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "diracorbits.cli", "dissipative", "shoot",
                           "--m", "3", "--mu", "1e20"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: mu = 1e+20 turns about")


# ---------------------------------------------------------------------------
# autonomous commands


def test_period_energy_value(tmp_path):
    out = tmp_path / "period.json"
    assert run("autonomous", "period", "--m", "3", "--K", "0.1",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["energy"] == -0.05
    assert payload["s0"] < payload["s1"]
    assert payload["half_period"] > 0


def test_bifurcation_count(tmp_path):
    out = tmp_path / "bif.json"
    assert run("autonomous", "bifurcation", "--m", "3", "--T", "2.0",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 1
    assert payload["roots"] == []


def test_portrait_svg(tmp_path):
    out = tmp_path / "phase.svg"
    assert run("autonomous", "portrait", "--m", "3", "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    assert "<polyline" in text


def test_orbit_csv(tmp_path):
    out = tmp_path / "orbit.csv"
    assert run("autonomous", "orbit", "--m", "3", "--K", "0.1",
               "--n-samples", "101", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,u,v,H"
    assert len(lines) == 102


def test_homoclinic_report(tmp_path):
    out = tmp_path / "homo.json"
    assert run("autonomous", "homoclinic", "--m", "3", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["max_field_residual"] < 1e-12
    assert payload["max_abs_energy"] < 1e-12


# ---------------------------------------------------------------------------
# dissipative commands


def test_shoot_json(tmp_path):
    out = tmp_path / "shoot.json"
    assert run("dissipative", "shoot", "--m", "3", "--mu", "0.6",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["class"] == "A"
    assert payload["k"] == 0


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("dissipative", "sweep", "--m", "3", "--grid", "0.1,0.4,0.7",
               "--t-max", "30", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mu,k,class,H_tail"
    assert len(lines) == 4
    assert all(line.split(",")[2] == "A" for line in lines[1:])


def test_boundary_json(tmp_path):
    out = tmp_path / "boundary.json"
    assert run("dissipative", "boundary", "--m", "3", "--k", "0",
               "--mu-lo", "0.5", "--mu-hi", "1.0", "--tol", "1e-6",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["width"] <= 1e-6
    assert payload["mu_lo"] > 0.7


def test_boundary_requires_bracket_flags():
    assert run("dissipative", "boundary", "--m", "3", "--k", "0") == 1


BOUNDARY_T5 = ["dissipative", "boundary", "--m", "3", "--k", "0", "--mu-lo", "0.5",
               "--mu-hi", "1.0", "--t-max", "5"]


def _run_boundary(tol_flag):
    # a fresh interpreter under a timeout: these tolerances used to loop forever
    env = dict(os.environ, PYTHONPATH=str(Path(diracorbits.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "diracorbits.cli", *BOUNDARY_T5, tol_flag],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("tol_flag", ["--tol=0", "--tol=-1"])
def test_boundary_nonpositive_tol_is_usage_error(tol_flag):
    proc = _run_boundary(tol_flag)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["usage error: --tol must be positive"]


def test_boundary_tol_below_float_spacing_returns_adjacent_doubles():
    proc = _run_boundary("--tol=1e-20")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert np.nextafter(payload["mu_lo"], np.inf) == payload["mu_hi"]


@pytest.mark.parametrize("bracket, message", [
    # refused before any solve, where it used to integrate and then report
    # two k conditions
    (["--mu-lo", "0.8", "--mu-hi", "0.6"], "error: need finite 0 < mu_lo < mu_hi; got 0.8 and 0.6"),
    # both ends lie below the k = 0 boundary mu*(3) = 0.7071
    (["--mu-lo", "0.1", "--mu-hi", "0.4"], "error: need k(mu_lo) <= 0 and k(mu_hi) >= 1; "
                                           "got k(mu_hi) = 0"),
])
def test_boundary_bad_bracket_is_one_error_line(bracket, message):
    env = dict(os.environ, PYTHONPATH=str(Path(diracorbits.__file__).parents[1]))
    argv = ["dissipative", "boundary", "--m", "3", "--k", "0", *bracket]
    proc = subprocess.run([sys.executable, "-m", "diracorbits.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [message]


def test_rescaled_json(tmp_path):
    out = tmp_path / "rescaled.json"
    assert run("dissipative", "rescaled", "--m", "3", "--mu", "100",
               "--T", "5", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["sup_error"] < payload["reference_error"]
    assert 0.02 < payload["ratio_vs_mu10"] < 0.5


# ---------------------------------------------------------------------------
# ansatz commands


def test_profile_csv(tmp_path):
    out = tmp_path / "prof.csv"
    assert run("ansatz", "profile", "--m", "3", "--K", "0.1",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,f1,f2,psi_abs"
    assert len(lines) > 100


def test_residual_decreasing(tmp_path):
    out = tmp_path / "res.csv"
    assert run("ansatz", "residual", "--m", "3", "--source", "homoclinic",
               "--h", "1e-3,5e-4", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,max_residual"
    res = [float(line.split(",")[1]) for line in lines[1:]]
    assert res[0] > res[1]
    # second-order convergence: halving h divides the residual by about 4
    assert 3.0 < res[0] / res[1] < 5.0


def test_decay_exponent(tmp_path):
    out = tmp_path / "decay.json"
    assert run("ansatz", "decay", "--m", "3", "--K", "0.1", "--end", "zero",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["exponent"] - (-1.0)) < 0.1


# ---------------------------------------------------------------------------
# determinism and configuration


def test_outputs_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run("autonomous", "orbit", "--m", "3", "--K", "0.1",
                   "--n-samples", "201", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_parallel_byte_identical(tmp_path):
    a = tmp_path / "serial.csv"
    b = tmp_path / "parallel.csv"
    grid = "0.2,0.5,0.8,1.1"
    assert run("dissipative", "sweep", "--m", "3", "--grid", grid,
               "--t-max", "30", "--jobs", "1", "--out", str(a)) == 0
    assert run("dissipative", "sweep", "--m", "3", "--grid", grid,
               "--t-max", "30", "--jobs", "4", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "K": 0.15}))
    out = tmp_path / "period.json"
    assert run("autonomous", "period", "--config", str(cfg),
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["m"] == 2
    assert payload["K"] == 0.15


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "K": 0.15}))
    out = tmp_path / "period.json"
    assert run("autonomous", "period", "--config", str(cfg), "--m", "3",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["m"] == 3
    assert payload["K"] == 0.15


def test_config_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert run("autonomous", "period", "--config", str(cfg)) == 1


def test_log_level_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LOG_LEVEL", "debug")
    out = tmp_path / "period.json"
    assert run("autonomous", "period", "--m", "3", "--K", "0.1",
               "--out", str(out)) == 0


# ---------------------------------------------------------------------------
# one output path: stdout carries the bytes --out would write

SUBCOMMANDS = {
    "clifford": ["clifford", "--m", "3"],
    "period": ["autonomous", "period", "--m", "3", "--K", "0.1"],
    "orbit": ["autonomous", "orbit", "--m", "3", "--K", "0.1", "--n-samples", "101"],
    "portrait": ["autonomous", "portrait", "--m", "3"],
    "homoclinic": ["autonomous", "homoclinic", "--m", "3"],
    "bifurcation": ["autonomous", "bifurcation", "--m", "3", "--T", "5"],
    "shoot": ["dissipative", "shoot", "--m", "3", "--mu", "0.6", "--t-max", "10"],
    "sweep": ["dissipative", "sweep", "--m", "3", "--grid", "0.2,0.6", "--t-max", "10"],
    "boundary": ["dissipative", "boundary", "--m", "3", "--k", "0", "--mu-lo", "0.5",
                 "--mu-hi", "1.0", "--tol", "1e-2", "--t-max", "20"],
    "rescaled": ["dissipative", "rescaled", "--m", "3", "--mu", "20", "--T", "2"],
    "profile": ["ansatz", "profile", "--m", "3", "--source", "homoclinic"],
    "residual": ["ansatz", "residual", "--m", "3", "--source", "homoclinic", "--h", "1e-3"],
    "decay": ["ansatz", "decay", "--m", "3", "--K", "0.1", "--end", "zero"],
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_stdout_equals_out_file(name, tmp_path, capsys):
    argv = SUBCOMMANDS[name]
    code = run(*argv)
    captured = capsys.readouterr()
    assert code in (0, 1)
    if name == "portrait":
        # an SVG has no stdout form
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("usage error: ")
        return
    assert code == 0
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 0
    assert captured.out.encode("utf-8") == out.read_bytes()


@pytest.mark.parametrize("t_max", ["10", "60", "2000"])
def test_shoot_command_prints_the_shoot_record(t_max, monkeypatch, capsys):
    # the command solves a one-lane sweep, which forms only the samples the
    # record reads; at 2000 the solve fails at t = 710.48
    from diracorbits import dissipative as dis

    record = dis.shoot(dis.DissipativeParams(3), 0.6, float(t_max)).to_json_dict()
    monkeypatch.setattr(dis, "shoot", None)
    assert run("dissipative", "shoot", "--m", "3", "--mu", "0.6", "--t-max", t_max) == 0
    assert capsys.readouterr().out == dumps(record)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("sub", ["profile", "decay"])
def test_profile_past_the_double_range_is_one_error_line(sub, m, capsys):
    # f1 = -u e^(lt) passes 1.8e308 on the tail: the profile printed inf
    # rows and decay an exponent of null, each with an overflow warning.
    # decay --end infinity shoots only to t = 3, so its fit at the far end
    # of the tail, --end zero, is the decay that meets the overflow
    argv = ["ansatz", sub, "--source", "dissipative", "--m", str(m), "--mu", "0.6",
            "--t-max", "2000", "--end", "zero"]
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "not finite at t = " in lines[0]


def _decay(capsys, *argv):
    code = run("ansatz", "decay", "--source", "dissipative", "--mu", "0.6", *argv)
    return code, capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_decay_at_infinity_does_not_move_with_the_horizon(capsys):
    # the fit reads r in [0.1, 1], t in [0, ln 10]: it read -0.25607 at
    # --t-max 700 and -0.25510 at 1000, from the thinning samples of a
    # longer shoot, and too few samples from 2000 on (exit 1)
    outs = [_decay(capsys, "--end", "infinity", "--t-max", t)
            for t in ("3", "20", "700", "2000", "1e300")]
    assert all(code == 0 for code, _ in outs)
    assert len({out for _, out in outs}) == 1
    got = json.loads(outs[0][1])["exponent"]
    # a shoot to t = 3 sampled ten times as densely
    out = dis.shoot(dis.DissipativeParams(3), 0.6, 3.0, n_samples=40001)
    ref = ans.decay_fit(ans.profile_from_phase("dissipative", 3, out.trajectory), "infinity")
    assert abs(got - ref) <= 1e-4


def test_decay_at_zero_fits_the_whole_shoot(capsys):
    code, out = _decay(capsys, "--end", "zero", "--t-max", "20")
    assert code == 0
    shot = dis.shoot(dis.DissipativeParams(3), 0.6, 20.0)
    ref = ans.decay_fit(ans.profile_from_phase("dissipative", 3, shot.trajectory), "zero")
    assert json.loads(out)["exponent"] == ref


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("t_max", ["700", "2000", "1e300"])
def test_long_horizon_residual_falls_at_second_order(m, t_max, capsys):
    # the residual shoots only as far as its points and stencils reach
    # (t = 3), so its profile's samples lie 7.5e-4 apart at any horizon
    assert run("ansatz", "residual", "--source", "dissipative", "--m", str(m), "--mu", "0.6",
               "--t-max", t_max, "--h", "1e-2,5e-3,2.5e-3") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    r = [float(row.split(",")[1]) for row in rows]
    orders = [math.log2(a / b) for a, b in zip(r, r[1:])]
    assert len(orders) == 2 and all(1.8 <= x <= 2.2 for x in orders), orders


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_non_finite_result_is_strict_json_null(tmp_path, capsys):
    # the coupling cosh(t)^(-1/(m-1)) overflows at t ~ 710, where at m = 5
    # e^rho has overflowed too, so H_tail is -inf
    argv = ["dissipative", "shoot", "--m", "5", "--mu", "0.6", "--t-max", "2000"]
    assert run(*argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "shoot.json"
    assert run(*argv, "--out", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert stdout == text
    payload = json.loads(text, parse_constant=_reject_constant)
    assert payload["H_tail"] is None
    assert payload["class"] == "A"


def test_output_number_formats():
    payload = {"i": np.int64(3), "x": np.float64(0.1), "big": 1e300,
               "bad": [float("inf"), -float("inf"), float("nan")], "ok": True, "s": "A"}
    assert dumps(payload) == ('{"i": 3, "x": 0.1, "big": 1e+300, '
                              '"bad": [null, null, null], "ok": true, "s": "A"}\n')
    rows = [(np.float64(0.1), np.int64(2), "A", 1.0 / 3.0)]
    assert csv_text(["a", "b", "c", "d"], rows) == "a,b,c,d\n0.1,2,A,0.3333333333333333\n"


# ---------------------------------------------------------------------------
# non-finite numbers are usage errors

# (command in SUBCOMMANDS, flag); the bad value is appended and wins
FLOAT_FLAGS = [
    ("period", "--K"),
    ("bifurcation", "--T"),
    ("shoot", "--mu"),
    ("shoot", "--t-max"),
    ("boundary", "--tol"),
    ("boundary", "--mu-lo"),
    ("boundary", "--mu-hi"),
    ("rescaled", "--T"),
    ("sweep", "--mu-start"),
    ("sweep", "--mu-stop"),
    ("sweep", "--decay-threshold"),
    ("sweep", "--fit-tol"),
    ("sweep", "--deadband"),
    ("sweep", "--grid"),
    ("profile", "--K"),
    ("profile", "--mu"),
    ("profile", "--t-max"),
    ("residual", "--h"),
]


def _assert_one_usage_error(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--decay-threshold", "--fit-tol", "--deadband"])
def test_negative_threshold_is_an_error(flag, capsys):
    # Thresholds refuses it, as it refuses NaN, which made every k read 0
    assert run("dissipative", "shoot", "--m", "3", flag, "-1") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert flag[2:].replace("-", "_") in lines[0]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,flag", FLOAT_FLAGS)
def test_non_finite_flag_is_usage_error(name, flag, value, capsys):
    if flag in ("--grid", "--h"):
        value = f"0.5,{value}"
    assert run(*SUBCOMMANDS[name], f"{flag}={value}") == 1
    _assert_one_usage_error(capsys.readouterr().err)


@pytest.mark.parametrize("config", [
    '{"mu": NaN}',
    '{"t_max": Infinity}',
    '{"mu": 1e999}',
    '{"grid": "0.2,-inf"}',
    '{"tol": "-inf"}',
    # mu_lo and mu_hi default to None, yet their values get the flags' checks
    '{"mu_hi": "inf"}',
    '{"mu_lo": "abc"}',
])
def test_non_finite_config_value_is_usage_error(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert run("dissipative", "sweep", "--config", str(cfg)) == 1
    _assert_one_usage_error(capsys.readouterr().err)


@pytest.mark.parametrize("config", [
    '{"m": 3.7}',
    '{"m": true}',
    '{"mu_count": 2.5}',
    '{"mu_count": "2.5"}',
])
def test_non_integer_config_value_is_usage_error(config, tmp_path, capsys):
    # --m 3.7 and --mu-count 2.5 are rejected, so their config values are too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert run("dissipative", "sweep", "--config", str(cfg)) == 1
    _assert_one_usage_error(capsys.readouterr().err)


def test_integer_config_string_reads_as_its_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"m": "4"}')
    assert run("clifford", "--config", str(cfg)) == 0
    from_config = capsys.readouterr().out
    assert run("clifford", "--m", "4") == 0
    assert from_config == capsys.readouterr().out
    assert json.loads(from_config)["m"] == 4


@pytest.mark.parametrize("argv,flag,config", [
    (["dissipative", "sweep", "--m", "3", "--t-max", "10"], ["--grid", "0.2,0.5,0.8"],
     '{"grid": [0.2, 0.5, 0.8]}'),
    (["ansatz", "residual", "--m", "3", "--source", "homoclinic"], ["--h", "1e-2,5e-3"],
     '{"h": [1e-2, 5e-3]}'),
])
def test_config_list_reads_as_its_flag(argv, flag, config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert run(*argv, "--config", str(cfg)) == 0
    from_config = capsys.readouterr().out
    assert run(*argv, *flag) == 0
    assert from_config == capsys.readouterr().out


@pytest.mark.parametrize("config", [
    '{"func": "x"}',
    '{"command": "autonomous"}',
    '{"config": "missing.json"}',
    '{"K": 0.5}',
])
def test_config_keys_that_are_not_options_are_ignored(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert run("clifford", "--config", str(cfg)) == 0
    from_config = capsys.readouterr()
    assert "Traceback" not in from_config.err
    assert run("clifford") == 0
    assert from_config.out == capsys.readouterr().out


@pytest.mark.parametrize("argv,config", [
    (["dissipative", "sweep", "--grid", ","], None),
    (["ansatz", "residual", "--h", ","], None),
    (["ansatz", "residual"], '{"h": ""}'),
    (["dissipative", "sweep"], '{"grid": []}'),
])
def test_empty_list_is_usage_error(argv, config, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert run(*argv) == 1
    _assert_one_usage_error(capsys.readouterr().err)


@pytest.mark.parametrize("argv,config", [
    (["ansatz", "decay"], '{"end": "middle"}'),
    (["ansatz", "profile"], '{"end": "middle"}'),
    (["ansatz", "residual"], '{"source": "nowhere"}'),
])
def test_config_value_outside_the_choices_is_usage_error(argv, config, tmp_path, capsys):
    # --end middle and --source nowhere are refused, so their config values are too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert run(*argv, "--config", str(cfg)) == 1
    _assert_one_usage_error(capsys.readouterr().err)


# ---------------------------------------------------------------------------
# cold path: every command runs on numpy alone

COLD_PATH = [
    ["clifford", "--m", "4"],
    ["autonomous", "period", "--m", "3", "--K", "0.01"],
    ["autonomous", "orbit", "--m", "2", "--K", "0.05", "--n-samples", "101"],
    ["autonomous", "bifurcation", "--m", "3", "--T", "5"],
    ["autonomous", "homoclinic", "--m", "3"],
    ["autonomous", "portrait", "--m", "3"],
    ["ansatz", "residual", "--m", "3", "--source", "orbit", "--K", "0.01"],
    ["ansatz", "decay", "--m", "3", "--source", "orbit", "--K", "0.01"],
    ["ansatz", "profile", "--m", "3", "--source", "dissipative", "--mu", "0.6",
     "--t-max", "10"],
    SUBCOMMANDS["shoot"],
    SUBCOMMANDS["sweep"],
    SUBCOMMANDS["boundary"],
    SUBCOMMANDS["rescaled"],
]


def test_cold_path_never_imports_scipy(tmp_path):
    # the child cannot import scipy at all, as after installing the
    # package's runtime dependencies alone
    code = ("import json, sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from diracorbits.cli import main\n"
            "from diracorbits.numerics import find_root\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    assert main(argv + ['--out', f'out{i}']) == 0, argv\n"
            "x = find_root(lambda x: x**3 - 2, 0, 2)\n"
            "assert abs(x - 2 ** (1 / 3)) <= 1e-12, x\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(diracorbits.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(COLD_PATH)], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("K_frac", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_residual_orbit_is_second_order_at_default_h(m, K_frac, capsys):
    # the default --h is 1e-3, 5e-4, 2.5e-4; a profile interpolated without
    # its exact slopes floored at m = 2 and the order fell to 0
    K = K_frac * ((m - 1) / 2) ** (m - 1) / m
    assert run("ansatz", "residual", "--m", str(m), "--source", "orbit", "--K", repr(K)) == 0
    res = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert all(1.8 <= q <= 2.2 for q in orders), (res, orders)


# ---------------------------------------------------------------------------
# LOG_LEVEL=debug: one stderr line per command, outputs unchanged


def _cli(argv, cwd, debug):
    env = dict(os.environ, PYTHONPATH=str(Path(diracorbits.__file__).parents[1]))
    env.pop("LOG_LEVEL", None)
    if debug:
        env["LOG_LEVEL"] = "debug"
    return subprocess.run([sys.executable, "-m", "diracorbits.cli", *argv], cwd=cwd,
                          capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("argv,name,scipy", [
    (SUBCOMMANDS["period"], "autonomous period", "not loaded"),
    (SUBCOMMANDS["shoot"], "dissipative shoot", "not loaded"),
])
def test_debug_log_leaves_outputs_byte_identical(argv, name, scipy, tmp_path):
    plain, debug = _cli(argv, tmp_path, False), _cli(argv, tmp_path, True)
    assert plain.returncode == debug.returncode == 0
    assert plain.stdout == debug.stdout and plain.stderr == b""
    line, = debug.stderr.decode().splitlines()
    assert line.startswith(f"DEBUG diracorbits: {name}: main ")
    assert line.endswith(f" s, scipy {scipy}")
    if scipy == "not loaded":
        assert _cli(argv + ["--out", "a"], tmp_path, False).returncode == 0
        assert _cli(argv + ["--out", "b"], tmp_path, True).returncode == 0
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes() == plain.stdout


@pytest.mark.parametrize("argv", [
    ["dissipative", "shoot", "--mu", "2.5", "--t-max", "1e-300"],
    ["dissipative", "sweep", "--grid", "0.2,0.6", "--t-max", "1e-300"],
])
def test_horizon_too_short_for_a_tail_fit_writes_only_the_output(argv, tmp_path):
    # the sample times all lie within float spacings of 1e-300, where a tail
    # fit has no slope; stdout holds the command's output and nothing else
    plain = _cli(argv, tmp_path, False)
    assert plain.returncode in (0, 2), plain.stderr
    assert b"DLASCL" not in plain.stdout + plain.stderr
    assert _cli(argv + ["--out", "a"], tmp_path, False).returncode == plain.returncode
    assert (tmp_path / "a").read_bytes() == plain.stdout


# ---------------------------------------------------------------------------
# argv fuzz: any drawn command line ends with exit 0, 1 or 2, quickly

FUZZ_FLAGS = {
    "clifford": ["--m"],
    "autonomous": ["--m", "--K", "--T", "--n-samples"],
    "dissipative": ["--m", "--mu", "--t-max", "--k", "--tol", "--mu-lo", "--mu-hi", "--T",
                    "--jobs", "--grid", "--mu-start", "--mu-stop", "--mu-count",
                    "--decay-threshold", "--fit-tol", "--deadband"],
    "ansatz": ["--m", "--K", "--mu", "--t-max", "--source", "--end", "--h"],
}
FUZZ_COMMANDS = [["clifford"]] + [
    ["autonomous", sub] for sub in ("portrait", "period", "orbit", "homoclinic", "bifurcation")
] + [["dissipative", sub] for sub in ("shoot", "sweep", "boundary", "rescaled")] + [
    ["ansatz", sub] for sub in ("profile", "residual", "decay")]
FUZZ_FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "0.05", "0.4", "2.5", "12",
               "1e300", "abc"]
FUZZ_INTS = ["-1", "0", "1", "2", "3", "5", "13", "400", "x"]
# counts stay small: a huge --n-samples or --mu-count asks for a huge output
FUZZ_VALUES = {
    "--m": FUZZ_INTS, "--k": FUZZ_INTS, "--jobs": FUZZ_INTS,
    "--n-samples": ["-1", "0", "8", "300"], "--mu-count": ["-1", "0", "1", "5"],
    "--source": ["orbit", "homoclinic", "equilibrium", "dissipative", "nowhere"],
    "--end": ["zero", "infinity", "middle"],
    "--grid": ["0.2,0.6", "nan", "1e300", "", "-0.5,0.3"],
    "--h": ["1e-3,5e-4", "0", "-1e-3", "1e300", "1e-300"],
    # finite, but the orbit turns too fast for the step budget
    "--mu": FUZZ_FLOATS + ["1e20"], "--mu-lo": FUZZ_FLOATS + ["1e20"],
    "--mu-hi": FUZZ_FLOATS + ["1e20"],
}


@st.composite
def fuzz_argv(draw):
    argv = list(draw(st.sampled_from(FUZZ_COMMANDS)))
    for flag in draw(st.lists(st.sampled_from(FUZZ_FLAGS[argv[0]]), max_size=4, unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(FUZZ_VALUES.get(flag, FUZZ_FLOATS)))}")
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), "--no-such-flag")
    return argv


@given(fuzz_argv())
@settings(max_examples=40, deadline=10_000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_argv_fuzz_exits_0_1_or_2(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) in (0, 1, 2)
