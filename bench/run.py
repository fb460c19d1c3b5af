"""diracorbits benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (it imports the package from ./src).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from a traced round. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
import tracing
import workloads as w

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
FLOOR_REPEATS = 3


@dataclass
class Workload:
    make_round: Callable  # seed -> list of request items
    request: Callable | None  # (pkg, item) -> output; None: a CLI command
    check: Callable  # (item, output, oracles.Memo) -> list of errors
    units: Callable  # item -> units of work it completes
    warm_up: Callable | None


WORKLOADS = {
    "sweep": Workload(w.sweep_round, w.sweep_request, w.sweep_check,
                      lambda item: len(item[1]), w.warm_up_dissipative),
    "bisect": Workload(w.bisect_round, w.bisect_request, w.bisect_check,
                       lambda item: 1, w.warm_up_dissipative),
    "orbits": Workload(w.orbits_round, w.orbits_request, w.orbits_check,
                       lambda item: 1, w.warm_up_orbits),
    "cli-cold": Workload(w.cli_round, None, w.cli_check, lambda item: 1, None),
}


@dataclass
class Result:
    item: object
    output: object  # None when the request raised
    error: str | None
    seconds: float


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- running


def run_round(work: Workload, pkg, items, cli_dir: Path, env: dict, tracer=None) -> list[Result]:
    """Each item once, in order; with a tracer, each request gets the next id."""
    results = []
    for item in items:
        if tracer is not None:
            tracer.request += 1
        if work.request is None:
            prefix = None
            if tracer is not None:
                spans_path = cli_dir / "spans.json"
                spans_path.unlink(missing_ok=True)
                prefix = [str(BENCH / "cli_child.py"), str(spans_path)]
            res = w.run_cli(item[1], cli_dir, env, prefix)
            failed = None if res.returncode == 0 else f"exit {res.returncode}"
            if tracer is not None and spans_path.is_file():
                tracer.extend(json.loads(spans_path.read_text(encoding="utf-8")), tracer.request)
            results.append(Result(item, res, failed, res.seconds))
            continue
        if tracer is not None:
            span = tracer.open("request")
        t0 = time.perf_counter()
        try:
            output, error = work.request(pkg, item), None
        except Exception as exc:  # a failed request is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        results.append(Result(item, output, error, seconds))
    return results


def run_timed(work: Workload, pkg, items, seconds: float, cli_dir: Path, env: dict):
    """Whole rounds; another starts only if it should end within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        results += run_round(work, pkg, items, cli_dir, env)
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            return results, now - start


def check_results(work: Workload, results: list[Result], memo: oracles.Memo) -> list[str]:
    errors = []
    for res in results:
        if res.error is None:
            try:
                errors += work.check(res.item, res.output, memo)
            except oracles.OracleError as exc:
                errors.append(f"oracle failed on {res.item!r}: {exc}")
    return errors


def child_seconds(cmd: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=170)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int, env: dict) -> float:
    """Median over fresh interpreters of: import, inputs, warm-up."""
    if workload == "cli-cold":
        cmd = [sys.executable, "-c", "import diracorbits.cli"]
    else:
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    return statistics.median(child_seconds(cmd, env) for _ in range(SETUP_REPEATS))


def floor_metrics(env: dict) -> dict:
    """Cold-start floor: bare interpreter, import of diracorbits.cli, scipy's share."""
    interp = statistics.median(child_seconds([sys.executable, "-c", "pass"], env)
                               for _ in range(FLOOR_REPEATS))
    timed_import = ("import time; t = time.perf_counter(); import diracorbits.cli; "
                    "print(time.perf_counter() - t)")
    imports = []
    for _ in range(FLOOR_REPEATS):
        proc = subprocess.run([sys.executable, "-c", timed_import], cwd=ROOT, env=env,
                              check=True, capture_output=True, text=True, timeout=170)
        imports.append(float(proc.stdout.strip()))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import diracorbits.cli"],
                          cwd=ROOT, env=env, check=True, capture_output=True, text=True,
                          timeout=170)
    return {"cli.interpreter_s": interp, "cli.import_s": statistics.median(imports),
            "cli.import.scipy_s": tracing.scipy_import_seconds(proc.stderr)}


# Fixed, seed-independent calls that reach the layers a workload does not,
# so every per-layer metric is measured on every workload.
PROBE_KEYS = {
    "dissipative": {"numerics.integrate", "dissipative.shoot", "dissipative.classify_sweep",
                    "dissipative.boundary_bisect"},
    "orbits": {"numerics.quad", "numerics.find_root", "autonomous.solutions_count",
               "autonomous.half_period", "autonomous.fk_zeros",
               "autonomous.periodic_orbit_trajectory", "ansatz.profile_from_phase",
               "ansatz.pde_residual", "ansatz.ansatz_eval", "clifford.build_rep"},
    "cli": {"cli.main", "svg.render_figure"},
}
PROBE_CLI = [["clifford", "--m", "4", "--emit", "rep.json"],
             ["autonomous", "portrait", "--m", "3", "--out", "portrait.svg"]]


def run_probe(missing: set, pkg, cli_dir: Path, env: dict) -> list[list]:
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        if missing & PROBE_KEYS["dissipative"]:
            dis = pkg.dissipative
            params = dis.DissipativeParams(3)
            dis.classify_sweep(params, [0.3, 1.0], t_max=20.0)
            dis.boundary_bisect(params, 0, 0.6, 0.8, tol=1e-3, t_max=20.0)
        if missing & PROBE_KEYS["orbits"]:
            w.orbits_request(pkg, (3, 4.0))
    finally:
        tracing.restore(undo)
    if missing & PROBE_KEYS["cli"]:
        spans_path = cli_dir / "spans.json"
        prefix = [str(BENCH / "cli_child.py"), str(spans_path)]
        for i, argv in enumerate(PROBE_CLI):
            res = w.run_cli(argv, cli_dir, env, prefix)
            if res.returncode != 0:
                raise RuntimeError(f"probe command {argv} failed: {res.stderr[-300:]}")
            tracer.extend(json.loads(spans_path.read_text(encoding="utf-8")), request=i)
    return tracer.spans


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diracorbits" / "__init__.py").is_file():
        log(f"error: no package source at {ROOT / 'src' / 'diracorbits'}; "
            "run from the root of a diracorbits source tree")
        return 3
    work = WORKLOADS[args.workload]
    env = w.child_env(ROOT)

    if args.setup_only:
        pkg = w.Package(ROOT)
        work.make_round(args.seed)
        work.warm_up(pkg)
        return 0

    cli_dir = OUT / f"cli-{args.workload}-{args.seed}"
    cli_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            report = traced_run(args, work, env, cli_dir)
        else:
            report = untraced_run(args, work, env, cli_dir)
    finally:
        shutil.rmtree(cli_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def untraced_run(args, work: Workload, env: dict, cli_dir: Path) -> dict:
    setup_s = setup_seconds(args.workload, args.seed, env)
    pkg = None
    if work.request is not None:
        pkg = w.Package(ROOT)
        work.warm_up(pkg)
    items = work.make_round(args.seed)
    results, wall = run_timed(work, pkg, items, args.seconds, cli_dir, env)
    who = resource.RUSAGE_SELF if work.request is not None else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    units = sum(work.units(r.item) for r in results if r.error is None)
    return report(work, results, {
        "setup_s": (setup_s, "s"),
        "request_p50_s": (statistics.median(r.seconds for r in results), "s"),
        "ops_per_s": (units / wall, "ops/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })


def traced_run(args, work: Workload, env: dict, cli_dir: Path) -> dict:
    """One round, each request run untraced and then traced; per-layer metrics.

    Interleaving the two per request keeps slow drifts of machine speed out
    of the overhead figure.
    """
    pkg = w.Package(ROOT)
    if work.warm_up is not None:
        work.warm_up(pkg)
    tracer = tracing.Tracer()
    plain, traced = [], []
    for item in work.make_round(args.seed):
        plain += run_round(work, pkg, [item], cli_dir, env)
        undo = tracing.install(tracer)
        try:
            traced += run_round(work, pkg, [item], cli_dir, env, tracer)
        finally:
            tracing.restore(undo)
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)

    spans = tracing.Spans(tracer.spans)
    missing = {key for _, _, key, _ in tracing.LAYER_METRICS.values() if spans.calls(key) == 0}
    probe = run_probe(missing, pkg, cli_dir, env)
    values, from_probe = tracing.layer_metrics(spans, tracing.Spans(probe))
    values.update(floor_metrics(env))
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    log(f"traced round {traced_s:.3f} s, untraced {plain_s:.3f} s; "
        f"from the probe: {', '.join(from_probe) or 'none'}")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.spans,
                   "probe_spans": probe, "from_probe": from_probe}, fh)
    units = {**{k: u for k, (u, _, _, _) in tracing.LAYER_METRICS.items()},
             **{k: u for k, (u, _) in tracing.FLOOR_METRICS.items()}}
    return report(work, plain + traced, {k: (v, units[k]) for k, v in values.items()})


def report(work: Workload, results: list[Result], metrics: dict) -> dict:
    """Check every output and build the result line; problems go to stderr."""
    errors = check_results(work, results, oracles.Memo())
    failed = [r for r in results if r.error is not None]
    for msg in sorted({f"failed: {r.item!r}: {r.error}" for r in failed}):
        log(msg)
    for e in errors:
        log(f"wrong: {e}")
    return {
        "correct": not errors,
        "attempted": sum(work.units(r.item) for r in results),
        "failed": sum(work.units(r.item) for r in failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
