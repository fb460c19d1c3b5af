"""Spans around the package's public functions, recorded from outside it.

``install`` swaps module attributes for timing wrappers in every loaded
``diracorbits`` module that holds the same function object, so calls
made inside the package (``shoot`` -> ``integrate``) are seen too;
``restore`` puts the originals back. A span is

    [name, start, end, parent index, request id, counters]

and spans stay in a list until the run writes them out. Counters are
gathered where the work happens: field and energy evaluations and steps
on ``numerics.integrate``, nodes on the quadrature, function values on
the root finder, horizons on ``shoot``, bytes on the writers.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# (module, attribute) -> span name
TARGETS = {
    ("numerics", "integrate"): "numerics.integrate",
    ("numerics", "quad_chebyshev_endpoint"): "numerics.quad",
    ("numerics", "find_root"): "numerics.find_root",
    ("dissipative", "shoot"): "dissipative.shoot",
    ("dissipative", "classify_sweep"): "dissipative.classify_sweep",
    ("dissipative", "boundary_bisect"): "dissipative.boundary_bisect",
    ("autonomous", "solutions_count"): "autonomous.solutions_count",
    ("autonomous", "half_period"): "autonomous.half_period",
    ("autonomous", "fk_zeros"): "autonomous.fk_zeros",
    ("autonomous", "periodic_orbit_trajectory"): "autonomous.periodic_orbit_trajectory",
    ("ansatz", "profile_from_phase"): "ansatz.profile_from_phase",
    ("ansatz", "pde_residual"): "ansatz.pde_residual",
    ("ansatz", "ansatz_eval"): "ansatz.ansatz_eval",
    ("clifford", "build_rep"): "clifford.build_rep",
    ("serialize", "write_csv"): "serialize.write_csv",
    ("serialize", "write_json"): "serialize.write_json",
    ("svg", "render_figure"): "svg.render_figure",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request, {}])
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self.stack.pop()

    def extend(self, spans: list[list], request: int) -> None:
        """Append spans recorded elsewhere (a child process) under one request."""
        base = len(self.spans)
        for name, start, end, parent, _, counters in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               request, counters])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _counting(fn, counters: dict, key: str, size=None):
    counters[key] = 0

    def counted(*args):
        counters[key] += 1 if size is None else size(args[0])
        return fn(*args)

    return counted


def _before_integrate(counters, args, kwargs):
    args = list(args)
    args[0] = _counting(args[0], counters, "field_evals")
    if kwargs.get("energy") is not None:
        kwargs["energy"] = _counting(kwargs["energy"], counters, "energy_evals")
    elif len(args) > 5 and args[5] is not None:
        args[5] = _counting(args[5], counters, "energy_evals")
    return args, kwargs


def _after_integrate(counters, args, result, exc):
    traj = result if exc is None else getattr(exc, "trajectory", None)
    if traj is not None:
        counters["accepted"] = traj.steps_accepted
        counters["rejected"] = traj.steps_rejected


def _before_quad(counters, args, kwargs):
    return [_counting(args[0], counters, "nodes", size=len)] + list(args[1:]), kwargs


def _before_find_root(counters, args, kwargs):
    return [_counting(args[0], counters, "fevals")] + list(args[1:]), kwargs


def _after_shoot(counters, args, result, exc):
    if exc is None:
        counters["t_end"] = result.t_end
        trap = result.first_nonpositive_H
        counters["t_trap"] = result.t_end if trap is None else trap


def _after_write(counters, args, result, exc):
    if exc is None:
        counters["bytes"] = os.path.getsize(args[0])


HOOKS = {
    "numerics.integrate": (_before_integrate, _after_integrate),
    "numerics.quad": (_before_quad, None),
    "numerics.find_root": (_before_find_root, None),
    "dissipative.shoot": (None, _after_shoot),
    "serialize.write_csv": (None, _after_write),
    "serialize.write_json": (None, _after_write),
}


def _wrap(tracer: Tracer, name: str, fn):
    before, after = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        counters = tracer.spans[i][5]
        if before is not None:
            args, kwargs = before(counters, args, kwargs)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(i)
            if after is not None:
                after(counters, args, None, exc)
            raise
        tracer.close(i)
        if after is not None:
            after(counters, args, result, None)
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target in every loaded package module; returns the undo list."""
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "diracorbits" or n.startswith("diracorbits."))]
    undo = []
    for (mod_name, attr), name in TARGETS.items():
        home = sys.modules.get(f"diracorbits.{mod_name}")
        if home is None:
            continue
        orig = getattr(home, attr)
        wrapper = _wrap(tracer, name, orig)
        for mod in mods:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, orig))
    return undo


def restore(undo: list[tuple]) -> None:
    for mod, attr, orig in undo:
        setattr(mod, attr, orig)


# ---------------------------------------------------------------- metrics


class Spans:
    """Read-only queries over one span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_name: dict[str, list[int]] = {}
        self.children_s = [0.0] * len(spans)
        for i, sp in enumerate(spans):
            self.by_name.setdefault(sp[0], []).append(i)
            if sp[3] >= 0:
                self.children_s[sp[3]] += sp[2] - sp[1]

    def named(self, name: str) -> list[list]:
        return [self.spans[i] for i in self.by_name.get(name, ())]

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def seconds(self, *names: str) -> float:
        return sum(sp[2] - sp[1] for n in names for sp in self.named(n))

    def counter(self, name: str, key: str) -> float:
        return sum(sp[5].get(key, 0) for sp in self.named(name))

    def self_seconds(self, name: str) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] - self.children_s[i]
                   for i in self.by_name.get(name, ()))

    def children_named(self, parent: str, child: str) -> int:
        parents = set(self.by_name.get(parent, ()))
        return sum(1 for sp in self.named(child) if sp[3] in parents)


def _steps(s: Spans) -> float:
    return s.counter("numerics.integrate", "accepted") + s.counter("numerics.integrate", "rejected")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# name -> (unit, better, span that must be present, value)
LAYER_METRICS = {
    "numerics.integrate.calls": ("count", "lower", "numerics.integrate",
                                 lambda s: s.calls("numerics.integrate")),
    "numerics.integrate.s": ("s", "lower", "numerics.integrate",
                             lambda s: s.seconds("numerics.integrate")),
    "numerics.integrate.steps_accepted": ("count", "lower", "numerics.integrate",
                                          lambda s: s.counter("numerics.integrate", "accepted")),
    "numerics.integrate.steps_rejected": ("count", "lower", "numerics.integrate",
                                          lambda s: s.counter("numerics.integrate", "rejected")),
    "numerics.integrate.accept_ratio": (
        "ratio", "higher", "numerics.integrate",
        lambda s: _ratio(s.counter("numerics.integrate", "accepted"), _steps(s))),
    "numerics.integrate.us_per_step": (
        "us", "lower", "numerics.integrate",
        lambda s: 1e6 * _ratio(s.seconds("numerics.integrate"), _steps(s))),
    "numerics.field_evals": ("count", "lower", "numerics.integrate",
                             lambda s: s.counter("numerics.integrate", "field_evals")),
    "numerics.field_evals_per_step": (
        "evals/step", "lower", "numerics.integrate",
        lambda s: _ratio(s.counter("numerics.integrate", "field_evals"), _steps(s))),
    "numerics.energy_evals": ("count", "lower", "numerics.integrate",
                              lambda s: s.counter("numerics.integrate", "energy_evals")),
    "numerics.quad.calls": ("count", "lower", "numerics.quad",
                            lambda s: s.calls("numerics.quad")),
    "numerics.quad.nodes": ("count", "lower", "numerics.quad",
                            lambda s: s.counter("numerics.quad", "nodes")),
    "numerics.quad.s": ("s", "lower", "numerics.quad", lambda s: s.seconds("numerics.quad")),
    "numerics.find_root.calls": ("count", "lower", "numerics.find_root",
                                 lambda s: s.calls("numerics.find_root")),
    "numerics.find_root.fevals": ("count", "lower", "numerics.find_root",
                                  lambda s: s.counter("numerics.find_root", "fevals")),
    "numerics.find_root.s": ("s", "lower", "numerics.find_root",
                             lambda s: s.seconds("numerics.find_root")),
    "dissipative.shoot.calls": ("count", "lower", "dissipative.shoot",
                                lambda s: s.calls("dissipative.shoot")),
    "dissipative.shoot.self_s": ("s", "lower", "dissipative.shoot",
                                 lambda s: s.self_seconds("dissipative.shoot")),
    "dissipative.shoot.post_trap_share": (
        "ratio", "lower", "dissipative.shoot",
        lambda s: _ratio(s.counter("dissipative.shoot", "t_end")
                         - s.counter("dissipative.shoot", "t_trap"),
                         s.counter("dissipative.shoot", "t_end"))),
    "dissipative.classify_sweep.s": ("s", "lower", "dissipative.classify_sweep",
                                     lambda s: s.seconds("dissipative.classify_sweep")),
    "dissipative.boundary_bisect.rounds": (
        "shoots", "lower", "dissipative.boundary_bisect",
        lambda s: _ratio(s.children_named("dissipative.boundary_bisect", "dissipative.shoot"),
                         s.calls("dissipative.boundary_bisect"))),
    "autonomous.solutions_count.s": ("s", "lower", "autonomous.solutions_count",
                                     lambda s: s.seconds("autonomous.solutions_count")),
    "autonomous.half_period.calls": ("count", "lower", "autonomous.half_period",
                                     lambda s: s.calls("autonomous.half_period")),
    "autonomous.half_period.s": ("s", "lower", "autonomous.half_period",
                                 lambda s: s.seconds("autonomous.half_period")),
    "autonomous.fk_zeros.calls": ("count", "lower", "autonomous.fk_zeros",
                                  lambda s: s.calls("autonomous.fk_zeros")),
    "autonomous.periodic_orbit_trajectory.s": (
        "s", "lower", "autonomous.periodic_orbit_trajectory",
        lambda s: s.seconds("autonomous.periodic_orbit_trajectory")),
    "ansatz.profile_from_phase.s": ("s", "lower", "ansatz.profile_from_phase",
                                    lambda s: s.seconds("ansatz.profile_from_phase")),
    "ansatz.pde_residual.s": ("s", "lower", "ansatz.pde_residual",
                              lambda s: s.seconds("ansatz.pde_residual")),
    "ansatz.field_evals": ("count", "lower", "ansatz.ansatz_eval",
                           lambda s: s.calls("ansatz.ansatz_eval")),
    "clifford.build_rep.s": ("s", "lower", "clifford.build_rep",
                             lambda s: s.seconds("clifford.build_rep")),
    "cli.main_s": ("s", "lower", "cli.main",
                   lambda s: statistics.median(sp[2] - sp[1] for sp in s.named("cli.main"))),
    "serialize.write_s": ("s", "lower", "cli.main",
                          lambda s: s.seconds("serialize.write_csv", "serialize.write_json")),
    "serialize.bytes": ("B", "lower", "cli.main",
                        lambda s: s.counter("serialize.write_csv", "bytes")
                        + s.counter("serialize.write_json", "bytes")),
    "svg.render_figure.s": ("s", "lower", "svg.render_figure",
                            lambda s: s.seconds("svg.render_figure")),
}

# measured by run.py outside any span
FLOOR_METRICS = {
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import.scipy_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_metrics(workload: Spans, probe: Spans) -> tuple[dict, list[str]]:
    """Every layer metric, from the workload's spans where it reaches the
    layer and from the probe's spans where it does not."""
    values, from_probe = {}, []
    for name, (_, _, key, fn) in LAYER_METRICS.items():
        source = workload
        if workload.calls(key) == 0:
            source = probe
            from_probe.append(name)
        values[name] = float(fn(source))
    return values, from_probe


def scipy_import_seconds(importtime_stderr: str) -> float:
    """Cumulative import time of the outermost scipy modules, from -X importtime.

    The log is post-order: a module's parent is the next line indented
    one level less. Only scipy modules whose parent is not scipy count,
    so nested imports are not counted twice.
    """
    rows = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total_us = 0
    for i, (depth, cum, name) in enumerate(rows):
        if not name.startswith("scipy"):
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or not parent[2].startswith("scipy"):
            total_us += cum
    return total_us / 1e6
