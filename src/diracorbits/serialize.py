"""Deterministic text output: the one JSON and CSV rendering of every result.

Floats are written as ``repr(float(x))``, the shortest decimal that reads
back to the same double. JSON holds no NaN or infinity: non-finite floats
become ``null``. Integers, numpy integers included, stay integers.
"""

from __future__ import annotations

import json
import math
from numbers import Integral
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["dumps", "csv_text", "write_csv", "write_json"]


def _plain(obj):
    """Payload with numpy scalars as Python numbers and non-finite floats as None."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Integral) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    return obj


def dumps(obj) -> str:
    """Strict JSON text of ``obj``, with insertion-ordered keys and a final newline."""
    return json.dumps(_plain(obj), allow_nan=False) + "\n"


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, Integral):
        return str(x)
    return repr(float(x))


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    Path(path).write_text(csv_text(header, rows), encoding="utf-8", newline="\n")


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8", newline="\n")
