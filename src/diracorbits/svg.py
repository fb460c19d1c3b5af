"""Minimal static SVG 1.1 emitter: polylines, point markers, axis ticks.

Output is deterministic: fixed float formatting, fixed element order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["render_figure"]

# canvas size in px, and intervals between axis ticks
WIDTH, HEIGHT, N_TICKS = 640, 480, 5
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _f(x: float) -> str:
    return format(float(x), ".4f")


def render_figure(
    path: str | Path,
    curves: Sequence[tuple[np.ndarray, np.ndarray]],
    markers: Sequence[tuple[float, float]] = (),
    title: str = "",
) -> None:
    """Write an SVG of 2-D curves with linear axes fitted to the data."""
    if not curves and not markers:
        raise ValueError("nothing to draw")
    xs = np.concatenate([np.asarray(c[0], dtype=float) for c in curves] or [np.empty(0)])
    ys = np.concatenate([np.asarray(c[1], dtype=float) for c in curves] or [np.empty(0)])
    if markers:
        xs = np.concatenate([xs, [m[0] for m in markers]])
        ys = np.concatenate([ys, [m[1] for m in markers]])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad_x = 0.05 * (x_hi - x_lo)
    pad_y = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    margin = 40.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * margin)

    def sy(y: float) -> float:
        return HEIGHT - margin - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * margin)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}px" height="{HEIGHT}px" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_f(WIDTH / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    # axes
    out.append(
        f'<line x1="{_f(margin)}" y1="{_f(HEIGHT - margin)}" '
        f'x2="{_f(WIDTH - margin)}" y2="{_f(HEIGHT - margin)}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{_f(margin)}" y1="{_f(margin)}" '
        f'x2="{_f(margin)}" y2="{_f(HEIGHT - margin)}" stroke="black"/>'
    )
    for i in range(N_TICKS + 1):
        xv = x_lo + (x_hi - x_lo) * i / N_TICKS
        yv = y_lo + (y_hi - y_lo) * i / N_TICKS
        px, py = sx(xv), sy(yv)
        out.append(
            f'<line x1="{_f(px)}" y1="{_f(HEIGHT - margin)}" x2="{_f(px)}" '
            f'y2="{_f(HEIGHT - margin + 5)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_f(px)}" y="{_f(HEIGHT - margin + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_f(xv)}</text>'
        )
        out.append(
            f'<line x1="{_f(margin - 5)}" y1="{_f(py)}" x2="{_f(margin)}" '
            f'y2="{_f(py)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_f(margin - 8)}" y="{_f(py + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_f(yv)}</text>'
        )
    for i, (cx, cy) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_f(sx(float(a)))},{_f(sy(float(b)))}" for a, b in zip(cx, cy))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"/>')
    for mx, my in markers:
        out.append(
            f'<circle cx="{_f(sx(mx))}" cy="{_f(sy(my))}" r="3" fill="black"/>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")
