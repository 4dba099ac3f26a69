"""Minimal deterministic SVG line charts for trace metrics.

Charts are plain polylines with axes, ticks and a legend, written with fixed
float formatting so identical inputs produce identical bytes.  One series
per trace file; rows whose metric is missing or not finite break the polyline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .samples import ConfigurationError
from .trace import COLUMNS, read_trace, write_atomic


class PlotError(ConfigurationError):
    """Unusable plot request (unknown metric, malformed trace, log of <= 0)."""


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 16, 44


@dataclass(frozen=True)
class Series:
    label: str
    ts: list[float]
    values: list[float | None]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _tick_label(v: float, logy: bool) -> str:
    return f"{10.0 ** v:.3g}" if logy else f"{v:.4g}"


def _plotted(v: float, logy: bool, label: str) -> float:
    if not logy:
        return float(v)
    if v <= 0:
        raise PlotError(f"log scale needs strictly positive values; series "
                        f"{label!r} has {v!r}")
    return math.log10(v)


def series_from_traces(paths: Sequence, metric: str) -> list[Series]:
    if metric not in COLUMNS or metric == "t":
        raise PlotError(f"unknown metric {metric!r}; available: "
                        f"{', '.join(c for c in COLUMNS if c != 't')}")
    out = []
    for p in paths:
        try:
            tr = read_trace(p)
        except ValueError as exc:   # a bad header or row, or bytes not UTF-8
            raise PlotError(f"malformed trace {p}: {exc}") from exc
        out.append(Series(label=Path(p).stem,
                          ts=[float(r.t) for r in tr.records],
                          values=tr.column(metric)))
    return out


def render_chart(series: list[Series], metric: str, logy: bool = False) -> str:
    """Render the SVG document for the given series."""
    # each series' runs of (t, value), split at missing and non-finite values
    runs: list[list[list[tuple[float, float]]]] = []
    for s in series:
        runs.append([])
        for gap, pts in itertools.groupby(zip(s.ts, s.values), key=lambda p: (
                p[1] is None or not math.isfinite(p[1]))):
            if not gap:
                runs[-1].append([(t, _plotted(v, logy, s.label)) for t, v in pts])
    pts_all = [p for segs in runs for seg in segs for p in seg]
    if not pts_all:
        raise PlotError(f"no values to plot for metric {metric!r}")
    xs, ys = zip(*pts_all)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(t: float) -> float:
        return _ML + (_W - _ML - _MR) * (t - x_lo) / (x_hi - x_lo)

    def sy(v: float) -> float:
        return _H - _MB - (_H - _MT - _MB) * (v - y_lo) / (y_hi - y_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_H - _MB + 18}" font-size="11" '
                     f'text-anchor="middle">{tv:.4g}</text>')
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
                     f'y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" font-size="11" '
                     f'text-anchor="end">{_tick_label(tv, logy)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 8}" '
                 f'font-size="12" text-anchor="middle">t</text>')
    ylab = f"log10({metric})" if logy else metric
    parts.append(f'<text x="14" y="{_MT + 10}" font-size="12">{ylab}</text>')

    for i, (s, segs) in enumerate(zip(series, runs)):
        color = _PALETTE[i % len(_PALETTE)]
        for seg in segs:
            points = " ".join(f"{_fmt(sx(t))},{_fmt(sy(v))}" for t, v in seg)
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="{points}"/>')
        ly = _MT + 14 + 16 * i
        label = s.label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<line x1="{_W - 170}" y1="{ly - 4}" x2="{_W - 146}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - 140}" y="{ly}" font-size="11">'
                     f'{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot(trace_paths: Sequence, metric: str, out_path, logy: bool = False) -> None:
    """Write a line chart of one metric across trace files to an SVG file,
    through a temporary file renamed into place."""
    series = series_from_traces(trace_paths, metric)
    write_atomic(out_path, render_chart(series, metric, logy=logy))

