"""Minimal deterministic SVG output (800x600, no external plotting deps).

Figures are byte-reproducible for identical inputs: fixed-format coordinates,
no timestamps, and the run's config digest embedded as a comment.
"""

from __future__ import annotations

import numpy as np

from .geom2d.predicates import edge_crossings

WIDTH, HEIGHT = 800, 600
_MARGIN = 50
_PALETTE = ("#1f6fb2", "#d1495b", "#3a7d44", "#8d5a97", "#c98a2b", "#4f6d7a")


class _Mapper:
    def __init__(self, xs: np.ndarray, ys: np.ndarray, log=False):
        self.log = log  # log10 on both axes
        xs = np.log10(xs) if log else xs
        ys = np.log10(ys) if log else ys
        self.x0, self.x1 = float(np.min(xs)), float(np.max(xs))
        self.y0, self.y1 = float(np.min(ys)), float(np.max(ys))
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0

    def map(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        x = np.log10(x) if self.log else np.asarray(x, dtype=float)
        y = np.log10(y) if self.log else np.asarray(y, dtype=float)
        px = _MARGIN + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - 2 * _MARGIN)
        py = HEIGHT - _MARGIN - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - 2 * _MARGIN)
        return px, py


def _document(body: list[str], digest: str) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- config-digest: {digest} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _points(px: np.ndarray, py: np.ndarray) -> list[str]:
    """Each mapped point as "x,y", both to two decimals."""
    return [f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist())]


def _polyline(points: list[str], color: str, width: float) -> str:
    return (f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def _equal_aspect_mapper(curves: list[np.ndarray]) -> _Mapper:
    allp = np.vstack(curves)
    m = _Mapper(allp[:, 0], allp[:, 1])
    # pad the shorter axis so x and y scales agree
    spanx, spany = m.x1 - m.x0, m.y1 - m.y0
    frame = (WIDTH - 2 * _MARGIN) / (HEIGHT - 2 * _MARGIN)
    if spanx / spany > frame:
        extra = spanx / frame - spany
        m.y0 -= extra / 2
        m.y1 += extra / 2
    else:
        extra = spany * frame - spanx
        m.x0 -= extra / 2
        m.x1 += extra / 2
    return m


def domain_figure(loops: list[np.ndarray], digest: str) -> str:
    """Boundary polylines, drawn as given, at equal aspect."""
    m = _equal_aspect_mapper(loops)
    body = [_polyline(_points(*m.map(lp[:, 0], lp[:, 1])), _PALETTE[i % len(_PALETTE)], 1.6)
            for i, lp in enumerate(loops)]
    return _document(body, digest)


def level_set_figure(
    vertices: np.ndarray,
    triangles: np.ndarray,
    values: np.ndarray,
    loops: list[np.ndarray],
    digest: str,
    n_levels: int = 9,
) -> str:
    """Marching-triangle level sets of a nodal field plus the outline, whose
    polylines are drawn as given."""
    m = _equal_aspect_mapper(loops)
    body = [_polyline(_points(*m.map(lp[:, 0], lp[:, 1])), "#333333", 1.6) for lp in loops]
    vmin, vmax = float(values.min()), float(values.max())
    if vmax <= vmin:
        return _document(body, digest)
    levels = vmin + (vmax - vmin) * (np.arange(1, n_levels + 1) / (n_levels + 1))
    nxt = np.roll(triangles, -1, axis=1)
    pa, pb, va, vb = vertices[triangles], vertices[nxt], values[triangles], values[nxt]
    for li, level in enumerate(levels):
        color = _PALETTE[li % len(_PALETTE)]
        cross, pts = edge_crossings(pa, pb, va, vb, level)
        # a triangle with exactly two crossing edges holds one segment
        n = cross.sum(axis=1)
        xy = _points(*m.map(*pts[np.repeat(n == 2, n)].T))
        body.extend(_polyline(xy[k : k + 2], color, 0.9) for k in range(0, len(xy), 2))
    return _document(body, digest)


def chart_figure(
    series: list[tuple[np.ndarray, np.ndarray, str]],
    digest: str,
    log: bool = False,
) -> str:
    """Simple line chart with min/max tick labels; series = (x, y, label);
    `log` puts both axes on a log10 scale."""
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    m = _Mapper(xs, ys, log=log)
    body = [
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{WIDTH - 2 * _MARGIN}" '
        f'height="{HEIGHT - 2 * _MARGIN}" fill="none" stroke="#999999"/>'
    ]
    for i, (x, y, label) in enumerate(series):
        px, py = m.map(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        color = _PALETTE[i % len(_PALETTE)]
        body.append(_polyline(_points(px, py), color, 1.5))
        body.append(
            f'<text x="{WIDTH - _MARGIN - 150}" y="{_MARGIN + 18 + 16 * i}" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    for val, px, py, anchor in (
        (xs.min(), _MARGIN, HEIGHT - _MARGIN + 16, "middle"),
        (xs.max(), WIDTH - _MARGIN, HEIGHT - _MARGIN + 16, "middle"),
    ):
        body.append(
            f'<text x="{px}" y="{py}" font-size="11" text-anchor="{anchor}" '
            f'fill="#333333">{val:.6g}</text>'
        )
    for val, py in ((ys.min(), HEIGHT - _MARGIN), (ys.max(), _MARGIN)):
        body.append(
            f'<text x="{_MARGIN - 6}" y="{py + 4}" font-size="11" text-anchor="end" '
            f'fill="#333333">{val:.6g}</text>'
        )
    return _document(body, digest)
