"""Parametric planar domain families and their exact boundary curves.

Every spec knows its analytic area, an inside test and a signed distance to
its boundary (negative inside; the periodic strip's counts both walls and
every period).  The bounded specs also emit boundary loops sampled *exactly
on* the parametric curve (equal arclength for smooth curves,
corner-preserving subdivision for polygons).  Loops are oriented with
the domain on the left: outer loops counterclockwise, hole loops clockwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np
from scipy.spatial import cKDTree

from ..errors import InvalidSpec


@dataclass(frozen=True)
class BoundaryLoop:
    """One closed boundary curve sampled at vertices lying on the exact curve."""

    points: np.ndarray  # (n, 2), consecutive vertices, closed implicitly
    corner_mask: np.ndarray  # (n,) bool, True at preserved polygon corners


def _circle_points(radius: float, n: int, ccw: bool = True) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(n) / n
    if not ccw:
        theta = -theta
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])


@dataclass(frozen=True)
class Disk:
    radius: float

    kind = "disk"

    def validate(self) -> None:
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise InvalidSpec(f"disk radius must be positive, got {self.radius}")

    def area(self) -> float:
        return math.pi * self.radius**2

    def characteristic_size(self) -> float:
        return self.radius

    def bbox(self) -> tuple[float, float, float, float]:
        r = self.radius
        return (-r, r, -r, r)

    def contains(self, pts: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.hypot(pts[:, 0], pts[:, 1]) <= self.radius + tol

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.hypot(pts[:, 0], pts[:, 1]) - self.radius

    def boundary_loops(self, h: float) -> list[BoundaryLoop]:
        n = max(12, int(round(2 * math.pi * self.radius / h)))
        pts = _circle_points(self.radius, n)
        return [BoundaryLoop(pts, np.zeros(n, dtype=bool))]


@dataclass(frozen=True)
class Ellipse:
    semi_a: float
    semi_b: float

    kind = "ellipse"

    def validate(self) -> None:
        if not (self.semi_a > 0 and self.semi_b > 0):
            raise InvalidSpec("ellipse semi-axes must be positive")

    def area(self) -> float:
        return math.pi * self.semi_a * self.semi_b

    def characteristic_size(self) -> float:
        return min(self.semi_a, self.semi_b)

    def bbox(self) -> tuple[float, float, float, float]:
        return (-self.semi_a, self.semi_a, -self.semi_b, self.semi_b)

    def contains(self, pts: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        pts = np.atleast_2d(pts)
        q = (pts[:, 0] / self.semi_a) ** 2 + (pts[:, 1] / self.semi_b) ** 2
        # tol is an absolute length; convert through the local gradient scale
        return q <= 1.0 + 2.0 * tol / min(self.semi_a, self.semi_b)

    def _point(self, theta: np.ndarray) -> np.ndarray:
        return np.column_stack([self.semi_a * np.cos(theta), self.semi_b * np.sin(theta)])

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        # distance to a dense boundary polyline, signed by the implicit test
        pts = np.atleast_2d(pts)
        ref = self._point(2 * math.pi * np.arange(2048) / 2048)
        d = _min_distance_to_polyline(pts, ref, closed=True)
        inside = (pts[:, 0] / self.semi_a) ** 2 + (pts[:, 1] / self.semi_b) ** 2 <= 1.0
        return np.where(inside, -d, d)

    def boundary_loops(self, h: float) -> list[BoundaryLoop]:
        # equal-arclength parameter values, points evaluated on the exact curve
        dense = 2 * math.pi * np.arange(8193) / 8192
        seg = np.hypot(
            self.semi_a * np.diff(np.cos(dense)), self.semi_b * np.diff(np.sin(dense))
        )
        s = np.concatenate([[0.0], np.cumsum(seg)])
        per = s[-1]
        n = max(16, int(round(per / h)))
        theta = np.interp(per * np.arange(n) / n, s, dense)
        pts = self._point(theta)
        return [BoundaryLoop(pts, np.zeros(n, dtype=bool))]


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[tuple[float, float], ...]

    kind = "polygon"

    def _array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    def validate(self) -> None:
        v = self._array()
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise InvalidSpec("polygon needs at least 3 (x, y) vertices")
        if _signed_area(v) <= 0:
            raise InvalidSpec("polygon must be counterclockwise (positive area)")
        if not _is_simple(v):
            raise InvalidSpec("polygon must be simple (non-self-intersecting)")

    def area(self) -> float:
        return _signed_area(self._array())

    def characteristic_size(self) -> float:
        v = self._array()
        w = v.max(axis=0) - v.min(axis=0)
        return float(min(w) / 2)

    def bbox(self) -> tuple[float, float, float, float]:
        v = self._array()
        return (v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())

    def contains(self, pts: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        v = self._array()
        return _points_in_loops(np.atleast_2d(pts), [v], tol)

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        v = self._array()
        d = _min_distance_to_polyline(pts, v, closed=True)
        return np.where(self.contains(pts, tol=0.0), -d, d)

    def boundary_loops(self, h: float) -> list[BoundaryLoop]:
        v = self._array()
        pts: list[np.ndarray] = []
        corners: list[bool] = []
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            m = max(1, int(round(np.hypot(*(b - a)) / h)))
            for k in range(m):
                pts.append(a + (b - a) * (k / m))
                corners.append(k == 0)
        return [BoundaryLoop(np.asarray(pts), np.asarray(corners))]


@dataclass(frozen=True)
class Annulus:
    r_in: float
    r_out: float

    kind = "annulus"

    def validate(self) -> None:
        if not (0 < self.r_in < self.r_out):
            raise InvalidSpec("annulus needs 0 < r_in < r_out")

    def area(self) -> float:
        return math.pi * (self.r_out**2 - self.r_in**2)

    def characteristic_size(self) -> float:
        return (self.r_out - self.r_in) / 2

    def bbox(self) -> tuple[float, float, float, float]:
        r = self.r_out
        return (-r, r, -r, r)

    def contains(self, pts: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        pts = np.atleast_2d(pts)
        r = np.hypot(pts[:, 0], pts[:, 1])
        return (r >= self.r_in - tol) & (r <= self.r_out + tol)

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        r = np.hypot(pts[:, 0], pts[:, 1])
        return np.maximum(self.r_in - r, r - self.r_out)

    def boundary_loops(self, h: float) -> list[BoundaryLoop]:
        n_out = max(12, int(round(2 * math.pi * self.r_out / h)))
        n_in = max(12, int(round(2 * math.pi * self.r_in / h)))
        outer = _circle_points(self.r_out, n_out, ccw=True)
        inner = _circle_points(self.r_in, n_in, ccw=False)
        return [
            BoundaryLoop(outer, np.zeros(n_out, dtype=bool)),
            BoundaryLoop(inner, np.zeros(n_in, dtype=bool)),
        ]


@dataclass(frozen=True)
class PeriodicStrip:
    """Strip {|y| < w(x)} with w(x) = c0 + sum_k ck cos(2 pi k x / period),
    represented on one period cell with identified left/right columns."""

    period: float
    half_width_coeffs: tuple[float, ...]

    kind = "periodic_strip"

    def validate(self) -> None:
        if not (self.period > 0 and math.isfinite(self.period)):
            raise InvalidSpec("period must be positive")
        if len(self.half_width_coeffs) == 0:
            raise InvalidSpec("at least the constant half-width coefficient is required")
        if min(self.half_width(np.linspace(0, self.period, 4097))) <= 0:
            raise InvalidSpec("half-width must stay strictly positive")

    def half_width(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        w = np.full_like(x, self.half_width_coeffs[0])
        for k, c in enumerate(self.half_width_coeffs[1:], start=1):
            w += c * np.cos(2 * math.pi * k * x / self.period)
        return w

    def area(self) -> float:
        # oscillatory modes integrate to zero over a full period
        return 2.0 * self.half_width_coeffs[0] * self.period

    def characteristic_size(self) -> float:
        return float(min(self.half_width(np.linspace(0, self.period, 2049))))

    def bbox(self) -> tuple[float, float, float, float]:
        wmax = float(max(self.half_width(np.linspace(0, self.period, 2049))))
        return (0.0, self.period, -wmax, wmax)

    def contains(self, pts: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.abs(pts[:, 1]) <= self.half_width(pts[:, 0]) + tol

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        # the strip is mirror-symmetric and T-periodic, so the wall point nearest
        # (x, y) lies on the top wall within T/2 of x mod T: measure from
        # (x mod T, |y|) to the top wall sampled 1024 times a period
        pts = np.atleast_2d(pts)
        q = np.column_stack([np.mod(pts[:, 0], self.period), np.abs(pts[:, 1])])
        xs = np.linspace(-0.5 * self.period, 1.5 * self.period, 2049)
        d = _min_distance_to_polyline(q, np.column_stack([xs, self.half_width(xs)]), closed=False)
        return np.where(self.contains(pts, tol=0.0), -d, d)


DomainSpec = Union[Disk, Ellipse, Polygon, Annulus, PeriodicStrip]

_KINDS = {cls.kind: cls for cls in (Disk, Ellipse, Polygon, Annulus, PeriodicStrip)}


def domain_spec_to_json(spec: DomainSpec) -> dict:
    """The spec's kind and fields; tuples stay tuples, which `json.dumps` writes as lists."""
    return {"kind": spec.kind, **asdict(spec)}


def json_number(value) -> float:
    """A JSON number as a finite float; true, false, strings, NaN and infinities
    are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    x = float(value)  # OverflowError past the double range
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {value!r}")
    return x


def domain_spec_from_json(data: dict) -> DomainSpec:
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise InvalidSpec("domain JSON needs a 'kind' discriminator") from None
    if kind not in _KINDS:
        raise InvalidSpec(f"unknown domain kind {kind!r}")
    fields = {k: v for k, v in data.items() if k != "kind"}
    try:
        if kind == "polygon":
            spec: DomainSpec = Polygon(
                tuple(tuple(map(json_number, v)) for v in fields["vertices"])
            )
        elif kind == "periodic_strip":
            spec = PeriodicStrip(
                json_number(fields["period"]),
                tuple(map(json_number, fields["half_width_coeffs"])),
            )
        else:
            spec = _KINDS[kind](**{k: json_number(v) for k, v in fields.items()})
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"bad fields for domain kind {kind!r}: {exc}") from exc
    spec.validate()
    return spec


# -- shared geometry helpers -------------------------------------------------


def _signed_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _orient(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (
        c[..., 0] - a[..., 0]
    )


def _is_simple(v: np.ndarray) -> bool:
    """No two non-adjacent edges of the closed polygon properly cross.

    Edge i runs from v[i] to v[i + 1]; all pairs are tested at once, in
    row chunks so that memory stays bounded.
    """
    n = len(v)
    a, b = v, np.roll(v, -1, axis=0)
    j = np.arange(n)
    step = max(1, 1_000_000 // n)
    for lo in range(0, n, step):
        i = np.arange(lo, min(lo + step, n))[:, None]
        p1, p2 = a[i], b[i]
        d1, d2 = _orient(a, b, p1), _orient(a, b, p2)
        d3, d4 = _orient(p1, p2, a), _orient(p1, p2, b)
        cross = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        # skip each pair once, and pairs of edges that share a vertex
        cross &= (j > i + 1) & ~((i == 0) & (j == n - 1))
        if cross.any():
            return False
    return True


def _min_distance_to_polyline(pts: np.ndarray, poly: np.ndarray, closed: bool) -> np.ndarray:
    """Exact point-to-segment distances along a polyline."""
    a = poly
    b = np.roll(poly, -1, axis=0) if closed else poly[1:]
    if not closed:
        a = poly[:-1]
    return _min_distance_to_segments(pts, a, b)


def _min_distance_to_segments(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact point distances to an explicit segment soup (starts a, ends b).

    A segment with midpoint m and half length r is no closer to p than
    |p - m| - r.  With up the distance from p to the segment whose midpoint
    is nearest, every segment at most up away has its midpoint within
    up + max(r) of p (widened by 1e-12 relative for rounding).  Only the
    midpoints in that ball, found in a KD-tree, are measured, by the same
    projection formula as a dense scan, so the minimum is the dense one.
    """
    ab = b - a
    den = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)

    def sq_dist(p: np.ndarray, s: np.ndarray) -> np.ndarray:
        ap = pts[p] - a[s]
        t = np.clip(np.einsum("ij,ij->i", ap, ab[s]) / den[s], 0.0, 1.0)
        diff = ap - t[:, None] * ab[s]
        return np.einsum("ij,ij->i", diff, diff)

    tree = cKDTree(0.5 * (a + b))
    idx = np.arange(len(pts))
    up = np.sqrt(sq_dist(idx, tree.query(pts)[1]))
    radius = (up + 0.5 * np.sqrt(den.max())) * (1.0 + 1e-12)
    cand = tree.query_ball_point(pts, radius, return_sorted=False)
    counts = np.fromiter(map(len, cand), dtype=np.intp, count=len(pts))
    s = np.fromiter(itertools.chain.from_iterable(cand), dtype=np.intp, count=counts.sum())
    p = np.repeat(idx, counts)
    d2 = np.full(len(pts), np.inf)
    np.minimum.at(d2, p, sq_dist(p, s))
    return np.sqrt(d2)


def _points_in_loops(pts: np.ndarray, loops: list[np.ndarray], tol: float) -> np.ndarray:
    """Crossing-parity inside test over a union of closed loops; points within
    tol of any boundary segment count as inside.

    Segment (a, b) can be crossed by the ray from (x, y) only when
    (a_y > y) != (b_y > y), i.e. min(a_y, b_y) <= y < max(a_y, b_y): with the
    points sorted by y that is one contiguous band, found by two binary
    searches, and only the pairs in a band are tested.
    """
    x, y = pts[:, 0], pts[:, 1]
    order = np.argsort(y)
    ys = y[order]
    inside = np.zeros(len(pts), dtype=bool)
    near = np.zeros(len(pts), dtype=bool)
    for loop in loops:
        a = loop
        b = np.roll(loop, -1, axis=0)
        ya, yb = a[:, 1], b[:, 1]
        xa, xb = a[:, 0], b[:, 0]
        start = np.searchsorted(ys, np.minimum(ya, yb), side="left")
        counts = np.searchsorted(ys, np.maximum(ya, yb), side="left") - start
        s = np.repeat(np.arange(len(a)), counts)
        first = np.repeat(np.cumsum(counts) - counts - start, counts)
        p = order[np.arange(len(s)) - first]
        xcross = xa[s] + (y[p] - ya[s]) * (xb - xa)[s] / (yb - ya)[s]
        hits = x[p] < xcross
        inside ^= (np.bincount(p[hits], minlength=len(pts)) % 2).astype(bool)
        if tol > 0:
            near |= _min_distance_to_polyline(pts, loop, closed=True) <= tol
    return inside | near
