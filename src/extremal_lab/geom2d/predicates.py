"""Geometric predicates on domains and meshes.

These back the quantitative domain checks: grid-sampled inscribed-ball radii,
cap reflection across a cutting line (graph-over-chord and reflected-cap
containment), exact point-set diameters, and minimum enclosing circles.
Periodic meshes are unrolled over three period copies before any predicate
runs, so features crossing the cell boundary are handled; components touching
the unrolled cut are reported as unbounded with their distance to the cut.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from ..errors import EmptyDomain, NonTransversal
from .domain import (
    Annulus,
    Disk,
    DomainSpec,
    PeriodicStrip,
    _min_distance_to_polyline,
    _min_distance_to_segments,
    _points_in_loops,
)
from .meshing import Mesh


@dataclass(frozen=True)
class Line:
    """Infinite oriented line: the positive side is to the left of direction."""

    point: tuple[float, float]
    direction: tuple[float, float]

    def __post_init__(self) -> None:
        d = np.asarray(self.direction, dtype=float)
        n = float(np.hypot(*d))
        if n == 0:
            raise ValueError("line direction must be nonzero")
        object.__setattr__(self, "direction", (d[0] / n, d[1] / n))

    @property
    def normal(self) -> np.ndarray:
        dx, dy = self.direction
        return np.array([-dy, dx])

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (pts - np.asarray(self.point)) @ self.normal

    def along(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (pts - np.asarray(self.point)) @ np.asarray(self.direction)


def _cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


# -- hulls, diameters, enclosing circles ---------------------------------------


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull, counterclockwise, strict turns only."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def build(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while (
                len(out) >= 2
                and _cross2(out[-1] - out[-2], p - out[-2]) <= 0
            ):
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    hull = np.asarray(lower[:-1] + upper[:-1])
    return hull


def component_diameter(points: np.ndarray) -> float:
    """Exact max pairwise distance via rotating calipers on the convex hull."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise ValueError("component_diameter needs a nonempty point set")
    hull = convex_hull(pts)
    m = len(hull)
    if m == 1:
        return 0.0
    if m == 2:
        return float(np.hypot(*(hull[1] - hull[0])))

    def d2(i, j):
        v = hull[j] - hull[i]
        return float(v @ v)

    best, pair = 0.0, (0, 0)
    j = 1
    for i in range(m):
        ni = (i + 1) % m
        e = hull[ni] - hull[i]
        while True:
            nj = (j + 1) % m
            if _cross2(e, hull[nj] - hull[i]) > _cross2(e, hull[j] - hull[i]):
                j = nj
            else:
                break
        for cand in ((i, j), (ni, j)):
            if d2(*cand) > best:
                best, pair = d2(*cand), cand
    return float(np.hypot(*(hull[pair[1]] - hull[pair[0]])))


def _circumcircle(a, b, c) -> tuple[np.ndarray, float] | None:
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < 1e-30:
        return None
    ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
    uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
    center = np.array([ux, uy])
    return center, float(np.hypot(*(a - center)))


def min_enclosing_circle(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest circle containing the points (Welzl, seeded shuffle)."""
    pts = [np.asarray(p, dtype=float) for p in np.unique(np.asarray(points, float), axis=0)]
    if not pts:
        raise ValueError("min_enclosing_circle needs points")
    rng = random.Random(0x5EED)
    rng.shuffle(pts)
    eps = 1e-10

    def inside(c, r, p):
        return np.hypot(*(p - c)) <= r * (1 + eps) + eps

    c, r = pts[0], 0.0
    for i in range(1, len(pts)):
        if inside(c, r, pts[i]):
            continue
        c, r = pts[i], 0.0
        for j in range(i):
            if inside(c, r, pts[j]):
                continue
            c = (pts[i] + pts[j]) / 2
            r = float(np.hypot(*(pts[i] - c)))
            for k in range(j):
                if inside(c, r, pts[k]):
                    continue
                cc = _circumcircle(pts[i], pts[j], pts[k])
                if cc is None:
                    # collinear triple: diametral circle of the farthest pair
                    trio = [pts[i], pts[j], pts[k]]
                    best = None
                    for a in range(3):
                        for b in range(a + 1, 3):
                            dd = float(np.hypot(*(trio[a] - trio[b])))
                            if best is None or dd > best[0]:
                                best = (dd, (trio[a] + trio[b]) / 2)
                    c, r = best[1], best[0] / 2
                else:
                    c, r = cc
    return c, r


# -- inscribed ball -------------------------------------------------------------


def _strip_wall_segments(spec: PeriodicStrip, copies: int, n_per_period: int) -> np.ndarray:
    xs = np.linspace(-copies * spec.period, (copies + 1) * spec.period, 2 * copies * n_per_period + 1)
    w = spec.half_width(xs)
    return np.vstack([np.column_stack([xs, w]), np.column_stack([xs, -w])])


def inscribed_ball(target: DomainSpec | Mesh, g: float) -> tuple[float, np.ndarray]:
    """Largest distance-to-boundary over a grid of spacing g inside the domain.

    Returns (rho, center); rho is a lower bound for the inradius and is
    within O(g) of it.
    """
    if g <= 0:
        raise ValueError("grid spacing must be positive")

    if isinstance(target, Mesh):
        mesh = target
        if mesh.is_periodic_x:
            top = max(float(mesh.vertices[:, 1].max()), 0.0)
            bbox = (0.0, mesh.period, float(mesh.vertices[:, 1].min()), top)
            # walls only (no cut columns): replicate the boundary edges,
            # whose endpoint coordinates are contiguous across the seam
            k = int(math.ceil((top + mesh.period) / mesh.period))
            a0 = mesh.vertices[mesh.boundary_edges[:, 0]]
            b0 = mesh.vertices[mesh.boundary_edges[:, 1]]
            shifts = np.array([[s * mesh.period, 0.0] for s in range(-k, k + 1)])
            seg_a = np.concatenate([a0 + sh for sh in shifts])
            seg_b = np.concatenate([b0 + sh for sh in shifts])

            # inside test: between the interpolated walls
            top_ids = mesh.loop_vertex_ids(_top_loop_index(mesh))
            bot_ids = mesh.loop_vertex_ids(1 - _top_loop_index(mesh))
            tx = mesh.vertices[top_ids]
            bx = mesh.vertices[bot_ids]
            tx = tx[np.argsort(tx[:, 0])]
            bx = bx[np.argsort(bx[:, 0])]

            def inside(p):
                xm = np.mod(p[:, 0], mesh.period)
                tvals = np.interp(xm, tx[:, 0], tx[:, 1], period=mesh.period)
                bvals = np.interp(xm, bx[:, 0], bx[:, 1], period=mesh.period)
                return (p[:, 1] <= tvals + 1e-10) & (p[:, 1] >= bvals - 1e-10)

            def dist(p):
                return _min_distance_to_segments(p, seg_a, seg_b)

        else:
            loops = mesh.boundary_polygons()
            v = mesh.vertices
            bbox = (v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())

            def inside(p):
                return _points_in_loops(p, loops, tol=1e-10)

            def dist(p):
                return np.min(
                    np.stack([_min_distance_to_polyline(p, c, closed=True) for c in loops]),
                    axis=0,
                )

    elif isinstance(target, PeriodicStrip):
        spec = target
        spec.validate()
        wmax = -spec.bbox()[2]
        bbox = (0.0, spec.period, -wmax, wmax)
        copies = int(math.ceil(wmax / spec.period)) + 1
        wall = _strip_wall_segments(spec, copies, max(512, int(8 * spec.period / g)))
        half = len(wall) // 2

        def inside(p):
            return spec.contains(p, tol=1e-10)

        def dist(p):
            dtop = _min_distance_to_polyline(p, wall[:half], closed=False)
            dbot = _min_distance_to_polyline(p, wall[half:], closed=False)
            return np.minimum(dtop, dbot)

    else:
        spec = target
        spec.validate()
        bbox = spec.bbox()

        def inside(p):
            return spec.contains(p, tol=1e-10)

        if isinstance(spec, Disk):
            def dist(p):
                return spec.radius - np.hypot(p[:, 0], p[:, 1])
        elif isinstance(spec, Annulus):
            def dist(p):
                r = np.hypot(p[:, 0], p[:, 1])
                return np.minimum(r - spec.r_in, spec.r_out - r)
        else:
            loops = [lp.points for lp in spec.boundary_loops(_dense_spacing(spec, g))]

            def dist(p):
                return np.min(
                    np.stack([_min_distance_to_polyline(p, c, closed=True) for c in loops]),
                    axis=0,
                )

    xmin, xmax, ymin, ymax = bbox
    xs = xmin + g * (np.arange(max(1, int((xmax - xmin) / g)) ) + 0.5)
    ys = ymin + g * (np.arange(max(1, int((ymax - ymin) / g)) ) + 0.5)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    mask = inside(pts)
    if not np.any(mask):
        raise EmptyDomain("no grid point landed inside the domain")
    pts = pts[mask]
    d = dist(pts)
    best = int(np.argmax(d))
    return float(d[best]), pts[best]


def _dense_spacing(spec: DomainSpec, g: float) -> float:
    size = spec.characteristic_size()
    return max(min(g / 4.0, size / 16.0), size / 4096.0)


def _top_loop_index(mesh: Mesh) -> int:
    y0 = mesh.vertices[mesh.loop_vertex_ids(0), 1].mean()
    y1 = mesh.vertices[mesh.loop_vertex_ids(1), 1].mean()
    return 0 if y0 > y1 else 1


# -- cap reflection -------------------------------------------------------------


@dataclass
class CapComponent:
    """One connected component of (domain intersect positive side of L)."""

    bounded: bool
    height: float | None
    graph_over_chord: bool | None
    reflection_contained: bool | None
    distance_to_cut: float | None
    n_triangles: int


@dataclass
class CapReport:
    line: Line
    components: list[CapComponent] = field(default_factory=list)

    def bounded_components(self) -> list[CapComponent]:
        return [c for c in self.components if c.bounded]


def superlevel_triangle_components(
    mesh: Mesh, values: np.ndarray, level: float
) -> list[np.ndarray]:
    """Triangles of {values > level}, grouped by connectivity.

    A triangle is kept when its largest vertex value is above the level; two
    kept triangles are joined across a shared edge whose larger endpoint value
    is above the level.  Components come ordered by their lowest triangle
    index and list their triangles in ascending order.
    """
    kept = np.nonzero(values[mesh.triangles].max(axis=1) > level)[0]
    if len(kept) == 0:
        return []
    edges = np.sort(mesh.triangles[kept][:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
    owner = np.repeat(np.arange(len(kept)), 3)
    live = values[edges].max(axis=1) > level
    key = edges[live, 0] * len(mesh.vertices) + edges[live, 1]
    owner = owner[live]
    order = np.argsort(key, kind="stable")
    key, owner = key[order], owner[order]
    shared = np.nonzero(key[1:] == key[:-1])[0]
    adjacency = sparse.coo_matrix(
        (np.ones(len(shared)), (owner[shared], owner[shared + 1])), shape=(len(kept), len(kept))
    )
    n_comp, labels = connected_components(adjacency, directed=False)
    by_label = np.argsort(labels, kind="stable")
    return np.split(kept[by_label], np.cumsum(np.bincount(labels, minlength=n_comp))[:-1])


def _clip_triangle(p: np.ndarray, s: np.ndarray, tol: float) -> np.ndarray:
    """Vertices of the triangle part with signed distance >= 0."""
    out: list[np.ndarray] = []
    for i in range(3):
        j = (i + 1) % 3
        if s[i] >= -tol:
            out.append(p[i])
        if (s[i] > tol and s[j] < -tol) or (s[i] < -tol and s[j] > tol):
            t = s[i] / (s[i] - s[j])
            out.append(p[i] + t * (p[j] - p[i]))
    return np.asarray(out)


def cap_reflect(mesh: Mesh, line: Line, tol: float = 1e-10) -> CapReport:
    """Connected components of the domain on the positive side of the line,
    with the graph-over-chord and reflected-containment predicates."""
    work = mesh.unrolled()
    scale = float(
        max(
            work.vertices[:, 0].max() - work.vertices[:, 0].min(),
            work.vertices[:, 1].max() - work.vertices[:, 1].min(),
        )
    )
    tol_len = 1e-12 * scale
    cut_xs: tuple[float, ...] = ()
    if mesh.is_periodic_x:
        cut_xs = (-mesh.period, 2.0 * mesh.period)

    s_all = line.signed_distance(work.vertices)
    dvec = np.asarray(line.direction)

    # transversality: boundary edges meeting L must not be near-parallel to it
    be = work.boundary_edges
    s_a, s_b = s_all[be[:, 0]], s_all[be[:, 1]]
    meets = (np.minimum(s_a, s_b) <= tol) & (np.maximum(s_a, s_b) >= -tol)
    if np.any(meets):
        e = work.vertices[be[meets, 1]] - work.vertices[be[meets, 0]]
        e = e / np.hypot(e[:, 0], e[:, 1])[:, None]
        sin_angle = np.abs(e[:, 0] * dvec[1] - e[:, 1] * dvec[0])
        if np.any(sin_angle < 1e-6):
            raise NonTransversal("a boundary edge meets the cutting line at angle < 1e-6")

    boundary_keys = {
        (min(int(u), int(v)), max(int(u), int(v))) for u, v in work.boundary_edges
    }
    domain_polys = work.boundary_polygons()

    report = CapReport(line=line)
    for tris in superlevel_triangle_components(work, s_all, tol):
        pieces = []
        bnd_segs: list[tuple[np.ndarray, np.ndarray]] = []
        for t in tris:
            idx = work.triangles[t]
            poly = _clip_triangle(work.vertices[idx], s_all[idx], tol_len)
            if len(poly) >= 3:
                pieces.append(poly)
            for i in range(3):
                u, v = int(idx[i]), int(idx[(i + 1) % 3])
                key = (min(u, v), max(u, v))
                if key not in boundary_keys:
                    continue
                pu, pv = work.vertices[u], work.vertices[v]
                su, sv = float(s_all[u]), float(s_all[v])
                if max(su, sv) <= tol_len:
                    continue
                if su < 0 or sv < 0:
                    t_cross = su / (su - sv)
                    cross_pt = pu + t_cross * (pv - pu)
                    if su > sv:
                        pv, sv = cross_pt, 0.0
                    else:
                        pu, su = cross_pt, 0.0
                bnd_segs.append((pu, pv))
        if not pieces:
            continue
        verts = np.vstack(pieces)
        heights = line.signed_distance(verts)

        if cut_xs:
            dist_cut = float(min(np.abs(verts[:, 0] - cx).min() for cx in cut_xs))
            bounded = dist_cut > 1e-9 * scale
        else:
            dist_cut = None
            bounded = True

        if not bounded:
            report.components.append(
                CapComponent(
                    bounded=False,
                    height=None,
                    graph_over_chord=None,
                    reflection_contained=None,
                    distance_to_cut=dist_cut,
                    n_triangles=len(tris),
                )
            )
            continue

        height = float(heights.max())

        # graph over chord: over the open chord span, each line orthogonal to
        # L may meet the boundary arc at most once.  Arc segments orthogonal
        # to L are tolerated at the two chord extremes (side walls) but not
        # in the interior, and projection intervals may only touch.
        graph = True
        ov_tol = 1e-9 * scale
        intervals = []
        orthogonal_ts = []
        for pu, pv in bnd_segs:
            ta, tb = float(line.along(pu)[0]), float(line.along(pv)[0])
            seg_len = float(np.hypot(*(pv - pu)))
            if abs(tb - ta) < ov_tol and seg_len > 100 * ov_tol:
                orthogonal_ts.append(0.5 * (ta + tb))
                continue
            intervals.append((min(ta, tb), max(ta, tb)))
        if intervals:
            t_lo = min(lo for lo, _ in intervals + [(t, t) for t in orthogonal_ts])
            t_hi = max(hi for _, hi in intervals + [(t, t) for t in orthogonal_ts])
            for t in orthogonal_ts:
                if t_lo + ov_tol < t < t_hi - ov_tol:
                    graph = False
        intervals.sort()
        cur_end = -np.inf
        for lo, hi in intervals:
            if lo < cur_end - ov_tol:
                graph = False
                break
            cur_end = max(cur_end, hi)

        # reflected boundary vertices must stay inside the closed domain
        bpts = (
            np.vstack([np.vstack(seg) for seg in bnd_segs]) if bnd_segs else np.empty((0, 2))
        )
        if len(bpts):
            refl = bpts - 2.0 * line.signed_distance(bpts)[:, None] * line.normal[None, :]
            contained = bool(np.all(_points_in_loops(refl, domain_polys, tol=1e-10)))
        else:
            contained = True

        report.components.append(
            CapComponent(
                bounded=True,
                height=height,
                graph_over_chord=graph,
                reflection_contained=contained,
                distance_to_cut=dist_cut,
                n_triangles=len(tris),
            )
        )
    return report
