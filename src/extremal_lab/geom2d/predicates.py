"""Geometric predicates on domains and meshes.

These back the quantitative domain checks: inscribed-ball radii, sampled on a
grid inside a domain spec and read from the spec's own signed distance, cap
reflection across a cutting line (graph-over-chord and reflected-cap
containment), exact point-set diameters, and minimum enclosing circles.
Cap reflection unrolls a periodic mesh over three period copies first, so
caps crossing the cell boundary are handled; components touching the
unrolled cut are reported as unbounded with their distance to the cut.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from ..errors import EmptyDomain, NonTransversal
from .domain import DomainSpec, _points_in_loops
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


MAX_GRID_POINTS = 4_000_000


def grid_point_count(bbox: tuple[float, float, float, float], g: float) -> float:
    """Size of the inscribed-ball grid of spacing g over the box, up to rounding."""
    xmin, xmax, ymin, ymax = map(float, bbox)  # Python floats overflow to inf quietly
    return max(1.0, (xmax - xmin) / g) * max(1.0, (ymax - ymin) / g)


def inscribed_ball(spec: DomainSpec, g: float) -> tuple[float, np.ndarray]:
    """Largest distance to the boundary, read from the spec's own signed
    distance, over the points of a grid of spacing g on the spec's bbox that
    lie in the domain (a periodic strip's bbox is one period cell).

    Returns (rho, center); rho is a lower bound for the inradius and is
    within O(g) of it.
    """
    if g <= 0:
        raise ValueError("grid spacing must be positive")
    spec.validate()
    xmin, xmax, ymin, ymax = spec.bbox()
    if grid_point_count((xmin, xmax, ymin, ymax), g) > MAX_GRID_POINTS:
        raise ValueError(f"grid spacing {g} asks for more than {MAX_GRID_POINTS} points")
    xs = xmin + g * (np.arange(max(1, int((xmax - xmin) / g))) + 0.5)
    ys = ymin + g * (np.arange(max(1, int((ymax - ymin) / g))) + 0.5)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[spec.contains(pts, tol=1e-10)]
    if not len(pts):
        raise EmptyDomain("no grid point landed inside the domain")
    d = -spec.signed_distance(pts)
    best = int(np.argmax(d))
    return float(d[best]), pts[best]


# -- cap reflection -------------------------------------------------------------


@dataclass
class CapComponent:
    """One connected component of (domain intersect positive side of L)."""

    bounded: bool
    height: float | None
    graph_over_chord: bool | None
    reflection_contained: bool | None
    distance_to_cut: float | None


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
    kept triangles are joined through twins (which pair across a periodic
    seam: pass the ``unrolled()`` cover) whose larger endpoint value is above
    the level.  Components come by lowest triangle, triangles ascending.
    """
    keep = values[mesh.triangles].max(axis=1) > level
    kept = np.nonzero(keep)[0]
    if len(kept) == 0:
        return []
    h = (3 * kept[:, None] + np.arange(3)).ravel()
    tw = mesh.twin[h]
    top = values[mesh.triangles[kept][:, [[0, 1], [1, 2], [2, 0]]]].max(axis=2).ravel()
    join = (h < tw) & keep[tw // 3] & (top > level)
    t, u = (np.cumsum(keep) - 1)[np.stack([h[join], tw[join]]) // 3]
    adjacency = sparse.coo_matrix((np.ones(len(t)), (t, u)), shape=(len(kept), len(kept)))
    n_comp, labels = connected_components(adjacency, directed=False)
    by_label = np.argsort(labels, kind="stable")
    return np.split(kept[by_label], np.cumsum(np.bincount(labels, minlength=n_comp))[:-1])


def edge_crossings(pa, pb, va, vb, level, cross=None):
    """Where a P1 field crosses the level along edges a -> b.

    The mask defaults to (va > level) != (vb > level); the points are
    pa + w (pb - pa) with w = (level - va) / (vb - va), in the mask's
    row-major order.
    """
    if cross is None:
        cross = (va > level) != (vb > level)
    a, fa = pa[cross], va[cross]
    w = (level - fa) / (vb[cross] - fa)
    return cross, a + w[:, None] * (pb[cross] - a)


def clip_slots(p, v, level, keep, cross=None):
    """Kept vertices and edge crossings of triangles p (T, 3, 2) carrying
    values v (T, 3), in six slots (p0, c01, p1, c12, p2, c20) per triangle.

    Returns the (T, 6, 2) slots and their (T, 6) mask; ``slots[mask]`` lists
    the points triangle by triangle in slot order.
    """
    p_next, v_next = np.roll(p, -1, axis=1), np.roll(v, -1, axis=1)
    cross, pts = edge_crossings(p, p_next, v, v_next, level, cross)
    slots = np.zeros((len(p), 3, 2, 2))
    slots[:, :, 0] = p
    slots[:, :, 1][cross] = pts
    return slots.reshape(-1, 6, 2), np.stack([keep, cross], axis=2).reshape(-1, 6)


def _positive_part(p: np.ndarray, s: np.ndarray, tol: float) -> np.ndarray:
    """Vertices of the parts of triangles p (T, 3, 2) where the signed
    distance s (T, 3) is >= 0, triangle by triangle; parts with fewer than
    three vertices are left out."""
    s_next = np.roll(s, -1, axis=1)
    strict = ((s > tol) & (s_next < -tol)) | ((s < -tol) & (s_next > tol))
    slots, mask = clip_slots(p, s, 0.0, s >= -tol, strict)
    full = mask.sum(axis=1) >= 3
    return slots[full][mask[full]]


def cap_reflect(mesh: Mesh, line: Line) -> CapReport:
    """Connected components of the domain on the positive side of the line,
    with the graph-over-chord and reflected-containment predicates, read on
    the ``unrolled()`` cover: a periodic mesh's twins pair across the seam."""
    work, tol = mesh.unrolled(), 1e-10
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

    domain_polys = work.boundary_polygons()

    report = CapReport(line=line)
    for tris in superlevel_triangle_components(work, s_all, tol):
        tri = work.triangles[tris]
        verts = _positive_part(work.vertices[tri], s_all[tri], tol_len)
        if not len(verts):
            continue

        if cut_xs:
            dist_cut = float(min(np.abs(verts[:, 0] - cx).min() for cx in cut_xs))
            bounded = dist_cut > 1e-9 * scale
        else:
            dist_cut = None
            bounded = True

        if not bounded:
            report.components.append(CapComponent(False, None, None, None, dist_cut))
            continue

        # boundary edges on the positive side, cut at L, in (triangle, edge) order
        u, v = tri.ravel(), np.roll(tri, -1, axis=1).ravel()
        su, sv = s_all[u], s_all[v]
        free = work.twin[3 * tris[:, None] + np.arange(3)].ravel() < 0
        on = free & (np.maximum(su, sv) > tol_len)
        pu, pv, su, sv = work.vertices[u[on]], work.vertices[v[on]], su[on], sv[on]
        cut = (su < 0) | (sv < 0)
        _, cross_pts = edge_crossings(pu, pv, su, sv, 0.0, cut)
        down = su[cut] > sv[cut]
        cut_ids = np.nonzero(cut)[0]
        pv[cut_ids[down]] = cross_pts[down]
        pu[cut_ids[~down]] = cross_pts[~down]

        # graph over chord: over the open chord span, each line orthogonal to
        # L may meet the boundary arc at most once.  Arc segments orthogonal
        # to L are tolerated at the two chord extremes (side walls) but not
        # in the interior, and projection intervals may only touch.
        ov_tol = 1e-9 * scale
        ta, tb = line.along(pu), line.along(pv)
        seg = pv - pu
        orth = (np.abs(tb - ta) < ov_tol) & (np.hypot(seg[:, 0], seg[:, 1]) > 100 * ov_tol)
        orthogonal_ts = 0.5 * (ta[orth] + tb[orth])
        lo, hi = np.minimum(ta, tb)[~orth], np.maximum(ta, tb)[~orth]
        graph = True
        if len(lo):
            t_lo = min(lo.min(), orthogonal_ts.min(initial=np.inf))
            t_hi = max(hi.max(), orthogonal_ts.max(initial=-np.inf))
            inner = (t_lo + ov_tol < orthogonal_ts) & (orthogonal_ts < t_hi - ov_tol)
            order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
            ends = np.maximum.accumulate(np.concatenate([[-np.inf], hi[:-1]]))
            graph = not (np.any(inner) or np.any(lo < ends - ov_tol))

        # reflected boundary vertices must stay inside the closed domain
        bpts = np.stack([pu, pv], axis=1).reshape(-1, 2)
        if len(bpts):
            refl = bpts - 2.0 * line.signed_distance(bpts)[:, None] * line.normal[None, :]
            contained = bool(np.all(_points_in_loops(refl, domain_polys, tol=1e-10)))
        else:
            contained = True

        height = float(line.signed_distance(verts).max())
        report.components.append(CapComponent(True, height, graph, contained, dist_cut))
    return report
