"""Conforming triangulations of the domain specs.

Bounded specs are meshed by seeding a hexagonal lattice inside the exact
boundary samples and relaxing it as a uniform truss, whose sweeps repair the
last Delaunay triangulation by Lawson flips (Qhull starts each mesh; ties keep
their diagonal); the fixed boundary vertices sit on the parametric curve to
machine precision.
Periodic strips use a mapped structured grid: translation-invariant in x,
mirror-symmetric in y, with the right vertex column an exact duplicate of the
left one.  Both paths are deterministic functions of (spec, h).

Each mesh pairs its half-edge twins once (`_twins`); the boundary edges are
the half-edges without a twin, stored loop after loop in walk order.  The
relaxation pairs each Qhull triangulation alike, carries the twins through its
flips and lists its truss edges from them; the strip grid and the periodic
cover are built by index arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import Delaunay

from ..errors import InvalidSpec, MeshQualityFailure
from .domain import BoundaryLoop, DomainSpec, PeriodicStrip, _orient, _points_in_loops

MIN_ANGLE_DEG = 20.0


@dataclass
class Mesh:
    """Triangulation with oriented boundary loops: topology and vertices only.

    ``boundary_edges[e] = (a, b)`` is ordered with the domain on the left and
    stored loop after loop, each loop in walk order: ``boundary_loops`` holds
    one slice per loop, and edge e + 1 starts where edge e ends, except that
    a loop's last edge ends at its first edge's start (on base vertices).
    Each boundary degree of freedom starts exactly one edge.  Lengths and
    normals are read from the vertices where they are used.
    For periodic-in-x meshes the right vertex column duplicates the left one
    and ``periodic_pairs`` maps duplicate -> base; ``dof_of_vertex``
    collapses duplicates to one degree of freedom per physical vertex.
    ``twin`` pairs half-edges on base vertices, so a periodic mesh's twins
    pair across the seam.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_loops: list[slice]
    twin: np.ndarray  # of half-edge 3t + i (triangles[t, i] -> [t, i + 1]), or -1
    period: float = 0.0
    periodic_pairs: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=int))
    corner_vertices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    dof_of_vertex: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    n_dofs: int = 0
    unroll_base: np.ndarray | None = None  # set on meshes produced by unrolled()

    def __post_init__(self) -> None:
        if self.dof_of_vertex.size == 0:
            dod = _base_of(len(self.vertices), self.periodic_pairs)
            # compress to consecutive dof ids
            uniq, inv = np.unique(dod, return_inverse=True)
            self.dof_of_vertex = inv
            self.n_dofs = len(uniq)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def is_periodic_x(self) -> bool:  # a right column duplicating the left one
        return len(self.periodic_pairs) > 0

    @property
    def boundary_lengths(self) -> np.ndarray:
        d = self.vertices[self.boundary_edges[:, 1]] - self.vertices[self.boundary_edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * _orient(p[:, 0], p[:, 1], p[:, 2])

    def min_angle_deg(self) -> float:
        # corner i lies between edge i (corner i to i + 1) and the reversed
        # edge i - 1; the smallest angle is the arccos of the largest cosine
        p = self.vertices[self.triangles]
        x, y = np.moveaxis(p[:, [1, 2, 0]] - p, 2, 0)
        lengths, prev = np.sqrt(x * x + y * y), [2, 0, 1]
        c = -(x * x[:, prev] + y * y[:, prev]) / (lengths * lengths[:, prev])
        return float(np.degrees(np.arccos(np.clip(np.max(c), -1.0, 1.0))))

    def interior_dofs(self) -> np.ndarray:
        """The DOFs off the boundary, ascending: each boundary DOF starts one edge."""
        return np.setdiff1d(np.arange(self.n_dofs), self.dof_of_vertex[self.boundary_edges[:, 0]])

    def reduce(self, values_full: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_dofs, dtype=float)
        out[self.dof_of_vertex] = values_full
        return out

    def expand(self, values_dof: np.ndarray) -> np.ndarray:
        return np.asarray(values_dof)[self.dof_of_vertex]

    def boundary_polygons(self) -> list[np.ndarray]:
        """Each boundary loop as drawn, in walk order: a closed loop ends at its
        first point; a periodic wall begins just after the edge whose end is
        not the next edge's start (the seam) and ends at that edge's end."""
        out = []
        for sl in self.boundary_loops:
            a, b = self.boundary_edges[sl].T
            seam = np.nonzero(b != np.roll(a, -1))[0]
            first = seam[0] + 1 if len(seam) else 0
            out.append(self.vertices[np.append(np.roll(a, -first), b[first - 1])])
        return out

    def unrolled(self) -> "Mesh":
        """Planar cover of a periodic mesh over the period copies -1, 0, 1.

        Duplicate-column vertices are stitched onto the next copy so that
        adjacent copies share vertices; for non-periodic meshes returns self.
        The cover is built on the first call and kept on the mesh.
        """
        if not self.is_periodic_x:
            return self
        if getattr(self, "_cover", None) is not None:
            return self._cover
        n = len(self.vertices)
        base_of = _base_of(n, self.periodic_pairs)
        shift_of = np.zeros(n, dtype=int)
        shift_of[self.periodic_pairs[:, 0]] = 1
        # key (base, copy + shift) as base * 4 + (copy + shift + 1); vertices
        # are numbered in order of first appearance over copies, then triangles
        flat = self.triangles.ravel()
        keys = np.concatenate(
            [4 * base_of[flat] + (copy + 1 + shift_of[flat]) for copy in (-1, 0, 1)]
        )
        uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        tris = rank[inv].reshape(-1, 3)
        bases, shift = np.divmod(uniq[order], 4)
        shift -= 1
        verts = self.vertices[bases] + np.column_stack(
            [shift * self.period, np.zeros(len(shift))]
        )
        out = mesh_from_arrays(verts, tris, quality_floor=None)
        out.unroll_base = bases
        self._cover = out
        return out

    def moved(self, vertices: np.ndarray, period: float) -> "Mesh":
        """This topology at new vertices and period, with no cover carried;
        MeshQualityFailure on an inverted triangle or below the MIN_ANGLE_DEG floor."""
        mesh = replace(self, vertices=vertices, period=period)
        if np.min(mesh.triangle_areas()) <= 0 or mesh.min_angle_deg() < MIN_ANGLE_DEG:
            raise MeshQualityFailure(f"moved mesh inverted or below the {MIN_ANGLE_DEG} deg floor")
        return mesh

    def export_text(self) -> str:
        """Vertices, triangles, then each boundary edge with its outward unit
        normal, the right turn of the edge (the domain lies on its left)."""
        lines = [
            f"OFF-like: {len(self.vertices)} {len(self.triangles)} {len(self.boundary_edges)}"
        ]
        for x, y in self.vertices:
            lines.append(f"{float(x)!r} {float(y)!r}")
        for i, j, k in self.triangles:
            lines.append(f"{i} {j} {k}")
        d = self.vertices[self.boundary_edges[:, 1]] - self.vertices[self.boundary_edges[:, 0]]
        normals = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
        for (i, j), (nx, ny) in zip(self.boundary_edges, normals):
            lines.append(f"{i} {j} {float(nx)!r} {float(ny)!r}")
        return "\n".join(lines) + "\n"


# -- shared finalization ------------------------------------------------------


def _base_of(n_vertices: int, periodic_pairs: np.ndarray) -> np.ndarray:
    """Vertex -> base vertex: each duplicate maps to its base, others to themselves."""
    base_of = np.arange(n_vertices)
    base_of[periodic_pairs[:, 0]] = periodic_pairs[:, 1]
    return base_of


def _orient_ccw(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = vertices[triangles]
    flip = _orient(p[:, 0], p[:, 1], p[:, 2]) < 0
    triangles = triangles.copy()
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return triangles


def _twins(keys: np.ndarray) -> np.ndarray:
    """The other half-edge with the same edge key, -1 where the key is unique;
    MeshQualityFailure when three half-edges share a key."""
    order = np.argsort(keys)
    pair = np.nonzero(keys[order[1:]] == keys[order[:-1]])[0]
    if np.any(np.diff(pair) == 1):
        raise MeshQualityFailure("non-conforming: an edge is shared by >2 triangles")
    twin = np.full(len(keys), -1)
    twin[order[pair]], twin[order[pair + 1]] = order[pair + 1], order[pair]
    return twin


def mesh_from_arrays(
    vertices: np.ndarray,
    triangles: np.ndarray,
    *,
    period: float = 0.0,
    periodic_pairs: np.ndarray | None = None,
    corner_vertices: np.ndarray | None = None,
    quality_floor: float | None = MIN_ANGLE_DEG,
) -> Mesh:
    """Build full boundary structure from raw vertex/triangle arrays."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = _orient_ccw(vertices, np.asarray(triangles, dtype=int))
    pairs = (
        np.asarray(periodic_pairs, dtype=int).reshape(-1, 2)
        if periodic_pairs is not None
        else np.empty((0, 2), dtype=int)
    )
    base_of = _base_of(len(vertices), pairs)

    # half-edges (a, b), (b, c), (c, a) of every triangle in scan order, keyed
    # as undirected edges of base vertices; boundary edges have no twin
    directed = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    ends = base_of[directed]
    twin = _twins(ends.min(axis=1) * len(vertices) + ends.max(axis=1))
    pos = np.nonzero(twin < 0)[0]

    # walk loops: edges are domain-left ordered, successor starts where we end
    starts = base_of[directed[pos, 0]]
    if len(np.unique(starts)) < len(starts):
        raise MeshQualityFailure("pinched boundary: vertex with >2 boundary edges")
    # with no pinched vertex every edge end is some edge's start: boundary
    # out-degree minus in-degree is even at each vertex and sums to zero, so
    # a vertex with more in than out forces another with two out
    start_of = np.empty(len(vertices), dtype=int)
    start_of[starts] = np.arange(len(starts))
    successor = start_of[base_of[directed[pos, 1]]].tolist()
    walk, bounds, seen = [], [0], [False] * len(successor)
    for e0 in range(len(successor)):
        if seen[e0]:
            continue
        e = e0
        while not seen[e]:
            seen[e] = True
            walk.append(e)
            e = successor[e]
        bounds.append(len(walk))
    mesh = Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=directed[pos[walk]],  # loop after loop, each in walk order
        boundary_loops=[slice(a, b) for a, b in zip(bounds, bounds[1:])],
        twin=twin,
        period=period,
        periodic_pairs=pairs,
        corner_vertices=(
            np.asarray(corner_vertices, dtype=int)
            if corner_vertices is not None
            else np.empty(0, dtype=int)
        ),
    )
    if quality_floor is not None and len(triangles) > 1:
        if mesh.min_angle_deg() < quality_floor:
            raise MeshQualityFailure(
                f"minimum angle {mesh.min_angle_deg():.2f} deg below {quality_floor} floor"
            )
    return mesh


# -- structured periodic strip -------------------------------------------------


def strip_grid_counts(period: float, half_width: float, h: float) -> tuple[int, int]:
    """Column and row counts (nx, ny) of a period cell's grid at spacing h."""
    return max(8, int(round(period / h))), 2 * max(2, int(round(half_width / h)))


def structured_strip(spec: PeriodicStrip, nx: int, ny: int) -> Mesh:
    """Mapped structured grid on one period cell with fixed column/row counts.

    Grid vertex (i, j) has id ``i * (ny + 1) + j``, quad centres follow with
    id ``(nx + 1) * (ny + 1) + i * ny + j``, and triangles come quad by quad
    (i outer, j inner), so the topology depends on (nx, ny) only: varying the
    spec at fixed counts changes the coordinates alone.

    Each quad is split into four triangles through its centroid, which keeps
    the triangulation symmetric under both x-translation by a column and the
    two mirrors; without that symmetry the discrete wall flux of symmetric
    half-width profiles acquires spurious odd harmonics.
    """
    if ny % 2:
        raise InvalidSpec("structured strip needs an even row count")
    T = spec.period
    xs = T * np.arange(nx + 1) / nx
    eta = -1.0 + 2.0 * np.arange(ny + 1) / ny
    w = spec.half_width(xs)
    w[nx] = w[0]  # exact identification of the duplicate column

    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    cid = vid.size + np.arange(nx * ny).reshape(nx, ny)
    grid = np.stack(np.broadcast_arrays(xs[:, None], eta[None, :] * w[:, None]), axis=-1)
    p00, p10, p11, p01 = grid[:-1, :-1], grid[1:, :-1], grid[1:, 1:], grid[:-1, 1:]
    centres = 0.25 * (((p00 + p10) + p11) + p01)
    verts = np.concatenate([grid.reshape(-1, 2), centres.reshape(-1, 2)])
    v00, v10, v11, v01 = vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]
    sides = ((v00, v10), (v10, v11), (v11, v01), (v01, v00))
    tris = np.stack([np.stack([a, b, cid], axis=-1) for a, b in sides], axis=2).reshape(-1, 3)
    pairs = np.column_stack([vid[nx], vid[0]])  # duplicate column -> base column
    return mesh_from_arrays(verts, tris, period=T, periodic_pairs=pairs)


# -- relaxed unstructured meshing ----------------------------------------------


def _hex_lattice(bbox, h: float, offset: tuple[float, float]) -> np.ndarray:
    xmin, xmax, ymin, ymax = bbox
    dy = h * math.sqrt(3) / 2
    rows = int((ymax - ymin) / dy) + 2
    cols = int((xmax - xmin) / h) + 2
    pts = []
    for j in range(rows):
        y = ymin + (offset[1] + j) * dy
        shift = 0.5 * h if j % 2 else 0.0
        x = xmin + (offset[0] * h + shift) + h * np.arange(cols)
        pts.append(np.column_stack([x, np.full(cols, y)]))
    return np.concatenate(pts)


def _delaunay(pts: np.ndarray, nfix: int):
    """Qhull's triangulation of ``pts``, counterclockwise; the twin of each
    half-edge 3t + i (tris[t, i] -> tris[t, i + 1]) in the other triangle, or
    -1 on the hull; and whether flips may carry it: Qhull left no point out and
    every hull edge joins two of the ``nfix`` fixed points.  A flip never
    changes the hull, and a free point that leaves it inverts a triangle."""
    tri = Delaunay(pts)
    tris = _orient_ccw(pts, tri.simplices)
    a, b = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    twin = _twins(np.minimum(a, b).astype(np.int64) * len(pts) + np.maximum(a, b))
    # the hull is a cycle, so every hull vertex starts one hull half-edge
    return tris, twin, len(tri.coplanar) == 0 and bool(np.all(a[twin < 0] < nfix))


def _lawson_flips(pts: np.ndarray, tris: np.ndarray, twin: np.ndarray, tiny: float):
    """Flip the counterclockwise triangulation ``tris`` of ``pts`` with the
    half-edge twins of `_delaunay` into a Delaunay one; return it with its
    twins, or None when an orientation is <= ``tiny`` or 16 rounds do not
    suffice.  Each round flips, in ascending order of edge key, the edges
    whose in-circle determinant exceeds 1e-10 of its permanent and that share
    no triangle; a tie keeps its diagonal.  After the first round only the
    edges of flipped triangles and the violators left over are tested."""
    n, m, (x, y) = len(pts), len(tris), pts.T.copy()
    new, lo = np.arange(m), np.nonzero(twin > np.arange(3 * m))[0]  # lo: lower half-edges
    for _ in range(16):  # violations rarely cascade; at the cap, give up
        p, q, r = tris[new].T
        if np.min((x[q] - x[p]) * (y[r] - y[p]) - (y[q] - y[p]) * (x[r] - x[p])) <= tiny:
            return None
        # in-circle test of lo's triangle (a, b, c) against d, the vertex opposite its twin
        hi = twin[lo]
        abc = np.stack([tris[lo // 3, (lo + k) % 3] for k in range(3)])
        d = tris[hi // 3, (hi + 2) % 3]
        dx, dy = x[abc] - x[d], y[abc] - y[d]
        lift = dx * dx + dy * dy
        x1, y1, x2, y2 = dx[[1, 2, 0]], dy[[1, 2, 0]], dx[[2, 0, 1]], dy[[2, 0, 1]]
        det = np.sum(lift * (x1 * y2 - x2 * y1), axis=0)
        perm = np.sum(lift * (np.abs(x1 * y2) + np.abs(x2 * y1)), axis=0)
        bad = np.nonzero(det > 1e-10 * perm)[0]
        if len(bad) == 0:
            return tris, twin
        bad = bad[np.argsort(np.min(abc[:2, bad], axis=0) * n + np.max(abc[:2, bad], axis=0))]
        # a violating edge flips when it is the first one of both its triangles
        k, t, u = np.arange(len(bad)), lo[bad] // 3, hi[bad] // 3
        first = np.full(m, len(bad))
        np.minimum.at(first, np.concatenate([t, u]), np.concatenate([k, k]))
        go = bad[(first[t] == k) & (first[u] == k)]
        (a, b, c), d, e, f = abc[:, go], d[go], lo[go], hi[go]
        t, u = e // 3, f // 3
        # the quad's outer half-edges keep their direction and move slot: c -> a
        # to (t, 2), b -> c to (u, 1), a -> d to (t, 0) and d -> b to (u, 0); the
        # new diagonal d -> c, c -> d takes (t, 1), (u, 2)
        old = np.concatenate([3 * t + (e + 2) % 3, 3 * t + (e + 1) % 3,
                              3 * u + (f + 1) % 3, 3 * u + (f + 2) % 3, e, f])
        to = np.concatenate([3 * t + 2, 3 * u + 1, 3 * t, 3 * u, 3 * t + 1, 3 * u + 2])
        slot = np.arange(3 * m)
        slot[old] = to
        outer = np.where(twin[old] < 0, -1, slot[twin[old]])
        tris, twin = tris.copy(), twin.copy()
        tris[t], tris[u] = np.column_stack([a, d, c]), np.column_stack([d, b, c])
        twin[to] = outer
        twin[outer[outer >= 0]] = to[outer >= 0]
        # stale indices of violators in flipped triangles point into new ones
        new = np.concatenate([t, u])
        h = np.concatenate([(3 * new[:, None] + np.arange(3)).ravel(), lo[bad]])
        lo = np.unique(np.minimum(h, twin[h])[twin[h] >= 0])
    return None


def _relaxed_mesh(
    spec: DomainSpec, h: float, loops: list[BoundaryLoop], offset: tuple[float, float]
) -> Mesh:
    fixed = np.concatenate([lp.points for lp in loops])
    corner_mask = np.concatenate([lp.corner_mask for lp in loops])
    loop_points = [lp.points for lp in loops]
    loop_sizes = [len(lp.points) for lp in loops]
    nfix = len(fixed)

    bbox = spec.bbox()
    lattice = _hex_lattice(bbox, h, offset)
    keep = spec.signed_distance(lattice) < -0.55 * h
    pts = np.vstack([fixed, lattice[keep]])

    def inside_tris(simplices: np.ndarray) -> np.ndarray:
        cent = pts[simplices].mean(axis=1)
        return _points_in_loops(cent, loop_points, tol=0.0)

    scale = max(bbox[1] - bbox[0], bbox[3] - bbox[2])
    # Qhull starts each mesh; ties keep their diagonal.  Each sweep carries its
    # triangulation and half-edge twins to the next, which repairs both by
    # flips, and so does the final one; Qhull runs again only when it left a
    # point out or a repair is not certified.  Truss edges come from the twins
    # in sorted key order, so the sweeps do not depend on simplex order.
    tiny, certified, moved = 1e-9 * h * h, False, math.inf
    for sweep in range(81):  # 80 sweeps, then the final triangulation
        flipped = _lawson_flips(pts, tris, twin, tiny) if certified else None
        if flipped is None:
            tris, twin, certified = _delaunay(pts, nfix)
        else:
            tris, twin = flipped
        inside = inside_tris(tris)
        simp = tris[inside]
        if sweep == 80 or moved < 0.02 * h:
            break
        half = np.nonzero(np.repeat(inside, 3))[0]
        tw = twin[half]
        half = half[(tw < 0) | (tw > half) | ~inside[tw // 3]]
        a, b = tris[half // 3, half % 3], tris[half // 3, (half + 1) % 3]
        keys = np.sort(np.minimum(a, b).astype(np.int64) * len(pts) + np.maximum(a, b))
        edges = np.column_stack(np.divmod(keys, len(pts)))  # lexicographic (lo, hi)
        d = pts[edges[:, 1]] - pts[edges[:, 0]]
        lengths = np.hypot(d[:, 0], d[:, 1])
        l0 = 1.2 * math.sqrt(float(np.mean(lengths**2)))
        f = np.maximum(l0 - lengths, 0.0) / lengths
        fvec = f[:, None] * d
        ends, signed = edges.T.ravel(), np.concatenate([-fvec, fvec])  # e0's terms, then e1's
        force = np.column_stack([np.bincount(ends, signed[:, c], len(pts)) for c in (0, 1)])
        move = 0.2 * force[nfix:]
        pts[nfix:] += move
        out = ~spec.contains(pts[nfix:], tol=0.0)
        if np.any(out):
            eps = 1e-7 * scale
            p = pts[nfix:][out]
            probes = [p, p + [eps, 0.0], p - [eps, 0.0], p + [0.0, eps], p - [0.0, eps]]
            sd = spec.signed_distance(np.concatenate(probes))  # one sweep, element-wise
            sd_out, sxp, sxm, syp, sym = sd.reshape(5, -1)
            gx = (sxp - sxm) / (2 * eps)
            gy = (syp - sym) / (2 * eps)
            g2 = np.maximum(gx**2 + gy**2, 1e-12)
            p[:, 0] -= sd_out * gx / g2
            p[:, 1] -= sd_out * gy / g2
            pts[nfix:][out] = p
        moved = float(np.hypot(move[:, 0], move[:, 1]).max(initial=0.0))

    used = np.unique(simp)
    remap = -np.ones(len(pts), dtype=int)
    remap[used] = np.arange(len(used))
    corners = remap[:nfix][corner_mask]
    mesh = mesh_from_arrays(pts[used], remap[simp], corner_vertices=corners[corners >= 0])

    # the discrete boundary must consist of consecutive boundary samples
    if not np.array_equal(np.sort(mesh.boundary_edges[:, 0]), np.arange(nfix)):
        raise MeshQualityFailure("boundary chord missing from the triangulation")
    offsets = np.cumsum([0] + loop_sizes)
    a, b = mesh.boundary_edges.T
    li = np.searchsorted(offsets, a, side="right") - 1
    lo, hi = offsets[li], offsets[li + 1]  # the sampled loop that a lies on
    step = (a - b) % (hi - lo)
    if not np.all((lo <= b) & (b < hi) & ((step == 1) | (step == hi - lo - 1))):
        raise MeshQualityFailure("boundary edge does not follow the sampled loop")
    return mesh


def build_domain(spec: DomainSpec, h: float) -> Mesh:
    """Mesh a domain spec at target size h (deterministic in (spec, h))."""
    spec.validate()
    if not (h > 0 and math.isfinite(h)):
        raise InvalidSpec(f"mesh size must be positive, got {h}")
    if h >= spec.characteristic_size():
        raise InvalidSpec(
            f"mesh size {h} is not below the characteristic size "
            f"{spec.characteristic_size():.6g}"
        )
    if isinstance(spec, PeriodicStrip):
        counts = strip_grid_counts(spec.period, spec.half_width_coeffs[0], h)
        return structured_strip(spec, *counts)
    loops = spec.boundary_loops(h)
    last_exc: MeshQualityFailure | None = None
    for offset in ((0.5, 0.5), (0.17, 0.61), (0.83, 0.29)):
        try:
            mesh = _relaxed_mesh(spec, h, loops, offset)
        except MeshQualityFailure as exc:
            last_exc = exc
            continue
        return mesh
    raise MeshQualityFailure(f"could not mesh {spec!r} at h={h}: {last_exc}")
