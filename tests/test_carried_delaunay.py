"""The relaxation carries its Delaunay triangulation from sweep to sweep and
repairs it by Lawson flips, to the end: Qhull builds the first triangulation
of each mesh, on the boundary band alone, and is the fallback when a repair is
not certified.  The meshes match a relaxation that calls Qhull on every point
at every sweep, up to the diagonal a cocircular quad keeps, and one that moves
the lattice core too, to within 1e-12 h; the flip kernel returns a Delaunay
triangulation or None: the one a full rescan of every edge in every round
gives, with half-edge twins equal to a fresh rebuild."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay

from extremal_lab import shapeopt
from extremal_lab.errors import MeshQualityFailure
from extremal_lab.geom2d import Annulus, Disk, Ellipse, Polygon, build_domain, meshing
from extremal_lab.geom2d.domain import _points_in_loops
from extremal_lab.geom2d.meshing import _delaunay, _lawson_flips, _orient_ccw, mesh_from_arrays

# -- reference: the relaxation with a fresh Qhull triangulation of every point
# every sweep, the same frozen lattice core and the same l0 sum ------------------


def _ref_relaxed_mesh(spec, h, loops, offset):
    fixed = np.concatenate([lp.points for lp in loops])
    corner_mask = np.concatenate([lp.corner_mask for lp in loops])
    loop_points = [lp.points for lp in loops]
    nfix = len(fixed)

    lattice = meshing._hex_lattice(spec.bbox(), h, offset)
    flat = lattice.reshape(-1, 2)
    sd = spec.signed_distance(flat)
    keep, core = sd < -0.55 * h, sd < -meshing.CORE_DEPTH * h
    _, core_sum, core_count = meshing._lattice_core(lattice, core.reshape(lattice.shape[:2]))
    pts = np.vstack([fixed, flat[keep]])
    frozen = np.concatenate([np.zeros(nfix, dtype=bool), core[keep]])
    free = nfix + np.nonzero(~core[keep])[0]

    def inside_tris(simplices):
        cent = pts[simplices].mean(axis=1)
        return _points_in_loops(cent, loop_points, tol=0.0)

    scale = max(spec.bbox()[1] - spec.bbox()[0], spec.bbox()[3] - spec.bbox()[2])
    for _ in range(80):
        tri = meshing.Delaunay(pts)  # counted when a test patches it
        simp = tri.simplices[inside_tris(tri.simplices)]
        e = np.concatenate([simp[:, [0, 1]], simp[:, [1, 2]], simp[:, [2, 0]]]).astype(np.int64)
        keys = np.unique(e.min(axis=1) * len(pts) + e.max(axis=1))
        edges = np.column_stack(np.divmod(keys, len(pts)))
        edges = edges[~np.all(frozen[edges], axis=1)]
        d = pts[edges[:, 1]] - pts[edges[:, 0]]
        lengths = np.hypot(d[:, 0], d[:, 1])
        l0 = 1.2 * math.sqrt((float(np.sum(lengths**2)) + core_sum) / (len(lengths) + core_count))
        f = np.maximum(l0 - lengths, 0.0) / lengths
        fvec = f[:, None] * d
        force = np.zeros_like(pts)
        np.add.at(force, edges[:, 0], -fvec)
        np.add.at(force, edges[:, 1], fvec)
        move = 0.2 * force[free]
        pts[free] += move
        out = ~spec.contains(pts[free], tol=0.0)
        if np.any(out):
            eps = 1e-7 * scale
            p = pts[free][out]
            probes = [p, p + [eps, 0.0], p - [eps, 0.0], p + [0.0, eps], p - [0.0, eps]]
            sd_out, sxp, sxm, syp, sym = spec.signed_distance(np.concatenate(probes)).reshape(5, -1)
            gx = (sxp - sxm) / (2 * eps)
            gy = (syp - sym) / (2 * eps)
            g2 = np.maximum(gx**2 + gy**2, 1e-12)
            p[:, 0] -= sd_out * gx / g2
            p[:, 1] -= sd_out * gy / g2
            pts[free[out]] = p
        interior_move = np.hypot(move[:, 0], move[:, 1]) if len(move) else np.zeros(1)
        if float(interior_move.max(initial=0.0)) < 0.02 * h:
            break

    tri = meshing.Delaunay(pts)
    return _finish(pts, tri.simplices[inside_tris(tri.simplices)], loops, corner_mask)


def _finish(pts, simp, loops, corner_mask):
    """The mesh of the inside triangles ``simp``, checked as the mesher checks it."""
    nfix = len(corner_mask)
    used = np.unique(simp)
    remap = -np.ones(len(pts), dtype=int)
    remap[used] = np.arange(len(used))
    corners = remap[np.nonzero(corner_mask)[0]]
    mesh = mesh_from_arrays(pts[used], remap[simp], corner_vertices=corners[corners >= 0])
    if not np.array_equal(np.unique(mesh.boundary_edges), np.arange(nfix)):
        raise MeshQualityFailure("boundary chord missing from the triangulation")
    offsets = np.cumsum([0] + [len(lp.points) for lp in loops])
    a, b = mesh.boundary_edges.T
    li = np.searchsorted(offsets, a, side="right") - 1
    lo, hi = offsets[li], offsets[li + 1]
    step = (a - b) % (hi - lo)
    if not np.all((lo <= b) & (b < hi) & ((step == 1) | (step == hi - lo - 1))):
        raise MeshQualityFailure("boundary edge does not follow the sampled loop")
    return mesh


# -- reference: the relaxation that moves every lattice point, with Qhull on all
# of them at the first sweep and carried flips after it -------------------------


def _all_points_relaxed_mesh(spec, h, loops, offset):
    fixed = np.concatenate([lp.points for lp in loops])
    corner_mask = np.concatenate([lp.corner_mask for lp in loops])
    loop_points = [lp.points for lp in loops]
    nfix = len(fixed)

    bbox = spec.bbox()
    lattice = meshing._hex_lattice(bbox, h, offset).reshape(-1, 2)
    keep = spec.signed_distance(lattice) < -0.55 * h
    pts = np.vstack([fixed, lattice[keep]])
    no_core = np.zeros(len(pts), dtype=bool)

    def inside_tris(simplices):
        cent = pts[simplices].mean(axis=1)
        return _points_in_loops(cent, loop_points, tol=0.0)

    scale = max(bbox[1] - bbox[0], bbox[3] - bbox[2])
    tiny, certified, moved = 1e-9 * h * h, False, math.inf
    for sweep in range(81):
        flipped = _lawson_flips(pts, tris, twin, tiny) if certified else None
        if flipped is None:
            tris, twin, certified = _delaunay(pts, nfix, no_core)
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
        edges = np.column_stack(np.divmod(keys, len(pts)))
        d = pts[edges[:, 1]] - pts[edges[:, 0]]
        lengths = np.hypot(d[:, 0], d[:, 1])
        l0 = 1.2 * math.sqrt(float(np.mean(lengths**2)))
        f = np.maximum(l0 - lengths, 0.0) / lengths
        fvec = f[:, None] * d
        ends, signed = edges.T.ravel(), np.concatenate([-fvec, fvec])
        force = np.column_stack([np.bincount(ends, signed[:, c], len(pts)) for c in (0, 1)])
        move = 0.2 * force[nfix:]
        pts[nfix:] += move
        out = ~spec.contains(pts[nfix:], tol=0.0)
        if np.any(out):
            eps = 1e-7 * scale
            p = pts[nfix:][out]
            probes = [p, p + [eps, 0.0], p - [eps, 0.0], p + [0.0, eps], p - [0.0, eps]]
            sd_out, sxp, sxm, syp, sym = spec.signed_distance(np.concatenate(probes)).reshape(5, -1)
            gx = (sxp - sxm) / (2 * eps)
            gy = (syp - sym) / (2 * eps)
            g2 = np.maximum(gx**2 + gy**2, 1e-12)
            p[:, 0] -= sd_out * gx / g2
            p[:, 1] -= sd_out * gy / g2
            pts[nfix:][out] = p
        moved = float(np.hypot(move[:, 0], move[:, 1]).max(initial=0.0))
    return _finish(pts, simp, loops, corner_mask)


# -- reference: the flip kernel that rebuilds the adjacency and tests every edge
# in every round, and certifies the hull each time --------------------------


def _ref_lawson_flips(pts, tris, nfix, tiny, rounds=16):
    m, (x, y) = len(tris), pts.T.copy()
    for _ in range(rounds):
        dx, dy = x[tris[:, 1:]] - x[tris[:, :1]], y[tris[:, 1:]] - y[tris[:, :1]]
        if np.min(dx[:, 0] * dy[:, 1] - dy[:, 0] * dx[:, 1]) <= tiny:
            return None
        # half-edge 3t + i runs tris[t, i] -> tris[t, i + 1], tris[t, i + 2] opposite
        a, b, opp = tris.ravel(), tris[:, [1, 2, 0]].ravel(), tris[:, [2, 0, 1]].ravel()
        keys = np.minimum(a, b).astype(np.int64) * len(pts) + np.maximum(a, b)
        order = np.argsort(keys)
        twin = keys[order[1:]] == keys[order[:-1]]
        lo, hi = order[:-1][twin], order[1:][twin]
        hull = np.ones(3 * m, dtype=bool)
        hull[lo] = hull[hi] = False
        if np.any(np.maximum(a[hull], b[hull]) >= nfix):
            return None
        # in-circle test of lo's triangle (a, b, c) against d, the vertex opposite hi
        abc = np.column_stack([a[lo], b[lo], opp[lo]])
        dx, dy = x[abc] - x[opp[hi], None], y[abc] - y[opp[hi], None]
        lift = dx * dx + dy * dy
        x1, y1, x2, y2 = dx[:, [1, 2, 0]], dy[:, [1, 2, 0]], dx[:, [2, 0, 1]], dy[:, [2, 0, 1]]
        det = np.sum(lift * (x1 * y2 - x2 * y1), axis=1)
        perm = np.sum(lift * (np.abs(x1 * y2) + np.abs(x2 * y1)), axis=1)
        bad = np.nonzero(det > 1e-10 * perm)[0]
        if len(bad) == 0:
            return tris
        # a violating edge flips when it is the first one of both its triangles
        k, t, u = np.arange(len(bad)), lo[bad] // 3, hi[bad] // 3
        first = np.full(m, len(bad))
        np.minimum.at(first, np.concatenate([t, u]), np.concatenate([k, k]))
        go = (first[t] == k) & (first[u] == k)
        e, f = lo[bad[go]], hi[bad[go]]
        tris = tris.copy()
        tris[e // 3] = np.column_stack([a[e], opp[f], opp[e]])  # (a, d, c)
        tris[f // 3] = np.column_stack([opp[f], b[e], opp[e]])  # (d, b, c)
    return None


def _flow_trial_polygon():
    # the shape accepted by the first step of the benchmark's ellipse flow
    res = shapeopt.flow_to_extremal(Ellipse(1.2, 1 / 1.2), h=0.05, max_steps=1)
    return shapeopt._poly(res.final.boundary)


L_SHAPE = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))


def _interior_edges(tris):
    """(u, v, w, d) per interior edge u < v of the counterclockwise ``tris``:
    (u, v, w) is the triangle where u -> v runs counterclockwise, and d is the
    vertex opposite w across the edge."""
    third = {}
    for a, b, c in np.asarray(tris).tolist():
        third.update({(a, b): c, (b, c): a, (c, a): b})
    rows = [(u, v, w, third[v, u]) for (u, v), w in third.items() if u < v and (v, u) in third]
    return np.array(rows, dtype=int).reshape(-1, 4)


def _in_circle(pts, quads):
    """In-circle determinant of d against (u, v, w) per row, and its permanent."""
    dx = pts[quads[:, :3], 0] - pts[quads[:, 3:], 0]
    dy = pts[quads[:, :3], 1] - pts[quads[:, 3:], 1]
    lift = dx * dx + dy * dy
    x1, y1, x2, y2 = dx[:, [1, 2, 0]], dy[:, [1, 2, 0]], dx[:, [2, 0, 1]], dy[:, [2, 0, 1]]
    det = np.sum(lift * (x1 * y2 - x2 * y1), axis=1)
    return det, np.sum(lift * (np.abs(x1 * y2) + np.abs(x2 * y1)), axis=1)


def _edge_set(tris):
    t = np.asarray(tris)
    e = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    return set(map(tuple, e.tolist()))


def _tie_edges(pts, tris):
    quads = _interior_edges(tris)
    det, perm = _in_circle(pts, quads)
    return set(map(tuple, quads[np.abs(det) <= 1e-10 * perm, :2].tolist()))


def _by_edge(mesh):
    order = np.lexsort(mesh.boundary_edges.T[::-1])
    return mesh.boundary_edges[order], mesh.boundary_lengths[order]


def _count_calls(monkeypatch, refuse=None):
    """Count the mesher's Qhull calls, the points they receive and its flip
    repairs; the repair numbered ``refuse`` (from 1) returns None instead of
    the repaired triangles and their twins, as an uncertified one does."""
    calls = {"qhull": 0, "qhull_points": 0, "flips": 0}

    def qhull(points):
        calls["qhull"] += 1
        calls["qhull_points"] += len(points)
        return Delaunay(points)

    def flips(pts, tris, twin, tiny):
        calls["flips"] += 1
        return None if calls["flips"] == refuse else _lawson_flips(pts, tris, twin, tiny)

    monkeypatch.setattr(meshing, "Delaunay", qhull)
    monkeypatch.setattr(meshing, "_lawson_flips", flips)
    return calls


MESH_ZOO = pytest.mark.parametrize(
    "spec, h, ties",
    [
        (Disk(1.0), 0.04, False),
        (Disk(1.0), 0.02, False),  # four cocircular boundary samples tie on every sweep
        (Ellipse(2.0, 1.0), 0.05, False),
        (Annulus(0.5, 1.0), 0.08, False),
        (L_SHAPE, 0.1, True),
        (L_SHAPE, 0.05, True),
        (Annulus(0.4, 1.0), 0.05, False),
        ("flow trial", 0.05, False),
        # the rest of the benchmark's meshes: its bounded commands and the flow's first
        (Disk(1.0), 0.08, False),
        (Disk(3.0), 0.1, False),
        (Disk(float(scipy.special.jn_zeros(0, 1)[0])), 0.05, False),
        (Ellipse(1.2, 1 / 1.2), 0.05, False),
    ],
    ids=["disk_h0.04", "disk_h0.02", "ellipse", "annulus", "l_shape", "l_shape_h0.05",
         "annulus_0.4", "flow_trial", "disk_h0.08", "disk_r3", "critical_disk", "flow_ellipse"],
)


def _assert_same_simplices_up_to_ties(fast, ref, ties):
    if not ties:
        assert _simplex_set(fast.triangles) == _simplex_set(ref.triangles)
    else:
        # the two triangulations differ only in the diagonal of cocircular quads
        ours, theirs = _edge_set(fast.triangles), _edge_set(ref.triangles)
        assert ours - theirs <= _tie_edges(fast.vertices, fast.triangles)
        assert theirs - ours <= _tie_edges(ref.vertices, ref.triangles)
        assert len(fast.triangles) == len(ref.triangles)


@MESH_ZOO
def test_build_domain_mesh_matches_per_sweep_qhull(spec, h, ties, monkeypatch):
    if spec == "flow trial":
        spec = _flow_trial_polygon()
    calls = _count_calls(monkeypatch)
    fast = build_domain(spec, h)
    assert calls["qhull"] == 1  # the first triangulation only; flips carry it to the end
    monkeypatch.setattr(meshing, "_relaxed_mesh", _ref_relaxed_mesh)
    ref = build_domain(spec, h)
    assert np.array_equal(fast.vertices, ref.vertices)
    # boundary edges come in the order of their triangles, so compare them by edge
    for got, want in zip(_by_edge(fast), _by_edge(ref)):
        assert np.array_equal(got, want)
    _assert_same_simplices_up_to_ties(fast, ref, ties)


@MESH_ZOO
def test_frozen_core_matches_the_relaxation_that_moves_it(spec, h, ties, monkeypatch):
    # free points deeper than CORE_DEPTH h stay on their lattice sites: the mesh
    # keeps the vertex numbering and the triangles of one that moves them all,
    # and no vertex lies more than 1e-12 h away
    if spec == "flow trial":
        spec = _flow_trial_polygon()
    fast = build_domain(spec, h)
    monkeypatch.setattr(meshing, "_relaxed_mesh", _all_points_relaxed_mesh)
    ref = build_domain(spec, h)
    assert fast.vertices.shape == ref.vertices.shape
    assert np.max(np.abs(fast.vertices - ref.vertices)) <= 1e-12 * h
    assert np.array_equal(fast.corner_vertices, ref.corner_vertices)
    _assert_same_simplices_up_to_ties(fast, ref, ties)


def test_qhull_sees_the_band_alone(monkeypatch):
    # at h 0.02 the unit disk's core reaches radius 0.8: Qhull gets the boundary
    # samples, the free points outside the core and two seam rows of it
    calls = _count_calls(monkeypatch)
    mesh = build_domain(Disk(1.0), 0.02)
    assert calls["qhull"] == 1
    assert calls["qhull_points"] <= 0.6 * len(mesh.vertices)


def test_tie_on_every_sweep_keeps_one_qhull_call(monkeypatch):
    # the unit disk at h = 0.02 has four cocircular boundary samples: the flips
    # keep their diagonal, and every sweep after the first and the final
    # triangulation repair by flips where the per-sweep reference calls Qhull
    calls = _count_calls(monkeypatch)
    build_domain(Disk(1.0), 0.02)
    assert calls["qhull"] == 1
    n_flips, calls["qhull"] = calls["flips"], 0
    monkeypatch.setattr(meshing, "_relaxed_mesh", _ref_relaxed_mesh)
    build_domain(Disk(1.0), 0.02)
    assert n_flips >= 2
    assert calls["qhull"] == n_flips + 1


@pytest.mark.parametrize("fail_at", ["first", "last"])
def test_uncertified_repair_falls_back_to_qhull(fail_at, monkeypatch):
    # one repair (a sweep's or the final one) is refused: Qhull triangulates
    # those points afresh, and the mesh is the one the certified flips give
    spec, h = Disk(1.0), 0.04
    calls = _count_calls(monkeypatch)
    want = build_domain(spec, h)
    calls = _count_calls(monkeypatch, refuse=1 if fail_at == "first" else calls["flips"])
    got = build_domain(spec, h)
    assert calls["qhull"] == 2
    assert np.array_equal(got.vertices, want.vertices)
    assert _simplex_set(got.triangles) == _simplex_set(want.triangles)
    assert np.all(got.triangle_areas() > 0) and got.min_angle_deg() >= meshing.MIN_ANGLE_DEG
    for a, b in zip(_by_edge(got), _by_edge(want)):
        assert np.array_equal(a, b)


# -- the flip kernel alone -----------------------------------------------------


def _fresh_twins(tris):
    """Twin of each half-edge 3t + i (tris[t, i] -> tris[t, i + 1]), -1 on the hull."""
    half = {}
    for h, (a, b) in enumerate(np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).reshape(-1, 2)):
        half[int(a), int(b)] = h
    return np.array([half.get((b, a), -1) for (a, b) in half], dtype=int)


def _simplex_set(tris):
    return {tuple(sorted(t)) for t in np.asarray(tris).tolist()}


def _circle(n):
    theta = 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _square(n):  # collinear samples along every side of the hull
    s = np.linspace(-1.0, 1.0, n + 1)[:-1]
    one = np.ones(n)
    sides = ((s, -one), (one, s), (-s, one), (-one, -s))
    return np.concatenate([np.column_stack(side) for side in sides])


_unit = st.floats(-0.9, 0.9, allow_nan=False)


def _moved_triangulation(boundary, n_boundary, interior, snap, amplitude, n_loose, seed):
    """Qhull's triangulation of boundary samples and interior points, its
    twins and certificate, and the points with the free ones moved; None when
    Qhull leaves a point out."""
    fixed = boundary(n_boundary)
    inner = np.array(interior, dtype=float)
    if snap:  # a quarter grid: cocircular squares everywhere
        inner = np.round(4 * inner) / 4
    inner = np.unique(inner[np.hypot(inner[:, 0], inner[:, 1]) < 0.9], axis=0)
    pts = np.vstack([fixed, inner])
    nfix = len(fixed) - n_loose  # loose hull samples move too, so the hull can change
    if len(Delaunay(pts).coplanar):
        return None
    tris, twin, certified = _delaunay(pts, nfix, np.zeros(len(pts), dtype=bool))
    moved = pts.copy()
    moved[nfix:] += np.random.default_rng(seed).uniform(-amplitude, amplitude, (len(pts) - nfix, 2))
    return tris, twin, certified, nfix, moved


_cases = dict(
    boundary=st.sampled_from([_circle, _square]),
    n_boundary=st.integers(3, 24),
    interior=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=60),
    snap=st.booleans(),
    amplitude=st.sampled_from([1e-6, 1e-3, 0.02, 0.1, 0.5]),
    n_loose=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(**_cases)
def test_flips_give_a_delaunay_triangulation_or_none(
    boundary, n_boundary, interior, snap, amplitude, n_loose, seed
):
    case = _moved_triangulation(boundary, n_boundary, interior, snap, amplitude, n_loose, seed)
    assume(case is not None)
    tris, twin, certified, nfix, moved = case
    if n_loose:
        assert not certified  # a loose sample is on the hull, which flips keep
    if not certified:
        return
    tiny = 1e-12
    got = _lawson_flips(moved, tris, twin, tiny)
    if got is None:
        return
    got, got_twin = got
    assert np.array_equal(got_twin, _fresh_twins(got))
    # counterclockwise, no sliver, and tiling the convex hull
    p = moved[got]
    orient = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
    assert np.all(orient > tiny)
    assert 0.5 * orient.sum() == pytest.approx(ConvexHull(moved).volume, rel=1e-12)
    # locally Delaunay up to ties, so Delaunay
    det, perm = _in_circle(moved, _interior_edges(got))
    assert np.all(det <= 1e-10 * perm)
    # and Qhull's triangulation wherever that one has no tie
    qhull = _orient_ccw(moved, Delaunay(moved).simplices)
    if not _tie_edges(moved, qhull):
        assert _simplex_set(got) == _simplex_set(qhull)


def _check_against_reference(tris, twin, certified, nfix, moved):
    """The kernel gives the full-scan reference's simplex set, or None exactly
    when the reference does, with twins equal to a fresh rebuild; returns
    whether the reference flipped in more than one round."""
    want = _ref_lawson_flips(moved, tris, nfix, 1e-12)
    got = _lawson_flips(moved, tris, twin, 1e-12) if certified else None
    assert (got is None) == (want is None)
    if got is None:
        return False
    assert _simplex_set(got[0]) == _simplex_set(want)
    assert np.array_equal(got[1], _fresh_twins(got[0]))
    return _ref_lawson_flips(moved, tris, nfix, 1e-12, rounds=2) is None


@settings(max_examples=300, deadline=None)
@given(**_cases)
def test_flips_match_the_full_scan_reference(
    boundary, n_boundary, interior, snap, amplitude, n_loose, seed
):
    case = _moved_triangulation(boundary, n_boundary, interior, snap, amplitude, n_loose, seed)
    assume(case is not None)
    _check_against_reference(*case)


@pytest.mark.parametrize("snap, amplitude", [(False, 0.02), (True, 0.1)])
def test_flips_match_the_reference_over_several_rounds(snap, amplitude):
    # 60 interior points of a 16-gon, moved: some repairs flip in more than one
    # round, where only the edges of the last round's flipped triangles and
    # its leftover violators are tested again
    rng = np.random.default_rng(7 + snap)
    several = 0
    for _ in range(40):
        interior = rng.uniform(-0.9, 0.9, (60, 2)).tolist()
        seed = int(rng.integers(2**32))
        case = _moved_triangulation(_circle, 16, interior, snap, amplitude, 0, seed)
        several += case is not None and _check_against_reference(*case)
    assert several >= 5


def test_cocircular_trapezoid_keeps_its_diagonal():
    # an isosceles trapezoid inscribed in the unit circle: both diagonals are Delaunay
    s = math.sqrt(0.75)
    pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.5, s], [-0.5, s]])
    for diagonal in ([[0, 1, 2], [0, 2, 3]], [[0, 1, 3], [1, 2, 3]]):
        tris = np.array(diagonal)
        got, twin = _lawson_flips(pts, tris, _fresh_twins(tris), 1e-12)
        assert got is tris


def test_point_pushed_across_the_hull_is_not_certified():
    # a square with one inner point, which moves out through the top side: the
    # triangles at that side fold, and no in-circle or hull test sees it
    pts = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-0.14, 0.23]])
    tris, twin, certified = _delaunay(pts, 4, np.zeros(len(pts), dtype=bool))
    assert certified
    assert _lawson_flips(pts, tris, twin, 1e-12)[0] is tris  # already Delaunay, no tie
    moved = pts.copy()
    moved[4] = [0.85, 1.13]
    assert _lawson_flips(moved, tris, twin, 1e-12) is None
