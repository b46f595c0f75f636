"""The relaxation carries its Delaunay triangulation from sweep to sweep and
repairs it by Lawson flips; the meshes it builds are exactly the meshes of a
relaxation that calls Qhull on every sweep, and the flip kernel returns either
Qhull's triangulation or None."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from extremal_lab import shapeopt
from extremal_lab.errors import MeshQualityFailure
from extremal_lab.geom2d import Annulus, Disk, Ellipse, Polygon, build_domain, meshing
from extremal_lab.geom2d.domain import _points_in_loops
from extremal_lab.geom2d.meshing import _lawson_flips, _orient_ccw, mesh_from_arrays

# -- reference: the relaxation with a fresh Qhull triangulation every sweep ------


def _ref_relaxed_mesh(spec, h, loops, offset):
    fixed = np.concatenate([lp.points for lp in loops])
    corner_mask = np.concatenate([lp.corner_mask for lp in loops])
    loop_points = [lp.points for lp in loops]
    loop_sizes = [len(lp.points) for lp in loops]
    nfix = len(fixed)

    lattice = meshing._hex_lattice(spec.bbox(), h, offset)
    keep = spec.signed_distance(lattice) < -0.55 * h
    pts = np.vstack([fixed, lattice[keep]])

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
        d = pts[edges[:, 1]] - pts[edges[:, 0]]
        lengths = np.hypot(d[:, 0], d[:, 1])
        l0 = 1.2 * math.sqrt(float(np.mean(lengths**2)))
        f = np.maximum(l0 - lengths, 0.0) / lengths
        fvec = f[:, None] * d
        force = np.zeros_like(pts)
        np.add.at(force, edges[:, 0], -fvec)
        np.add.at(force, edges[:, 1], fvec)
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
        interior_move = np.hypot(move[:, 0], move[:, 1]) if len(move) else np.zeros(1)
        if float(interior_move.max(initial=0.0)) < 0.02 * h:
            break

    tri = meshing.Delaunay(pts)
    simp = tri.simplices[inside_tris(tri.simplices)]
    used = np.unique(simp)
    remap = -np.ones(len(pts), dtype=int)
    remap[used] = np.arange(len(used))
    corners = remap[np.nonzero(corner_mask)[0]]
    mesh = mesh_from_arrays(pts[used], remap[simp], corner_vertices=corners[corners >= 0])
    if not np.array_equal(np.sort(mesh.boundary_vertex_ids()), np.arange(nfix)):
        raise MeshQualityFailure("boundary chord missing from the triangulation")
    offsets = np.cumsum([0] + loop_sizes)
    a, b = mesh.boundary_edges.T
    li = np.searchsorted(offsets, a, side="right") - 1
    lo, hi = offsets[li], offsets[li + 1]
    step = (a - b) % (hi - lo)
    if not np.all((lo <= b) & (b < hi) & ((step == 1) | (step == hi - lo - 1))):
        raise MeshQualityFailure("boundary edge does not follow the sampled loop")
    return mesh


def _flow_trial_polygon():
    # the shape accepted by the first step of the benchmark's ellipse flow
    return shapeopt.flow_to_extremal(Ellipse(1.2, 1 / 1.2), h=0.05, max_steps=1).final.spec


L_SHAPE = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))


@pytest.mark.parametrize(
    "spec, h, carried",
    [
        (Disk(1.0), 0.04, True),
        (Disk(1.0), 0.02, False),  # four cocircular boundary samples tie on every sweep
        (Ellipse(2.0, 1.0), 0.05, True),
        (Annulus(0.5, 1.0), 0.08, False),
        (L_SHAPE, 0.1, False),
        ("flow trial", 0.05, True),
    ],
    ids=["disk_h0.04", "disk_h0.02", "ellipse", "annulus", "l_shape", "flow_trial"],
)
def test_build_domain_mesh_matches_per_sweep_qhull(spec, h, carried, monkeypatch):
    if spec == "flow trial":
        spec = _flow_trial_polygon()
    calls = []

    def counted(points):
        calls.append(len(points))
        return Delaunay(points)

    monkeypatch.setattr(meshing, "Delaunay", counted)
    fast = build_domain(spec, h)
    n_fast = len(calls)
    monkeypatch.setattr(meshing, "_relaxed_mesh", _ref_relaxed_mesh)
    ref = build_domain(spec, h)
    n_ref = len(calls) - n_fast
    assert np.array_equal(fast.vertices, ref.vertices)
    assert np.array_equal(fast.triangles, ref.triangles)
    assert np.array_equal(fast.boundary_edges, ref.boundary_edges)
    assert np.array_equal(fast.boundary_normals, ref.boundary_normals)
    # the carried path calls Qhull for the first and the final triangulation only
    assert (n_fast == 2) if carried else (n_fast == n_ref)


def test_first_uncertified_repair_hands_the_mesh_to_qhull(monkeypatch):
    # the unit disk at h = 0.02 ties on its first repair, and the tie is between
    # fixed samples: every later sweep goes straight to Qhull
    calls = {"qhull": 0, "flips": 0}

    def counted_qhull(points):
        calls["qhull"] += 1
        return Delaunay(points)

    def counted_flips(*args):
        calls["flips"] += 1
        return _lawson_flips(*args)

    monkeypatch.setattr(meshing, "Delaunay", counted_qhull)
    monkeypatch.setattr(meshing, "_lawson_flips", counted_flips)
    build_domain(Disk(1.0), 0.02)
    assert calls == {"qhull": 10, "flips": 1}


# -- the flip kernel alone -----------------------------------------------------


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


@settings(max_examples=150, deadline=None)
@given(
    boundary=st.sampled_from([_circle, _square]),
    n_boundary=st.integers(3, 24),
    interior=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=60),
    snap=st.booleans(),
    amplitude=st.sampled_from([1e-6, 1e-3, 0.02, 0.1, 0.5]),
    n_loose=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_flips_give_qhull_triangulation_or_none(
    boundary, n_boundary, interior, snap, amplitude, n_loose, seed
):
    fixed = boundary(n_boundary)
    inner = np.array(interior, dtype=float)
    if snap:  # a quarter grid: cocircular squares everywhere
        inner = np.round(4 * inner) / 4
    inner = np.unique(inner[np.hypot(inner[:, 0], inner[:, 1]) < 0.9], axis=0)
    pts = np.vstack([fixed, inner])
    nfix = len(fixed) - n_loose  # loose hull samples move too, so the hull can change
    tri = Delaunay(pts)
    assume(len(tri.coplanar) == 0)
    tris = _orient_ccw(pts, tri.simplices)
    moved = pts.copy()
    moved[nfix:] += np.random.default_rng(seed).uniform(-amplitude, amplitude, (len(pts) - nfix, 2))
    got = _lawson_flips(moved, tris, nfix, 1e-12)
    if got is not None:
        assert _simplex_set(got) == _simplex_set(Delaunay(moved).simplices)


def test_cocircular_trapezoid_is_not_certified():
    # an isosceles trapezoid inscribed in the unit circle: both diagonals are Delaunay
    s = math.sqrt(0.75)
    pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.5, s], [-0.5, s]])
    tris = _orient_ccw(pts, Delaunay(pts).simplices)
    assert len(tris) == 2
    assert _lawson_flips(pts, tris, 4, 1e-12) is None


def test_point_pushed_across_the_hull_is_not_certified():
    # a square with one inner point, which moves out through the top side: the
    # triangles at that side fold, and no in-circle or hull test sees it
    pts = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-0.14, 0.23]])
    tris = _orient_ccw(pts, Delaunay(pts).simplices)
    assert _lawson_flips(pts, tris, 4, 1e-12) is tris  # already Delaunay, no tie
    moved = pts.copy()
    moved[4] = [0.85, 1.13]
    assert _lawson_flips(moved, tris, 4, 1e-12) is None
