import numpy as np
import pytest

from extremal_lab.geom2d import (
    Annulus,
    Disk,
    Ellipse,
    PeriodicStrip,
    Polygon,
    boundary_geometry,
    build_domain,
)


L_SHAPE = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
MESHES = {
    "disk": (Disk(1.0), 0.05),
    "ellipse": (Ellipse(2.0, 1.0), 0.05),
    "square": (Polygon(((0, 0), (1, 0), (1, 1), (0, 1))), 0.1),
    "annulus": (Annulus(0.5, 1.25), 0.05),
    "straight_strip": (PeriodicStrip(6.0, (1.0,)), 0.1),
    "bulged_strip": (PeriodicStrip(6.0, (1.0, 0.1)), 0.1),
    "l_shape": (L_SHAPE, 0.1),
}


def _ref_circle_fit_curvature(stencil, normal):
    """Signed curvature from a least-squares circle through one stencil; 0
    where the stencil is collinear or the fit has no real radius."""
    center = stencil.mean(axis=0)
    q = stencil - center
    chord = q[-1] - q[0]
    norm = float(np.hypot(*chord))
    if norm > 0:
        rel = q - q[0]
        dev = np.abs(chord[0] * rel[:, 1] - chord[1] * rel[:, 0]) / norm
        if float(dev.max()) <= 1e-14:
            return 0.0
    a = np.column_stack([q[:, 0], q[:, 1], np.ones(len(q))])
    rhs = -(q[:, 0] ** 2 + q[:, 1] ** 2)
    try:
        coef, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return 0.0
    cx, cy = -coef[0] / 2.0, -coef[1] / 2.0
    r2 = cx * cx + cy * cy - coef[2]
    if not np.isfinite(r2) or r2 <= 0:
        return 0.0
    r = float(np.sqrt(r2))
    to_center = np.array([cx, cy]) - q[len(q) // 2]
    sign = 1.0 if float(np.dot(normal, to_center)) < 0 else -1.0
    return sign / r


def _ref_boundary_geometry(mesh):
    """Per-loop, per-stencil frames: (vertex ids, tangents, curvature) with
    each loop unwrapped along its edge displacements and walked through
    mesh.boundary_edges[loop, 0], one circle fit per vertex."""
    corners = set(int(c) for c in mesh.corner_vertices)
    ids_all, tangents, curvatures = [], [], []
    for loop in mesh.boundary_loops:
        edges = mesh.boundary_edges[loop]
        ids = edges[:, 0]
        deltas = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
        pts = np.empty((len(ids), 2))
        pts[0] = mesh.vertices[ids[0]]
        pts[1:] = pts[0] + np.cumsum(deltas[:-1], axis=0)
        closure = deltas.sum(axis=0)
        n = len(ids)
        ext = np.vstack([pts[-2:] - closure, pts, pts[:2] + closure])
        tang = ext[3 : n + 3] - ext[1 : n + 1]
        tang = tang / np.hypot(tang[:, 0], tang[:, 1])[:, None]
        norm = np.column_stack([tang[:, 1], -tang[:, 0]])
        curv = np.empty(n)
        for k in range(n):
            if int(ids[k]) in corners:
                curv[k] = np.nan
            else:
                curv[k] = _ref_circle_fit_curvature(ext[k : k + 5], norm[k])
        ids_all.append(ids)
        tangents.append(tang)
        curvatures.append(curv)
    return np.concatenate(ids_all), np.vstack(tangents), np.concatenate(curvatures)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_batched_fit_matches_the_per_stencil_reference(name):
    mesh = build_domain(*MESHES[name])
    bg = boundary_geometry(mesh)
    ids, tang, curv = _ref_boundary_geometry(mesh)
    assert np.array_equal(bg.vertex_ids, ids)
    assert np.array_equal(bg.tangent, tang)
    assert np.array_equal(bg.normal, np.column_stack([tang[:, 1], -tang[:, 0]]))
    assert np.array_equal(np.isnan(bg.curvature), np.isnan(curv))
    assert np.array_equal(bg.curvature == 0.0, curv == 0.0)
    ok = np.isfinite(curv)
    scale = np.max(np.abs(curv[ok]), initial=0.0)
    assert np.all(np.abs(bg.curvature[ok] - curv[ok]) <= 1e-12 * scale)


def test_disk_curvature(disk_mesh_h05):
    # scaled disk: Disk(2) at h=0.05 -> k = 0.5 everywhere
    mesh = build_domain(Disk(2.0), 0.05)
    bg = boundary_geometry(mesh)
    assert np.all(np.abs(bg.curvature - 0.5) <= 0.01)


def test_straight_strip_curvature_degenerate_flag():
    # a collinear stencil reports curvature 0 exactly
    mesh = build_domain(PeriodicStrip(6.0, (1.0,)), 0.1)
    bg = boundary_geometry(mesh)
    assert np.all(bg.curvature == 0.0)


def test_ellipse_curvature_extremes():
    # analytic curvature a*b / (a^2 sin^2 t + b^2 cos^2 t)^(3/2)
    mesh = build_domain(Ellipse(2.0, 1.0), 0.05)
    bg = boundary_geometry(mesh)
    assert np.nanmax(bg.curvature) == pytest.approx(2.0, rel=0.05)
    assert np.nanmin(bg.curvature) == pytest.approx(0.25, rel=0.05)
    ids = bg.vertex_ids
    at_tip = np.argmax(np.abs(mesh.vertices[ids, 0]))
    assert bg.curvature[at_tip] == pytest.approx(2.0, rel=0.05)


def test_tangent_perpendicular_normal(square_mesh):
    bg = boundary_geometry(square_mesh)
    dots = np.einsum("ij,ij->i", bg.tangent, bg.normal)
    assert np.max(np.abs(dots)) == 0.0


def test_annulus_hole_curvature_negative():
    # inner loop bounds a hole: the domain is locally concave there
    mesh = build_domain(Annulus(0.5, 1.25), 0.05)
    bg = boundary_geometry(mesh)
    ids = bg.vertex_ids
    r = np.hypot(*mesh.vertices[ids].T)
    inner = r < 0.9
    assert np.all(bg.curvature[inner] < 0)
    assert np.allclose(bg.curvature[inner], -2.0, atol=0.05)
    assert np.allclose(bg.curvature[~inner], 1 / 1.25, atol=0.02)
    # outward normals: on the inner loop they point toward the origin
    inward_dots = np.einsum("ij,ij->i", bg.normal[inner], mesh.vertices[ids[inner]])
    assert np.all(inward_dots < 0)


def test_corner_curvature_flagged():
    # corners are flagged by NaN curvature, and only they are
    mesh = build_domain(Polygon(((0, 0), (1, 0), (1, 1), (0, 1))), 0.25)
    bg = boundary_geometry(mesh)
    corner = np.isin(bg.vertex_ids, mesh.corner_vertices)
    assert corner.sum() == 4
    assert np.array_equal(np.isnan(bg.curvature), corner)
