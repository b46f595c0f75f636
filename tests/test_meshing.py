import math

import numpy as np
import pytest

from extremal_lab.errors import InvalidSpec
from extremal_lab.geom2d import (
    Annulus,
    Disk,
    Ellipse,
    PeriodicStrip,
    Polygon,
    build_domain,
)
from extremal_lab.geom2d.meshing import mesh_from_arrays

ZOO = [
    (Disk(1.0), 0.05),
    (Ellipse(2.0, 1.0), 0.05),
    (Polygon(((0, 0), (1, 0), (1, 1), (0, 1))), 0.1),
    (Annulus(0.5, 1.25), 0.05),
    (PeriodicStrip(6.0, (1.0, 0.1)), 0.1),
]


def _check_invariants(mesh):
    areas = mesh.triangle_areas()
    assert np.all(areas > 0)
    assert mesh.min_angle_deg() >= 20.0
    # each boundary edge belongs to exactly one triangle, and its stored
    # normal points away from the owner centroid
    mids = 0.5 * (
        mesh.vertices[mesh.boundary_edges[:, 0]] + mesh.vertices[mesh.boundary_edges[:, 1]]
    )
    cent = mesh.vertices[mesh.triangles[mesh.boundary_edge_tri]].mean(axis=1)
    dots = np.einsum("ij,ij->i", mesh.boundary_normals, cent - mids)
    assert np.all(dots < 0)
    # conforming: interior edges shared by exactly two triangles
    counts = {}
    for tri in mesh.triangles:
        for u, v in ((0, 1), (1, 2), (2, 0)):
            a, b = mesh.dof_of_vertex[tri[u]], mesh.dof_of_vertex[tri[v]]
            counts[(min(a, b), max(a, b))] = counts.get((min(a, b), max(a, b)), 0) + 1
    assert set(counts.values()) <= {1, 2}
    assert sum(1 for c in counts.values() if c == 1) == len(mesh.boundary_edges)


@pytest.mark.parametrize("spec,h", ZOO, ids=lambda z: getattr(z, "kind", str(z)))
def test_mesh_invariants(spec, h):
    _check_invariants(build_domain(spec, h))


@pytest.mark.parametrize("spec,h,tol", [(Disk(1.0), 0.05, 0.02), (Ellipse(2.0, 1.0), 0.05, 0.02)])
def test_area_convergence_coarse(spec, h, tol):
    mesh = build_domain(spec, h)
    assert abs(mesh.triangle_areas().sum() - spec.area()) / spec.area() <= tol


def test_area_convergence_fine(disk_mesh_h02):
    assert abs(disk_mesh_h02.triangle_areas().sum() - math.pi) / math.pi <= 0.005


def test_disk_triangle_count_and_exact_boundary(disk_mesh_h05):
    mesh = disk_mesh_h05
    expected = math.pi / ((math.sqrt(3) / 4) * 0.05**2)
    assert 0.6 * expected <= len(mesh.triangles) <= 1.4 * expected
    r = np.hypot(*mesh.vertices[mesh.boundary_vertex_ids()].T)
    assert np.max(np.abs(r - 1.0)) <= 1e-12


def test_square_boundary_edges_and_corners():
    mesh = build_domain(Polygon(((0, 0), (1, 0), (1, 1), (0, 1))), 0.25)
    assert len(mesh.boundary_edges) == 16
    assert len(mesh.corner_vertices) == 4
    corners = {tuple(v) for v in mesh.vertices[mesh.corner_vertices]}
    assert corners == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}


def test_periodic_strip_identification():
    spec = PeriodicStrip(6.0, (1.0, 0.1))
    mesh = build_domain(spec, 0.1)
    assert mesh.is_periodic_x and mesh.period == 6.0
    assert len(mesh.boundary_loops) == 2
    # brute-force check of the identification map: duplicate column sits one
    # period to the right of its base with identical y
    assert len(mesh.periodic_pairs) > 0
    for dup, base in mesh.periodic_pairs:
        assert mesh.vertices[dup, 0] == pytest.approx(mesh.vertices[base, 0] + 6.0, abs=1e-12)
        assert mesh.vertices[dup, 1] == mesh.vertices[base, 1]
    # identification is one-to-one
    assert len(np.unique(mesh.periodic_pairs[:, 0])) == len(mesh.periodic_pairs)
    assert len(np.unique(mesh.periodic_pairs[:, 1])) == len(mesh.periodic_pairs)
    # boundary vertices sit exactly on the half-width curve
    for vid in mesh.boundary_vertex_ids():
        x, y = mesh.vertices[vid]
        assert abs(abs(y) - spec.half_width(x)) <= 1e-9


def test_invalid_h_rejected():
    with pytest.raises(InvalidSpec):
        build_domain(Disk(1.0), 2.0)
    with pytest.raises(InvalidSpec):
        build_domain(Disk(1.0), -0.1)


def test_determinism():
    a = build_domain(Disk(1.0), 0.1)
    b = build_domain(Disk(1.0), 0.1)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)


def test_export_text_format(square_mesh):
    text = square_mesh.export_text()
    lines = text.strip().split("\n")
    head = lines[0].split()
    assert head[0] == "OFF-like:"
    nv, nt, nbe = map(int, head[1:])
    assert nv == len(square_mesh.vertices)
    assert nt == len(square_mesh.triangles)
    assert nbe == len(square_mesh.boundary_edges)
    assert len(lines) == 1 + nv + nt + nbe
    # boundary edge lines carry the unit normal
    parts = lines[1 + nv + nt].split()
    assert len(parts) == 4
    nx, ny = float(parts[2]), float(parts[3])
    assert math.hypot(nx, ny) == pytest.approx(1.0, abs=1e-12)


def test_mesh_from_arrays_single_triangle():
    mesh = mesh_from_arrays(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    assert len(mesh.boundary_edges) == 3
    assert len(mesh.boundary_loops) == 1
    assert mesh.triangle_areas()[0] == pytest.approx(0.5)


def test_unrolled_cover_is_built_once(monkeypatch):
    from extremal_lab import overdet
    from extremal_lab.geom2d import Line, meshing

    mesh = build_domain(PeriodicStrip(2 * math.pi, (math.pi / 2, 0.3)), 0.3)
    builds = []
    real = meshing.mesh_from_arrays
    monkeypatch.setattr(
        meshing, "mesh_from_arrays", lambda *a, **k: builds.append(1) or real(*a, **k)
    )
    lines = [Line((0.0, y), (1.0, 0.0)) for y in (1.5, 1.6, 1.7)]
    overdet.check_cap_heights(mesh, 1.0, lines)
    assert len(builds) == 1
    assert mesh.unrolled() is mesh.unrolled()
    assert len(builds) == 1
    flat = build_domain(Disk(1.0), 0.2)
    assert flat.unrolled() is flat
