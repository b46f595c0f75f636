import math
from dataclasses import replace

import numpy as np
import pytest

from extremal_lab.errors import InvalidSpec, MeshQualityFailure
from extremal_lab.geom2d import (
    Annulus,
    Disk,
    Ellipse,
    PeriodicStrip,
    Polygon,
    build_domain,
)
from extremal_lab.geom2d import meshing
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
    _check_twins(mesh)


def _check_twins(mesh):
    """Paired half-edges are each other's twins and join the same base
    vertices in opposite directions; the unpaired ones are the boundary,
    each once, stored loop after loop in walk order."""
    twin, base = mesh.twin, mesh.dof_of_vertex
    tail, head = mesh.triangles.ravel(), mesh.triangles[:, [1, 2, 0]].ravel()
    assert twin.shape == tail.shape and np.all((twin >= -1) & (twin < len(twin)))
    paired = np.nonzero(twin >= 0)[0]
    assert np.array_equal(twin[twin[paired]], paired) and np.all(twin[paired] != paired)
    assert np.array_equal(base[tail[paired]], base[head[twin[paired]]])
    assert np.array_equal(base[head[paired]], base[tail[twin[paired]]])
    # the boundary edge's half-edge is the slot of its start in its triangle
    tri = mesh.triangles[mesh.boundary_edge_tri]
    slot = np.argmax(tri == mesh.boundary_edges[:, :1], axis=1)
    half = 3 * mesh.boundary_edge_tri + slot
    assert np.array_equal(np.sort(half), np.nonzero(twin < 0)[0])
    assert np.array_equal(mesh.boundary_edges, np.column_stack([tail[half], head[half]]))
    # the loops tile the edges; within each, an edge's end is the next one's
    # start on base vertices, and the last edge closes the loop
    stops = [0] + [sl.stop for sl in mesh.boundary_loops]
    assert [sl.start for sl in mesh.boundary_loops] == stops[:-1]
    assert stops[-1] == len(mesh.boundary_edges)
    assert all(sl.step is None for sl in mesh.boundary_loops)
    for sl in mesh.boundary_loops:
        a, b = base[mesh.boundary_edges[sl]].T
        assert len(a) >= 3 and np.array_equal(b, np.roll(a, -1))


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


# -- array construction against per-triangle reference loops -----------------


def _reference_boundary(vertices, triangles, periodic_pairs):
    """Dict-based boundary extraction: edges in first-seen order, owner
    triangles and walked loops, on base vertices of the periodic pairs."""
    base_of = np.arange(len(vertices))
    for dup, base in periodic_pairs:
        base_of[dup] = base
    edge_count, edge_owner = {}, {}
    for t_idx, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(base_of[u], base_of[v]), max(base_of[u], base_of[v]))
            edge_count[key] = edge_count.get(key, 0) + 1
            edge_owner[key] = (t_idx, u, v)
    b_edges, b_tri = [], []
    for key, cnt in edge_count.items():
        if cnt == 1:
            t_idx, u, v = edge_owner[key]
            b_edges.append((u, v))
            b_tri.append(t_idx)
    start_of = {int(base_of[u]): e for e, (u, _) in enumerate(b_edges)}
    loops, seen = [], set()
    for e0 in range(len(b_edges)):
        walk, e = [], e0
        while e not in seen:
            seen.add(e)
            walk.append(e)
            e = start_of[int(base_of[b_edges[e][1]])]
        if walk:
            loops.append(walk)
    return b_edges, b_tri, loops, base_of


def _reference_cover(mesh):
    """Three-copy cover numbered one triangle vertex at a time through a dict."""
    base_of = np.arange(len(mesh.vertices))
    shift_of = np.zeros(len(mesh.vertices), dtype=int)
    for dup, base in mesh.periodic_pairs:
        base_of[dup] = base
        shift_of[dup] = 1
    used, coords, bases, tris = {}, [], [], []

    def uid(v, copy):
        key = (int(base_of[v]), copy + int(shift_of[v]))
        if key not in used:
            used[key] = len(coords)
            coords.append(mesh.vertices[base_of[v]] + np.array([key[1] * mesh.period, 0.0]))
            bases.append(key[0])
        return used[key]

    for copy in (-1, 0, 1):
        for t in mesh.triangles:
            tris.append([uid(int(v), copy) for v in t])
    return np.asarray(coords), np.asarray(tris), np.asarray(bases)


def _reference_strip(spec, nx, ny):
    """Per-quad loop construction of the structured strip cell."""
    xs = spec.period * np.arange(nx + 1) / nx
    eta = -1.0 + 2.0 * np.arange(ny + 1) / ny
    w = spec.half_width(xs)
    w[nx] = w[0]
    n_grid = (nx + 1) * (ny + 1)
    verts = np.empty((n_grid + nx * ny, 2))
    for i in range(nx + 1):
        verts[i * (ny + 1) : (i + 1) * (ny + 1), 0] = xs[i]
        verts[i * (ny + 1) : (i + 1) * (ny + 1), 1] = eta * w[i]
    tris = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
            v11, v01 = v10 + 1, v00 + 1
            c = n_grid + i * ny + j
            verts[c] = 0.25 * (verts[v00] + verts[v10] + verts[v11] + verts[v01])
            tris += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
    pairs = np.array([(nx * (ny + 1) + j, j) for j in range(ny + 1)])
    return verts, np.asarray(tris), pairs


def _assert_matches_reference(mesh):
    b_edges, b_tri, loops, base_of = _reference_boundary(
        mesh.vertices, mesh.triangles, mesh.periodic_pairs
    )
    walk = np.concatenate(loops)  # the reference's edges in walk order
    assert np.array_equal(mesh.boundary_edges, np.asarray(b_edges).reshape(-1, 2)[walk])
    assert np.array_equal(mesh.boundary_edge_tri, np.asarray(b_tri)[walk])
    assert [sl.stop - sl.start for sl in mesh.boundary_loops] == [len(lp) for lp in loops]
    assert np.array_equal(mesh.dof_of_vertex, np.unique(base_of, return_inverse=True)[1])


STRIP_SPECS = (PeriodicStrip(2 * math.pi, (math.pi / 2,)), PeriodicStrip(5.3, (1.2, 0.2, -0.05)))


@pytest.mark.parametrize("nx,ny", [(64, 32), (61, 32), (8, 4)])
def test_structured_strip_matches_loop_construction(nx, ny):
    for spec in STRIP_SPECS:
        mesh = meshing.structured_strip(spec, nx, ny)
        verts, tris, pairs = _reference_strip(spec, nx, ny)
        assert mesh.vertices.tobytes() == verts.tobytes()
        assert np.array_equal(mesh.triangles, tris)
        assert np.array_equal(mesh.periodic_pairs, pairs)
        _assert_matches_reference(mesh)


def test_strip_topology_depends_on_counts_only():
    a, b = (meshing.structured_strip(spec, 24, 8) for spec in STRIP_SPECS)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.boundary_edges, b.boundary_edges)
    assert a.boundary_loops == b.boundary_loops
    assert np.array_equal(a.periodic_pairs, b.periodic_pairs)
    assert not np.array_equal(a.vertices, b.vertices)


@pytest.mark.parametrize("spec,h", ZOO[:4], ids=lambda z: getattr(z, "kind", str(z)))
def test_boundary_extraction_matches_dict_walk(spec, h):
    _assert_matches_reference(build_domain(spec, h))


def test_unrolled_cover_matches_dict_numbering():
    mesh = meshing.structured_strip(STRIP_SPECS[1], 16, 8)
    cover = mesh.unrolled()
    verts, tris, bases = _reference_cover(mesh)
    assert cover.vertices.tobytes() == verts.tobytes()
    assert np.array_equal(cover.triangles, tris)
    assert np.array_equal(cover.unroll_base, bases)
    _assert_matches_reference(cover)


def test_moved_cell_matches_a_fresh_structured_strip():
    cell = meshing.structured_strip(STRIP_SPECS[0], 24, 8)
    fresh = meshing.structured_strip(STRIP_SPECS[1], 24, 8)
    moved = cell.moved(fresh.vertices, STRIP_SPECS[1].period)
    for name in ("triangles", "boundary_edges", "boundary_edge_tri", "twin", "periodic_pairs",
                 "dof_of_vertex"):
        assert np.array_equal(getattr(moved, name), getattr(fresh, name)), name
    assert moved.boundary_loops == fresh.boundary_loops
    assert np.max(np.abs(moved.boundary_lengths - fresh.boundary_lengths)) <= 1e-14
    assert np.max(np.abs(moved.boundary_normals - fresh.boundary_normals)) <= 1e-14
    assert moved.period == fresh.period == 5.3 and moved.is_periodic_x


def test_strip_twins_pair_across_the_seam_and_the_cover_does_not():
    cell = meshing.structured_strip(STRIP_SPECS[1], 16, 8)
    cover = cell.unrolled()
    for mesh in (cell, cover):
        _check_invariants(mesh)
    tail, head = cell.triangles.ravel(), cell.triangles[:, [1, 2, 0]].ravel()
    dup, base = cell.periodic_pairs.T
    right = np.nonzero(np.isin(tail, dup) & np.isin(head, dup))[0]
    left = np.nonzero(np.isin(tail, base) & np.isin(head, base))[0]
    assert len(right) == len(left) == 8
    assert np.array_equal(np.sort(cell.twin[right]), left)
    # the cover's outer seams, at x = -T and 2T, are boundary edges
    x = cover.vertices[:, 0]
    tail, head = cover.triangles.ravel(), cover.triangles[:, [1, 2, 0]].ravel()
    for end in (-cell.period, 2 * cell.period):
        seam = np.nonzero((x[tail] == end) & (x[head] == end))[0]
        assert len(seam) == 8 and np.all(cover.twin[seam] < 0)


def test_moved_mesh_unrolls_its_own_vertices():
    cell = meshing.structured_strip(STRIP_SPECS[0], 16, 8)
    cell.unrolled()  # cached on the template, which the moved mesh must not reuse
    fresh = meshing.structured_strip(STRIP_SPECS[1], 16, 8)
    cover = cell.moved(fresh.vertices, STRIP_SPECS[1].period).unrolled()
    assert cover.vertices.tobytes() == fresh.unrolled().vertices.tobytes()
    assert np.array_equal(cover.triangles, fresh.unrolled().triangles)


def test_moved_mesh_refuses_inverted_and_flat_placements():
    cell = meshing.structured_strip(STRIP_SPECS[0], 16, 8)  # square quads: 45 and 90 degrees
    with pytest.raises(MeshQualityFailure):
        cell.moved(cell.vertices * [1.0, -1.0], cell.period)  # mirrored: every triangle inverted
    with pytest.raises(MeshQualityFailure):
        cell.moved(cell.vertices * [1.0, 0.2], cell.period)  # flattened: about 11 degrees


def _min_angle_per_corner(mesh):
    """The smallest of all 3 nt corner angles, each from its own two edge vectors."""
    p = mesh.vertices[mesh.triangles]
    angles = []
    for i in range(3):
        u = p[:, (i + 1) % 3] - p[:, i]
        v = p[:, (i + 2) % 3] - p[:, i]
        c = np.einsum("ij,ij->i", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))
    return float(np.min(angles))


def test_min_angle_is_bit_identical_to_the_per_corner_minimum(disk_mesh_h02):
    # the flow's ellipse mesh, the h 0.02 disk and the (64, 32) strip cell, as
    # built and with every vertex jittered
    cell = meshing.structured_strip(PeriodicStrip(2 * math.pi, (math.pi / 2,)), 64, 32)
    rng = np.random.default_rng(3)
    for mesh in (build_domain(Ellipse(1.2, 1 / 1.2), 0.05), disk_mesh_h02, cell):
        jitter = rng.normal(scale=1e-3, size=mesh.vertices.shape)
        for m in (mesh, replace(mesh, vertices=mesh.vertices + jitter)):
            assert m.min_angle_deg() == _min_angle_per_corner(m)


def test_edge_shared_by_three_triangles_is_non_conforming():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(MeshQualityFailure, match="non-conforming"):
        mesh_from_arrays(verts, [[0, 1, 2], [1, 0, 3], [0, 1, 4]], quality_floor=None)


def test_triangles_meeting_at_a_vertex_are_pinched():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [-1.0, 0.0], [-0.5, -1.0]])
    with pytest.raises(MeshQualityFailure, match="pinched"):
        mesh_from_arrays(verts, [[0, 1, 2], [0, 3, 4]])
