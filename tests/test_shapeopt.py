import math
from dataclasses import replace

import numpy as np
import pytest

from extremal_lab import analytic, fem, overdet, shapeopt
from extremal_lab.errors import MeshQualityFailure, NoSignChange
from extremal_lab.geom2d import (
    Disk,
    Ellipse,
    PeriodicStrip,
    Polygon,
    boundary_geometry,
    build_domain,
)
from extremal_lab.geom2d.meshing import Mesh, mesh_from_arrays, strip_grid_counts, structured_strip

J01SQ = 5.783185962946785


@pytest.fixture(scope="module")
def disk_eigen(disk_mesh_h05):
    k, m = fem.assemble(disk_mesh_h05)
    return fem.eigen_smallest(k, m, disk_mesh_h05)


# -- shape derivative ------------------------------------------------------------


def test_disk_velocity_near_zero_and_mean_free(disk_mesh_h05, disk_eigen):
    tr = fem.neumann_trace(
        *fem.assemble(disk_mesh_h05), disk_mesh_h05, disk_eigen.u1,
        source=disk_eigen.lambda1 * disk_eigen.u1,
    )
    vel = shapeopt.shape_derivative(tr)
    w = tr.lumped_weights
    q2_mean = float((tr.nodal**2 * w).sum() / w.sum())
    # the disk is critical: the velocity is zero at the trace-noise level
    assert float(np.abs(vel).max()) <= 0.05 * q2_mean
    assert abs(float((vel * w).sum())) / float(w.sum()) <= 1e-12


def test_ellipse_velocity_signs():
    mesh = build_domain(Ellipse(2.0, 1.0), 0.05)
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh)
    tr = fem.neumann_trace(k, m, mesh, ep.u1, source=ep.lambda1 * ep.u1)
    vel = shapeopt.shape_derivative(tr)
    pts = mesh.vertices[mesh.boundary_edges[:, 0]]
    at_y_tip = np.abs(pts[:, 1]) > 0.95
    at_x_tip = np.abs(pts[:, 0]) > 1.9
    # flux is strongest across the short axis: grow there, retract the tips
    assert np.all(vel[at_y_tip] > 0)
    assert np.all(vel[at_x_tip] < 0)


def _ellipse_morph(h, eps=1e-3):
    """d lambda1 along the morph x -> x (1 + eps cos 2 theta) of the (1.4, 1/1.4)
    ellipse's mesh at h, times eps: the exact discrete derivative, the morph
    central difference, and Hadamard's -sum g^2 (V . n) w on the mesh's trace."""
    mesh = build_domain(Ellipse(1.4, 1 / 1.4), h)
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh)
    tr = fem.neumann_trace(k, m, mesh, ep.u1, source=ep.lambda1 * ep.u1)
    w = tr.lumped_weights
    th = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])

    def lam_of(verts):
        m2 = mesh_from_arrays(verts, mesh.triangles, quality_floor=None)
        k2, mm2 = fem.assemble(m2)
        return fem.eigen_smallest(k2, mm2, m2).lambda1

    lam_p = lam_of(mesh.vertices * (1 + eps * np.cos(2 * th))[:, None])
    lam_m = lam_of(mesh.vertices * (1 - eps * np.cos(2 * th))[:, None])
    fd = (lam_p - lam_m) / 2.0

    bg = boundary_geometry(mesh)
    ids = mesh.boundary_edges[:, 0]
    disp = mesh.vertices * (eps * np.cos(2 * th))[:, None]
    v_normal = np.einsum("ij,ij->i", disp[ids], bg.normal)
    predicted = -float((tr.nodal**2 * v_normal * w).sum())
    exact = float(fem.eigen_shape_derivative(k, m, mesh, ep, tr, disp[None])[0][0])
    return exact, fd, predicted


def test_shape_derivative_against_morph_fd():
    # morphing the mesh keeps connectivity, so discretization error cancels
    # in the eigenvalue difference; cos(2 theta) is compatible with the
    # ellipse's mirror symmetries (odd modes integrate to zero)
    gaps = []
    for h in (0.1, 0.05):
        exact, fd, predicted = _ellipse_morph(h)
        # the exact derivative of the discrete eigenvalue is what the morph differences
        assert abs(fd - exact) <= 1e-5 * abs(exact), h
        gaps.append(abs(predicted - exact) / abs(exact))
    assert fd == pytest.approx(predicted, rel=0.05)
    # Hadamard's boundary formula is the continuous limit the mesh converges to
    assert gaps[1] <= 2e-3 and gaps[1] <= gaps[0] / 3, gaps


def test_lumped_weights_are_half_edge_lengths(strip_mesh):
    # periodic loops close across the seam: every vertex has two edges
    k, m = fem.assemble(strip_mesh)
    ep = fem.eigen_smallest(k, m, strip_mesh)
    tr = fem.neumann_trace(k, m, strip_mesh, ep.u1, source=ep.lambda1 * ep.u1)
    assert tr.lumped_weights.sum() == pytest.approx(strip_mesh.boundary_lengths.sum(), rel=1e-14)
    for sl in strip_mesh.boundary_loops:
        lengths = strip_mesh.boundary_lengths[sl]
        assert np.allclose(tr.lumped_weights[sl], 0.5 * (lengths + np.roll(lengths, 1)), rtol=1e-14)


# -- descent flow ----------------------------------------------------------------


def test_disk_flow_terminates_immediately():
    res = shapeopt.flow_to_extremal(Disk(1.0), h=0.05, max_steps=50)
    assert res.reason == "converged"
    assert len(res.states) == 1
    assert res.final.spread < 1e-3


def test_flow_states_record_polygon_area():
    res = shapeopt.flow_to_extremal(Ellipse(1.2, 1 / 1.2), h=0.08, max_steps=2)
    assert len(res.states) == 3
    for s in res.states:
        assert s.area == Polygon(tuple(map(tuple, s.boundary))).area()


@pytest.mark.slow
def test_ellipse_flow_reaches_disk(ellipse_flow):
    res, _ = ellipse_flow
    assert len(res.states) - 1 <= 300
    lams = [s.lambda1 for s in res.states]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(lams, lams[1:]))
    areas = [s.area for s in res.states]
    assert max(abs(a - math.pi) / math.pi for a in areas) <= 1e-3
    pts = res.final.boundary
    x, y = pts.T
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    cent = np.array([(x + np.roll(x, -1)) @ cross, (y + np.roll(y, -1)) @ cross]) / (3 * cross.sum())
    assert float(np.abs(np.hypot(*(pts - cent).T) - 1.0).max()) <= 0.01
    assert abs(res.final.lambda1 - J01SQ) / J01SQ <= 0.005


@pytest.mark.slow
def test_square_flow_decreases_lambda():
    side = math.sqrt(math.pi)
    square = Polygon(((0, 0), (side, 0), (side, side), (0, side)))
    res = shapeopt.flow_to_extremal(square, h=0.06, max_steps=40)
    lams = [s.lambda1 for s in res.states]
    assert lams[0] == pytest.approx(2 * math.pi**2 / math.pi, rel=0.01)  # 2*pi
    assert all(b <= a * (1 + 1e-12) for a, b in zip(lams, lams[1:]))
    assert lams[-1] < lams[0] - 0.05 * (lams[0] - J01SQ)


@pytest.fixture(scope="module")
def flow_eval():
    """The flow's evaluation of a 64-gon on the (1.2, 1/1.2) ellipse, meshed at
    its edge length 0.1."""
    pts = shapeopt._boundary_points(Ellipse(1.2, 1 / 1.2), 64)
    mesh = build_domain(shapeopt._poly(pts), 0.1)
    return shapeopt._FlowEval(pts, overdet.eigen_flux(mesh, 1e-10, 0.0))


def test_moved_mesh_maps_an_affine_boundary_step_exactly(flow_eval):
    # the P1 harmonic extension reproduces affine data, so an affine map of
    # the boundary moves every interior vertex by the same map
    a, b = np.array([[1.05, 0.1], [-0.02, 0.97]]), np.array([0.3, -0.2])
    mesh = flow_eval.sol.mesh
    moved = flow_eval.moved_mesh(flow_eval.pts @ a.T + b)
    assert np.max(np.abs(moved.vertices - (mesh.vertices @ a.T + b))) <= 1e-12
    assert moved.triangles is mesh.triangles


def test_moved_mesh_of_a_zero_step_keeps_the_vertices(flow_eval):
    moved = flow_eval.moved_mesh(flow_eval.pts.copy())
    assert np.array_equal(moved.vertices, flow_eval.sol.mesh.vertices)


def test_flow_remeshes_where_the_moved_mesh_breaks_the_floor(monkeypatch):
    builds = _counting_calls(monkeypatch, "build_domain")
    refused = []
    moved = Mesh.moved

    def watched(mesh, vertices, period):
        try:
            return moved(mesh, vertices, period)
        except MeshQualityFailure:
            refused.append(replace(mesh, vertices=vertices))
            raise

    monkeypatch.setattr(Mesh, "moved", watched)
    # a first step of a whole mesh size flattens triangles of the moved mesh
    res = shapeopt.flow_to_extremal(Ellipse(1.2, 1 / 1.2), h=0.1, max_steps=2, move_cap=1.0)
    assert len(res.states) == 3 and refused
    assert all(m.triangle_areas().min() > 0 and m.min_angle_deg() < 20.0 for m in refused)
    assert res.meshes_built == len(builds) == 1 + len(refused)


def test_benchmark_flow_builds_one_mesh(monkeypatch):
    builds = _counting_calls(monkeypatch, "build_domain")
    res = shapeopt.flow_to_extremal(Ellipse(1.2, 1 / 1.2), h=0.05, max_steps=8)
    assert len(res.states) == 9 and res.trials_rejected == 0
    assert res.meshes_built == len(builds) == 1


# -- bifurcation periods ------------------------------------------------------------


def _cell(lam=1.0, T=2 * math.pi, resolution=16, n_modes=1):
    return shapeopt.strip_cell(lam, T, resolution, n_modes)


def _mu(lam, T, resolution=12):
    """mu at T on a cell meshed for T."""
    return shapeopt.bifurcation_mu(_cell(lam, T, resolution), T)


def test_straight_strip_spread_is_tiny():
    cell = _cell(1.0, 6.0, 12, n_modes=4)
    sol, _ = cell.solve(np.array([cell.half_width, 0, 0, 0, 0, 6.0]))
    assert sol.report.rel_spread < 1e-10


def test_mu_sign_change_brackets_two_pi():
    assert _mu(1.0, 5.5) > 0
    assert _mu(1.0, 7.0) < 0


def test_mu_does_not_depend_on_the_cell_modes():
    # mu reads the basis rows of c_0, c_1 and T only
    one, ten = _cell(n_modes=1), _cell(n_modes=10)
    for t in (5.5, 2 * math.pi, 7.0):
        mu = shapeopt.bifurcation_mu(one, t)
        assert shapeopt.bifurcation_mu(ten, t) == pytest.approx(mu, rel=1e-12)


@pytest.mark.slow
def test_mu_has_exactly_one_sign_change():
    # dense scan over the searched period window
    ts = np.linspace(0.6, 40.0, 200)
    mus = np.array([_mu(1.0, float(t), resolution=6) for t in ts])
    signs = np.sign(mus)
    changes = int(np.sum(signs[1:] * signs[:-1] < 0))
    assert changes == 1


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_bifurcation_mu_matches_closed_form(lam):
    for t in (2.0, 4.0, 8.0, 12.0):
        ref = analytic.strip_flux_linearization(lam, t)
        assert _mu(lam, t) == pytest.approx(ref, rel=0.03)


@pytest.mark.slow
def test_bifurcation_period_scaling_law():
    t1 = shapeopt.bifurcation_period(_cell(1.0))
    t4 = shapeopt.bifurcation_period(_cell(4.0, math.pi))
    assert abs(t4 - t1 / 2) / (t1 / 2) <= 1e-4
    # the numerical zero sits at the separable-mode crossover 2*pi/sqrt(lam)
    assert t1 == pytest.approx(2 * math.pi, rel=1e-3)
    # a 48-point scan over [0.1, 50] plus bisection found 6.2825790 here
    assert shapeopt.bifurcation_period(_cell(1.0, resolution=12)) == pytest.approx(6.2825790,
                                                                                   rel=1e-6)


@pytest.mark.slow
def test_bifurcation_period_converges_at_second_order():
    # the discrete T* approaches 2 pi / sqrt(lam) as resolution^-2
    res = np.array([16, 24, 32])
    err = np.array([shapeopt.bifurcation_period(_cell(1.0, resolution=int(n), n_modes=8))
                    for n in res]) - 2 * math.pi
    orders = np.log(err[:-1] / err[1:]) / np.log(res[1:] / res[:-1])
    assert np.all((1.9 <= orders) & (orders <= 2.1)), orders
    richardson = (res[2] ** 2 * err[2] - res[1] ** 2 * err[1]) / (res[2] ** 2 - res[1] ** 2)
    assert abs(richardson) <= 1e-7


def _counting(monkeypatch, fn):
    calls = []

    def mu(cell, t):
        calls.append(cell)
        return fn(t)

    monkeypatch.setattr(shapeopt, "bifurcation_mu", mu)
    return calls


def test_bifurcation_period_widens_the_bracket(monkeypatch):
    cell = _cell(1.0)
    calls = _counting(monkeypatch, lambda t: (3.0 - t) * (1.0 + 0.1 * t))
    assert shapeopt.bifurcation_period(cell) == pytest.approx(3.0, rel=1e-9)
    # one mesh family for every evaluation
    assert {id(c) for c in calls} == {id(cell)}


def test_bifurcation_period_without_sign_change(monkeypatch):
    cell = _cell(4.0, math.pi)
    calls = _counting(monkeypatch, lambda t: 1.0 + t)
    with pytest.raises(NoSignChange):
        shapeopt.bifurcation_period(cell)
    # two for the first bracket and two per doubling; the sixth passes [0.1, 50]/sqrt(4)
    assert len(calls) == 14


@pytest.mark.slow
def test_branch_leaves_its_bifurcation_period_downward():
    cell = _cell(1.0, n_modes=10)
    tstar = shapeopt.bifurcation_period(cell)
    # the branch meshes its start with the counts the search used
    assert strip_grid_counts(tstar, *shapeopt.strip_cell_spacing(1.0, tstar, 16)) == (
        strip_grid_counts(2 * math.pi, *shapeopt.strip_cell_spacing(1.0, 2 * math.pi, 16)))
    points = shapeopt.continue_branch(cell, tstar, s_max=0.004, ds=0.005)
    assert -2e-5 < points[1].period - tstar < 0


# -- branch continuation --------------------------------------------------------------


def _counting_calls(monkeypatch, name, owner=shapeopt):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _max_flux_residual(z, n_modes=10):
    """max |f| of a fresh residual evaluation at z = (c_0..c_N, T, alpha) on the
    2 pi cell's mesh: the flux level, the deviation modes and the cell area."""
    sol, dev = _cell(n_modes=n_modes).solve(z[:-1])
    f = np.concatenate([[sol.report.alpha_hat - z[-1]], dev, [2.0 * z[0] * z[-2] - 2 * math.pi**2]])
    return float(np.max(np.abs(f)))


def _point_z(p):
    return np.array(list(p.coeffs) + [p.period, p.alpha_hat])


def _counting_newton_steps(monkeypatch, jacobians, solves=()):
    """Jacobian builds per `_branch_newton` call, one entry per corrector step;
    the `StripCell.solve` calls made inside those calls go to `residuals`."""
    newton = shapeopt._branch_newton
    per_step, residuals = [], []

    def counted(*args, **kwargs):
        before, solved = len(jacobians), len(solves)
        result = newton(*args, **kwargs)
        per_step.append(len(jacobians) - before)
        residuals.extend(solves[solved:])
        return result

    monkeypatch.setattr(shapeopt, "_branch_newton", counted)
    return per_step, residuals


def test_strip_basis_places_the_cell_vertices():
    # every branch residual places its cell's vertices as basis . (c, T), so
    # the basis must be the geometry of `structured_strip` itself
    nx, ny, c, T = 37, 12, (1.3, 0.12, -0.04, 0.015), 5.1
    vertices = structured_strip(PeriodicStrip(T, c), nx, ny).vertices
    placed = np.tensordot(np.array(c + (T,)), shapeopt._strip_velocities(nx, ny, len(c) - 1), 1)
    assert np.max(np.abs(placed - vertices)) <= 1e-14 * np.max(np.abs(vertices))


def test_branch_builds_one_period_cell(monkeypatch):
    cells = _counting_calls(monkeypatch, "structured_strip")
    points = shapeopt.continue_branch(_cell(n_modes=10), 2 * math.pi, s_max=0.01, ds=0.005)
    assert len(points) >= 3 and len(cells) == 1
    # every point's mesh is the one cell topology, moved to the point's shape
    assert all(p.mesh.triangles is points[0].mesh.triangles for p in points)
    assert [p.mesh.period for p in points] == [p.period for p in points]


def test_branch_corrector_builds_one_jacobian(monkeypatch):
    cell = _cell(n_modes=10)
    solves = _counting_calls(monkeypatch, "solve", shapeopt.StripCell)
    jacobians = _counting_calls(monkeypatch, "flux_jacobian", shapeopt.StripCell)
    per_step, residuals = _counting_newton_steps(monkeypatch, jacobians, solves)
    points = shapeopt.continue_branch(cell, 2 * math.pi, s_max=0.01, ds=0.005)
    assert len(points) >= 3 and len(per_step) == len(points) - 1
    # one exact Jacobian per Newton iteration, at most three iterations a step
    assert all(1 <= n <= 3 for n in per_step), per_step
    # each step evaluates its predictor once and one residual per iteration:
    # no finite-difference columns, no line-search halvings
    assert len(residuals) == len(per_step) + len(jacobians) <= 30
    for p in points[1:]:
        assert _max_flux_residual(_point_z(p)) <= 1e-10


def test_branch_corrector_refreshes_a_corrupted_jacobian(monkeypatch):
    cell = _cell(n_modes=10)
    reference = shapeopt.continue_branch(cell, 2 * math.pi, s_max=0.01, ds=0.005)
    exact = shapeopt.StripCell.flux_jacobian
    jacobians = []

    def corrupted_first(cell, sol, velocities):
        jac = exact(cell, sol, velocities)
        jacobians.append(jac)
        # the first build is wrong by a factor of three in every flux entry
        return 3.0 * jac if len(jacobians) == 1 else jac

    monkeypatch.setattr(shapeopt.StripCell, "flux_jacobian", corrupted_first)
    per_step, _ = _counting_newton_steps(monkeypatch, jacobians)
    points = shapeopt.continue_branch(cell, 2 * math.pi, s_max=0.01, ds=0.005)
    assert len(points) == len(reference)
    # the bad matrix costs its step extra iterations; the next iterate builds afresh
    assert per_step[0] > 1 and all(1 <= n <= 3 for n in per_step[1:]), per_step
    for p, q in zip(points[1:], reference[1:]):
        assert _max_flux_residual(_point_z(p)) <= 1e-10
        assert np.max(np.abs(_point_z(p) - _point_z(q))) <= 1e-9


@pytest.fixture(scope="module")
def branch_points():
    return shapeopt.continue_branch(_cell(n_modes=10), 2 * math.pi, s_max=0.055, ds=0.005)


@pytest.mark.slow
def test_branch_starts_at_straight_strip(branch_points):
    p0 = branch_points[0]
    assert p0.s == 0.0
    assert p0.spread < 1e-10
    ss = analytic.strip_solution(1.0, p0.alpha_hat)
    assert p0.max_u == pytest.approx(ss.max_value, rel=1e-4)


@pytest.mark.slow
def test_branch_accepts_points_with_tiny_spread(branch_points):
    nontrivial = [p for p in branch_points[1:] if abs(p.s) > 1e-6]
    assert len(nontrivial) >= 10
    for p in nontrivial:
        assert p.converged
        assert p.spread <= 1e-6
        assert abs(p.coeffs[-1]) <= 1e-8 * abs(p.coeffs[1])
        assert p.s == pytest.approx(p.coeffs[1], abs=1e-12)
        # cell area is pinned along the branch: 2 * (pi/2) * (2 pi)
        assert 2 * p.coeffs[0] * p.period == pytest.approx(2 * math.pi**2, rel=1e-10)


@pytest.mark.slow
def test_branch_max_u_exceeds_strip_threshold(branch_points):
    for p in branch_points[1:]:
        assert p.max_u >= abs(p.alpha_hat) / math.sqrt(p.lam) - 1e-4


@pytest.mark.slow
def test_branch_pitchfork_symmetry(branch_points):
    mirror = shapeopt.continue_branch(_cell(n_modes=10), 2 * math.pi, s_max=0.02, ds=-0.005)
    assert len(mirror) >= 3
    for p_neg in mirror[1:4]:
        p_pos = min(branch_points[1:], key=lambda p: abs(p.s + p_neg.s))
        assert abs(p_pos.s + p_neg.s) < 1e-8
        assert p_neg.alpha_hat == pytest.approx(p_pos.alpha_hat, abs=1e-8)
        assert p_neg.lambda1 == pytest.approx(p_pos.lambda1, abs=1e-8)
        assert p_neg.max_u == pytest.approx(p_pos.max_u, abs=1e-8)
