import math

import numpy as np
import pytest

from extremal_lab import analytic, fem, overdet
from extremal_lab.errors import NonNegativeAlpha, ZeroBoundary
from extremal_lab.geom2d import (
    Disk,
    Ellipse,
    Line,
    PeriodicStrip,
    Polygon,
    build_domain,
)
from extremal_lab.geom2d.boundary import boundary_geometry
from extremal_lab.geom2d.meshing import mesh_from_arrays

LAM = 1.0
R1 = analytic.r_lambda(LAM)  # 2.404825...
H0 = analytic.ball_solution(LAM, -1.0).h0


@pytest.fixture(scope="module")
def critical_disk():
    """FEM solution on the critical disk, rescaled so alpha_hat = -1."""
    mesh = build_domain(Disk(R1), 0.02 * R1)
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh)
    rep = fem.neumann_trace(k, m, mesh, ep.u1, source=ep.lambda1 * ep.u1.values)
    w = mesh.boundary_lengths
    alpha0 = float((rep.per_edge * w).sum() / w.sum())
    u = fem.ScalarField(mesh, ep.u1.values * (-1.0 / alpha0))
    report = overdet.overdet_residual(k, m, mesh, u, LAM * u.values)
    return mesh, u, report, ep


@pytest.fixture(scope="module")
def strip_eigen(strip_solves):
    mesh, _, _, ep, rep = strip_solves[0.08]
    return mesh, ep, rep


# -- overdet_residual -----------------------------------------------------------


def test_disk_spread_small(disk_mesh_h02):
    k, m = fem.assemble(disk_mesh_h02)
    ep = fem.eigen_smallest(k, m, disk_mesh_h02)
    rep = overdet.overdet_residual(k, m, disk_mesh_h02, ep.u1, ep.lambda1 * ep.u1.values)
    assert rep.rel_spread <= 0.01
    assert rep.alpha_hat < 0


def test_ellipse_spread_large(ellipse_mesh_h02):
    k, m = fem.assemble(ellipse_mesh_h02)
    ep = fem.eigen_smallest(k, m, ellipse_mesh_h02)
    rep = overdet.overdet_residual(k, m, ellipse_mesh_h02, ep.u1, ep.lambda1 * ep.u1.values)
    assert rep.rel_spread >= 0.2


def test_strip_interpolated_trace(strip_mesh):
    ss = analytic.strip_solution(1.0, -1.0)
    vals = ss.profile(strip_mesh.vertices[:, 1] + math.pi / 2)
    u = fem.ScalarField(strip_mesh, vals)
    rep = overdet.overdet_residual(*fem.assemble(strip_mesh), strip_mesh, u, 1.0 * vals)
    assert rep.alpha_hat == pytest.approx(-1.0, rel=0.01)
    assert abs(rep.loop_means[0] - rep.loop_means[1]) <= 0.005


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_scaled_report_matches_a_fresh_trace(ellipse_mesh_h02, sign):
    # the flux is linear in (u, source): scaling the report replaces a second trace
    mesh = ellipse_mesh_h02
    sol = overdet.eigen_flux(mesh, 1e-10, 0.0)
    c = sign * -2.0 / sol.report.alpha_hat
    u = fem.ScalarField(mesh, c * sol.eigen.u1.values)
    fresh = overdet.overdet_residual(sol.k, sol.m, mesh, u, sol.eigen.lambda1 * u.values)
    scaled = sol.report.scaled(c)
    for got, want in [(scaled.alpha_hat, fresh.alpha_hat), (scaled.rel_spread, fresh.rel_spread),
                      (scaled.max_abs_deviation, fresh.max_abs_deviation),
                      (scaled.loop_means, fresh.loop_means),
                      (scaled.trace.nodal, fresh.trace.nodal),
                      (scaled.trace.per_edge, fresh.trace.per_edge)]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert scaled.trace.lumped_weights is sol.report.trace.lumped_weights


def test_zero_boundary_raises(disk_mesh_h05):
    u = fem.ScalarField(disk_mesh_h05, np.zeros(len(disk_mesh_h05.vertices)))
    with pytest.raises(ZeroBoundary):
        overdet.overdet_residual(*fem.assemble(disk_mesh_h05), disk_mesh_h05, u, None)


# -- patch recovery ---------------------------------------------------------------


def test_recovery_exact_on_linears(disk_mesh_h05):
    mesh = disk_mesh_h05
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    rec = overdet.patch_recover(mesh, 1.5 + 2 * x - 3 * y)
    assert np.max(np.abs(rec.gradient - [2.0, -3.0])) <= 1e-12
    assert np.max(np.abs(rec.hessian)) <= 1e-10


def test_recovery_accurate_on_quadratics(disk_mesh_h05):
    # the quadratic patch fit reproduces a quadratic exactly, on the boundary too
    mesh = disk_mesh_h05
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    vals = x * x + x * y + 2 * y * y
    rec = overdet.patch_recover(mesh, vals)
    grad_exact = np.column_stack([2 * x + y, x + 4 * y])
    hess_exact = np.array([[2.0, 1.0], [1.0, 4.0]])
    assert np.max(np.abs(rec.gradient - grad_exact)) <= 1e-9
    assert np.max(np.abs(rec.hessian - hess_exact)) <= 1e-9


def test_recovery_on_periodic_strip(strip_mesh):
    # x offsets wrap across the seam, and the quad centres (5 dofs in their
    # 1-ring) take the 2-ring, so a smooth periodic field is recovered
    # to O(h^2) in the gradient on every vertex
    x, y = strip_mesh.vertices[:, 0], strip_mesh.vertices[:, 1]
    rec = overdet.patch_recover(strip_mesh, np.sin(x) + y * y)
    hess_exact = np.zeros((len(x), 2, 2))
    hess_exact[:, 0, 0], hess_exact[:, 1, 1] = -np.sin(x), 2.0
    assert np.max(np.abs(rec.gradient - np.column_stack([np.cos(x), 2 * y]))) <= 0.01
    assert np.max(np.abs(rec.hessian - hess_exact)) <= 0.1


def test_recovery_is_independent_of_vertex_numbering(disk_mesh_h05):
    mesh = disk_mesh_h05
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    vals = np.sin(2 * x) * np.cos(3 * y) + x * y
    perm = np.random.default_rng(7).permutation(len(x))
    renumbered = mesh_from_arrays(mesh.vertices[perm], np.argsort(perm)[mesh.triangles])
    a = overdet.patch_recover(mesh, vals)
    b = overdet.patch_recover(renumbered, vals[perm])
    assert np.max(np.abs(a.gradient[perm] - b.gradient)) <= 1e-9
    assert np.max(np.abs(a.hessian[perm] - b.hessian)) <= 1e-9
    assert np.max(np.abs(a.fit_residual[perm] - b.fit_residual)) <= 1e-9


def test_recovery_on_cocircular_patch_falls_back_to_linear():
    # a regular hexagon with no interior vertex: every patch is all six
    # nodes, which lie on one circle, so no quadratic is determined
    theta = np.arange(6) * np.pi / 3
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    mesh = mesh_from_arrays(pts, [[0, 1, 2], [2, 3, 4], [4, 5, 0], [0, 2, 4]])
    rec = overdet.patch_recover(mesh, 1.5 + 2 * pts[:, 0] - 3 * pts[:, 1])
    assert np.all(np.isfinite(rec.gradient)) and np.all(np.isfinite(rec.hessian))
    assert np.all(np.isfinite(rec.fit_residual))
    assert np.max(np.abs(rec.gradient - [2.0, -3.0])) <= 1e-12
    assert np.max(np.abs(rec.hessian)) <= 1e-10


def test_recovery_widens_a_boundary_patch_with_a_full_one_ring():
    # half-disk fan: boundary vertex 0 at the centre of the straight side has
    # 8 dofs in its 1-ring, which alone would fit a quadratic, yet being on the
    # boundary it is fitted over its 2-ring, the outer half ring included
    theta = np.arange(7) * np.pi / 6
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    pts = np.vstack([[0.0, 0.0], ring, 2 * ring])
    fan = [[0, i, i + 1] for i in range(1, 7)]
    band = [t for i in range(1, 7) for t in ([i, i + 7, i + 8], [i, i + 8, i + 1])]
    mesh = mesh_from_arrays(pts, fan + band, quality_floor=None)
    assert 0 in mesh.boundary_vertex_ids()
    x, y = pts.T
    u = x**3 - 2 * x**2 * y + x * y**2 + 0.5 * y**3 + x  # cubic: the patch matters

    def reference_fit(ids):  # least-squares quadratic in offsets from vertex 0
        dx, dy = x[ids], y[ids]
        basis = np.column_stack([np.ones_like(dx), dx, dy, dx * dx, dx * dy, dy * dy])
        c = np.linalg.lstsq(basis, u[ids] - u[0], rcond=None)[0]
        return c[1:3], np.array([[2 * c[3], c[4]], [c[4], 2 * c[5]]])

    rec = overdet.patch_recover(mesh, u)
    grad2, hess2 = reference_fit(np.arange(15))
    grad1, hess1 = reference_fit(np.arange(8))
    assert np.max(np.abs(rec.gradient[0] - grad2)) <= 1e-10
    assert np.max(np.abs(rec.hessian[0] - hess2)) <= 1e-10
    # the 1-ring fit is far off, so the match above is not an accident
    assert np.max(np.abs(grad1 - grad2)) > 1.0 and np.max(np.abs(hess1 - hess2)) > 1.0


def test_boundary_identity_on_ellipse():
    # u_tt / (-u_n) = k holds pointwise for any u vanishing on the boundary,
    # with u_n the local flux, so the ellipse tests the recovery itself
    errs = []
    for h in (0.05, 0.025):
        mesh = build_domain(Ellipse(2.0, 1.0), h)
        k, m = fem.assemble(mesh)
        ep = fem.eigen_smallest(k, m, mesh)
        tr = fem.neumann_trace(k, m, mesh, ep.u1, source=ep.lambda1 * ep.u1.values)
        hess = overdet.patch_recover(mesh, ep.u1.values).hessian[tr.vertex_ids]
        bg = boundary_geometry(mesh)
        u_tt = -np.einsum("ni,nij,nj->n", bg.tangent, hess, bg.tangent)  # as in p_function
        errs.append(float(np.max(np.abs(u_tt / -tr.nodal - bg.curvature) / bg.curvature)))
    assert errs[0] <= 0.07
    assert errs[1] < errs[0]


# -- P function -------------------------------------------------------------------


def test_strip_p_constant_and_monotone(strip_solves):
    errs = {}
    for h, (mesh, k, m, ep, rep) in strip_solves.items():
        u = fem.ScalarField(mesh, ep.u1.values / abs(rep.alpha_hat))
        rep = overdet.overdet_residual(k, m, mesh, u, ep.lambda1 * u.values)
        pr = overdet.p_function(mesh, u, fem.Linear(ep.lambda1), rep)
        errs[h] = float(
            np.max(np.abs(pr.field.values - rep.alpha_hat**2)) / rep.alpha_hat**2
        )
    assert errs[0.04] <= 0.02
    assert errs[0.04] <= errs[0.08] / 2.0
    assert errs[0.02] <= errs[0.04]


def test_disk_p_maximum_at_center(critical_disk):
    mesh, u, rep, _ = critical_disk
    pr = overdet.p_function(mesh, u, fem.Linear(LAM), rep)
    # interior max P = lam * h0^2 exceeds alpha^2, so the criterion fails
    assert pr.interior_max == pytest.approx(LAM * H0**2, rel=0.01)
    assert pr.criterion_left == pytest.approx(LAM * H0**2, rel=0.01)
    assert pr.criterion_right == pytest.approx(1.0, rel=1e-6)
    assert not pr.criterion_holds
    assert not pr.max_on_boundary
    # center vertex is a recovered critical point
    center = int(np.argmin(np.hypot(*mesh.vertices.T)))
    assert center in set(pr.critical_vertices.tolist())


def test_linear_criterion_is_lambda_times_max_u_squared(critical_disk):
    mesh, u, rep, _ = critical_disk
    pr = overdet.p_function(mesh, u, fem.Linear(LAM), rep)
    assert pr.criterion_left == pytest.approx(LAM * float(u.values.max()) ** 2, rel=1e-9)


def test_boundary_identity_on_critical_disk(critical_disk):
    mesh, u, rep, _ = critical_disk
    pr = overdet.p_function(mesh, u, fem.Linear(LAM), rep)
    rel = np.abs(pr.implied_curvature - 1.0 / R1) / (1.0 / R1)
    assert float(rel.max()) <= 0.05
    # and the geometric curvature itself is 1/R to mesh accuracy
    assert np.allclose(pr.geometric_curvature, 1.0 / R1, rtol=0.01)


def test_delta_p_identity_strip_symbolic():
    # flat strip: hessian norm^2 = lam^2 u^2 = f(u)^2 and P is constant
    ss = analytic.strip_solution(2.0, -1.5)
    x = np.linspace(0, ss.width, 101)
    u = ss.profile(x)
    hess_sq = (ss.lam * u) ** 2  # u'' = -lam u is the only second derivative
    f_sq = (ss.lam * u) ** 2
    p = ss.p_value(x)
    assert np.max(np.abs(hess_sq - f_sq)) <= 1e-12
    assert np.max(np.abs(p - ss.alpha**2)) <= 1e-12


def test_delta_p_identity_disk_numeric(critical_disk):
    mesh, u, rep, _ = critical_disk
    k, m = fem.assemble(mesh)
    rec = overdet.patch_recover(mesh, u.values)
    pr = overdet.p_function(mesh, u, fem.Linear(LAM), rep)
    mlump = np.asarray(m.sum(axis=1)).ravel()
    lap_p = mesh.expand(-(k @ mesh.reduce(pr.field.values)) / mlump)
    # integrate away from the boundary (recovery there is first-order)
    ring = np.zeros(len(mesh.vertices), bool)
    ring[mesh.boundary_vertex_ids()] = True
    for _ in range(2):
        grow = np.zeros_like(ring)
        grow[mesh.triangles[ring[mesh.triangles].any(axis=1)].ravel()] = True
        ring |= grow
    sel = ~ring
    h2 = np.einsum("vij,vij->v", rec.hessian, rec.hessian)
    f2 = (LAM * u.values) ** 2
    resid = h2 - f2 - 0.5 * lap_p
    w = mesh.expand(mlump)
    ratio = abs(float((resid[sel] * w[sel]).sum())) / float(
        ((h2 + f2 + 0.5 * np.abs(lap_p))[sel] * w[sel]).sum()
    )
    assert ratio <= 0.10


# -- theorem checks -----------------------------------------------------------------


def test_check_t4_critical_disk():
    g = 0.02
    chk = overdet.check_T4(Disk(R1), LAM, g)
    assert chk.passed
    assert abs(chk.margin) < 2 * g


def test_check_t4_strip_and_fat_disk():
    chk = overdet.check_T4(PeriodicStrip(2 * math.pi, (math.pi / 2,)), LAM, 0.02)
    assert chk.passed
    assert chk.measured == pytest.approx(math.pi / 2, abs=0.03)
    assert not overdet.check_T4(Disk(3.0), LAM, 0.02).passed


def test_check_t4_scale_covariance():
    c = 2.0
    a = overdet.check_T4(Disk(1.2), 1.0, 0.01)
    b = overdet.check_T4(Disk(1.2 * c), 1.0 / c**2, 0.01 * c)
    assert a.passed == b.passed
    assert a.margin / a.bound == pytest.approx(b.margin / b.bound, abs=1e-12)


def test_check_t5_vacuous_on_critical_disk(critical_disk):
    mesh, u, rep, _ = critical_disk
    chk = overdet.check_T5(mesh, u, LAM, rep.alpha_hat)
    assert chk.passed
    assert "empty_superlevel" in chk.flags


def test_check_t5_vacuous_on_strip(strip_eigen):
    mesh, ep, rep = strip_eigen
    u = fem.ScalarField(mesh, ep.u1.values / abs(rep.alpha_hat))
    rep2 = overdet.overdet_residual(*fem.assemble(mesh), mesh, u, ep.lambda1 * u.values)
    # strip max is |alpha|/sqrt(lam) < h0
    assert float(u.values.max()) < analytic.ball_solution(LAM, rep2.alpha_hat).h0
    chk = overdet.check_T5(mesh, u, LAM, rep2.alpha_hat)
    assert chk.passed and "empty_superlevel" in chk.flags


def test_check_t5_nonvacuous_pass_and_fail(disk_mesh_h05):
    # synthetic bump: one tight superlevel component around the origin
    mesh = disk_mesh_h05
    r2 = np.einsum("ij,ij->i", mesh.vertices, mesh.vertices)
    u = fem.ScalarField(mesh, 3.0 * np.exp(-r2 / 0.05))
    chk = overdet.check_T5(mesh, u, LAM, -1.0)
    assert chk.passed and not chk.flags
    assert chk.details["n_components"] == 1
    assert chk.measured < 2 * R1

    # stretched plateau on a long rectangle: diameter exceeds 2 R
    rect = build_domain(Polygon(((0, 0), (12, 0), (12, 1), (0, 1))), 0.2)
    vals = np.full(len(rect.vertices), 2.5)
    vals[rect.boundary_vertex_ids()] = 0.0
    chk2 = overdet.check_T5(rect, fem.ScalarField(rect, vals), LAM, -1.0)
    assert not chk2.passed
    assert chk2.measured > 2 * R1


def test_check_t5_requires_negative_alpha(critical_disk):
    mesh, u, _, _ = critical_disk
    with pytest.raises(NonNegativeAlpha):
        overdet.check_T5(mesh, u, LAM, 0.0)


def test_cap_heights_strip_and_rectangle(strip_mesh):
    lines = [Line((0.0, -1.2), (1.0, 0.0)), Line((0.0, 1.3), (1.0, 0.0))]
    chk = overdet.check_cap_heights(strip_mesh, LAM, lines)
    assert chk.passed
    rect = build_domain(Polygon(((0, 0), (1, 0), (1, 30), (0, 30))), 0.25)
    chk2 = overdet.check_cap_heights(rect, LAM, [Line((0.0, 2.0), (1.0, 0.0))])
    assert not chk2.passed
    assert chk2.measured == pytest.approx(28.0, abs=1e-6)


def test_cap_heights_critical_disk(critical_disk):
    mesh, _, _, _ = critical_disk
    chk = overdet.check_cap_heights(mesh, LAM, [Line((0.0, 0.5), (1.0, 0.0))])
    assert chk.passed
    # diameter bound: cap height < 2R < 3R
    assert chk.measured <= 2 * R1


def test_cap_heights_count_the_minor_caps_of_a_disk():
    # the centre at signed distance s: the positive-side cap is the minor cap,
    # a graph over its chord with its reflection inside, exactly when s < 0
    h, offsets = 0.1, (-0.8, -0.5, -0.35, -0.2, 0.2, 0.35, 0.5, 0.8)
    lines = []
    for k, s in enumerate(offsets):
        theta = 0.7 + 2 * math.pi * k / len(offsets)
        normal = np.array([-math.sin(theta), math.cos(theta)])
        lines.append(Line(tuple(-s * normal), (math.cos(theta), math.sin(theta))))
    chk = overdet.check_cap_heights(build_domain(Disk(1.0), h), LAM, lines)
    assert chk.details == {"lines": 8, "bounded_caps": 8, "graphs_over_chord": 4,
                           "reflections_contained": 4}
    # the highest cap is the major one at the largest s
    assert chk.measured == pytest.approx(1.0 + max(offsets), abs=h**2)


def test_t8_straight_strip_borderline(strip_eigen):
    mesh, ep, rep = strip_eigen
    chk = overdet.check_T8_convexity(mesh, ep.u1, fem.Linear(ep.lambda1), rep)
    assert chk.passed
    assert "criterion_borderline" in chk.flags
    assert chk.measured == pytest.approx(0.0, abs=1e-8)  # flat walls
    # recovered u_tt/(-alpha) vs k = 0: equal within the recovery accuracy
    assert chk.details["identity_max_abs_err"] <= 5e-3


def test_t8_not_applicable_on_bounded(critical_disk):
    mesh, u, rep, _ = critical_disk
    chk = overdet.check_T8_convexity(mesh, u, fem.Linear(LAM), rep)
    assert chk.passed is None
    assert "not_applicable" in chk.flags


def test_theorem_check_json(critical_disk):
    mesh, u, rep, _ = critical_disk
    chk = overdet.check_T5(mesh, u, LAM, rep.alpha_hat)
    blob = chk.to_json()
    assert blob["theorem"] == "T5"
    assert set(blob) == {"theorem", "pass", "measured", "bound", "margin", "flags", "details"}
