import math

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad
from scipy.sparse.linalg import splu

from extremal_lab import analytic, cli, fem, shapeopt
from extremal_lab.errors import DegenerateTriangle, NonPositiveSolution
from extremal_lab.geom2d import Ellipse, PeriodicStrip, Polygon, build_domain
from extremal_lab.geom2d.meshing import mesh_from_arrays, strip_grid_counts

J01SQ = 5.783185962946785


@pytest.fixture(scope="module")
def disk_eigen_h02(disk_mesh_h02):
    k, m = fem.assemble(disk_mesh_h02)
    return fem.eigen_smallest(k, m, disk_mesh_h02)


# -- assembly --------------------------------------------------------------------


def test_single_triangle_stiffness_and_mass():
    mesh = mesh_from_arrays(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    k, m = fem.assemble(mesh)
    # hand assembly of P1 gradients on the unit right triangle
    k_exact = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    m_exact = (0.5 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(k.toarray(), k_exact, atol=1e-15)
    assert np.allclose(m.toarray(), m_exact, atol=1e-16)


def test_assembly_symmetry_and_kernel(disk_mesh_h05):
    k, m = fem.assemble(disk_mesh_h05)
    assert (k - k.T).nnz == 0  # exact symmetry, not approximate
    assert (m - m.T).nnz == 0
    ones = np.ones(disk_mesh_h05.n_dofs)
    assert np.max(np.abs(k @ ones)) <= 1e-12
    rng = np.random.default_rng(1)
    w = rng.normal(size=disk_mesh_h05.n_dofs)
    assert w @ (k @ w) >= -1e-12
    assert w @ (m @ w) > 0


def test_degenerate_triangle_rejected():
    mesh = mesh_from_arrays(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]]),
        [[0, 1, 2]],
        quality_floor=None,
    )
    with pytest.raises(DegenerateTriangle):
        fem.assemble(mesh)


def test_mass_integrates_area(strip_mesh):
    k, m = fem.assemble(strip_mesh)
    ones = np.ones(strip_mesh.n_dofs)
    assert ones @ (m @ ones) == pytest.approx(float(strip_mesh.triangle_areas().sum()))


# -- eigenpairs ------------------------------------------------------------------


def test_disk_eigenvalue(disk_eigen_h02):
    assert abs(disk_eigen_h02.lambda1 - J01SQ) / J01SQ <= 0.005
    assert disk_eigen_h02.residual <= 1e-10


def test_eigen_convergence_order(disk_mesh_h08, disk_mesh_h04, disk_mesh_h02):
    errs = []
    for mesh in (disk_mesh_h08, disk_mesh_h04, disk_mesh_h02):
        k, m = fem.assemble(mesh)
        ep = fem.eigen_smallest(k, m, mesh)
        errs.append(abs(ep.lambda1 - J01SQ))
    assert 3.2 <= errs[0] / errs[1] <= 4.8
    assert 3.2 <= errs[1] / errs[2] <= 4.8


def test_eigen_solve_counts_its_refactors(disk_mesh_h08):
    # unshifted and at shift 5 the power iteration converges without
    # re-shifting; at shift 10, nearly midway between lambda1 (5.80) and
    # lambda2 (14.7), it is still slow at iteration 25 and re-shifts once
    k, m = fem.assemble(disk_mesh_h08)
    pairs = [fem.eigen_smallest(k, m, disk_mesh_h08, shift=s) for s in (0.0, 5.0, 10.0)]
    assert [ep.refactors for ep in pairs] == [0, 0, 1]
    assert pairs[0].iterations < 25 and pairs[1].iterations < 25 < pairs[2].iterations
    for ep in pairs[1:]:
        assert ep.lambda1 == pytest.approx(pairs[0].lambda1, rel=1e-12)


def test_pi_square_eigenvalue():
    mesh = build_domain(Polygon(((0, 0), (math.pi, 0), (math.pi, math.pi), (0, math.pi))), 0.07)
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh)
    assert ep.lambda1 == pytest.approx(2.0, rel=0.005)


def test_unit_square_eigenvalue():
    mesh = build_domain(Polygon(((0, 0), (1, 0), (1, 1), (0, 1))), 0.025)
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh)
    assert ep.lambda1 == pytest.approx(2 * math.pi**2, rel=0.005)


def test_eigenfunction_properties(disk_mesh_h05):
    k, m = fem.assemble(disk_mesh_h05)
    interior = disk_mesh_h05.interior_dofs()
    ep = fem.eigen_smallest(k, m, disk_mesh_h05)
    u = disk_mesh_h05.reduce(ep.u1)
    # mass normalization and constant interior sign
    assert u @ (m @ u) == pytest.approx(1.0, abs=1e-10)
    assert np.all(u[interior] > 0)
    assert np.all(np.delete(u, interior) == 0.0)


def test_discrete_maximum_principle_surrogate(disk_mesh_h05):
    k, m = fem.assemble(disk_mesh_h05)
    interior = disk_mesh_h05.interior_dofs()
    rng = np.random.default_rng(42)
    w = np.abs(rng.normal(size=len(interior)))
    from scipy.sparse.linalg import splu

    ki = k[interior][:, interior].tocsc()
    mi = m[interior][:, interior].tocsc()
    u = splu(ki).solve(mi @ w)
    assert float(u.min()) >= -1e-10


# -- semilinear solves -----------------------------------------------------------


def _allen_cahn_1d_max(width: float) -> float:
    """Shooting oracle for u'' + u - u^3 = 0, u(0) = u(width) = 0, u > 0.

    Uses the first integral: with maximum m, the half-width is an explicit
    quadrature, solved for m by bisection.
    """

    def halfwidth(m: float) -> float:
        val, _ = quad(
            lambda ph: 1.0 / math.sqrt(1.0 - 0.5 * m * m * (1.0 + math.sin(ph) ** 2)),
            0.0,
            math.pi / 2,
        )
        return val

    lo, hi = 1e-9, 0.999
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if halfwidth(mid) < width / 2:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_allen_cahn_strip_against_shooting_oracle():
    width = math.pi * math.sqrt(2)  # first eigenvalue 1/2 < 1
    oracle = _allen_cahn_1d_max(width)
    mesh = build_domain(PeriodicStrip(2.0, (width / 2,)), 0.05)
    u0 = 0.5 * np.cos(math.pi * mesh.vertices[:, 1] / width)
    u = fem.solve_semilinear(*fem.assemble(mesh), mesh, fem.AllenCahn(), u0)
    assert float(u.max()) == pytest.approx(oracle, rel=0.01)
    assert float(u.max()) < 1.0


def test_linear_at_eigenvalue_converges_immediately(disk_mesh_h05):
    k, m = fem.assemble(disk_mesh_h05)
    ep = fem.eigen_smallest(k, m, disk_mesh_h05)
    u = fem.solve_semilinear(k, m, disk_mesh_h05, fem.Linear(ep.lambda1), ep.u1)
    # returns a multiple of the eigenfunction (here: the input itself)
    assert np.allclose(u, ep.u1, atol=1e-12)


def test_linear_off_eigenvalue_returns_zero(disk_mesh_h05):
    u0 = np.zeros(len(disk_mesh_h05.vertices))
    u = fem.solve_semilinear(*fem.assemble(disk_mesh_h05), disk_mesh_h05, fem.Linear(3.0), u0)
    assert np.max(np.abs(u)) == 0.0


def test_semilinear_wrong_basin_raises():
    width = math.pi * math.sqrt(2)
    mesh = build_domain(PeriodicStrip(2.0, (width / 2,)), 0.08)
    u0 = -0.5 * np.cos(math.pi * mesh.vertices[:, 1] / width)
    with pytest.raises(NonPositiveSolution):
        fem.solve_semilinear(*fem.assemble(mesh), mesh, fem.AllenCahn(), u0)


def test_newton_jacobian_matches_finite_differences(strip_mesh):
    f = fem.AllenCahn()
    k, m = fem.assemble(strip_mesh)
    interior = strip_mesh.interior_dofs()
    ki = k[interior][:, interior]
    mi = m[interior][:, interior]
    rng = np.random.default_rng(0)
    ui = 0.3 * np.abs(rng.normal(size=len(interior)))
    jac = mi @ sparse.diags(f.fprime(ui)) - ki
    worst = 0.0
    for _ in range(20):
        d = rng.normal(size=len(ui))
        d /= np.linalg.norm(d)
        eps = 1e-6
        rp = mi @ f.f(ui + eps * d) - ki @ (ui + eps * d)
        rm = mi @ f.f(ui - eps * d) - ki @ (ui - eps * d)
        fd = (rp - rm) / (2 * eps)
        worst = max(worst, float(np.linalg.norm(jac @ d - fd) / np.linalg.norm(fd)))
    assert worst <= 1e-6


# -- nonlinearity specs ------------------------------------------------------------


def test_nonlinearity_antiderivatives():
    lin = fem.Linear(3.0)
    assert lin.antiderivative(2.0) == pytest.approx(6.0)
    ac = fem.AllenCahn()
    assert ac.antiderivative(1.0) == pytest.approx(0.25)
    # tabulated approximation of f(u) = u on [0, 2]
    tab = fem.Tabulated(tuple(np.linspace(0, 2, 21)), tuple(np.linspace(0, 2, 21)), 1.0)
    u = np.linspace(0, 2, 17)
    assert np.allclose(tab.f(u), u, atol=1e-12)
    assert np.allclose(tab.antiderivative(u), u**2 / 2, atol=1e-12)
    assert np.allclose(tab.fprime(np.array([0.3, 1.7])), 1.0)


def test_tabulated_lipschitz_enforced():
    with pytest.raises(ValueError):
        fem.Tabulated((0.0, 1.0), (0.0, 5.0), 1.0)


# -- Neumann trace -----------------------------------------------------------------


def test_disk_trace_constant(disk_eigen_h02, disk_mesh_h02):
    ep = disk_eigen_h02
    tr = fem.neumann_trace(
        *fem.assemble(disk_mesh_h02), disk_mesh_h02, ep.u1, source=ep.lambda1 * ep.u1
    )
    w = disk_mesh_h02.boundary_lengths
    mean = float((tr.per_edge * w).sum() / w.sum())
    spread = math.sqrt(float((((tr.per_edge - mean) ** 2) * w).sum() / w.sum())) / abs(mean)
    assert spread <= 0.01
    # radial oracle: flux of the mass-normalized eigenfunction
    assert mean == pytest.approx(-analytic.j01() / math.sqrt(math.pi), rel=0.005)


def test_strip_trace_matches_alpha(strip_mesh):
    ss = analytic.strip_solution(1.0, -1.0)
    vals = ss.profile(strip_mesh.vertices[:, 1] + math.pi / 2)
    tr = fem.neumann_trace(*fem.assemble(strip_mesh), strip_mesh, vals, source=1.0 * vals)
    w = strip_mesh.boundary_lengths
    mean = float((tr.per_edge * w).sum() / w.sum())
    assert mean == pytest.approx(-1.0, rel=0.01)
    loop_means = [float(np.mean(tr.nodal[sl])) for sl in strip_mesh.boundary_loops]
    assert abs(loop_means[0] - loop_means[1]) <= 0.005 * abs(mean)


def test_trace_divergence_identity(disk_eigen_h02, disk_mesh_h02):
    ep = disk_eigen_h02
    k, m = fem.assemble(disk_mesh_h02)
    tr = fem.neumann_trace(k, m, disk_mesh_h02, ep.u1, source=ep.lambda1 * ep.u1)
    total_flux = float((tr.per_edge * disk_mesh_h02.boundary_lengths).sum())
    f_integral = float(
        np.ones(disk_mesh_h02.n_dofs)
        @ (m @ disk_mesh_h02.reduce(ep.lambda1 * ep.u1))
    )
    assert abs(total_flux + f_integral) <= 1e-8


# -- shape derivative ----------------------------------------------------------------


@pytest.fixture(scope="module")
def disk_trace_h05(disk_mesh_h05):
    k, m = fem.assemble(disk_mesh_h05)
    ep = fem.eigen_smallest(k, m, disk_mesh_h05)
    return k, m, ep, fem.neumann_trace(k, m, disk_mesh_h05, ep.u1, ep.lambda1 * ep.u1)


def test_shape_derivative_of_a_dilation(disk_mesh_h05, disk_trace_h05):
    # on (1 + s) D the eigenvalue scales as (1 + s)^-2, and so does the flux of
    # the mass-normalized eigenfunction; boundary lengths scale as (1 + s)
    k, m, ep, tr = disk_trace_h05
    velocity = disk_mesh_h05.vertices[None]
    dlam, dg, dw = fem.eigen_shape_derivative(k, m, disk_mesh_h05, ep, tr, velocity)
    assert abs(dlam[0] + 2 * ep.lambda1) <= 1e-12 * 2 * ep.lambda1
    assert np.max(np.abs(dg[0] + 2 * tr.nodal)) <= 1e-8
    assert np.max(np.abs(dw[0] - tr.lumped_weights)) <= 1e-14


def test_shape_derivative_of_rigid_motions(disk_mesh_h05, disk_trace_h05):
    k, m, ep, tr = disk_trace_h05
    x, y = disk_mesh_h05.vertices.T
    one, zero = np.ones_like(x), np.zeros_like(x)
    velocities = np.stack([np.column_stack(v) for v in ((one, zero), (zero, one), (-y, x))])
    dlam, dg, _ = fem.eigen_shape_derivative(k, m, disk_mesh_h05, ep, tr, velocities)
    assert np.all(np.abs(dlam) <= 1e-12 * ep.lambda1)
    assert np.max(np.abs(dg)) <= 1e-12 * np.max(np.abs(tr.nodal))


def test_strip_flux_jacobian_matches_central_differences():
    lam, resolution, n_modes, step = 1.0, 8, 3, 1e-4  # a (32, 16) cell
    z = np.array([math.pi / 2, 0.05, -0.01, 0.004, 2 * math.pi])  # c_0..c_3, then T

    cell = shapeopt.strip_cell(lam, 2 * math.pi, resolution, n_modes)
    a, h = shapeopt.strip_cell_spacing(lam, 2 * math.pi, resolution)
    assert strip_grid_counts(2 * math.pi, a, h) == (32, 16)

    def flux(zz):  # lambda1, mean flux, deviation modes, nodal trace
        sol, dev = cell.solve(zz)  # the cell moved through the basis, as in every branch residual
        return np.concatenate([[sol.eigen.lambda1, sol.report.alpha_hat], dev,
                               sol.report.trace.nodal])

    base, _ = cell.solve(z)
    dlam, dg, _ = fem.eigen_shape_derivative(base.k, base.m, base.mesh, base.eigen,
                                             base.report.trace, cell.basis)
    exact = np.vstack([dlam, cell.flux_jacobian(base, cell.basis), dg.T])
    for j, e in enumerate(np.eye(len(z))):
        central = (flux(z + step * e) - flux(z - step * e)) / (2 * step)
        assert np.max(np.abs(central - exact[:, j])) <= 1e-6, j


# -- reference: the derivative loop that re-derives every element formula per
# velocity and builds one boundary mass matrix per velocity ----------------------


def _ref_p1_coefficients(points, triangles):
    x, y = points[..., 0], points[..., 1]
    nxt, prv = triangles[:, [1, 2, 0]], triangles[:, [2, 0, 1]]
    b = y[..., nxt] - y[..., prv]  # y1 - y2, y2 - y0, y0 - y1
    c = x[..., prv] - x[..., nxt]  # x2 - x1, x0 - x2, x1 - x0
    return b, c


def _ref_eigen_shape_derivative(k, m, mesh, ep, tr, velocities):
    lam, n_vel = ep.lambda1, len(velocities)
    b, c, area = fem.p1_gradients(mesh)
    ue = ep.u1[mesh.triangles]
    bu, cu = (b * ue).sum(axis=1)[:, None], (c * ue).sum(axis=1)[:, None]
    four_area = (4.0 * area)[:, None]
    ku = (b * bu + c * cu) / four_area
    dof = mesh.dof_of_vertex[mesh.triangles].ravel()
    d_res, u_dm_u = np.empty((mesh.n_dofs, n_vel)), np.empty(n_vel)  # d(K - lambda M) u, u dM u
    for j, v in enumerate(velocities):
        db, dc = _ref_p1_coefficients(v, mesh.triangles)
        darea = 0.5 * (dc[:, 2] * b[:, 1] + c[:, 2] * db[:, 1]
                       - db[:, 2] * c[:, 1] - b[:, 2] * dc[:, 1])
        dbu, dcu = (db * ue).sum(axis=1)[:, None], (dc * ue).sum(axis=1)[:, None]
        dku = (db * bu + b * dbu + dc * cu + c * dcu) / four_area - ku * (darea / area)[:, None]
        dmu = (darea / 12.0)[:, None] * (ue + ue.sum(axis=1, keepdims=True))
        d_res[:, j] = np.bincount(dof, (dku - lam * dmu).ravel(), minlength=mesh.n_dofs)
        u_dm_u[j] = float(np.sum(ue * dmu))

    interior = mesh.interior_dofs()
    shifted = (k - lam * m).tocsr()
    mu = m @ mesh.reduce(ep.u1)
    col = sparse.csr_matrix(mu[interior][:, None])
    bordered = sparse.bmat([[shifted[interior][:, interior], -col], [col.T, None]], format="csc")
    rhs = np.vstack([-d_res[interior], -0.5 * u_dm_u])
    sol = splu(bordered, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    bd = mesh.dof_of_vertex[mesh.boundary_edges[:, 0]]
    d_rhs = d_res[bd] + shifted[bd][:, interior] @ sol[:-1] - np.outer(mu[bd], sol[-1])

    # M_b is linear in the edge lengths: dM_b is M_b built on their derivatives
    e0, e1 = mesh.boundary_edges.T
    dlen = np.einsum("ei,pei->pe", mesh.vertices[e1] - mesh.vertices[e0],
                     velocities[:, e1] - velocities[:, e0]) / mesh.boundary_lengths
    d_mb = [fem._boundary_mass(mesh, dl)[1] for dl in dlen]
    d_mb_g = np.column_stack([dm @ tr.nodal for dm in d_mb])
    mb = fem._boundary_mass(mesh, mesh.boundary_lengths)[1]
    d_weights = np.stack([dm @ np.ones(len(tr.nodal)) for dm in d_mb])  # M_b's row sums
    return sol[-1], splu(mb).solve(d_rhs - d_mb_g).T, d_weights


def _solved(mesh, tol=1e-10):
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh, tol)
    return k, m, mesh, ep, fem.neumann_trace(k, m, mesh, ep.u1, ep.lambda1 * ep.u1)


@pytest.fixture(scope="module")
def derivative_cases():
    """(K, M, mesh, eigenpair, trace) on a bulged (64, 32) strip cell, whose
    seam column duplicates vertices, and on a relaxed (2, 1) ellipse mesh."""
    cell = shapeopt.strip_cell(1.0, 2 * math.pi, 16, 10)
    a, h = shapeopt.strip_cell_spacing(1.0, 2 * math.pi, 16)
    assert strip_grid_counts(2 * math.pi, a, h) == (64, 32)
    z = np.zeros(12)
    z[[0, 1, 2, 3, -1]] = math.pi / 2, 0.05, -0.01, 0.004, 2 * math.pi
    sol, _ = cell.solve(z)
    return {"strip_cell": (sol.k, sol.m, sol.mesh, sol.eigen, sol.report.trace),
            "ellipse": _solved(build_domain(Ellipse(2.0, 1.0), 0.08))}


@pytest.mark.parametrize("case", ["strip_cell", "ellipse"])
@pytest.mark.parametrize("p", [1, 12])
def test_shape_derivative_matches_the_per_velocity_loop(derivative_cases, case, p):
    args = derivative_cases[case]
    velocities = np.random.default_rng(p).normal(size=(p, len(args[2].vertices), 2))
    for got, want in zip(fem.eigen_shape_derivative(*args, velocities),
                         _ref_eigen_shape_derivative(*args, velocities)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _lambda_gradient(mesh, ep):
    """u^T S: the residual blocks contracted with u, summed per vertex (nv, 2)."""
    blocks, _ = fem._residual_blocks(mesh, ep.u1, ep.lambda1)
    per = np.einsum("at,kajt->kjt", ep.u1[mesh.triangles.T], blocks)
    return np.column_stack([np.bincount(mesh.triangles.T.ravel(), per_k.ravel(),
                                        minlength=len(mesh.vertices)) for per_k in per])


def test_lambda_vertex_gradient():
    # u^T S V is d lambda where the eigen residual vanishes: solve to 1e-13
    k, m, mesh, ep, tr = _solved(build_domain(Ellipse(1.2, 1 / 1.2), 0.08), 1e-13)
    grad = _lambda_gradient(mesh, ep)
    velocities = np.random.default_rng(3).normal(size=(3, len(mesh.vertices), 2))
    dlam = fem.eigen_shape_derivative(k, m, mesh, ep, tr, velocities)[0]
    assert np.max(np.abs(np.tensordot(velocities, grad, 2) - dlam)) <= 1e-12 * np.max(np.abs(dlam))

    def lam_of(verts):
        moved = mesh_from_arrays(verts, mesh.triangles, quality_floor=None)
        k2, m2 = fem.assemble(moved)
        return fem.eigen_smallest(k2, m2, moved, tol=1e-12).lambda1

    step = 1e-6
    for v in velocities:
        central = (lam_of(mesh.vertices + step * v) - lam_of(mesh.vertices - step * v)) / (2 * step)
        assert abs(central - float(np.sum(grad * v))) <= 1e-6 * abs(central)


def test_field_csv_export(disk_mesh_h05):
    u = np.arange(len(disk_mesh_h05.vertices), dtype=float)
    csv = cli._field_csv(disk_mesh_h05, u)
    lines = csv.strip().split("\n")
    assert lines[0] == "vertex_index,x,y,value"
    assert len(lines) == len(disk_mesh_h05.vertices) + 1
    cols = lines[5].split(",")
    assert int(cols[0]) == 4
    assert float(cols[3]) == 4.0


def test_matrix_market_export():
    mesh = mesh_from_arrays(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    k, _ = fem.assemble(mesh)
    text = fem.export_matrix_market(k)
    lines = text.strip().split("\n")
    assert lines[0].startswith("%%MatrixMarket matrix coordinate real")
    n, m, nnz = map(int, lines[1].split())
    assert (n, m) == (3, 3)
    assert len(lines) == 2 + nnz
