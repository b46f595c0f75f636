"""Shape optimization toward constant-flux domains.

Two routes to extremality: a steepest-descent flow of the first Dirichlet
eigenvalue at fixed area (boundary vertices move along their normals with
velocity (du/dn)^2 minus its mean, which is the area-preserving descent
direction), and pseudo-arclength continuation of constant-flux periodic
strips in Fourier half-width space, starting from the straight strip at the
period where its flux linearization changes sign.  Every solve is one
`overdet.eigen_flux`; the strip's come from one `StripCell`, which the
bifurcation-period search and the continuation share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import splu

from . import fem, overdet
from .errors import (
    InvalidSpec,
    MeshQualityFailure,
    MeshTangled,
    NewtonDiverged,
    NoSignChange,
    StagnatedFlow,
    TruncationInsufficient,
)
from .geom2d.domain import DomainSpec, PeriodicStrip, Polygon, _is_simple
from .geom2d.meshing import Mesh, build_domain, strip_grid_counts, structured_strip

# -- eigenvalue shape derivative ----------------------------------------------------


def shape_derivative(tr: fem.NeumannTrace) -> tuple[np.ndarray, np.ndarray]:
    """Steepest-descent normal velocity for lambda1 at fixed area.

    `tr` must be the Neumann trace of the mass-normalized eigenfunction u1
    with source lambda1 * u1, the same pair the eigen solve returned.
    Returns (vertex_ids, velocity): per boundary vertex, the squared flux
    minus its length-weighted mean, so the weighted mean of the output is
    zero (area preserved to first order).  Positive velocity moves the
    boundary outward.
    """
    q2 = tr.nodal**2
    weights = tr.lumped_weights
    mean = float((q2 * weights).sum() / weights.sum())
    return tr.vertex_ids, q2 - mean


# -- descent flow --------------------------------------------------------------------


@dataclass
class FlowState:
    step: int
    spec: Polygon
    area: float
    lambda1: float
    spread: float


@dataclass
class FlowResult:
    states: list[FlowState]
    reason: str
    meshes_built: int  # build_domain calls: the first shape's and the fallbacks
    trials_rejected: int

    @property
    def final(self) -> FlowState:
        return self.states[-1]


def _resample_closed(pts: np.ndarray, n: int) -> np.ndarray:
    closed = np.vstack([pts, pts[:1]])
    seg = np.hypot(*np.diff(closed, axis=0).T)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    t = s[-1] * np.arange(n) / n
    x = np.interp(t, s, closed[:, 0])
    y = np.interp(t, s, closed[:, 1])
    return np.column_stack([x, y])


def _polygon_area_centroid(pts: np.ndarray) -> tuple[float, np.ndarray]:
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(cross.sum())
    cx = float(((x + xn) * cross).sum() / (6.0 * area))
    cy = float(((y + yn) * cross).sum() / (6.0 * area))
    return area, np.array([cx, cy])


def _vertex_normals(pts: np.ndarray) -> np.ndarray:
    # CCW polygon: outward normal is the right-hand rotation of the tangent
    tang = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    tang /= np.hypot(tang[:, 0], tang[:, 1])[:, None]
    return np.column_stack([tang[:, 1], -tang[:, 0]])


def _fourier_filter(v: np.ndarray, max_mode: int) -> np.ndarray:
    spec = np.fft.rfft(v)
    spec[max_mode + 1 :] = 0.0
    return np.fft.irfft(spec, n=len(v))


def _boundary_points(spec: DomainSpec, n: int) -> np.ndarray:
    loops = spec.boundary_loops(_perimeter(spec) / (4 * n))
    if len(loops) != 1:
        raise InvalidSpec("the descent flow needs a single-loop domain")
    return _resample_closed(loops[0].points, n)


@dataclass
class _FlowEval:
    pts: np.ndarray
    sol: overdet.EigenFlux  # on a mesh whose first len(pts) vertices are pts, the boundary

    @cached_property
    def _interior_solve(self):
        n = len(self.pts)
        return splu(self.sol.k[n:, n:].tocsc()).solve

    def moved_mesh(self, trial: np.ndarray) -> Mesh:
        """This mesh with its boundary at trial and its interior moved by the
        discrete harmonic extension K_II d_I = -K_IB d_B of the boundary step;
        MeshQualityFailure when that inverts a triangle or breaks the floor."""
        n, mesh = len(trial), self.sol.mesh
        d_int = self._interior_solve(self.sol.k[n:, :n] @ (trial - mesh.vertices[:n]))
        return mesh.moved(np.vstack([trial, mesh.vertices[n:] - d_int]), 0.0)


def flow_to_extremal(
    spec0: DomainSpec,
    h: float,
    max_steps: int,
    spread_tol: float = 1e-3,
    move_cap: float = 0.25,
) -> FlowResult:
    """Evolve the boundary toward constant flux at fixed area.

    Explicit Euler steps on the polygon vertices with the velocity's Fourier
    modes above 32 filtered out; every trial step is rescaled to the initial
    area, moves the current mesh (`_FlowEval.moved_mesh`, remeshed only below
    the quality floor), and is accepted only if lambda1 does not increase.
    Terminates on the spread tolerance, boundary stagnation, or max_steps.
    """
    spec0.validate()
    area0 = spec0.area()
    n = max(64, int(round(_perimeter(spec0) / h)))
    pts = _boundary_points(spec0, n)
    pts = _rescale(pts, area0)

    cur = _FlowEval(pts, overdet.eigen_flux(build_domain(_poly(pts), h), 1e-10, 0.0))
    states = [_state(0, cur)]
    reason, built, trials = "max_steps", 1, 0
    for step in range(1, max_steps + 1):
        lam1, spread = cur.sol.eigen.lambda1, cur.sol.report.rel_spread
        if spread < spread_tol:
            reason = "converged"
            break
        ids, vel = shape_derivative(cur.sol.report.trace)
        v = np.empty(n)
        v[ids] = vel  # boundary vertex ids are the polygon indices
        v = _fourier_filter(v, 32)
        normals = _vertex_normals(cur.pts)
        vmax = float(np.max(np.abs(v)))
        if vmax == 0.0:
            reason = "converged"
            break
        dt = move_cap * h / vmax
        for _ in range(8):
            trials += 1
            trial = _rescale(_resample_closed(cur.pts + dt * v[:, None] * normals, n), area0)
            tangled = not _is_simple(trial)
            if not tangled:
                try:
                    try:
                        mesh = cur.moved_mesh(trial)
                    except MeshQualityFailure:  # the moved mesh broke the floor: remesh
                        built += 1
                        mesh = build_domain(_poly(trial), h)
                    accepted = _FlowEval(trial, overdet.eigen_flux(mesh, 1e-10, 0.0))
                except (MeshQualityFailure, InvalidSpec):
                    accepted = None  # the trial shape could not be meshed
                if accepted is not None and accepted.sol.eigen.lambda1 <= lam1 * (1.0 + 1e-12):
                    break
            dt *= 0.5
        else:
            if tangled:
                raise MeshTangled("boundary self-intersected at every retried step size")
            if len(states) == 1:
                # nothing ever moved: genuine failure rather than a plateau
                raise StagnatedFlow(
                    f"no descent step accepted at step {step} (spread {spread:.3e})"
                )
            reason = "stagnated"
            break
        cur = accepted
        states.append(_state(step, cur))
    return FlowResult(states, reason, built, trials - (len(states) - 1))


def _poly(pts: np.ndarray) -> Polygon:
    return Polygon(tuple(map(tuple, pts)))


def _state(step: int, ev: _FlowEval) -> FlowState:
    spec = _poly(ev.pts)
    return FlowState(step, spec, spec.area(), ev.sol.eigen.lambda1, ev.sol.report.rel_spread)


def _rescale(pts: np.ndarray, target_area: float) -> np.ndarray:
    area, cent = _polygon_area_centroid(pts)
    return cent + (pts - cent) * math.sqrt(target_area / area)


def _perimeter(spec: DomainSpec) -> float:
    loops = spec.boundary_loops(spec.characteristic_size() / 64)
    total = 0.0
    for lp in loops:
        closed = np.vstack([lp.points, lp.points[:1]])
        total += float(np.hypot(*np.diff(closed, axis=0).T).sum())
    return total


# -- the strip's period cell ----------------------------------------------------------


@dataclass
class StripCell:
    """One straight-strip `structured_strip` at lam whose vertices every strip
    solve moves: `basis` (N + 2, nv, 2) places them at basis . (c_0..c_N, T),
    and `modes` projects the trace values at the top wall's trace positions
    `top` onto cos(2 pi k i / nx), k = 1..N, at grid column i."""

    lam: float
    mesh: Mesh
    basis: np.ndarray
    top: np.ndarray
    modes: np.ndarray

    @property
    def half_width(self) -> float:  # of the straight strip, pi / (2 sqrt(lam))
        return math.pi / (2.0 * math.sqrt(self.lam))

    def solve(self, z: np.ndarray) -> tuple[overdet.EigenFlux, np.ndarray]:
        """Eigen-solve the cell moved to basis . z, z = (c_0..c_N, T): the solve
        and the projection of its top wall flux on the deviation modes."""
        mesh = self.mesh.moved(np.tensordot(z, self.basis, 1), float(z[-1]))
        sol = overdet.eigen_flux(mesh, 1e-11, 0.98 * self.lam)
        return sol, self.modes @ sol.report.trace.nodal[self.top]

    def flux_jacobian(self, sol: overdet.EigenFlux, velocities: np.ndarray) -> np.ndarray:
        """Exact derivatives of the mean flux and the deviation modes of a
        `solve` (rows) along each vertex velocity (columns)."""
        tr = sol.report.trace
        _, dg, dw = fem.eigen_shape_derivative(sol.k, sol.m, sol.mesh, sol.eigen, tr, velocities)
        w = tr.lumped_weights
        d_mean = (dg @ w + dw @ tr.nodal - sol.report.alpha_hat * dw.sum(axis=1)) / w.sum()
        return np.vstack([d_mean, self.modes @ dg[:, self.top].T])


def strip_cell(lam: float, T: float, resolution: int, n_modes: int) -> StripCell:
    """The straight strip's period cell at T, meshed at `strip_counts`, with
    the basis and the deviation modes of c_0..c_N for N = n_modes."""
    if lam <= 0:
        raise InvalidSpec("lambda must be positive")
    a, h = strip_cell_spacing(lam, T, resolution)
    nx, ny = strip_grid_counts(T, a, h)
    mesh = structured_strip(PeriodicStrip(T, (a,)), nx, ny)
    ids = mesh.boundary_edges[:, 0]  # the trace's vertices
    top = np.nonzero(ids % (ny + 1) == ny)[0]
    cols = ids[top] // (ny + 1) % nx  # the duplicate column is column 0
    cos = np.cos(2 * math.pi * np.outer(np.arange(1, n_modes + 1), cols) / nx)
    modes = 2.0 * (cos - cos.mean(axis=1, keepdims=True)) / len(top)
    return StripCell(lam, mesh, _strip_velocities(nx, ny, n_modes), top, modes)


def _strip_velocities(nx: int, ny: int, n_modes: int) -> np.ndarray:
    """Vertex basis (N + 2, nv, 2) of structured_strip(nx, ny): grid vertex (i, j)
    sits at sum_k c_k (0, eta_j cos(2 pi k i / nx)) + T (i / nx, 0), so the basis
    is also the vertex velocities of (c_0..c_N, T); quad centres average corners."""
    i, p = np.arange(nx + 1), n_modes + 2
    cos = np.cos(2 * math.pi * np.outer(np.arange(n_modes + 1), i % nx) / nx)
    grid = np.zeros((p, nx + 1, ny + 1, 2))
    grid[:-1, :, :, 1] = cos[:, :, None] * (-1.0 + 2.0 * np.arange(ny + 1) / ny)
    grid[-1, :, :, 0] = (i / nx)[:, None]
    centres = 0.25 * (grid[:, :-1, :-1] + grid[:, 1:, :-1] + grid[:, 1:, 1:] + grid[:, :-1, 1:])
    return np.concatenate([grid.reshape(p, -1, 2), centres.reshape(p, -1, 2)], axis=1)


def strip_counts(lam: float, T: float, resolution: int) -> tuple[int, int]:
    """Column and row counts (nx, ny) of the period cell's `structured_strip`."""
    return strip_grid_counts(T, *strip_cell_spacing(lam, T, resolution))


def strip_cell_spacing(lam: float, T: float, resolution: int) -> tuple[float, float]:
    """Straight strip half-width a and its cell's mesh spacing, given T and cells across a."""
    a = math.pi / (2.0 * math.sqrt(lam))
    return a, min(a / resolution, T / 8.0)


# -- bifurcation period of the straight strip -----------------------------------------


def bifurcation_mu(cell: StripCell, T: float) -> float:
    """Linearized flux deviation per unit cos(2 pi x / T) wall perturbation.

    The exact derivative of the discrete first deviation mode in c_1 at the
    straight strip, from one eigen solve and one bordered solve, so the
    straight strip's own structured-mesh deviation does not enter.  The cell
    is moved to the straight strip at T, basis . (a, 0, .., 0, T); only the
    basis rows of c_0, c_1 and T enter, so every n_modes gives the same mu.
    """
    z = np.zeros(len(cell.basis))
    z[0], z[-1] = cell.half_width, T
    sol, _ = cell.solve(z)
    return float(cell.flux_jacobian(sol, cell.basis[1:2])[1, 0])


def bifurcation_period(cell: StripCell) -> float:
    """Period at which the straight strip's discrete flux linearization
    changes sign, on the period cell that continue_branch then uses.

    The closed form (analytic.strip_flux_linearization) vanishes at
    2 pi / sqrt(lam); the FEM mu is bracketed at 0.99 and 1.01 times that
    period, and its zero is found to 1e-6 relative by a secant that bisects
    whenever a step would leave the bracket.  A bracket without a sign
    change is widened geometrically until it covers [0.1, 50] / sqrt(lam).
    """
    s, rel_tol = math.sqrt(cell.lam), 1e-6
    t_lin = 2.0 * math.pi / s
    lo, hi = 0.99 * t_lin, 1.01 * t_lin
    flo, fhi = bifurcation_mu(cell, lo), bifurcation_mu(cell, hi)
    while flo * fhi > 0:
        if lo < 0.1 / s and hi > 50.0 / s:
            raise NoSignChange("no sign change of the flux linearization on [0.1, 50]/sqrt(lam)")
        lo, hi = 0.5 * lo, 2.0 * hi
        flo, fhi = bifurcation_mu(cell, lo), bifurcation_mu(cell, hi)
    if 0.0 in (flo, fhi):
        return lo if flo == 0.0 else hi
    x0, f0, x1, f1 = lo, flo, hi, fhi
    while hi - lo > rel_tol * 0.5 * (lo + hi):
        t = x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else lo
        if not lo < t < hi:  # the secant left the bracket (or is flat): bisect
            t = 0.5 * (lo + hi)
        ft = bifurcation_mu(cell, t)
        if ft == 0.0 or abs(t - x1) <= rel_tol * t:
            return t
        if flo * ft < 0:
            hi = t
        else:
            lo, flo = t, ft
        x0, f0, x1, f1 = x1, f1, t, ft
    return 0.5 * (lo + hi)


# -- branch continuation ----------------------------------------------------------------


@dataclass
class BranchPoint:
    """One accepted point on the constant-flux periodic-strip branch."""

    period: float
    s: float
    coeffs: tuple[float, ...]
    lam: float
    alpha_hat: float
    spread: float
    max_u: float
    lambda1: float
    converged: bool
    mesh: Mesh = field(repr=False, default=None)
    u: fem.ScalarField = field(repr=False, default=None)


def _branch_newton(residual, jacobian, z: np.ndarray):
    """Newton corrector from the predictor z back onto the branch, with the
    exact Jacobian `jacobian(z, out)` at every iterate of `residual(z)` ->
    (g, out); a step that does not lower |g| is halved up to eight times.
    Stops at max |g| <= 1e-11, or after 12 iterations at 100 times that.
    Returns the point and its residual outputs."""
    tol = 1e-11
    g, out = residual(z)
    for _ in range(12):
        if float(np.max(np.abs(g))) <= tol:
            return z, out
        try:
            delta = np.linalg.solve(jacobian(z, out), -g)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular continuation Jacobian: {exc}") from exc
        base = float(np.linalg.norm(g))
        for _ in range(8):
            g_new, out_new = residual(z + delta)
            if float(np.linalg.norm(g_new)) < base:
                break
            delta = 0.5 * delta
        else:
            raise NewtonDiverged("continuation line search failed")
        z, g, out = z + delta, g_new, out_new
    if float(np.max(np.abs(g))) <= 100 * tol:
        return z, out
    raise NewtonDiverged(f"corrector stalled at |g| = {float(np.max(np.abs(g))):.3e}")


def continue_branch(cell: StripCell, T0: float, s_max: float, ds: float) -> list[BranchPoint]:
    """Pseudo-arclength continuation of constant-flux periodic strips.

    Unknowns: half-width cosine coefficients c_0..c_N, the period, and the
    flux level; equations: the first N+1 cosine modes of the flux deviation
    vanish, the cell area stays fixed, plus the arclength constraint.  The
    branch parameter is s = c_1, and N is the cell's n_modes (at least 8).
    Accepted points have a flux spread of at most 1e-6; a corrector that
    lands back on the straight strip (|c_1| <= 1e-6 |ds|) raises NoSignChange,
    and then |c_N| above 1e-8 |c_1| raises TruncationInsufficient; the branch
    stops at 64 points.  Every residual, the straight-strip start at T0
    included, is a `cell.solve` at basis . (c_0..c_N, T), so the corrector's
    Newton Jacobian is exact for the mesh it solves: its flux rows come from
    `cell.flux_jacobian` along that basis, the rest are closed forms.
    """
    n_modes = len(cell.basis) - 2
    if n_modes < 8:
        raise InvalidSpec("Fourier truncation needs at least 8 modes")
    t, al = n_modes + 1, n_modes + 2  # the period's and the flux level's index in z
    area0 = 2.0 * cell.half_width * T0

    # both read the current step's z_prev, tangent and step when called
    def residual(zz: np.ndarray) -> tuple[np.ndarray, overdet.EigenFlux]:
        if zz[t] <= 0 or zz[0] <= 0:
            raise NewtonDiverged("left the parameter domain (T or c0 nonpositive)")
        sol, dev = cell.solve(zz[:al])
        # mode 0 pins the flux level, modes 1..N of the deviation vanish, the area
        # is fixed, and the step is one arclength along the tangent
        area, arc = 2.0 * zz[0] * zz[t] - area0, float(tangent @ (zz - z_prev)) - step
        return np.concatenate([[sol.report.alpha_hat - zz[al]], dev, [area, arc]]), sol

    def jacobian(zz: np.ndarray, sol: overdet.EigenFlux) -> np.ndarray:
        jac = np.zeros((n_modes + 3, n_modes + 3))
        jac[:t, :al] = cell.flux_jacobian(sol, cell.basis)
        jac[0, al] = -1.0  # flux level
        jac[t, 0], jac[t, t] = 2.0 * zz[t], 2.0 * zz[0]  # area 2 c_0 T
        jac[al] = tangent  # arclength
        return jac

    def point(z: np.ndarray, sol: overdet.EigenFlux, converged: bool) -> BranchPoint:
        u = sol.eigen.u1
        return BranchPoint(
            period=float(z[t]), s=float(z[1]), coeffs=tuple(z[:t]), lam=cell.lam,
            alpha_hat=float(z[al]), spread=sol.report.rel_spread, max_u=float(u.values.max()),
            lambda1=sol.eigen.lambda1, converged=converged, mesh=sol.mesh, u=u,
        )

    # straight-strip start: alpha from the discrete solve so the mode-0
    # equation is satisfied exactly at s = 0
    z = np.zeros(n_modes + 3)
    z[0], z[t] = cell.half_width, T0
    base, _ = cell.solve(z[:al])
    z[al] = base.report.alpha_hat
    points = [point(z, base, True)]

    # the sign of ds picks the pitchfork side; arclength steps stay positive
    # and the (secant) tangent carries the direction from then on
    tangent = np.zeros(n_modes + 3)
    tangent[1] = math.copysign(1.0, ds)
    z_prev = z
    step = abs(ds)
    while len(points) < 64 and abs(float(z_prev[1])) < s_max:
        z_pred = z_prev + step * tangent
        try:
            z_new, sol = _branch_newton(residual, jacobian, z_pred)
        except NewtonDiverged:
            step *= 0.5
            if abs(step) < 1e-4 * abs(ds):
                break
            continue
        c = z_new[: n_modes + 1]
        # points on the branch keep |c_1| above about 1e-4 |ds|
        if abs(float(c[1])) <= 1e-6 * abs(ds):
            raise NoSignChange(
                f"the corrector returned to the straight strip (c_1 = {float(c[1]):.1e}), "
                f"so no branch leaves T0 = {T0}"
            )
        if abs(float(c[n_modes])) > 1e-8 * max(abs(float(c[1])), 1e-300):
            raise TruncationInsufficient(
                f"|c_N| = {abs(float(c[n_modes])):.3e} vs |c_1| = {abs(float(c[1])):.3e}"
            )
        points.append(point(z_new, sol, bool(sol.report.rel_spread <= 1e-6)))
        new_tan = z_new - z_prev
        norm = float(np.linalg.norm(new_tan))
        if norm > 0:
            tangent = new_tan / norm
        z_prev = z_new
    return points
