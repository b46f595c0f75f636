"""Shape optimization toward constant-flux domains.

Two routes to extremality: a steepest-descent flow of the first Dirichlet
eigenvalue at fixed area (boundary vertices move along their normals with
velocity (du/dn)^2 minus its mean, which is the area-preserving descent
direction), and pseudo-arclength continuation of constant-flux periodic
strips in Fourier half-width space, starting from the straight strip at the
period where its flux linearization changes sign.
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
    step_size: float


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
    lambda1: float
    spread: float
    trace: fem.NeumannTrace
    mesh: Mesh  # its first len(pts) vertices are pts, the boundary
    k: object  # the mesh's stiffness matrix

    @cached_property
    def _interior_solve(self):
        n = len(self.pts)
        return splu(self.k[n:, n:].tocsc()).solve

    def moved_mesh(self, trial: np.ndarray) -> Mesh:
        """This mesh with its boundary at trial and its interior moved by the
        discrete harmonic extension K_II d_I = -K_IB d_B of the boundary step;
        MeshQualityFailure when that inverts a triangle or breaks the floor."""
        n = len(trial)
        d_int = self._interior_solve(self.k[n:, :n] @ (trial - self.mesh.vertices[:n]))
        return self.mesh.moved(np.vstack([trial, self.mesh.vertices[n:] - d_int]), 0.0)


def _evaluate(pts: np.ndarray, mesh: Mesh) -> _FlowEval:
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh)
    rep = overdet.overdet_residual(k, m, mesh, ep.u1, ep.lambda1 * ep.u1.values)
    return _FlowEval(pts, ep.lambda1, rep.rel_spread, rep.trace, mesh, k)


def flow_to_extremal(
    spec0: DomainSpec,
    h: float,
    max_steps: int,
    spread_tol: float = 1e-3,
    move_cap: float = 0.25,
    filter_modes: int = 32,
) -> FlowResult:
    """Evolve the boundary toward constant flux at fixed area.

    Explicit Euler steps on the polygon vertices with Fourier-filtered
    velocity; every trial step is rescaled to the initial area, moves the
    current mesh (`_FlowEval.moved_mesh`, remeshed only below the quality
    floor), and is accepted only if lambda1 does not increase.  Terminates on
    the spread tolerance, boundary stagnation, or max_steps.
    """
    spec0.validate()
    area0 = spec0.area()
    n = max(64, int(round(_perimeter(spec0) / h)))
    pts = _boundary_points(spec0, n)
    pts = _rescale(pts, area0)

    cur = _evaluate(pts, build_domain(_poly(pts), h))
    states = [_state(0, cur, 0.0)]
    reason, built, trials = "max_steps", 1, 0
    for step in range(1, max_steps + 1):
        if cur.spread < spread_tol:
            reason = "converged"
            break
        ids, vel = shape_derivative(cur.trace)
        v = np.empty(n)
        v[ids] = vel  # boundary vertex ids are the polygon indices
        v = _fourier_filter(v, filter_modes)
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
                    accepted = _evaluate(trial, mesh)
                except (MeshQualityFailure, InvalidSpec):
                    accepted = None  # the trial shape could not be meshed
                if accepted is not None and accepted.lambda1 <= cur.lambda1 * (1.0 + 1e-12):
                    break
            dt *= 0.5
        else:
            if tangled:
                raise MeshTangled("boundary self-intersected at every retried step size")
            if len(states) == 1:
                # nothing ever moved: genuine failure rather than a plateau
                raise StagnatedFlow(
                    f"no descent step accepted at step {step} (spread {cur.spread:.3e})"
                )
            reason = "stagnated"
            break
        cur = accepted
        states.append(_state(step, cur, dt))
    return FlowResult(states, reason, built, trials - (len(states) - 1))


def _poly(pts: np.ndarray) -> Polygon:
    return Polygon(tuple(map(tuple, pts)))


def _state(step: int, ev: _FlowEval, dt: float) -> FlowState:
    spec = _poly(ev.pts)
    return FlowState(step, spec, spec.area(), ev.lambda1, ev.spread, dt)


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


# -- bifurcation period of the straight strip -----------------------------------------


def _strip_cell(lam: float, T: float, nx: int, ny: int, n_modes: int):
    """The straight strip's cell at T, the basis (N + 2, nv, 2) that places its
    vertices at basis . (c_0..c_N, T), and the projection (top, modes) of the
    top wall's trace positions onto cos(2 pi k i / nx), k = 1..N, at column i."""
    cell = structured_strip(PeriodicStrip(T, (math.pi / (2.0 * math.sqrt(lam)),)), nx, ny)
    ids = cell.boundary_edges[np.concatenate(cell.boundary_loops), 0]  # the trace's walk order
    top = np.nonzero(ids % (ny + 1) == ny)[0]
    cols = ids[top] // (ny + 1) % nx  # the duplicate column is column 0
    cos = np.cos(2 * math.pi * np.outer(np.arange(1, n_modes + 1), cols) / nx)
    modes = 2.0 * (cos - cos.mean(axis=1, keepdims=True)) / len(top)
    return cell, _strip_velocities(nx, ny, n_modes), (top, modes)


def _strip_flux_modes(lam: float, mesh: Mesh, projection: tuple) -> dict:
    """Eigen-solve a period cell: the mean flux, the `_strip_cell` projection of
    the top wall's flux deviation, and the solve with its matrices and trace."""
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh, tol=1e-11, shift=0.98 * lam)
    rep = overdet.overdet_residual(k, m, mesh, ep.u1, ep.lambda1 * ep.u1.values)
    top, modes = projection
    return {
        "mean": rep.alpha_hat,
        "dev_coeffs": modes @ rep.trace.nodal[top],
        "lambda1": ep.lambda1,
        "spread": rep.rel_spread,
        "mesh": mesh,
        "eigen": ep,
        "matrices": (k, m),
        "trace": rep.trace,
        "modes": projection,
    }


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


def _strip_flux_jacobian(out: dict, velocities: np.ndarray) -> np.ndarray:
    """Exact derivatives of the mean flux and the deviation modes of
    `_strip_flux_modes` (rows) along each vertex velocity (columns)."""
    tr = out["trace"]
    _, dg, dw = fem.eigen_shape_derivative(*out["matrices"], out["mesh"], out["eigen"], tr,
                                           velocities)
    w, (top, modes) = tr.lumped_weights, out["modes"]
    d_mean = (dg @ w + dw @ tr.nodal - out["mean"] * dw.sum(axis=1)) / w.sum()
    return np.vstack([d_mean, modes @ dg[:, top].T])


def strip_counts(lam: float, T: float, resolution: int) -> tuple[int, int]:
    """Column and row counts (nx, ny) of the period cell's `structured_strip`."""
    return strip_grid_counts(T, *strip_cell_spacing(lam, T, resolution))


def strip_cell_spacing(lam: float, T: float, resolution: int) -> tuple[float, float]:
    """Straight strip half-width a and its cell's mesh spacing, given T and cells across a."""
    a = math.pi / (2.0 * math.sqrt(lam))
    return a, min(a / resolution, T / 8.0)


def bifurcation_mu(
    lam: float, T: float, resolution: int = 12, counts: tuple[int, int] | None = None,
    cell: tuple | None = None,
) -> float:
    """Linearized flux deviation per unit cos(2 pi x / T) wall perturbation.

    The exact derivative of the discrete first deviation mode in c_1 at the
    straight strip, from one eigen solve and one bordered solve, so the
    straight strip's own structured-mesh deviation does not enter.  The cell
    mesh has the given (nx, ny) counts, or counts sized from T and
    resolution when none are given.  Its vertices are placed at basis . (a, 0, T)
    on `cell`, a one-mode `_strip_cell` at those counts, built here if not given.
    """
    nx, ny = counts or strip_counts(lam, T, resolution)
    mesh, basis, projection = cell or _strip_cell(lam, T, nx, ny, 1)
    z = np.array([math.pi / (2.0 * math.sqrt(lam)), 0.0, T])
    base = _strip_flux_modes(lam, mesh.moved(np.tensordot(z, basis, 1), T), projection)
    return float(_strip_flux_jacobian(base, basis[1:2])[1, 0])


def bifurcation_period(lam: float, resolution: int = 16, rel_tol: float = 1e-6) -> float:
    """Period at which the straight strip's discrete flux linearization
    changes sign.

    The closed form (analytic.strip_flux_linearization) vanishes at
    2 pi / sqrt(lam); the FEM mu is bracketed at 0.99 and 1.01 times that
    period, on the mesh counts that continue_branch uses there, and its zero
    is found by a secant that bisects whenever a step would leave the
    bracket.  A bracket without a sign change is widened geometrically until
    it covers [0.1, 50] / sqrt(lam).
    """
    if lam <= 0:
        raise InvalidSpec("lambda must be positive")
    s = math.sqrt(lam)
    t_lin = 2.0 * math.pi / s
    counts = strip_counts(lam, t_lin, resolution)
    cell = _strip_cell(lam, t_lin, *counts, 1)

    def mu(t: float) -> float:
        return bifurcation_mu(lam, t, resolution, counts=counts, cell=cell)

    lo, hi = 0.99 * t_lin, 1.01 * t_lin
    flo, fhi = mu(lo), mu(hi)
    while flo * fhi > 0:
        if lo < 0.1 / s and hi > 50.0 / s:
            raise NoSignChange("no sign change of the flux linearization on [0.1, 50]/sqrt(lam)")
        lo, hi = 0.5 * lo, 2.0 * hi
        flo, fhi = mu(lo), mu(hi)
    if 0.0 in (flo, fhi):
        return lo if flo == 0.0 else hi
    x0, f0, x1, f1 = lo, flo, hi, fhi
    while hi - lo > rel_tol * 0.5 * (lo + hi):
        t = x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else lo
        if not lo < t < hi:  # the secant left the bracket (or is flat): bisect
            t = 0.5 * (lo + hi)
        ft = mu(t)
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


def _branch_residual(
    z: np.ndarray, lam: float, cell: Mesh, basis: np.ndarray, projection: tuple, area0: float
) -> tuple[np.ndarray, dict]:
    """Residual at z = (c_0..c_N, T, alpha) on the topology of a `_strip_cell`."""
    c, T, alpha = z[:-2], float(z[-2]), float(z[-1])
    if T <= 0 or c[0] <= 0:
        raise NewtonDiverged("left the parameter domain (T or c0 nonpositive)")
    out = _strip_flux_modes(lam, cell.moved(np.tensordot(z[:-1], basis, 1), T), projection)
    # mode 0 pins the flux level, modes 1..N of the deviation vanish, the area is fixed
    f = np.concatenate([[out["mean"] - alpha], out["dev_coeffs"], [2.0 * c[0] * T - area0]])
    return f, out


def _branch_newton(residual, jacobian, z: np.ndarray, tol: float = 1e-11, max_iter: int = 12):
    """Newton corrector from the predictor z back onto the branch, with the
    exact Jacobian `jacobian(z, out)` at every iterate of `residual(z)` ->
    (g, out); a step that does not lower |g| is halved up to eight times.
    Returns the point and its residual outputs."""
    g, out = residual(z)
    for _ in range(max_iter):
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


def continue_branch(
    lam: float,
    T0: float,
    s_max: float,
    ds: float,
    n_modes: int = 10,
    resolution: int = 16,
    spread_limit: float = 1e-6,
    decay_limit: float = 1e-8,
    max_points: int = 64,
) -> list[BranchPoint]:
    """Pseudo-arclength continuation of constant-flux periodic strips.

    Unknowns: half-width cosine coefficients c_0..c_N, the period, and the
    flux level; equations: the first N+1 cosine modes of the flux deviation
    vanish, the cell area stays fixed, plus the arclength constraint.  The
    branch parameter is s = c_1.  Accepted points must meet the spread and
    coefficient-decay limits.  The period cell is built once, at T0, and
    each residual places its vertices at basis . (c_0..c_N, T), so the
    corrector's Newton Jacobian is exact for the mesh it solves: its flux
    rows come from `_strip_flux_jacobian` along that basis, the rest are
    closed forms.
    """
    if n_modes < 8:
        raise InvalidSpec("Fourier truncation needs at least 8 modes")
    a = math.pi / (2.0 * math.sqrt(lam))
    area0 = 2.0 * a * T0
    cell, basis, projection = _strip_cell(lam, T0, *strip_counts(lam, T0, resolution), n_modes)
    t, al = n_modes + 1, n_modes + 2  # the period's and the flux level's index in z

    # both read the current step's z_prev, tangent and step when called
    def residual(zz: np.ndarray) -> tuple[np.ndarray, dict]:
        f, out = _branch_residual(zz, lam, cell, basis, projection, area0)
        return np.append(f, float(tangent @ (zz - z_prev)) - step), out

    def jacobian(zz: np.ndarray, out: dict) -> np.ndarray:
        jac = np.zeros((n_modes + 3, n_modes + 3))
        jac[:t, :al] = _strip_flux_jacobian(out, basis)
        jac[0, al] = -1.0  # flux level
        jac[t, 0], jac[t, t] = 2.0 * zz[t], 2.0 * zz[0]  # area 2 c_0 T
        jac[al] = tangent  # arclength
        return jac

    def point(z: np.ndarray, out: dict, converged: bool) -> BranchPoint:
        u = out["eigen"].u1
        return BranchPoint(
            period=float(z[t]), s=float(z[1]), coeffs=tuple(z[:t]), lam=lam,
            alpha_hat=float(z[al]), spread=out["spread"], max_u=float(u.values.max()),
            lambda1=out["lambda1"], converged=converged, mesh=out["mesh"], u=u,
        )

    # straight-strip start: alpha from the discrete solve so the mode-0
    # equation is satisfied exactly at s = 0
    base = _strip_flux_modes(lam, cell, projection)
    z = np.zeros(n_modes + 3)
    z[0] = a
    z[t] = T0
    z[al] = base["mean"]
    points = [point(z, base, True)]

    # the sign of ds picks the pitchfork side; arclength steps stay positive
    # and the (secant) tangent carries the direction from then on
    tangent = np.zeros(n_modes + 3)
    tangent[1] = math.copysign(1.0, ds)
    z_prev = z
    step = abs(ds)
    while len(points) < max_points and abs(float(z_prev[1])) < s_max:
        z_pred = z_prev + step * tangent
        try:
            z_new, out = _branch_newton(residual, jacobian, z_pred)
        except NewtonDiverged:
            step *= 0.5
            if abs(step) < 1e-4 * abs(ds):
                break
            continue
        c = z_new[: n_modes + 1]
        if abs(float(c[n_modes])) > decay_limit * max(abs(float(c[1])), 1e-300):
            raise TruncationInsufficient(
                f"|c_N| = {abs(float(c[n_modes])):.3e} vs |c_1| = {abs(float(c[1])):.3e}"
            )
        points.append(point(z_new, out, bool(out["spread"] <= spread_limit)))
        new_tan = z_new - z_prev
        norm = float(np.linalg.norm(new_tan))
        if norm > 0:
            tangent = new_tan / norm
        z_prev = z_new
    return points
