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

import numpy as np

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
from .geom2d.meshing import Mesh, build_domain, structured_strip

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


def _evaluate(pts: np.ndarray, h: float) -> _FlowEval:
    mesh = build_domain(_poly(pts), h)
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh)
    rep = overdet.overdet_residual(k, m, mesh, ep.u1, ep.lambda1 * ep.u1.values)
    return _FlowEval(pts=pts, lambda1=ep.lambda1, spread=rep.rel_spread, trace=rep.trace)


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
    velocity; every trial step is remeshed, rescaled to the initial area, and
    accepted only if lambda1 does not increase.  Terminates on the spread
    tolerance, boundary stagnation, or max_steps.
    """
    spec0.validate()
    area0 = spec0.area()
    n = max(64, int(round(_perimeter(spec0) / h)))
    pts = _boundary_points(spec0, n)
    pts = _rescale(pts, area0)

    cur = _evaluate(pts, h)
    states = [_state(0, cur, 0.0)]
    reason = "max_steps"
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
        accepted = None
        for _ in range(8):
            trial = cur.pts + dt * v[:, None] * normals
            trial = _resample_closed(trial, n)
            trial = _rescale(trial, area0)
            if not _is_simple(trial):
                raise_tangled = True
            else:
                raise_tangled = False
                try:
                    cand = _evaluate(trial, h)
                except (MeshQualityFailure, InvalidSpec):
                    dt *= 0.5
                    continue
                if cand.lambda1 <= cur.lambda1 * (1.0 + 1e-12):
                    accepted = cand
                    break
            dt *= 0.5
        else:
            if raise_tangled:
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
    return FlowResult(states=states, reason=reason)


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


def _strip_flux_modes(
    lam: float, T: float, coeffs: tuple[float, ...], nx: int, ny: int, n_modes: int
) -> dict:
    """Eigen-solve one period cell and project the wall flux onto cosines.

    Returns the mean flux, the first cosine coefficients of its deviation
    along the top wall, and solve diagnostics.
    """
    spec = PeriodicStrip(T, coeffs)
    mesh = structured_strip(spec, nx, ny)
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh, tol=1e-11, shift=0.98 * lam)
    rep = overdet.overdet_residual(k, m, mesh, ep.u1, ep.lambda1 * ep.u1.values)
    tr = rep.trace

    # top wall nodal flux on the uniform column grid
    ids = tr.vertex_ids
    ys = mesh.vertices[ids, 1]
    top = ys > 0
    xs = mesh.vertices[ids[top], 0]
    g = tr.nodal[top]
    order = np.argsort(xs)
    xs, g = xs[order], g[order]
    dev = g - g.mean()
    coeffs_out = np.array(
        [2.0 * float(np.mean(dev * np.cos(2 * math.pi * k_ * xs / T))) for k_ in range(1, n_modes + 1)]
    )
    return {
        "mean": rep.alpha_hat,
        "dev_coeffs": coeffs_out,
        "lambda1": ep.lambda1,
        "spread": rep.rel_spread,
        "mesh": mesh,
        "eigen": ep,
    }


def _strip_counts(lam: float, T: float, resolution: int) -> tuple[int, int]:
    a = math.pi / (2.0 * math.sqrt(lam))
    hy = a / resolution
    h = min(hy, T / 8.0)
    nx = max(8, int(round(T / h)))
    ny = 2 * max(2, int(round(a / h)))
    return nx, ny


def bifurcation_mu(
    lam: float,
    T: float,
    resolution: int = 12,
    eps_rel: float = 1e-5,
    counts: tuple[int, int] | None = None,
) -> float:
    """Linearized flux deviation per unit cos(2 pi x / T) wall perturbation.

    Finite difference of the Dirichlet eigen-solve at relative amplitudes
    eps_rel and 2*eps_rel, Richardson-extrapolated.  The straight strip's own
    deviation is subtracted, so structured-mesh discretization error cancels.
    The cell mesh has the given (nx, ny) counts, or counts sized from T and
    resolution when none are given.
    """
    a = math.pi / (2.0 * math.sqrt(lam))
    nx, ny = counts or _strip_counts(lam, T, resolution)
    base = _strip_flux_modes(lam, T, (a,), nx, ny, 1)
    eps = eps_rel * a
    c1 = _strip_flux_modes(lam, T, (a, eps), nx, ny, 1)["dev_coeffs"][0]
    c2 = _strip_flux_modes(lam, T, (a, 2 * eps), nx, ny, 1)["dev_coeffs"][0]
    c0 = base["dev_coeffs"][0]
    mu1 = (c1 - c0) / eps
    mu2 = (c2 - c0) / (2 * eps)
    return float(2.0 * mu1 - mu2)


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
    counts = _strip_counts(lam, t_lin, resolution)

    def mu(t: float) -> float:
        return bifurcation_mu(lam, t, resolution, counts=counts)

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
    z: np.ndarray, lam: float, n_modes: int, nx: int, ny: int, area0: float
) -> tuple[np.ndarray, dict]:
    c = tuple(z[: n_modes + 1])
    T = float(z[n_modes + 1])
    alpha = float(z[n_modes + 2])
    if T <= 0 or c[0] <= 0:
        raise NewtonDiverged("left the parameter domain (T or c0 nonpositive)")
    out = _strip_flux_modes(lam, T, c, nx, ny, n_modes)
    f = np.empty(n_modes + 2)
    f[0] = out["mean"] - alpha  # mode 0 pins the flux level
    f[1 : n_modes + 1] = out["dev_coeffs"]  # modes 1..N of the deviation vanish
    f[n_modes + 1] = 2.0 * c[0] * T - area0
    return f, out


def _pin_known(jac: np.ndarray, z: np.ndarray, tangent: np.ndarray, n_modes: int) -> np.ndarray:
    """Set the exactly known entries of the continuation Jacobian at z, in
    place: the flux-level column (-1 in the mode-0 row), the area row (2T at
    c_0, 2c_0 at T) and the arclength row (the tangent)."""
    t, a = n_modes + 1, n_modes + 2
    jac[:, a] = 0.0
    jac[0, a] = -1.0
    jac[t] = 0.0
    jac[t, 0] = 2.0 * z[t]
    jac[t, t] = 2.0 * z[0]
    jac[a] = tangent
    return jac


def _branch_jacobian(
    z: np.ndarray,
    f: np.ndarray,
    tangent: np.ndarray,
    lam: float,
    n_modes: int,
    nx: int,
    ny: int,
    area0: float,
) -> np.ndarray:
    """Continuation Jacobian at z, whose flux rows are f[:N+1]: forward
    differences of the flux rows in the c_0..c_N and T columns, closed forms
    everywhere else."""
    m = n_modes + 3
    jac = np.empty((m, m))
    for j in range(m - 1):
        step = 1e-7 * max(1.0, abs(float(z[j])))
        zp = z.copy()
        zp[j] += step
        fp, _ = _branch_residual(zp, lam, n_modes, nx, ny, area0)
        jac[: n_modes + 1, j] = (fp[: n_modes + 1] - f[: n_modes + 1]) / step
    return _pin_known(jac, z, tangent, n_modes)


def _branch_newton(
    z_pred: np.ndarray,
    z_prev: np.ndarray,
    tangent: np.ndarray,
    ds: float,
    lam: float,
    n_modes: int,
    nx: int,
    ny: int,
    area0: float,
    jac: np.ndarray | None,
    tol: float = 1e-11,
    max_iter: int = 12,
) -> tuple[np.ndarray, dict, np.ndarray]:
    """Broyden corrector from z_pred back onto the branch.

    `jac` is the Jacobian carried from the previous step (None before the
    first).  Each iteration tries its full step; when there is no Jacobian,
    the solve is singular or the step does not lower |g|, the Jacobian is
    rebuilt by forward differences and the step is halved until |g| falls.
    Every accepted step applies a good Broyden update.  Returns the point,
    its residual outputs and the Jacobian to carry on.
    """
    z = z_pred.copy()
    m = n_modes + 3

    def full_residual(zz):
        f, out = _branch_residual(zz, lam, n_modes, nx, ny, area0)
        g = np.empty(m)
        g[: m - 1] = f
        g[m - 1] = float(tangent @ (zz - z_prev)) - ds
        return g, out

    g, out = full_residual(z)
    if jac is not None:
        jac = _pin_known(jac.copy(), z, tangent, n_modes)
    for _ in range(max_iter):
        if float(np.max(np.abs(g))) <= tol:
            return z, out, jac
        base = float(np.linalg.norm(g))
        g_new = None
        if jac is not None:
            try:
                delta = np.linalg.solve(jac, -g)
                g_new, out_new = full_residual(z + delta)
            except (np.linalg.LinAlgError, NewtonDiverged):
                pass
        if g_new is None or float(np.linalg.norm(g_new)) >= base:
            jac = _branch_jacobian(z, g, tangent, lam, n_modes, nx, ny, area0)
            try:
                delta = np.linalg.solve(jac, -g)
            except np.linalg.LinAlgError as exc:
                raise NewtonDiverged(f"singular continuation Jacobian: {exc}") from exc
            for _ in range(8):
                g_new, out_new = full_residual(z + delta)
                if float(np.linalg.norm(g_new)) < base:
                    break
                delta = 0.5 * delta
            else:
                raise NewtonDiverged("continuation line search failed")
        z = z + delta
        jac += np.outer((g_new - g) - jac @ delta, delta / float(delta @ delta))
        jac = _pin_known(jac, z, tangent, n_modes)
        g, out = g_new, out_new
    if float(np.max(np.abs(g))) <= 100 * tol:
        return z, out, jac
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
    coefficient-decay limits.

    One Jacobian serves the whole branch: built by forward differences at
    the first corrector iterate, carried from step to step with a good
    Broyden update after every accepted corrector step, and rebuilt only on
    a stall (see _branch_newton).
    """
    if n_modes < 8:
        raise InvalidSpec("Fourier truncation needs at least 8 modes")
    a = math.pi / (2.0 * math.sqrt(lam))
    nx, ny = _strip_counts(lam, T0, resolution)
    area0 = 2.0 * a * T0

    # straight-strip start: alpha from the discrete solve so the mode-0
    # equation is satisfied exactly at s = 0
    base = _strip_flux_modes(lam, T0, (a,), nx, ny, n_modes)
    z = np.zeros(n_modes + 3)
    z[0] = a
    z[n_modes + 1] = T0
    z[n_modes + 2] = base["mean"]

    points = [
        BranchPoint(
            period=T0,
            s=0.0,
            coeffs=tuple(z[: n_modes + 1]),
            lam=lam,
            alpha_hat=base["mean"],
            spread=base["spread"],
            max_u=float(base["eigen"].u1.values.max()),
            lambda1=base["lambda1"],
            converged=True,
            mesh=base["mesh"],
            u=base["eigen"].u1,
        )
    ]

    # the sign of ds picks the pitchfork side; arclength steps stay positive
    # and the (secant) tangent carries the direction from then on
    tangent = np.zeros(n_modes + 3)
    tangent[1] = math.copysign(1.0, ds)
    z_prev = z
    step = abs(ds)
    jac = None
    while len(points) < max_points and abs(float(z_prev[1])) < s_max:
        z_pred = z_prev + step * tangent
        try:
            z_new, out, jac = _branch_newton(
                z_pred, z_prev, tangent, step, lam, n_modes, nx, ny, area0, jac
            )
        except NewtonDiverged:
            step *= 0.5
            if abs(step) < 1e-4 * abs(ds):
                break
            continue
        spread = out["spread"]
        c = z_new[: n_modes + 1]
        if abs(float(c[n_modes])) > decay_limit * max(abs(float(c[1])), 1e-300):
            raise TruncationInsufficient(
                f"|c_N| = {abs(float(c[n_modes])):.3e} vs |c_1| = {abs(float(c[1])):.3e}"
            )
        points.append(
            BranchPoint(
                period=float(z_new[n_modes + 1]),
                s=float(z_new[1]),
                coeffs=tuple(c),
                lam=lam,
                alpha_hat=float(z_new[n_modes + 2]),
                spread=spread,
                max_u=float(out["eigen"].u1.values.max()),
                lambda1=out["lambda1"],
                converged=bool(spread <= spread_limit),
                mesh=out["mesh"],
                u=out["eigen"].u1,
            )
        )
        new_tan = z_new - z_prev
        norm = float(np.linalg.norm(new_tan))
        if norm > 0:
            tangent = new_tan / norm
        z_prev = z_new
    return points
