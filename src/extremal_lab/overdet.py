"""Verifiers for the constant-Neumann property and the quantitative domain
criteria tied to it.

``overdet_residual`` measures how far a computed solution is from having
constant boundary flux, and ``eigen_flux`` is the one assemble -> eigen solve
-> trace path that the CLI, the descent flow and the strip share.  Solutions
and the P-function are plain arrays of nodal values, one per mesh vertex.
``p_function`` evaluates P = |grad u|^2 + 2 F(u),
the convexity-criterion comparison 2 max F(u) vs alpha^2, and the boundary
second-derivative/curvature identity, all from ``patch_recover``: a
least-squares quadratic fitted to the nodal values over each vertex's patch
(its 1-ring, or its 2-ring on the boundary and where the 1-ring has fewer
than 7 vertices), whose linear and quadratic coefficients are the recovered
gradient and Hessian.
The ``check_*`` routines return TheoremCheck records for the inscribed-ball
exclusion, superlevel-set diameter, cap-height, and complement-convexity
statements; each record's ``details`` reach ``checks.json``.  The cap-height
record (L3R) counts its bounded caps, and among them those that are a graph
over their chord and those whose reflection across the line stays in the
domain: the two hypotheses of Alexandrov's reflection argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from . import fem
from .analytic import ball_solution, r_lambda
from .errors import NonNegativeAlpha, ZeroBoundary
from .geom2d.boundary import boundary_geometry
from .geom2d.domain import DomainSpec
from .geom2d.meshing import Mesh
from .geom2d.predicates import (
    Line,
    cap_reflect,
    clip_slots,
    component_diameter,
    inscribed_ball,
    min_enclosing_circle,
    superlevel_triangle_components,
)

# -- Neumann residual -------------------------------------------------------------


@dataclass
class OverdetReport:
    """Length-weighted statistics of the boundary flux."""

    alpha_hat: float
    rel_spread: float
    max_abs_deviation: float
    loop_means: list[float]
    trace: fem.NeumannTrace

    def to_json(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "rel_spread": self.rel_spread,
            "max_abs_deviation": self.max_abs_deviation,
            "loop_means": self.loop_means,
        }

    def scaled(self, c: float) -> "OverdetReport":
        """The report of c u with source c f: the trace is linear in (u, source)."""
        tr = replace(self.trace, nodal=c * self.trace.nodal, per_edge=c * self.trace.per_edge)
        return OverdetReport(c * self.alpha_hat, self.rel_spread, abs(c) * self.max_abs_deviation,
                             [c * x for x in self.loop_means], tr)


def overdet_residual(
    k: sparse.csr_matrix,
    m: sparse.csr_matrix,
    mesh: Mesh,
    u: np.ndarray,
    source: np.ndarray,
) -> OverdetReport:
    """Flux statistics for a per-vertex Dirichlet solution `u` with reaction
    values `source` (f(u) per vertex), traced on the mesh's assembled
    matrices `k` and `m`.  The report keeps the trace for later consumers."""
    tr = fem.neumann_trace(k, m, mesh, u, source)
    w = mesh.boundary_lengths
    total = float(w.sum())
    mean = float((tr.per_edge * w).sum() / total)
    if abs(mean) < 1e-13 * (1.0 + float(np.max(np.abs(u)))):
        raise ZeroBoundary("boundary flux is identically zero")
    spread = math.sqrt(float((((tr.per_edge - mean) ** 2) * w).sum() / total)) / abs(mean)
    max_dev = float(np.max(np.abs(tr.per_edge - mean)))
    loop_means = []
    for loop in mesh.boundary_loops:
        lw, le = w[loop], tr.per_edge[loop]
        loop_means.append(float((le * lw).sum() / lw.sum()))
    return OverdetReport(
        alpha_hat=mean,
        rel_spread=spread,
        max_abs_deviation=max_dev,
        loop_means=loop_means,
        trace=tr,
    )


@dataclass
class EigenFlux:
    """One eigen solve on a mesh: its assembled K and M, the first Dirichlet
    eigenpair, and the flux report of u1 with source lambda1 * u1."""

    mesh: Mesh
    k: sparse.csr_matrix
    m: sparse.csr_matrix
    eigen: fem.EigenPair
    report: OverdetReport


def eigen_flux(mesh: Mesh, tol: float, shift: float) -> EigenFlux:
    """Assemble, solve for the smallest eigenpair (`fem.eigen_smallest` at
    `tol` and `shift`) and trace its flux, once, for every consumer."""
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh, tol=tol, shift=shift)
    return EigenFlux(mesh, k, m, ep, overdet_residual(k, m, mesh, ep.u1, ep.lambda1 * ep.u1))


# -- polynomial-preserving patch recovery -------------------------------------------


@dataclass
class Recovery:
    """Per-vertex recovered gradient, Hessian, and a local fit-residual scale."""

    gradient: np.ndarray  # (nv, 2)
    hessian: np.ndarray  # (nv, 2, 2), symmetric
    fit_residual: np.ndarray  # (nv,) rms nodal misfit of the patch fit / patch radius


def patch_recover(mesh: Mesh, values: np.ndarray) -> Recovery:
    """Polynomial-preserving recovery (Zhang-Naga): a least-squares quadratic
    fitted to the nodal values over each dof's patch, in coordinates centred
    on the dof and scaled by the patch radius (periodic x offsets wrapped).

    A patch is the dof's 1-ring, or its 2-ring when the dof is on the boundary
    or its 1-ring has fewer than 7 dofs, so it does not depend on numbering.
    The linear coefficients give the gradient and the quadratic ones the
    Hessian, both exact on quadratics.  Where the quadratic normal matrix is
    singular (all patch nodes on one conic), a linear fit gives the gradient
    and the Hessian is zero.
    """
    ndof, tri = mesh.n_dofs, mesh.dof_of_vertex[mesh.triangles]
    inc = sparse.csr_matrix(
        (np.ones(tri.size), (tri.ravel(), np.repeat(np.arange(len(tri)), 3))),
        shape=(ndof, len(tri)),
    )
    adj = (inc @ inc.T).tocsr()
    wide = np.diff(adj.indptr) < 7
    wide[mesh.dof_of_vertex[mesh.boundary_edges[:, 0]]] = True
    patch = (adj + sparse.diags(wide.astype(float)) @ adj @ adj).tocsr()
    patch.sort_indices()

    xy = np.zeros((ndof, 2))
    xy[mesh.dof_of_vertex] = mesh.vertices
    u = mesh.reduce(values)
    starts, rows = patch.indptr[:-1], np.repeat(np.arange(ndof), np.diff(patch.indptr))
    d = xy[patch.indices] - xy[rows]
    if mesh.is_periodic_x:
        d[:, 0] = (d[:, 0] + mesh.period / 2) % mesh.period - mesh.period / 2
    radius = np.maximum.reduceat(np.hypot(d[:, 0], d[:, 1]), starts)
    xi, eta = (d / radius[rows, None]).T
    du = u[patch.indices] - u[rows]  # the centre value drops out of every slope
    # the quadratic's monomials 1, xi, eta, xi^2, xi eta, eta^2
    basis = [xi**a * eta**b for a, b in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]

    nrm = np.empty((ndof, 6, 6))
    for i, j in zip(*np.triu_indices(6)):
        nrm[:, i, j] = nrm[:, j, i] = np.add.reduceat(basis[i] * basis[j], starts)
    rhs = np.stack([np.add.reduceat(phi * du, starts) for phi in basis], axis=1)
    # by Hadamard's inequality 0 <= det <= prod(diag): a near-zero ratio is singular
    lin = np.linalg.det(nrm) <= 1e-12 * np.prod(np.diagonal(nrm, axis1=1, axis2=2), axis=1)
    coef = np.zeros((ndof, 6))
    coef[~lin] = np.linalg.solve(nrm[~lin], rhs[~lin, :, None])[..., 0]
    coef[lin, :3] = np.linalg.solve(nrm[lin, :3, :3], rhs[lin, :3, None])[..., 0]

    misfit = sum(coef[rows, k] * phi for k, phi in enumerate(basis)) - du
    res = np.sqrt(np.add.reduceat(misfit**2, starts) / np.diff(patch.indptr)) / radius
    hess = np.stack([2 * coef[:, 3], coef[:, 4], coef[:, 4], 2 * coef[:, 5]], axis=1)
    return Recovery(
        gradient=mesh.expand(coef[:, 1:3] / radius[:, None]),
        hessian=mesh.expand(hess.reshape(-1, 2, 2) / (radius**2)[:, None, None]),
        fit_residual=mesh.expand(res),
    )


# -- P-function ---------------------------------------------------------------------


@dataclass
class PReport:
    """P = |grad u|^2 + 2 F(u) per vertex (``p``), its maxima, and the
    convexity criterion.

    ``u_tt`` is the recovered tangential second derivative per boundary
    vertex, signed so that u_tt + alpha_hat * k = 0 on a smooth constant-flux
    boundary with curvature k positive where the domain is convex; the
    implied curvature is u_tt / (-alpha_hat).
    """

    p: np.ndarray
    boundary_max: float
    interior_max: float
    criterion_left: float
    criterion_right: float
    criterion_holds: bool
    critical_vertices: np.ndarray
    u_tt: np.ndarray
    implied_curvature: np.ndarray
    geometric_curvature: np.ndarray
    tau_p: float
    max_on_boundary: bool
    flags: list[str] = field(default_factory=list)


def p_function(
    mesh: Mesh,
    u: np.ndarray,
    f: fem.NonlinearitySpec,
    report: OverdetReport,
) -> PReport:
    """P-function of the per-vertex Dirichlet solution u of -Delta u = f(u).

    `report` must be the overdet_residual report of this same u with source
    f(u): its trace gives |grad u| on the boundary and its alpha_hat the
    flux level of the convexity criterion.
    """
    rec = patch_recover(mesh, u)
    grad_sq = np.einsum("ij,ij->i", rec.gradient, rec.gradient)
    p_dof = mesh.reduce(grad_sq + 2.0 * f.antiderivative(u))
    alpha_hat = report.alpha_hat

    # on the boundary u = 0, so |grad u| is the variational flux magnitude;
    # set per DOF, so both copies of a periodic seam vertex get it
    tr = report.trace
    b_ids = mesh.boundary_edges[:, 0]
    p_dof[mesh.dof_of_vertex[b_ids]] = tr.nodal**2 + 2.0 * f.antiderivative(0.0)
    p_vals = mesh.expand(p_dof)

    interior_ids = np.nonzero(np.isin(mesh.dof_of_vertex, mesh.interior_dofs()))[0]

    flags: list[str] = []
    gnorm = np.sqrt(grad_sq)
    gmax = float(gnorm[interior_ids].max()) if len(interior_ids) else 0.0
    crit = interior_ids[gnorm[interior_ids] < 0.02 * gmax]  # near-critical: 2 % of max |grad u|
    if len(crit) == 0:
        flags.append("no_critical_point")
        crit_range = u
    else:
        crit_range = u[crit]
    criterion_left = 2.0 * float(np.max(f.antiderivative(crit_range)))
    criterion_right = alpha_hat**2
    criterion_holds = criterion_left < criterion_right

    # recovery noise scale converted to P units through the gradient magnitude
    err_p = rec.fit_residual * (2.0 * gnorm + rec.fit_residual)
    tau_p = 3.0 * float(np.max(err_p, initial=0.0))

    interior_max = float(p_vals[interior_ids].max(initial=-math.inf))
    boundary_max = float(p_vals[b_ids].max())
    bg = boundary_geometry(mesh)  # its rows are the trace's: boundary_edges[:, 0]

    # tangential second derivative from the recovered Hessian, sign fixed so
    # that u_tt / (-alpha_hat) reproduces the geometric curvature
    u_tt = -np.einsum("ni,nij,nj->n", bg.tangent, rec.hessian[b_ids], bg.tangent)
    k_geom = bg.curvature
    # one 5-point tangential averaging pass (same stencil width as the
    # curvature fit) knocks down the per-vertex recovery noise
    for sl in mesh.boundary_loops:
        seg = u_tt[sl]
        if len(seg) >= 5:
            u_tt[sl] = sum(np.roll(seg, s) for s in (-2, -1, 0, 1, 2)) / 5.0
    implied = u_tt / (-alpha_hat) if alpha_hat != 0 else np.full_like(u_tt, np.nan)

    max_on_boundary = interior_max <= boundary_max + tau_p
    if not criterion_holds:
        flags.append("criterion_fails")
    if abs(criterion_left - criterion_right) <= 0.05 * max(
        abs(criterion_right), 1e-300
    ):
        flags.append("criterion_borderline")

    return PReport(
        p=p_vals,
        boundary_max=boundary_max,
        interior_max=interior_max,
        criterion_left=criterion_left,
        criterion_right=criterion_right,
        criterion_holds=criterion_holds,
        critical_vertices=crit,
        u_tt=u_tt,
        implied_curvature=implied,
        geometric_curvature=k_geom,
        tau_p=tau_p,
        max_on_boundary=max_on_boundary,
        flags=flags,
    )


# -- theorem checks -----------------------------------------------------------------


@dataclass
class TheoremCheck:
    """Pass/fail record for one quantitative criterion; margin = bound - measured."""

    tag: str
    passed: bool | None
    measured: float | None
    bound: float | None
    margin: float | None
    flags: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "theorem": self.tag,
            "pass": self.passed,
            "measured": self.measured,
            "bound": self.bound,
            "margin": self.margin,
            "flags": self.flags,
            "details": self.details,
        }


def check_T4(spec: DomainSpec, lam: float, g: float) -> TheoremCheck:
    """Inscribed-ball exclusion: the domain spec must not contain a closed
    ball of the critical radius for lam (grid tolerance g); the inradius is
    read from the spec's own signed distance."""
    rho, center = inscribed_ball(spec, g)
    bound = r_lambda(lam)
    margin = bound - rho
    return TheoremCheck(
        tag="T4",
        passed=bool(rho < bound + g),
        measured=rho,
        bound=bound,
        margin=margin,
        details={"center": [float(center[0]), float(center[1])], "grid": g},
    )


def _superlevel_components(mesh: Mesh, values: np.ndarray, level: float):
    """Connected (by triangle adjacency) components of {u > level}; each
    component yields its vertices above the level plus the edge crossings."""
    work = mesh.unrolled()
    vals = values if work is mesh else values[work.unroll_base]
    out = []
    for tris in superlevel_triangle_components(work, vals, level):
        tri = work.triangles[tris]
        v = vals[tri]
        slots, mask = clip_slots(work.vertices[tri], v, level, v > level)
        out.append(np.unique(slots[mask], axis=0))
    return out


def check_T5(mesh: Mesh, u: np.ndarray, lam: float, alpha_hat: float) -> TheoremCheck:
    """Superlevel sets of the per-vertex solution u above the critical-ball
    center value h0 must fit in balls of radius sqrt(5)/2 * R and have
    diameter below 2R."""
    if alpha_hat >= 0:
        raise NonNegativeAlpha("the measured flux must be negative")
    h0 = ball_solution(lam, alpha_hat).h0
    radius = r_lambda(lam)
    comps = _superlevel_components(mesh, u, h0)
    if mesh.is_periodic_x:
        # one copy of each physical component: its leftmost point in [0, T)
        comps = [pts for pts in comps if 0.0 <= float(pts[:, 0].min()) < mesh.period]
    if not comps:
        return TheoremCheck(
            tag="T5",
            passed=True,
            measured=None,
            bound=2 * radius,
            margin=None,
            flags=["empty_superlevel"],
            details={"h0": h0},
        )
    worst_d = 0.0
    worst_r = 0.0
    for pts in comps:
        worst_d = max(worst_d, component_diameter(pts))
        worst_r = max(worst_r, min_enclosing_circle(pts)[1])
    ok = worst_d < 2 * radius and worst_r < (math.sqrt(5) / 2) * radius
    return TheoremCheck(
        tag="T5",
        passed=bool(ok),
        measured=worst_d,
        bound=2 * radius,
        margin=2 * radius - worst_d,
        details={
            "h0": h0,
            "n_components": len(comps),
            "max_circumradius": worst_r,
            "circumradius_bound": (math.sqrt(5) / 2) * radius,
        },
    )


def check_cap_heights(mesh: Mesh, lam: float, lines: list[Line]) -> TheoremCheck:
    """Every bounded cap cut by the sampled lines must have height <= 3R.

    The details count the lines, the bounded caps, and the bounded caps on
    which each hypothesis of Alexandrov's reflection argument holds: the cap
    is a graph over its chord (``graphs_over_chord``) and its reflection
    across the line lies in the closed domain (``reflections_contained``).
    """
    bound = 3.0 * r_lambda(lam)
    caps = [cap for line in lines for cap in cap_reflect(mesh, line).bounded_components()]
    details = {
        "lines": len(lines),
        "bounded_caps": len(caps),
        "graphs_over_chord": sum(cap.graph_over_chord for cap in caps),
        "reflections_contained": sum(cap.reflection_contained for cap in caps),
    }
    if not caps:
        return TheoremCheck(tag="L3R", passed=True, measured=None, bound=bound, margin=None,
                            flags=["no_bounded_caps"], details=details)
    worst = max(cap.height for cap in caps)
    return TheoremCheck(tag="L3R", passed=bool(worst <= bound + 1e-9), measured=worst,
                        bound=bound, margin=bound - worst, details=details)


def check_T8_convexity(
    mesh: Mesh,
    u: np.ndarray,
    f: fem.NonlinearitySpec,
    report: OverdetReport,
) -> TheoremCheck:
    """If 2 max F(u) < alpha^2, the complement components must be convex:
    boundary curvature of the domain <= tau_k everywhere (complement-side
    curvature > -tau_k), with tau_k = 1e-3 (1 + max |k|).  Only meaningful
    on periodic meshes.  `report` is the overdet_residual report of u with
    source f(u), as for p_function."""
    if not mesh.is_periodic_x:
        return TheoremCheck(
            tag="T8",
            passed=None,
            measured=None,
            bound=None,
            margin=None,
            flags=["not_applicable"],
        )
    prep = p_function(mesh, u, f, report)
    k = prep.geometric_curvature
    finite = np.isfinite(k)
    complement_curv = -k[finite]
    min_cc = float(complement_curv.min())
    tau_k = 1e-3 * (1.0 + float(np.max(np.abs(k[finite]), initial=0.0)))
    convex_ok = min_cc > -tau_k
    passed = (not prep.criterion_holds) or convex_ok
    # intermediate identity: recovered u_tt/(-alpha) against geometric k
    ident = prep.implied_curvature[finite] - k[finite]
    scale = max(float(np.max(np.abs(k[finite]), initial=0.0)), 1e-12)
    details = {
        "criterion_holds": prep.criterion_holds,
        "criterion_left": prep.criterion_left,
        "criterion_right": prep.criterion_right,
        "identity_max_abs_err": float(np.max(np.abs(ident))),
        "identity_scale": scale,
        "tau_k": tau_k,
    }
    return TheoremCheck(
        tag="T8",
        passed=bool(passed),
        measured=min_cc,
        bound=0.0,
        margin=min_cc + tau_k,
        flags=list(prep.flags),
        details=details,
    )
