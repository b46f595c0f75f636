"""Piecewise-linear finite elements on the geometry layer's meshes.

`assemble` gives the exactly symmetric P1 stiffness and mass matrices as scipy
CSR matrices (periodic meshes are folded onto one degree of freedom per
physical vertex); callers assemble once per mesh and pass the same K and M to
the eigen solve, the Newton solve and the Neumann trace.  The smallest
Dirichlet eigenpair comes from shift-inverted iteration with Rayleigh
acceleration on a sparse direct factorization, the semilinear solver is a
damped Newton iteration, and boundary fluxes are recovered variationally
(lumped through the one-dimensional boundary mass matrix), which is markedly
more accurate than sampling raw element gradients.  Nodal fields are plain
arrays with one value per mesh vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import (
    DegenerateTriangle,
    IterationLimit,
    NewtonDiverged,
    NonPositiveSolution,
)
from .geom2d.meshing import Mesh

# -- matrices ---------------------------------------------------------------------


@dataclass
class EigenPair:
    """Smallest Dirichlet eigenvalue with its mass-normalized eigenfunction,
    one value per mesh vertex (duplicated periodic columns agree)."""

    lambda1: float
    u1: np.ndarray
    residual: float
    iterations: int
    refactors: int  # re-shifted factorizations after slow convergence


def p1_gradients(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triangle P1 gradient coefficients and signed areas.

    The gradient of the hat function of local vertex i is (b_i, c_i) / (2 area).
    """
    (x, y), nxt, prv = mesh.vertices.T, mesh.triangles[:, [1, 2, 0]], mesh.triangles[:, [2, 0, 1]]
    b = y[nxt] - y[prv]  # y1 - y2, y2 - y0, y0 - y1
    c = x[prv] - x[nxt]  # x2 - x1, x0 - x2, x1 - x0
    area = 0.5 * (c[:, 2] * b[:, 1] - b[:, 2] * c[:, 1])
    return b, c, area


def export_matrix_market(mat: sparse.spmatrix) -> str:
    """The matrix in MatrixMarket coordinate format (1-based indices)."""
    coo = mat.tocoo()
    lines = ["%%MatrixMarket matrix coordinate real general", "{} {} {}".format(*coo.shape, coo.nnz)]
    lines += [f"{i + 1} {j + 1} {float(v)!r}" for i, j, v in zip(coo.row, coo.col, coo.data)]
    return "\n".join(lines) + "\n"


def assemble(mesh: Mesh) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """P1 stiffness and consistent mass matrices on the mesh's DOFs."""
    b, c, area = p1_gradients(mesh)
    if np.any(area < 1e-14):
        raise DegenerateTriangle(f"triangle area below 1e-14 (min {area.min():.3e})")

    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area)[
        :, None, None
    ]
    me = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (area / 12.0)[:, None, None]

    dof = mesh.dof_of_vertex[mesh.triangles]
    rows = np.repeat(dof, 3, axis=1).ravel()
    cols = np.tile(dof, (1, 3)).ravel()
    n = mesh.n_dofs
    k = sparse.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    m = sparse.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    k.sum_duplicates()
    m.sum_duplicates()
    return k, m


def interior_blocks(k: sparse.csr_matrix, m: sparse.csr_matrix, mesh: Mesh):
    """Interior DOF ids and the interior blocks of K and M, in CSC form."""
    interior = mesh.interior_dofs()
    return interior, k[interior][:, interior].tocsc(), m[interior][:, interior].tocsc()


def eigen_smallest(
    k: sparse.csr_matrix,
    m: sparse.csr_matrix,
    mesh: Mesh,
    tol: float = 1e-10,
    shift: float = 0.0,
) -> EigenPair:
    """Generalized eigenpair K x = lambda M x on the interior DOFs.

    Shift-inverted power iteration; a shift just below the target eigenvalue
    (e.g. 0.98 * an analytic estimate) speeds up nearly-degenerate spectra,
    and the factorization is re-shifted at the current Rayleigh quotient
    whenever plain iteration converges slowly; at most 500 iterations.  `k`
    and `m` are the mesh's assembled matrices; the mesh's boundary vertices
    are Dirichlet DOFs."""
    interior, ki, mi = interior_blocks(k, m, mesh)
    # symmetric patterns: minimum degree on A^T + A, as in the bordered solve
    lu = splu((ki - shift * mi).tocsc() if shift else ki, permc_spec="MMD_AT_PLUS_A")
    v = np.ones(len(interior))
    v /= math.sqrt(v @ (mi @ v))
    rho = float(v @ (ki @ v))
    it = 0
    refactors = 0
    residual = math.inf
    while it < 500:
        it += 1
        w = lu.solve(mi @ v)
        with np.errstate(over="ignore"):  # an overflow is caught just below
            nrm = math.sqrt(w @ (mi @ w))
        if not 0.0 < nrm < math.inf:  # the iterate left the double range
            raise IterationLimit(f"eigen iterate's M-norm is {nrm} at iteration {it}", residual)
        v = w / nrm
        rho = float(v @ (ki @ v)) / float(v @ (mi @ v))
        r = ki @ v - rho * (mi @ v)
        residual = float(np.linalg.norm(r) / np.linalg.norm(rho * (mi @ v)))
        if residual <= tol:
            break
        if it % 25 == 0 and refactors < 4 and residual > 100 * tol:
            sigma = rho * (1.0 - 1e-8)
            lu = splu((ki - sigma * mi).tocsc(), permc_spec="MMD_AT_PLUS_A")
            refactors += 1
    else:
        raise IterationLimit(
            f"eigen iteration hit 500 iterations at residual {residual:.3e}",
            residual=residual,
        )

    if float(np.sum(v)) < 0:
        v = -v
    full_dof = np.zeros(mesh.n_dofs)
    full_dof[interior] = v
    return EigenPair(lambda1=float(rho), u1=mesh.expand(full_dof), residual=residual,
                     iterations=it, refactors=refactors)


# -- nonlinearities --------------------------------------------------------------


@dataclass(frozen=True)
class Linear:
    """f(u) = lam * u."""

    lam: float

    def f(self, u):
        return self.lam * np.asarray(u, dtype=float)

    def fprime(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.lam)

    def antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * self.lam * u * u


@dataclass(frozen=True)
class AllenCahn:
    """f(u) = u - u^3."""

    def f(self, u):
        u = np.asarray(u, dtype=float)
        return u - u**3

    def fprime(self, u):
        u = np.asarray(u, dtype=float)
        return 1.0 - 3.0 * u * u

    def antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u - 0.25 * u**4


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear f over breakpoints, antiderivative by exact trapezoid."""

    breakpoints: tuple[float, ...]
    fvalues: tuple[float, ...]
    lipschitz_constant: float

    def __post_init__(self) -> None:
        x = np.asarray(self.breakpoints)
        y = np.asarray(self.fvalues)
        if len(x) != len(y) or len(x) < 2 or np.any(np.diff(x) <= 0):
            raise ValueError("breakpoints must be increasing and match values")
        slopes = np.diff(y) / np.diff(x)
        if np.max(np.abs(slopes)) > self.lipschitz_constant * (1 + 1e-12):
            raise ValueError("samples violate the declared Lipschitz constant")

    def f(self, u):
        return np.interp(np.asarray(u, dtype=float), self.breakpoints, self.fvalues)

    def fprime(self, u):
        x = np.asarray(self.breakpoints)
        slopes = np.diff(np.asarray(self.fvalues)) / np.diff(x)
        idx = np.clip(np.searchsorted(x, np.asarray(u, dtype=float), side="right") - 1, 0,
                      len(slopes) - 1)
        return slopes[idx]

    def _accumulated(self, u: np.ndarray) -> np.ndarray:
        """Integral of the interpolant from breakpoints[0] to u (trapezoid at
        breakpoints, exact quadratic within a segment, constant-f beyond)."""
        x = np.asarray(self.breakpoints)
        y = np.asarray(self.fvalues)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])
        idx = np.clip(np.searchsorted(x, u, side="right") - 1, 0, len(x) - 2)
        du = np.clip(u, x[0], x[-1]) - x[idx]
        slope = (y[idx + 1] - y[idx]) / (x[idx + 1] - x[idx])
        out = cum[idx] + y[idx] * du + 0.5 * slope * du * du
        out = np.where(u < x[0], y[0] * (u - x[0]), out)
        out = np.where(u > x[-1], cum[-1] + y[-1] * (u - x[-1]), out)
        return out

    def antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        return self._accumulated(u) - self._accumulated(np.zeros(1))[0]


NonlinearitySpec = Union[Linear, AllenCahn, Tabulated]


# -- semilinear Newton solve ------------------------------------------------------


def solve_semilinear(
    k: sparse.csr_matrix,
    m: sparse.csr_matrix,
    mesh: Mesh,
    f: NonlinearitySpec,
    u0: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """Damped Newton, at most 60 steps, for the discrete residual M f(u) - K u
    with u = 0 on the boundary, on the mesh's assembled matrices `k` and `m`,
    from the per-vertex start `u0`; returns the nonnegative per-vertex solution
    or raises NonPositiveSolution."""
    interior, ki, mi = interior_blocks(k, m, mesh)
    ui = mesh.reduce(u0)[interior]

    def residual(ui_: np.ndarray) -> tuple[np.ndarray, float]:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is caught below
            r_ = mi @ f.f(ui_) - ki @ ui_
            return r_, float(np.linalg.norm(r_))

    r, norm = residual(ui)
    hist: list[float] = [norm]
    for _ in range(60):
        if float(np.max(np.abs(r))) <= tol * (1.0 + float(np.max(np.abs(ui), initial=0.0))):
            break
        if not math.isfinite(norm):  # the iterate left the double range
            raise NewtonDiverged(f"residual norm is {norm}")
        jac = (mi @ sparse.diags(f.fprime(ui)) - ki).tocsc()
        delta = splu(jac).solve(-r)
        # Armijo backtracking, factor 1/2, at most 10 halvings
        t = 1.0
        accepted = False
        for _ in range(11):
            trial = ui + t * delta
            r_trial, norm_trial = residual(trial)
            if norm_trial <= (1.0 - 1e-4 * t) * norm:
                ui, r, norm = trial, r_trial, norm_trial
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise NewtonDiverged("line search exhausted 10 halvings without descent")
        hist.append(norm)
        if len(hist) > 10 and hist[-1] > 0.9 * hist[-11] and hist[-1] > tol:
            raise NewtonDiverged(
                f"residual not reduced by 0.9 over 10 damped steps ({hist[-11]:.3e} -> {hist[-1]:.3e})"
            )
    else:
        raise NewtonDiverged("no convergence in 60 Newton steps")

    full = np.zeros(mesh.n_dofs)
    full[interior] = ui
    if float(np.min(full)) < -1e-8:
        raise NonPositiveSolution(f"solution dips to {float(np.min(full)):.3e}")
    return mesh.expand(full)


# -- variational Neumann trace ------------------------------------------------------


@dataclass
class NeumannTrace:
    """Outward normal derivative along the boundary.

    ``nodal`` holds one flux value per boundary vertex, at the starts
    ``mesh.boundary_edges[:, 0]`` (loop after loop, in walk order);
    ``per_edge`` averages the two endpoint values of each boundary edge;
    ``lumped_weights`` gives each boundary vertex half the length of its two
    boundary edges (the row sums of the boundary mass matrix).
    """

    nodal: np.ndarray
    per_edge: np.ndarray
    lumped_weights: np.ndarray


def neumann_trace(
    k: sparse.csr_matrix,
    m: sparse.csr_matrix,
    mesh: Mesh,
    u: np.ndarray,
    source: np.ndarray,
) -> NeumannTrace:
    """Variational boundary flux: solve M_b g = (K u - M s) on boundary rows,
    where K and M are the mesh's assembled matrices, u and s hold the per-vertex
    solution and reaction values f(u), and M_b is the 1D P1 mass matrix over
    the boundary loops."""
    rhs_full = k @ mesh.reduce(u) - m @ mesh.reduce(source)

    length = mesh.boundary_lengths
    nxt, mb = _boundary_mass(mesh, length)
    g = splu(mb).solve(rhs_full[mesh.dof_of_vertex[mesh.boundary_edges[:, 0]]])
    return NeumannTrace(
        nodal=g,
        per_edge=0.5 * (g + g[nxt]),
        lumped_weights=np.bincount(nxt, weights=0.5 * length, minlength=len(g)) + 0.5 * length,
    )


def _boundary_mass(mesh: Mesh, length: np.ndarray):
    """The next edge along each boundary edge's loop (a loop's last edge wraps
    to its first, so periodic loops close), and the 1D P1 boundary mass matrix
    M_b for `length` on the trace's vertices, the edges' starts: edge e joins
    trace rows e and next[e]."""
    ia, nxt = np.arange(len(length)), np.arange(1, len(length) + 1)
    for sl in mesh.boundary_loops:
        nxt[sl.stop - 1] = sl.start
    rows, cols = np.concatenate([ia, nxt, ia, nxt]), np.concatenate([ia, nxt, nxt, ia])
    vals = np.concatenate([length / 3.0, length / 3.0, length / 6.0, length / 6.0])
    return nxt, sparse.coo_matrix((vals, (rows, cols)), shape=(len(ia), len(ia))).tocsc()


def _residual_blocks(mesh: Mesh, u: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the element residuals r = (K_e - lam M_e) u: blocks[k, a, j, t] is
    d r_a / d(coordinate k of local vertex j) in triangle t, and row (nv, 2) has u . dM u =
    sum(row * V).  By `p1_gradients`, d area / d(x_j, y_j) = (b_j, c_j) / 2 and d b_a / d y_j
    = -d c_a / d x_j = p[a, j]; w = -(d r_a / d area) / 2, as K_e u ~ 1 / area, M_e u ~ area."""
    # triangles last (and contiguous), so that every product runs over the whole mesh
    b, c, area, ue = (np.ascontiguousarray(g.T) for g in (*p1_gradients(mesh), u[mesh.triangles]))
    p = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])  # [j = a+1] - [j = a+2]
    bu, cu, pu = (b * ue).sum(axis=0), (c * ue).sum(axis=0), p.T @ ue
    w = ((b * bu + c * cu) / (8.0 * area**2) + lam * (ue + ue.sum(axis=0)) / 24.0)[:, None]
    sx = -(p[..., None] * cu + c[:, None] * pu) / (4.0 * area) - w * b
    sy = (p[..., None] * bu + b[:, None] * pu) / (4.0 * area) - w * c
    q = ((ue * ue).sum(axis=0) + ue.sum(axis=0) ** 2) / 24.0  # u . M_e u / (2 area)
    row = np.stack([np.bincount(mesh.triangles.T.ravel(), (q * g).ravel(), minlength=len(u))
                    for g in (b, c)], axis=1)
    return np.stack([sx, sy]), row


def eigen_shape_derivative(
    k: sparse.csr_matrix,
    m: sparse.csr_matrix,
    mesh: Mesh,
    ep: EigenPair,
    tr: NeumannTrace,
    velocities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact derivatives of lambda1, ``tr.nodal`` and ``tr.lumped_weights``
    along each vertex velocity of the stack (p, nv, 2), at fixed topology.

    `ep` is the mass-normalized eigenpair of the assembled `k`, `m` and `tr` its trace
    with source lambda1 * u1.  d(K - lambda M)u is one contraction of `_residual_blocks`
    per velocity.  One factorization of [[K_II - lambda M_II, -M_II u], [u^T M_II, 0]]
    gives (du, dlambda) for all velocities (Nelson, AIAA J. 14, 1976), and dg = M_b^-1
    (d(K u - lambda M u)_b - dM_b g).  With N the boundary vertex-edge incidence, M_b g
    = E(g) len for E(g) = (N diag(N^T g) + diag(g) N) / 6, so dM_b g = E(g) dlen, and
    M_b's row sums E(1) len move by N dlen / 2."""
    blocks, row = _residual_blocks(mesh, ep.u1, ep.lambda1)
    dof, tri = mesh.dof_of_vertex[mesh.triangles.T].ravel(), np.ascontiguousarray(mesh.triangles.T)
    d_res = np.column_stack([  # d(K - lambda M) u
        np.bincount(dof, np.sum(blocks * v.T[:, None, tri], axis=(0, 2)).ravel(), mesh.n_dofs)
        for v in velocities])

    interior = mesh.interior_dofs()
    shifted = (k - ep.lambda1 * m).tocsr()
    mu = m @ mesh.reduce(ep.u1)
    col = sparse.csr_matrix(mu[interior][:, None])
    bordered = sparse.bmat([[shifted[interior][:, interior], -col], [col.T, None]], format="csc")
    rhs = np.vstack([-d_res[interior], -0.5 * np.tensordot(velocities, row, 2)])
    # a symmetric pattern: minimum degree on A^T + A fills in a third of COLAMD's
    sol = splu(bordered, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    bd = mesh.dof_of_vertex[mesh.boundary_edges[:, 0]]
    d_rhs = d_res[bd] + shifted[bd][:, interior] @ sol[:-1] - np.outer(mu[bd], sol[-1])

    e0, e1 = mesh.boundary_edges.T
    length = mesh.boundary_lengths
    dlen = np.einsum("ei,pei->ep", mesh.vertices[e1] - mesh.vertices[e0],
                     velocities[:, e1] - velocities[:, e0]) / length[:, None]
    nxt, mb = _boundary_mass(mesh, length)
    n = len(nxt)
    inc = sparse.csr_matrix((np.ones(2 * n), (np.r_[:n, nxt], np.r_[:n, :n])))
    inc_dlen = inc @ dlen
    d_mb_g = (inc @ ((inc.T @ tr.nodal)[:, None] * dlen) + tr.nodal[:, None] * inc_dlen) / 6.0
    return sol[-1], splu(mb).solve(d_rhs - d_mb_g).T, 0.5 * inc_dlen.T
