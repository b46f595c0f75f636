"""Per-vertex boundary frames: tangent, outward normal, curvature.

Arrays follow the mesh's boundary walk: one entry per boundary edge start,
loop after loop.  Curvature uses an algebraic circle fit over a 5-vertex
stencil, signed positive where the domain is locally convex (a disk of radius
R reports +1/R everywhere, a straight wall reports 0).  Polygon corners carry
NaN; collinear stencils return 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshing import Mesh

_COLLINEAR_TOL = 1e-14


@dataclass
class BoundaryGeometry:
    """Arrays indexed by boundary vertex, at ``vertex_ids = mesh.boundary_edges[:, 0]``."""

    vertex_ids: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    curvature: np.ndarray


def _circle_fit_curvature(stencils: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Signed curvature of the least-squares circle through each stencil of
    the stack (m, 5, 2), whose middle point has the outward `normal`; 0 where
    the stencil is collinear or the fit has no real radius."""
    q = stencils - stencils.mean(axis=1, keepdims=True)
    chord = q[:, -1] - q[:, 0]
    norm = np.hypot(chord[:, 0], chord[:, 1])
    rel = q - q[:, :1]
    dev = np.abs(chord[:, None, 0] * rel[..., 1] - chord[:, None, 1] * rel[..., 0]).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero chord is not collinear
        collinear = (norm > 0) & (dev / norm <= _COLLINEAR_TOL)
    a = np.concatenate([q, np.ones_like(q[..., :1])], axis=2)
    coef = np.einsum("mij,mj->mi", np.linalg.pinv(a), -(q[..., 0] ** 2 + q[..., 1] ** 2))
    center = -0.5 * coef[:, :2]
    r2 = center[:, 0] ** 2 + center[:, 1] ** 2 - coef[:, 2]
    fit = ~collinear & np.isfinite(r2) & (r2 > 0)
    sign = np.where(np.einsum("ij,ij->i", normal, center - q[:, 2]) < 0, 1.0, -1.0)
    return np.where(fit, sign / np.sqrt(np.where(fit, r2, 1.0)), 0.0)


def boundary_geometry(mesh: Mesh) -> BoundaryGeometry:
    """The frame at every boundary vertex, with one batched circle fit."""
    be = mesh.boundary_edges
    deltas = mesh.vertices[be[:, 1]] - mesh.vertices[be[:, 0]]
    window = np.arange(5)
    stencils = []
    for sl in mesh.boundary_loops:
        # positions accumulate the edge displacements, so a loop that winds
        # once around the period of a periodic mesh comes out as a continuous
        # polyline; closure is the displacement from the last vertex back to
        # the first ((0, 0) for ordinary loops, (+-period, 0) for wall loops)
        d = deltas[sl]
        pts = np.empty_like(d)
        pts[0] = mesh.vertices[be[sl.start, 0]]
        pts[1:] = pts[0] + np.cumsum(d[:-1], axis=0)
        closure = d.sum(axis=0)
        ext = np.vstack([pts[-2:] - closure, pts, pts[:2] + closure])  # ext[k+2] == pts[k]
        stencils.append(ext[np.arange(len(pts))[:, None] + window])
    stencil = np.concatenate(stencils)
    tang = stencil[:, 3] - stencil[:, 1]  # central difference over neighbors
    tang = tang / np.hypot(tang[:, 0], tang[:, 1])[:, None]
    norm = np.column_stack([tang[:, 1], -tang[:, 0]])
    curv = _circle_fit_curvature(stencil, norm)
    curv[np.isin(be[:, 0], mesh.corner_vertices)] = np.nan
    return BoundaryGeometry(vertex_ids=be[:, 0], tangent=tang, normal=norm, curvature=curv)
