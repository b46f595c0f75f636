"""Per-vertex boundary frames: arclength, tangent, outward normal, curvature.

Curvature uses an algebraic circle fit over a 5-vertex stencil, signed
positive where the domain is locally convex (a disk of radius R reports
+1/R everywhere, a straight wall reports 0).  Polygon corners carry NaN with
a corner flag; collinear stencils return 0 with a degeneracy flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshing import Mesh

_COLLINEAR_TOL = 1e-14


@dataclass
class BoundaryGeometry:
    """Arrays indexed by boundary vertex in loop-walk order."""

    vertex_ids: np.ndarray
    loop_slices: list[slice]
    arclength: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    curvature: np.ndarray
    corner_flags: np.ndarray
    degenerate_flags: np.ndarray


def _circle_fit_curvature(stencil: np.ndarray, normal: np.ndarray) -> tuple[float, bool]:
    """Signed curvature from a least-squares circle through the stencil."""
    center = stencil.mean(axis=0)
    q = stencil - center
    chord = q[-1] - q[0]
    norm = float(np.hypot(*chord))
    if norm > 0:
        rel = q - q[0]
        dev = np.abs(chord[0] * rel[:, 1] - chord[1] * rel[:, 0]) / norm
        if float(dev.max()) <= _COLLINEAR_TOL:
            return 0.0, True
    a = np.column_stack([q[:, 0], q[:, 1], np.ones(len(q))])
    rhs = -(q[:, 0] ** 2 + q[:, 1] ** 2)
    try:
        coef, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return 0.0, True
    cx, cy = -coef[0] / 2.0, -coef[1] / 2.0
    r2 = cx * cx + cy * cy - coef[2]
    if not np.isfinite(r2) or r2 <= 0:
        return 0.0, True
    r = float(np.sqrt(r2))
    to_center = np.array([cx, cy]) - q[len(q) // 2]
    sign = 1.0 if float(np.dot(normal, to_center)) < 0 else -1.0
    return sign / r, False


def _unwrapped_loop(mesh: Mesh, loop_idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walked vertex ids, their unwrapped positions, and the loop closure.

    Positions accumulate per-edge displacements, so a loop that winds once
    around the period of a periodic mesh comes out as a continuous polyline;
    closure is the displacement from the last vertex back to the first
    ((0, 0) for ordinary loops, (+-period, 0) for winding wall loops).
    """
    edges = mesh.boundary_loops[loop_idx]
    ids = mesh.boundary_edges[edges, 0]
    pts = np.empty((len(ids), 2))
    pts[0] = mesh.vertices[ids[0]]
    deltas = (
        mesh.vertices[mesh.boundary_edges[edges, 1]] - mesh.vertices[mesh.boundary_edges[edges, 0]]
    )
    pts[1:] = pts[0] + np.cumsum(deltas[:-1], axis=0)
    closure = deltas.sum(axis=0)
    return ids, pts, closure


def boundary_geometry(mesh: Mesh) -> BoundaryGeometry:
    ids_all: list[np.ndarray] = []
    slices: list[slice] = []
    chunks: dict[str, list[np.ndarray]] = {k: [] for k in "arc tan nor cur corn deg".split()}
    corners = set(int(c) for c in mesh.corner_vertices)

    offset = 0
    for li in range(len(mesh.boundary_loops)):
        ids, pts, closure = _unwrapped_loop(mesh, li)
        n = len(ids)
        seglen = np.hypot(*(np.diff(pts, axis=0).T)) if n > 1 else np.empty(0)
        arc = np.concatenate([[0.0], np.cumsum(seglen)])

        ext = np.vstack([pts[-2:] - closure, pts, pts[:2] + closure])  # ext[k+2] == pts[k]
        tang = ext[3 : n + 3] - ext[1 : n + 1]  # central difference over neighbors
        tang = tang / np.hypot(tang[:, 0], tang[:, 1])[:, None]
        norm = np.column_stack([tang[:, 1], -tang[:, 0]])

        curv = np.empty(n)
        degen = np.zeros(n, dtype=bool)
        cornr = np.asarray([int(v) in corners for v in ids])
        for k in range(n):
            if cornr[k]:
                curv[k] = np.nan
                continue
            curv[k], degen[k] = _circle_fit_curvature(ext[k : k + 5], norm[k])

        ids_all.append(ids)
        slices.append(slice(offset, offset + n))
        chunks["arc"].append(arc)
        chunks["tan"].append(tang)
        chunks["nor"].append(norm)
        chunks["cur"].append(curv)
        chunks["corn"].append(cornr)
        chunks["deg"].append(degen)
        offset += n

    return BoundaryGeometry(
        vertex_ids=np.concatenate(ids_all),
        loop_slices=slices,
        arclength=np.concatenate(chunks["arc"]),
        tangent=np.vstack(chunks["tan"]),
        normal=np.vstack(chunks["nor"]),
        curvature=np.concatenate(chunks["cur"]),
        corner_flags=np.concatenate(chunks["corn"]),
        degenerate_flags=np.concatenate(chunks["deg"]),
    )
