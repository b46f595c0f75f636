"""The banded crossing test and the KD-tree-pruned segment distance return
exactly what the dense all-pairs formulas return, and meshes built on them
are the meshes the dense formulas give."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_lab.geom2d import Annulus, Disk, Ellipse, Polygon, build_domain
from extremal_lab.geom2d import domain, meshing
from extremal_lab.geom2d.domain import (
    _circle_points,
    _min_distance_to_segments,
    _points_in_loops,
)

# -- dense reference: every point against every segment ------------------------


def _ref_min_distance_to_segments(pts, a, b):
    ab = b - a
    den = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    out = np.empty(len(pts))
    step = max(1, int(4_000_000 // max(len(a), 1)))
    for lo in range(0, len(pts), step):
        p = pts[lo : lo + step]
        ap = p[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("pij,ij->pi", ap, ab) / den, 0.0, 1.0)
        diff = ap - t[:, :, None] * ab[None, :, :]
        out[lo : lo + step] = np.sqrt(np.min(np.einsum("pij,pij->pi", diff, diff), axis=1))
    return out


def _ref_points_in_loops(pts, loops, tol):
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    near = np.zeros(len(pts), dtype=bool)
    for loop in loops:
        a = loop
        b = np.roll(loop, -1, axis=0)
        ya, yb = a[:, 1], b[:, 1]
        xa, xb = a[:, 0], b[:, 0]
        for lo in range(0, len(pts), 4096):
            sl = slice(lo, min(lo + 4096, len(pts)))
            yy = y[sl][:, None]
            xx = x[sl][:, None]
            cond = (ya[None, :] > yy) != (yb[None, :] > yy)
            with np.errstate(divide="ignore", invalid="ignore"):
                xcross = xa[None, :] + (yy - ya[None, :]) * (xb - xa)[None, :] / (yb - ya)[None, :]
            hits = cond & (xx < xcross)
            inside[sl] ^= (np.count_nonzero(hits, axis=1) % 2).astype(bool)
        if tol > 0:
            near |= _ref_min_distance_to_segments(pts, loop, b) <= tol
    return inside | near


# -- generated inputs ----------------------------------------------------------


SHAPES = {
    "square": [np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)],
    "l_shape": [np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)],
    "comb": [
        np.array([[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1], [1, 2], [0, 2]], float) - 1.5
    ],
    "annulus": [_circle_points(1.0, 24, ccw=True), _circle_points(0.5, 12, ccw=False)],
}

_coord = st.one_of(
    st.floats(-2.5, 2.5, allow_nan=False),
    st.integers(-10, 10).map(lambda k: k / 4),
)


@st.composite
def _loops(draw):
    name = draw(st.sampled_from(sorted(SHAPES) + ["star"]))
    if name != "star":
        return SHAPES[name]
    # star-shaped loop snapped to a quarter grid: repeated y values and
    # horizontal edges are common
    radii = np.array(draw(st.lists(st.integers(1, 8), min_size=3, max_size=12))) / 4
    theta = 2 * math.pi * np.arange(len(radii)) / len(radii)
    return [np.round(4 * radii[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])) / 4]


@st.composite
def _points_on(draw, loops):
    a = np.concatenate(loops)
    b = np.concatenate([np.roll(lp, -1, axis=0) for lp in loops])
    xs = np.array(draw(st.lists(_coord, min_size=len(a), max_size=len(a))))
    special = np.concatenate(
        [
            a,  # vertices
            0.5 * (a + b),  # edge midpoints
            a + (b - a) / 3,  # other points on edges
            np.column_stack([xs, a[:, 1]]),  # on a vertex's horizontal line
        ]
    )
    picks = draw(st.lists(st.integers(0, len(special) - 1), max_size=40))
    free = draw(st.lists(st.tuples(_coord, _coord), max_size=40))
    return np.concatenate([special[picks], np.array(free, dtype=float).reshape(-1, 2)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_points_in_loops_matches_dense(data):
    loops = data.draw(_loops())
    pts = data.draw(_points_on(loops))
    tol = data.draw(st.sampled_from([0.0, 1e-10, 0.1]))
    assert np.array_equal(_points_in_loops(pts, loops, tol), _ref_points_in_loops(pts, loops, tol))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_min_distance_to_segments_matches_dense(data):
    loops = data.draw(_loops())
    pts = data.draw(_points_on(loops))
    if data.draw(st.booleans()):
        a = np.concatenate(loops)
        b = np.concatenate([np.roll(lp, -1, axis=0) for lp in loops])
    else:  # a free segment soup, zero-length segments included
        ends = data.draw(st.lists(st.tuples(_coord, _coord, _coord, _coord), min_size=1))
        a, b = np.split(np.array(ends, dtype=float), 2, axis=1)
        if data.draw(st.booleans()):
            b[0] = a[0]
    got = _min_distance_to_segments(pts, a, b)
    assert np.array_equal(got, _ref_min_distance_to_segments(pts, a, b))


def test_kernels_on_empty_points_and_single_segment():
    empty = np.empty((0, 2))
    a, b = np.array([[0.0, 0.0]]), np.array([[1.0, 0.5]])
    assert _min_distance_to_segments(empty, a, b).shape == (0,)
    for tol in (0.0, 0.1):
        assert _points_in_loops(empty, SHAPES["annulus"], tol).shape == (0,)
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 0.25], [2.0, -1.0], [-3.0, 4.0]])
    assert np.array_equal(
        _min_distance_to_segments(pts, a, b), _ref_min_distance_to_segments(pts, a, b)
    )


# -- meshes built on either kernel are identical -------------------------------


@pytest.mark.parametrize(
    "spec, h",
    [
        (Disk(1.0), 0.04),
        (Ellipse(2.0, 1.0), 0.05),
        (Annulus(0.5, 1.0), 0.08),
        (Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))), 0.1),
    ],
    ids=lambda v: getattr(v, "kind", str(v)),
)
def test_build_domain_mesh_matches_dense_kernels(spec, h, monkeypatch):
    fast = build_domain(spec, h)
    # meshing imports _points_in_loops by name, so both modules are patched
    monkeypatch.setattr(domain, "_points_in_loops", _ref_points_in_loops)
    monkeypatch.setattr(meshing, "_points_in_loops", _ref_points_in_loops)
    monkeypatch.setattr(domain, "_min_distance_to_segments", _ref_min_distance_to_segments)
    dense = build_domain(spec, h)
    assert np.array_equal(fast.vertices, dense.vertices)
    assert np.array_equal(fast.triangles, dense.triangles)
    assert np.array_equal(fast.boundary_edges, dense.boundary_edges)
