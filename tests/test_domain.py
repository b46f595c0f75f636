import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_lab.errors import InvalidSpec
from extremal_lab.geom2d import (
    Annulus,
    Disk,
    Ellipse,
    PeriodicStrip,
    Polygon,
    domain_spec_from_json,
    domain_spec_to_json,
)
from extremal_lab.geom2d.domain import _is_simple

ALL_SPECS = [
    Disk(1.0),
    Ellipse(2.0, 1.0),
    Polygon(((0, 0), (1, 0), (1, 1), (0, 1))),
    Annulus(0.5, 1.25),
    PeriodicStrip(6.0, (1.0, 0.1)),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_json_round_trip(spec):
    blob = json.dumps(domain_spec_to_json(spec))
    back = domain_spec_from_json(json.loads(blob))
    assert back == spec


_pos = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


@given(
    st.one_of(
        st.builds(Disk, radius=_pos),
        st.builds(Ellipse, semi_a=_pos, semi_b=_pos),
        st.tuples(_pos, _pos).map(lambda t: Annulus(min(t) / 2, max(t))),
        st.tuples(_pos, _pos).map(lambda t: PeriodicStrip(t[0], (t[1],))),
    )
)
@settings(max_examples=80, deadline=None)
def test_json_round_trip_property(spec):
    spec.validate()
    back = domain_spec_from_json(json.loads(json.dumps(domain_spec_to_json(spec))))
    assert back == spec


def test_json_needs_kind():
    with pytest.raises(InvalidSpec):
        domain_spec_from_json({"radius": 1.0})
    with pytest.raises(InvalidSpec):
        domain_spec_from_json({"kind": "hyperbola"})


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        Disk(-1.0).validate()
    with pytest.raises(InvalidSpec):
        Annulus(1.0, 0.5).validate()
    with pytest.raises(InvalidSpec):
        PeriodicStrip(5.0, (0.1, 0.5)).validate()  # half-width dips negative
    # clockwise square
    with pytest.raises(InvalidSpec):
        Polygon(((0, 0), (0, 1), (1, 1), (1, 0))).validate()
    # bow-tie
    with pytest.raises(InvalidSpec):
        Polygon(((0, 0), (1, 1), (1, 0), (0, 1))).validate()


def test_areas():
    assert Disk(1.5).area() == pytest.approx(math.pi * 2.25)
    assert Ellipse(2, 1).area() == pytest.approx(2 * math.pi)
    assert Polygon(((0, 0), (2, 0), (2, 1), (0, 1))).area() == pytest.approx(2.0)
    assert Annulus(0.5, 1.0).area() == pytest.approx(math.pi * 0.75)
    # oscillatory half-width modes do not change the cell area
    assert PeriodicStrip(6.0, (1.0, 0.3, -0.1)).area() == pytest.approx(12.0)


def test_contains_strip_and_annulus():
    s = PeriodicStrip(4.0, (1.0, 0.25))
    pts = np.array([[0.0, 1.2], [0.0, 1.3], [2.0, 0.74], [2.0, 0.8]])
    assert list(s.contains(pts)) == [True, False, True, False]
    a = Annulus(0.5, 1.0)
    pts = np.array([[0.0, 0.0], [0.7, 0.0], [1.1, 0.0]])
    assert list(a.contains(pts)) == [False, True, False]


def test_polygon_signed_distance_sign():
    p = Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    d = p.signed_distance(np.array([[0.5, 0.5], [2.0, 0.5]]))
    assert d[0] == pytest.approx(-0.5)
    assert d[1] == pytest.approx(1.0)


def test_straight_strip_signed_distance_is_exact():
    s = PeriodicStrip(3.0, (0.8,))
    rng = np.random.default_rng(3)
    # several periods, inside and outside the strip
    pts = np.column_stack([rng.uniform(-10.0, 15.0, 400), rng.uniform(-2.0, 2.0, 400)])
    assert np.max(np.abs(s.signed_distance(pts) - (np.abs(pts[:, 1]) - 0.8))) <= 1e-12


def _wall_distance_brute(s, pts, n=100_001):
    """Distance to both walls, each a polyline through n points on [-T, 2T]."""
    xs = np.linspace(-s.period, 2.0 * s.period, n)
    best = np.full(len(pts), np.inf)
    for sign in (1.0, -1.0):
        wall = np.column_stack([xs, sign * s.half_width(xs)])
        a, ab = wall[:-1], np.diff(wall, axis=0)
        den = np.einsum("ij,ij->i", ab, ab)
        for i, p in enumerate(pts):
            ap = p - a
            t = np.clip(np.einsum("ij,ij->i", ap, ab) / den, 0.0, 1.0)
            best[i] = min(best[i], float(np.hypot(*(ap - t[:, None] * ab).T).min()))
    return best


def test_bulged_strip_signed_distance_matches_a_dense_wall():
    s = PeriodicStrip(2 * math.pi, (math.pi / 2, 0.3))
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5 * s.period, 1.5 * s.period, 120)
    pts = np.column_stack([x, rng.uniform(-2.5, 2.5, 120)])
    sd = s.signed_distance(pts)
    assert np.max(np.abs(np.abs(sd) - _wall_distance_brute(s, pts))) <= 1e-5
    # one period over, and mirrored, the distance is the same
    assert np.max(np.abs(s.signed_distance(pts + [3 * s.period, 0.0]) - sd)) <= 1e-9
    assert np.array_equal(s.signed_distance(pts * [1.0, -1.0]), sd)


@pytest.mark.parametrize("coeffs", [(0.8,), (math.pi / 2, 0.3), (1.0, 0.25, -0.1)])
def test_strip_signed_distance_sign_agrees_with_contains(coeffs):
    s = PeriodicStrip(4.0, coeffs)
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(-8.0, 12.0, 2000), rng.uniform(-2.5, 2.5, 2000)])
    assert np.array_equal(s.signed_distance(pts) < 0, s.contains(pts, tol=0.0))


# -- polygon simplicity ----------------------------------------------------------


def _is_simple_pairwise(v):
    """Reference: every pair of non-adjacent edges, one orientation test each."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    n = len(v)
    for i in range(n):
        p1, p2 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            q1, q2 = v[j], v[(j + 1) % n]
            d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
            d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
                return False
    return True


_COORD = st.one_of(
    st.integers(-3, 3).map(float),  # small grid: collinear, touching, repeated
    st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
)


@given(
    st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=14),
    st.sampled_from([0.0, 1e-15, 1e-9]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_is_simple_matches_pairwise_loop(points, jitter, seed):
    v = np.asarray(points, dtype=float)
    v = v + jitter * np.random.default_rng(seed).standard_normal(v.shape)
    assert _is_simple(v) == _is_simple_pairwise(v)


def test_is_simple_across_row_chunks():
    # 2500 edges span several row chunks; the one crossing sits near the end
    theta = 2 * math.pi * np.arange(2500) / 2500
    v = np.column_stack([np.cos(theta), np.sin(theta)])
    assert _is_simple(v)
    v[[2400, 2401]] = v[[2401, 2400]]
    assert not _is_simple(v)
