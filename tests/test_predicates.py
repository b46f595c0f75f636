import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremal_lab.errors import EmptyDomain, NonTransversal
from extremal_lab.geom2d import (
    Annulus,
    Disk,
    Line,
    PeriodicStrip,
    Polygon,
    build_domain,
    cap_reflect,
    component_diameter,
    inscribed_ball,
    min_enclosing_circle,
)

DUMBBELL = Polygon(
    (
        (0, 0), (1, 0), (1, 0.4), (1.5, 0.4), (1.5, 0), (2.5, 0),
        (2.5, 1), (1.5, 1), (1.5, 0.6), (1, 0.6), (1, 1), (0, 1),
    )
)


# -- component_diameter --------------------------------------------------------


def test_diameter_trivial_cases():
    assert component_diameter([(0, 0), (3, 4)]) == 5.0
    assert component_diameter([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(math.sqrt(2))
    assert component_diameter([(2, 3)]) == 0.0


def _brute_diameter(pts):
    brute = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            brute = max(brute, float(np.hypot(*(pts[i] - pts[j]))))
    return brute


def test_diameter_of_a_parallelogram():
    # centrally symmetric: its antipodal hull edges are parallel
    pts = np.array([(0.249, 0.457), (-0.249, -0.457), (0.057, 0.022), (-0.057, -0.022)])
    assert component_diameter(pts) == _brute_diameter(pts)
    assert component_diameter(pts) == pytest.approx(1.04087, abs=1e-5)


def test_diameter_random_disk_cloud():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(1000, 2))
    pts = pts[np.hypot(*pts.T) <= 1.0]
    d = component_diameter(pts)
    brute = max(
        float(np.max(np.hypot(*(pts[i] - pts).T))) for i in range(len(pts))
    )
    assert d == brute
    assert d <= 2.0


_COORD = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
# float points together with their mirror images through the origin: a
# centrally symmetric hull, whose antipodal edges are parallel
_MIRRORED = st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=20).map(
    lambda pts: pts + [(-x, -y) for x, y in pts]
)


@given(
    st.one_of(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
            min_size=1,
            max_size=40,
        ),
        _MIRRORED,
    )
)
@settings(max_examples=240, deadline=None)
def test_diameter_matches_bruteforce_on_integers(points):
    pts = np.asarray(points, dtype=float)
    assert component_diameter(pts) == _brute_diameter(pts)


# -- min_enclosing_circle ------------------------------------------------------


def test_enclosing_circle_basic():
    c, r = min_enclosing_circle([(0, 0), (2, 0)])
    assert r == pytest.approx(1.0)
    assert c == pytest.approx([1.0, 0.0])
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(200, 2))
    c, r = min_enclosing_circle(pts)
    dist = np.hypot(*(pts - c).T)
    assert np.max(dist) <= r * (1 + 1e-9) + 1e-9
    # minimality: some point is on the circle
    assert np.max(dist) >= r - 1e-6


# -- inscribed_ball ------------------------------------------------------------


def test_inscribed_ball_disk():
    rho, center = inscribed_ball(Disk(1.5), 0.02)
    assert abs(rho - 1.5) <= 0.02
    assert np.hypot(*center) <= 0.03


def test_inscribed_ball_square():
    rho, center = inscribed_ball(Polygon(((0, 0), (1, 0), (1, 1), (0, 1))), 0.01)
    assert abs(rho - 0.5) <= 0.01
    assert np.hypot(*(center - [0.5, 0.5])) <= 0.02


def test_inscribed_ball_straight_strip():
    rho, _ = inscribed_ball(PeriodicStrip(4.0, (1.0,)), 0.02)
    assert abs(rho - 1.0) <= 0.02


def test_inscribed_ball_annulus_and_monotonicity():
    g = 0.01
    rho_small, _ = inscribed_ball(Annulus(0.5, 1.0), g)
    assert abs(rho_small - 0.25) <= g
    rho_big, _ = inscribed_ball(Annulus(0.5, 1.5), g)
    # Annulus(0.5, 1.0) is a subset of Annulus(0.5, 1.5)
    assert rho_small <= rho_big + g


def test_inscribed_ball_empty():
    with pytest.raises(EmptyDomain):
        inscribed_ball(Disk(0.005), 0.5)


@pytest.mark.parametrize("g", [1e-300, 1e-320, 5e-4])
def test_inscribed_ball_refuses_oversized_grids(g):
    # 5e-4 over the 2 x 2 box is 16M points; the check comes before any array
    for spec in (Disk(1.0), PeriodicStrip(4.0, (1.0,))):
        with pytest.raises(ValueError, match="points"):
            inscribed_ball(spec, g)


# -- cap_reflect ---------------------------------------------------------------


def test_disk_cap_example(disk_mesh_h05):
    rep = cap_reflect(disk_mesh_h05, Line((0.0, 0.3), (1.0, 0.0)))
    assert len(rep.components) == 1
    cap = rep.components[0]
    assert cap.bounded
    assert cap.height == pytest.approx(0.7, abs=0.01)
    assert cap.graph_over_chord and cap.reflection_contained


def test_square_cap_example(square_mesh):
    rep = cap_reflect(square_mesh, Line((0.0, 0.5), (1.0, 0.0)))
    assert len(rep.components) == 1
    cap = rep.components[0]
    assert cap.height == pytest.approx(0.5, abs=1e-9)
    assert cap.graph_over_chord


def test_dumbbell_reflection_fails():
    mesh = build_domain(DUMBBELL, 0.08)
    # off-center vertical cut through the neck; positive side is x < 1.15
    rep = cap_reflect(mesh, Line((1.15, 0.0), (0.0, 1.0)))
    assert any(c.bounded and not c.reflection_contained for c in rep.components)


def test_disk_symmetry_property(disk_mesh_h05):
    # minority-side caps of a disk are graphs and reflect inside, any line
    rng = np.random.default_rng(23)
    for _ in range(10):
        theta = rng.uniform(0, 2 * math.pi)
        offset = rng.uniform(0.05, 0.8)
        p = (offset * math.cos(theta), offset * math.sin(theta))
        line = Line(p, (-math.sin(theta), math.cos(theta)))
        if line.signed_distance(np.zeros((1, 2)))[0] > 0:
            line = Line(p, (math.sin(theta), -math.cos(theta)))
        for cap in cap_reflect(disk_mesh_h05, line).components:
            assert cap.graph_over_chord and cap.reflection_contained


def test_majority_disk_cap_is_not_graph(disk_mesh_h05):
    rep = cap_reflect(disk_mesh_h05, Line((0.0, -0.5), (1.0, 0.0)))
    cap = rep.components[0]
    assert not cap.graph_over_chord
    assert not cap.reflection_contained


def test_periodic_band_unbounded():
    mesh = build_domain(PeriodicStrip(6.0, (1.0, 0.1)), 0.1)
    rep = cap_reflect(mesh, Line((0.0, 0.0), (1.0, 0.0)))
    assert all(not c.bounded for c in rep.components)
    assert all(c.height is None for c in rep.components)
    assert all(c.distance_to_cut is not None for c in rep.components)


def test_periodic_bulge_caps_bounded():
    mesh = build_domain(PeriodicStrip(6.0, (1.0, 0.1)), 0.1)
    rep = cap_reflect(mesh, Line((0.0, 1.0), (1.0, 0.0)))
    bounded = rep.bounded_components()
    assert len(bounded) >= 1
    for cap in bounded:
        assert cap.height == pytest.approx(0.1, abs=0.01)
        assert cap.graph_over_chord


def test_non_transversal_rejected(square_mesh):
    # the line contains the bottom wall of the square
    with pytest.raises(NonTransversal):
        cap_reflect(square_mesh, Line((0.0, 0.0), (1.0, 0.0)))
