"""Shared expensive fixtures: meshes are deterministic in (spec, h), so one
instance per session is representative."""

import time

import numpy as np
import pytest

from extremal_lab import fem, overdet, shapeopt
from extremal_lab.geom2d import Disk, Ellipse, PeriodicStrip, Polygon, build_domain


@pytest.fixture(scope="session")
def disk_mesh_h05():
    return build_domain(Disk(1.0), 0.05)


@pytest.fixture(scope="session")
def disk_mesh_h02():
    return build_domain(Disk(1.0), 0.02)


@pytest.fixture(scope="session")
def disk_mesh_h04():
    return build_domain(Disk(1.0), 0.04)


@pytest.fixture(scope="session")
def disk_mesh_h08():
    return build_domain(Disk(1.0), 0.08)


@pytest.fixture(scope="session")
def ellipse_mesh_h02():
    return build_domain(Ellipse(2.0, 1.0), 0.02)


@pytest.fixture(scope="session")
def square_mesh():
    return build_domain(Polygon(((0, 0), (1, 0), (1, 1), (0, 1))), 0.05)


@pytest.fixture(scope="session")
def strip_mesh():
    # straight strip of width pi (lambda = 1), one period of length 2*pi
    return build_domain(PeriodicStrip(2 * np.pi, (np.pi / 2,)), 0.08)


@pytest.fixture(scope="session")
def strip_solves(strip_mesh):
    """The straight strip's first eigenpair at h = 0.08, 0.04 and 0.02:
    h -> (mesh, K, M, eigenpair, its overdet_residual report)."""
    out = {}
    for h in (0.08, 0.04, 0.02):
        mesh = strip_mesh if h == 0.08 else build_domain(PeriodicStrip(2 * np.pi, (np.pi / 2,)), h)
        k, m = fem.assemble(mesh)
        ep = fem.eigen_smallest(k, m, mesh)
        rep = overdet.overdet_residual(k, m, mesh, ep.u1, ep.lambda1 * ep.u1)
        out[h] = (mesh, k, m, ep, rep)
    return out


@pytest.fixture(scope="session")
def ellipse_flow():
    """The descent flow from the (1.2, 1/1.2) ellipse at h = 0.05 in at most
    300 steps: (its FlowResult, its wall time in seconds)."""
    t0 = time.perf_counter()
    res = shapeopt.flow_to_extremal(Ellipse(1.2, 1 / 1.2), h=0.05, max_steps=300)
    return res, time.perf_counter() - t0
