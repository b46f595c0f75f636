"""Acceptance gate: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them as they complete)."""

import math
import random
import time

import numpy as np
import pytest

from extremal_lab import analytic, cli, fem, overdet, shapeopt
from extremal_lab.geom2d import (
    Disk,
    Line,
    PeriodicStrip,
    build_domain,
)

J01 = 2.404825557695773
J01SQ = 5.783185962946785
H0_UNIT = 1.926234846977253  # 1 / J1(j01)


def _verdict(num: int, name: str, checks: dict[str, bool]) -> None:
    ok = all(checks.values())
    print(f"\n[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    for label, good in checks.items():
        if not good:
            print(f"  - failed: {label}")
    assert ok, f"criterion {num} ({name}) failed: " + ", ".join(
        k for k, v in checks.items() if not v
    )


@pytest.fixture(scope="module")
def disk_eigens(disk_mesh_h08, disk_mesh_h04, disk_mesh_h02):
    out = {}
    for h, mesh in ((0.08, disk_mesh_h08), (0.04, disk_mesh_h04), (0.02, disk_mesh_h02)):
        t0 = time.perf_counter()
        k, m = fem.assemble(mesh)
        ep = fem.eigen_smallest(k, m, mesh)
        out[h] = (ep, mesh, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def critical_disk_solution():
    """FEM eigenfunction on Disk(R_1), rescaled so the measured flux is -1."""
    mesh = build_domain(Disk(analytic.r_lambda(1.0)), 0.02 * analytic.r_lambda(1.0))
    k, m = fem.assemble(mesh)
    ep = fem.eigen_smallest(k, m, mesh)
    rep = overdet.overdet_residual(k, m, mesh, ep.u1, ep.lambda1 * ep.u1)
    u = ep.u1 * (-1.0 / rep.alpha_hat)
    rep = overdet.overdet_residual(k, m, mesh, u, 1.0 * u)
    return mesh, u, rep


@pytest.fixture(scope="module")
def branch():
    cell = shapeopt.strip_cell(1.0, 2 * math.pi, 16, 10)  # one cell, as the branch command builds
    t_star = shapeopt.bifurcation_period(cell)
    points = shapeopt.continue_branch(cell, t_star, s_max=0.06, ds=0.005)
    return t_star, points


@pytest.mark.slow
def test_criterion_1_disk_eigen_convergence(disk_eigens):
    errs = {h: abs(ep.lambda1 - J01SQ) for h, (ep, _, _) in disk_eigens.items()}
    order_coarse = math.log(errs[0.08] / errs[0.04]) / math.log(2.0)
    order_fine = math.log(errs[0.04] / errs[0.02]) / math.log(2.0)
    checks = {
        "lambda1(h=0.02) within 0.5% of j01^2": errs[0.02] / J01SQ <= 0.005,
        "observed order (0.08 -> 0.04) in [1.8, 2.2]": 1.8 <= order_coarse <= 2.2,
        "observed order (0.04 -> 0.02) in [1.8, 2.2]": 1.8 <= order_fine <= 2.2,
        "runtime < 30 s per solve": max(t for _, _, t in disk_eigens.values()) < 30.0,
    }
    _verdict(1, "disk eigenvalue convergence", checks)


@pytest.mark.slow
def test_criterion_2_serrin_discrimination(disk_eigens, ellipse_mesh_h02):
    ep, mesh, _ = disk_eigens[0.02]
    rep_disk = overdet.overdet_residual(*fem.assemble(mesh), mesh, ep.u1, ep.lambda1 * ep.u1)
    k, m = fem.assemble(ellipse_mesh_h02)
    epe = fem.eigen_smallest(k, m, ellipse_mesh_h02)
    rep_ell = overdet.overdet_residual(
        k, m, ellipse_mesh_h02, epe.u1, epe.lambda1 * epe.u1
    )
    checks = {
        "disk spread <= 1%": rep_disk.rel_spread <= 0.01,
        "ellipse(2,1) spread >= 20%": rep_ell.rel_spread >= 0.20,
    }
    _verdict(2, "Serrin discrimination", checks)


@pytest.mark.slow
def test_criterion_3_h0_oracle(critical_disk_solution, strip_mesh, branch):
    sol = analytic.ball_solution(1.0, -1.0)
    mesh, u, rep = critical_disk_solution
    # strip at lambda = 1 scaled to alpha = -1: max u = 1 < h0
    k, m = fem.assemble(strip_mesh)
    eps = fem.eigen_smallest(k, m, strip_mesh)
    reps = overdet.overdet_residual(k, m, strip_mesh, eps.u1, eps.lambda1 * eps.u1)
    us = eps.u1 * (-1.0 / reps.alpha_hat)
    chk_strip = overdet.check_T5(strip_mesh, us, 1.0, -1.0)
    # every branch point sits below its own h0 threshold, so the T5 check is
    # vacuous there: assert the conditional and the vacuous passes
    _, points = branch
    t5_branch_ok = True
    for p in points[1:]:
        chk = overdet.check_T5(p.mesh, p.u, p.lam, p.alpha_hat)
        nonvacuous = "empty_superlevel" not in chk.flags
        has_excess = p.max_u > analytic.ball_solution(p.lam, p.alpha_hat).h0
        if nonvacuous != has_excess or not chk.passed:
            t5_branch_ok = False
    checks = {
        "h0(1,-1) = 1/J1(j01) within 1e-6": abs(sol.h0 - H0_UNIT) <= 1e-6,
        "FEM max u on critical disk within 1% of h0": abs(
            float(u.max()) - sol.h0
        ) / sol.h0 <= 0.01,
        "T5 vacuous pass on the strip (max u < h0)": chk_strip.passed
        and "empty_superlevel" in chk_strip.flags,
        "T5 consistent (and passing) on every branch point": t5_branch_ok,
    }
    _verdict(3, "h0 oracle and superlevel diameters", checks)


@pytest.mark.slow
def test_criterion_4_ball_exclusion(branch):
    g = 0.02
    chk_disk = overdet.check_T4(Disk(analytic.r_lambda(1.0)), 1.0, g)
    _, points = branch
    margins = []
    for p in points:
        chk = overdet.check_T4(PeriodicStrip(p.period, p.coeffs), p.lam, 0.05)
        margins.append(chk.margin if chk.passed else -1.0)
    checks = {
        "critical disk margin within 2g of zero": abs(chk_disk.margin) < 2 * g,
        "critical disk passes": bool(chk_disk.passed),
        "positive margin on every branch point": all(m > 0 for m in margins),
    }
    _verdict(4, "inscribed-ball exclusion", checks)


@pytest.mark.slow
def test_criterion_5_p_function(critical_disk_solution, strip_solves):
    errs = {}
    for h in (0.04, 0.02):
        mesh, _, _, ep, rep = strip_solves[h]
        pr = overdet.p_function(mesh, ep.u1, fem.Linear(ep.lambda1), rep)
        errs[h] = float(np.max(np.abs(pr.p - rep.alpha_hat**2)) / rep.alpha_hat**2)
    dmesh, du, drep = critical_disk_solution
    pr_disk = overdet.p_function(dmesh, du, fem.Linear(1.0), drep)
    checks = {
        "strip max|P - a^2|/a^2 <= 2% at h=0.04": errs[0.04] <= 0.02,
        "strip error halves at h=0.02": errs[0.02] <= errs[0.04] / 2.0,
        "disk interior max P matches h0^2 * lambda": abs(
            pr_disk.interior_max - H0_UNIT**2
        ) / H0_UNIT**2 <= 0.02,
        "disk interior max P exceeds alpha^2": pr_disk.interior_max > drep.alpha_hat**2,
        "criterion_holds is False on the disk": not pr_disk.criterion_holds,
    }
    _verdict(5, "P-function", checks)


@pytest.mark.slow
def test_criterion_6_boundary_identity(critical_disk_solution):
    mesh, u, rep = critical_disk_solution
    pr = overdet.p_function(mesh, u, fem.Linear(1.0), rep)
    target = 1.0 / analytic.r_lambda(1.0)
    rel = np.abs(pr.implied_curvature - target) / target
    checks = {
        "u_tt/(-alpha) matches 1/R within 5% at every boundary vertex": float(rel.max())
        <= 0.05,
        "geometric curvature equals 1/R within 1%": bool(
            np.all(np.abs(pr.geometric_curvature - target) / target <= 0.01)
        ),
    }
    _verdict(6, "boundary identity u_tt + alpha k = 0", checks)


@pytest.mark.slow
def test_criterion_7_shape_flow(ellipse_flow):
    res, wall = ellipse_flow
    pts = res.final.boundary
    x, y = pts.T
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    cent = np.array([(x + np.roll(x, -1)) @ cross, (y + np.roll(y, -1)) @ cross]) / (3 * cross.sum())
    hausdorff = float(np.max(np.abs(np.hypot(*(pts - cent).T) - 1.0)))
    areas = [s.area for s in res.states]
    checks = {
        "<= 300 steps": len(res.states) - 1 <= 300,
        "Hausdorff distance to the unit disk <= 0.01": hausdorff <= 0.01,
        "final lambda1 within 0.5% of j01^2": abs(res.final.lambda1 - J01SQ) / J01SQ
        <= 0.005,
        "area drift <= 0.1%": max(abs(a - math.pi) / math.pi for a in areas) <= 1e-3,
        "runtime < 10 min": wall < 600.0,
    }
    _verdict(7, "shape flow to the ball", checks)


def _strip_line_sample(mesh, n_random: int, seed: int) -> list[Line]:
    rng = random.Random(seed)
    v = mesh.vertices
    ymax = float(v[:, 1].max())
    wall = v[np.abs(v[:, 1]) > 0.5 * ymax]
    wmin, wmax = float(np.abs(wall[:, 1]).min()), ymax
    lines = []
    for k in range(1, 9):  # horizontal cuts slicing the wall bulges
        yc = wmin + (wmax - wmin) * k / 9.0
        lines.append(Line((0.0, yc), (1.0, 0.0)))
    for _ in range(n_random):
        px = mesh.period * rng.random()
        py = 0.9 * ymax * (2 * rng.random() - 1)
        theta = math.pi * (0.15 + 0.7 * rng.random())
        lines.append(Line((px, py), (math.cos(theta), math.sin(theta))))
    return lines


@pytest.mark.slow
def test_criterion_8_bifurcation_and_branch(branch):
    t1, points = branch
    t4 = shapeopt.bifurcation_period(shapeopt.strip_cell(4.0, math.pi, 16, 1))
    accepted = [p for p in points[1:] if p.converged]
    bounded_caps_seen = 0
    caps_ok = True
    t4_ok = True
    for p in accepted:
        chk_t4 = overdet.check_T4(PeriodicStrip(p.period, p.coeffs), p.lam, 0.05)
        t4_ok = t4_ok and bool(chk_t4.passed)
        chk_caps = overdet.check_cap_heights(
            p.mesh, p.lam, _strip_line_sample(p.mesh, 8, seed=11)
        )
        caps_ok = caps_ok and bool(chk_caps.passed)
        if "no_bounded_caps" not in chk_caps.flags:
            bounded_caps_seen += 1
    checks = {
        "T*(4) = T*(1)/2 within 1e-4 relative": abs(t4 - t1 / 2) / (t1 / 2) <= 1e-4,
        ">= 10 accepted nonstraight points": len(accepted) >= 10,
        "spread <= 1e-6 at every accepted point": all(p.spread <= 1e-6 for p in accepted),
        "max u >= |alpha|/sqrt(lambda) - 1e-4 at every point": all(
            p.max_u >= abs(p.alpha_hat) / math.sqrt(p.lam) - 1e-4 for p in accepted
        ),
        "check_T4 passes on every accepted point": t4_ok,
        "check_cap_heights passes on every accepted point": caps_ok,
        "bounded caps were actually exercised": bounded_caps_seen >= 1,
    }
    _verdict(8, "bifurcation period and branch", checks)


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path):
    data = {
        "command": "eigen",
        "domain": {"kind": "disk", "radius": 1.0},
        "h": 0.06,
        "seed": 7,
    }
    recs = []
    for sub in ("a", "b"):
        cfg = cli.load_config(dict(data), out_dir=str(tmp_path / sub))
        recs.append(cli.run(cfg))
    identical = recs[0].manifest == recs[1].manifest
    byte_equal = all(
        (tmp_path / "a" / m["path"]).read_bytes() == (tmp_path / "b" / m["path"]).read_bytes()
        for m in recs[0].manifest
    )
    has_csv_json = {m["path"].rsplit(".", 1)[1] for m in recs[0].manifest} >= {"csv", "json"}
    checks = {
        "manifests (digests) identical": identical,
        "all outputs byte-identical": byte_equal,
        "CSV and JSON outputs present": has_csv_json,
    }
    _verdict(9, "deterministic replay", checks)
