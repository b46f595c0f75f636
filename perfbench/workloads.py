"""The benchmark's workloads: the CLI commands each one runs, their JSON
configs, and the oracles that check every output.

Oracles come from scipy.special and closed forms, never from the program
under test or from a stored copy of its output.  The workload seed reaches
the program only through the `seed` field of the `check` configs, where it
chooses the L3R cutting lines.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import scipy.special

J01 = float(scipy.special.jn_zeros(0, 1)[0])
J1_AT_J01 = float(scipy.special.j1(J01))

DISK_H = (0.08, 0.04, 0.02)
ELLIPSE = (2.0, 1.0)
FLOW_ELLIPSE = (1.2, 1.0 / 1.2)
FLOW_STEPS = 8
STRIP_LAMBDA = 1.0
BULGE = (math.pi / 2, 0.3)
THEOREMS = ["T4", "T5", "L3R", "T8"]


@dataclass
class Op:
    """One CLI command: `extremal-lab <command> --config <name>.json --out <round>/<name>`."""

    name: str
    command: str
    config: dict
    check: Callable[[Path], list[str]]


def build(workload: str, seed: int, round_dir: Path) -> list[Op]:
    return {"bounded": _bounded, "flow": _flow, "strip": _strip}[workload](seed, round_dir)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _require(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# -- bounded ---------------------------------------------------------------------


def _bounded(seed: int, round_dir: Path) -> list[Op]:
    lam_disk = J01**2
    ops = []
    for h in DISK_H:

        def check_disk(d: Path, h=h) -> list[str]:
            rep = _read_json(d / f"disk_h{h}" / "report.json")
            p: list[str] = []
            # a conforming P1 eigenvalue on the inscribed polygon bounds the
            # disk's eigenvalue from above
            _require(p, rep["lambda1"] >= lam_disk, f"disk lambda1 {rep['lambda1']} < j01^2")
            if h == min(DISK_H):
                _require(p, _rel(rep["lambda1"], lam_disk) <= 5e-3,
                         f"finest disk lambda1 {rep['lambda1']} not within 0.5% of j01^2")
                u0 = 1.0 / (math.sqrt(math.pi) * J1_AT_J01)
                _require(p, _rel(rep["max_u"], u0) <= 5e-3,
                         f"finest disk max u {rep['max_u']} not within 0.5% of 1/(sqrt(pi) J1(j01))")
            return p

        ops.append(Op(f"disk_h{h}", "eigen",
                      {"command": "eigen", "domain": {"kind": "disk", "radius": 1.0}, "h": h},
                      check_disk))

    def check_report(d: Path) -> list[str]:
        lams = [_read_json(d / f"disk_h{h}" / "report.json")["lambda1"] for h in DISK_H]
        errs = [lam - lam_disk for lam in lams]
        orders = [
            math.log(errs[i] / errs[i + 1]) / math.log(DISK_H[i] / DISK_H[i + 1])
            for i in range(len(DISK_H) - 1)
        ]
        reported = _read_json(d / "report" / "summary.json")["observed_orders"]
        p: list[str] = []
        _require(p, all(1.8 <= q <= 2.2 for q in orders), f"observed orders {orders} outside [1.8, 2.2]")
        _require(p, len(reported) == len(orders)
                 and all(abs(a - b) <= 1e-6 for a, b in zip(orders, reported)),
                 f"report orders {reported} disagree with {orders}")
        return p

    ops.append(Op("report", "report",
                  {"command": "report",
                   "records": [str(round_dir / f"disk_h{h}" / "record.json") for h in DISK_H]},
                  check_report))

    def check_ellipse(d: Path) -> list[str]:
        rep = _read_json(d / "ellipse" / "report.json")
        a, b = ELLIPSE
        p: list[str] = []
        _require(p, rep["lambda1"] >= lam_disk / (a * b),
                 f"ellipse lambda1 {rep['lambda1']} below the Faber-Krahn bound")
        _require(p, rep["rel_spread"] >= 0.2, f"ellipse flux spread {rep['rel_spread']} < 20%")
        return p

    ops.append(Op("ellipse", "eigen",
                  {"command": "eigen", "h": 0.05,
                   "domain": {"kind": "ellipse", "semi_a": ELLIPSE[0], "semi_b": ELLIPSE[1]}},
                  check_ellipse))

    def check_allen_cahn(d: Path) -> list[str]:
        rep = _read_json(d / "allen_cahn" / "report.json")
        p: list[str] = []
        _require(p, rep["trivial_solution"] is False, "Allen-Cahn solution is trivial")
        _require(p, 0.0 < rep["max_u"] < 1.0, f"Allen-Cahn max u {rep['max_u']} outside (0, 1)")
        _require(p, rep.get("rel_spread", math.inf) <= 0.01,
                 f"Allen-Cahn disk flux spread {rep.get('rel_spread')} > 1%")
        return p

    ops.append(Op("allen_cahn", "solve",
                  {"command": "solve", "domain": {"kind": "disk", "radius": 3.0}, "h": 0.1,
                   "nonlinearity": {"kind": "allen_cahn"}},
                  check_allen_cahn))

    def check_critical_disk(d: Path) -> list[str]:
        blob = _read_json(d / "critical_disk" / "checks.json")
        checks = {c["theorem"]: c for c in blob["checks"]}
        p: list[str] = []
        _require(p, sorted(checks) == sorted(THEOREMS), f"checks reported: {sorted(checks)}")
        for tag in ("T4", "T5", "L3R"):
            _require(p, checks.get(tag, {}).get("pass") is True, f"{tag} fails on the critical disk")
        t4 = checks.get("T4", {})
        _require(p, t4.get("margin") is not None and abs(t4["margin"]) <= 2 * blob["grid"],
                 f"T4 margin {t4.get('margin')} not within 2 grid of 0")
        return p

    ops.append(Op("critical_disk", "check",
                  {"command": "check", "domain": {"kind": "disk", "radius": J01}, "h": 0.05,
                   "lambda": 1.0, "theorems": THEOREMS, "seed": seed},
                  check_critical_disk))
    return ops


# -- flow ------------------------------------------------------------------------


def _shoelace(rows: list[dict]) -> float:
    xs = [float(r["x"]) for r in rows]
    ys = [float(r["y"]) for r in rows]
    n = len(xs)
    return 0.5 * sum(xs[i] * ys[(i + 1) % n] - xs[(i + 1) % n] * ys[i] for i in range(n))


def _flow(seed: int, round_dir: Path) -> list[Op]:
    a, b = FLOW_ELLIPSE
    area = math.pi * a * b

    def check_flow(d: Path) -> list[str]:
        lams = [float(r["lambda1"]) for r in _read_csv(d / "flow" / "trajectory.csv")]
        p: list[str] = []
        _require(p, all(later <= earlier * (1 + 1e-12) for earlier, later in zip(lams, lams[1:])),
                 "lambda1 increases along the trajectory")
        # Faber-Krahn at area pi: no domain of that area beats the unit disk
        _require(p, min(lams) >= J01**2 * math.pi / area, "a lambda1 lies below j01^2")
        _require(p, len(lams) > 1 and lams[-1] < lams[0], "the final lambda1 is not below the first")
        poly_area = _shoelace(_read_csv(d / "flow" / "final_boundary.csv"))
        _require(p, abs(poly_area - area) <= 1e-3, f"final boundary area {poly_area} is not pi")
        return p

    return [Op("flow", "flow",
               {"command": "flow", "domain": {"kind": "ellipse", "semi_a": a, "semi_b": b},
                "h": 0.05, "max_steps": FLOW_STEPS},
               check_flow)]


# -- strip -----------------------------------------------------------------------


def _strip(seed: int, round_dir: Path) -> list[Op]:
    lam = STRIP_LAMBDA
    sq = math.sqrt(lam)

    def check_branch(d: Path) -> list[str]:
        rep = _read_json(d / "branch" / "report.json")
        rows = _read_csv(d / "branch" / "branch.csv")
        p: list[str] = []
        tstar = rep["bifurcation_period"]
        _require(p, tstar is not None and _rel(tstar, 2 * math.pi / sq) <= 1e-3,
                 f"bifurcation period {tstar} not within 1e-3 of 2 pi / sqrt(lambda)")
        _require(p, len(rows) >= 3 and rep["n_accepted"] == rep["n_points"] == len(rows),
                 f"{len(rows)} rows, {rep['n_accepted']} of {rep['n_points']} points accepted")
        if not rows:
            return p
        t0 = float(rows[0]["T"])
        flux0 = -math.sqrt(2.0 / (math.pi * t0))  # flux of the mass-normalised cos(y)
        _require(p, _rel(float(rows[0]["alpha_hat"]), flux0) <= 1e-3,
                 f"first branch flux {rows[0]['alpha_hat']} vs {flux0}")
        area0 = 2.0 * (math.pi / (2.0 * sq)) * t0
        for i, r in enumerate(rows):
            alpha = float(r["alpha_hat"])
            _require(p, float(r["spread"]) <= 1e-6, f"point {i}: spread {r['spread']} > 1e-6")
            _require(p, _rel(2.0 * float(r["c_0"]) * float(r["T"]), area0) <= 1e-10,
                     f"point {i}: cell area drifted")
            _require(p, float(r["max_u"]) >= abs(alpha) / sq - 1e-4,
                     f"point {i}: max u {r['max_u']} below |alpha|/sqrt(lambda)")
        return p

    def check_bulge(d: Path) -> list[str]:
        blob = _read_json(d / "bulged_strip" / "checks.json")
        checks = {c["theorem"]: c for c in blob["checks"]}
        p: list[str] = []
        _require(p, sorted(checks) == sorted(THEOREMS), f"checks reported: {sorted(checks)}")
        c0, c1 = BULGE
        grid = blob["grid"]
        rho = checks.get("T4", {}).get("measured")
        _require(p, rho is not None and c0 - abs(c1) - grid <= rho <= c0 + abs(c1) + grid,
                 f"T4 radius {rho} outside the half-width range")
        return p

    return [
        Op("branch", "branch",
           {"command": "branch", "lambda": lam, "s_max": 0.01, "ds": 0.005},
           check_branch),
        Op("bulged_strip", "check",
           {"command": "check", "h": 0.15, "lambda": lam, "theorems": THEOREMS, "seed": seed,
            "n_lines": 8,
            "domain": {"kind": "periodic_strip", "period": 2 * math.pi,
                       "half_width_coeffs": list(BULGE)}},
           check_bulge),
    ]
