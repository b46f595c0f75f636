"""Experiment driver: one JSON config in, deterministic files out.

Commands: solve | eigen | check | flow | branch | report.  Every run writes
its data as CSV/JSON (figures are SVG renderings of data that is also saved
as CSV) plus a record.json carrying the config snapshot, version tag, wall
time, and a sha256 manifest of the produced files.  Re-running a config with
the same version reproduces identical digests.

Every config key has one row in `_KEYS`: its parser (type and range), its
default and the commands that read it.  `load_config` parses a config against
that table alone, so a key the command does not read or a value out of type
or range is a config error before anything runs, and runners read parsed
values through `RunConfig[key]`.

Exit codes: 0 success, 1 numerical failure (partial outputs kept), 2 config
error (nothing written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse.linalg import splu

from . import __version__, analytic, fem, overdet, shapeopt, svgfig
from .errors import ConfigInvalid, ExtremalLabError, VersionMismatch
from .geom2d import Line, build_domain, domain_spec_from_json, domain_spec_to_json
from .geom2d.domain import Annulus, PeriodicStrip, json_number
from .geom2d.predicates import MAX_GRID_POINTS, grid_point_count

COMMANDS = ("solve", "eigen", "check", "flow", "branch", "report")
THEOREMS = ("T4", "T5", "L3R", "T8")

# keys the snapshot records in parsed form (out_dir not at all); every other key as given
_SNAPSHOT_PARSED = {"command", "domain", "nonlinearity", "alpha", "h", "tolerances", "out_dir",
                    "seed"}


@dataclass
class RunConfig:
    command: str
    out_dir: str
    values: dict  # every key the command reads, parsed, defaults filled in
    data: dict  # the config as given

    def __getitem__(self, key: str):
        return self.values[key]

    def snapshot(self) -> dict:
        v = self.values
        return {
            "command": self.command,
            "domain": domain_spec_to_json(v["domain"]) if "domain" in v else None,
            "nonlinearity": _nonlinearity_to_json(v.get("nonlinearity")),
            "alpha": v.get("alpha"),
            "h": v["h"],
            "tolerances": {k: v[f"tolerances.{k}"] for k in self.data.get("tolerances", {})},
            "seed": v["seed"],
            **{k: x for k, x in sorted(self.data.items()) if k not in _SNAPSHOT_PARSED},
        }

    def digest(self) -> str:
        blob = json.dumps(self.snapshot(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _nonlinearity_to_json(f) -> dict | None:
    if f is None:
        return None
    if isinstance(f, fem.Linear):
        return {"kind": "linear", "lam": f.lam}
    if isinstance(f, fem.AllenCahn):
        return {"kind": "allen_cahn"}
    if isinstance(f, fem.Tabulated):
        return {
            "kind": "tabulated",
            "breakpoints": list(f.breakpoints),
            "values": list(f.fvalues),
            "lipschitz": f.lipschitz_constant,
        }
    raise ConfigInvalid(f"unknown nonlinearity {f!r}")


def _integer(value) -> int:
    """A JSON integer; a float with an integral value such as 3.0 counts."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _where(parse: Callable, ok: Callable, text: str) -> Callable:
    """`parse`, then the range test `ok`, which `text` describes."""

    def parsed(value):
        x = parse(value)
        if not ok(x):
            raise ValueError(f"{value!r} is not {text}")
        return x

    return parsed


def _nullable(parse: Callable) -> Callable:
    return lambda value: None if value is None else parse(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _list_of(ok: Callable, text: str) -> Callable:
    def parsed(value) -> tuple:
        if not isinstance(value, list) or not all(ok(x) for x in value):
            raise ValueError(f"{value!r} is not a list of {text}")
        return tuple(value)

    return parsed


_NONLINEARITY_KEYS = {"linear": ("lam",), "allen_cahn": (),
                      "tabulated": ("breakpoints", "values", "lipschitz")}


def _nonlinearity_from_json(data) -> fem.NonlinearitySpec:
    if not isinstance(data, dict):
        raise ConfigInvalid("nonlinearity must be an object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _NONLINEARITY_KEYS:
        raise ConfigInvalid(f"unknown nonlinearity kind {kind!r}")
    stray = sorted(set(data) - {"kind", *_NONLINEARITY_KEYS[kind]})
    if stray:
        raise ConfigInvalid(f"nonlinearity kind {kind!r} reads no keys {stray}")
    if kind == "linear":
        return fem.Linear(json_number(data["lam"]))
    if kind == "allen_cahn":
        return fem.AllenCahn()
    return fem.Tabulated(
        tuple(map(json_number, data["breakpoints"])),
        tuple(map(json_number, data["values"])),
        json_number(data["lipschitz"]),
    )


class _Key(NamedTuple):
    parse: Callable  # JSON value -> parsed value; raises on a wrong type or range
    default: object  # _REQUIRED, a value, or a function of the values parsed before it
    commands: tuple[str, ...]


_REQUIRED = object()
_POSITIVE = _where(json_number, lambda x: x > 0, "> 0")
_TOLERANCE = _where(json_number, lambda x: 1e-14 <= x <= 1e-1, "in [1e-14, 1e-1]")

# tolerances.<name> is the key <name> of the "tolerances" object
_KEYS = {
    "command": _Key(_where(_string, lambda c: c in COMMANDS, "a command"), _REQUIRED, COMMANDS),
    "out_dir": _Key(_where(_string, lambda s: "\0" not in s, "a path"), ".", COMMANDS),
    "h": _Key(_where(json_number, lambda x: 1e-4 < x < 1.0, "in (1e-4, 1)"), 0.05, COMMANDS),
    "seed": _Key(_integer, 0, COMMANDS),
    "domain": _Key(domain_spec_from_json, _REQUIRED, ("solve", "eigen", "check", "flow")),
    "nonlinearity": _Key(_nonlinearity_from_json, _REQUIRED, ("solve",)),
    "alpha": _Key(_nullable(_where(json_number, lambda x: x < 0, "< 0")), None,
                  ("eigen", "check")),
    "tolerances.eigen_tol": _Key(_TOLERANCE, 1e-10, ("eigen", "check")),
    "tolerances.newton_tol": _Key(_TOLERANCE, 1e-10, ("solve",)),
    "tolerances.spread_tol": _Key(_TOLERANCE, 1e-3, ("flow",)),
    "seed_amplitude": _Key(_POSITIVE, 0.5, ("solve",)),
    "lambda": _Key(_POSITIVE, 1.0, ("check", "branch")),
    "grid": _Key(_POSITIVE, lambda v: v["h"] / 2, ("check",)),
    "theorems": _Key(_list_of(lambda t: t in THEOREMS, f"{THEOREMS}"), THEOREMS, ("check",)),
    "n_lines": _Key(_where(_integer, lambda n: 1 <= n <= 4096, "in [1, 4096]"), 16, ("check",)),
    "max_steps": _Key(_where(_integer, lambda n: n >= 0, ">= 0"), 300, ("flow",)),
    "T": _Key(_nullable(_POSITIVE), None, ("branch",)),  # null: the bifurcation period
    "s_max": _Key(_POSITIVE, 0.05, ("branch",)),
    "ds": _Key(_where(json_number, lambda x: x != 0, "!= 0"), 0.005, ("branch",)),
    "n_modes": _Key(_where(_integer, lambda n: n >= 8, ">= 8"), 10, ("branch",)),
    "resolution": _Key(_where(_integer, lambda n: n >= 1, ">= 1"), 16, ("branch",)),
    "records": _Key(_list_of(lambda r: isinstance(r, str), "strings"), (), ("report",)),
}


def _cell_period(values: dict) -> float:
    """Period of the branch's one cell: T, or else 2 pi / sqrt(lambda), where mu vanishes."""
    return values["T"] or 2.0 * math.pi / math.sqrt(values["lambda"])


def load_config(data: dict, command: str | None = None, out_dir: str | None = None) -> RunConfig:
    """Parse a JSON config against `_KEYS`; raise ConfigInvalid on a key the
    command does not read, a missing required key, or a value out of type or range."""
    if not isinstance(data, dict):
        raise ConfigInvalid("config must be a JSON object")
    cmd = data.get("command", command)
    if command is not None and cmd != command:
        raise ConfigInvalid(f"config command {cmd!r} conflicts with CLI command {command!r}")
    if cmd not in COMMANDS:
        raise ConfigInvalid(f"command must be one of {COMMANDS}, got {cmd!r}")
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigInvalid("tolerances must be an object")
    given = {"command": cmd, **{k: v for k, v in data.items() if k != "tolerances"}}
    given.update({f"tolerances.{k}": v for k, v in tolerances.items()})
    stray = sorted(k for k in given if k not in _KEYS or cmd not in _KEYS[k].commands
                   or "." in k and k in data)  # a top-level "tolerances.x" is not tolerance x
    if stray:
        raise ConfigInvalid(f"command {cmd!r} reads no config keys {stray}")

    values: dict = {}
    for key, row in _KEYS.items():
        if cmd not in row.commands:
            continue
        if key in given:
            try:
                values[key] = row.parse(given[key])
            except (ExtremalLabError, KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigInvalid(f"bad {key}: {exc}") from exc
        elif row.default is _REQUIRED:
            raise ConfigInvalid(f"command {cmd!r} needs {key}")
        else:
            values[key] = row.default(values) if callable(row.default) else row.default

    if cmd == "flow" and isinstance(values["domain"], (PeriodicStrip, Annulus)):
        kind = values["domain"].kind
        raise ConfigInvalid(f"flow needs a bounded single-loop domain, not {kind!r}")
    if (cmd == "check" and "T4" in values["theorems"]
            and grid_point_count(values["domain"].bbox(), values["grid"]) > MAX_GRID_POINTS):
        raise ConfigInvalid(f"check grid {values['grid']} needs over {MAX_GRID_POINTS} points")
    if cmd == "branch":  # its period cell (0, T) x (-a, a) at the spacing of its mesh counts
        lam, res, period = values["lambda"], values["resolution"], _cell_period(values)
        # past MAX_GRID_POINTS cells across the half-width the bound fails anyway
        a, h = shapeopt.strip_cell_spacing(lam, period, min(res, MAX_GRID_POINTS))
        if abs(values["ds"]) >= a:  # the first predictor's c_1 = ds would pinch the strip
            raise ConfigInvalid(f"step ds {values['ds']} is not below the half-width {a}")
        if grid_point_count((0.0, period, -a, a), h) > MAX_GRID_POINTS:
            raise ConfigInvalid(f"the branch cell needs over {MAX_GRID_POINTS} mesh points")
        nx = shapeopt.strip_counts(lam, period, res)[0]
        if values["n_modes"] >= nx / 2:  # where the nx wall samples alias
            raise ConfigInvalid(f"n_modes {values['n_modes']} is not below half of {nx} columns")
    elif ("domain" in values
          and grid_point_count(values["domain"].bbox(), values["h"]) > MAX_GRID_POINTS):
        raise ConfigInvalid(f"a mesh of size {values['h']} needs over {MAX_GRID_POINTS} points")
    return RunConfig(cmd, out_dir or values["out_dir"], values, dict(data))


@dataclass
class ExperimentRecord:
    config: dict
    version: str
    wall_time: float
    manifest: list[dict]
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "version": self.version,
            "wall_time": self.wall_time,
            "manifest": self.manifest,
            "error": self.error,
        }


class _Outputs:
    """Collects produced files and their digests."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.manifest: list[dict] = []

    def write(self, name: str, content: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        data = content.encode()
        path.write_bytes(data)
        self.manifest.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
        return path


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _csv_cell(c) -> str:
    if isinstance(c, float):
        return repr(c)
    if isinstance(c, (np.floating,)):
        return repr(float(c))
    return str(c)


def _boundary_csv(mesh) -> str:
    rows = []
    for li, loop in enumerate(mesh.boundary_polygons()):
        for x, y in loop:
            rows.append([li, float(x), float(y)])
    return _csv(["loop", "x", "y"], rows)


def _eigen_solution(cfg: RunConfig, mesh):
    """First Dirichlet eigenpair and its flux report, with the eigenfunction
    rescaled to the configured flux target when one is set."""
    sol = overdet.eigen_flux(mesh, cfg["tolerances.eigen_tol"], 0.0)
    ep, u, rep = sol.eigen, sol.eigen.u1, sol.report
    if cfg["alpha"] is not None:
        c = cfg["alpha"] / rep.alpha_hat
        u, rep = fem.ScalarField(mesh, c * u.values), rep.scaled(c)
    return ep, u, rep


def _solve_eigen(cfg: RunConfig, out: _Outputs) -> dict:
    mesh = build_domain(cfg["domain"], cfg["h"])
    ep, u, rep = _eigen_solution(cfg, mesh)
    out.write("u.csv", u.export_csv())
    out.write("boundary.csv", _boundary_csv(mesh))
    digest = cfg.digest()
    out.write("domain.svg", svgfig.domain_figure(mesh.boundary_polygons(), digest))
    out.write(
        "levels.svg",
        svgfig.level_set_figure(
            mesh.vertices, mesh.triangles, u.values, mesh.boundary_polygons(), digest
        ),
    )
    report = {
        "lambda1": ep.lambda1,
        "eigen_residual": ep.residual,
        "alpha_hat": rep.alpha_hat,
        "rel_spread": rep.rel_spread,
        "max_abs_deviation": rep.max_abs_deviation,
        "loop_means": rep.loop_means,
        "n_vertices": len(mesh.vertices),
        "n_triangles": len(mesh.triangles),
        "h": cfg["h"],
        "domain": domain_spec_to_json(cfg["domain"]),
        "max_u": float(u.values.max()),
    }
    out.write("report.json", _json_dumps(report))
    return report


def _run_solve(cfg: RunConfig, out: _Outputs) -> dict:
    mesh = build_domain(cfg["domain"], cfg["h"])
    k, m = fem.assemble(mesh)
    # universal positive seed: the torsion function scaled to a set amplitude
    interior, ki, mi = fem.interior_blocks(k, m, mesh)
    tors = splu(ki).solve(mi @ np.ones(len(interior)))
    seed_dof = np.zeros(mesh.n_dofs)
    seed_dof[interior] = tors * (cfg["seed_amplitude"] / float(tors.max()))
    u0 = fem.ScalarField(mesh, mesh.expand(seed_dof))
    u = fem.solve_semilinear(
        k, m, mesh, cfg["nonlinearity"], u0, tol=cfg["tolerances.newton_tol"]
    )
    trivial = bool(float(np.max(np.abs(u.values))) < 1e-8)
    report: dict = {
        "trivial_solution": trivial,
        "max_u": float(u.values.max()),
        "h": cfg["h"],
        "domain": domain_spec_to_json(cfg["domain"]),
        "nonlinearity": _nonlinearity_to_json(cfg["nonlinearity"]),
    }
    out.write("u.csv", u.export_csv())
    out.write("boundary.csv", _boundary_csv(mesh))
    digest = cfg.digest()
    out.write("domain.svg", svgfig.domain_figure(mesh.boundary_polygons(), digest))
    if not trivial:
        rep = overdet.overdet_residual(k, m, mesh, u, cfg["nonlinearity"].f(u.values))
        pr = overdet.p_function(mesh, u, cfg["nonlinearity"], rep)
        out.write("p.csv", pr.field.export_csv())
        out.write(
            "levels.svg",
            svgfig.level_set_figure(
                mesh.vertices, mesh.triangles, u.values, mesh.boundary_polygons(), digest
            ),
        )
        out.write(
            "p_field.svg",
            svgfig.level_set_figure(
                mesh.vertices, mesh.triangles, pr.field.values, mesh.boundary_polygons(), digest
            ),
        )
        report.update(
            {
                "alpha_hat": rep.alpha_hat,
                "rel_spread": rep.rel_spread,
                "criterion_left": pr.criterion_left,
                "criterion_right": pr.criterion_right,
                "criterion_holds": pr.criterion_holds,
                "p_interior_max": pr.interior_max,
                "p_boundary_max": pr.boundary_max,
                "p_max_on_boundary": pr.max_on_boundary,
                "p_tau": pr.tau_p,
                "p_flags": pr.flags,
            }
        )
    out.write("report.json", _json_dumps(report))
    return report


def _sample_lines(cfg: RunConfig, mesh) -> list[Line]:
    rng = random.Random(cfg["seed"])
    v = mesh.vertices
    x0, x1 = float(v[:, 0].min()), float(v[:, 0].max())
    y0, y1 = float(v[:, 1].min()), float(v[:, 1].max())
    lines = []
    for _ in range(cfg["n_lines"]):
        px = x0 + (x1 - x0) * rng.random()
        py = y0 + (y1 - y0) * rng.random()
        theta = 2 * math.pi * rng.random()
        lines.append(Line((px, py), (math.cos(theta), math.sin(theta))))
    return lines


def _run_check(cfg: RunConfig, out: _Outputs) -> dict:
    lam, grid, theorems = cfg["lambda"], cfg["grid"], cfg["theorems"]
    checks = []
    mesh = build_domain(cfg["domain"], cfg["h"])
    if "T4" in theorems:
        checks.append(overdet.check_T4(cfg["domain"], lam, grid))
    needs_solution = {"T5", "L3R", "T8"} & set(theorems)
    if needs_solution:
        ep, u, rep = _eigen_solution(cfg, mesh)
        if "T5" in theorems:
            checks.append(overdet.check_T5(mesh, u, lam, rep.alpha_hat))
        if "L3R" in theorems:
            checks.append(overdet.check_cap_heights(mesh, lam, _sample_lines(cfg, mesh)))
        if "T8" in theorems:
            checks.append(
                overdet.check_T8_convexity(mesh, u, fem.Linear(ep.lambda1), rep)
            )
    out.write("boundary.csv", _boundary_csv(mesh))
    out.write("domain.svg", svgfig.domain_figure(mesh.boundary_polygons(), cfg.digest()))
    report = {"lambda": lam, "grid": grid, "checks": [c.to_json() for c in checks]}
    out.write("checks.json", _json_dumps(report))
    return report


def _run_flow(cfg: RunConfig, out: _Outputs) -> dict:
    res = shapeopt.flow_to_extremal(
        cfg["domain"], cfg["h"], cfg["max_steps"], spread_tol=cfg["tolerances.spread_tol"]
    )
    rows = [[s.step, s.lambda1, s.area, s.spread] for s in res.states]
    out.write("trajectory.csv", _csv(["step", "lambda1", "area", "spread"], rows))
    pts = np.asarray(res.final.spec.vertices)
    out.write("final_boundary.csv", _csv(["x", "y"], [[float(x), float(y)] for x, y in pts]))
    digest = cfg.digest()
    steps = np.array([s.step for s in res.states], dtype=float)
    lams = np.array([s.lambda1 for s in res.states])
    out.write(
        "flow.svg",
        svgfig.chart_figure([(steps, lams, "lambda1")], digest),
    )
    out.write("domain.svg", svgfig.domain_figure([pts], digest))
    report = {
        "reason": res.reason,
        "steps": len(res.states) - 1,
        "lambda1_final": res.final.lambda1,
        "spread_final": res.final.spread,
        "area_final": res.final.area,
        "meshes_built": res.meshes_built,
        "trials_rejected": res.trials_rejected,
    }
    out.write("report.json", _json_dumps(report))
    return report


def _run_branch(cfg: RunConfig, out: _Outputs) -> dict:
    lam, n_modes, t0, tstar = cfg["lambda"], cfg["n_modes"], cfg["T"], None
    # one period cell serves the T* search and the branch
    cell = shapeopt.strip_cell(lam, _cell_period(cfg.values), cfg["resolution"], n_modes)
    if t0 is None:
        t0 = tstar = float(shapeopt.bifurcation_period(cell))
    points = shapeopt.continue_branch(cell, t0, cfg["s_max"], cfg["ds"])
    header = (
        ["T", "s"] + [f"c_{i}" for i in range(n_modes + 1)]
        + ["alpha_hat", "spread", "max_u", "lambda"]
    )
    rows = []
    for p in points:
        rows.append(
            [p.period, p.s] + [float(c) for c in p.coeffs]
            + [p.alpha_hat, p.spread, p.max_u, p.lam]
        )
    out.write("branch.csv", _csv(header, rows))
    digest = cfg.digest()
    s_vals = np.array([p.s for p in points])
    max_us = np.array([p.max_u for p in points])
    threshold = np.array([abs(p.alpha_hat) / math.sqrt(lam) for p in points])
    out.write(
        "branch.svg",
        svgfig.chart_figure(
            [(s_vals, max_us, "max u"), (s_vals, threshold, "|alpha|/sqrt(lambda)")], digest
        ),
    )
    report = {
        "lambda": lam,
        "T0": t0,
        "bifurcation_period": tstar,
        "n_points": len(points),
        "n_accepted": sum(1 for p in points if p.converged),
        "max_spread": max(p.spread for p in points),
        "final_s": points[-1].s if points else None,
    }
    out.write("report.json", _json_dumps(report))
    return report


def run(cfg: RunConfig) -> ExperimentRecord:
    """Execute the configured pipeline and write outputs plus a record."""
    out_dir = Path(cfg.out_dir)
    out = _Outputs(out_dir)
    t0 = time.perf_counter()
    error = None
    try:
        runner = {"eigen": _solve_eigen, "solve": _run_solve, "check": _run_check,
                  "flow": _run_flow, "branch": _run_branch, "report": _run_report}[cfg.command]
        runner(cfg, out)
    except ExtremalLabError as exc:
        if isinstance(exc, (ConfigInvalid, VersionMismatch)):
            raise
        error = f"{type(exc).__name__}: {exc}"
    record = ExperimentRecord(
        config=cfg.snapshot(),
        version=__version__,
        wall_time=time.perf_counter() - t0,
        manifest=out.manifest,
        error=error,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "record.json").write_text(_json_dumps(record.to_json()))
    return record


def _run_report(cfg: RunConfig, out: _Outputs) -> dict:
    records = []
    for p in cfg["records"]:
        try:
            with open(p) as fh:
                blob = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, NUL in the path
            raise ConfigInvalid(f"cannot read record {p!r}: {exc}") from exc
        if not (isinstance(blob, dict) and isinstance(blob.get("config"), dict)
                and isinstance(blob.get("version"), str)):
            raise ConfigInvalid(f"record {p!r} is not an experiment record")
        records.append((Path(p).parent, blob))
    return report(records, out, cfg.digest())


def report(records: list[tuple[Path, dict]], out: _Outputs, digest: str = "") -> dict:
    """Aggregate theorem-check counts and eigen convergence across records."""
    versions = {r["version"] for _, r in records}
    if len(versions) > 1:
        raise VersionMismatch(f"records span versions {sorted(versions)}")

    check_counts: dict[str, dict[str, int]] = {}
    eigen_rows = []
    for base, rec in records:
        cmd = rec["config"].get("command")
        try:
            if cmd == "check":
                blob = json.loads((base / "checks.json").read_text())
                for chk in blob["checks"]:
                    tally = check_counts.setdefault(chk["theorem"], {"pass": 0, "fail": 0, "na": 0})
                    if chk["pass"] is None:
                        tally["na"] += 1
                    elif chk["pass"]:
                        tally["pass"] += 1
                    else:
                        tally["fail"] += 1
            elif cmd == "eigen":
                blob = json.loads((base / "report.json").read_text())
                domain_spec_from_json(blob["domain"])
                dom = json.dumps(blob["domain"], sort_keys=True)
                eigen_rows.append((_POSITIVE(blob["h"]), json_number(blob["lambda1"]), dom))
        except (ExtremalLabError, OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigInvalid(f"{cmd} record in {base} lacks a readable output: {exc!r}") from exc

    rows = [[tag, c["pass"], c["fail"], c["na"]] for tag, c in sorted(check_counts.items())]
    files = {"check_counts.csv": _csv(["theorem", "pass", "fail", "not_applicable"], rows)}

    conv_rows = []
    orders = []
    by_domain: dict[str, list[tuple[float, float]]] = {}
    for h, lam1, dom in eigen_rows:
        by_domain.setdefault(dom, []).append((h, lam1))
    for dom, pairs in sorted(by_domain.items()):
        pairs.sort(reverse=True)
        # the observed order and the Richardson reference divide by log(ha / hb)
        if any(ha / hb == 1.0 for (ha, _), (hb, _) in zip(pairs, pairs[1:])):
            raise ConfigInvalid(f"two eigen records of domain {dom} share h")
        if len(pairs) < 2:
            continue
        spec = json.loads(dom)
        if spec.get("kind") == "disk":
            lam_ref = analytic.j01() ** 2 / spec["radius"] ** 2
        else:
            # second-order Richardson reference from the two finest levels
            (h1, l1), (h2, l2) = pairs[-2], pairs[-1]
            r = (h1 / h2) ** 2
            lam_ref = l2 + (l2 - l1) / (r - 1.0)
        errs = [(h, abs(l - lam_ref)) for h, l in pairs]
        for i in range(len(errs) - 1):
            (ha, ea), (hb, eb) = errs[i], errs[i + 1]
            order = math.log(ea / eb) / math.log(ha / hb) if ea > 0 and eb > 0 else float("nan")
            orders.append(order)
            conv_rows.append([dom, ha, ea, order])
        conv_rows.append([dom, errs[-1][0], errs[-1][1], ""])
    files["convergence.csv"] = _csv(["domain", "h", "lambda1_error", "observed_order"], conv_rows)
    if conv_rows:
        hs = np.array([r[1] for r in conv_rows], dtype=float)
        es = np.array([max(float(r[2]), 1e-16) for r in conv_rows], dtype=float)
        files["convergence.svg"] = svgfig.chart_figure(
            [(hs, es, "lambda1 error")], digest, logx=True, logy=True
        )
    summary = {
        "n_records": len(records),
        "check_counts": check_counts,
        "observed_orders": orders,
    }
    files["summary.json"] = _json_dumps(summary)
    for name, content in files.items():  # written only once all are computed
        out.write(name, content)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="extremal-lab",
        description="solve/check/flow/branch pipelines for constant-flux planar domains",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default: config or cwd)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or integer size
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(data, args.command, os.environ.get("EXTREMAL_LAB_OUT") or args.out)
        record = run(cfg)
    except (ConfigInvalid, VersionMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if record.error:
        print(f"numerical failure: {record.error}", file=sys.stderr)
        return 1
    print(json.dumps({"out_dir": cfg.out_dir, "files": [m["path"] for m in record.manifest]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
