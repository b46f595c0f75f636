import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from extremal_lab import analytic, cli, fem, overdet, shapeopt
from extremal_lab.errors import ConfigInvalid, VersionMismatch
from extremal_lab.geom2d.domain import DomainSpec
from extremal_lab.geom2d.predicates import MAX_GRID_POINTS, grid_point_count

DISK = {"kind": "disk", "radius": 1.0}
# the environment of the CLI run as a program: it imports this checkout's package
_CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(cli.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))


def _run(data: dict, out: Path) -> cli.ExperimentRecord:
    cfg = cli.load_config(data, out_dir=str(out))
    return cli.run(cfg)


def test_eigen_run_produces_report_and_figures(tmp_path):
    rec = _run({"command": "eigen", "domain": DISK, "h": 0.06}, tmp_path)
    assert rec.error is None
    names = {m["path"] for m in rec.manifest}
    assert {"u.csv", "boundary.csv", "report.json", "domain.svg", "levels.svg"} <= names
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["lambda1"] - analytic.j01() ** 2) / analytic.j01() ** 2 <= 0.01
    # manifest digests match file bytes
    for entry in rec.manifest:
        digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    # figures carry the config digest and the declared size
    svg = (tmp_path / "domain.svg").read_text()
    cfg = cli.load_config({"command": "eigen", "domain": DISK, "h": 0.06}, out_dir=str(tmp_path))
    assert f"config-digest: {cfg.digest()}" in svg
    assert 'width="800" height="600"' in svg


def test_eigen_alpha_rescaling(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch)
    _run({"command": "eigen", "domain": DISK, "h": 0.08, "alpha": -2.0}, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["alpha_hat"] == pytest.approx(-2.0, rel=1e-9)
    # the rescaled report is the first one scaled, not a second trace
    assert calls == {"assemble": 1, "neumann_trace": 1, "eigen_smallest": 1}


def test_check_of_cap_heights_only_makes_no_eigen_solve(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("L3R reads the mesh only")

    monkeypatch.setattr(fem, "eigen_smallest", refuse)
    config = tmp_path / "check.json"
    config.write_text(json.dumps({"command": "check", "domain": {"kind": "disk", "radius": 2.5},
                                  "h": 0.2, "n_lines": 4, "theorems": ["L3R"]}))
    assert cli.main(["check", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    checks = json.loads((tmp_path / "out" / "checks.json").read_text())["checks"]
    assert [c["theorem"] for c in checks] == ["L3R"]


def test_determinism_byte_identical(tmp_path):
    data = {"command": "eigen", "domain": DISK, "h": 0.08, "seed": 3}
    rec1 = _run(data, tmp_path / "a")
    rec2 = _run(data, tmp_path / "b")
    assert rec1.manifest == rec2.manifest
    for entry in rec1.manifest:
        assert (tmp_path / "a" / entry["path"]).read_bytes() == (
            tmp_path / "b" / entry["path"]
        ).read_bytes()


def test_check_command_strip_t4(tmp_path):
    data = {
        "command": "check",
        "domain": {"kind": "periodic_strip", "period": 6.283185307179586,
                   "half_width_coeffs": [math.pi / 2]},
        "h": 0.1,
        "lambda": 1.0,
        "grid": 0.02,
        "theorems": ["T4"],
    }
    rec = _run(data, tmp_path)
    assert rec.error is None
    checks = json.loads((tmp_path / "checks.json").read_text())["checks"]
    t4 = checks[0]
    assert t4["theorem"] == "T4" and t4["pass"]
    assert t4["margin"] == pytest.approx(analytic.j01() - math.pi / 2, abs=0.05)


def test_solve_command_trivial_flag(tmp_path):
    data = {
        "command": "solve",
        "domain": DISK,
        "h": 0.08,
        "nonlinearity": {"kind": "linear", "lam": 3.0},
    }
    _run(data, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["trivial_solution"] is True


def test_solve_command_allen_cahn(tmp_path):
    width = math.pi * math.sqrt(2)
    data = {
        "command": "solve",
        "domain": {"kind": "periodic_strip", "period": 2.0,
                   "half_width_coeffs": [width / 2]},
        "h": 0.07,
        "nonlinearity": {"kind": "allen_cahn"},
    }
    rec = _run(data, tmp_path)
    assert rec.error is None
    report = json.loads((tmp_path / "report.json").read_text())
    assert not report["trivial_solution"]
    assert 0.5 < report["max_u"] < 1.0
    assert (tmp_path / "p.csv").exists()
    assert (tmp_path / "p_field.svg").exists()
    # the P-function's maximum-principle verdict and its noise tolerance
    assert isinstance(report["p_max_on_boundary"], bool)
    assert report["p_tau"] >= 0


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        cli.load_config({"command": "eigen", "domain": DISK, "h": -0.5})
    with pytest.raises(ConfigInvalid):
        cli.load_config({"command": "eigen", "domain": DISK, "h": 0.5, "tolerances": {"x": 1.0}})
    with pytest.raises(ConfigInvalid):
        cli.load_config({"command": "warp", "domain": DISK})
    with pytest.raises(ConfigInvalid):
        cli.load_config({"command": "eigen"})
    with pytest.raises(ConfigInvalid):
        cli.load_config({"command": "eigen", "domain": DISK, "bogus_key": 1})
    with pytest.raises(ConfigInvalid):
        cli.load_config({"command": "flow", "domain": DISK}, command="eigen")
    # n_lines reaches its bound; one more is the first malformed value
    check = {"command": "check", "domain": DISK, "h": 0.1}
    assert cli.load_config({**check, "n_lines": 4096})["n_lines"] == 4096
    with pytest.raises(ConfigInvalid, match="n_lines"):
        cli.load_config({**check, "n_lines": 4097})
    # a null period asks branch to compute the bifurcation period
    assert cli.load_config({"command": "branch", "T": None})["T"] is None


_MALFORMED = {
    "linear_without_lam": {"command": "solve", "domain": DISK, "h": 0.1,
                           "nonlinearity": {"kind": "linear"}},
    "decreasing_breakpoints": {"command": "solve", "domain": DISK, "h": 0.1,
                               "nonlinearity": {"kind": "tabulated", "breakpoints": [1.0, 0.0],
                                                "values": [0.0, 1.0], "lipschitz": 2.0}},
    "h_not_a_number": {"command": "eigen", "domain": DISK, "h": "abc"},
    "tolerance_not_a_number": {"command": "eigen", "domain": DISK, "h": 0.1,
                               "tolerances": {"eigen_tol": "tight"}},
    "missing_record": {"command": "report", "records": ["no/such/run/record.json"]},
    "theorems_as_string": {"command": "check", "domain": DISK, "h": 0.1, "theorems": "T4"},
    "unknown_theorem": {"command": "check", "domain": DISK, "h": 0.1, "theorems": ["T4", "T9"]},
    "lambda_not_a_number": {"command": "check", "domain": DISK, "h": 0.1, "lambda": "abc"},
    "n_lines_not_a_number": {"command": "check", "domain": DISK, "h": 0.1, "n_lines": "many"},
    "grid_not_a_number": {"command": "check", "domain": DISK, "h": 0.1, "grid": "fine"},
    "grid_zero": {"command": "check", "domain": DISK, "h": 0.1, "grid": 0},
    "n_lines_infinite": {"command": "check", "domain": DISK, "h": 0.1, "n_lines": 1e400},
    "max_steps_not_a_number": {"command": "flow", "domain": DISK, "h": 0.1, "max_steps": "x"},
    "s_max_not_a_number": {"command": "branch", "s_max": "x"},
    "ds_not_a_number": {"command": "branch", "ds": [0.005]},
    "n_modes_not_a_number": {"command": "branch", "n_modes": "ten"},
    "resolution_not_a_number": {"command": "branch", "resolution": "x"},
    "T_not_a_number": {"command": "branch", "T": "abc"},
    "branch_lambda_negative": {"command": "branch", "lambda": -1.0, "T": 6.0},
    "branch_resolution_zero": {"command": "branch", "resolution": 0, "T": 6.0},
    "lambda_nan": {"command": "check", "domain": DISK, "h": 0.1, "lambda": math.nan},
    "lambda_infinite": {"command": "check", "domain": DISK, "h": 0.1, "lambda": math.inf},
    "alpha_nan": {"command": "eigen", "domain": DISK, "h": 0.1, "alpha": math.nan},
    "seed_amplitude_nan": {"command": "solve", "domain": DISK, "h": 0.1,
                           "nonlinearity": {"kind": "allen_cahn"}, "seed_amplitude": math.nan},
    "ds_zero": {"command": "branch", "ds": 0, "T": 6.0},
    "n_modes_below_eight": {"command": "branch", "n_modes": 7, "T": 6.0},
    "nonlinearity_not_an_object": {"command": "solve", "domain": DISK, "h": 0.1,
                                   "nonlinearity": "x"},
    # an integer would be opened as a file descriptor
    "records_not_strings": {"command": "report", "records": [5]},
    "flow_on_periodic_strip": {"command": "flow", "h": 0.1,
                               "domain": {"kind": "periodic_strip", "period": 6.0,
                                          "half_width_coeffs": [1.0]}},
    "flow_on_annulus": {"command": "flow", "h": 0.1,
                        "domain": {"kind": "annulus", "r_in": 0.5, "r_out": 1.5}},
    "h_not_below_the_disk_radius": {"command": "eigen", "h": 0.05,
                                    "domain": {"kind": "disk", "radius": 0.01}},
    "h_not_below_the_strip_half_width": {"command": "check", "h": 0.05,
                                         "domain": {"kind": "periodic_strip", "period": 6.0,
                                                    "half_width_coeffs": [0.3, 0.29]}},
    "grid_too_fine": {"command": "check", "domain": DISK, "h": 0.1, "grid": 1e-300},
    "grid_below_double_range": {"command": "check", "domain": DISK, "h": 0.1, "grid": 1e-320},
    "n_lines_true": {"command": "check", "domain": DISK, "h": 0.1, "n_lines": True},
    "n_lines_fractional": {"command": "check", "domain": DISK, "h": 0.1, "n_lines": 2.7},
    "n_lines_negative": {"command": "check", "domain": DISK, "h": 0.1, "n_lines": -3},
    "n_lines_past_the_bound": {"command": "check", "domain": DISK, "h": 0.1, "n_lines": 4097},
    "n_lines_a_billion": {"command": "check", "domain": DISK, "h": 0.1, "n_lines": 10**9},
    "max_steps_negative": {"command": "flow", "domain": DISK, "h": 0.1, "max_steps": -1},
    "seed_fractional": {"command": "eigen", "domain": DISK, "h": 0.1, "seed": 1.5},
    "seed_amplitude_zero": {"command": "solve", "domain": DISK, "h": 0.1,
                            "nonlinearity": {"kind": "allen_cahn"}, "seed_amplitude": 0},
    "seed_amplitude_negative": {"command": "solve", "domain": DISK, "h": 0.1,
                                "nonlinearity": {"kind": "allen_cahn"}, "seed_amplitude": -1},
    "resolution_true": {"command": "branch", "resolution": True, "T": 6.0, "s_max": 0.005},
    "T_negative": {"command": "branch", "T": -6.0, "s_max": 0.005},
    "T_zero": {"command": "branch", "T": 0},
    "s_max_negative": {"command": "branch", "T": 6.0, "s_max": -1},
    "spread_tol_top_level": {"command": "flow", "domain": DISK, "h": 0.1, "max_steps": 1,
                             "spread_tol": 1e-3},
    "h_values": {"command": "eigen", "domain": DISK, "h": 0.1, "h_values": [0.1, 0.05]},
    "unknown_tolerance": {"command": "eigen", "domain": DISK, "h": 0.1,
                          "tolerances": {"bogus": 1e-3}},
    "nonlinearity_on_eigen": {"command": "eigen", "domain": DISK, "h": 0.1,
                              "nonlinearity": {"kind": "allen_cahn"}},
    "tolerance_at_top_level": {"command": "eigen", "domain": DISK, "h": 0.1,
                               "tolerances.eigen_tol": 1e-3},
    # read without --out: the config's out_dir is where the run would write
    "out_dir_integer": {"command": "eigen", "domain": DISK, "h": 0.1, "out_dir": 5},
    "out_dir_list": {"command": "eigen", "domain": DISK, "h": 0.1, "out_dir": ["a"]},
    "nonlinearity_unused_key": {"command": "solve", "domain": DISK, "h": 0.1,
                                "nonlinearity": {"kind": "allen_cahn", "junk": 1}},
    "linear_unused_key": {"command": "solve", "domain": DISK, "h": 0.1,
                          "nonlinearity": {"kind": "linear", "lam": 3.0, "lipschitz": 1.0}},
    "nonlinearity_kind_not_a_string": {"command": "solve", "domain": DISK, "h": 0.1,
                                       "nonlinearity": {"kind": ["linear"]}},
    "radius_true": {"command": "eigen", "domain": {"kind": "disk", "radius": True}, "h": 0.1},
    "radius_string": {"command": "eigen", "domain": {"kind": "disk", "radius": "1.5"}, "h": 0.1},
    "semi_a_past_double_range": {"command": "eigen", "h": 0.1,
                                 "domain": {"kind": "ellipse", "semi_a": 10**400, "semi_b": 1.0}},
    "polygon_vertex_strings": {"command": "eigen", "h": 0.1,
                               "domain": {"kind": "polygon",
                                          "vertices": [[0, 0], [1, 0], "11", [0, 1]]}},
    "strip_coefficient_false": {"command": "check", "h": 0.1, "theorems": ["T4"],
                                "domain": {"kind": "periodic_strip", "period": 6.0,
                                           "half_width_coeffs": [1.0, False]}},
    # meshes past MAX_GRID_POINTS are refused before anything is allocated
    "disk_mesh_too_large": {"command": "eigen", "h": 0.05,
                            "domain": {"kind": "disk", "radius": 1000.0}},
    "flow_mesh_too_large": {"command": "flow", "h": 0.001,
                            "domain": {"kind": "ellipse", "semi_a": 2.0, "semi_b": 1.0}},
    "strip_mesh_too_large": {"command": "check", "h": 0.05, "theorems": ["T5"],
                             "domain": {"kind": "periodic_strip", "period": 1e6,
                                        "half_width_coeffs": [1.0]}},
    "branch_period_too_short": {"command": "branch", "T": 1e-9},  # counts (8, 25132741228)
    "branch_lambda_too_large": {"command": "branch", "lambda": 1e12, "T": 1.0},
    "branch_resolution_too_fine": {"command": "branch", "resolution": 1e6},
    "branch_resolution_past_double_range": {"command": "branch", "resolution": 10**400},
    # the 64-column cosine projection aliases from mode 32 on
    "branch_n_modes_aliased": {"command": "branch", "n_modes": 1e7},
    "branch_n_modes_at_half_the_columns": {"command": "branch", "n_modes": 32},
    "branch_n_modes_on_a_short_cell": {"command": "branch", "T": 1.0},
    # the first predictor sets c_1 = ds, which pinches a strip of half-width at most |ds|
    "branch_step_past_the_half_width": {"command": "branch", "lambda": 1e6, "s_max": 0.01},
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_config_is_a_config_error(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EXTREMAL_LAB_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    data = _MALFORMED[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = [data["command"], "--config", str(cfg)]
    assert cli.main(argv if "out_dir" in data else argv + ["--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("blob", [b"\xff{}", b'{"seed": ' + b"1" * 5000 + b"}"],
                         ids=["not_utf8", "integer_past_the_digit_limit"])
def test_unreadable_config_file_is_a_config_error(blob, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(blob)
    out = tmp_path / "out"
    assert cli.main(["eigen", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


_CHECK_RECORD = {"config": {"command": "check"}, "version": "0.1.0"}
_EIGEN_RECORD = {"config": {"command": "eigen"}, "version": "0.1.0"}


@pytest.mark.parametrize(
    "blob, outputs",
    [([1, 2], {}), ({"version": "0.1"}, {}), ({"config": {}, "version": 3}, {}),
     (_CHECK_RECORD, {}), (_EIGEN_RECORD, {}),
     (_EIGEN_RECORD, {"report.json": {"h": 0.1, "domain": DISK}})],
    ids=["blob0", "blob1", "blob2", "check_without_checks_json", "eigen_without_report_json",
         "report_without_lambda1"],
)
def test_report_over_a_non_record_is_a_config_error(blob, outputs, tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.delenv("EXTREMAL_LAB_OUT", raising=False)
    record = tmp_path / "record.json"
    record.write_text(json.dumps(blob))
    for name, content in outputs.items():
        (tmp_path / name).write_text(json.dumps(content))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "report", "records": [str(record)]}))
    out = tmp_path / "out"
    assert cli.main(["report", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def _report(records: list[str], tmp_path: Path) -> int:
    cfg = tmp_path / "report.json"
    cfg.write_text(json.dumps({"command": "report", "records": records}))
    return cli.main(["report", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_report_over_two_eigen_runs_at_one_h_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EXTREMAL_LAB_OUT", raising=False)
    records = []
    for name in ("a", "b"):
        _run({"command": "eigen", "domain": DISK, "h": 0.1}, tmp_path / name)
        records.append(str(tmp_path / name / "record.json"))
    assert _report(records, tmp_path) == 2
    assert "share h" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_with_an_exact_eigenvalue_has_no_order(tmp_path, monkeypatch):
    # an error of exactly 0 makes the observed order next to it undefined, not a traceback
    monkeypatch.delenv("EXTREMAL_LAB_OUT", raising=False)
    records = []
    for h, lam1 in ((0.2, analytic.j01() ** 2), (0.1, 6.0), (0.05, 5.85)):
        run_dir = tmp_path / f"h{h}"
        run_dir.mkdir()
        (run_dir / "record.json").write_text(json.dumps(_EIGEN_RECORD))
        (run_dir / "report.json").write_text(json.dumps({"h": h, "domain": DISK,
                                                         "lambda1": lam1}))
        records.append(str(run_dir / "record.json"))
    assert _report(records, tmp_path) == 0
    orders = json.loads((tmp_path / "out" / "summary.json").read_text())["observed_orders"]
    assert math.isnan(orders[0]) and orders[1] > 0


_BASE = {
    "solve": {"command": "solve", "domain": DISK, "h": 0.1, "nonlinearity": {"kind": "allen_cahn"}},
    "eigen": {"command": "eigen", "domain": DISK, "h": 0.1},
    "check": {"command": "check", "domain": DISK, "h": 0.1},
    "flow": {"command": "flow", "domain": DISK, "h": 0.1},
    "branch": {"command": "branch"},
    "report": {"command": "report"},
}


def _number(ok=lambda x: True):
    return lambda x: type(x) is float and math.isfinite(x) and ok(x)


def _integer(ok=lambda n: True):
    return lambda x: type(x) is int and ok(x)


def _tolerance(x):
    return _number(lambda t: 1e-14 <= t <= 1e-1)(x)


def _positive(x):
    return _number(lambda t: t > 0)(x)


# the type and range of each row of cli._KEYS, restated apart from its parsers
_DECLARED = {
    "command": lambda x: x in cli.COMMANDS,
    "out_dir": lambda x: isinstance(x, str),
    "h": _number(lambda x: 1e-4 < x < 1),
    "seed": _integer(),
    "domain": lambda x: isinstance(x, DomainSpec),
    "nonlinearity": lambda x: isinstance(x, (fem.Linear, fem.AllenCahn, fem.Tabulated)),
    "alpha": lambda x: x is None or _number(lambda a: a < 0)(x),
    "tolerances.eigen_tol": _tolerance,
    "tolerances.newton_tol": _tolerance,
    "tolerances.spread_tol": _tolerance,
    "seed_amplitude": _positive,
    "lambda": _positive,
    "grid": _positive,
    "theorems": lambda x: isinstance(x, (list, tuple)) and all(t in cli.THEOREMS for t in x),
    "n_lines": _integer(lambda n: 1 <= n <= 4096),
    "max_steps": _integer(lambda n: n >= 0),
    "T": lambda x: x is None or _positive(x),
    "s_max": _positive,
    "ds": _number(lambda x: x != 0),
    "n_modes": _integer(lambda n: n >= 8),  # and below nx / 2: see _fits_max_grid_points
    "resolution": _integer(lambda n: n >= 1),
    "records": lambda x: isinstance(x, (list, tuple)) and all(isinstance(r, str) for r in x),
}

_SCALARS = (
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats() | st.text(max_size=6)
    | st.sampled_from([0, 1, 3, 8, 16, -3, 2.7, 3.0, 1e-320, 1e-3, 1e-12, 0.5, -1.0, 1e400,
                       "T4", "L3R", "eigen", "\0", "run/record.json"])
)
_NAMES = st.sampled_from(["kind", "radius", "lam", "x"]) | st.text(max_size=4)
_KINDS = st.sampled_from(["disk", "linear", "allen_cahn", "tabulated"])
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3) | st.dictionaries(_NAMES, inner, max_size=3)
                   | st.builds(lambda k, v: {"kind": k, "radius": v, "lam": v}, _KINDS, inner)),
    max_leaves=6,
)


def _fits_max_grid_points(cfg):
    """The size bounds across keys: the domain's bbox at h, or the branch's
    period cell at its strip spacing, within MAX_GRID_POINTS, n_modes below
    half the cell's columns, and |ds| below the strip's half-width."""
    if cfg.command == "branch":
        lam = cfg["lambda"]
        a = math.pi / (2 * math.sqrt(lam))
        period = cfg["T"] or 2 * math.pi / math.sqrt(lam)
        h = min(a / cfg["resolution"], period / 8)
        nx = max(8, round(period / h))
        return (grid_point_count((0, period, -a, a), h) <= MAX_GRID_POINTS
                and cfg["n_modes"] < nx / 2 and abs(cfg["ds"]) < a)
    if "domain" in cfg.values:
        return grid_point_count(cfg["domain"].bbox(), cfg["h"]) <= MAX_GRID_POINTS
    return True


def _read_by(command):
    return sorted(k for k, row in cli._KEYS.items() if command in row.commands)


def _assert_contract(command, key, value):
    """Set one key of the command's base config to a JSON value: the config
    loads with every value typed as its row declares, or it is a config
    error and `main` exits 2 without writing anything."""
    config = json.loads(json.dumps(_BASE[command]))
    if key.startswith("tolerances."):
        config["tolerances"] = {key.split(".", 1)[1]: value}
    else:
        config[key] = value
    try:
        cfg = cli.load_config(config)
    except ConfigInvalid:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config))
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
            assert code == 2 and "config error" in err.getvalue()
            assert list(Path(tmp).iterdir()) == [path]
        return
    given_keys = set(config) - {"tolerances"}
    given_keys |= {f"tolerances.{k}" for k in config.get("tolerances", {})}
    assert given_keys <= set(_read_by(cfg.command))
    for name in _read_by(cfg.command):
        assert _DECLARED[name](cfg[name]), (name, cfg[name])
    assert _fits_max_grid_points(cfg)


_EDGES = [None, True, False, 0, 1, -3, 8, 2.7, 3.0, 4096, 4097, 1e-320, 0.05, math.nan, math.inf,
          -math.inf, 10**400, "x", [], ["T4"], {}, DISK]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_edge_values_load_typed_or_are_config_errors(command, monkeypatch):
    monkeypatch.delenv("EXTREMAL_LAB_OUT", raising=False)
    assert set(_DECLARED) == set(cli._KEYS)
    for key in sorted(cli._KEYS) + ["tolerances", "bogus"]:
        for value in _EDGES:
            _assert_contract(command, key, value)


@pytest.mark.parametrize("command", cli.COMMANDS)
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_value_loads_typed_or_is_a_config_error(command, data, monkeypatch):
    monkeypatch.delenv("EXTREMAL_LAB_OUT", raising=False)
    key = data.draw(st.sampled_from(_read_by(command)) | st.sampled_from(sorted(cli._KEYS))
                    | st.sampled_from(["tolerances", "bogus"]))
    _assert_contract(command, key, data.draw(_SCALARS | _JSON))


def test_readme_key_table_mirrors_cli():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | type and range | default | commands |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("| `"):
            break
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        commands = cells[-1]
        table[cells[0].strip("`")] = (
            set(cli.COMMANDS) if commands == "all"
            else {c.strip().strip("`") for c in commands.split(",")}
        )
    assert table == {name: set(row.commands) for name, row in cli._KEYS.items()}


def _count_calls(monkeypatch):
    calls = {"assemble": 0, "neumann_trace": 0, "eigen_smallest": 0}
    for name in list(calls):
        original = getattr(fem, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fem, name, counted)
    return calls


def test_flow_assembles_and_traces_once_per_eigen_solve(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch)
    rec = _run({"command": "flow", "domain": {"kind": "ellipse", "semi_a": 1.2,
                                              "semi_b": 1 / 1.2},
                "h": 0.1, "max_steps": 2}, tmp_path)
    assert rec.error is None
    assert calls["eigen_smallest"] >= 2
    assert calls["assemble"] == calls["neumann_trace"] == calls["eigen_smallest"]
    report = json.loads((tmp_path / "report.json").read_text())
    # every trial moved the first mesh, and each was accepted
    assert (report["meshes_built"], report["trials_rejected"]) == (1, 0)


def test_branch_run_builds_one_period_cell(tmp_path, monkeypatch):
    calls = {"structured_strip": 0, "bifurcation_mu": 0}
    for name in calls:
        original = getattr(shapeopt, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(shapeopt, name, counted)
    # the strip workload's branch: the T* search and the continuation share one cell
    rec = _run({"command": "branch", "lambda": 1.0, "s_max": 0.01, "ds": 0.005}, tmp_path)
    assert rec.error is None
    assert calls == {"structured_strip": 1, "bifurcation_mu": 5}


def test_branch_off_the_bifurcation_period_says_no_branch_leaves(tmp_path):
    # at lambda 2, T* is about 4.443: the second corrector from T 4.3 falls back
    # onto the straight strip, where the decay test would compare round-off
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "branch", "lambda": 2.0, "T": 4.3}))
    assert cli.main(["branch", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    error = json.loads((tmp_path / "out" / "record.json").read_text())["error"]
    assert error.startswith("NoSignChange: the corrector returned to the straight strip")
    assert "TruncationInsufficient" not in error


def test_branch_from_a_period_no_corrector_leaves_fails(tmp_path):
    # at lambda 1, T* is about 6.28: from T 5 the corrector diverges, which must
    # not pass for a branch of the straight strip alone
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "branch", "lambda": 1.0, "T": 5.0, "resolution": 8,
                               "n_modes": 8}))
    assert cli.main(["branch", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    error = json.loads((tmp_path / "out" / "record.json").read_text())["error"]
    assert error.startswith("NewtonDiverged: the corrector from T0 = 5.0 diverged")


def test_branch_off_the_bifurcation_period_fails_after_one_corrector(tmp_path, monkeypatch):
    # off T* no corrector converges at any step, and from T 6 each one stalls
    # after 60 to 100 eigen solves: halving the step down to 1e-4 ds costs 458
    calls = []
    original = overdet.eigen_flux

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(overdet, "eigen_flux", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "branch", "lambda": 1.0, "T": 6.0, "resolution": 16}))
    assert cli.main(["branch", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    error = json.loads((tmp_path / "out" / "record.json").read_text())["error"]
    assert error.startswith("NewtonDiverged: the corrector from T0 = 6.0 diverged")
    assert len(calls) < 458 / 3


def test_solve_assembles_and_traces_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch)
    rec = _run({"command": "solve", "domain": {"kind": "disk", "radius": 3.0}, "h": 0.2,
                "nonlinearity": {"kind": "allen_cahn"}}, tmp_path)
    assert rec.error is None
    assert not json.loads((tmp_path / "report.json").read_text())["trivial_solution"]
    assert calls["assemble"] == calls["neumann_trace"] == 1


def test_report_aggregation(tmp_path):
    recs = []
    for h in (0.08, 0.04):
        out = tmp_path / f"h{h}"
        _run({"command": "eigen", "domain": DISK, "h": h}, out)
        recs.append(str(out / "record.json"))
    chk = tmp_path / "chk"
    _run({"command": "check", "domain": DISK, "h": 0.08, "lambda": 8.0}, chk)
    recs.append(str(chk / "record.json"))
    # every check writes out the details of its verdict
    checks = json.loads((chk / "checks.json").read_text())["checks"]
    details = {c["theorem"]: c["details"] for c in checks}
    assert {tag: set(d) for tag, d in details.items()} == {
        "T4": {"center", "grid"},
        "T5": {"h0", "n_components", "max_circumradius", "circumradius_bound"},
        "L3R": {"lines", "bounded_caps", "graphs_over_chord", "reflections_contained"},
        "T8": set(),
    }
    caps = details["L3R"]
    assert caps["lines"] == 16
    assert 0 <= caps["graphs_over_chord"] <= caps["bounded_caps"]
    assert 0 <= caps["reflections_contained"] <= caps["bounded_caps"]
    out = tmp_path / "summary"
    rec = _run({"command": "report", "records": recs}, out)
    assert rec.error is None
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_records"] == 3
    counts = summary["check_counts"]
    assert sorted(counts) == ["L3R", "T4", "T5", "T8"]
    assert all(sum(c.values()) == 1 for c in counts.values())
    assert counts["T8"]["na"] == 1
    assert len(summary["observed_orders"]) == 1
    assert 1.5 <= summary["observed_orders"][0] <= 2.5
    assert (out / "convergence.svg").exists()
    # the domain cell is quoted JSON, so a CSV reader keeps every column in place
    with (out / "convergence.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [json.loads(r["domain"]) for r in rows] == [DISK, DISK]
    assert [float(r["h"]) for r in rows] == [0.08, 0.04]
    assert all(float(r["lambda1_error"]) > 0 for r in rows)
    assert float(rows[0]["observed_order"]) == summary["observed_orders"][0]
    assert rows[1]["observed_order"] == ""  # blank on the domain's last row


_INT_COLUMNS = {"vertex_index", "loop", "step", "pass", "fail", "not_applicable"}
_TEXT_COLUMNS = {"domain", "theorem"}
STRIP = {"kind": "periodic_strip", "period": 2 * math.pi, "half_width_coeffs": [math.pi / 2]}


def _reference_csv(rows: list[list]) -> str:
    """Row by row: repr for floats, str for ints and strings, and a string
    quoted when it holds a comma, a quote or a line break (RFC 4180)."""

    def cell(c) -> str:
        if isinstance(c, float):
            return repr(c)
        if isinstance(c, str) and any(ch in c for ch in ',"\r\n'):
            return '"' + c.replace('"', '""') + '"'
        return str(c)

    return "".join(",".join(cell(c) for c in row) + "\n" for row in rows)


def _typed_table(text: str) -> list[list]:
    """The header, then each row with its cells read by the column's type;
    only the observed order may be blank."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))

    def parse(name: str, c: str):
        if name in _TEXT_COLUMNS or (name == "observed_order" and c == ""):
            return c
        return int(c) if name in _INT_COLUMNS else float(c)

    return [header, *([parse(n, c) for n, c in zip(header, row, strict=True)] for row in rows)]


def test_every_csv_table_matches_a_row_by_row_writer(tmp_path):
    runs = {
        "eigen_a": {"command": "eigen", "domain": DISK, "h": 0.2},
        "eigen_b": {"command": "eigen", "domain": DISK, "h": 0.1},
        "solve": {"command": "solve", "domain": {"kind": "disk", "radius": 3.0}, "h": 0.3,
                  "nonlinearity": {"kind": "allen_cahn"}},
        "check": {"command": "check", "domain": STRIP, "h": 0.2, "n_lines": 4},
        "branch": {"command": "branch", "lambda": 1.0, "s_max": 0.01, "ds": 0.005},
        "flow": {"command": "flow", "h": 0.1, "max_steps": 2,
                 "domain": {"kind": "ellipse", "semi_a": 1.2, "semi_b": 1 / 1.2}},
    }
    runs["report"] = {"command": "report", "records": [
        str(tmp_path / name / "record.json") for name in ("eigen_a", "eigen_b", "check")]}
    tables = set()
    for name, data in runs.items():
        rec = _run(data, tmp_path / name)
        assert rec.error is None
        for entry in rec.manifest:
            if entry["path"].endswith(".csv"):
                text = (tmp_path / name / entry["path"]).read_text()
                rows = _typed_table(text)
                assert len(rows) > 1, entry["path"]
                assert text == _reference_csv(rows), entry["path"]
                tables.add(entry["path"])
    assert tables == {"u.csv", "p.csv", "boundary.csv", "trajectory.csv", "final_boundary.csv",
                      "branch.csv", "check_counts.csv", "convergence.csv"}
    convergence = (tmp_path / "report" / "convergence.csv").read_text().splitlines()
    assert convergence[1].startswith('"{""kind"": ""disk"", ""radius"": 1.0}",0.2,')


def test_report_empty_and_version_mismatch(tmp_path):
    out = tmp_path / "empty"
    rec = _run({"command": "report", "records": []}, out)
    assert rec.error is None
    assert json.loads((out / "summary.json").read_text())["n_records"] == 0

    run_dir = tmp_path / "r1"
    _run({"command": "eigen", "domain": DISK, "h": 0.08}, run_dir)
    blob = json.loads((run_dir / "record.json").read_text())
    blob["version"] = "0.0.0-other"
    tampered = tmp_path / "r2"
    tampered.mkdir()
    (tampered / "record.json").write_text(json.dumps(blob))
    with pytest.raises(VersionMismatch):
        _run(
            {"command": "report", "records": [str(run_dir / "record.json"),
                                              str(tampered / "record.json")]},
            tmp_path / "mix",
        )


def test_cli_entry_point_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "eigen", "domain": DISK, "h": 0.1}))
    env_out = tmp_path / "via_env"
    env = dict(_CLI_ENV, EXTREMAL_LAB_OUT=str(env_out))
    proc = subprocess.run(
        [sys.executable, "-m", "extremal_lab.cli", "eigen", "--config", str(cfg),
         "--out", str(tmp_path / "ignored")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert env_out.exists()  # env var beats --out
    assert not (tmp_path / "ignored").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "eigen", "domain": DISK, "h": -1.0}))
    proc = subprocess.run(
        [sys.executable, "-m", "extremal_lab.cli", "eigen", "--config", str(bad)],
        capture_output=True,
        text=True,
        env=_CLI_ENV,
    )
    assert proc.returncode == 2


def test_numerical_failure_exit_code(tmp_path):
    # h passes the config checks (it is below the characteristic size 0.5)
    # but the 0.1-wide neck cannot be meshed at it: meshing fails numerically,
    # the record keeps the error, exit code is 1
    neck = [[0, 0], [1, 0], [1, 0.45], [1.2, 0.45], [1.2, 0], [2.2, 0], [2.2, 1], [1.2, 1],
            [1.2, 0.55], [1, 0.55], [1, 1], [0, 1]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"command": "eigen", "domain": {"kind": "polygon", "vertices": neck}, "h": 0.3})
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "extremal_lab.cli", "eigen", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=_CLI_ENV,
    )
    assert proc.returncode == 1
    record = json.loads((out / "record.json").read_text())
    assert record["error"] is not None


@pytest.mark.parametrize("amplitude", [1e100, 1e160])
def test_solve_from_a_huge_seed_is_a_numerical_failure(amplitude, tmp_path):
    # at 1e100 the residual's norm overflows, at 1e160 the residual itself
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "solve", "domain": {"kind": "disk", "radius": 3.0},
                               "h": 0.1, "nonlinearity": {"kind": "allen_cahn"},
                               "seed_amplitude": amplitude}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "extremal_lab.cli", "solve", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=_CLI_ENV,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: NewtonDiverged"), lines
    error = json.loads((out / "record.json").read_text())["error"]
    assert error.startswith("NewtonDiverged: residual norm is")


def test_branch_at_a_vanishing_lambda_is_a_numerical_failure(tmp_path):
    # the cell is 1.6e100 wide, so the eigen iterate's M-norm overflows
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "branch", "lambda": 1e-200}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "extremal_lab.cli", "branch", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=_CLI_ENV,
    )
    assert proc.returncode == 1
    # the overflow is caught as a numerical failure, with no numpy warning before it
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: IterationLimit"), lines
    error = json.loads((out / "record.json").read_text())["error"]
    assert error.startswith("IterationLimit: eigen iterate's M-norm is inf")
