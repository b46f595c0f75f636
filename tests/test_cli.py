import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from extremal_lab import analytic, cli, fem
from extremal_lab.errors import ConfigInvalid, VersionMismatch

DISK = {"kind": "disk", "radius": 1.0}


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


def test_eigen_alpha_rescaling(tmp_path):
    _run({"command": "eigen", "domain": DISK, "h": 0.08, "alpha": -2.0}, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["alpha_hat"] == pytest.approx(-2.0, rel=1e-9)


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
    # a null period asks branch to compute the bifurcation period
    assert cli.load_config({"command": "branch", "T": None}).extra["T"] is None


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
    "grid_too_fine": {"command": "check", "domain": DISK, "h": 0.1, "grid": 1e-300},
    "grid_below_double_range": {"command": "check", "domain": DISK, "h": 0.1, "grid": 1e-320},
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_config_is_a_config_error(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EXTREMAL_LAB_OUT", raising=False)
    data = _MALFORMED[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main([data["command"], "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("blob", [[1, 2], {"version": "0.1"}, {"config": {}, "version": 3}])
def test_report_over_a_non_record_is_a_config_error(blob, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EXTREMAL_LAB_OUT", raising=False)
    record = tmp_path / "record.json"
    record.write_text(json.dumps(blob))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "report", "records": [str(record)]}))
    out = tmp_path / "out"
    assert cli.main(["report", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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
    _run(
        {
            "command": "check",
            "domain": DISK,
            "h": 0.08,
            "lambda": 8.0,
            "theorems": ["T4"],
        },
        chk,
    )
    recs.append(str(chk / "record.json"))
    out = tmp_path / "summary"
    rec = _run({"command": "report", "records": recs}, out)
    assert rec.error is None
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_records"] == 3
    assert summary["check_counts"]["T4"]["pass"] + summary["check_counts"]["T4"]["fail"] == 1
    assert len(summary["observed_orders"]) == 1
    assert 1.5 <= summary["observed_orders"][0] <= 2.5
    assert (out / "convergence.csv").exists()
    assert (out / "convergence.svg").exists()


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
    import os

    env = dict(os.environ, EXTREMAL_LAB_OUT=str(env_out))
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
    )
    assert proc.returncode == 2


def test_numerical_failure_exit_code(tmp_path):
    # h below the config floor check but above the domain's feature size:
    # meshing fails numerically, the record keeps the error, exit code is 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"command": "eigen", "domain": {"kind": "disk", "radius": 0.3}, "h": 0.4})
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "extremal_lab.cli", "eigen", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    record = json.loads((out / "record.json").read_text())
    assert record["error"] is not None
