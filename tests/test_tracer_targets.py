"""The benchmark tracer rebinds extremal_lab functions by name; every name it
lists must resolve, so a rename breaks here and not only in a traced run."""

import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from extremal_lab import cli, fem

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer_module().TARGETS


@pytest.mark.parametrize(
    "module, qualname", [(m, q) for m, q, _ in TARGETS], ids=[f"{m}.{q}" for m, q, _ in TARGETS]
)
def test_tracer_target_resolves(module, qualname):
    owner = importlib.import_module(f"extremal_lab.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_eigen_pair_keeps_the_iteration_count():
    # the tracer's eigen counter reads EigenPair.iterations
    assert "iterations" in {f.name for f in dataclasses.fields(fem.EigenPair)}


def test_tracer_counters_record_a_check_run(tmp_path):
    # each counter reads a field of a traced call's arguments or result
    config = tmp_path / "check.json"
    config.write_text(json.dumps({"command": "check", "domain": {"kind": "disk", "radius": 2.5},
                                  "h": 0.2, "n_lines": 4}))
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert cli.main(["check", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    counters = tracer.summary()
    for name in ("fem.eigen_smallest.iterations", "geom2d.predicates.cap_reflect.bounded_caps",
                 "cli.output_bytes"):
        assert counters[name] > 0, name
