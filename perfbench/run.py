"""extremal-lab benchmark.

    python3 perfbench/run.py --workload {bounded,flow,strip,all} --seed N \
        --seconds S --trace {0,1}

Runs each workload in its own fresh process (`worker.py`), which drives
`extremal_lab.cli.main` on generated JSON configs and checks every output
against oracles.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; an operation is one CLI
command, and it fails on a non-zero exit, a traceback or a wrong output.

With --trace 0 the metrics are the end-to-end ones:
  setup_s       median over three fresh processes of the time from spawning
                the process to the moment its first command could start
  wall_s        median over the run's rounds of the time the round's
                commands take, one after another
  peak_rss_mib  peak resident memory of the workload's process over its
                first round
The two times are scaled to the reference speed of calibrate.py:
multiplied by one speed factor for the run, from the calibration kernel's
times in all its processes, after set-up and between the commands of
every round.
With --trace 1 they are the per-layer ones in tracer.REPORTED, and a full
report of every traced function precedes the result line.

The program is run from this checkout's `src/`; the benchmark exits with
status 2 and prints no result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from tracer import REPORTED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EXTREMAL_LAB_OUT", None)  # would redirect every command's outputs
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: a second one slows the workloads on a shared 2-vCPU
    # host, where it makes a 400 x 400 matrix product eight times slower
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to its end; return the spawn time and its result."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {argv} ran past the time limit") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the worker
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {argv} exited with status {proc.returncode}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        setup = []
        calibration = []
        if not trace:
            for i in range(SETUP_SAMPLES - 1):
                t_spawn, res = _spawn([*base, "--out", str(run_dir / f"setup{i}"), "--setup-only"],
                                      deadline)
                setup.append(res["ready"] - t_spawn)
                calibration += res["calibration_s"]
        t_spawn, res = _spawn(
            [*base, "--trace", str(trace), "--out", str(run_dir / "run"),
             "--trace-file", str(OUT / f"trace-{workload}-seed{seed}.json")],
            deadline,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setup.append(res["ready"] - t_spawn)
    calibration += res["calibration_s"]
    # one factor for the whole run: a single sample of the kernel moves
    # more than a round of the workload does
    speed = calibrate.speed(calibration)

    if trace:
        print(json.dumps({"workload": workload, "traced_report": res["layers"],
                          "rounds": res["rounds"], "blas_threads": res["blas_threads"]}))
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in REPORTED.items()}
    else:
        # the raw seconds and the speed factor, ahead of the result line
        print(json.dumps({"workload": workload, "setup_s": setup, "speed": speed,
                          "rounds": res["rounds"]}))
        values = {
            "setup_s": statistics.median(setup) * speed,
            "wall_s": statistics.median(r["wall_s"] for r in res["rounds"]) * speed,
            "peak_rss_mib": res["peak_rss_mib"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def _check_benchmark_json() -> None:
    """The metric lists in BENCHMARK.json must match what this script prints."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != END_TO_END or per_layer != REPORTED:
        raise SystemExit("BENCHMARK.json and perfbench/tracer.py disagree on the metrics")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so that the finally clauses stop the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "extremal_lab" / "__init__.py").is_file():
        print(f"no extremal_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _check_benchmark_json()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(json.dumps({"workload": name, **res}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, res in results.items() for metric, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
