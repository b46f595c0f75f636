"""Runs one workload in a fresh process and prints its result as the last
line of standard output.

The process imports extremal_lab (with numpy and scipy) and the oracles,
writes the workload's configs, and notes the moment it is ready to start
the first command; `run.py` times set-up from the moment it spawned this
process.  It then times the calibration kernel, and with --setup-only it
stops there.  Otherwise it runs whole rounds of the workload's commands
through `extremal_lab.cli.main`, one after another, times the calibration
kernel before each command and after the last, and checks each round's
outputs after the round's clock stops.
With --trace 1 the rounds alternate traced and untraced, so one process
measures both the layer times and the tracing overhead.  The traced round
comes first, as the only round of an untraced run of `bounded` or `strip`
does, so both carry the process's warm-up; the overhead therefore reads
high by the warm-up, never low.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
from tracer import Tracer, missing_calls

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def _run_round(cli, ops, round_dir: Path, cfg_dir: Path,
               calibrator: calibrate.Calibrator) -> dict:
    """Run every command once, timing the calibration kernel before each
    command and after the last.  Return the round's wall seconds (the sum
    of the commands' times, which leaves the calibrations out), its CPU
    seconds, the kernel's times and the exit codes."""
    if round_dir.exists():
        shutil.rmtree(round_dir)
    round_dir.mkdir(parents=True)
    codes = []
    calibrations = []
    wall = cpu = 0.0
    for op in ops:
        argv = [op.command, "--config", str(cfg_dir / f"{op.name}.json"),
                "--out", str(round_dir / op.name)]
        calibrations += calibrator.sample()
        captured = io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = cli.main(argv)
        except Exception as exc:  # a traceback out of the CLI fails this operation only
            code = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t0
        cpu += time.process_time() - cpu0
        if code != 0:
            code = f"{code} {captured.getvalue().strip()[-300:]}"
        codes.append(code)
    calibrations += calibrator.sample()
    return {"wall_s": wall, "cpu_s": cpu, "calibration_s": calibrations, "codes": codes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import extremal_lab
    from extremal_lab import cli

    import workloads

    src = ROOT / "src"
    if Path(extremal_lab.__file__).resolve().parent.parent != src:
        print(f"extremal_lab was imported from {extremal_lab.__file__}, not {src}", file=sys.stderr)
        return 2
    round_dir = args.out / "round"
    cfg_dir = args.out / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, round_dir)
    for op in ops:
        (cfg_dir / f"{op.name}.json").write_text(json.dumps(op.config, indent=2))
    ready = time.monotonic()
    calibrator = calibrate.Calibrator()
    try:
        return _measure(args, cli, ops, round_dir, cfg_dir, ready, calibrator)
    finally:
        calibrator.close()


def _measure(args, cli, ops, round_dir: Path, cfg_dir: Path, ready: float,
             calibrator: calibrate.Calibrator) -> int:
    """Everything after set-up: the calibration kernel's times, then with
    --setup-only nothing more, else the rounds, their checks and the
    result."""
    setup_calibration = calibrator.sample()
    if args.setup_only:
        print(json.dumps({"ready": ready, "calibration_s": setup_calibration}))
        return 0

    tracer = Tracer() if args.trace else None
    rounds: list[dict] = []
    traces: list[list[dict]] = []
    attempted = failed = 0
    correct = True
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        try:
            entry = _run_round(cli, ops, round_dir, cfg_dir, calibrator)
        finally:
            if traced:
                tracer.uninstall()
        if not rounds:
            # the first round's high-water mark: later rounds only add
            # allocator fragmentation, and their number depends on speed
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        codes = entry.pop("codes")
        entry["traced"] = traced
        for op, code in zip(ops, codes):
            attempted += 1
            if code != 0:
                failed += 1
                print(f"{args.workload}/{op.name}: exit {code}", file=sys.stderr)
                continue
            try:
                problems = op.check(round_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                failed += 1
                correct = False
                print(f"{args.workload}/{op.name}: wrong output: {problems}", file=sys.stderr)
        if traced:
            entry["layers"] = tracer.summary()
            missing = missing_calls(entry["layers"], args.workload)
            if missing:
                print(f"traced run recorded no call to {missing}; a rebinding was missed",
                      file=sys.stderr)
                return 1
            traces.append(tracer.span_records())
        rounds.append(entry)
        elapsed = time.monotonic() - ready
        longest = max(r["wall_s"] for r in rounds)
        if len(rounds) >= (2 if tracer else 1) and elapsed + longest > args.seconds:
            break
    shutil.rmtree(round_dir, ignore_errors=True)

    result = {
        "ready": ready,
        "calibration_s": setup_calibration + [t for r in rounds for t in r["calibration_s"]],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
        "peak_rss_mib": peak_kib / 1024.0,
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        traced_rounds = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds if not r["traced"]]
        layers = {
            name: statistics.median(r["layers"][name] for r in traced_rounds)
            for name in traced_rounds[0]["layers"]
        }
        layers["cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_rounds)
            - statistics.median(r["wall_s"] for r in untraced)
        )
        result["layers"] = layers
        if args.trace_file is not None:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            args.trace_file.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "rounds": traces}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
