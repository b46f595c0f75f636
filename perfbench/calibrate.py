"""A fixed calibration kernel that measures how fast the machine runs now.

The shared host this benchmark was written on changes speed by 1.8–2.6×
over minutes to hours, for imports, sparse solves, memory traffic and
every workload's rounds alike, and none of it shows as steal time.  The worker
times this kernel after set-up and between the commands of each round
and turns its times into a speed factor, `speed()`: REF_S over their
median.  `run.py` multiplies the raw times by it, so that `setup_s` and
`wall_s` read in seconds at one fixed reference speed and a change of the
host's speed between runs cancels out.

The kernel is the sparse LU solve of a 90 × 90 grid Laplacian (the FEM
layer's kind of work) and two copies of a 64 MB array into fresh pages
(the page faults and memory traffic of the program's large meshes and
matrices), about 40 ms on a quiet host.  Between a quiet and a busy
stretch the solve slowed by 1.7×, a copy by 1.9–2.2× and a `flow` round
by 1.8–1.9×, while a tight interpreted integer loop slowed by only 1.5×
and was left out; `bounded` and `strip` slowed by 2.2–2.4×, so their
figures still move by up to a fifth between such stretches.  The kernel
calls nothing from extremal_lab, so no change to the program moves it,
except through the state the program leaves the memory in: right after
a command that used 400 MB the copies run up to 20 % slower for a few
runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

# the kernel's median time on the 2-vCPU VM of the reference figures in a
# quiet stretch; it only fixes the scale of the reported seconds
REF_S = 0.04
REPEATS = 5


class Calibrator:
    """The kernel in a process of its own, so that its arrays stay out of
    the worker's peak resident memory.  It waits on a pipe while the worker
    runs commands, so it takes no CPU from them."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the calibration process did not start")

    def sample(self) -> list[float]:
        """Seconds each of REPEATS runs of the kernel takes now."""
        self._proc.stdin.write("sample\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()  # the process ends on end of input
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def speed(samples: list[float]) -> float:
    """How many reference seconds one second is now, from kernel times."""
    return REF_S / statistics.median(samples)


def _serve() -> None:
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    grid = 90
    laplace_1d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid, grid))
    laplace = (sp.kron(laplace_1d, sp.eye(grid)) + sp.kron(sp.eye(grid), laplace_1d)).tocsc()
    rhs = np.ones(grid * grid)
    big = np.ones(8_000_000)  # 64 MB, well past the caches

    def kernel() -> float:
        u = spla.spsolve(laplace, rhs)
        # into fresh pages, as the program's large arrays are
        copies = [big.copy() for _ in range(2)]
        return float(u[0]) + sum(float(c[-1]) for c in copies)

    def timed() -> float:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    print("ready", flush=True)
    for _ in sys.stdin:  # one line a sample
        print(json.dumps([timed() for _ in range(REPEATS)]), flush=True)


if __name__ == "__main__":
    _serve()
