"""Banded against dense time of each solver, and the path each rule picks.

Usage::

    python tools/path_rules.py                 # M = 16 to 512
    python tools/path_rules.py 32 64           # any M
    python tools/path_rules.py 512 1024 --bands 96 128 192

For each M and each u in 0, 1, 2, 4, 6, 8, 12, 16, 32 and 64 (or each u
given after ``--bands``) with 8 u <= 2 M, the operator is a random banded
M x M H (N = M, entries uniform in [-1, 1], kl = u // 2 sub- and ku =
u - kl super-diagonals),
on the direct model with a sparse f and Gaussian noise (fixed seeds).
Each solver runs one 10-sweep solve on the band and one on the dense
path, with one flag of H's operator forced on and off and every other
flag at its rule's value: ``banded_solve`` for JMAP and VBA-partial,
``banded_pass`` for VBA-full.  The two solves take turns, the first of
each pair alternating, for 9 pairs, after one unmeasured solve of each.

Prints one markdown table per solver: a row per M, a column per u.  A
cell is the median over the pairs of the banded time divided by the
dense one, then ``B`` or ``D`` for the path the operator's own flag
picks, in bold where that path was the slower one.  A last line per
solver names its worst miss: the largest (picked time) / (faster time).
OpenBLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bsi  # noqa: E402

SWEEPS, PAIRS = 10, 9
SIZES = (16, 24, 32, 48, 64, 96, 112, 128, 160, 192, 256, 384, 512)
BANDS = (0, 1, 2, 4, 6, 8, 12, 16, 32, 64)
HYPER = bsi.HyperParams(alpha_eps=3.0, beta_eps=0.05, alpha_f=1.0, beta_f=0.5)
# each solver and the operator flag that picks its path
SOLVERS = {"JMAP": "banded_solve", "VBA-partial": "banded_solve", "VBA-full": "banded_pass"}


def problem(m, u, flag=None, value=None):
    """The direct problem of width m and u = kl + ku, its operator's ``flag``
    set to ``value`` when given."""
    rng = np.random.RandomState(1000 * m + u)
    kl = u // 2
    H = rng.uniform(-1.0, 1.0, (m, m))
    i, j = np.indices((m, m))
    H[(j - i > u - kl) | (i - j > kl)] = 0.0
    f = np.zeros(m)
    f[rng.choice(m, max(1, m // 12), replace=False)] = rng.uniform(2.0, 4.0)
    case = bsi.ForwardProblem(g=H @ f + 0.05 * rng.randn(m), H=H)
    if flag is not None:
        setattr(case._operators["f"], flag, value)
    return case


def seconds(solver, case):
    """Wall time of one 10-sweep solve."""
    tic = time.perf_counter()
    if solver == "JMAP":
        bsi.solve_jmap(case, HYPER, bsi.JmapConfig(
            max_iter=SWEEPS, tol_rel_f=1e-300, tol_rel_L=1e-300))
    else:
        bsi.solve_vba(case, HYPER, bsi.VbaConfig(
            max_iter=SWEEPS, tol_rel_f=1e-300,
            separability="full" if solver == "VBA-full" else "partial"))
    return time.perf_counter() - tic


def ratio(solver, m, u):
    """Median over the pairs of banded / dense time."""
    flag = SOLVERS[solver]
    band, dense = problem(m, u, flag, True), problem(m, u, flag, False)
    for case in (band, dense):   # the unmeasured solves build the band layout
        seconds(solver, case)
    ratios = []
    for k in range(PAIRS):
        if k % 2:
            t_dense, t_band = seconds(solver, dense), seconds(solver, band)
        else:
            t_band, t_dense = seconds(solver, band), seconds(solver, dense)
        ratios.append(t_band / t_dense)
    return statistics.median(ratios)


def main(argv) -> int:
    bands = BANDS
    if "--bands" in argv:
        k = argv.index("--bands")
        argv, bands = argv[:k], tuple(int(a) for a in argv[k + 1:])
    sizes = [int(a) for a in argv] or SIZES
    grid = {m: [u for u in bands if 8 * u <= 2 * m] for m in sizes}
    for solver, flag in SOLVERS.items():
        print(f"\n{solver}, banded / dense time; B or D: the path `{flag}` picks\n")
        print("| M | " + " | ".join(f"u = {u}" for u in bands) + " |")
        print("|---" * (len(bands) + 1) + "|")
        worst = (1.0, "")
        for m in sizes:
            cells = []
            for u in grid[m]:
                r = ratio(solver, m, u)
                banded = getattr(problem(m, u)._operators["f"], flag)
                miss = r if banded else 1.0 / r
                cell = f"{r:.2f} {'B' if banded else 'D'}"
                cells.append(f"**{cell}**" if miss > 1.0 else cell)
                worst = max(worst, (miss, f"M = {m}, u = {u}"))
            cells = [cells.pop(0) if u in grid[m] else "-" for u in bands]
            print(f"| {m} | " + " | ".join(cells) + " |", flush=True)
        print(f"\nworst miss: {worst[0]:.2f}x" + (f" at {worst[1]}" if worst[1] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
