"""Per-sweep cost of each solver on the paper's deconvolution problem.

Usage::

    python tools/sweep_cost.py                 # M = 512, 1024, 2048, 4096
    python tools/sweep_cost.py 128 1024        # any M

For each M the problem is a 3-tap convolution H = (0.25, 0.5, 0.25), M =
N, with 12 spikes and Gaussian noise (a fixed seed), solved by JMAP,
VBA-partial and VBA-full on the direct model, and by JMAP and
VBA-partial on the indirect model with D = I.  Every solve runs 10
sweeps (its tolerances are out of reach).  The five solvers and a batch
of 20 ``_linalg.selected_inverse`` calls on the factor of the first
VBA-partial f block take turns, three rounds, so a slow spell of the
host falls on all of them alike.

Prints one markdown table row per M.  A solver's cell is the median,
over the three solves, of each solve's median sweep time in ms (the
trace's per-record seconds, criterion included), and in brackets the
solve's wall time divided by 10, which adds the validation and the
operators' setup.  The last cell is the median ``selected_inverse``
call in ms.  OpenBLAS runs on one thread, as in the benchmark.
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
from bsi._linalg import band_factor, selected_inverse  # noqa: E402

SWEEPS, ROUNDS, CALLS = 10, 3, 20
HYPER = bsi.HyperParams(alpha_eps=3.0, beta_eps=0.05, alpha_xi=1.0, beta_xi=0.1,
                        alpha_z=1.0, beta_z=0.5, alpha_f=1.0, beta_f=0.5)
SOLVERS = ("jmap", "jmap, `D = I`", "vba-partial", "vba-partial, `D = I`", "vba-full")


def problems(m):
    """(direct, indirect with D = I) deconvolution problems of width m."""
    H = bsi.generate_operator(bsi.OperatorSpec(kind="convolution", n_rows=m, n_cols=m,
                                               kernel=(0.25, 0.5, 0.25)))
    rng = np.random.RandomState(m)
    f = np.zeros(m)
    f[rng.choice(m, min(12, m), replace=False)] = rng.uniform(2.0, 4.0, min(12, m))
    g = H @ f + 0.2 * rng.randn(m)
    return bsi.ForwardProblem(g=g, H=H), bsi.ForwardProblem(g=g, H=H, D=np.eye(m))


def solve(solver, direct, indirect):
    """(median sweep seconds, wall seconds) of one 10-sweep solve."""
    problem = indirect if "D = I" in solver else direct
    tic = time.perf_counter()
    if solver.startswith("jmap"):
        _, trace = bsi.solve_jmap(problem, HYPER, bsi.JmapConfig(
            max_iter=SWEEPS, tol_rel_f=1e-300, tol_rel_L=1e-300))
    else:
        _, trace = bsi.solve_vba(problem, HYPER, bsi.VbaConfig(
            max_iter=SWEEPS, tol_rel_f=1e-300,
            separability="full" if solver == "vba-full" else "partial"))
    wall = time.perf_counter() - tic
    return statistics.median(r.seconds for r in trace.records[1:]), wall


def selinv_seconds(direct):
    """Median seconds of ``selected_inverse`` on the factor of the first
    VBA-partial f block: the precisions <v^-1> of the solver's zero start,
    the public IG step at f = 0 with a zero covariance."""
    f = np.zeros(direct.n_coef)
    w, p = (bsi.vba_update_ig(kind, HYPER, f, np.zeros(f.size), problem=direct)
            .inv_expectation() for kind in ("eps", "f"))
    c = band_factor(direct._operators["f"], w, p)
    times = []
    for _ in range(CALLS):
        tic = time.perf_counter()
        selected_inverse(c)
        times.append(time.perf_counter() - tic)
    return statistics.median(times)


def row(m):
    direct, indirect = problems(m)
    sweeps = {s: [] for s in SOLVERS}
    walls = {s: [] for s in SOLVERS}
    selinv = []
    for _ in range(ROUNDS):
        for solver in SOLVERS:
            sweep, wall = solve(solver, direct, indirect)
            sweeps[solver].append(sweep)
            walls[solver].append(wall)
        selinv.append(selinv_seconds(direct))
    cells = [f"{statistics.median(sweeps[s]) * 1e3:.2f} "
             f"({statistics.median(walls[s]) * 1e3 / SWEEPS:.2f})" for s in SOLVERS]
    return f"| {m} | " + " | ".join(cells) + f" | {statistics.median(selinv) * 1e3:.3f} |"


def main(argv) -> int:
    sizes = [int(a) for a in argv] or [512, 1024, 2048, 4096]
    print("| M | " + " | ".join(SOLVERS) + " | `selected_inverse` |")
    print("|---" * (len(SOLVERS) + 2) + "|")
    for m in sizes:
        print(row(m), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
