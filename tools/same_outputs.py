"""Check that two source trees of ``bsi`` give the same outputs, bit for bit.

Usage::

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory that holds the ``bsi`` package (for
example ``src`` of a checkout).  Each tree runs in its own subprocess,
with ``PYTHONPATH`` set to that tree and ``OPENBLAS_NUM_THREADS=1``,
and writes its outputs to a temporary directory only.  Three groups are
compared:

- ``solves``: 80 solves.  The operators are a 3-tap convolution H at
  M = 24, 128, 300 and 1024, a 5-tap one at M = 96, and dense random H
  of 64 x 128, 12 x 9 and 40 x 40.  Each runs JMAP, VBA-partial and
  VBA-full on the direct model and JMAP and VBA-partial on the indirect
  one, from zeros and from the least-squares start.  The arrays are
  every state array, ``np.asarray`` of each covariance, every
  Inverse-Gamma family array, and the trace's L and relative changes.
  A solve that raises gives its error type and message instead, and
  the line says how many of the parent's solves raised.
- ``priors``: ``priors_report.json`` of ``verify-priors`` for four
  ``priors`` sections (default, light, tiny and one non-default) at
  seeds 0, 7 and 4242.
- ``cli``: ``result.json`` and ``trace.csv`` of the acceptance
  criterion-11 ``simulate`` + ``solve`` config, run as jmap,
  vba-partial and vba-full, and of the same config at M = 1024 with 32
  spikes (its ``H.csv`` is mostly zero runs).

Prints one line per group: the number of outputs compared, the number
identical, and the largest relative difference with the output's name.
Exits 0 only if every output is identical.  Uses only the standard
library and numpy.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# the worker: runs inside one tree's subprocess


def _convolution(m, kernel):
    """M x M convolution by a centred kernel, zero-padded at the ends."""
    half = len(kernel) // 2
    return sum(np.diag(np.full(m - abs(k - half), tap), k - half)
               for k, tap in enumerate(kernel))


def _operators():
    """(name, H, D) of every operator in the grid; D is the indirect model's."""
    rng = np.random.RandomState(11)
    for m in (24, 128, 300, 1024):
        yield f"3tap-{m}", _convolution(m, (0.25, 0.5, 0.25)), np.eye(m)
    yield "5tap-96", _convolution(96, (0.1, 0.2, 0.4, 0.2, 0.1)), np.eye(96)
    for n, m in ((64, 128), (12, 9), (40, 40)):
        H = rng.randn(n, m) / np.sqrt(n)
        yield f"dense-{n}x{m}", H, np.eye(m) + 0.3 * rng.randn(m, m) / np.sqrt(m)


def _state_arrays(state, trace):
    """name -> array of every output of one solve."""
    import dataclasses

    out = {}
    for field in dataclasses.fields(state):
        value = getattr(state, field.name)
        if value is None:
            continue
        if field.name.startswith("ig_"):
            out[field.name + ".alpha_hat"] = value.alpha_hat
            out[field.name + ".beta_hat"] = value.beta_hat
        else:
            out[field.name] = np.asarray(value)
    records = trace.records
    out["L"] = np.array([r.criterion for r in records])
    for name in ("rel_change_f", "rel_change_z"):
        out[name] = np.array([np.nan if getattr(r, name) is None else getattr(r, name)
                              for r in records])
    out["stop"] = np.array(f"{trace.converged} {trace.stop_reason}")
    return out


def _solves(out_dir):
    import bsi

    hyper = bsi.HyperParams(alpha_eps=3.0, beta_eps=0.05, alpha_xi=1.0, beta_xi=0.1,
                            alpha_z=1.0, beta_z=0.5, alpha_f=1.0, beta_f=0.5)
    arrays = {}
    for name, H, D in _operators():
        n, m = H.shape
        rng = np.random.RandomState(m + n)
        f_true = np.zeros(m)
        f_true[rng.choice(m, max(1, m // 12), replace=False)] = rng.uniform(1.0, 3.0)
        g = H @ f_true + 0.05 * rng.randn(n)
        for model in ("direct", "indirect"):
            problem = bsi.ForwardProblem(g=g, H=H, D=None if model == "direct" else D)
            methods = ("jmap", "partial", "full") if model == "direct" else ("jmap", "partial")
            for method in methods:
                for init in ("zeros", "least-squares"):
                    label = f"{name}/{model}/{method}/{init}"
                    try:
                        if method == "jmap":
                            result = bsi.solve_jmap(problem, hyper, bsi.JmapConfig(
                                max_iter=20, tol_rel_f=1e-300, init=init))
                        else:
                            result = bsi.solve_vba(problem, hyper, bsi.VbaConfig(
                                max_iter=20, tol_rel_f=1e-300, separability=method,
                                init=init))
                        outputs = _state_arrays(*result)
                    except Exception as exc:  # an error is an output too
                        outputs = {"error": np.array(f"{type(exc).__name__}: {exc}")}
                    arrays.update({f"{label}/{k}": v for k, v in outputs.items()})
    np.savez(out_dir / "solves.npz", **arrays)


_PRIORS_SECTIONS = {
    "default": {},
    "light": {"grid_step": 0.05, "mixture_draws": 2},
    "tiny": {"grid_step": 0.5, "mixture_draws": 1},
    "custom": {"levels": [2.0, 0.5, 0.05], "grid_lo": -6.0, "grid_hi": 6.0,
               "grid_step": 0.02, "nu": 3.0, "b": 0.5, "mixture_draws": 3},
}


def _run_cli(mode, config, path):
    from bsi.cli import main

    path.write_text(json.dumps(config))
    code = main([mode, "--config", str(path)])
    if code != 0:
        raise SystemExit(f"{mode} exited {code} on {config}")


def _priors(out_dir):
    for name, section in _PRIORS_SECTIONS.items():
        for seed in (0, 7, 4242):
            run_dir = out_dir / "priors" / f"{name}-{seed}"
            _run_cli("verify-priors", {"mode": "verify-priors", "seed": seed,
                                       "out_dir": str(run_dir), "priors": section},
                     out_dir / "priors.json")


def _cli(out_dir):
    for suffix, length, sparsity in (("", 24, 3), ("-1024", 1024, 32)):
        sim_dir = out_dir / ("sim" + suffix)
        _run_cli("simulate", {
            "mode": "simulate", "model": "direct", "seed": 7, "out_dir": str(sim_dir),
            "simulate": {"length": length, "sparsity": sparsity, "amplitude": [1.0, 2.0],
                         "operator": {"kind": "convolution", "kernel": [0.25, 0.5, 0.25]},
                         "noise": {"kind": "nonstationary", "alpha": 3.0, "beta": 2.0}},
        }, out_dir / "sim.json")
        for method in ("jmap", "vba-partial", "vba-full"):
            _run_cli("solve", {
                "mode": "solve", "model": "direct", "method": method, "seed": 7,
                "out_dir": str(out_dir / "cli" / (method + suffix)), "solver": {"max_iter": 60},
                "inputs": {"g": str(sim_dir / "g.csv"), "H": str(sim_dir / "H.csv"),
                           "f_true": str(sim_dir / "f_true.csv")},
            }, out_dir / "solve.json")


def worker(out_dir):
    """Write every output of the ``bsi`` on ``sys.path`` under ``out_dir``."""
    out_dir = Path(out_dir)
    _solves(out_dir)
    _priors(out_dir)
    _cli(out_dir)


# ---------------------------------------------------------------------------
# the comparison

_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN)")


def _rel_diff(a, b):
    """Largest |a_i - b_i| / |a_i| of two numeric arrays; inf if they cannot
    be compared (shape, type or NaN pattern)."""
    if a.shape != b.shape or a.dtype.kind not in "fiu" or b.dtype.kind not in "fiu":
        return float("inf")
    a, b = a.astype(float), b.astype(float)
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        return float("inf")
    ok = ~np.isnan(a)
    if not ok.any():
        return 0.0
    a, b = a[ok], b[ok]
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.finfo(float).tiny)
    return float(np.where(a == b, 0.0, rel).max())


def _numbers(data):
    return np.array([float(t.decode().replace("Infinity", "inf").replace("NaN", "nan"))
                     for t in _NUMBER.findall(data)])


def _compare(pairs):
    """(compared, identical, worst difference, its name) of (name, a, b)."""
    compared = identical = 0
    worst, worst_name = 0.0, "-"
    for name, a, b in pairs:
        compared += 1
        if isinstance(a, bytes):
            same = a == b
            diff = 0.0 if same else _rel_diff(_numbers(a), _numbers(b))
        else:
            same = (a is not None and b is not None and a.shape == b.shape
                    and a.dtype == b.dtype and a.tobytes() == b.tobytes())
            diff = 0.0 if same else (float("inf") if a is None or b is None
                                     else _rel_diff(a, b))
        identical += same
        if not same and (diff > worst or worst_name == "-"):
            worst, worst_name = diff, name
    return compared, identical, worst, worst_name


def _array_pairs(left, right):
    with np.load(left) as a, np.load(right) as b:
        for name in sorted(set(a.files) | set(b.files)):
            yield (name, a[name] if name in a.files else None,
                   b[name] if name in b.files else None)


def _raised(path):
    """(solves that raised, solves) of a solves.npz: each solve saved its
    trace's L or its error."""
    with np.load(path) as arrays:
        raised = sum(name.endswith("/error") for name in arrays.files)
        return raised, raised + sum(name.endswith("/L") for name in arrays.files)


def _file_pairs(left, right, pattern):
    names = sorted({p.relative_to(left) for p in left.glob(pattern)}
                   | {p.relative_to(right) for p in right.glob(pattern)})
    for name in names:
        a, b = left / name, right / name
        yield (str(name), a.read_bytes() if a.exists() else b"",
               b.read_bytes() if b.exists() else b"")


def _run_tree(src, out_dir):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(src).resolve()),
                                           str(Path(__file__).resolve().parent)]))
    code = ("import sys, bsi, same_outputs\n"
            f"if not bsi.__file__.startswith({str(Path(src).resolve())!r}):\n"
            "    sys.exit(f'bsi was imported from {bsi.__file__}')\n"
            "same_outputs.worker(sys.argv[1])\n")
    subprocess.run([sys.executable, "-c", code, str(out_dir)], env=env, check=True)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / side for side in ("parent", "change")]
        for src, out_dir in zip(argv, dirs):
            out_dir.mkdir()
            _run_tree(src, out_dir)
        left, right = dirs
        groups = {
            "solves": _array_pairs(left / "solves.npz", right / "solves.npz"),
            "priors": _file_pairs(left, right, "priors/*/priors_report.json"),
            "cli": _file_pairs(left, right, "cli/*/*"),
        }
        all_same = True
        for group, pairs in groups.items():
            compared, identical, worst, name = _compare(pairs)
            all_same &= compared == identical and compared > 0
            print(f"{group}: {compared} compared, {identical} identical, "
                  f"largest relative difference {worst:.3g} ({name})"
                  + ("; {} of {} solves raised".format(*_raised(left / "solves.npz"))
                     if group == "solves" else ""))
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
