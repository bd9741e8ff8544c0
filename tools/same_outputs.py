"""Check that two source trees of ``bsi`` give the same outputs, bit for bit.

Usage::

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory that holds the ``bsi`` package (for
example ``src`` of a checkout).  Each tree runs in its own subprocess,
with ``PYTHONPATH`` set to that tree and ``OPENBLAS_NUM_THREADS=1``,
and writes its outputs to a temporary directory only.  Five groups are
compared:

- ``solves``: 120 solves.  The operators are a 3-tap convolution H at
  M = 24, 48, 128, 300 and 1024, a 5-tap one at M = 96, a 13-tap one at
  M = 128 and a 17-tap one at M = 112 (taps 0.6^|k|, well conditioned),
  and dense random H of 64 x 128, 12 x 9, 40 x 40 and 48 x 200 (wide,
  with M not a multiple of the 32-coordinate blocks of the dense
  coordinate pass).  The 3-tap H at M = 24 and 48 and the 13- and
  17-tap ones sit near the edges of the operator's dense-or-banded rule.
  Each runs JMAP, VBA-partial and VBA-full on the direct model and JMAP
  and VBA-partial on the indirect one, from zeros and from the
  least-squares start.  The arrays are
  every state array, ``np.asarray`` of each covariance, every
  Inverse-Gamma family array, and the trace's L and relative changes.
  A solve that raises gives its error type and message instead, and
  the line says how many of the parent's solves raised.
- ``blocks``: the public Gaussian blocks, ``jmap_update_f``/``jmap_update_z``
  and ``vba_update_f``/``vba_update_z``, at seeded precisions on every
  operator of the ``solves`` grid: the f block of the direct and the
  indirect model (with the coupling term) and the z block.  The arrays
  are each mean and ``np.asarray`` of each VBA covariance, named
  ``operator/block/solver-path/...`` with the path (band, dual or dense)
  the block's operator takes; the line lists the ``block/solver-path``
  of every output that differs.
- ``priors``: ``priors_report.json`` of ``verify-priors`` for six
  ``priors`` sections (default, light, tiny, one non-default, and the
  default grid with 0 and with 1 mixture draw, the edges of the one
  quadrature call that integrates every draw) at seeds 0, 7 and 4242.
- ``cli``: ``result.json`` and ``trace.csv`` of the acceptance
  criterion-11 ``simulate`` + ``solve`` config, run as jmap,
  vba-partial and vba-full, and of the same config at M = 1024 with 32
  spikes (its ``H.csv`` is mostly zero runs).
- ``simulate``: every file those two ``simulate`` runs write, and those
  of an indirect ``gaussian_random`` simulate (M = 128, 64 rows, a
  ``gaussian_random`` transform), whose ``H.csv`` and ``D.csv`` rows are
  dense.  Files are compared byte for byte, so a writer that changes
  the text of a value it keeps is caught too.

Prints one line per group: the number of outputs compared, the number
identical, the largest elementwise relative difference
(``max_i |a_i - b_i| / |a_i|``) and the largest normwise one
(``max |a - b| / max |a|``), each with the output's name.  A last-bit
change in a small entry shows as a large elementwise difference and a
tiny normwise one.  For JSON files that differ, the line also names up
to five dotted key paths of the values that differ, for example
``scale_mixture.max_abs_deviation`` (a list item as ``[i]``).  Exits 0
only if every output is identical.  Uses only the standard library and
numpy.
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
    for m in (24, 48, 128, 300, 1024):
        yield f"3tap-{m}", _convolution(m, (0.25, 0.5, 0.25)), np.eye(m)
    yield "5tap-96", _convolution(96, (0.1, 0.2, 0.4, 0.2, 0.1)), np.eye(96)
    for taps, m in ((13, 128), (17, 112)):
        kernel = [0.6 ** abs(k - taps // 2) for k in range(taps)]
        yield f"{taps}tap-{m}", _convolution(m, kernel), np.eye(m)
    for n, m in ((64, 128), (12, 9), (40, 40), (48, 200)):
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


def _blocks(out_dir):
    import bsi

    arrays = {}
    for name, H, D in _operators():
        n, m = H.shape
        rng = np.random.RandomState(n + 2 * m)
        g, z, f = rng.randn(n), rng.randn(m), rng.randn(m)
        w, p, w_z, p_z = (10.0 ** rng.uniform(-1, 1, size) for size in (n, m, m, m))
        direct, indirect = bsi.ForwardProblem(g=g, H=H), bsi.ForwardProblem(g=g, H=H, D=D)
        for label, problem, jmap, vba, w_b, p_b, other in (
                ("f-direct", direct, bsi.jmap_update_f, bsi.vba_update_f, w, p, None),
                ("f", indirect, bsi.jmap_update_f, bsi.vba_update_f, w, p, z),
                ("z", indirect, bsi.jmap_update_z, bsi.vba_update_z, w_z, p_z, f)):
            op = problem._operators[label[0]]
            path = "band" if op.banded_solve else "dual" if op.dual else "dense"
            arrays[f"{name}/{label}/jmap-{path}/mean"] = jmap(problem, 1.0 / w_b, 1.0 / p_b,
                                                              other)
            mean, Sigma = vba(problem, w_b, p_b, other)
            arrays[f"{name}/{label}/vba-{path}/mean"] = mean
            arrays[f"{name}/{label}/vba-{path}/Sigma"] = np.asarray(Sigma)
    np.savez(out_dir / "blocks.npz", **arrays)


_PRIORS_SECTIONS = {
    "default": {},
    "light": {"grid_step": 0.05, "mixture_draws": 2},
    "tiny": {"grid_step": 0.5, "mixture_draws": 1},
    # the edges of the one batched quadrature call: no row and one row
    "no-draws": {"mixture_draws": 0},
    "one-draw": {"mixture_draws": 1},
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
    _run_cli("simulate", {
        "mode": "simulate", "model": "indirect", "seed": 7,
        "out_dir": str(out_dir / "sim-indirect"),
        "simulate": {"length": 128, "sparsity": 8,
                     "operator": {"kind": "gaussian_random", "rows": 64},
                     "transform": {"kind": "gaussian_random"},
                     "noise": {"kind": "stationary", "sigma": 0.05}},
    }, out_dir / "sim.json")
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
    _blocks(out_dir)
    _priors(out_dir)
    _cli(out_dir)


# ---------------------------------------------------------------------------
# the comparison

_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN)")


def _rel_diff(a, b):
    """(largest |a_i - b_i| / |a_i|, max |a - b| / max |a|) of two numeric
    arrays; inf for both if they cannot be compared (shape, type or NaN
    pattern)."""
    if a.shape != b.shape or a.dtype.kind not in "fiu" or b.dtype.kind not in "fiu":
        return float("inf"), float("inf")
    a, b = a.astype(float), b.astype(float)
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        return float("inf"), float("inf")
    ok = ~np.isnan(a)
    if not ok.any():
        return 0.0, 0.0
    a, b = a[ok], b[ok]
    tiny = np.finfo(float).tiny
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.where(a == b, 0.0, np.abs(a - b))
        rel = diff / np.maximum(np.abs(a), tiny)
        norm = diff.max() / max(np.abs(a).max(), tiny)
    # inf - inf and inf / inf are NaN: an infinite entry that changed
    return tuple(float(np.nan_to_num(x, nan=np.inf)) for x in (rel.max(), norm))


def _numbers(data):
    return np.array([float(t.decode().replace("Infinity", "inf").replace("NaN", "nan"))
                     for t in _NUMBER.findall(data)])


def _json_paths(a, b, path=""):
    """Dotted key paths of the leaves at which two parsed JSON documents
    differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _json_paths(a.get(key), b.get(key), f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_paths(x, y, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):  # NaN equals NaN here
        yield path or "(document)"


def _compare(pairs):
    """(compared, identical, worst, fields, differing) of (name, a, b);
    worst is the largest (elementwise, name) and (normwise, name)
    difference, fields the differing key paths of the JSON files, in
    order of appearance, and differing the names of the outputs that
    differ."""
    compared = identical = 0
    worst = [(0.0, "-"), (0.0, "-")]
    fields = {}
    differing = []
    for name, a, b in pairs:
        compared += 1
        if isinstance(a, bytes):
            same = a == b
            if not same:
                if name.endswith(".json") and a and b:
                    fields.update(dict.fromkeys(_json_paths(json.loads(a), json.loads(b))))
                a, b = _numbers(a), _numbers(b)
        else:
            same = (a is not None and b is not None and a.shape == b.shape
                    and a.dtype == b.dtype and a.tobytes() == b.tobytes())
        identical += same
        if same:
            continue
        differing.append(name)
        diffs = (float("inf"),) * 2 if a is None or b is None else _rel_diff(a, b)
        for k, diff in enumerate(diffs):
            if diff > worst[k][0] or worst[k][1] == "-":
                worst[k] = (diff, name)
    return compared, identical, worst, list(fields), differing


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
            "blocks": _array_pairs(left / "blocks.npz", right / "blocks.npz"),
            "priors": _file_pairs(left, right, "priors/*/priors_report.json"),
            "cli": _file_pairs(left, right, "cli/*/*"),
            "simulate": _file_pairs(left, right, "sim*/*"),
        }
        all_same = True
        for group, pairs in groups.items():
            (compared, identical, ((worst, name), (norm, norm_name)), fields,
             differing) = _compare(pairs)
            all_same &= compared == identical and compared > 0
            notes = []
            if group == "solves":
                notes.append("{} of {} solves raised".format(*_raised(left / "solves.npz")))
            if group == "blocks" and differing:
                notes.append("differing blocks: " + ", ".join(sorted(
                    {d.split("/", 1)[1].rsplit("/", 1)[0] for d in differing})))
            if fields:
                notes.append("differing JSON fields: " + ", ".join(fields[:5])
                             + (f" and {len(fields) - 5} more" if len(fields) > 5 else ""))
            print(f"{group}: {compared} compared, {identical} identical, "
                  f"largest relative difference {worst:.3g} ({name}), "
                  f"normwise {norm:.3g} ({norm_name})"
                  + "".join(f"; {note}" for note in notes))
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
