"""Workloads: how each round's inputs are built, the timed operations, and
the checks on their outputs.

Every workload runs the same seven operations per round, on its own
inputs:

    jmap_solve_s, vba_partial_solve_s, vba_full_solve_s   library solves
    cli_simulate_s, cli_solve_s, cli_verify_priors_s       bsi.cli.main(argv)
    import_s                                              fresh interpreter

Solves run a fixed number of sweeps: their tolerances are set below
reach, so the work per solve does not depend on how fast a seeded
problem happens to converge (see README.md for the measured spread).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace

import numpy as np

import bsi
import bsi.cli

import checks

KERNEL = (0.25, 0.5, 0.25)
UNREACHED_TOL = 1e-300
DAMPING = 1.0

OPS = ("jmap_solve_s", "vba_partial_solve_s", "vba_full_solve_s",
       "cli_simulate_s", "cli_solve_s", "cli_verify_priors_s", "import_s")

LIBRARY_OPS = {"jmap_solve_s": "jmap", "vba_partial_solve_s": "vba-partial",
               "vba_full_solve_s": "vba-full"}


@dataclass(frozen=True)
class Spec:
    """Sizes and settings of one workload."""

    library: str                 # "deconv" or "sensing"
    m: int                       # library problem width M
    sparsity: int
    batch: int                   # problems per library sample
    sweeps: dict                 # method -> fixed sweep count
    hyper: bsi.HyperParams
    cli_length: int
    cli_sparsity: int
    cli_operator: dict
    cli_model: str
    cli_sweeps: int
    priors: dict = field(default_factory=dict)
    repeats: dict = field(default_factory=dict)   # op -> calls per round (default 1)
    beat_baseline: bool = False  # check rel_l2 against the damped least-squares start


DECONV_HYPER = bsi.HyperParams(alpha_eps=3.0, beta_eps=0.05, alpha_f=1.0, beta_f=0.5)
SENSING_HYPER = bsi.HyperParams(alpha_eps=3.0, beta_eps=0.05, alpha_xi=1.0, beta_xi=0.1,
                                alpha_z=1.0, beta_z=0.5, alpha_f=1.0, beta_f=0.5)
LIGHT_PRIORS = {"grid_step": 0.05, "mixture_draws": 2}
CONVOLUTION = {"kind": "convolution", "kernel": list(KERNEL)}

SPECS = {
    "deconv": Spec(
        library="deconv", m=128, sparsity=8, batch=1,
        sweeps={"jmap": 30, "vba-partial": 30, "vba-full": 100}, hyper=DECONV_HYPER,
        cli_length=128, cli_sparsity=8, cli_operator=CONVOLUTION, cli_model="direct",
        cli_sweeps=30, priors=LIGHT_PRIORS,
        repeats={"jmap_solve_s": 6, "cli_simulate_s": 6, "cli_solve_s": 6}, beat_baseline=True),
    "sensing-batch": Spec(
        library="sensing", m=128, sparsity=8, batch=4,
        sweeps={"jmap": 30, "vba-partial": 10, "vba-full": 20}, hyper=SENSING_HYPER,
        cli_length=128, cli_sparsity=8,
        cli_operator={"kind": "gaussian_random", "rows": 64}, cli_model="indirect",
        cli_sweeps=30, priors=LIGHT_PRIORS,
        repeats={"jmap_solve_s": 2, "cli_simulate_s": 2, "cli_solve_s": 2}),
    "cli": Spec(
        library="deconv", m=128, sparsity=8, batch=1,
        sweeps={"jmap": 30, "vba-partial": 10, "vba-full": 20}, hyper=DECONV_HYPER,
        cli_length=1024, cli_sparsity=32, cli_operator=CONVOLUTION, cli_model="direct",
        cli_sweeps=10, priors={}, repeats={"jmap_solve_s": 2}),
}

# Seconds-long version of every workload for the harness smoke test.
TINY = {
    name: replace(spec, m=32, sparsity=3, batch=min(spec.batch, 2),
                  sweeps={k: 5 for k in spec.sweeps}, cli_length=32, cli_sparsity=3,
                  cli_operator=dict(spec.cli_operator, **({"rows": 16} if "rows" in
                                                         spec.cli_operator else {})),
                  cli_sweeps=5, priors={"grid_step": 0.5, "mixture_draws": 1})
    for name, spec in SPECS.items()
}


# ---------------------------------------------------------------------------
# inputs

@dataclass
class LibraryProblem:
    """One seeded problem; jmap and vba-partial use ``main``, vba-full ``direct``.

    ``baseline`` is the rel_l2 of the damped least-squares start, the bar
    every method must clear on ``deconv`` (where ``main`` is ``direct``).
    """

    main: bsi.ForwardProblem
    direct: bsi.ForwardProblem
    f_true: np.ndarray
    init: object
    baseline: float = float("inf")


@dataclass
class RoundInputs:
    problems: list
    configs: dict           # op -> (subcommand, config path)
    round_dir: str

    @property
    def sim_dir(self):
        return os.path.join(self.round_dir, "sim")

    @property
    def solve_dir(self):
        return os.path.join(self.round_dir, "solve")


def _noise():
    return bsi.NoiseSpec.nonstationary(3.0, 0.05)


def damped_least_squares(H, g):
    """Ridge start (H'H + damping I)^-1 H'g."""
    return np.linalg.solve(H.T @ H + DAMPING * np.eye(H.shape[1]), H.T @ g)


def _deconv_problem(spec, rng):
    m = spec.m
    H = bsi.generate_operator(bsi.OperatorSpec(kind="convolution", n_rows=m, n_cols=m,
                                               kernel=KERNEL))
    f_true = bsi.generate_sparse_signal(bsi.SignalSpec(
        length=m, sparsity=spec.sparsity, amplitude_range=(2.0, 4.0), seed=rng.next_u64()))
    g, _ = bsi.synthesize_observation(H, f_true, _noise(), seed=rng.next_u64())
    f_dls = damped_least_squares(H, g)
    problem = bsi.ForwardProblem(g=g, H=H)
    baseline = bsi.reconstruction_metrics(f_dls, f_true).rel_l2
    return LibraryProblem(problem, problem, f_true, f_dls, baseline)


def _sensing_problem(spec, rng):
    m, n = spec.m, spec.m // 2
    H = bsi.generate_operator(bsi.OperatorSpec(kind="gaussian_random", n_rows=n, n_cols=m,
                                               seed=rng.next_u64()))
    D = bsi.generate_operator(bsi.OperatorSpec(kind="gaussian_random", n_rows=m, n_cols=m,
                                               seed=rng.next_u64()))
    z_true = bsi.generate_sparse_signal(bsi.SignalSpec(
        length=m, sparsity=spec.sparsity, amplitude_range=(2.0, 4.0), seed=rng.next_u64()))
    f_true = D @ z_true
    g, _ = bsi.synthesize_observation(H, f_true, _noise(), seed=rng.next_u64())
    g_direct, _ = bsi.synthesize_observation(H, z_true, _noise(), seed=rng.next_u64())
    return LibraryProblem(bsi.ForwardProblem(g=g, H=H, D=D),
                          bsi.ForwardProblem(g=g_direct, H=H), f_true, "zeros")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def _cli_configs(spec, round_dir, cli_seed):
    sim_dir = os.path.join(round_dir, "sim")
    solve_dir = os.path.join(round_dir, "solve")
    hyper = {k: v for k, v in spec.hyper.as_dict().items()
             if spec.cli_model == "indirect" or k in ("alpha_eps", "beta_eps",
                                                      "alpha_f", "beta_f")}
    simulate = {"length": spec.cli_length, "sparsity": spec.cli_sparsity,
                "amplitude": [2.0, 4.0], "operator": spec.cli_operator,
                "noise": {"kind": "nonstationary", "alpha": 3.0, "beta": 0.05}}
    inputs = {"g": os.path.join(sim_dir, "g.csv"), "H": os.path.join(sim_dir, "H.csv"),
              "f_true": os.path.join(sim_dir, "f_true.csv")}
    if spec.cli_model == "indirect":
        simulate["transform"] = {"kind": spec.cli_operator["kind"]}
        inputs["D"] = os.path.join(sim_dir, "D.csv")
    configs = {
        "cli_simulate_s": ("simulate", {"mode": "simulate", "model": spec.cli_model,
                                        "seed": cli_seed, "out_dir": sim_dir,
                                        "simulate": simulate}),
        "cli_solve_s": ("solve", {"mode": "solve", "model": spec.cli_model, "method": "jmap",
                                  "seed": cli_seed, "out_dir": solve_dir, "hyper": hyper,
                                  "solver": {"max_iter": spec.cli_sweeps,
                                             "tol_rel_f": UNREACHED_TOL,
                                             "tol_rel_L": UNREACHED_TOL},
                                  "inputs": inputs}),
        "cli_verify_priors_s": ("verify-priors", {"mode": "verify-priors", "seed": cli_seed,
                                                  "out_dir": os.path.join(round_dir, "priors"),
                                                  "priors": spec.priors}),
    }
    paths = {}
    for op, (mode, payload) in configs.items():
        path = os.path.join(round_dir, f"{mode}.json")
        _write_json(path, payload)
        paths[op] = (mode, path)
    return paths


def build_round(spec, seed, index, work_dir):
    """Inputs of round ``index``: a pure function of (seed, index)."""
    rng = bsi.SplitMix64(seed * 1_000_003 + index)
    make = _deconv_problem if spec.library == "deconv" else _sensing_problem
    problems = [make(spec, rng) for _ in range(spec.batch)]
    cli_seed = rng.next_u64() >> 16
    round_dir = os.path.join(work_dir, f"round{index}")
    os.makedirs(round_dir, exist_ok=True)
    return RoundInputs(problems, _cli_configs(spec, round_dir, cli_seed), round_dir)


# ---------------------------------------------------------------------------
# operations

def solver_config(spec, method, init):
    sweeps = spec.sweeps[method]
    if method == "jmap":
        return bsi.JmapConfig(max_iter=sweeps, tol_rel_f=UNREACHED_TOL,
                              tol_rel_L=UNREACHED_TOL, init=init)
    separability = "full" if method == "vba-full" else "partial"
    return bsi.VbaConfig(max_iter=sweeps, tol_rel_f=UNREACHED_TOL,
                         separability=separability, init=init)


def solve_library(spec, method, problems):
    out = []
    for p in problems:
        problem = p.direct if method == "vba-full" else p.main
        solve = bsi.solve_jmap if method == "jmap" else bsi.solve_vba
        out.append(solve(problem, spec.hyper, solver_config(spec, method, p.init)))
    return out


IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import bsi.cli\n"
    "t = time.perf_counter() - t\n"
    "print(repr(t), bsi.cli.__file__)\n"
)


def fresh_import(src_dir):
    """Import bsi.cli in a new interpreter; returns the in-child import time."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, src_dir],
                          capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"import failed: {done.stderr.strip()[-300:]}")
    seconds, path = done.stdout.split()
    if not os.path.abspath(path).startswith(os.path.abspath(src_dir)):
        raise RuntimeError(f"bsi.cli imported from {path}, not from {src_dir}")
    return float(seconds)


def run_cli(inputs, op):
    mode, path = inputs.configs[op]
    code = bsi.cli.main([mode, "--config", path])
    if code != 0:
        raise RuntimeError(f"bsi {mode} exited with {code}")


# ---------------------------------------------------------------------------
# checks

def check_library(method, problems, results):
    """Checks on one library sample; returns the first failure or None."""
    for p, (state, trace) in zip(problems, results):
        problem = p.direct if method == "vba-full" else p.main
        found = checks.positive_variances(state)
        if method == "jmap":
            found = found or checks.monotone_criterion(trace) \
                or checks.jmap_normal_equations(problem, state, trace)
        elif method == "vba-partial":
            found = found or checks.vba_partial_mean(problem, state, trace)
        else:
            found = found or checks.vba_full_fixed_point(problem, state, trace)
        if found:
            return f"{method}: {found}"
    return None


def baseline_ratios(problems, results):
    """rel_l2 of each solution over that of its damped least-squares start."""
    return [bsi.reconstruction_metrics(state.f_hat, p.f_true).rel_l2 / p.baseline
            for p, (state, _) in zip(problems, results)]


def _csv_names(spec):
    names = ["g.csv", "H.csv", "f_true.csv", "v_eps_true.csv"]
    return names + (["D.csv"] if spec.cli_model == "indirect" else [])


def check_cli(spec, inputs, op, full):
    """Cheap checks every round; ``full`` adds the oracle checks."""
    if op == "cli_simulate_s":
        for name in _csv_names(spec):
            path = os.path.join(inputs.sim_dir, name)
            if not os.path.exists(path):
                return f"simulate wrote no {name}"
            if full:
                parsed = checks.load_csv(path)
                if not checks.same_bits(bsi.cli.read_matrix(path), parsed):
                    return f"read_matrix and numpy disagree on {name}"
        if full and spec.cli_operator["kind"] == "convolution":
            H = checks.load_csv(os.path.join(inputs.sim_dir, "H.csv"))
            if not checks.same_bits(H, checks.toeplitz(KERNEL, spec.cli_length,
                                                       spec.cli_length)):
                return "H.csv is not the banded Toeplitz matrix of the kernel"
        return None
    if op == "cli_solve_s":
        result = checks.read_json(os.path.join(inputs.solve_dir, "result.json"))
        if result["iterations"] != spec.cli_sweeps or len(result["f_hat"]) != spec.cli_length \
                or not checks.finite_list(result["f_hat"]):
            return "result.json has the wrong iteration count or a bad f_hat"
        with open(os.path.join(inputs.solve_dir, "trace.csv"), encoding="utf-8") as fh:
            if sum(1 for _ in fh) != spec.cli_sweeps + 2:
                return "trace.csv has the wrong number of rows"
        return _check_solve_oracles(spec, inputs, result) if full else None
    report = checks.read_json(os.path.join(inputs.round_dir, "priors", "priors_report.json"))
    return checks.priors_report(report)


def _solve_outputs(inputs):
    out = []
    for name in ("result.json", "trace.csv"):
        with open(os.path.join(inputs.solve_dir, name), "rb") as fh:
            out.append(fh.read())
    return tuple(out)


def _check_solve_oracles(spec, inputs, result):
    sim = inputs.sim_dir
    g = checks.load_csv(os.path.join(sim, "g.csv")).reshape(-1)
    H = checks.load_csv(os.path.join(sim, "H.csv"))
    D = checks.load_csv(os.path.join(sim, "D.csv")) if spec.cli_model == "indirect" else None
    with open(inputs.configs["cli_solve_s"][1], encoding="utf-8") as fh:
        hyper = bsi.HyperParams(**json.load(fh)["hyper"])
    config = bsi.JmapConfig(max_iter=spec.cli_sweeps, tol_rel_f=UNREACHED_TOL,
                            tol_rel_L=UNREACHED_TOL)
    state, _ = bsi.solve_jmap(bsi.ForwardProblem(g=g, H=H, D=D), hyper, config)
    if not checks.same_bits(np.array(result["f_hat"]), state.f_hat):
        return "result.json f_hat differs from solve_jmap on the same arrays"
    first = _solve_outputs(inputs)
    run_cli(inputs, "cli_solve_s")
    if _solve_outputs(inputs) != first:
        return "two solves with the same config wrote different bytes"
    return None
