"""Command-line front end: config parsing, matrix I/O, solver dispatch.

Subcommands
-----------
simulate        write g.csv, H.csv, (D.csv,) f_true.csv, v_eps_true.csv
solve           write result.json and trace.csv for jmap / vba-partial /
                vba-full on the configured inputs
verify-priors   write priors_report.json with the identity, limit and
                quadrature deviations of the priors module

All take ``--config <path>`` (a single JSON document, unknown keys
rejected) plus optional ``--out <dir>`` and ``--seed <u64>`` overrides.
``BSI_LOG`` in {error, info, debug} sets verbosity.  Exit codes: 0
success (non-convergence included, flagged in result.json), 2 config
error, 3 I/O error, 4 solver error.

Matrix files are UTF-8 CSV with a ``# rows=<N> cols=<M>`` header line
followed by N comma-separated rows; floats are emitted with shortest
round-trip notation (up to 17 significant digits) so write/read is
bit-exact.  trace.csv columns are fixed: iter,L,rel_change_f,
rel_change_z,millis; rel_change_z stays empty for the direct model and
millis stays empty unless the config sets emit_timing (wall time is
inherently non-reproducible, and identical config+seed must produce
byte-identical outputs).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate

from .jmap import JmapConfig, solve_jmap
from .model import (
    ForwardProblem,
    HyperParams,
    ModelMismatch,
    NonFinite,
    NonPositiveHyper,
    NonPositiveVariance,
    DimensionMismatch,
    SingularSystem,
)
from .priors import (
    GhParams,
    GigParams,
    QuadratureFailure,
    bessel_k,
    gh_marginal_quadrature,
    gh_pdf,
    limit_deviation,
    reference_pdf,
)
from .rng import SplitMix64
from .synth import (
    NoiseSpec,
    OperatorSpec,
    SignalSpec,
    SpecError,
    generate_operator,
    generate_sparse_signal,
    reconstruction_metrics,
    synthesize_observation,
)
from .vba import VbaConfig, solve_vba

log = logging.getLogger("bsi.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4

_SOLVER_ERRORS = (
    SingularSystem, NonPositiveVariance, NonPositiveHyper,
    DimensionMismatch, NonFinite, ModelMismatch, SpecError,
    QuadratureFailure, FloatingPointError,
)


class ConfigError(ValueError):
    """Config file missing, unparsable, or semantically invalid."""


class ParseError(ValueError):
    """Malformed numeric field in a matrix file."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ShapeError(ValueError):
    """Ragged or wrongly sized matrix file."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# matrix CSV I/O

_HEADER_RE = re.compile(r"^#\s*rows=(\d+)\s+cols=(\d+)\s*$")


def write_matrix(matrix, path) -> None:
    """Write a matrix (or column vector) with a rows/cols header line."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ShapeError(f"can only write 1-D or 2-D arrays, got ndim {a.ndim}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# rows={a.shape[0]} cols={a.shape[1]}\n")
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`; bit-exact round trip."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty matrix file", line=1)
    header = _HEADER_RE.match(lines[0])
    if not header:
        raise ParseError(f"{path}: line 1 is not a '# rows=N cols=M' header", line=1)
    n, m = int(header.group(1)), int(header.group(2))
    data_lines = [ln for ln in lines[1:] if ln.strip()]
    if len(data_lines) != n:
        raise ShapeError(
            f"{path}: header promises {n} rows, found {len(data_lines)}",
            line=len(data_lines) + 1,
        )
    out = np.empty((n, m))
    for i, ln in enumerate(data_lines):
        fields = ln.split(",")
        if len(fields) != m:
            raise ShapeError(
                f"{path}: line {i + 2} has {len(fields)} fields, expected {m}",
                line=i + 2,
            )
        for j, tok in enumerate(fields):
            try:
                out[i, j] = float(tok)
            except ValueError as exc:
                raise ParseError(
                    f"{path}: line {i + 2}, column {j + 1}: bad float {tok!r}",
                    line=i + 2, column=j + 1,
                ) from exc
    return out


def _read_vector(path) -> np.ndarray:
    a = read_matrix(path)
    if a.shape[0] != 1 and a.shape[1] != 1:
        raise ShapeError(f"{path}: expected a vector, got shape {a.shape}")
    return a.reshape(-1)


# ---------------------------------------------------------------------------
# configuration

_MODES = ("simulate", "solve", "verify-priors")
_MODELS = ("direct", "indirect")
_METHODS = ("jmap", "vba-partial", "vba-full")


@dataclass
class RunConfig:
    """One CLI run: mode, model/method, hyperparameters, limits, paths, seed."""

    mode: str
    model: str = "direct"
    method: str = "jmap"
    hyper: HyperParams = field(default_factory=HyperParams)
    max_iter: int = 100
    tol_rel_f: float = 1e-8
    tol_rel_L: float = 1e-8
    init: str = "zeros"
    inputs: dict = field(default_factory=dict)
    out_dir: str = "."
    seed: int = 0
    emit_timing: bool = False
    simulate: dict = field(default_factory=dict)
    priors: dict = field(default_factory=dict)


def _check_keys(section: dict, allowed, where: str):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


# JSON value types each field kind accepts: an int field takes no float,
# a float field takes an int, and no numeric field takes a bool (which
# Python counts as an int)
_JSON_TYPES = {str: (str,), int: (int,), float: (int, float), bool: (bool,)}


def _take(section, key, kind, where, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {key!r} in {where}")
        return default
    value = section[key]
    if (not isinstance(value, _JSON_TYPES[kind])
            or (isinstance(value, bool) and kind is not bool)):
        raise ConfigError(f"bad value for {key!r} in {where}: {value!r} "
                          f"(expected {kind.__name__})")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ConfigError(f"bad value for {key!r} in {where}: {value!r}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate the JSON run configuration (unknown keys rejected)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    _check_keys(raw, ("mode", "model", "method", "hyper", "solver", "inputs",
                      "out_dir", "seed", "emit_timing", "simulate", "priors"),
                "config root")
    mode = _take(raw, "mode", str, "config root", required=True)
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    cfg = RunConfig(mode=mode)
    cfg.model = _take(raw, "model", str, "config root", default="direct")
    if cfg.model not in _MODELS:
        raise ConfigError(f"model must be one of {_MODELS}, got {cfg.model!r}")
    cfg.method = _take(raw, "method", str, "config root", default="jmap")
    if cfg.method not in _METHODS:
        raise ConfigError(f"method must be one of {_METHODS}, got {cfg.method!r}")
    if cfg.method == "vba-full" and cfg.model != "direct":
        raise ConfigError("vba-full requires model=direct")
    cfg.out_dir = _take(raw, "out_dir", str, "config root", default=".")
    cfg.seed = _take(raw, "seed", int, "config root", default=0)
    if cfg.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    cfg.emit_timing = _take(raw, "emit_timing", bool, "config root", default=False)

    hyper_raw = raw.get("hyper", {})
    _check_keys(hyper_raw, HyperParams().as_dict().keys(), "hyper")
    values = {k: _take(hyper_raw, k, float, "hyper") for k in hyper_raw}
    try:
        cfg.hyper = HyperParams(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad hyper section: {exc}") from exc

    solver_raw = raw.get("solver", {})
    _check_keys(solver_raw, ("max_iter", "tol_rel_f", "tol_rel_L", "init"), "solver")
    cfg.max_iter = _take(solver_raw, "max_iter", int, "solver", default=100)
    cfg.tol_rel_f = _take(solver_raw, "tol_rel_f", float, "solver", default=1e-8)
    cfg.tol_rel_L = _take(solver_raw, "tol_rel_L", float, "solver", default=1e-8)
    cfg.init = _take(solver_raw, "init", str, "solver", default="zeros")
    if cfg.init not in ("zeros", "least-squares"):
        raise ConfigError("solver.init must be 'zeros' or 'least-squares'")
    if cfg.max_iter < 1 or cfg.tol_rel_f <= 0 or cfg.tol_rel_L <= 0:
        raise ConfigError("solver limits must be positive")

    inputs_raw = raw.get("inputs", {})
    _check_keys(inputs_raw, ("g", "H", "D", "f_true"), "inputs")
    cfg.inputs = dict(inputs_raw)

    simulate_raw = raw.get("simulate", {})
    _check_keys(simulate_raw, ("length", "sparsity", "amplitude", "operator",
                               "noise", "transform"), "simulate")
    cfg.simulate = dict(simulate_raw)

    priors_raw = raw.get("priors", {})
    _check_keys(priors_raw, ("levels", "grid_lo", "grid_hi", "grid_step",
                             "nu", "b", "mixture_draws"), "priors")
    cfg.priors = dict(priors_raw)

    if mode == "solve":
        if "g" not in cfg.inputs or "H" not in cfg.inputs:
            raise ConfigError("solve mode requires inputs.g and inputs.H")
        if cfg.model == "indirect" and "D" not in cfg.inputs:
            raise ConfigError("indirect model requires inputs.D (a path or 'identity')")
        if cfg.model == "direct" and "D" in cfg.inputs:
            raise ConfigError("inputs.D is only valid for the indirect model")
    if mode == "simulate" and ("length" not in cfg.simulate
                               or "sparsity" not in cfg.simulate):
        raise ConfigError("simulate mode requires simulate.length and simulate.sparsity")
    return cfg


# ---------------------------------------------------------------------------
# mode implementations

def _sub_seed(seed: int, stream: int) -> int:
    """Derived per-purpose seed; streams: 0 signal, 1 operator, 2 noise,
    3 transform, 4 prior-verification draws."""
    return (seed * 1000003 + stream) & ((1 << 64) - 1)


def _operator_from_section(section, n_rows, n_cols, seed, where):
    _check_keys(section, ("kind", "rows", "kernel"), where)
    kind = _take(section, "kind", str, where, default="identity")
    kernel = section.get("kernel")
    spec = OperatorSpec(
        kind=kind, n_rows=n_rows, n_cols=n_cols,
        kernel=tuple(float(k) for k in kernel) if kernel else None,
        seed=seed,
    )
    return generate_operator(spec)


def _noise_from_section(section):
    _check_keys(section, ("kind", "sigma", "alpha", "beta"), "simulate.noise")
    kind = section.get("kind", "none")
    if kind == "none":
        return NoiseSpec.none()
    if kind == "stationary":
        return NoiseSpec.stationary(float(section.get("sigma", 0.0)))
    if kind == "nonstationary":
        return NoiseSpec.nonstationary(float(section.get("alpha", 3.0)),
                                       float(section.get("beta", 2.0)))
    raise ConfigError(f"unknown noise kind {kind!r}")


def run_simulate(cfg: RunConfig) -> None:
    sim = cfg.simulate
    length = int(sim["length"])
    sparsity = int(sim["sparsity"])
    amplitude = tuple(float(a) for a in sim.get("amplitude", (1.0, 2.0)))
    if len(amplitude) != 2:
        raise ConfigError("simulate.amplitude must be [low, high]")
    op_section = sim.get("operator", {"kind": "identity"})
    n_rows = int(op_section.get("rows", length))

    signal = generate_sparse_signal(SignalSpec(
        length=length, sparsity=sparsity, amplitude_range=amplitude,
        seed=_sub_seed(cfg.seed, 0)))
    H = _operator_from_section(op_section, n_rows, length,
                               _sub_seed(cfg.seed, 1), "simulate.operator")
    outputs = {"H.csv": H}
    if cfg.model == "indirect":
        D = _operator_from_section(sim.get("transform", {"kind": "identity"}),
                                   length, length, _sub_seed(cfg.seed, 3),
                                   "simulate.transform")
        f_true = D @ signal
        outputs["D.csv"] = D
    else:
        f_true = signal
    noise = _noise_from_section(sim.get("noise", {"kind": "none"}))
    g, v_true = synthesize_observation(H, f_true, noise, seed=_sub_seed(cfg.seed, 2))
    outputs["g.csv"] = g
    outputs["f_true.csv"] = f_true
    outputs["v_eps_true.csv"] = v_true

    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, data in outputs.items():
        write_matrix(data, os.path.join(cfg.out_dir, name))
        log.info("wrote %s", name)


def _load_problem(cfg: RunConfig) -> ForwardProblem:
    g = _read_vector(cfg.inputs["g"])
    H = read_matrix(cfg.inputs["H"])
    D = None
    if cfg.model == "indirect":
        spec = cfg.inputs["D"]
        D = np.eye(H.shape[1]) if spec == "identity" else read_matrix(spec)
    return ForwardProblem(g=g, H=H, D=D)


def _run_solver(cfg: RunConfig, problem: ForwardProblem):
    if cfg.method == "jmap":
        config = JmapConfig(max_iter=cfg.max_iter, tol_rel_f=cfg.tol_rel_f,
                            tol_rel_L=cfg.tol_rel_L, init=cfg.init)
        return solve_jmap(problem, cfg.hyper, config)
    separability = "full" if cfg.method == "vba-full" else "partial"
    config = VbaConfig(max_iter=cfg.max_iter, tol_rel_f=cfg.tol_rel_f,
                       separability=separability, init=cfg.init)
    return solve_vba(problem, cfg.hyper, config)


def _write_trace_csv(trace, path, direct: bool, emit_timing: bool) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,L,rel_change_f,rel_change_z,millis\n")
        for rec in trace.records:
            df = repr(rec.rel_change_f) if rec.rel_change_f is not None else ""
            dz = ("" if direct or rec.rel_change_z is None
                  else repr(rec.rel_change_z))
            ms = repr(rec.seconds * 1000.0) if emit_timing and rec.iteration else ""
            fh.write(f"{rec.iteration},{repr(rec.criterion)},{df},{dz},{ms}\n")


def _state_summary(state) -> dict:
    out = {"f_hat": state.f_hat.tolist()}
    out["z_hat"] = state.z_hat.tolist() if state.z_hat is not None else None
    variances = {"eps": state.v_eps.tolist()}
    if state.v_f is not None:
        variances["f"] = state.v_f.tolist()
    if state.v_xi is not None:
        variances["xi"] = state.v_xi.tolist()
    if state.v_z is not None:
        variances["z"] = state.v_z.tolist()
    out["variances"] = variances
    families = {}
    for name in ("eps", "xi", "z", "f"):
        fam = getattr(state, f"ig_{name}")
        if fam is not None:
            families[name] = {"alpha_hat": fam.alpha_hat.tolist(),
                              "beta_hat": fam.beta_hat.tolist()}
    out["ig"] = families or None
    return out


def run_solve(cfg: RunConfig) -> None:
    problem = _load_problem(cfg)
    state, trace = _run_solver(cfg, problem)
    result = {
        "model": cfg.model,
        "method": cfg.method,
        "seed": cfg.seed,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "iterations": trace.iterations,
        "update_order": list(trace.update_order),
        "criterion_initial": trace.records[0].criterion,
        "criterion_final": trace.records[-1].criterion,
    }
    result.update(_state_summary(state))
    if "f_true" in cfg.inputs:
        f_true = _read_vector(cfg.inputs["f_true"])
        result["metrics"] = reconstruction_metrics(state.f_hat, f_true).as_dict()
    else:
        result["metrics"] = None

    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_trace_csv(trace, os.path.join(cfg.out_dir, "trace.csv"),
                     direct=(cfg.model == "direct"), emit_timing=cfg.emit_timing)
    log.info("wrote result.json and trace.csv (converged=%s)", trace.converged)


def _priors_report(cfg: RunConfig) -> dict:
    p = cfg.priors
    levels = [float(v) for v in p.get("levels", (1.0, 0.1, 0.01, 0.001))]
    lo = float(p.get("grid_lo", -10.0))
    hi = float(p.get("grid_hi", 10.0))
    step = float(p.get("grid_step", 0.01))
    nu = float(p.get("nu", 1.0))
    b = float(p.get("b", 1.0))
    n_draws = int(p.get("mixture_draws", 10))
    grid = np.arange(lo, hi + 0.5 * step, step)
    rng = SplitMix64(_sub_seed(cfg.seed, 4))

    half_order = abs(bessel_k(0.5, 1.0) - math.sqrt(math.pi / 2.0) * math.exp(-1.0))
    sym_max = 0.0
    rec_max = 0.0
    for _ in range(50):
        lam = -5.0 + 10.0 * rng.uniform()
        x = 0.1 + 5.0 * rng.uniform()
        k0, k1 = bessel_k(lam, x), bessel_k(-lam, x)
        sym_max = max(sym_max, abs(k0 - k1) / abs(k0))
        lhs = bessel_k(lam + 1.0, x)
        rhs = bessel_k(lam - 1.0, x) + 2.0 * lam / x * bessel_k(lam, x)
        rec_max = max(rec_max, abs(lhs - rhs) / abs(lhs))

    def draw_gh():
        alpha = 0.6 + 2.0 * rng.uniform()
        beta = (2.0 * rng.uniform() - 1.0) * 0.7 * alpha
        delta = 0.5 + 1.5 * rng.uniform()
        lam = -1.5 + 3.0 * rng.uniform()
        mu = -0.5 + rng.uniform()
        return GhParams(lam=lam, alpha=alpha, beta=beta, delta=delta, mu=mu)

    ident_grid = np.linspace(-8.0, 8.0, 201)
    hyp_max = 0.0
    nig_max = 0.0
    for _ in range(5):
        params = draw_gh()
        ref = {"alpha": params.alpha, "beta": params.beta,
               "delta": params.delta, "mu": params.mu}
        hyp = reference_pdf("hyperbolic", ref, ident_grid)
        got = gh_pdf(ident_grid, GhParams(lam=1.0, alpha=params.alpha,
                                          beta=params.beta, delta=params.delta,
                                          mu=params.mu))
        hyp_max = max(hyp_max, float(np.max(np.abs(got - hyp))))
        nig = reference_pdf("nig", ref, ident_grid)
        got = gh_pdf(ident_grid, GhParams(lam=-0.5, alpha=params.alpha,
                                          beta=params.beta, delta=params.delta,
                                          mu=params.mu))
        nig_max = max(nig_max, float(np.max(np.abs(got - nig))))

    student_devs = limit_deviation("student_t_alpha", levels, grid, nu=nu)
    laplace_devs = limit_deviation("laplace_delta", levels, grid, b=b)

    mix_max = 0.0
    for _ in range(n_draws):
        params = draw_gh()
        gig = GigParams(gamma_sq=params.gamma ** 2, delta_sq=params.delta ** 2,
                        lam=params.lam)
        xs = np.linspace(params.mu - 3.0, params.mu + 3.0, 21)
        closed = gh_pdf(xs, params)
        for x, c in zip(xs, closed):
            mix_max = max(mix_max, abs(gh_marginal_quadrature(
                float(x), params.mu, params.beta, gig) - c))

    ig_max = 0.0
    for _ in range(20):
        alpha = 0.5 + 9.5 * rng.uniform()
        beta = 0.5 + 9.5 * rng.uniform()
        val, _err = scipy.integrate.quad(
            lambda x: (1.0 / x) * math.exp(
                alpha * math.log(beta) - math.lgamma(alpha)
                - (alpha + 1.0) * math.log(x) - beta / x),
            0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=300)
        ig_max = max(ig_max, abs(val - alpha / beta))

    def strictly_decreasing(seq):
        return all(a > b_ for a, b_ in zip(seq, seq[1:]))

    return {
        "bessel": {
            "half_order_abs_error": half_order,
            "symmetry_max_rel": sym_max,
            "recurrence_max_rel": rec_max,
        },
        "identities": {
            "hyperbolic_max_abs": hyp_max,
            "nig_max_abs": nig_max,
        },
        "limits": {
            "student_t_alpha": {
                "levels": levels,
                "sup_deviation": student_devs,
                "strictly_decreasing": strictly_decreasing(student_devs),
            },
            "laplace_delta": {
                "levels": levels,
                "sup_deviation": laplace_devs,
                "strictly_decreasing": strictly_decreasing(laplace_devs),
            },
        },
        "scale_mixture": {
            "draws": n_draws,
            "grid_points": 21,
            "max_abs_deviation": mix_max,
        },
        "ig_inverse_expectation": {"max_abs_error": ig_max},
    }


def run_verify_priors(cfg: RunConfig) -> None:
    report = _priors_report(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "priors_report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    log.info("wrote priors_report.json")


def run_config(cfg: RunConfig) -> int:
    """Execute one configured run; returns 0, raising typed errors otherwise."""
    if cfg.mode == "simulate":
        run_simulate(cfg)
    elif cfg.mode == "solve":
        run_solve(cfg)
    else:
        run_verify_priors(cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def _setup_logging():
    level = os.environ.get("BSI_LOG", "error").lower()
    chosen = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}.get(level, logging.ERROR)
    logging.basicConfig(level=chosen, format="%(levelname)s %(name)s: %(message)s")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bsi",
        description="Sparse Bayesian reconstruction: simulate, solve, verify-priors",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in _MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, help="seed override (u64)")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.mode != args.mode:
            raise ConfigError(
                f"config mode {cfg.mode!r} does not match subcommand {args.mode!r}")
        if args.out is not None:
            cfg.out_dir = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be a nonnegative integer")
            cfg.seed = args.seed
    except ConfigError as exc:
        log.error("%s", exc)
        print(f"bsi: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_config(cfg)
    except ConfigError as exc:
        print(f"bsi: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, ShapeError, OSError) as exc:
        print(f"bsi: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _SOLVER_ERRORS as exc:
        print(f"bsi: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
