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
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    ForwardProblem,
    HyperParams,
    JmapConfig,
    ModelMismatch,
    NonFinite,
    NonPositiveHyper,
    NonPositiveVariance,
    DimensionMismatch,
    SingularSystem,
)
from .priors import PriorsSettings, QuadratureFailure, priors_report
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

log = logging.getLogger("bsi.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4

_SEED_MAX = (1 << 64) - 1

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


# entries formatted per block of rows: a whole-matrix tolist() would hold
# a Python float per entry, 36 MB more peak memory at 1024 x 1024
_WRITE_BLOCK = 1 << 14


def write_matrix(matrix, path) -> None:
    """Write a matrix (or column vector) with a rows/cols header line.

    Every entry is written as ``repr`` writes it.  A row that is mostly
    ``+0.0`` is built from runs of ``"0.0,"`` and the ``repr`` of its
    other entries only.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ShapeError(f"can only write 1-D or 2-D arrays, got ndim {a.ndim}")
    n, m = a.shape
    zeros = "0.0," * m
    step = max(1, _WRITE_BLOCK // max(m, 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# rows={n} cols={m}\n")
        for start in range(0, n, step):
            fh.write(_format_rows(a[start:start + step], zeros))


def _format_rows(block, zeros) -> str:
    """CSV lines of a block of rows; ``zeros`` is ``"0.0,"`` once per column."""
    m = block.shape[1]
    if m == 1:
        return "\n".join(map(repr, block[:, 0].tolist())) + "\n"
    # +0.0 is the only double whose bits are all zero; -0.0, nan and inf
    # are written by repr like any other entry
    nonzero = np.ascontiguousarray(block).view(np.uint64) != 0
    counts = np.count_nonzero(nonzero, axis=1)
    # a row that is half nonzero or more is faster to write entry by entry
    dense = 2 * counts >= m
    nonzero[dense] = False
    rows, cols = np.nonzero(nonzero)  # the entries of the other rows
    texts = list(map(repr, block[rows, cols].tolist()))
    cols = cols.tolist()
    lines = []
    end = 0
    for row, is_dense, count in zip(block, dense.tolist(), counts.tolist()):
        if is_dense:
            lines.append(",".join(map(repr, row.tolist())))
            continue
        parts = []
        prev = 0
        for col, text in zip(cols[end:end + count], texts[end:end + count]):
            parts += (zeros[:4 * (col - prev)], text, ",")
            prev = col + 1
        end += count
        parts.append(zeros[4 * prev:])
        lines.append("".join(parts)[:-1])
    lines.append("")  # the last line's newline
    return "\n".join(lines)


# str.splitlines() breaks lines at these characters too; numpy's parser
# does not, and strips them as whitespace around a field
_EXTRA_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")

# characters read per block of rows.  On the 1024 x 1024 3-tap H.csv,
# 1 << 16 read as fast as larger blocks (1 << 14 took 15 ms against
# 11-12), with a tracemalloc peak of 8.8 MB against 10.0 at 1 << 18,
# 14.7 at 1 << 20 and 9.4 for one loadtxt over the whole body (the
# result alone is 8.4)
_READ_BLOCK = 1 << 16

# maps every ASCII character but those of a "0.0," run to "x"
_RUN_BREAKS = str.maketrans({chr(c): "x" for c in range(128) if chr(c) not in "0.,"})


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`; bit-exact round trip.

    The body is read in blocks of rows.  Each row splits into a byte-exact
    run of ``"0.0,"`` fields, a middle and a run of ``",0.0"`` fields;
    only the middles are parsed, by ``np.loadtxt``, one call per field
    count.  Its fields are a subset of what ``float()`` accepts and round
    identically, and a dense row is all middle.  Any file that does not
    fit (a middle loadtxt rejects, a row or field count unlike the
    header's, a non-ASCII character) is read again token by token, which
    gives the error with its line and column.

    The 1024 x 1024 3-tap ``H.csv`` of the ``cli`` benchmark workload
    reads in 11-21 ms on a 2-vCPU x86-64 host, against 44-75 ms for one
    loadtxt over the whole body timed alternately on the same host, with
    bit-identical results.
    """
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        header = _HEADER_RE.match(line)
        if header and line.isascii() and len(line.splitlines()) == 1:
            try:
                with warnings.catch_warnings():
                    # loadtxt warns instead of raising on an empty body
                    warnings.simplefilter("error")
                    return _read_body(fh, int(header.group(1)), int(header.group(2)))
            except (ValueError, UserWarning):
                pass
    return _read_matrix_by_token(path)


def _read_body(fh, n, m) -> np.ndarray:
    """The n x m body of a matrix file, a block of rows at a time; ValueError
    (or loadtxt's UserWarning) for anything the token reader must judge."""
    out = np.zeros((n, m))
    row, rest = 0, ""
    while True:
        chunk = fh.read(_READ_BLOCK)
        text = rest + chunk
        if not text.isascii() or any(c in text for c in _EXTRA_LINE_BREAKS):
            raise ValueError("block needs the token reader")
        cut = text.rfind("\n") + 1 if chunk else len(text)
        text, rest = text[:cut], text[cut:]
        groups = {}  # field count of the middle -> (row, first column, middle)
        for first, count, middle in _split_rows(text, m):
            groups.setdefault(count, []).append((row, first, middle))
            row += 1
        if row > n:
            raise ValueError("more rows than the header")
        for count, group in groups.items():
            rows, firsts, middles = zip(*group)
            values = np.loadtxt(middles, delimiter=",", comments=None, ndmin=2)
            if values.shape != (len(rows), count):
                raise ValueError("a middle is blank or ragged")
            out[np.array(rows)[:, None], np.array(firsts)[:, None] + np.arange(count)] = values
        if not chunk:
            break
    if row != n:
        raise ValueError("fewer rows than the header")
    return out


def _split_rows(text, m):
    """``(first column, field count, middle)`` of each non-blank line of ``text``.

    The middle is what lies between a run of whole ``"0.0,"`` fields at
    the start and one of ``",0.0"`` fields at the end, each byte for
    byte; a run with any other field in it is left to the middle.  The
    middle's field count is what the runs leave of m, and loadtxt's shape
    check rejects a middle that holds another count.
    """
    leading, trailing = "0.0," * m, ",0.0" * m
    for line in text.split("\n"):
        if not (line.startswith("0.0,") or line.endswith(",0.0")):
            if line and not line.isspace():
                yield 0, m, line
            continue
        # the runs end at the last comma before the first character that
        # cannot be in a run, and start at the first comma after the last
        marks = line.translate(_RUN_BREAKS)
        head, size = marks.find("x"), len(line)
        a = line.rfind(",", 0, size if head < 0 else head) + 1
        if a & 3 or not line.startswith(leading[:a]):
            a = 0
        b = line.find(",", max(marks.rfind("x"), a))
        b = size if b < 0 else b
        if (size - b) & 3 or not line.endswith(trailing[:size - b]):
            b = size
        yield a >> 2, m - (a >> 2) - ((size - b) >> 2), line[a:b]


def _read_matrix_by_token(path) -> np.ndarray:
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

def _library_section(cls, **kinds):
    """A config section whose defaults are the library class's own."""
    return {key: (kind, getattr(cls, key)) for key, kind in kinds.items()}


# Every config key, once: key -> (kind, default), or a nested section.  A
# kind is a JSON scalar type (str, int, float, bool), a tuple of the
# allowed strings, or [float] for an array of numbers.  A default of None
# leaves an absent key None.
_CONFIG = {
    "mode": (("simulate", "solve", "verify-priors"), None),
    "model": (("direct", "indirect"), "direct"),
    "method": (("jmap", "vba-partial", "vba-full"), "jmap"),
    "out_dir": (str, "."),
    "seed": (int, 0),
    "emit_timing": (bool, False),
    "hyper": {name: (float, value) for name, value in HyperParams().as_dict().items()},
    # solver.init names are checked by the solvers' own limit check
    "solver": _library_section(JmapConfig, max_iter=int, tol_rel_f=float,
                               tol_rel_L=float, init=str),
    "inputs": {"g": (str, None), "H": (str, None), "D": (str, None),
               "f_true": (str, None)},
    "simulate": {
        "length": (int, None),
        "sparsity": (int, None),
        "amplitude": ([float], SignalSpec.amplitude_range),
        # an unknown operator kind is a spec error, raised by the generator
        "operator": {"kind": (str, "identity"), "rows": (int, None),
                     "kernel": ([float], None)},
        "transform": {"kind": (str, "identity"), "kernel": ([float], None)},
        "noise": {"kind": (("none", "stationary", "nonstationary"), "none"),
                  "sigma": (float, 0.0), "alpha": (float, 3.0), "beta": (float, 2.0)},
    },
    "priors": _library_section(PriorsSettings, levels=[float], grid_lo=float,
                               grid_hi=float, grid_step=float, nu=float, b=float,
                               mixture_draws=int),
}


@dataclass
class RunConfig:
    """One CLI run, typed: the root keys, the solver limits, the hyper and
    priors sections as library objects, the other sections as dicts."""

    mode: str
    model: str
    method: str
    out_dir: str
    seed: int
    emit_timing: bool
    hyper: HyperParams
    max_iter: int
    tol_rel_f: float
    tol_rel_L: float
    init: str
    inputs: dict
    simulate: dict
    priors: PriorsSettings


# JSON value types each scalar kind accepts: an int field takes no float,
# a float field takes an int, and no numeric field takes a bool (which
# Python counts as an int)
_JSON_TYPES = {str: (str,), int: (int,), float: (int, float), bool: (bool,)}


def _parse(raw, table, where):
    """Type a JSON object against a config table; absent keys take their defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    out = {}
    for key, spec in table.items():
        if isinstance(spec, dict):
            out[key] = _parse(raw.get(key, {}), spec, f"{where}.{key}")
        else:
            out[key] = _typed(raw[key], spec[0], f"{where}.{key}") if key in raw else spec[1]
    return out


def _typed(value, kind, name):
    if isinstance(kind, list):
        if isinstance(value, list):
            return tuple(_typed(v, kind[0], name) for v in value)
        expected = "an array of numbers"
    elif isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        expected = f"one of {kind}"
    else:
        if (isinstance(value, _JSON_TYPES[kind])
                and (kind is bool or not isinstance(value, bool))):
            try:
                return kind(value)
            except OverflowError:  # an integer beyond the float range
                pass
        expected = kind.__name__
    raise ConfigError(f"bad value for {name}: {value!r} (expected {expected})")


def load_config(path) -> RunConfig:
    """Parse and validate the JSON run configuration (unknown keys rejected)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _check_seed(seed: int) -> int:
    """The seed if it is a u64; a larger one would alias a smaller one's streams."""
    if not 0 <= seed <= _SEED_MAX:
        raise ConfigError(f"seed must be an integer in [0, 2**64 - 1], got {seed}")
    return seed


def parse_config(raw: dict) -> RunConfig:
    """Type every section in every mode, then check what spans several keys."""
    c = _parse(raw, _CONFIG, "config")
    mode, model, inputs, sim = c["mode"], c["model"], c["inputs"], c["simulate"]
    if mode is None:
        raise ConfigError("missing required key 'mode' in config")
    if c["method"] == "vba-full" and model != "direct":
        raise ConfigError("vba-full requires model=direct")
    _check_seed(c["seed"])
    if len(sim["amplitude"]) != 2:
        raise ConfigError("simulate.amplitude must be [low, high]")
    if mode == "simulate" and (sim["length"] is None or sim["sparsity"] is None):
        raise ConfigError("simulate mode requires simulate.length and simulate.sparsity")
    if mode == "solve":
        if inputs["g"] is None or inputs["H"] is None:
            raise ConfigError("solve mode requires inputs.g and inputs.H")
        if model == "indirect" and inputs["D"] is None:
            raise ConfigError("indirect model requires inputs.D (a path or 'identity')")
        if model == "direct" and inputs["D"] is not None:
            raise ConfigError("inputs.D is only valid for the indirect model")
    solver = c.pop("solver")
    try:
        JmapConfig(**solver)  # the solver limits, checked as the solvers check them
        c["priors"] = PriorsSettings(**c["priors"])
    except ValueError as exc:
        raise ConfigError(f"bad value in config: {exc}") from exc
    c["hyper"] = HyperParams(**c["hyper"])
    return RunConfig(**c, **solver)


# ---------------------------------------------------------------------------
# mode implementations

def _sub_seed(seed: int, stream: int) -> int:
    """Derived per-purpose seed; streams: 0 signal, 1 operator, 2 noise,
    3 transform, 4 prior-verification draws."""
    return (seed * 1000003 + stream) & _SEED_MAX


def _operator_from_section(section, n_rows, n_cols, seed):
    return generate_operator(OperatorSpec(kind=section["kind"], n_rows=n_rows,
                                          n_cols=n_cols, kernel=section["kernel"],
                                          seed=seed))


def run_simulate(cfg: RunConfig) -> None:
    sim = cfg.simulate
    op, noise, length = sim["operator"], sim["noise"], sim["length"]
    signal = generate_sparse_signal(SignalSpec(
        length=length, sparsity=sim["sparsity"], amplitude_range=sim["amplitude"],
        seed=_sub_seed(cfg.seed, 0)))
    n_rows = length if op["rows"] is None else op["rows"]
    H = _operator_from_section(op, n_rows, length, _sub_seed(cfg.seed, 1))
    outputs = {"H.csv": H}
    if cfg.model == "indirect":
        D = _operator_from_section(sim["transform"], length, length, _sub_seed(cfg.seed, 3))
        f_true = D @ signal
        outputs["D.csv"] = D
    else:
        f_true = signal
    # each noise kind reads only its own parameters
    spec = NoiseSpec(kind=noise["kind"], sigma=noise["sigma"],
                     ig_alpha=noise["alpha"], ig_beta=noise["beta"])
    g, v_true = synthesize_observation(H, f_true, spec, seed=_sub_seed(cfg.seed, 2))
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
    # the solvers load scipy.linalg; the other modes never need it
    if cfg.method == "jmap":
        from .jmap import solve_jmap

        config = JmapConfig(max_iter=cfg.max_iter, tol_rel_f=cfg.tol_rel_f,
                            tol_rel_L=cfg.tol_rel_L, init=cfg.init)
        return solve_jmap(problem, cfg.hyper, config)
    from .vba import VbaConfig, solve_vba

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
    variances, families = {}, {}
    for name in ("eps", "xi", "z", "f"):
        v = getattr(state, f"v_{name}")
        if v is not None:
            variances[name] = v.tolist()
        fam = getattr(state, f"ig_{name}")
        if fam is not None:
            families[name] = {"alpha_hat": fam.alpha_hat.tolist(),
                              "beta_hat": fam.beta_hat.tolist()}
    return {"f_hat": state.f_hat.tolist(),
            "z_hat": state.z_hat.tolist() if state.z_hat is not None else None,
            "variances": variances, "ig": families or None}


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
    if cfg.inputs["f_true"] is not None:
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


def run_verify_priors(cfg: RunConfig) -> None:
    report = priors_report(cfg.priors, _sub_seed(cfg.seed, 4))
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
    for name in _CONFIG["mode"][0]:
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
            cfg.seed = _check_seed(args.seed)
    except ConfigError as exc:
        log.error("%s", exc)
        print(f"bsi: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_config(cfg)
    except (ParseError, ShapeError, OSError) as exc:
        print(f"bsi: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _SOLVER_ERRORS as exc:
        print(f"bsi: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
