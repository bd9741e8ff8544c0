import csv
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import jsonschema

import bsi.cli
from bsi import NoiseSpec, OperatorSpec, SignalSpec, generate_sparse_signal
from bsi.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    ParseError,
    ShapeError,
    main,
    parse_config,
    read_matrix,
    run_simulate,
    write_matrix,
    _read_matrix_by_token,
)

RESULT_SCHEMA = {
    "type": "object",
    "required": ["model", "method", "seed", "converged", "stop_reason",
                 "iterations", "update_order", "criterion_initial",
                 "criterion_final", "f_hat", "z_hat", "variances", "ig",
                 "metrics"],
    "properties": {
        "model": {"enum": ["direct", "indirect"]},
        "method": {"enum": ["jmap", "vba-partial", "vba-full"]},
        "converged": {"type": "boolean"},
        "iterations": {"type": "integer", "minimum": 0},
        "f_hat": {"type": "array", "items": {"type": "number"}},
        "z_hat": {"type": ["array", "null"]},
        "variances": {"type": "object"},
        "ig": {"type": ["object", "null"]},
        "metrics": {"type": ["object", "null"]},
    },
    "additionalProperties": True,
}

PRIORS_SCHEMA = {
    "type": "object",
    "required": ["bessel", "identities", "limits", "scale_mixture",
                 "ig_inverse_expectation"],
    "properties": {
        "limits": {
            "type": "object",
            "required": ["student_t_alpha", "laplace_delta"],
        },
    },
}


class TestMatrixIo:
    def test_scalar_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(np.array([[2.5]]), path)
        assert np.array_equal(read_matrix(path), [[2.5]])

    def test_random_round_trip_bitexact(self, tmp_path):
        rng = np.random.RandomState(0)
        a = rng.randn(3, 2) * np.pi
        path = tmp_path / "m.csv"
        write_matrix(a, path)
        b = read_matrix(path)
        assert a.shape == b.shape
        assert np.array_equal(a, b)  # exact, not approximate

    def test_vector_round_trip(self, tmp_path):
        path = tmp_path / "v.csv"
        write_matrix(np.array([1.0, 1e-17, -3.5]), path)
        assert np.array_equal(read_matrix(path), [[1.0], [1e-17], [-3.5]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rows=2 cols=2\n1.0,2.0\n3.0\n")
        with pytest.raises(ShapeError) as err:
            read_matrix(path)
        assert err.value.line == 3

    def test_bad_float_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rows=1 cols=2\n1.0,zap\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 2
        assert err.value.column == 2

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# rows=3 cols=1\n1.0\n2.0\n")
        with pytest.raises(ShapeError):
            read_matrix(path)

    def test_rows_without_columns_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(ShapeError):
            write_matrix(np.zeros((3, 0)), path)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_no_rows_round_trip(self, tmp_path, shape):
        path = tmp_path / "m.csv"
        write_matrix(np.zeros(shape), path)
        assert read_matrix(path).shape == shape


_SPECIAL_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                   1e300, -1e300, 1e-300, -1e-300]


@st.composite
def csv_matrices(draw):
    """Matrices mixing all-zero, fully dense and sparse rows of edge-case doubles."""
    n, m = draw(st.one_of(
        st.tuples(st.integers(0, 9), st.integers(1, 30)),
        st.tuples(st.integers(0, 40), st.just(1)),
        st.tuples(st.just(1), st.integers(1, 60)),
    ))
    value = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(allow_nan=False))
    a = np.zeros((n, m))
    for i in range(n):
        kind = draw(st.sampled_from(["zero", "dense", "sparse"]))
        if kind == "dense":
            a[i] = draw(st.lists(value, min_size=m, max_size=m))
        elif kind == "sparse":
            for j, v in draw(st.dictionaries(st.integers(0, m - 1), value)).items():
                a[i, j] = v
    return a


def read_outcome(reader, path):
    """(int64 bit view, shape) of a read, or the error's type and fields."""
    try:
        a = reader(path)
    except (ParseError, ShapeError) as exc:
        return type(exc), str(exc), exc.line, getattr(exc, "column", None)
    return a.view(np.int64).tolist(), a.shape


class TestBulkMatrixIo:
    @pytest.mark.parametrize("text", [
        "# rows=2 cols=2\n-0.0,1e-17\ninf,-inf\n",
        "# rows=2 cols=2\n\n1.0,2.0\n\n\n3.0,4.0\n\n",
        "# rows=1 cols=3\n1_0,  2.5 ,-7e-3\t\n",
        "# rows=1 cols=4\nnan,-nan,1e999,-1e-400\n",
        "# rows=3 cols=1\n1.0\n   \n2.0\n3.0\n",
        "# rows=2 cols=2\r\n1.0,2.0\r\n3.0,4.0\r\n",
        "# rows=1 cols=2\n\u0661,2\n",
        "# rows=0 cols=3\n",
        "# rows=2 cols=2\n",
        "# rows=1 cols=2\n1.0\x0c,2.0\n",
        "# rows=1 cols=2\n1.0,\x0c2.0\n",
        "# rows=1\x0ccols=1\n1.0\n",
        "# rows=1 cols=2\n1.0#x,2.0\n",
        "# rows=1 cols=2\n1.0,2.0,\n",
        "# rows=1 cols=2\n1.0,,\n",
        "# rows=2 cols=2\n1.0,2.0\n",
        "# rows=1 cols=2\n0x1p3,1\n",
        # zero runs: exact "0.0," / ",0.0" fields only, anything else parsed
        "# rows=1 cols=5\n0.0,0.00,0.5,0.0,0.0\n",
        "# rows=1 cols=5\n0.0,0.0,0.5,0.00,0.0\n",
        "# rows=1 cols=5\n0.0, 0.0,0.5,0.0 ,0.0\n",
        "# rows=1 cols=5\n0.0,-0.0,0.5,-0.0,0.0\n",
        "# rows=1 cols=5\n0.0,0.0001,0.5,0.0,00.0\n",
        "# rows=2 cols=4\r\n0.0,0.0,0.5,0.0\r\n0.0,0.5,0.0,0.0\r\n",
        "# rows=3 cols=4\n0.0,0.0,0.5,0.0\n\n  \n0.0,0.5,0.0,0.0\n0.0,0.0,0.0,0.0\n",
        "# rows=1 cols=5\n0.0,,0.0,0.5,0.0\n",
        "# rows=1 cols=5\n0.0,0.5,0.0,,0.0\n",
        "# rows=1 cols=3\n0.0,0.0,\n",
        "# rows=1 cols=3\n,0.0,0.0\n",
        "# rows=1 cols=5\n0.0,0.0,zap,0.0,0.0\n",
        "# rows=1 cols=5\n0.0,0..,0.5,0.0,0.0\n",
        "# rows=1 cols=5\n0.0,0.5,0.0,.0.,0.0\n",
        "# rows=1 cols=5\n0.0,0.5,0.0,0.0,0.x\n",
        "# rows=1 cols=5\n0.0,0.0,0.5,0.0\n",
        "# rows=1 cols=3\n0.0,0.0,0.5,0.0\n",
        "# rows=1 cols=3\n0.0,0.0,0.0,0.0\n",
        "# rows=2 cols=3\n0.0,0.0,0.0\n0.0,0.0\n",
        "# rows=1 cols=3\n0.0,0.5,0.0 \n",
        "# rows=1 cols=4\n0.0,0.0,0.0,0.0",
    ])
    def test_bulk_reader_matches_token_reader(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(read_matrix, path) == read_outcome(_read_matrix_by_token, path)

    def test_plain_file_takes_the_bulk_path(self, tmp_path, monkeypatch):
        import bsi.cli
        a = np.random.RandomState(1).randn(20, 7)
        a[0, :3] = (-0.0, 1e-300, np.inf)
        path = tmp_path / "m.csv"
        write_matrix(a, path)
        expected = _read_matrix_by_token(path)
        monkeypatch.setattr(bsi.cli, "_read_matrix_by_token", None)
        got = read_matrix(path)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_banded_file_takes_the_zero_run_split(self, tmp_path, monkeypatch):
        import bsi.cli
        H = sum(np.diag(np.full(300 - abs(d), tap), d)
                for d, tap in ((-1, 0.25), (0, 0.5), (1, 0.25)))
        path = tmp_path / "H.csv"
        write_matrix(H, path)
        expected = _read_matrix_by_token(path)
        parsed = []
        loadtxt = np.loadtxt

        def spy(lines, **kwargs):
            parsed.extend(lines)
            return loadtxt(lines, **kwargs)

        monkeypatch.setattr(bsi.cli, "_read_matrix_by_token", None)
        monkeypatch.setattr(bsi.cli.np, "loadtxt", spy)
        got = read_matrix(path)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
        # only the middles are parsed: at most the three taps of each row
        assert len(parsed) == 300 and max(line.count(",") for line in parsed) == 2

    @settings(max_examples=100, deadline=None)
    @given(a=csv_matrices(), block=st.sampled_from([1, 5, 64, bsi.cli._READ_BLOCK]))
    def test_any_block_size_matches_token_reader(self, tmp_path_factory, a, block):
        path = tmp_path_factory.mktemp("r") / "m.csv"
        write_matrix(a, path)
        with mock.patch.object(bsi.cli, "_READ_BLOCK", block):
            got = read_outcome(read_matrix, path)
        assert got == read_outcome(_read_matrix_by_token, path)

    def test_bad_token_deep_in_large_file(self, tmp_path):
        path = tmp_path / "big.csv"
        write_matrix(np.random.RandomState(2).randn(300, 200), path)
        lines = path.read_text().splitlines()
        fields = lines[249].split(",")              # file line 250
        fields[136] = "1.0.0"                       # column 137
        lines[249] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert (err.value.line, err.value.column) == (250, 137)
        assert str(err.value) == f"{path}: line 250, column 137: bad float '1.0.0'"

    def test_write_matrix_bytes_unchanged(self, tmp_path):
        rng = np.random.RandomState(3)
        a = (rng.randn(6, 40) * 10.0 ** rng.uniform(-300, 300, (6, 40)))
        a[0, :5] = (-0.0, np.inf, -np.inf, np.nan, 5e-324)
        path = tmp_path / "m.csv"
        write_matrix(a, path)
        expected = f"# rows={a.shape[0]} cols={a.shape[1]}\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in a)
        assert path.read_bytes() == expected.encode("utf-8")


class TestZeroRunWriter:
    @settings(max_examples=300, deadline=None)
    @given(a=csv_matrices(), block=st.sampled_from([1, 7, 64, bsi.cli._WRITE_BLOCK]))
    @example(a=np.array([[0.0, -0.0, 0.0, 0.0]]), block=64)     # -0.0 is the middle
    @example(a=np.array([[math.nan, 0.0, 0.0, 0.0]]), block=64)  # nan in the first column
    @example(a=np.array([[0.0, 0.0, 0.0, math.nan]]), block=64)  # nan in the last column
    @example(a=np.array([[1.5, 0.0, 0.0, 0.0, -2.5]]), block=64)  # the middle is the row
    @example(a=np.zeros((2, 5)), block=1)                       # all-zero rows
    @example(a=np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [-0.0, 0.0]]), block=3)  # M = 2
    def test_bytes_match_per_value_repr(self, tmp_path_factory, scalar_synth, a, block):
        path = tmp_path_factory.mktemp("w") / "m.csv"
        with mock.patch.object(bsi.cli, "_WRITE_BLOCK", block):
            write_matrix(a, path)
        assert path.read_bytes() == scalar_synth.matrix_text(a).encode("utf-8")
        back = read_matrix(path)
        assert back.shape == a.shape
        assert back.view(np.uint64).tolist() == a.view(np.uint64).tolist()

    def test_many_blocks_of_rows(self, tmp_path, scalar_synth):
        rng = np.random.RandomState(4)
        a = rng.randn(700, 200) * (rng.rand(700, 200) < rng.rand(700, 1))
        a[::50] = 0.0
        a[1::50] = -0.0
        path = tmp_path / "m.csv"
        write_matrix(a, path)                   # 140 000 entries: three blocks
        assert path.read_bytes() == scalar_synth.matrix_text(a).encode("utf-8")

    def test_transposed_view(self, tmp_path, scalar_synth):
        a = np.diag([1.0, -0.0, 2.5]) + np.triu(np.ones((3, 3)), 2)
        path = tmp_path / "m.csv"
        write_matrix(a.T, path)
        assert path.read_bytes() == scalar_synth.matrix_text(a.T).encode("utf-8")


_SIM_OPERATORS = {
    "identity": {"kind": "identity"},
    "convolution": {"kind": "convolution", "kernel": [-0.5, 0.25, 1.0, 0.25, -0.0]},
    "gaussian_random": {"kind": "gaussian_random", "rows": 13},
}
_SIM_NOISES = {
    "none": ({"kind": "none"}, NoiseSpec.none()),
    "stationary": ({"kind": "stationary", "sigma": 0.3}, NoiseSpec.stationary(0.3)),
    "nonstationary": ({"kind": "nonstationary", "alpha": 1.5, "beta": 0.5},
                      NoiseSpec.nonstationary(1.5, 0.5)),
}


def scalar_simulate(payload, noise, scalar):
    """The files simulate writes for payload, by the scalar loops and writer."""
    sim, seed = payload["simulate"], payload["seed"]
    length = sim["length"]

    def stream(k):  # the documented per-purpose seed derivation
        return (seed * 1000003 + k) % 2 ** 64

    def operator(section, rows, k):
        kernel = section.get("kernel")
        return scalar.operator(OperatorSpec(
            kind=section["kind"], n_rows=rows, n_cols=length,
            kernel=tuple(kernel) if kernel else None, seed=stream(k)))

    f_true = generate_sparse_signal(SignalSpec(
        length=length, sparsity=sim["sparsity"], amplitude_range=tuple(sim["amplitude"]),
        seed=stream(0)))
    H = operator(sim["operator"], sim["operator"].get("rows", length), 1)
    arrays = {"H.csv": H}
    if payload["model"] == "indirect":
        arrays["D.csv"] = operator(sim["transform"], length, 3)
        f_true = arrays["D.csv"] @ f_true
    g, v_true = scalar.observation(H, f_true, noise, stream(2))
    arrays.update({"g.csv": g, "f_true.csv": f_true, "v_eps_true.csv": v_true})
    return {name: scalar.matrix_text(a).encode("utf-8") for name, a in arrays.items()}


class TestSimulateParity:
    @pytest.mark.parametrize("model", ["direct", "indirect"])
    @pytest.mark.parametrize("noise", sorted(_SIM_NOISES))
    @pytest.mark.parametrize("operator", sorted(_SIM_OPERATORS))
    @pytest.mark.parametrize("seed", [5, 2 ** 63])
    def test_files_match_scalar_reference(self, tmp_path, scalar_synth, model, noise,
                                          operator, seed):
        section, spec = _SIM_NOISES[noise]
        payload = {"mode": "simulate", "model": model, "seed": seed,
                   "out_dir": str(tmp_path / "out"),
                   "simulate": {"length": 20, "sparsity": 4, "amplitude": [1.0, 3.0],
                                "operator": _SIM_OPERATORS[operator], "noise": section}}
        if model == "indirect":
            payload["simulate"]["transform"] = {"kind": "gaussian_random"}
        assert main(["simulate", "--config", write_config(tmp_path, "c.json", payload)]) == 0
        expected = scalar_simulate(payload, spec, scalar_synth)
        written = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert written == expected


class TestConfigParsing:
    def base(self):
        return {"mode": "simulate", "simulate": {"length": 4, "sparsity": 1}}

    def test_minimal_ok(self):
        cfg = parse_config(self.base())
        assert cfg.mode == "simulate"
        assert cfg.seed == 0

    def test_largest_u64_seed_accepted(self):
        raw = self.base()
        raw["seed"] = 2 ** 64 - 1
        assert parse_config(raw).seed == 2 ** 64 - 1

    def test_unknown_root_key(self):
        raw = self.base()
        raw["surprise"] = 1
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_unknown_nested_key(self):
        raw = self.base()
        raw["solver"] = {"max_iters": 5}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_vba_full_needs_direct(self):
        raw = {"mode": "solve", "model": "indirect", "method": "vba-full",
               "inputs": {"g": "g.csv", "H": "H.csv", "D": "identity"}}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_indirect_solve_needs_transform(self):
        raw = {"mode": "solve", "model": "indirect", "method": "jmap",
               "inputs": {"g": "g.csv", "H": "H.csv"}}
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_missing_mode(self):
        with pytest.raises(ConfigError):
            parse_config({"model": "direct"})

    @pytest.mark.parametrize("patch", [
        {"emit_timing": "false"},
        {"seed": 7.9},
        {"seed": True},
        {"solver": {"max_iter": 2.9}},
        {"hyper": {"alpha_eps": "2"}},
        {"simulate": 5},
        {"inputs": {"g": 5}},
    ])
    def test_wrong_json_type_rejected(self, patch):
        raw = self.base()
        raw.update(patch)
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("key", ["tol_rel_f", "tol_rel_L"])
    def test_nan_tolerance_rejected(self, key):
        # json.loads accepts the NaN token; a NaN tolerance never stops a run
        raw = self.base()
        raw["solver"] = json.loads(f'{{"{key}": NaN}}')
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("section", [
        {"length": 8.9, "sparsity": 1},
        {"length": 8, "sparsity": True},
        {"length": 8, "sparsity": 1, "noise": {"kind": "stationary", "sigma": "0.5"}},
        {"length": 8, "sparsity": 1, "noise": "none"},
        {"length": 8, "sparsity": 1, "amplitude": [1, "2"]},
        {"length": 8, "sparsity": 1, "operator": {"kind": "convolution", "rows": 8.0}},
        {"length": 8, "sparsity": 1, "operator": {"kind": "convolution",
                                                  "kernel": "0.5"}},
    ])
    def test_wrong_simulate_type_rejected(self, tmp_path, section):
        raw = self.base()
        raw["simulate"] = section
        raw["out_dir"] = str(tmp_path)
        with pytest.raises(ConfigError):
            run_simulate(parse_config(raw))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("priors", [{"mixture_draws": 2.5}, {"grid_step": "0.1"},
                                        {"levels": [1.0, True]}, {"nu": None}])
    def test_wrong_priors_type_rejected(self, tmp_path, priors):
        raw = {"mode": "verify-priors", "out_dir": str(tmp_path), "priors": priors}
        path = write_config(tmp_path, "priors.json", raw)
        assert main(["verify-priors", "--config", path]) == EXIT_CONFIG

    def test_json_types_accepted(self):
        raw = self.base()
        raw.update({"emit_timing": True, "seed": 7, "hyper": {"alpha_eps": 2},
                    "solver": {"max_iter": 3, "tol_rel_f": 1}})
        cfg = parse_config(raw)
        assert cfg.emit_timing is True and cfg.seed == 7 and cfg.solver.max_iter == 3
        assert cfg.hyper.alpha_eps == 2.0 and cfg.solver.tol_rel_f == 1.0


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def set_key(payload, dotted, value):
    """payload with ``value`` at the dotted key path, sections made as needed."""
    *sections, key = dotted.split(".")
    for name in sections:
        payload = payload.setdefault(name, {})
    payload[key] = value


# One wrong-typed value per key path the README documents, each placed in a
# mode that does not read that section.
_UNREAD_IN_SOLVE = [
    ("simulate", 5),
    ("simulate.length", "8"),
    ("simulate.sparsity", 1.5),
    ("simulate.amplitude", [1.0, "2"]),
    ("simulate.operator", "identity"),
    ("simulate.operator.kind", 5),
    ("simulate.operator.rows", 8.0),
    ("simulate.operator.kernel", "0.5"),
    ("simulate.transform.kind", None),
    ("simulate.transform.kernel", [0.5, True]),
    ("simulate.noise", "none"),
    ("simulate.noise.kind", 1),
    ("simulate.noise.sigma", "0.1"),
    ("simulate.noise.alpha", True),
    ("simulate.noise.beta", [2.0]),
    ("priors", []),
    ("priors.levels", [1.0, "0.1"]),
    ("priors.grid_lo", "-10"),
    ("priors.grid_hi", False),
    ("priors.grid_step", None),
    ("priors.nu", "bad"),
    ("priors.b", {}),
    ("priors.mixture_draws", 2.5),
]
_UNREAD_IN_VERIFY_PRIORS = [
    ("solver.max_iter", 2.9),
    ("solver.tol_rel_f", "1e-8"),
    ("solver.tol_rel_L", False),
    ("solver.init", 0),
    ("hyper.alpha_eps", "2"),
    ("hyper.beta_eps", None),
    ("hyper.alpha_xi", True),
    ("hyper.beta_xi", [1.0]),
    ("hyper.alpha_z", "1"),
    ("hyper.beta_z", {}),
    ("hyper.alpha_f", False),
    ("hyper.beta_f", "0.5"),
    ("inputs.g", 5),
    ("inputs.H", ["H.csv"]),
    ("inputs.D", True),
    ("inputs.f_true", 1.0),
]


class TestEveryModeTyped:
    @pytest.mark.parametrize("key, value", _UNREAD_IN_SOLVE)
    def test_solve_types_simulate_and_priors(self, tmp_path, key, value):
        g, H = tmp_path / "g.csv", tmp_path / "H.csv"
        write_matrix(np.ones(3), g)
        write_matrix(np.eye(3), H)
        payload = {"mode": "solve", "out_dir": str(tmp_path / "run"),
                   "solver": {"max_iter": 2}, "inputs": {"g": str(g), "H": str(H)}}
        set_key(payload, key, value)
        assert main(["solve", "--config", write_config(tmp_path, "c.json", payload)]) \
            == EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", _UNREAD_IN_VERIFY_PRIORS)
    def test_verify_priors_types_solver_hyper_inputs(self, tmp_path, key, value):
        payload = {"mode": "verify-priors", "out_dir": str(tmp_path / "rep"),
                   "priors": {"grid_step": 0.5, "mixture_draws": 1}}
        set_key(payload, key, value)
        path = write_config(tmp_path, "c.json", payload)
        assert main(["verify-priors", "--config", path]) == EXIT_CONFIG
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("rows", [8, "abc"])
    def test_transform_rows_rejected(self, tmp_path, rows):
        payload = {"mode": "simulate", "model": "indirect", "out_dir": str(tmp_path / "out"),
                   "simulate": {"length": 8, "sparsity": 2,
                                "transform": {"kind": "identity", "rows": rows}}}
        path = write_config(tmp_path, "c.json", payload)
        assert main(["simulate", "--config", path]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("priors", [
        '{"grid_step": 0}',
        '{"grid_step": -0.1}',
        '{"grid_lo": 5, "grid_hi": -5}',
        '{"grid_hi": 1e400}',
        '{"nu": 0}',
        '{"b": -1}',
        '{"mixture_draws": -1}',
        '{"levels": [0.1, 1.0]}',
        '{"levels": [1, 0]}',
        '{"levels": [NaN]}',
        '{"grid_lo": -1e300, "grid_hi": 1e300, "grid_step": 1}',
        '{"grid_lo": -1.7e308, "grid_hi": 1.7e308}',
        '{"grid_step": 1e-9}',
    ])
    def test_degenerate_priors_are_config_errors(self, tmp_path, priors):
        out = tmp_path / "rep"
        path = tmp_path / "c.json"
        path.write_text('{"mode": "verify-priors", "out_dir": %s, "priors": %s}'
                        % (json.dumps(str(out)), priors))
        assert main(["verify-priors", "--config", str(path)]) == EXIT_CONFIG
        assert not out.exists()


def simulate_config(tmp_path, out, seed=1, model="direct", noise=None, sparsity=2):
    payload = {
        "mode": "simulate",
        "model": model,
        "seed": seed,
        "out_dir": str(out),
        "simulate": {
            "length": 8,
            "sparsity": sparsity,
            "amplitude": [1.0, 2.0],
            "operator": {"kind": "convolution", "kernel": [0.25, 0.5, 0.25]},
            "noise": noise or {"kind": "nonstationary", "alpha": 3.0, "beta": 2.0},
        },
    }
    if model == "indirect":
        payload["simulate"]["transform"] = {"kind": "identity"}
    name = f"sim-{model}-{seed}-{out.name if hasattr(out, 'name') else out}.json"
    return write_config(tmp_path, name, payload)


def read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCliRuns:
    def test_simulate_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = simulate_config(tmp_path, out1)
        cfg2 = simulate_config(tmp_path, out2)
        assert main(["simulate", "--config", cfg1]) == EXIT_OK
        assert main(["simulate", "--config", cfg2]) == EXIT_OK
        for name in ("g.csv", "H.csv", "f_true.csv", "v_eps_true.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_solve_jmap_on_own_outputs(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", simulate_config(tmp_path, sim_out)]) == EXIT_OK
        solve_cfg = write_config(tmp_path, "solve.json", {
            "mode": "solve", "model": "direct", "method": "jmap",
            "seed": 1, "out_dir": str(tmp_path / "run"),
            "solver": {"max_iter": 60},
            "inputs": {"g": str(sim_out / "g.csv"), "H": str(sim_out / "H.csv"),
                       "f_true": str(sim_out / "f_true.csv")},
        })
        assert main(["solve", "--config", solve_cfg]) == EXIT_OK
        result = json.loads((tmp_path / "run" / "result.json").read_text())
        jsonschema.validate(result, RESULT_SCHEMA)
        assert result["metrics"] is not None
        rows = read_trace(tmp_path / "run" / "trace.csv")
        L = [float(r["L"]) for r in rows]
        assert all(b <= a + 1e-10 * abs(a) for a, b in zip(L, L[1:]))
        assert all(r["millis"] == "" for r in rows)  # deterministic by default
        assert all(r["rel_change_z"] == "" for r in rows)  # direct model

    def test_zero_data_trace_cells_are_numbers(self, tmp_path):
        # g = 0 keeps f at zero, so every relative change is 0/0
        sim_out = tmp_path / "sim"
        cfg = simulate_config(tmp_path, sim_out, sparsity=0, noise={"kind": "none"})
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        assert not read_matrix(sim_out / "g.csv").any()
        solve_cfg = write_config(tmp_path, "solve.json", {
            "mode": "solve", "model": "direct", "method": "jmap",
            "out_dir": str(tmp_path / "run"), "solver": {"max_iter": 3},
            "inputs": {"g": str(sim_out / "g.csv"), "H": str(sim_out / "H.csv")},
        })
        assert main(["solve", "--config", solve_cfg]) == EXIT_OK
        rows = read_trace(tmp_path / "run" / "trace.csv")
        assert len(rows) >= 2 and all(r["rel_change_f"] for r in rows[1:])
        for row in rows:
            for cell in row.values():
                if cell:
                    float(cell)

    def test_solve_indirect_vba(self, tmp_path):
        sim_out = tmp_path / "sim"
        cfg = simulate_config(tmp_path, sim_out, model="indirect")
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        solve_cfg = write_config(tmp_path, "solve.json", {
            "mode": "solve", "model": "indirect", "method": "vba-partial",
            "out_dir": str(tmp_path / "run"),
            "solver": {"max_iter": 40},
            "inputs": {"g": str(sim_out / "g.csv"), "H": str(sim_out / "H.csv"),
                       "D": str(sim_out / "D.csv")},
        })
        assert main(["solve", "--config", solve_cfg]) == EXIT_OK
        result = json.loads((tmp_path / "run" / "result.json").read_text())
        jsonschema.validate(result, RESULT_SCHEMA)
        assert result["z_hat"] is not None
        assert set(result["ig"]) == {"eps", "xi", "z"}

    def test_solve_vba_full_direct(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", simulate_config(tmp_path, sim_out)]) == EXIT_OK
        solve_cfg = write_config(tmp_path, "solve.json", {
            "mode": "solve", "model": "direct", "method": "vba-full",
            "out_dir": str(tmp_path / "run"),
            "solver": {"max_iter": 40},
            "inputs": {"g": str(sim_out / "g.csv"), "H": str(sim_out / "H.csv")},
        })
        assert main(["solve", "--config", solve_cfg]) == EXIT_OK
        result = json.loads((tmp_path / "run" / "result.json").read_text())
        jsonschema.validate(result, RESULT_SCHEMA)
        assert set(result["ig"]) == {"eps", "f"}
        assert result["z_hat"] is None

    def test_direct_solve_rejects_transform_input(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mode": "solve", "model": "direct", "method": "jmap",
            "inputs": {"g": "g.csv", "H": "H.csv", "D": "identity"},
        })
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG

    def test_verify_priors_report(self, tmp_path):
        cfg = write_config(tmp_path, "priors.json", {
            "mode": "verify-priors", "out_dir": str(tmp_path / "rep"),
            "priors": {"grid_lo": -8.0, "grid_hi": 8.0, "grid_step": 0.05,
                       "mixture_draws": 2},
        })
        assert main(["verify-priors", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "rep" / "priors_report.json").read_text())
        jsonschema.validate(report, PRIORS_SCHEMA)
        student = report["limits"]["student_t_alpha"]["sup_deviation"]
        assert all(a > b for a, b in zip(student, student[1:]))
        assert report["limits"]["student_t_alpha"]["strictly_decreasing"]
        assert report["scale_mixture"]["max_abs_deviation"] < 1e-6
        assert report["bessel"]["half_order_abs_error"] < 1e-10

    def test_verify_priors_reruns_are_byte_identical(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            cfg = write_config(tmp_path, f"priors_{run}.json", {
                "mode": "verify-priors", "seed": 17, "out_dir": str(tmp_path / run),
                "priors": {"grid_step": 0.1, "mixture_draws": 2},
            })
            assert main(["verify-priors", "--config", cfg]) == EXIT_OK
            outputs.append((tmp_path / run / "priors_report.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_non_convergence_still_exits_zero(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", simulate_config(tmp_path, sim_out)]) == EXIT_OK
        solve_cfg = write_config(tmp_path, "solve.json", {
            "mode": "solve", "model": "direct", "method": "jmap",
            "out_dir": str(tmp_path / "run"), "solver": {"max_iter": 1},
            "inputs": {"g": str(sim_out / "g.csv"), "H": str(sim_out / "H.csv")},
        })
        assert main(["solve", "--config", solve_cfg]) == EXIT_OK
        result = json.loads((tmp_path / "run" / "result.json").read_text())
        assert result["converged"] is False
        assert result["stop_reason"] == "max_iter"

    def test_out_flag_overrides_config(self, tmp_path):
        cfg = simulate_config(tmp_path, tmp_path / "ignored")
        override = tmp_path / "actual"
        assert main(["simulate", "--config", cfg, "--out", str(override)]) == EXIT_OK
        assert (override / "g.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_emit_timing_fills_millis(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", simulate_config(tmp_path, sim_out)]) == EXIT_OK
        solve_cfg = write_config(tmp_path, "solve.json", {
            "mode": "solve", "model": "direct", "method": "jmap",
            "out_dir": str(tmp_path / "run"), "emit_timing": True,
            "solver": {"max_iter": 5},
            "inputs": {"g": str(sim_out / "g.csv"), "H": str(sim_out / "H.csv")},
        })
        assert main(["solve", "--config", solve_cfg]) == EXIT_OK
        rows = read_trace(tmp_path / "run" / "trace.csv")
        assert rows[0]["millis"] == ""  # record 0 is the initial state
        assert all(float(r["millis"]) >= 0.0 for r in rows[1:])

    def test_seed_override_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = simulate_config(tmp_path, out1, seed=1)
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        cfg2 = simulate_config(tmp_path, out2, seed=1)
        assert main(["simulate", "--config", cfg2, "--seed", "2"]) == EXIT_OK
        assert (out1 / "g.csv").read_bytes() != (out2 / "g.csv").read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize("seed", [2 ** 64, -1])
    @pytest.mark.parametrize("where", ["config", "override"])
    def test_seed_outside_u64_is_config_error(self, tmp_path, where, seed):
        """2**64 would derive the same streams as seed 0."""
        out = tmp_path / "out"
        cfg = simulate_config(tmp_path, out, seed=seed if where == "config" else 1)
        override = ["--seed", str(seed)] if where == "override" else []
        assert main(["simulate", "--config", cfg, *override]) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"mode": "simulate", "bogus": 1,
                                                "simulate": {"length": 4, "sparsity": 1}})
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG

    def test_mode_subcommand_mismatch(self, tmp_path):
        cfg = simulate_config(tmp_path, tmp_path / "out")
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG

    def test_missing_input_file(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mode": "solve", "model": "direct", "method": "jmap",
            "inputs": {"g": str(tmp_path / "missing.csv"),
                       "H": str(tmp_path / "missing2.csv")},
        })
        assert main(["solve", "--config", cfg]) == EXIT_IO

    def test_malformed_input_matrix(self, tmp_path):
        g = tmp_path / "g.csv"
        g.write_text("# rows=2 cols=1\n1.0\nzap\n")
        H = tmp_path / "H.csv"
        write_matrix(np.eye(2), H)
        cfg = write_config(tmp_path, "c.json", {
            "mode": "solve", "model": "direct", "method": "jmap",
            "inputs": {"g": str(g), "H": str(H)},
        })
        assert main(["solve", "--config", cfg]) == EXIT_IO

    @pytest.mark.parametrize("section", [
        {"noise": {"kind": "stationary", "sigma": math.nan}},
        {"noise": {"kind": "nonstationary", "alpha": 3.0, "beta": math.inf}},
        {"operator": {"kind": "convolution", "kernel": [0.25, math.inf, 0.25]}},
        {"amplitude": [1.0, math.inf]},
    ])
    def test_non_finite_simulate_spec_is_solver_error(self, tmp_path, section):
        payload = {"mode": "simulate", "out_dir": str(tmp_path / "out"),
                   "simulate": {"length": 8, "sparsity": 2, **section}}
        cfg = write_config(tmp_path, "c.json", payload)  # NaN / Infinity JSON literals
        assert main(["simulate", "--config", cfg]) == EXIT_SOLVER
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("noise", [
        {"kind": "stationary", "sigma": 1e200},
        {"kind": "nonstationary", "alpha": 1.0, "beta": 1e308},
        {"kind": "nonstationary", "alpha": 1e-300, "beta": 1.0},
    ])
    def test_overflowing_noise_is_solver_error(self, tmp_path, noise):
        payload = {"mode": "simulate", "out_dir": str(tmp_path / "out"),
                   "simulate": {"length": 8, "sparsity": 2, "noise": noise}}
        assert main(["simulate", "--config", write_config(tmp_path, "c.json", payload)]) \
            == EXIT_SOLVER
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["jmap", "vba-partial", "vba-full"])
    def test_overflowing_precision_is_one_solver_error_line(self, tmp_path, method):
        """beta_eps = 1e-308 overflows the noise precision: exit 4, and stderr
        holds the solver error line alone, with no numpy warning before it."""
        g, H = tmp_path / "g.csv", tmp_path / "H.csv"
        write_matrix(np.array([0.0, 2.5]), g)
        write_matrix(np.array([[2.0, 0.0], [0.5, 1.0]]), H)
        cfg = write_config(tmp_path, "c.json", {
            "mode": "solve", "model": "direct", "method": method,
            "out_dir": str(tmp_path / "run"),
            "hyper": {"alpha_eps": 1.0, "beta_eps": 1e-308, "alpha_f": 1.0, "beta_f": 1.0},
            "inputs": {"g": str(g), "H": str(H)},
        })
        src = os.path.dirname(os.path.dirname(os.path.abspath(bsi.cli.__file__)))
        done = subprocess.run([sys.executable, "-m", "bsi", "solve", "--config", cfg],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == EXIT_SOLVER
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("bsi: solver error: "), done.stderr

    def test_nonfinite_operator_is_solver_error(self, tmp_path):
        g = tmp_path / "g.csv"
        write_matrix(np.zeros(2), g)
        H = tmp_path / "H.csv"
        H.write_text("# rows=2 cols=2\nnan,0.0\n0.0,1.0\n")
        cfg = write_config(tmp_path, "c.json", {
            "mode": "solve", "model": "direct", "method": "jmap",
            "inputs": {"g": str(g), "H": str(H)},
        })
        assert main(["solve", "--config", cfg]) == EXIT_SOLVER
