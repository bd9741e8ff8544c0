import csv
import json

import numpy as np
import pytest

import jsonschema

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
    write_matrix,
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


class TestConfigParsing:
    def base(self):
        return {"mode": "simulate", "simulate": {"length": 4, "sparsity": 1}}

    def test_minimal_ok(self):
        cfg = parse_config(self.base())
        assert cfg.mode == "simulate"
        assert cfg.seed == 0

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
    ])
    def test_wrong_json_type_rejected(self, patch):
        raw = self.base()
        raw.update(patch)
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_json_types_accepted(self):
        raw = self.base()
        raw.update({"emit_timing": True, "seed": 7, "hyper": {"alpha_eps": 2},
                    "solver": {"max_iter": 3, "tol_rel_f": 1}})
        cfg = parse_config(raw)
        assert cfg.emit_timing is True and cfg.seed == 7 and cfg.max_iter == 3
        assert cfg.hyper.alpha_eps == 2.0 and cfg.tol_rel_f == 1.0


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def simulate_config(tmp_path, out, seed=1, model="direct", noise=None):
    payload = {
        "mode": "simulate",
        "model": model,
        "seed": seed,
        "out_dir": str(out),
        "simulate": {
            "length": 8,
            "sparsity": 2,
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
